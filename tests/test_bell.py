import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharp_bell.bell import (
    THRESHOLDS,
    BellConfiguration,
    bell_norm,
    bell_operator,
    chsh_report,
    coplanar_configuration,
    generalized_bell_operator,
    operator_chsh_holds,
    orthogonal_configuration,
    scan_lambda_threshold,
    singlet_pair_prob,
    singlet_state,
)
from unsharp_bell.operators import expectation, pauli_dot
from unsharp_bell.sampling import random_density, random_unit_vector

ROOT2 = np.sqrt(2.0)


def random_configuration(rng, sharpness=None):
    s = rng.uniform(0.0, 1.0) if sharpness is None else sharpness
    return BellConfiguration(s, *(random_unit_vector(rng) for _ in range(4)))


def test_thresholds_values():
    np.testing.assert_allclose(THRESHOLDS.pair_coexistence, 1 / ROOT2, atol=1e-15)
    np.testing.assert_allclose(THRESHOLDS.operator_chsh, 2.0 ** -0.25, atol=1e-15)
    np.testing.assert_allclose(THRESHOLDS.unsharpness_chsh, 0.5 * (1 - 1 / ROOT2), atol=1e-15)
    np.testing.assert_allclose(THRESHOLDS.cirelson, 2 * ROOT2, atol=1e-15)


def test_bell_norm_matches_eigensolver(rng):
    for _ in range(200):
        config = random_configuration(rng)
        operator = bell_operator(config)
        eig_norm = np.max(np.abs(np.linalg.eigvalsh(operator)))
        np.testing.assert_allclose(bell_norm(config), eig_norm, atol=1e-9)


def test_bell_norm_never_exceeds_cirelson(rng):
    for _ in range(200):
        assert bell_norm(random_configuration(rng)) <= 2 * ROOT2 + 1e-12


def test_bell_norm_attained_at_orthogonal():
    np.testing.assert_allclose(bell_norm(orthogonal_configuration(1.0)), 2 * ROOT2, atol=1e-12)


def test_bell_operator_is_sharp():
    # the Bell combination is built from sharp (projective) factors,
    # so it does not depend on the sharpness entry
    rng = np.random.default_rng(3)
    axes = [random_unit_vector(rng) for _ in range(4)]
    a = bell_operator(BellConfiguration(0.3, *axes))
    b = bell_operator(BellConfiguration(1.0, *axes))
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_bell_operator_square_identity(rng):
    # B^2 = 4 I - 4 (n1 x n2).sigma (x) (n3 x n4).sigma
    for _ in range(20):
        config = random_configuration(rng)
        n1, n2, n3, n4 = config.axes
        operator = bell_operator(config)
        want = 4.0 * np.eye(4) - 4.0 * np.kron(
            pauli_dot(np.cross(n1, n2)), pauli_dot(np.cross(n3, n4))
        )
        np.testing.assert_allclose(operator @ operator, want, atol=1e-10)


def test_generalized_bell_operator_assembly(rng):
    config = random_configuration(rng)
    smeared = generalized_bell_operator(config)
    direct = 0.5 * np.eye(4) - (config.sharpness**2 / 4.0) * bell_operator(config)
    np.testing.assert_allclose(smeared, direct, atol=1e-12)


def test_operator_chsh_threshold_orthogonal():
    limit = THRESHOLDS.operator_chsh
    assert operator_chsh_holds(orthogonal_configuration(limit)).holds
    assert operator_chsh_holds(orthogonal_configuration(limit - 1e-6)).holds
    assert not operator_chsh_holds(orthogonal_configuration(limit + 1e-6)).holds


def test_operator_chsh_equals_norm_criterion(rng):
    # 0 <= Btilde <= I is the same statement as lambda^2 |B| <= 2
    for _ in range(100):
        config = random_configuration(rng)
        result = operator_chsh_holds(config)
        norm_ok = config.sharpness**2 * bell_norm(config) <= 2.0 + 4e-12
        assert result.holds == norm_ok


def test_singlet_violation_implies_operator_violation(rng):
    for _ in range(200):
        config = random_configuration(rng)
        if chsh_report(config).violated:
            assert not operator_chsh_holds(config).holds


def test_operator_chsh_expectation_necessity(rng):
    # whenever the operator inequality holds, every state gives a
    # smeared expectation inside [0, 1]
    for _ in range(25):
        config = random_configuration(rng)
        result = operator_chsh_holds(config)
        smeared = generalized_bell_operator(config)
        if not result.holds:
            continue
        for _ in range(40):
            rho = random_density(rng, 4)
            value = expectation(rho, smeared)
            assert -1e-10 <= value <= 1.0 + 1e-10


def test_singlet_state_basics():
    rho = singlet_state()
    np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-15)
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)
    # rotation invariance: same matrix in any basis
    rng = np.random.default_rng(11)
    np.testing.assert_allclose(singlet_state(random_unit_vector(rng)), rho, atol=1e-12)


def test_singlet_pair_prob_trace_oracle(rng):
    from unsharp_bell.spin_povm import unsharp_effect

    rho = singlet_state()
    for _ in range(100):
        n1, n2 = random_unit_vector(rng), random_unit_vector(rng)
        s = rng.uniform(0.0, 1.0)
        joint_effect = np.kron(unsharp_effect(n1, s), unsharp_effect(n2, s))
        want = expectation(rho, joint_effect)
        np.testing.assert_allclose(singlet_pair_prob(s, n1, n2), want, atol=1e-13)


def test_singlet_anticorrelation():
    n = np.array([0.0, 0.0, 1.0])
    # sharp same-direction outcomes never coincide on the singlet
    np.testing.assert_allclose(singlet_pair_prob(1.0, n, n), 0.0, atol=1e-15)
    np.testing.assert_allclose(singlet_pair_prob(1.0, n, -n), 0.5, atol=1e-15)


def test_coplanar_combination_formula():
    # the coplanar family realizes f(theta) = 3 cos(theta) - cos(3 theta)
    for theta in np.linspace(0.0, np.pi / 2, 19):
        report = chsh_report(coplanar_configuration(1.0, theta))
        np.testing.assert_allclose(report.f, 3 * np.cos(theta) - np.cos(3 * theta), atol=1e-12)


@pytest.mark.parametrize("angle", [float("nan"), float("inf"), float("-inf")])
def test_coplanar_rejects_non_finite_angle(angle):
    with pytest.raises(ValueError, match="angle must be finite"):
        coplanar_configuration(0.5, angle)


@pytest.mark.parametrize("angle", [1e308, -9e307])
def test_coplanar_refuses_an_angle_whose_double_overflows(angle):
    # sin(-2 angle) would be sin(-inf): a math domain error that names nothing
    with pytest.raises(ValueError, match=re.escape(f"angle {angle!r} is out of range")):
        coplanar_configuration(0.5, angle)


def test_coplanar_accepts_the_largest_angles_with_a_finite_double():
    for angle in (8e307, -8e307):
        chsh_report(coplanar_configuration(0.5, angle))


def test_operator_chsh_result_carries_its_operator(rng):
    for config in (orthogonal_configuration(0.84), random_configuration(rng)):
        result = operator_chsh_holds(config)
        assert result.operator.tobytes() == generalized_bell_operator(config).tobytes()


def test_coplanar_maximum_at_quarter_pi():
    report = chsh_report(coplanar_configuration(1.0, np.pi / 4))
    np.testing.assert_allclose(report.f, 2 * ROOT2, atol=1e-12)
    assert report.violated


def test_chsh_bound_scales_inverse_square():
    report = chsh_report(coplanar_configuration(0.5, np.pi / 4))
    np.testing.assert_allclose(report.bound, 8.0, atol=1e-12)
    assert not report.violated


def test_chsh_bound_infinite_at_zero():
    report = chsh_report(coplanar_configuration(0.0, np.pi / 4))
    assert np.isinf(report.bound)
    assert not report.violated


def test_epsilon_threshold_constant():
    report = chsh_report(coplanar_configuration(0.9, np.pi / 4))
    np.testing.assert_allclose(report.epsilon, 0.5 * (1 - 0.9**2), atol=1e-15)
    # the violation threshold in epsilon sits exactly at the operator one
    critical = chsh_report(coplanar_configuration(THRESHOLDS.operator_chsh, np.pi / 4))
    np.testing.assert_allclose(critical.epsilon, THRESHOLDS.unsharpness_chsh, atol=1e-15)


def test_scan_threshold_converges():
    result = scan_lambda_threshold(10_000)
    assert abs(result.threshold - 2.0 ** -0.25) <= 2e-4
    assert abs(result.singlet_threshold - result.operator_threshold) <= 2e-4
    np.testing.assert_allclose(result.best_angle, np.pi / 4, atol=1e-3)


def test_scan_rows_monotone_structure():
    result = scan_lambda_threshold(100)
    rows = result.rows
    assert rows[0].sharpness == 0.0 and rows[-1].sharpness == 1.0
    # violation is monotone in sharpness: once violated, stays violated
    flags = [row.violated for row in rows]
    assert flags == sorted(flags)
    for row in rows:
        assert row.violated == (row.f > row.bound + 1e-12)


def test_scan_endpoint_rows():
    result = scan_lambda_threshold(1000)
    last = result.rows[-1]
    assert last.sharpness == 1.0
    # at full sharpness the worst excess is 2 sqrt(2) - 2
    np.testing.assert_allclose(last.f - last.bound, 2 * ROOT2 - 2, atol=1e-12)
    # at the coexistence limit nothing is violated yet
    near_limit = min(result.rows, key=lambda r: abs(r.sharpness - 1 / ROOT2))
    assert not near_limit.violated
    assert near_limit.max_operator_violation <= 0


def test_scan_rejects_small_grid():
    with pytest.raises(ValueError, match="grid"):
        scan_lambda_threshold(5)


def test_configuration_normalizes_axes():
    config = BellConfiguration(0.5, *(np.array([0.0, 0, 2]),) * 4)
    for axis in config.axes:
        np.testing.assert_allclose(np.linalg.norm(axis), 1.0, atol=1e-15)


def test_configuration_rejects_bad_sharpness():
    axes = (np.array([0.0, 0, 1]),) * 4
    with pytest.raises(ValueError, match="sharpness"):
        BellConfiguration(1.5, *axes)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_norm_formula_cross_terms(seed):
    # |B| = 2 sqrt(1 + |n1 x n2| |n3 x n4|)
    rng = np.random.default_rng(seed)
    axes = [random_unit_vector(rng) for _ in range(4)]
    config = BellConfiguration(1.0, *axes)
    cross_a = np.linalg.norm(np.cross(axes[0], axes[1]))
    cross_b = np.linalg.norm(np.cross(axes[2], axes[3]))
    np.testing.assert_allclose(
        bell_norm(config), 2.0 * np.sqrt(1.0 + cross_a * cross_b), atol=1e-12
    )
