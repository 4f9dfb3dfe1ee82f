import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharp_bell import bell
from unsharp_bell.bell import (
    THRESHOLDS,
    BellConfiguration,
    bell_norm,
    bell_operator,
    chsh_report,
    coplanar_configuration,
    generalized_bell_operator,
    operator_chsh_closed_form,
    operator_chsh_holds,
    orthogonal_configuration,
    scan_lambda_threshold,
    singlet_pair_prob,
    singlet_state,
)
from unsharp_bell.operators import check_hermitian, expectation, pauli_dot
from unsharp_bell.sampling import random_density

from random_operators import random_unit_vector

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
    for holds in (operator_chsh_closed_form, lambda config: operator_chsh_holds(config).holds):
        assert holds(orthogonal_configuration(limit))
        assert holds(orthogonal_configuration(limit - 1e-6))
        assert not holds(orthogonal_configuration(limit + 1e-6))


def test_operator_chsh_equals_norm_criterion(rng):
    # 0 <= Btilde <= I is the same statement as lambda^2 |B| <= 2
    for _ in range(100):
        config = random_configuration(rng)
        result = operator_chsh_holds(config)
        norm_ok = config.sharpness**2 * bell_norm(config) <= 2.0 + 4e-12
        assert result.holds == norm_ok == operator_chsh_closed_form(config)


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
    # rotation invariance: the same matrix from the spin basis along any axis
    rng = np.random.default_rng(11)
    for _ in range(5):
        down, up = np.linalg.eigh(pauli_dot(random_unit_vector(rng)))[1].T  # eigenvalues -1, +1
        psi = (np.kron(up, down) - np.kron(down, up)) / np.sqrt(2.0)
        np.testing.assert_allclose(np.outer(psi, psi.conj()), rho, atol=1e-12)


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


def test_bell_operators_are_exactly_hermitian(rng):
    # operator_chsh_holds and the scan eigensolve them unchecked: each must equal
    # its adjoint, so check_hermitian's Hermitian part eigensolves to the same bits
    configs = [orthogonal_configuration(0.84), coplanar_configuration(1.0, np.pi / 4)]
    configs += [random_configuration(rng) for _ in range(500)]
    for config in configs:
        for operator in (bell_operator(config), generalized_bell_operator(config)):
            assert (operator == operator.conj().T).all()
            gated = np.linalg.eigh(check_hermitian(operator))
            for got, want in zip(np.linalg.eigh(operator), gated):
                assert got.tobytes() == want.tobytes()


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
    sharpness, violated = result.sharpness, result.violated
    assert sharpness[0] == 0.0 and sharpness[-1] == 1.0
    # violation is monotone in sharpness: once violated, stays violated
    flags = violated.tolist()
    assert flags == sorted(flags)
    np.testing.assert_array_equal(violated, result.f > result.bound + 1e-12)
    # the columns are one per grid point, and read-only
    columns = (sharpness, result.bound, result.max_operator_violation, violated)
    assert {column.shape for column in columns} == {(101,)}
    for column in columns:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]


def test_scan_endpoint_rows():
    result = scan_lambda_threshold(1000)
    assert result.sharpness[-1] == 1.0
    # at full sharpness the worst excess is 2 sqrt(2) - 2
    np.testing.assert_allclose(result.f - result.bound[-1], 2 * ROOT2 - 2, atol=1e-12)
    # at the coexistence limit nothing is violated yet
    near_limit = int(np.argmin(np.abs(result.sharpness - 1 / ROOT2)))
    assert not result.violated[near_limit]
    assert result.max_operator_violation[near_limit] <= 0


def test_scan_rejects_small_grid():
    with pytest.raises(ValueError, match="grid"):
        scan_lambda_threshold(5)


@pytest.mark.parametrize("grid", [10.5, 20.0, np.float64(20.0), "20", None],
                         ids=["10.5", "20.0", "float64", "text", "None"])
def test_scan_refuses_a_grid_that_is_not_an_integer(grid):
    # 10.5 used to reach np.linspace and raise its bare TypeError
    with pytest.raises(ValueError, match=re.escape(f"grid must be an integer, got {grid!r}")):
        scan_lambda_threshold(grid)


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


def old_bell_norm(config) -> float:
    """The np.cross and np.linalg.norm closed form ``bell_norm`` replaced."""
    c1 = float(np.linalg.norm(np.cross(config.axis1, config.axis2)))
    c2 = float(np.linalg.norm(np.cross(config.axis3, config.axis4)))
    return 2.0 * math.sqrt(1.0 + c1 * c2)


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cross_norm_keeps_the_bits_of_np_cross(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        a = rng.normal(size=3)
        parallel = a * rng.uniform(-2.0, 2.0) + rng.normal(size=3) * 10.0 ** rng.uniform(-16, -6)
        for b in (rng.normal(size=3), parallel, a, -a):
            for scale in (1.0, 1e-150, 1e-170, 1e150, 1e160):  # 1e160: both overflow to inf
                with np.errstate(over="ignore"):
                    want = np.linalg.norm(np.cross(a * scale, b))
                    assert same_bits(bell._cross_norm(a * scale, b), want)
    config = random_configuration(rng)
    assert same_bits(bell_norm(config), old_bell_norm(config))
    for angle in rng.uniform(-1e-6, 1e-6, size=20):  # near-parallel pairs of unit axes
        config = coplanar_configuration(1.0, angle)
        assert same_bits(bell_norm(config), old_bell_norm(config))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_chsh_pair_probs_keep_the_bits_of_singlet_pair_prob(seed):
    rng = np.random.default_rng(seed)
    for config in (random_configuration(rng), coplanar_configuration(rng.uniform(), rng.uniform(-4, 4))):
        report = chsh_report(config)
        assert list(report.pair_probs) == [(i, j) for i in (1, -1, 2, -2) for j in (3, -3, 4, -4)]
        for (i, j), p in report.pair_probs.items():
            ni, nj = (np.sign(k) * config.axes[abs(k) - 1] for k in (i, j))
            assert same_bits(p, singlet_pair_prob(config.sharpness, ni, nj))
