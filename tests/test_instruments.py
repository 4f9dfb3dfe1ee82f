import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharp_bell import instruments, verify
from unsharp_bell.bell import singlet_state
from unsharp_bell.instruments import (
    NULL_PROBABILITY,
    disturbance_report,
    epr_measurement,
    lueders_update,
)
from unsharp_bell.operators import (
    I2,
    check_density,
    check_effect,
    expectation,
    partial_trace,
    sqrt_psd,
    trace_norm,
)
from unsharp_bell.relativistic import Measurement, MeasurementProgramme, observer_chart
from unsharp_bell.sampling import random_density
from unsharp_bell.spin_povm import effect_root, unsharp_effect

from random_operators import random_effect, random_unit_vector

Z = np.array([0.0, 0, 1])


def nonselective(state, effects) -> np.ndarray:
    """Measure ``effects`` and discard the outcome, with roots eigensolved by ``sqrt_psd``."""
    return lueders_update(state, {k: sqrt_psd(effect) for k, effect in enumerate(effects)})


def test_selective_matches_sandwich(rng):
    rho = random_density(rng, 2)
    effect = random_effect(rng, 2)
    root = sqrt_psd(effect)
    sandwich = root @ rho @ root
    sub = lueders_update(rho, {1: root, -1: sqrt_psd(I2 - effect)}, 1)
    prob = np.trace(sub).real
    np.testing.assert_allclose(sub, sandwich, atol=1e-13)
    # its trace is the Born-rule probability, so sub / prob is a state
    np.testing.assert_allclose(prob, expectation(rho, effect), atol=1e-13)
    np.testing.assert_allclose(np.trace(sub / prob).real, 1.0, atol=1e-12)


def test_selective_null_outcome():
    up, down = unsharp_effect(Z, 1.0), unsharp_effect(-Z, 1.0)
    sub = lueders_update(up, {1: sqrt_psd(up), -1: sqrt_psd(down)}, -1)
    assert np.trace(sub).real <= NULL_PROBABILITY
    # epr_measurement keeps no conditional state for an outcome that cannot occur
    result = epr_measurement(Z, 1.0, np.kron(up, down))
    assert result.probabilities[-1] <= NULL_PROBABILITY
    assert -1 not in result.component_posts
    assert -1 not in result.reduced_post_conditionals


def test_sharp_lueders_ideality_and_repeatability():
    p = unsharp_effect(Z, 1.0)
    roots = {1: sqrt_psd(p), -1: sqrt_psd(I2 - p)}
    sub = lueders_update(p, roots, 1)  # state already in the eigenspace
    prob = np.trace(sub).real
    np.testing.assert_allclose(prob, 1.0, atol=1e-14)
    np.testing.assert_allclose(sub / prob, p, atol=1e-14)
    # repeatability: a second sharp measurement fires with certainty
    again = lueders_update(sub / prob, roots, 1)
    np.testing.assert_allclose(np.trace(again).real, 1.0, atol=1e-14)


def test_nonselective_trace_preserving(rng):
    rho = random_density(rng, 2)
    effect = random_effect(rng, 2)
    post = nonselective(rho, [effect, I2 - effect])
    np.testing.assert_allclose(np.trace(post).real, 1.0, atol=1e-12)
    vals = np.linalg.eigvalsh(post)
    assert vals.min() >= -1e-12


def test_nonselective_fixed_point_commuting():
    # commuting state and effects: no disturbance at all
    rho = np.diag([0.3, 0.7])
    effect = np.diag([0.8, 0.2])
    post = nonselective(rho, [effect, I2 - effect])
    np.testing.assert_allclose(post, rho, atol=1e-14)


def test_instrument_probabilities_sum_to_one(rng):
    effect = random_effect(rng, 2)
    roots = {1: sqrt_psd(effect), -1: sqrt_psd(I2 - effect)}
    rho = random_density(rng, 2)
    probs = {k: np.trace(lueders_update(rho, roots, k)).real for k in roots}
    np.testing.assert_allclose(probs[1], expectation(rho, effect), atol=1e-12)
    np.testing.assert_allclose(sum(probs.values()), 1.0, atol=1e-12)


def test_yes_probability_never_decreases(rng):
    # tr[rho' E] = tr[rho E] holds exactly for a binary Lueders instrument
    for _ in range(200):
        dim = 2 if rng.random() < 0.5 else 4
        rho = random_density(rng, dim)
        effect = random_effect(rng, dim)
        post = nonselective(rho, [effect, np.eye(dim) - effect])
        np.testing.assert_allclose(
            expectation(post, effect), expectation(rho, effect), atol=1e-12
        )


def test_disturbance_bound_basic(rng):
    for _ in range(100):
        rho = random_density(rng, 2)
        effect = random_effect(rng, 2)
        prob = expectation(rho, effect)
        if prob <= 0.5:
            continue
        report = disturbance_report(rho, effect)
        assert report.holds
        assert report.distance <= report.bound + 1e-10


def test_disturbance_bound_trace_distance(rng):
    rho = random_density(rng, 2)
    effect = 0.5 * (I2 + 0.9 * np.diag([1.0, -1.0]))
    prob = expectation(rho, effect)
    if prob > 0.5:
        report = disturbance_report(rho, effect)
        post = nonselective(rho, [effect, I2 - effect])
        np.testing.assert_allclose(report.distance, trace_norm(rho - post), atol=1e-13)


def test_disturbance_epsilon_window():
    rho = unsharp_effect(Z, 1.0)
    effect = unsharp_effect(np.array([0.0, 0, 1]), 0.2)  # prob 0.6, eps 0.4
    report = disturbance_report(rho, effect)
    np.testing.assert_allclose(report.epsilon, 0.4, atol=1e-12)
    with pytest.raises(ValueError, match="epsilon"):
        disturbance_report(rho, effect, epsilon=0.7)
    with pytest.raises(ValueError, match="below"):
        disturbance_report(rho, effect, epsilon=0.1)


def test_near_certain_effect_barely_disturbs():
    rho = unsharp_effect(Z, 1.0)
    effect = unsharp_effect(np.array([1e-3, 0, 1.0]), 0.999)
    report = disturbance_report(rho, effect)
    assert report.epsilon < 1e-3
    assert report.distance <= report.bound


def test_epr_component_posts(rng):
    axis = random_unit_vector(rng)
    for s in (0.0, 0.5, 0.8, 1.0):
        result = epr_measurement(axis, s)
        for outcome in (1, -1):
            np.testing.assert_allclose(result.probabilities[outcome], 0.5, atol=1e-12)
            partner = unsharp_effect(-outcome * axis, s)
            # subnormalized component carries the outcome probability
            np.testing.assert_allclose(
                result.reduced_post_components[outcome], 0.5 * partner, atol=1e-12
            )
            np.testing.assert_allclose(
                result.reduced_post_conditionals[outcome], partner, atol=1e-12
            )
            np.testing.assert_allclose(
                result.outcome_prob_after[outcome], 0.5 * (1 + s**2), atol=1e-12
            )
        np.testing.assert_allclose(result.reduced_post_mixture, I2 / 2, atol=1e-12)
        np.testing.assert_allclose(result.reduced_pre, I2 / 2, atol=1e-12)


def test_epr_no_signalling(rng):
    # nonselective measurement on side one leaves side two untouched
    axis = random_unit_vector(rng)
    result = epr_measurement(axis, 0.7)
    np.testing.assert_allclose(
        partial_trace(result.joint_post_mixture, keep=2), result.reduced_pre, atol=1e-12
    )


def test_epr_rejects_single_qubit_state():
    with pytest.raises(ValueError, match="two-particle"):
        epr_measurement(np.array([0.0, 0, 1]), 0.5, state=np.eye(2) / 2)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([2, 4]),
)
def test_disturbance_bound_random(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    effect = random_effect(rng, dim)
    # mix the effect toward identity until the state is likely accepted
    effect = 0.25 * effect + 0.75 * np.eye(dim)
    report = disturbance_report(rho, effect)
    assert report.epsilon < 0.5
    assert report.distance <= report.bound + 1e-10


def counted_eigensolves(monkeypatch) -> list:
    """Names of the ``np.linalg`` eigensolvers called from here on, in call order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name,
            lambda matrix, *args, _name=name, _solver=solver, **kwargs: (
                calls.append(_name) or _solver(matrix, *args, **kwargs)
            ),
        )
    return calls


def test_epr_measurement_checks_its_state_once(monkeypatch):
    # one eigvalsh checks a given state, and the default singlet was checked
    # at import; the two effects are valid by construction and their roots
    # are closed forms, so nothing else is eigensolved
    calls = counted_eigensolves(monkeypatch)
    epr_measurement(np.array([0.3, 0.0, 1.0]), 0.8)
    assert calls == []
    epr_measurement(np.array([0.3, 0.0, 1.0]), 0.8, singlet_state())
    assert calls == ["eigvalsh"]


def test_disturbance_report_checks_each_input_once(monkeypatch):
    # state and effect checks, the two roots, then the trace norm
    rho = unsharp_effect(Z, 1.0)
    effect = unsharp_effect(np.array([0.1, 0, 1]), 0.9)
    calls = counted_eigensolves(monkeypatch)
    disturbance_report(rho, effect)
    assert calls == ["eigvalsh", "eigvalsh", "eigh", "eigh", "eigvalsh"]


def test_direct_roots_equal_the_instrument_bit_for_bit(rng):
    # the report's distance is, bit for bit, that of a Luders update whose
    # inputs are checked and whose effects are each rooted by sqrt_psd
    for _ in range(20):
        rho = unsharp_effect(random_unit_vector(rng), 1.0)
        effect = unsharp_effect(random_unit_vector(rng), rng.uniform(0.9, 1.0))
        try:
            report = disturbance_report(rho, effect)
        except ValueError:
            continue
        roots = {0: sqrt_psd(check_effect(effect)), 1: sqrt_psd(check_effect(I2 - effect))}
        post = lueders_update(check_density(rho), roots)
        assert report.distance == trace_norm(rho - post)


def test_epr_measurement_matches_the_eigensolved_instrument(rng):
    # The closed-form roots against sqrt_psd's eigensolved roots.  Away
    # from sharpness 1 the roots agree to about 1e-14; at sharpness 1 the
    # closed form is the exact projector, and eigh's root is up to about
    # 1.3e-8 away from it.
    for s in rng.uniform(0.0, 1.0, 40).tolist() + [1.0]:
        axis = random_unit_vector(rng)
        state = random_density(rng, 4)
        result = epr_measurement(axis, s, state)
        roots = {k: sqrt_psd(np.kron(unsharp_effect(k * axis, s), I2)) for k in (1, -1)}
        tol = 1e-13 if s < 1.0 else 1e-7
        assert np.abs(result.joint_post_mixture - lueders_update(state, roots)).max() <= tol
        for k in (1, -1):
            sub = lueders_update(state, roots, k)
            prob = np.trace(sub).real
            assert abs(result.probabilities[k] - prob) <= tol
            assert np.abs(result.component_posts[k] - sub / prob).max() <= tol
    projectors = {k: np.kron(unsharp_effect(k * result.axis, 1.0), I2) for k in (1, -1)}
    assert result.joint_post_mixture.tobytes() == lueders_update(state, projectors).tobytes()


def test_every_spin_measurement_is_rooted_by_one_builder(monkeypatch):
    # epr_measurement, the observer charts and the battery's chart check all
    # take their Lueders roots from instruments._measurement_roots: a change
    # to the roots it builds reaches each of them
    rooted = []
    monkeypatch.setattr(instruments, "effect_root",
                        lambda axis, s: rooted.append((tuple(axis), s)) or effect_root(axis, s))
    axis = np.array([0.6, 0.0, 0.8])
    epr_measurement(axis, 0.7)
    assert rooted == [(tuple(axis), 0.7), (tuple(-axis), 0.7)]
    measurement = Measurement((0.0, 0.0, 0.0, 0.0), axis, 2)
    observer_chart(MeasurementProgramme("singlet", 0.4, [measurement], (1,)), (1.0, 0.0, 0.0, 0.0))
    verify._chart_roots([measurement], [0.9])
    assert [s for _, s in rooted[2:]] == [0.4, 0.4, 0.9, 0.9]

