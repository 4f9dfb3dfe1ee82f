import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharp_bell.instruments import (
    Instrument,
    disturbance_report,
    epr_measurement,
    lueders_nonselective,
    lueders_selective,
)
from unsharp_bell.operators import (
    I2,
    expectation,
    partial_trace,
    sqrt_psd,
    trace_norm,
)
from unsharp_bell.sampling import random_density, random_effect, random_unit_vector
from unsharp_bell.spin_povm import spin_projector, unsharp_effect


def test_selective_matches_sandwich(rng):
    rho = random_density(rng, 2)
    effect = random_effect(rng, 2)
    record = lueders_selective(rho, effect)
    root = sqrt_psd(effect)
    sandwich = root @ rho @ root
    prob = np.trace(sandwich).real
    np.testing.assert_allclose(record.probability, prob, atol=1e-13)
    np.testing.assert_allclose(record.subnormalized, sandwich, atol=1e-13)
    np.testing.assert_allclose(record.post_state, sandwich / prob, atol=1e-12)


def test_selective_null_outcome():
    rho = spin_projector(np.array([0.0, 0, 1]))
    effect = spin_projector(np.array([0.0, 0, -1]))
    record = lueders_selective(rho, effect)
    assert record.probability <= 1e-12
    assert record.null_outcome
    assert record.post_state is None


def test_sharp_lueders_ideality_and_repeatability():
    p = spin_projector(np.array([0.0, 0, 1]))
    rho = p.copy()  # state already in the eigenspace
    record = lueders_selective(rho, p)
    np.testing.assert_allclose(record.probability, 1.0, atol=1e-14)
    np.testing.assert_allclose(record.post_state, rho, atol=1e-14)
    # repeatability: a second sharp measurement fires with certainty
    again = lueders_selective(record.post_state, p)
    np.testing.assert_allclose(again.probability, 1.0, atol=1e-14)


def test_nonselective_trace_preserving(rng):
    rho = random_density(rng, 2)
    effect = random_effect(rng, 2)
    post = lueders_nonselective(rho, [effect, I2 - effect])
    np.testing.assert_allclose(np.trace(post).real, 1.0, atol=1e-12)
    vals = np.linalg.eigvalsh(post)
    assert vals.min() >= -1e-12


def test_nonselective_fixed_point_commuting():
    # commuting state and effects: no disturbance at all
    rho = np.diag([0.3, 0.7])
    effect = np.diag([0.8, 0.2])
    post = lueders_nonselective(rho, [effect, I2 - effect])
    np.testing.assert_allclose(post, rho, atol=1e-14)


def test_instrument_requires_completeness(rng):
    effect = random_effect(rng, 2)
    with pytest.raises(ValueError, match="identity"):
        Instrument({1: effect, -1: 0.5 * (I2 - effect)})


def test_instrument_without_effects_is_refused():
    with pytest.raises(ValueError, match="identity"):
        Instrument({})
    with pytest.raises(ValueError, match="identity"):
        lueders_nonselective(np.eye(2) / 2.0, [])


def test_instrument_probabilities_sum_to_one(rng):
    effect = random_effect(rng, 2)
    instrument = Instrument({1: effect, -1: I2 - effect})
    rho = random_density(rng, 2)
    probs = instrument.probabilities(rho)
    np.testing.assert_allclose(sum(probs.values()), 1.0, atol=1e-12)


def test_yes_probability_never_decreases(rng):
    # tr[rho' E] = tr[rho E] holds exactly for a binary Lueders instrument
    for _ in range(200):
        dim = 2 if rng.random() < 0.5 else 4
        rho = random_density(rng, dim)
        effect = random_effect(rng, dim)
        post = lueders_nonselective(rho, [effect, np.eye(dim) - effect])
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
        post = lueders_nonselective(rho, [effect, I2 - effect])
        np.testing.assert_allclose(report.distance, trace_norm(rho - post), atol=1e-13)


def test_disturbance_epsilon_window():
    rho = spin_projector(np.array([0.0, 0, 1]))
    effect = unsharp_effect(np.array([0.0, 0, 1]), 0.2)  # prob 0.6, eps 0.4
    report = disturbance_report(rho, effect)
    np.testing.assert_allclose(report.epsilon, 0.4, atol=1e-12)
    with pytest.raises(ValueError, match="epsilon"):
        disturbance_report(rho, effect, epsilon=0.7)
    with pytest.raises(ValueError, match="below"):
        disturbance_report(rho, effect, epsilon=0.1)


def test_near_certain_effect_barely_disturbs():
    rho = spin_projector(np.array([0.0, 0, 1]))
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
    # one eigvalsh checks the state; the two effects are valid by
    # construction, so only their roots are eigensolved
    calls = counted_eigensolves(monkeypatch)
    epr_measurement(np.array([0.3, 0.0, 1.0]), 0.8)
    assert calls == ["eigvalsh", "eigh", "eigh"]


def test_disturbance_report_checks_each_input_once(monkeypatch):
    # state and effect checks, the two roots, then the trace norm
    rho = spin_projector(np.array([0.0, 0, 1]))
    effect = unsharp_effect(np.array([0.1, 0, 1]), 0.9)
    calls = counted_eigensolves(monkeypatch)
    disturbance_report(rho, effect)
    assert calls == ["eigvalsh", "eigvalsh", "eigh", "eigh", "eigvalsh"]


def test_direct_roots_equal_the_instrument_bit_for_bit(rng):
    # dropping the Instrument changes no bit of either result
    for _ in range(20):
        rho = spin_projector(random_unit_vector(rng))
        effect = unsharp_effect(random_unit_vector(rng), rng.uniform(0.9, 1.0))
        try:
            report = disturbance_report(rho, effect)
        except ValueError:
            continue
        post = Instrument({0: effect, 1: I2 - effect}).nonselective(rho)
        assert report.distance == trace_norm(rho - post)

        axis, s = random_unit_vector(rng), rng.uniform(0.0, 1.0)
        state = random_density(rng, 4)
        result = epr_measurement(axis, s, state)
        instrument = Instrument({
            1: np.kron(unsharp_effect(axis, s), I2), -1: np.kron(unsharp_effect(-axis, s), I2)
        })
        assert result.joint_post_mixture.tobytes() == instrument.nonselective(state).tobytes()
        for k in (1, -1):
            record = instrument.select(state, k)
            assert result.probabilities[k] == record.probability
            assert result.component_posts[k].tobytes() == record.post_state.tobytes()
