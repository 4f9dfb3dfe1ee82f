import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unsharp_bell.bell import BellConfiguration, singlet_pair_prob
from unsharp_bell.operators import I2, pauli_dot, sqrt_psd
from unsharp_bell.relativistic import Measurement, MeasurementProgramme, SpacetimeEvent
from unsharp_bell.spin_povm import (
    PAIR_OUTCOMES,
    PAIR_SHARPNESS_LIMIT,
    CoexistenceError,
    _pair_effects,
    coexistence_margin,
    effect_root,
    joint_observable_pair,
    pair_coexistent,
    parse_direction,
    quadruple_joint,
    unit_vector,
    unsharp_effect,
)

from random_operators import random_unit_vector

ORTHO = (np.array([1.0, 0, 0]), np.array([0.0, 1, 0]))


def test_unsharp_effect_spectrum():
    # eigenvalues of (I + s n.sigma)/2 are (1 +- s)/2
    e = unsharp_effect(np.array([0.0, 0, 1]), 0.6)
    np.testing.assert_allclose(np.linalg.eigvalsh(e), [0.2, 0.8], atol=1e-15)


def test_unsharp_effect_sharp_limit(rng):
    # at sharpness 1 the effect is the projector (I + n.sigma)/2, bit for bit
    for _ in range(100):
        n = random_unit_vector(rng)
        projector = unsharp_effect(n, 1.0)
        assert projector.tobytes() == ((I2 + pauli_dot(unit_vector(n))) / 2.0).tobytes()
        np.testing.assert_allclose(projector @ projector, projector, atol=1e-15)


def test_effect_pair_sums_to_identity(rng):
    n = random_unit_vector(rng)
    total = unsharp_effect(n, 0.37) + unsharp_effect(-n, 0.37)
    np.testing.assert_allclose(total, I2, atol=1e-15)


Z = np.array([0.0, 0, 1])
SHARPNESS_TAKERS = {
    "unsharp_effect": lambda s: unsharp_effect(Z, s),
    "effect_root": lambda s: effect_root(Z, s),
    "coexistence_margin": lambda s: coexistence_margin(s, *ORTHO),
    "BellConfiguration": lambda s: BellConfiguration(s, Z, Z, Z, Z),
    "singlet_pair_prob": lambda s: singlet_pair_prob(s, Z, Z),
    "MeasurementProgramme": lambda s: MeasurementProgramme(
        "singlet", s, (Measurement(SpacetimeEvent(0.0), Z, 1),)
    ),
}


@pytest.mark.parametrize("take", SHARPNESS_TAKERS.values(), ids=SHARPNESS_TAKERS.keys())
@pytest.mark.parametrize("sharpness", [1.5, -0.2, float("nan")])
def test_every_sharpness_taker_states_one_precondition(take, sharpness):
    with pytest.raises(ValueError) as refused:
        take(sharpness)
    assert str(refused.value) == f"sharpness must lie in [0, 1], got {sharpness}"


def test_unsharp_effect_rejects_bad_sharpness():
    with pytest.raises(ValueError, match="sharpness"):
        unsharp_effect(np.array([0.0, 0, 1]), 1.2)
    with pytest.raises(ValueError, match="sharpness"):
        unsharp_effect(np.array([0.0, 0, 1]), -0.1)


def test_observable_effects():
    # outcome k of the observable along Z is unsharp_effect(k * Z, s); there
    # is no outcome 0, whose axis 0 * Z is refused
    effects = {k: unsharp_effect(k * Z, 0.5) for k in (1, -1)}
    np.testing.assert_allclose(effects[1] + effects[-1], I2, atol=1e-15)
    with pytest.raises(ValueError, match="nonzero"):
        unsharp_effect(0 * Z, 0.5)


def test_margin_closed_form(rng):
    for _ in range(50):
        n1, n2 = random_unit_vector(rng), random_unit_vector(rng)
        s = rng.uniform(0.0, 1.0)
        want = 2.0 - s * (np.linalg.norm(n1 + n2) + np.linalg.norm(n1 - n2))
        np.testing.assert_allclose(coexistence_margin(s, n1, n2), want, atol=1e-13)


def test_margin_zero_at_orthogonal_boundary():
    margin = coexistence_margin(PAIR_SHARPNESS_LIMIT, *ORTHO)
    assert abs(margin) <= 1e-12


def test_pair_coexistent_threshold():
    ok, _ = pair_coexistent(PAIR_SHARPNESS_LIMIT - 1e-6, *ORTHO)
    assert ok
    bad, margin = pair_coexistent(0.78, *ORTHO)
    assert not bad and margin < 0


def test_parallel_axes_always_coexist():
    n = np.array([0.0, 0, 1])
    ok, margin = pair_coexistent(1.0, n, n)
    assert ok and margin >= -1e-12


def test_pair_coexistent_symmetries(rng):
    n1, n2 = random_unit_vector(rng), random_unit_vector(rng)
    s = rng.uniform(0.0, 1.0)
    _, margin = pair_coexistent(s, n1, n2)
    _, swapped = pair_coexistent(s, n2, n1)
    _, flipped = pair_coexistent(s, -n1, n2)
    np.testing.assert_allclose(swapped, margin, atol=1e-13)
    np.testing.assert_allclose(flipped, margin, atol=1e-13)


def test_joint_marginals_recover_effects(rng):
    n1, n2 = random_unit_vector(rng), random_unit_vector(rng)
    s = 0.5
    joint = joint_observable_pair(s, n1, n2)
    np.testing.assert_allclose(joint.marginal(0, 1), unsharp_effect(n1, s), atol=1e-13)
    np.testing.assert_allclose(joint.marginal(0, -1), unsharp_effect(-n1, s), atol=1e-13)
    np.testing.assert_allclose(joint.marginal(1, 1), unsharp_effect(n2, s), atol=1e-13)
    np.testing.assert_allclose(joint.marginal(1, -1), unsharp_effect(-n2, s), atol=1e-13)


def test_joint_effects_sum_to_identity(rng):
    joint = joint_observable_pair(0.6, random_unit_vector(rng), random_unit_vector(rng))
    total = sum(joint.effects.values())
    np.testing.assert_allclose(total, I2, atol=1e-13)


def test_joint_positivity_tracks_margin(rng):
    # joint effects stay positive exactly while the margin is nonnegative
    n1, n2 = ORTHO
    for s in np.linspace(0.01, PAIR_SHARPNESS_LIMIT, 25):
        joint = joint_observable_pair(s, n1, n2)
        assert joint.min_eigenvalue >= -1e-12


def test_joint_raises_beyond_threshold():
    with pytest.raises(CoexistenceError) as info:
        joint_observable_pair(0.9, *ORTHO)
    assert info.value.margin < 0
    assert info.value.min_eigenvalue < 0


def test_quadruple_joint_marginals():
    s = 0.4
    axes = (
        np.array([1.0, 0, 0]),
        np.array([0.0, 1, 0]),
        np.array([0.0, 0, 1]),
        unit_vector(np.array([1.0, 1, 0])),
    )
    joint = quadruple_joint(s, *axes)
    assert len(joint.effects) == 16
    total = sum(joint.effects.values())
    np.testing.assert_allclose(total, np.eye(4), atol=1e-13)
    # slot 0 marginal reproduces the first-side effect
    np.testing.assert_allclose(
        joint.marginal(0, 1), np.kron(unsharp_effect(axes[0], s), I2), atol=1e-13
    )


def test_quadruple_probabilities_sum_to_pair_traces(rng):
    # summing Born probabilities over hidden slots reproduces the
    # two-slot coincidence traces
    from unsharp_bell.operators import expectation
    from unsharp_bell.sampling import random_density

    s = 0.55
    axes = tuple(random_unit_vector(rng) for _ in range(4))
    joint = quadruple_joint(s, *axes)
    rho = random_density(rng, 4)
    probs = {key: expectation(rho, eff) for key, eff in joint.effects.items()}
    for s1 in (1, -1):
        for s3 in (1, -1):
            summed = sum(
                probs[(s1, s2, s3, s4)] for s2 in (1, -1) for s4 in (1, -1)
            )
            direct = expectation(
                rho,
                np.kron(unsharp_effect(s1 * axes[0], s), unsharp_effect(s3 * axes[2], s)),
            )
            np.testing.assert_allclose(summed, direct, atol=1e-12)


def test_quadruple_joint_names_failing_pair():
    with pytest.raises(CoexistenceError, match="first"):
        quadruple_joint(0.9, ORTHO[0], ORTHO[1], np.array([0.0, 0, 1]), np.array([0.0, 0, 1]))


def test_parse_direction():
    np.testing.assert_allclose(parse_direction("0,0,2"), [0, 0, 1], atol=1e-15)
    with pytest.raises(ValueError):
        parse_direction("1,2")
    with pytest.raises(ValueError):
        parse_direction("a,b,c")


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_coexistence_criterion_matches_positivity(seed, s):
    # positivity of the candidate joint is equivalent to the margin sign
    rng = np.random.default_rng(seed)
    n1, n2 = random_unit_vector(rng), random_unit_vector(rng)
    ok, margin = pair_coexistent(s, n1, n2)
    if ok:
        joint = joint_observable_pair(s, n1, n2)
        assert joint.min_eigenvalue >= -1e-12
    else:
        assert margin < 0
        with pytest.raises(CoexistenceError):
            joint_observable_pair(s, n1, n2)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_below_universal_limit_always_coexists(seed):
    rng = np.random.default_rng(seed)
    n1, n2 = random_unit_vector(rng), random_unit_vector(rng)
    s = rng.uniform(0.0, PAIR_SHARPNESS_LIMIT)
    ok, _ = pair_coexistent(s, n1, n2)
    assert ok


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_unit_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        unit_vector([1.0, 0.0, float(bad)])
    with pytest.raises(ValueError, match="finite"):
        parse_direction(f"1,0,{bad}")


SPECIAL_SHARPNESS = (0.0, PAIR_SHARPNESS_LIMIT, 2.0 ** -0.25, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    special=st.lists(st.sampled_from(SPECIAL_SHARPNESS), min_size=1, max_size=8),
    count=st.integers(min_value=1, max_value=24),
)
def test_batched_pair_effects_equal_scalar_construction(seed, special, count):
    # one batched call returns, bit for bit, the effects each point gets alone
    rng = np.random.default_rng(seed)
    sharpness = np.concatenate([special, rng.random(count)])
    raw1 = rng.normal(size=(sharpness.size, 3))  # pairs span non-coplanar directions
    raw2 = rng.normal(size=(sharpness.size, 3))
    # the axes joint_observable_pair builds from the raw directions
    n1 = np.array([unit_vector(v) for v in raw1])
    n2 = np.array([unit_vector(v) for v in raw2])
    batch = _pair_effects(sharpness, n1, n2)
    assert batch.shape == (sharpness.size, 4, 2, 2)
    single_axis = _pair_effects(sharpness, n1[0], n2)  # one axis broadcast against many
    for i, s in enumerate(sharpness.tolist()):
        alone = _pair_effects(s, n1[i], n2[i])
        assert np.array_equal(batch[i], alone)
        assert np.array_equal(single_axis[i], _pair_effects(s, n1[0], n2[i]))
        if pair_coexistent(s, raw1[i], raw2[i])[0]:
            joint = joint_observable_pair(s, raw1[i], raw2[i])
            for k, outcome in enumerate(PAIR_OUTCOMES):
                assert np.array_equal(batch[i, k], joint.effects[outcome])
        else:
            with pytest.raises(CoexistenceError) as info:
                joint_observable_pair(s, raw1[i], raw2[i])
            assert info.value.min_eigenvalue == np.linalg.eigvalsh(batch[i]).min()


# The maximally unsharp effect, the two thresholds, the last sharpness at
# which eigh's root still agrees to 1e-11, and the projector.
ROOT_SHARPNESS = (0.0, PAIR_SHARPNESS_LIMIT, 2.0 ** -0.25, 1.0 - 1e-9, 1.0)
# Directions of unit length, far from it, and near the zero norm refused below 1e-12.
AXES = st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
        lambda v: max(map(abs, v)) >= 0.1
    ),
    st.sampled_from([1e-11, 1e-6, 1.0, 1e6, 1e150]),
).map(lambda pair: np.array(pair[0]) * pair[1])


@settings(max_examples=200, deadline=None)
@given(axis=AXES, sharpness=st.sampled_from(ROOT_SHARPNESS) | st.floats(0.0, 1.0))
def test_effect_root_squares_to_the_effect(axis, sharpness):
    root = effect_root(axis, sharpness)
    assert np.abs(root @ root - unsharp_effect(axis, sharpness)).max() <= 1e-15


@settings(max_examples=200, deadline=None)
@given(axis=AXES, sharpness=st.sampled_from(ROOT_SHARPNESS[:-1]) | st.floats(0.0, 1.0 - 1e-9))
def test_effect_root_equals_the_eigensolved_root(axis, sharpness):
    # eigh's error in the small eigenvalue (1 - s)/2 grows through its square
    # root to about 5e-12 at s = 1 - 1e-9
    gap = np.abs(effect_root(axis, sharpness) - sqrt_psd(unsharp_effect(axis, sharpness)))
    assert gap.max() <= 1e-11


@settings(max_examples=100, deadline=None)
@given(axis=AXES)
def test_effect_root_at_the_ends_of_the_sharpness_range(axis):
    # s = 1: the projector, bit for bit (eigh's root is up to about 1.3e-8
    # away there); s = 0: the identity over sqrt(2)
    assert effect_root(axis, 1.0).tobytes() == unsharp_effect(axis, 1.0).tobytes()
    np.testing.assert_array_equal(effect_root(axis, 0.0), np.sqrt(0.5) * I2)


def refusal(build, axis, sharpness):
    """The message of the ValueError ``build`` raises, or None when it builds."""
    try:
        build(axis, sharpness)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(
    axis=AXES | st.lists(st.floats() | st.sampled_from([0.0, 1e-13]), min_size=3, max_size=3),
    sharpness=st.sampled_from(ROOT_SHARPNESS) | st.floats(),
)
@example(axis=[0.0, 0.0, 0.0], sharpness=0.5)
@example(axis=[1e-13, 0.0, 0.0], sharpness=0.5)
@example(axis=[float("nan"), 0.0, 1.0], sharpness=0.5)
@example(axis=[1e308, 1e308, 0.0], sharpness=0.5)
@example(axis=[0.0, 0.0, 1.0], sharpness=1.0000000000000002)
@example(axis=[0.0, 0.0, 0.0], sharpness=float("nan"))
def test_effect_root_refuses_what_unsharp_effect_refuses(axis, sharpness):
    assert refusal(effect_root, axis, sharpness) == refusal(unsharp_effect, axis, sharpness)


def reference_unit_vector(vec):
    """``unit_vector`` as it read with ``np.linalg.norm``: its result, or its refusal."""
    v = np.asarray(vec, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if not math.isfinite(norm):
        return f"direction must be finite with a finite norm, got {v.tolist()}"
    if norm < 1e-12:
        if not v.any():
            return "direction must be a nonzero vector"
        largest = float(np.abs(v).max())  # scaled, so squares that underflow still count
        return f"direction norm {largest * float(np.linalg.norm(v / largest)):.3e} is below 1e-12"
    return (v / norm).tobytes()


MAGNITUDES = st.floats(min_value=-150.0, max_value=155.0).map(lambda e: 10.0 ** e)


@settings(max_examples=500, deadline=None)
@given(
    unit=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3),
    magnitude=MAGNITUDES,
)
@example(unit=[1.0, 1.0, 0.0], magnitude=1e200)  # the norm overflows: refused
@example(unit=[1.0, 1.0, 1.0], magnitude=1e154)  # the sum of squares overflows
@example(unit=[1.0, 0.5, 0.0], magnitude=1.5e150)  # past the guard, with a finite norm
@example(unit=[1.0, 1.0, 1.0], magnitude=1e-150)  # squares underflow: refused, naming the norm
@example(unit=[0.0, -0.0, 0.0], magnitude=1.0)  # the zero vector
@example(unit=[1.0, -0.0, 0.0], magnitude=1e-12)
@example(unit=[math.nan, 1.0, 0.0], magnitude=1.0)
@example(unit=[1.0, math.nan, 1e200], magnitude=1.0)  # NaN ahead of a huge component
@example(unit=[0.0, 1.0, math.inf], magnitude=1.0)
def test_unit_vector_is_numpys_norm_bit_for_bit(unit, magnitude):
    vec = [c * magnitude for c in unit]
    try:
        got = unit_vector(vec).tobytes()
    except ValueError as exc:
        got = str(exc)
    assert got == reference_unit_vector(vec)
