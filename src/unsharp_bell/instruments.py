"""Luders state changes for unsharp measurements and their disturbance.

The Luders operation of an effect E sends a state rho to
sqrt(E) rho sqrt(E), subnormalized so its trace is the outcome
probability.  ``lueders_update`` is the package's one implementation of
that step, selective (one outcome's root) or nonselective (the sum over
all outcomes); the functions here and the observer charts of
``relativistic`` all apply it.  This module also packages a quantitative
bound on how little a nearly-certain effect disturbs the state, and the
correlated two-particle measurement that motivates all of it: an unsharp
spin reading on one side of a singlet pair steering the other side.

Each public entry point checks its outside inputs once (``epr_measurement``'s
default singlet is checked once, at import), then takes the
effects' roots and applies ``lueders_update`` to the state it has
already checked.  ``disturbance_report`` roots a general effect with
``sqrt_psd``.  An unsharp spin measurement on one particle of a pair is
rooted by ``_measurement_roots`` alone, with the closed form
``spin_povm.effect_root`` and no eigensolve: ``epr_measurement``, the
observer charts of ``relativistic`` and the battery's chart check all
take their roots from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    I2,
    check_density,
    check_effect,
    expectation,
    partial_trace,
    sqrt_psd,
    tensor,
    trace_norm,
)
from .spin_povm import effect_root, unit_vector, unsharp_effect
from .bell import singlet_state

__all__ = [
    "NULL_PROBABILITY",
    "lueders_update",
    "DisturbanceReport",
    "disturbance_report",
    "EprMeasurementResult",
    "epr_measurement",
]

# Outcomes at or below this probability have no conditional state.
NULL_PROBABILITY = 1e-12
BOUND_TOL = 1e-10
# ``epr_measurement``'s default state, checked once.  It is the array
# ``check_density`` returns, the Hermitian part, not ``singlet_state()``
# itself: their imaginary zeros differ in sign, and the signs reach the output.
_SINGLET = check_density(singlet_state())
_SINGLET.flags.writeable = False


def _embed(operator: np.ndarray, subsystem: int) -> np.ndarray:
    return tensor(operator, I2) if subsystem == 1 else tensor(I2, operator)


def _measurement_roots(axis: np.ndarray, sharpness: float, subsystem: int) -> dict:
    """Square roots of the outcome effects of an unsharp spin measurement along the unit
    ``axis`` on particle ``subsystem`` (1 or 2) of a pair, keyed by outcome +1 and -1.

    Each root is ``spin_povm.effect_root``'s closed form, not an eigensolve,
    embedded in the pair: the root of E (x) I is sqrt(E) (x) I.
    """
    return {o: _embed(effect_root(o * axis, sharpness), subsystem) for o in (1, -1)}


def lueders_update(state, roots: dict, outcome=None) -> np.ndarray:
    """Luders update by ``roots``, the square roots of the effects keyed by outcome.

    Given an outcome, root @ state @ root for it (selective; its trace is
    the outcome probability); given None, the sum over all outcomes.
    """
    if outcome is not None:
        root = roots[outcome]
        return root @ state @ root
    total = np.zeros_like(state)
    for root in roots.values():
        total = total + root @ state @ root
    return total


@dataclass(frozen=True)
class DisturbanceReport:
    """Trace-norm disturbance of a nonselective yes/no measurement."""

    probability: float   # tr[rho E]
    epsilon: float
    distance: float      # ||rho - post||_1
    bound: float         # 2 (epsilon + sqrt(epsilon))
    holds: bool


def disturbance_report(state, effect, epsilon: float | None = None) -> DisturbanceReport:
    """Bound the disturbance of an effect that is nearly certain on a state.

    When tr[rho E] >= 1 - epsilon with epsilon < 1/2, the state after the
    nonselective measurement of {E, I - E} stays within trace distance
    2 (epsilon + sqrt(epsilon)) of the input.  Defaults epsilon to the
    measured shortfall 1 - tr[rho E] and errors when the hypothesis
    fails.
    """
    state = check_density(state)
    effect = check_effect(effect)
    prob = expectation(state, effect)
    if epsilon is None:
        epsilon = max(0.0, 1.0 - prob)
    if not 0.0 <= epsilon < 0.5:
        raise ValueError(
            f"bound hypothesis not met: epsilon = {epsilon!r} outside [0, 0.5)"
        )
    if prob < 1.0 - epsilon - 1e-12:
        raise ValueError(
            f"bound hypothesis not met: tr[rho E] = {prob!r} below 1 - epsilon = {1.0 - epsilon!r}"
        )
    complement = np.eye(state.shape[0]) - effect
    post = lueders_update(state, {0: sqrt_psd(effect), 1: sqrt_psd(complement)})
    distance = trace_norm(state - post)
    bound = 2.0 * (epsilon + np.sqrt(epsilon))
    return DisturbanceReport(
        probability=prob,
        epsilon=float(epsilon),
        distance=distance,
        bound=float(bound),
        holds=bool(distance <= bound + BOUND_TOL),
    )


@dataclass(eq=False)
class EprMeasurementResult:
    """Unsharp spin measurement on the first particle of a pair."""

    axis: np.ndarray
    sharpness: float
    probabilities: dict[int, float]
    component_posts: dict[int, np.ndarray]            # normalized joint states
    joint_post_mixture: np.ndarray                    # nonselective joint state
    reduced_pre: np.ndarray                           # second particle, before
    reduced_post_components: dict[int, np.ndarray]    # subnormalized, per outcome
    reduced_post_conditionals: dict[int, np.ndarray]  # normalized, per outcome
    reduced_post_mixture: np.ndarray                  # second particle, nonselective
    outcome_prob_after: dict[int, float]              # opposite effect firing next


def epr_measurement(axis, sharpness: float, state=None) -> EprMeasurementResult:
    """Measure an unsharp spin effect on one side of a two-particle state.

    The instrument acts on the first particle only; the returned record
    tracks what the measurement does to the second particle, including
    the probability that the opposite-direction effect fires on it
    afterwards.  Defaults to the singlet state, where that probability is
    (1 + sharpness^2) / 2 for either outcome.  The Lueders roots are
    ``effect_root``'s closed form, equal to ``sqrt_psd``'s eigensolved roots
    up to rounding (exactly the projectors at sharpness 1).
    """
    axis = unit_vector(axis)
    state = _SINGLET if state is None else check_density(state)
    if state.shape != (4, 4):
        raise ValueError("epr_measurement needs a two-particle (4x4) state")

    roots = _measurement_roots(axis, sharpness, 1)
    # Each outcome's subnormalized state; its trace is the outcome probability,
    # and an outcome at or below NULL_PROBABILITY has no conditional state.
    components = {k: lueders_update(state, roots, k) for k in (1, -1)}
    probabilities = {k: max(float(np.trace(sub).real), 0.0) for k, sub in components.items()}
    conditioned = [k for k in components if probabilities[k] > NULL_PROBABILITY]
    component_posts = {k: components[k] / probabilities[k] for k in conditioned}
    joint_post = lueders_update(state, roots)

    reduced_pre = partial_trace(state, keep=2)
    # components follow the two terms of the nonselective sum, so they
    # stay subnormalized (trace = outcome probability); the conditional
    # states renormalize them
    reduced_components = {k: partial_trace(sub, keep=2) for k, sub in components.items()}
    reduced_conditionals = {k: reduced_components[k] / probabilities[k] for k in conditioned}
    reduced_mixture = partial_trace(joint_post, keep=2)

    prob_after = {}
    for k, reduced in reduced_conditionals.items():
        partner = unsharp_effect(-k * axis, sharpness)
        prob_after[k] = expectation(reduced, partner)

    return EprMeasurementResult(
        axis=axis,
        sharpness=float(sharpness),
        probabilities=probabilities,
        component_posts=component_posts,
        joint_post_mixture=joint_post,
        reduced_pre=reduced_pre,
        reduced_post_components=reduced_components,
        reduced_post_conditionals=reduced_conditionals,
        reduced_post_mixture=reduced_mixture,
        outcome_prob_after=prob_after,
    )
