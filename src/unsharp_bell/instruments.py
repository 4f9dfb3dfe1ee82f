"""Luders instruments for unsharp measurements and their disturbance.

The Luders operation of an effect E sends a state rho to
sqrt(E) rho sqrt(E), subnormalized so its trace is the outcome
probability.  ``lueders_update`` is the package's one implementation of
that step, selective (one outcome's root) or nonselective (the sum over
all outcomes); the instrument functions here and the observer charts of
``relativistic`` all apply it.  This module also packages a quantitative
bound on how little a nearly-certain effect disturbs the state, and the
correlated two-particle measurement that motivates all of it: an unsharp
spin reading on one side of a singlet pair steering the other side.

Each public entry point checks its outside inputs once.  After that,
``disturbance_report`` and ``epr_measurement`` take the effects' roots
with ``sqrt_psd`` and apply ``lueders_update`` to the state they have
already checked, without building an ``Instrument`` (whose methods check
the state and the effects again on every call).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .spin_povm import unit_vector, unsharp_effect
from .bell import singlet_state

__all__ = [
    "NULL_PROBABILITY",
    "MeasurementOutcomeRecord",
    "Instrument",
    "lueders_update",
    "lueders_selective",
    "lueders_nonselective",
    "DisturbanceReport",
    "disturbance_report",
    "EprMeasurementResult",
    "epr_measurement",
]

# Outcomes at or below this probability have no conditional state.
NULL_PROBABILITY = 1e-12
BOUND_TOL = 1e-10


@dataclass(eq=False)
class MeasurementOutcomeRecord:
    """One outcome of a selective Luders measurement."""

    outcome: object
    probability: float
    subnormalized: np.ndarray
    post_state: np.ndarray | None

    @property
    def null_outcome(self) -> bool:
        return self.post_state is None


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


def _selective_record(state, roots: dict, outcome) -> MeasurementOutcomeRecord:
    sub = lueders_update(state, roots, outcome)
    prob = float(np.trace(sub).real)
    if prob <= NULL_PROBABILITY:
        return MeasurementOutcomeRecord(outcome, max(prob, 0.0), sub, None)
    return MeasurementOutcomeRecord(outcome, prob, sub, sub / prob)


def lueders_selective(state, effect, outcome=1) -> MeasurementOutcomeRecord:
    """Conditional state and probability of registering a single effect."""
    state = check_density(state)
    effect = check_effect(effect)
    return _selective_record(state, {outcome: sqrt_psd(effect)}, outcome)


def lueders_nonselective(state, effects) -> np.ndarray:
    """State after measuring a POVM and discarding the outcome."""
    state = check_density(state)
    if not isinstance(effects, dict):
        effects = dict(enumerate(effects))
    return lueders_update(state, Instrument(effects)._roots)


@dataclass(eq=False)
class Instrument:
    """Luders instrument of a POVM, keyed by outcome label."""

    effects: dict
    _roots: dict = field(init=False, repr=False)

    def __post_init__(self):
        checked = {k: check_effect(v) for k, v in self.effects.items()}
        total = sum(checked.values())
        if not checked or not np.allclose(total, np.eye(total.shape[0]), atol=1e-9):
            raise ValueError("effects do not sum to the identity")
        self.effects = checked
        self._roots = {k: sqrt_psd(v) for k, v in checked.items()}

    @property
    def outcomes(self):
        return tuple(self.effects)

    def probabilities(self, state) -> dict:
        state = check_density(state)
        return {k: expectation(state, eff) for k, eff in self.effects.items()}

    def select(self, state, outcome) -> MeasurementOutcomeRecord:
        return _selective_record(check_density(state), self._roots, outcome)

    def nonselective(self, state) -> np.ndarray:
        return lueders_update(check_density(state), self._roots)


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
    (1 + sharpness^2) / 2 for either outcome.
    """
    axis = unit_vector(axis)
    if state is None:
        state = singlet_state()
    state = check_density(state)
    if state.shape != (4, 4):
        raise ValueError("epr_measurement needs a two-particle (4x4) state")

    # The effects are valid by construction, so their roots are taken directly.
    roots = {
        1: sqrt_psd(tensor(unsharp_effect(axis, sharpness), I2)),
        -1: sqrt_psd(tensor(unsharp_effect(-axis, sharpness), I2)),
    }
    records = {k: _selective_record(state, roots, k) for k in (1, -1)}
    probabilities = {k: rec.probability for k, rec in records.items()}
    component_posts = {
        k: rec.post_state for k, rec in records.items() if rec.post_state is not None
    }
    joint_post = lueders_update(state, roots)

    reduced_pre = partial_trace(state, keep=2)
    # components follow the two terms of the nonselective sum, so they
    # stay subnormalized (trace = outcome probability); the conditional
    # states renormalize them
    reduced_components = {
        k: partial_trace(rec.subnormalized, keep=2) for k, rec in records.items()
    }
    reduced_conditionals = {
        k: reduced_components[k] / probabilities[k]
        for k in records
        if probabilities[k] > NULL_PROBABILITY
    }
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
