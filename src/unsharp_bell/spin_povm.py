"""Unsharp spin-1/2 observables and their joint measurability.

An unsharp spin observable along axis ``n`` with sharpness ``s`` is the
two-outcome POVM built from the effects (1/2)(I + s n.sigma) and
(1/2)(I - s n.sigma).  Two such observables along different axes admit a
common refinement exactly when the coexistence margin

    2 - s * (|n1 + n2| + |n1 - n2|)

is nonnegative; ``joint_observable_pair`` realises that refinement
explicitly and ``quadruple_joint`` combines two pairs on a two-particle
system into a single 16-outcome observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import I2, STRUCT_TOL, pauli_dot, tensor

__all__ = [
    "PAIR_SHARPNESS_LIMIT",
    "PAIR_OUTCOMES",
    "CoexistenceError",
    "UnsharpSpinObservable",
    "JointObservable",
    "check_sharpness",
    "unit_vector",
    "parse_direction",
    "spin_projector",
    "unsharp_effect",
    "coexistence_margin",
    "pair_coexistent",
    "joint_observable_pair",
    "quadruple_joint",
]

# Largest sharpness for which every pair of axes is coexistent: the
# margin at orthogonal axes reads 2 - s * 2 * sqrt(2).
PAIR_SHARPNESS_LIMIT = 1.0 / np.sqrt(2.0)

# Margins this close to zero count as "on the boundary"; the joint
# observable there has an exactly vanishing eigenvalue.
MARGIN_TOL = 1e-12

# Outcome order (s1, s2) of the stacked effects of a pair joint observable.
PAIR_OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_OUTCOME_SIGNS = np.array(PAIR_OUTCOMES, dtype=float)


class CoexistenceError(ValueError):
    """Raised when a joint observable is requested for a non-coexistent pair."""

    def __init__(self, message: str, margin: float, min_eigenvalue: float):
        super().__init__(message)
        self.margin = margin
        self.min_eigenvalue = min_eigenvalue


def check_sharpness(sharpness) -> None:
    """Refuse a sharpness outside [0, 1] (NaN included)."""
    if not 0.0 <= sharpness <= 1.0:
        raise ValueError(f"sharpness must lie in [0, 1], got {sharpness}")


def unit_vector(vec) -> np.ndarray:
    """Normalize a 3-vector; reject the zero vector and non-finite vectors."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm is refused just below
        norm = float(np.linalg.norm(v))
    if not math.isfinite(norm):
        # NaN or infinite components, or a norm beyond the float range.
        raise ValueError(f"direction must be finite with a finite norm, got {v.tolist()}")
    if norm < 1e-12:
        raise ValueError("direction must be a nonzero vector")
    return v / norm


def parse_direction(text: str) -> np.ndarray:
    """Parse a direction from a comma-separated triple like '0,0,1'."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"direction must have three comma-separated components, got {text!r}")
    try:
        components = [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"invalid direction {text!r}: {exc}") from None
    return unit_vector(components)


def spin_projector(axis) -> np.ndarray:
    """Projection onto the +1 eigenspace of axis.sigma."""
    n = unit_vector(axis)
    return (I2 + pauli_dot(n)) / 2.0


def unsharp_effect(axis, sharpness: float) -> np.ndarray:
    """Effect (1/2)(I + sharpness * axis.sigma) of an unsharp spin observable."""
    check_sharpness(sharpness)
    n = unit_vector(axis)
    return (I2 + sharpness * pauli_dot(n)) / 2.0


@dataclass(frozen=True, eq=False)
class UnsharpSpinObservable:
    """Two-outcome spin POVM along ``axis`` with the given ``sharpness``."""

    axis: np.ndarray
    sharpness: float

    def __post_init__(self):
        object.__setattr__(self, "axis", unit_vector(self.axis))
        check_sharpness(self.sharpness)

    def effect(self, outcome: int) -> np.ndarray:
        if outcome not in (+1, -1):
            raise ValueError(f"outcome must be +1 or -1, got {outcome}")
        return unsharp_effect(outcome * self.axis, self.sharpness)

    @property
    def effects(self) -> dict[int, np.ndarray]:
        return {+1: self.effect(+1), -1: self.effect(-1)}


@dataclass(eq=False)
class JointObservable:
    """POVM whose outcomes are sign tuples, one sign per marginal observable."""

    effects: dict[tuple[int, ...], np.ndarray]
    min_eigenvalue: float = field(init=False)

    def __post_init__(self):
        keys = list(self.effects)
        if not keys:
            raise ValueError("joint observable needs at least one outcome")
        stacked = np.stack([self.effects[k] for k in keys])
        vals = np.linalg.eigvalsh(stacked)
        self.min_eigenvalue = float(vals.min())
        if self.min_eigenvalue < -STRUCT_TOL or float(vals.max()) > 1.0 + STRUCT_TOL:
            raise ValueError(
                f"joint outcomes are not effects (spectrum reaches {self.min_eigenvalue:.3e})"
            )
        total = stacked.sum(axis=0)
        dev = float(np.max(np.abs(total - np.eye(total.shape[0]))))
        if dev > STRUCT_TOL:
            raise ValueError(f"joint effects do not sum to the identity (deviation {dev:.3e})")

    @property
    def outcomes(self) -> list[tuple[int, ...]]:
        return list(self.effects)

    def marginal(self, slot: int, sign: int) -> np.ndarray:
        """Sum of effects whose outcome tuple has ``sign`` at ``slot``."""
        return sum(
            eff for key, eff in self.effects.items() if key[slot] == sign
        )


def coexistence_margin(sharpness: float, axis1, axis2) -> float:
    """Slack of the pair coexistence condition; nonnegative means coexistent."""
    check_sharpness(sharpness)
    n1, n2 = unit_vector(axis1), unit_vector(axis2)
    return 2.0 - sharpness * (
        float(np.linalg.norm(n1 + n2)) + float(np.linalg.norm(n1 - n2))
    )


def pair_coexistent(sharpness: float, axis1, axis2) -> tuple[bool, float]:
    """Whether the two unsharp spin observables admit a joint observable."""
    margin = coexistence_margin(sharpness, axis1, axis2)
    return margin >= -MARGIN_TOL, margin


def _pair_effects(sharpness, n1, n2) -> np.ndarray:
    """Effects of the pair joint observable, stacked in ``PAIR_OUTCOMES`` order.

    Broadcasts over a batch: sharpness of shape ``B`` and unit axes of
    shape ``B + (3,)`` give effects of shape ``B + (4, 2, 2)``.  Every step
    acts on one batch entry at a time (the dot product is a per-entry
    ``matmul``, the square a per-entry ``float_power``: the BLAS dot and
    libm ``pow`` a lone entry gets), so each entry of a batch equals the
    effects built for it alone, bit for bit.
    """
    s = np.asarray(sharpness, dtype=float)[..., None, None, None]
    u = _OUTCOME_SIGNS[:, :1] * np.asarray(n1, dtype=float)[..., None, :]
    v = _OUTCOME_SIGNS[:, 1:] * np.asarray(n2, dtype=float)[..., None, :]
    # The cross term carries the squared sharpness: with it the smallest
    # eigenvalue over the four outcomes vanishes exactly on the
    # coexistence boundary, so positivity and coexistence agree pointwise
    # rather than merely on the all-pairs regime.
    weight = 1.0 + np.float_power(s, 2.0) * (u[..., None, :] @ v[..., :, None])
    return (weight * I2 + s * pauli_dot(u + v)) / 4.0


def joint_observable_pair(sharpness: float, axis1, axis2) -> JointObservable:
    """Four-outcome joint observable refining two unsharp spin observables.

    Outcome ``(s1, s2)`` collects the effect whose slot-wise marginals
    reproduce the effects of the observables along ``axis1`` and
    ``axis2``.  Raises :class:`CoexistenceError` when the pair fails the
    coexistence condition, reporting the offending eigenvalue.
    """
    n1, n2 = unit_vector(axis1), unit_vector(axis2)
    coexistent, margin = pair_coexistent(sharpness, n1, n2)
    effects = _pair_effects(sharpness, n1, n2)
    if not coexistent:
        min_eig = float(np.linalg.eigvalsh(effects).min())
        raise CoexistenceError(
            f"axes are not coexistent at sharpness {sharpness} "
            f"(margin {margin:.6e}, minimum joint eigenvalue {min_eig:.6e})",
            margin,
            min_eig,
        )
    return JointObservable(dict(zip(PAIR_OUTCOMES, effects)))


def quadruple_joint(sharpness: float, axis1, axis2, axis3, axis4) -> JointObservable:
    """16-outcome joint observable for two coexistent pairs on two particles.

    The first pair (axis1, axis2) acts on the first tensor factor, the
    second pair (axis3, axis4) on the second.  Outcome keys are sign
    quadruples ``(s1, s2, s3, s4)``.
    """
    for label, (a, b) in (("first", (axis1, axis2)), ("second", (axis3, axis4))):
        coexistent, margin = pair_coexistent(sharpness, a, b)
        if not coexistent:
            raise CoexistenceError(
                f"the {label} pair of axes is not coexistent at sharpness {sharpness} "
                f"(margin {margin:.6e})",
                margin,
                float("nan"),
            )
    left = _pair_effects(sharpness, unit_vector(axis1), unit_vector(axis2))
    right = _pair_effects(sharpness, unit_vector(axis3), unit_vector(axis4))
    products = tensor(left[:, None], right[None, :]).reshape(16, 4, 4)
    outcomes = [first + second for first in PAIR_OUTCOMES for second in PAIR_OUTCOMES]
    return JointObservable(dict(zip(outcomes, products)))
