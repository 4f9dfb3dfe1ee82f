"""Bell-CHSH inequalities for sharp and unsharp spin observables.

Two complementary formulations live here.  The operator form builds the
Bell combination B = a(b + b') + a'(b' - b) from sharp spin operators
and its smeared counterpart from unsharp effects, and asks whether the
operator inequalities O <= Btilde <= I hold.  The probabilistic form
evaluates singlet coincidence probabilities and compares the CHSH
correlation combination f against the unsharpness-dependent bound
F = 2 / (1 - 2 eps).  Both formulations change character at the same
sharpness threshold 2**(-1/4), which ``scan_lambda_threshold`` locates
numerically.  ``operator_chsh_holds`` builds the smeared operator once and
returns it with its verdict, so a caller that also reports the operator
need not build it again; ``operator_chsh_closed_form`` gives the verdict
alone from the operator's closed-form spectrum, with no eigensolve.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import _echo, eigen_hermitian, pauli_dot, tensor
from .spin_povm import PAIR_SHARPNESS_LIMIT, check_sharpness, unit_vector, unsharp_effect

__all__ = [
    "THRESHOLDS",
    "SCAN_GRID_LIMIT",
    "Thresholds",
    "BellConfiguration",
    "ChshReport",
    "OperatorChshResult",
    "ScanResult",
    "bell_operator",
    "bell_norm",
    "generalized_bell_operator",
    "operator_chsh_holds",
    "operator_chsh_closed_form",
    "singlet_state",
    "singlet_pair_prob",
    "chsh_report",
    "scan_lambda_threshold",
    "orthogonal_configuration",
    "coplanar_configuration",
]

CHSH_VIOLATION_TOL = 1e-12
# Most grid intervals a scan takes.  The scan is a few numpy columns; at 10^5
# intervals the CLI's time goes to writing its 17.5 MB of JSON or 7.7 MB of CSV.
SCAN_GRID_LIMIT = 1_000_000


@dataclass(frozen=True)
class Thresholds:
    """Critical constants of the unsharp CHSH analysis."""

    pair_coexistence: float      # all axis pairs coexistent up to here
    operator_chsh: float         # operator CHSH holds up to here
    unsharpness_chsh: float      # minimal unsharpness restoring CHSH
    cirelson: float              # quantum bound on |f| and on |B|


THRESHOLDS = Thresholds(
    pair_coexistence=PAIR_SHARPNESS_LIMIT,
    operator_chsh=2.0 ** -0.25,
    unsharpness_chsh=0.5 * (1.0 - 1.0 / math.sqrt(2.0)),
    cirelson=2.0 * math.sqrt(2.0),
)


@dataclass(frozen=True, eq=False)
class BellConfiguration:
    """Sharpness plus four measurement axes (two per particle).

    Axes 1 and 2 belong to the first particle, axes 3 and 4 to the
    second; all four are normalized at construction.
    """

    sharpness: float
    axis1: np.ndarray
    axis2: np.ndarray
    axis3: np.ndarray
    axis4: np.ndarray

    def __post_init__(self):
        check_sharpness(self.sharpness)
        for name in ("axis1", "axis2", "axis3", "axis4"):
            object.__setattr__(self, name, unit_vector(getattr(self, name)))

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.axis1, self.axis2, self.axis3, self.axis4)


def orthogonal_configuration(sharpness: float) -> BellConfiguration:
    """Orthogonal axis pairs on both sides; maximises the operator norm."""
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    return BellConfiguration(sharpness, x, y, x, y)


def coplanar_configuration(sharpness: float, angle: float) -> BellConfiguration:
    """Coplanar family: axes at angles 0, -2t, +t, -t in a common plane.

    The singlet CHSH combination for this family is 3*cos(t) - cos(3t),
    maximal (2*sqrt(2)) at t = pi/4 where both axis pairs are orthogonal.
    """
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    if not math.isfinite(2.0 * angle):
        # sin(-2 angle) would be sin(-inf), a math domain error naming nothing.
        raise ValueError(f"angle {angle!r} is out of range: twice it overflows a float")

    def at(alpha: float) -> np.ndarray:
        return np.array([math.sin(alpha), 0.0, math.cos(alpha)])

    return BellConfiguration(sharpness, at(0.0), at(-2.0 * angle), at(angle), at(-angle))


def bell_operator(config: BellConfiguration) -> np.ndarray:
    """Sharp Bell combination a(b + b') + a'(b' - b) on the pair system."""
    a = pauli_dot(config.axis1)
    a_alt = pauli_dot(config.axis2)
    b = pauli_dot(config.axis3)
    b_alt = pauli_dot(config.axis4)
    return tensor(a, b + b_alt) + tensor(a_alt, b_alt - b)


def _cross_norm(a: np.ndarray, b: np.ndarray) -> float:
    """``np.linalg.norm(np.cross(a, b))`` of two 3-vectors, bit for bit.

    The components are np.cross's products and differences, taken on
    Python floats; the norm is np.linalg.norm's square root of a dot.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    c = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    return math.sqrt(c.dot(c))


def bell_norm(config: BellConfiguration) -> float:
    """Closed-form operator norm 2*sqrt(1 + |n1 x n2| |n3 x n4|)."""
    c1 = _cross_norm(config.axis1, config.axis2)
    c2 = _cross_norm(config.axis3, config.axis4)
    return 2.0 * math.sqrt(1.0 + c1 * c2)


def generalized_bell_operator(config: BellConfiguration) -> np.ndarray:
    """Smeared Bell combination built from unsharp effects.

    Assembled from the four effect products
    E(a)E(-b) + E(-a)E(b') - E(a')E(b') + E(a')E(b); the ``verify`` battery,
    not each call, cross-checks it against (1/2)I - (sharpness^2/4) B.
    """
    s = config.sharpness
    n1, n2, n3, n4 = config.axes
    return (
        tensor(unsharp_effect(n1, s), unsharp_effect(-n3, s))
        + tensor(unsharp_effect(-n1, s), unsharp_effect(n4, s))
        - tensor(unsharp_effect(n2, s), unsharp_effect(n4, s))
        + tensor(unsharp_effect(n2, s), unsharp_effect(n3, s))
    )


class OperatorChshResult(NamedTuple):
    holds: bool
    min_eig: float
    max_eig: float
    operator: np.ndarray  # the smeared Bell combination that was eigensolved


def operator_chsh_holds(config: BellConfiguration) -> OperatorChshResult:
    """Whether O <= Btilde <= I for the smeared Bell combination, which the result carries."""
    operator = generalized_bell_operator(config)
    vals, _ = eigen_hermitian(operator)
    low, high = float(vals[0]), float(vals[-1])
    holds = low >= -CHSH_VIOLATION_TOL and high <= 1.0 + CHSH_VIOLATION_TOL
    return OperatorChshResult(holds, low, high, operator)


def operator_chsh_closed_form(config: BellConfiguration) -> bool:
    """``operator_chsh_holds(config).holds`` without the eigensolve.

    The smeared combination's spectrum runs from 1/2 - (sharpness^2/4)|B|
    to 1/2 + (sharpness^2/4)|B|, so O <= Btilde <= I exactly when its low
    end, taken with ``bell_norm``, is not below -CHSH_VIOLATION_TOL.  The
    ``verify`` battery checks the two verdicts agree on both sides of each
    spot configuration's critical sharpness.
    """
    return 0.5 - config.sharpness**2 * bell_norm(config) / 4.0 >= -CHSH_VIOLATION_TOL


def singlet_state() -> np.ndarray:
    """Two-qubit singlet density matrix."""
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


def singlet_pair_prob(sharpness: float, axis_i, axis_j) -> float:
    """Singlet probability of both unsharp effects along the two axes firing.

    Equals (1/4)(1 - sharpness^2 * n_i.n_j), the trace of the singlet
    against the product effect.
    """
    check_sharpness(sharpness)
    ni, nj = unit_vector(axis_i), unit_vector(axis_j)
    return 0.25 * (1.0 - sharpness**2 * float(ni @ nj))


@dataclass(frozen=True)
class ChshReport:
    """Singlet CHSH evaluation for one configuration."""

    sharpness: float
    epsilon: float      # unsharpness (1/2)(1 - sharpness^2)
    f: float            # |c13 + c14 - c23 + c24| over the axis cosines
    bound: float        # 2 / (1 - 2 epsilon); infinite at sharpness 0
    violated: bool
    pair_probs: dict[tuple[int, int], float]


def chsh_report(config: BellConfiguration) -> ChshReport:
    """Evaluate the singlet CHSH combination against its unsharp bound."""
    s = config.sharpness
    epsilon = 0.5 * (1.0 - s**2)
    n1, n2, n3, n4 = config.axes
    f = abs(float(n1 @ n3) + float(n1 @ n4) - float(n2 @ n3) + float(n2 @ n4))
    bound = math.inf if s == 0.0 else 2.0 / s**2
    # singlet_pair_prob's bits: its normalization of each axis, once per axis;
    # a negated axis negates the cosine exactly.
    units = [unit_vector(axis) for axis in config.axes]
    cosines = {(i, j): float(units[i - 1] @ units[j - 1]) for i in (1, 2) for j in (3, 4)}
    pair_probs = {}
    for i in (1, -1, 2, -2):
        for j in (3, -3, 4, -4):
            cosine = cosines[abs(i), abs(j)]
            pair_probs[i, j] = 0.25 * (1.0 - s**2 * (cosine if i * j > 0 else -cosine))
    return ChshReport(
        sharpness=s,
        epsilon=epsilon,
        f=f,
        bound=bound,
        violated=f > bound + CHSH_VIOLATION_TOL,
        pair_probs=pair_probs,
    )


@dataclass(frozen=True, eq=False)
class ScanResult:
    """The scan's grid as read-only columns, one entry per grid sharpness."""

    threshold: float            # largest scanned sharpness without violation
    singlet_threshold: float    # same, from the f <= bound check alone
    operator_threshold: float   # same, from the operator check alone
    best_angle: float
    f: float                    # the swept singlet combination, at every sharpness
    sharpness: np.ndarray
    bound: np.ndarray           # 2 / sharpness^2; infinite at sharpness 0
    max_operator_violation: np.ndarray
    violated: np.ndarray        # either check violated


def scan_lambda_threshold(grid: int) -> ScanResult:
    """Locate the critical sharpness on a grid of ``grid`` + 1 points.

    For each sharpness the coplanar configuration family is swept in the
    angle, and both the singlet violation f - bound and the operator
    violation of O <= Btilde <= I are maximised over it.  Because the
    singlet combination is sharpness-independent the angle sweep is done
    once; the returned threshold is the largest grid sharpness at which
    neither check is violated.  Each column entry carries the bits of the
    same arithmetic on Python floats: ``float_power`` squares as ``s**2``
    does, and a tie in the operator violation keeps its first term, as
    ``max`` does.
    """
    if not isinstance(grid, numbers.Integral):
        raise ValueError(f"grid must be an integer, got {_echo(grid)}")
    if grid < 10:
        raise ValueError(f"grid must be at least 10, got {_echo(grid)}")
    if grid > SCAN_GRID_LIMIT:  # refused before its columns are allocated
        raise ValueError(f"grid must be at most {SCAN_GRID_LIMIT:,}, got {_echo(grid)}")
    angles = np.linspace(0.0, math.pi / 2.0, grid + 1)
    f_values = 3.0 * np.cos(angles) - np.cos(3.0 * angles)
    best_index = int(np.argmax(f_values))
    best_angle = float(angles[best_index])
    best_f = float(f_values[best_index])

    # Spectrum of the sharp Bell combination at the optimal angle; the
    # smeared operator's spectrum is an affine image of it.
    bell_eigs, _ = eigen_hermitian(bell_operator(coplanar_configuration(1.0, best_angle)))
    bell_min, bell_max = float(bell_eigs[0]), float(bell_eigs[-1])

    sharpness = np.linspace(0.0, 1.0, grid + 1)
    squares = np.float_power(sharpness, 2.0)
    with np.errstate(divide="ignore"):  # sharpness 0: an infinite bound
        bound = 2.0 / squares
    below = -(0.5 - (squares / 4.0) * bell_max)
    above = (0.5 - (squares / 4.0) * bell_min) - 1.0
    op_violation = np.where(above > below, above, below)
    singlet_bad = best_f - bound > CHSH_VIOLATION_TOL
    op_bad = op_violation > CHSH_VIOLATION_TOL
    violated = singlet_bad | op_bad

    def largest_without(flagged: np.ndarray) -> float:
        passed = sharpness[~flagged]
        return float(passed.max()) if passed.size else 0.0

    for column in (sharpness, bound, op_violation, violated):
        column.flags.writeable = False
    return ScanResult(
        threshold=largest_without(violated),
        singlet_threshold=largest_without(singlet_bad),
        operator_threshold=largest_without(op_bad),
        best_angle=best_angle,
        f=best_f,
        sharpness=sharpness,
        bound=bound,
        max_operator_violation=op_violation,
        violated=violated,
    )
