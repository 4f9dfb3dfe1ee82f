"""Pair-probability tables and their four-observable joint distributions.

A :class:`ProbabilityTable` records the single and coincidence
probabilities of a four-observable correlation experiment (observables 1
and 2 on one particle, 3 and 4 on the other).  The central question is
whether such a table is the marginal family of a joint distribution over
all four sign outcomes.  Three routes answer it:

* :func:`chsh_check` evaluates the eight CHSH-type inequalities in both
  their pair form and their singles form;
* :func:`reconstruct_jpd` builds a joint distribution in floats;
* :func:`feasibility_oracle` decides and builds one in exact arithmetic.

The last two share one system: nonnegativity of the sixteen joint entries
over seven free ones, with constants linear in the pair values.  Its
Fourier-Motzkin elimination runs once, at import, on integer coefficient
vectors over the pair values (``_SYSTEMS``).  A table is decided by
evaluating the final rows on its pair values and extended by
back-substitution, in one body (``_joint_entries``); the routes differ
only in those values (the table's floats, or a rational surrogate scaled
to ints).  With coefficients of 0 and +-1, back-substitution only adds,
negates, takes a min or max and halves, once per free entry, so constants
scaled by ``2**7`` keep it in Python ints.  ``chsh_check`` never reads the
compiled system, so the routes still check each other.

One rule decides on every route: a table is feasible when no inequality
is violated by more than ``DECISION_TOL``; the exact route applies it in
exact arithmetic.  By Fine's theorem (A. Fine, PRL 48, 291 (1982)) the
eight CHSH-type inequalities and nonnegativity are the whole system.
"""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass
import math

import numpy as np

from . import fme
from .bell import BellConfiguration
from .operators import I2, expectation, json_known_keys, json_number
from .spin_povm import unsharp_effect

__all__ = [
    "TableError",
    "ProbabilityTable",
    "Jpd4",
    "ChshCheck",
    "ChshWitness",
    "FeasibilityResult",
    "marginals",
    "roundtrip_residual",
    "chsh_check",
    "reconstruct_jpd",
    "feasibility_oracle",
    "table_from_quantum",
]

SINGLE_KEYS = (1, -1, 2, -2, 3, -3, 4, -4)
PAIR_KEYS = tuple((i, j) for i in (1, -1, 2, -2) for j in (3, -3, 4, -4))
# Each marginal consistency relation as (pair a, pair b, single k): the
# pairs a and b must sum to the single k.
MARGINAL_RELATIONS = tuple(
    [((i, j), (i, -j), i) for i in (1, -1, 2, -2) for j in (3, 4)]
    + [((i, j), (-i, j), j) for j in (3, -3, 4, -4) for i in (1, 2)]
)

RANGE_TOL = 1e-12
SUM_TOL = 1e-9
MARGINAL_TOL = 1e-9
# chsh_check, reconstruct_jpd and feasibility_oracle reject tables whose
# marginal inconsistency exceeds this; below it the answers of the three
# routes are comparable.
CONSISTENCY_GATE = 1e-6
# Tolerance on the inequality and feasibility decisions of all three
# routes; the exact route applies it in exact arithmetic.
DECISION_TOL = 1e-9
# Denominator bound used when rationalizing a table for exact elimination.
RATIONAL_DENOMINATOR = 10**9


class TableError(ValueError):
    """Raised for structurally invalid probability tables."""


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Singles and pair probabilities indexed by signed observable labels.

    ``singles`` maps k in {1,-1,...,4,-4} to the probability of outcome
    sign(k) for observable |k|; ``pairs`` maps (i, j) with i in
    {1,-1,2,-2} and j in {3,-3,4,-4} to coincidence probabilities.
    """

    singles: dict[int, float]
    pairs: dict[tuple[int, int], float]

    def single(self, k: int) -> float:
        return self.singles[k]

    def pair(self, i: int, j: int) -> float:
        return self.pairs[(i, j)]

    def _relation_gaps(self):
        """The gap of each of ``MARGINAL_RELATIONS``, in its order."""
        singles, pairs = self.singles, self.pairs
        return [abs(pairs[a] + pairs[b] - singles[k]) for a, b, k in MARGINAL_RELATIONS]

    def consistency_deviation(self) -> float:
        """Largest violation of the marginal consistency relations."""
        return max(self._relation_gaps())

    def validate(self, marginal_tol: float = MARGINAL_TOL) -> "ProbabilityTable":
        missing = [k for k in SINGLE_KEYS if k not in self.singles]
        missing += [k for k in PAIR_KEYS if k not in self.pairs]
        if missing or len(self.singles) != 8 or len(self.pairs) != 16:
            unexpected = [k for k in self.singles if k not in SINGLE_KEYS]
            unexpected += [k for k in self.pairs if k not in PAIR_KEYS]
            found = [f"{what} {', '.join(map(_label_name, labels))}"
                     for what, labels in (("missing", missing), ("unexpected", unexpected))
                     if labels]
            raise TableError(f"table must carry 8 singles and 16 pairs ({'; '.join(found)})")
        for label, value in list(self.singles.items()) + list(self.pairs.items()):
            if not -RANGE_TOL <= value <= 1.0 + RANGE_TOL:
                raise TableError(f"entry {label} = {value!r} outside [0, 1]")
        for k in (1, 2, 3, 4):
            s = self.single(k) + self.single(-k)
            if abs(s - 1.0) > SUM_TOL:
                raise TableError(
                    f"outcome probabilities of observable {k} sum to {s!r} "
                    f"(single {k} + single {-k})"
                )
        gaps = self._relation_gaps()
        dev = max(gaps)
        if dev > marginal_tol:
            a, b, k = MARGINAL_RELATIONS[gaps.index(dev)]
            raise TableError(
                f"marginal inconsistency {dev:.3e} exceeds {marginal_tol:.1e} "
                f"(pairs {a} + {b} vs single {k})"
            )
        return self

    def to_json_dict(self) -> dict:
        return {
            "singles": {str(k): self.singles[k] for k in SINGLE_KEYS},
            "pairs": {f"{i},{j}": self.pairs[(i, j)] for i, j in PAIR_KEYS},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProbabilityTable":
        try:
            raw_singles = data["singles"]
            raw_pairs = data["pairs"]
        except (KeyError, TypeError):
            raise TableError("table JSON needs 'singles' and 'pairs' objects") from None
        json_known_keys(data, ("singles", "pairs"), "table JSON", TableError)
        if not isinstance(raw_singles, dict) or not isinstance(raw_pairs, dict):
            raise TableError("table JSON 'singles' and 'pairs' must be objects")
        singles = _table_entries(raw_singles, "singles")
        pairs = _table_entries(raw_pairs, "pairs")
        return cls(singles, pairs).validate()

    def to_csv_text(self) -> str:
        """Rows (i, j, p); singles carry an empty j column."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["i", "j", "p"])
        for k in SINGLE_KEYS:
            writer.writerow([k, "", repr(self.singles[k])])
        for i, j in PAIR_KEYS:
            writer.writerow([i, j, repr(self.pairs[(i, j)])])
        return out.getvalue()

    @classmethod
    def from_csv_text(cls, text: str) -> "ProbabilityTable":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["i", "j", "p"]:
            raise TableError("table CSV must start with header i,j,p")
        singles: dict[int, float] = {}
        pairs: dict[tuple[int, int], float] = {}
        for row in reader:
            if not row:
                continue
            try:
                i_text, j_text, p_text = row
                i, p = int(i_text), float(p_text)
                entries, label = (
                    (singles, i) if j_text.strip() == "" else (pairs, (i, int(j_text)))
                )
            except ValueError:
                raise TableError(
                    f"table CSV row {reader.line_num} must be i,j,p (integer labels, j empty "
                    f"for a single, p a number), got {','.join(row)!r}"
                ) from None
            if label in entries:
                raise TableError(f"table CSV row {reader.line_num} repeats {_label_name(label)}")
            entries[label] = p
        return cls(singles, pairs).validate()


def _label_name(label) -> str:
    """A table label as messages name it: ``single 1`` or ``pair (1, 3)``."""
    return f"single {label}" if isinstance(label, int) else f"pair {label}"


def _table_entries(raw: dict, part: str) -> dict:
    """The entries of a table JSON part, "singles" or "pairs", by label.

    A single's key is "k" and a pair's "i,j"; an unknown label, or one
    given twice, is refused.
    """
    count, keys = (1, SINGLE_KEYS) if part == "singles" else (2, PAIR_KEYS)
    entries = {}
    for key, value in raw.items():
        try:
            labels = tuple(int(piece) for piece in str(key).split(","))
        except ValueError:
            labels = ()
        if len(labels) != count:
            raise TableError(
                f"malformed table JSON entry {key!r}: expected {count} integer label(s)"
            )
        label = labels[0] if count == 1 else labels
        if label not in keys:
            raise TableError(f"table JSON {part} has an unknown label {key!r}")
        if label in entries:
            raise TableError(f"table JSON {part} gives label {key!r} twice")
        entries[label] = json_number(value, f"table JSON entry {key!r}", error=TableError)
    return entries


_SIGN_INDEX = {1: 0, -1: 1}


@dataclass(eq=False)
class Jpd4:
    """Joint distribution over the sign quadruples of four observables."""

    values: np.ndarray  # shape (2, 2, 2, 2); index 0 <-> +1, 1 <-> -1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (2, 2, 2, 2):
            raise ValueError(f"joint distribution must have shape (2,2,2,2), got {self.values.shape}")
        low = float(self.values.min())
        if low < -RANGE_TOL:
            raise ValueError(f"joint distribution has a negative entry ({low:.3e})")
        total = float(self.values.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"joint distribution sums to {total!r}")

    def entry(self, signs: tuple[int, int, int, int]) -> float:
        return float(self.values[tuple(_SIGN_INDEX[s] for s in signs)])

    def to_json_dict(self) -> dict:
        return {
            ",".join(str(s) for s in signs): self.entry(signs)
            for signs in _all_sign_quadruples()
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Jpd4":
        """Read the 16 entries ``to_json_dict`` writes, keyed "s1,s2,s3,s4" with each sign 1 or -1."""
        if not isinstance(data, dict):
            raise ValueError(f"joint distribution JSON must be an object, got {data!r}")
        labels = {",".join(str(s) for s in signs): signs for signs in _all_sign_quadruples()}
        for key in data:
            if key not in labels:
                raise ValueError(
                    f"joint distribution JSON key {key!r} is not a sign quadruple such as "
                    f"'1,-1,1,1'"
                )
        values = np.zeros((2, 2, 2, 2))
        for key, signs in labels.items():
            if key not in data:
                raise ValueError(f"joint distribution JSON is missing the entry {key!r}")
            field = f"joint distribution JSON entry {key!r}"
            values[tuple(_SIGN_INDEX[s] for s in signs)] = json_number(data[key], field)
        return cls(values)


def _all_sign_quadruples():
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                for s4 in (1, -1):
                    yield (s1, s2, s3, s4)


def marginals(jpd: Jpd4) -> ProbabilityTable:
    """Singles and pair probabilities of a four-observable distribution."""
    vals = jpd.values
    singles = {}
    for slot in range(4):
        others = tuple(axis for axis in range(4) if axis != slot)
        sums = vals.sum(axis=others)
        singles[slot + 1] = float(sums[0])
        singles[-(slot + 1)] = float(sums[1])
    pairs = {}
    for i_label in (1, 2):
        for j_label in (3, 4):
            others = tuple(
                axis for axis in range(4) if axis not in (i_label - 1, j_label - 1)
            )
            block = vals.sum(axis=others)
            for si in (1, -1):
                for sj in (1, -1):
                    pairs[(si * i_label, sj * j_label)] = float(
                        block[_SIGN_INDEX[si], _SIGN_INDEX[sj]]
                    )
    return ProbabilityTable(singles, pairs)


def roundtrip_residual(table: ProbabilityTable, jpd: Jpd4) -> float:
    """Largest gap between a table and the marginals of a distribution built for it."""
    back = marginals(jpd)
    return max(
        max(abs(back.single(k) - table.single(k)) for k in SINGLE_KEYS),
        max(abs(back.pair(i, j) - table.pair(i, j)) for i, j in PAIR_KEYS),
    )


# The four CHSH expressions in their pair form; each must lie in [0, 1].
BELL_PAIR_FORMS = (
    ((((1, -3), 1), ((-1, 4), 1), ((2, 4), -1), ((2, 3), 1))),
    ((((1, -4), 1), ((-1, 3), 1), ((2, 3), -1), ((2, 4), 1))),
    ((((2, -3), 1), ((-2, 4), 1), ((1, 4), -1), ((1, 3), 1))),
    ((((2, -4), 1), ((-2, 3), 1), ((1, 3), -1), ((1, 4), 1))),
)

# The same four expressions rewritten through the singles.
BELL_SINGLE_FORMS = (
    ((1, 4), (((1, 3), -1), ((1, 4), -1), ((2, 4), -1), ((2, 3), 1))),
    ((1, 3), (((1, 3), -1), ((1, 4), -1), ((2, 3), -1), ((2, 4), 1))),
    ((2, 4), (((2, 3), -1), ((1, 4), -1), ((2, 4), -1), ((1, 3), 1))),
    ((2, 3), (((1, 3), -1), ((2, 3), -1), ((2, 4), -1), ((1, 4), 1))),
)


@dataclass(frozen=True)
class ChshWitness:
    """A CHSH expression lying outside [0, 1], as evidence of infeasibility."""

    inequality: str   # 'chsh1' .. 'chsh4'
    side: str         # 'lower' or 'upper'
    value: float
    slack: float      # distance outside [0, 1]


@dataclass(frozen=True)
class ChshCheck:
    all_hold: bool
    pair_form: tuple[float, float, float, float]
    single_form: tuple[float, float, float, float]

    @property
    def values(self) -> tuple[float, ...]:
        return self.pair_form + self.single_form


def _pair_form_values(table: ProbabilityTable) -> tuple[float, ...]:
    return tuple(
        sum(sign * table.pair(*key) for key, sign in form) for form in BELL_PAIR_FORMS
    )


def _single_form_values(table: ProbabilityTable) -> tuple[float, ...]:
    values = []
    for (k1, k2), pair_part in BELL_SINGLE_FORMS:
        total = table.single(k1) + table.single(k2)
        total += sum(sign * table.pair(*key) for key, sign in pair_part)
        values.append(total)
    return tuple(values)


def chsh_check(table: ProbabilityTable) -> ChshCheck:
    """Evaluate the eight CHSH inequalities on a probability table.

    Both the pair form and the singles form of the four expressions are
    computed; for a marginally consistent table they coincide, and the
    check errors out when the measured inconsistency makes the two forms
    incomparable.
    """
    table.validate(marginal_tol=CONSISTENCY_GATE)
    pair_vals = _pair_form_values(table)
    single_vals = _single_form_values(table)
    # Exact equivalence of the two forms holds for exactly consistent
    # tables; allow the residual the measured inconsistency can induce.
    agreement_tol = DECISION_TOL + 4.0 * table.consistency_deviation()
    worst = max(abs(p - s) for p, s in zip(pair_vals, single_vals))
    if worst > agreement_tol:
        raise ArithmeticError(
            f"pair-form and singles-form CHSH values disagree by {worst:.3e}"
        )
    all_hold = all(-DECISION_TOL <= v <= 1.0 + DECISION_TOL for v in pair_vals)
    return ChshCheck(all_hold=all_hold, pair_form=pair_vals, single_form=single_vals)


def find_witness(table: ProbabilityTable) -> ChshWitness:
    """Most violated CHSH inequality of a table."""
    values = _pair_form_values(table)
    best = None
    for idx, value in enumerate(values):
        for side, slack in (("lower", -value), ("upper", value - 1.0)):
            if best is None or slack > best.slack:
                best = ChshWitness(f"chsh{idx + 1}", side, value, slack)
    return best


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    jpd: Jpd4 | None
    witness: ChshWitness | None
    method: str
    # Smallest row of the final compiled system, in probability units:
    # negative past a bound of Fine's system; the exact route rounds it once.
    margin: float
    near_boundary: bool  # |margin| <= DECISION_TOL: the tolerance decided


# ----------------------------------------------------------------------
# The linear system behind reconstruction and the oracle.
#
# Seven joint-distribution entries are free parameters; the remaining
# nine are affine in them with coefficients read off the marginal
# equations.  Free order: indices 0..6 as listed.
FREE_OUTCOMES = (
    (1, 1, 1, 1),
    (1, 1, 1, -1),
    (1, 1, -1, 1),
    (1, 1, -1, -1),
    (1, -1, 1, 1),
    (-1, 1, 1, 1),
    (-1, -1, 1, 1),
)

# outcome -> (pair-value terms, coefficients on the free entries)
DEPENDENT_OUTCOMES = {
    (1, -1, 1, -1): ((((1, 3), 1),), (-1, -1, 0, 0, -1, 0, 0)),
    (1, -1, -1, 1): ((((1, 4), 1),), (-1, 0, -1, 0, -1, 0, 0)),
    (1, -1, -1, -1): ((((1, -3), 1), ((1, 4), -1)), (1, 0, 0, -1, 1, 0, 0)),
    (-1, 1, 1, -1): ((((2, 3), 1),), (-1, -1, 0, 0, 0, -1, 0)),
    (-1, 1, -1, 1): ((((2, 4), 1),), (-1, 0, -1, 0, 0, -1, 0)),
    (-1, 1, -1, -1): ((((2, -3), 1), ((2, 4), -1)), (1, 0, 0, -1, 0, 1, 0)),
    (-1, -1, 1, -1): ((((-1, 3), 1), ((2, 3), -1)), (1, 1, 0, 0, 0, 0, -1)),
    (-1, -1, -1, 1): ((((-1, 4), 1), ((2, 4), -1)), (1, 0, 1, 0, 0, 0, -1)),
    (-1, -1, -1, -1): (
        (((-2, -3), 1), ((1, -3), -1), ((-1, 4), -1), ((2, 4), 1)),
        (-1, 0, 0, 1, 0, 0, 1),
    ),
}

# Elimination order: the three entries fixing the coarse structure are
# eliminated last so they are assigned first during back-substitution.
_ELIMINATION_ORDER = (4, 5, 6, 0, 3, 2, 1)


def _build_system() -> list:
    """Nonnegativity of all 16 entries as rows over the 7 free entries.

    Rows follow ``FREE_OUTCOMES`` then ``DEPENDENT_OUTCOMES``; each row's
    constant is the integer vector of its coefficients on the pair values,
    in ``PAIR_KEYS`` order.
    """
    none = (0,) * len(PAIR_KEYS)
    rows = [(none, tuple(int(i == index) for i in range(7))) for index in range(7)]
    for terms, coeffs in DEPENDENT_OUTCOMES.values():
        const = [0] * len(PAIR_KEYS)
        for key, sign in terms:
            const[PAIR_KEYS.index(key)] += sign
        rows.append((tuple(const), coeffs))
    return rows


_ENTRY_ROWS = _build_system()
_ENTRY_CONSTS = np.array([const for const, _ in _ENTRY_ROWS], dtype=np.int64)
# Each entry row's nonzero (free index, coefficient) terms, in index order.
_ENTRY_TERMS = [[(j, c) for j, c in enumerate(coeffs) if c] for _, coeffs in _ENTRY_ROWS]
_ENTRY_INDICES = [
    tuple(_SIGN_INDEX[s] for s in outcome)
    for outcome in FREE_OUTCOMES + tuple(DEPENDENT_OUTCOMES)
]


def _compile_systems() -> tuple:
    """Eliminate the free entries once, for every table at the same time.

    Returns, for each elimination step, the rows of the system before it
    that bound the variable it eliminates (the only rows back-substitution
    reads), then the final constant rows.  Each system is sorted by
    coefficients and stored as its constants (an integer matrix acting on
    the pair values), the first row of each run of equal coefficients,
    and those coefficients: within a run only the smallest constant binds.
    With the systems stacked, also returns the first row of each run and,
    per step, the runs bounding its variable: (run, whether it bounds from
    below, its (variable, coefficient) terms on the other variables).
    """
    systems = fme.project(_ENTRY_ROWS, _ELIMINATION_ORDER)
    bounding = [
        [row for row in system if row[1][index] != 0]
        for system, index in zip(systems, _ELIMINATION_ORDER)
    ]
    compiled, run_starts, bound_runs, stacked = [], [], [], 0
    for rows, index in zip(bounding + [systems[-1]], _ELIMINATION_ORDER + (None,)):
        rows = sorted(rows, key=lambda row: row[1])
        coeffs = [row[1] for row in rows]
        starts = [n for n, c in enumerate(coeffs) if n == 0 or c != coeffs[n - 1]]
        if index is not None:
            bound_runs.append([
                (len(run_starts) + n, coeffs[start][index] > 0,
                 [(j, c) for j, c in enumerate(coeffs[start]) if c and j != index])
                for n, start in enumerate(starts)
            ])
        run_starts += [stacked + start for start in starts]
        stacked += len(rows)
        matrix = np.array([const for const, _ in rows], dtype=np.int64)
        compiled.append((matrix, starts, [coeffs[n] for n in starts]))
    return tuple(compiled), run_starts, bound_runs


_SYSTEMS, _RUN_STARTS, _BOUND_RUNS = _compile_systems()
_COMPILED_ROWS = sum(len(matrix) for matrix, _, _ in _SYSTEMS)
_TOL_NUMERATOR, _TOL_DENOMINATOR = DECISION_TOL.as_integer_ratio()


def _joint_entries(rows: np.ndarray, scale, divide):
    """Margin, whether it is within ``DECISION_TOL``, and entries times ``scale`` (None past it).

    The one body of both routes.  ``rows`` holds the stacked compiled rows,
    then the 16 entry constants, times ``scale``: floats, ``scale=1`` and
    ``divide=operator.truediv``, or ints and ``operator.floordiv``.  Each
    bound is ``-+(const + sum c_j x_j)`` with c = +-1, so constants divisible
    by ``2**7`` keep every midpoint an exact int.
    """
    minima = np.minimum.reduceat(rows[:_COMPILED_ROWS], _RUN_STARTS).tolist()
    lowest = minima[-1]
    tolerance = _TOL_NUMERATOR * scale
    margin = lowest / scale
    near_boundary = abs(lowest) * _TOL_DENOMINATOR <= tolerance
    if lowest * _TOL_DENOMINATOR < -tolerance:
        return margin, near_boundary, None
    free = [0] * len(_ELIMINATION_ORDER)
    for index, runs in zip(reversed(_ELIMINATION_ORDER), reversed(_BOUND_RUNS)):
        lower, upper = -math.inf, math.inf
        for run, below, terms in runs:
            rest = minima[run]
            for j, c in terms:
                rest = rest + c * free[j]
            if below:
                lower = max(lower, -rest)
            else:
                upper = min(upper, rest)
        if (lower - upper) * _TOL_DENOMINATOR > tolerance:
            raise ArithmeticError(
                f"empty interval for variable {index}: [{lower / scale}, {upper / scale}]"
            )
        free[index] = divide(lower + upper, 2)
    entries = [
        value + sum(c * free[j] for j, c in terms)
        for value, terms in zip(rows[_COMPILED_ROWS:].tolist(), _ENTRY_TERMS)
    ]
    return margin, near_boundary, entries


def _jpd_values(entries: list, scale=1) -> np.ndarray:
    """The (2, 2, 2, 2) array of ``_joint_entries``'s entries, divided by ``scale``."""
    values = np.zeros((2, 2, 2, 2))
    for index, entry in zip(_ENTRY_INDICES, entries):
        values[index] = entry / scale
    return values


def reconstruct_jpd(table: ProbabilityTable) -> FeasibilityResult:
    """Constructively extend a table to a joint distribution, if one exists.

    Works in floats on the table's own pair values: the compiled system
    decides feasibility, and back-substitution picks each of the seven
    free entries at the midpoint of its interval.  Returns an
    infeasibility witness (the most violated CHSH inequality) when some
    compiled row is violated by more than ``DECISION_TOL``.
    """
    table.validate(marginal_tol=CONSISTENCY_GATE)
    pair_values = np.array([table.pair(*key) for key in PAIR_KEYS])
    rows = np.concatenate(
        [matrix @ pair_values for matrix, _, _ in _SYSTEMS] + [_ENTRY_CONSTS @ pair_values]
    )
    margin, near, entries = _joint_entries(rows, 1, operator.truediv)
    if entries is None:
        return FeasibilityResult(
            False, None, find_witness(table), "interval-reconstruction", margin, near
        )
    # Interval midpoints can sit a rounding error below zero at
    # degenerate vertices; that is within the distribution tolerance.
    jpd = Jpd4(np.clip(_jpd_values(entries), -RANGE_TOL, None))
    return FeasibilityResult(True, jpd, None, "interval-reconstruction", margin, near)


def _limit_denominator(x: float) -> tuple[int, int]:
    """``Fraction(x).limit_denominator(RATIONAL_DENOMINATOR)`` in ints: (numerator, denominator)."""
    bound = RATIONAL_DENOMINATOR
    n, d = x.as_integer_ratio()
    if d <= bound:
        return n, d
    p0, q0, p1, q1, num, den = 0, 1, 1, 0, n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (bound - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1
    # The closer of the convergent p1/q1 and the semiconvergent p/q; p1/q1 on a tie.
    if abs(p1 * d - n * q1) * q <= abs(p * d - n * q) * q1:
        return p1, q1
    return p, q


# The exact route's generators: 1, the outcome-+1 singles of observables
# 1..4 and the four unbarred pairs.  Every pair value is an integer
# combination of them, so the surrogate is exactly consistent.
_GENERATOR_BLOCKS = ((1, 3), (1, 4), (2, 3), (2, 4))


def _generator_pairs() -> np.ndarray:
    """Each pair value (in ``PAIR_KEYS`` order) as a combination of the generators."""
    unit = np.eye(5 + len(_GENERATOR_BLOCKS), dtype=np.int64)
    pairs = np.zeros((len(PAIR_KEYS), len(unit)), dtype=np.int64)
    for block, (i, j) in zip(unit[5:], _GENERATOR_BLOCKS):
        pairs[PAIR_KEYS.index((i, j))] = block
        pairs[PAIR_KEYS.index((i, -j))] = unit[i] - block
        pairs[PAIR_KEYS.index((-i, j))] = unit[j] - block
        pairs[PAIR_KEYS.index((-i, -j))] = unit[0] - unit[i] - unit[j] + block
    return pairs


# The distinct stacked compiled and entry rows over the generators.
_EXACT_ROWS = np.vstack([m for m, _, _ in _SYSTEMS] + [_ENTRY_CONSTS]) @ _generator_pairs()
_EXACT_ROWS, _EXACT_ROW_OF = np.unique(_EXACT_ROWS, axis=0, return_inverse=True)
_EXACT_ROWS, _EXACT_ROW_OF = _EXACT_ROWS.astype(object), _EXACT_ROW_OF.reshape(-1)


def feasibility_oracle(table: ProbabilityTable) -> FeasibilityResult:
    """Decide joint-distribution feasibility in exact rational arithmetic.

    The table is replaced by an exactly consistent rational surrogate
    (denominators bounded by ``RATIONAL_DENOMINATOR``), scaled to Python
    ints over a common denominator.  The compiled system decides
    feasibility without rounding, with the same ``DECISION_TOL`` as the
    float routes, and back-substitution returns an explicit joint
    distribution in the feasible case.
    """
    table.validate(marginal_tol=CONSISTENCY_GATE)
    ratios = [_limit_denominator(table.single(k)) for k in (1, 2, 3, 4)]
    ratios += [_limit_denominator(table.pair(i, j)) for i, j in _GENERATOR_BLOCKS]
    # Back-substitution halves once per free entry.
    scale = math.lcm(*(q for _, q in ratios)) << len(_ELIMINATION_ORDER)
    generators = [scale] + [p * (scale // q) for p, q in ratios]
    rows = (_EXACT_ROWS @ np.array(generators, dtype=object))[_EXACT_ROW_OF]
    margin, near, entries = _joint_entries(rows, scale, operator.floordiv)
    if entries is None:
        return FeasibilityResult(
            False, None, find_witness(table), "exact-elimination", margin, near
        )
    # A table feasible only within DECISION_TOL leaves entries up to that far
    # below zero.  They become zero and the largest entry gives up their
    # mass, so the entries still sum to exactly ``scale``.
    clipped = [max(entry, 0) for entry in entries]
    clipped[clipped.index(max(clipped))] += sum(min(entry, 0) for entry in entries)
    jpd = Jpd4(_jpd_values(clipped, scale))
    return FeasibilityResult(True, jpd, None, "exact-elimination", margin, near)


def table_from_quantum(state, config: BellConfiguration) -> ProbabilityTable:
    """Probability table of a two-particle state under unsharp spin pairs.

    Observables 1 and 2 measure along the configuration's first-particle
    axes, observables 3 and 4 along the second-particle axes, all at the
    configuration's sharpness.
    """
    s = config.sharpness
    first = {
        1: unsharp_effect(config.axis1, s),
        -1: unsharp_effect(-config.axis1, s),
        2: unsharp_effect(config.axis2, s),
        -2: unsharp_effect(-config.axis2, s),
    }
    second = {
        3: unsharp_effect(config.axis3, s),
        -3: unsharp_effect(-config.axis3, s),
        4: unsharp_effect(config.axis4, s),
        -4: unsharp_effect(-config.axis4, s),
    }
    rho = np.asarray(state, dtype=complex)
    # np.kron, not operators.tensor: this is the independent reference the
    # fine-equivalence check compares its tensor-built batch against bit for bit.
    singles = {}
    for k, eff in first.items():
        singles[k] = expectation(rho, np.kron(eff, I2))
    for k, eff in second.items():
        singles[k] = expectation(rho, np.kron(I2, eff))
    pairs = {}
    for i, eff_i in first.items():
        for j, eff_j in second.items():
            pairs[(i, j)] = expectation(rho, np.kron(eff_i, eff_j))
    return ProbabilityTable(singles, pairs).validate()
