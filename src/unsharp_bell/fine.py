"""Pair-probability tables and their four-observable joint distributions.

A :class:`ProbabilityTable` records the single and coincidence
probabilities of a four-observable correlation experiment (observables 1
and 2 on one particle, 3 and 4 on the other) as one read-only row of 24
floats in ``SINGLE_KEYS + PAIR_KEYS`` order.  It is checked once, when it
is made: it stores the first precondition it breaks, if any, and its
largest marginal gap, which ``validate`` and the routes' gate only read.
The central question is whether a table is the marginal family of a
joint distribution over all four sign outcomes.  Three routes answer it:

* :func:`chsh_check` evaluates the eight CHSH-type inequalities in both
  their pair form and their singles form (the battery compares the two);
* :func:`reconstruct_jpd` builds a joint distribution in floats;
* :func:`feasibility_oracle` decides and builds one in exact arithmetic.

The last two share one system, nonnegativity of the sixteen joint entries
over seven free ones, eliminated once at import on integer coefficient
vectors over the pair values (``_SYSTEMS``).  A table is decided on the
minima of the rows (``_verdict``) and extended by back-substitution
(``_back_substitution``); the routes differ only in the values the rows
take: the table's pair values in floats (``_float_minima``), or sums of a
rational surrogate's Python-int generators (``_exact_minima``), on which
back-substitution stays exact.  The exact rows and back-substitution are
straight-line code written from the system and compiled at import
(``_kernel``); each exact row is built from its nearest row already
built, along a minimum spanning tree over the rows.  The CHSH forms are a
kernel too, written from the forms alone: ``chsh_check`` never reads the
compiled system, so the routes check each other.  Each body takes one
table's row, or a batch's 24 columns, and rounds alike; only a min or max
picks elementwise on columns (``_picks``).  The verification battery
decides through them.

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
from fractions import Fraction
from itertools import product
import math

import numpy as np

from . import fme
from .bell import BellConfiguration
from .operators import I2, _echo, expectation, json_known_keys, json_number
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
    "rationalization_error",
    "find_witness",
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

# Each label's position among a table's 24 entries, and the positions in
# each marginal relation.
_LABELS = SINGLE_KEYS + PAIR_KEYS
_COLUMN = {label: n for n, label in enumerate(_LABELS)}
_RELATION_COLUMNS = [(_COLUMN[a], _COLUMN[b], _COLUMN[k]) for a, b, k in MARGINAL_RELATIONS]

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


@dataclass(frozen=True, eq=False, slots=True, init=False)
class ProbabilityTable:
    """Singles and pair probabilities indexed by signed observable labels.

    ``single(k)`` is the probability of outcome sign(k) for observable |k|,
    k in {1,-1,...,4,-4}; ``pair(i, j)``, with i in {1,-1,2,-2} and j in
    {3,-3,4,-4}, is a coincidence probability.

    A table is read-only: its entries are ``row``, 24 floats in
    ``SINGLE_KEYS + PAIR_KEYS`` order, which ``single`` and ``pair`` index.
    It is checked once, when it is made; construction accepts any entries
    and stores the verdict, which :meth:`validate` reports.
    """

    row: tuple
    _refusal: str | None  # the first precondition the entries break, if any
    _gap: float  # the largest gap of ``MARGINAL_RELATIONS``
    _relation: int  # the relation with that gap

    def __init__(self, singles: dict, pairs: dict):
        missing = [k for k in SINGLE_KEYS if k not in singles]
        missing += [k for k in PAIR_KEYS if k not in pairs]
        refusal = None
        if missing or len(singles) != 8 or len(pairs) != 16:
            unexpected = [k for k in singles if k not in SINGLE_KEYS]
            unexpected += [k for k in pairs if k not in PAIR_KEYS]
            found = [f"{what} {', '.join(map(_label_name, labels))}"
                     for what, labels in (("missing", missing), ("unexpected", unexpected))
                     if labels]
            refusal = f"table must carry 8 singles and 16 pairs ({'; '.join(found)})"
        row = [singles.get(k, math.nan) for k in SINGLE_KEYS]
        row += [pairs.get(k, math.nan) for k in PAIR_KEYS]
        entries = [*singles.items(), *pairs.items()]
        try:
            self._settle(tuple(map(float, row)), entries, refusal)
        except (TypeError, ValueError, OverflowError):  # an entry no float holds or compares with
            for label, value in entries:
                try:
                    float(value) <= value  # what the row and the range test take of an entry
                except (TypeError, ValueError, OverflowError):
                    raise TableError(f"table entry {_label_name(label)} must be a number, "
                                     f"got {_echo(value)}") from None
            raise

    def _settle(self, row: tuple, entries, refusal: str | None = None) -> None:
        """Store the row and its verdict: the first precondition it breaks, and its largest gap.

        ``entries``, the (label, value) pairs in the caller's order, name the first out of range.
        """
        if refusal is None:
            refusal = next((f"entry {label} = {value!r} outside [0, 1]" for label, value in entries
                            if not -RANGE_TOL <= value <= 1.0 + RANGE_TOL), None)
        if refusal is None:
            for k in (1, 2, 3, 4):
                s = row[_COLUMN[k]] + row[_COLUMN[-k]]
                if abs(s - 1.0) > SUM_TOL:
                    refusal = (f"outcome probabilities of observable {k} sum to {s!r} "
                               f"(single {k} + single {-k})")
                    break
        gaps = [abs(row[a] + row[b] - row[k]) for a, b, k in _RELATION_COLUMNS]
        gap = max(gaps)
        for name, value in zip(self.__slots__, (row, refusal, gap, gaps.index(gap))):
            object.__setattr__(self, name, value)

    def single(self, k: int) -> float:
        return self.row[_COLUMN[k]]

    def pair(self, i: int, j: int) -> float:
        return self.row[_COLUMN[i, j]]

    def consistency_deviation(self) -> float:
        """Largest violation of the marginal consistency relations."""
        return self._gap

    def validate(self, marginal_tol: float = MARGINAL_TOL) -> "ProbabilityTable":
        """The table, or a :class:`TableError` naming the precondition it breaks."""
        if self._refusal is not None:
            raise TableError(self._refusal)
        if self._gap > marginal_tol:
            a, b, k = MARGINAL_RELATIONS[self._relation]
            raise TableError(
                f"marginal inconsistency {self._gap:.3e} exceeds {marginal_tol:.1e} "
                f"(pairs {a} + {b} vs single {k})"
            )
        return self

    def to_json_dict(self) -> dict:
        return {
            "singles": {str(k): value for k, value in zip(SINGLE_KEYS, self.row)},
            "pairs": {f"{i},{j}": value for (i, j), value in zip(PAIR_KEYS, self.row[8:])},
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
        writer.writerows([k, "", repr(value)] for k, value in zip(SINGLE_KEYS, self.row))
        writer.writerows([i, j, repr(value)] for (i, j), value in zip(PAIR_KEYS, self.row[8:]))
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
                    f"for a single, p a number), got {_echo(','.join(row))}"
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
                f"malformed table JSON entry {_echo(key)}: expected {count} integer label(s)"
            )
        label = labels[0] if count == 1 else labels
        if label not in keys:
            raise TableError(f"table JSON {part} has an unknown label {_echo(key)}")
        if label in entries:
            raise TableError(f"table JSON {part} gives label {_echo(key)} twice")
        entries[label] = json_number(value, f"table JSON entry {_echo(key)}", error=TableError)
    return entries


_SIGN_INDEX = {1: 0, -1: 1}
# Jpd4's JSON keys "s1,s2,s3,s4", in the order to_json_dict writes them, and their signs.
_SIGN_LABELS = {",".join(str(s) for s in signs): signs for signs in product((1, -1), repeat=4)}


@dataclass(eq=False)
class Jpd4:
    """Joint distribution over the sign quadruples of four observables."""

    values: np.ndarray  # shape (2, 2, 2, 2); index 0 <-> +1, 1 <-> -1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (2, 2, 2, 2):
            raise ValueError(f"joint distribution must have shape (2,2,2,2), got {self.values.shape}")
        finite = np.isfinite(self.values)
        if not finite.all():
            bad = float(self.values[~finite][0])
            raise ValueError(f"joint distribution has a non-finite entry ({bad!r})")
        low = float(self.values.min())
        if low < -RANGE_TOL:
            raise ValueError(f"joint distribution has a negative entry ({low:.3e})")
        total = float(self.values.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"joint distribution sums to {total!r}")

    def entry(self, signs: tuple[int, int, int, int]) -> float:
        return float(self.values[tuple(_SIGN_INDEX[s] for s in signs)])

    def to_json_dict(self) -> dict:
        return {key: self.entry(signs) for key, signs in _SIGN_LABELS.items()}


def _marginal_entries(values: np.ndarray) -> np.ndarray:
    """The marginals of a (2, 2, 2, 2) distribution, or of a batch of them.

    The 24 entries lie on the last axis in ``SINGLE_KEYS + PAIR_KEYS`` order,
    each the sum over the other observables' axes.
    """
    lead = values.shape[:-4]

    def kept(*slots):  # ``values.sum``'s reduction, called without its slower wrapper
        return np.add.reduce(values, axis=tuple(len(lead) + a for a in range(4) if a not in slots))

    entries = np.empty(lead + (len(SINGLE_KEYS + PAIR_KEYS),))
    for slot in range(4):
        entries[..., 2 * slot:2 * slot + 2] = kept(slot)
    # A view of the pairs as axes (i, sign of i, j, sign of j), in PAIR_KEYS order.
    pairs = entries[..., 8:].reshape(lead + (2, 2, 2, 2))
    for i in (0, 1):
        for j in (2, 3):
            pairs[..., i, :, j - 2, :] = kept(i, j)
    return entries


def _tables(rows) -> list[ProbabilityTable]:
    """The tables of rows of 24 Python floats in ``SINGLE_KEYS + PAIR_KEYS`` order, each checked."""
    tables = []
    for row in map(tuple, rows):
        tables.append(table := object.__new__(ProbabilityTable))
        table._settle(row, zip(_LABELS, row))
    return tables


def marginals(jpd: Jpd4) -> ProbabilityTable:
    """Singles and pair probabilities of a four-observable distribution."""
    return _tables([_marginal_entries(jpd.values).tolist()])[0]


def roundtrip_residual(table: ProbabilityTable, jpd: Jpd4) -> float:
    """Largest gap between a table and the marginals of a distribution built for it."""
    back = _marginal_entries(jpd.values).tolist()
    return max(abs(a - b) for a, b in zip(back, table.row))


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
    margin: float         # the smallest of p and 1 - p over the pair forms
    near_boundary: bool   # |margin| <= DECISION_TOL


# The CHSH forms over the positions of a table's entries.
_PAIR_FORMS = [[(_COLUMN[key], sign) for key, sign in form] for form in BELL_PAIR_FORMS]
_SINGLE_FORMS = [
    ((_COLUMN[k1], _COLUMN[k2]), [(_COLUMN[key], sign) for key, sign in part])
    for (k1, k2), part in BELL_SINGLE_FORMS
]


def _picks(value) -> tuple:
    """``max`` and ``min`` for numbers, or for float arrays elementwise picks like them.

    Numbers keep the exact route's ints out of int64.  The picks keep the
    first value on a tie, as ``max`` and ``min`` do (``np.maximum`` keeps
    the second, and so the sign of a zero).
    """
    if isinstance(value, np.ndarray):
        return (lambda a, b: np.where(b > a, b, a)), (lambda a, b: np.where(b < a, b, a))
    return max, min


def _signed(start: str, terms, name: str) -> str:
    """Source adding each ``c * name<j>`` of ``terms`` to ``start`` in turn, as |c| terms
    ``+- name<j>``: for c = +-1 the bits of ``+ c * y``; a larger |c| is only met on exact ints."""
    return start + "".join(f" {'-' if c < 0 else '+'} {name}{j}" * abs(c) for j, c in terms)


def _kernel(name: str, params: str, body: list, result: str):
    """``def name(params): body; return result``, compiled from its source once, at import."""
    source = "\n    ".join([f"def {name}({params}):", *body, f"return {result}"])
    exec(compile(source, f"<fine.{name}>", "exec"), namespace := {})
    return namespace[name]


def _chsh_source() -> tuple:
    """The CHSH forms of the entries ``x<n>`` of one table's 24 entries, or of a batch's 24
    columns: the four pair forms, the four singles forms, and whether all eight inequalities hold
    within ``DECISION_TOL``, decided on the pair forms.  Each sum starts from the int 0, and a
    singles form adds its two entries first, so every bit, signed zeros included, is the loop's."""
    pair = [_signed("0", terms, "x") for terms in _PAIR_FORMS]
    single = [f"x{a} + x{b} + ({_signed('0', terms, 'x')})" for (a, b), terms in _SINGLE_FORMS]
    holds = "".join(f" & (p{n} >= {-DECISION_TOL!r}) & (p{n} <= {1.0 + DECISION_TOL!r})"
                    for n in range(len(pair)))
    body = [f"{', '.join(f'x{n}' for n in range(len(_LABELS)))} = e"]
    body += [f"p{n} = {form}" for n, form in enumerate(pair)]
    pairs = ", ".join(f"p{n}" for n in range(len(pair)))
    return body, f"[{pairs}], [{', '.join(single)}], True{holds}"


_chsh_forms = _kernel("_chsh_forms", "e", *_chsh_source())


def chsh_check(table: ProbabilityTable) -> ChshCheck:
    """Evaluate the eight CHSH inequalities on a probability table.

    Both the pair form and the singles form of the four expressions are
    returned, and the pair form decides.  The two forms of an expression
    differ by two marginal relations, so on a table within
    ``CONSISTENCY_GATE`` they agree within twice its
    ``consistency_deviation()``; the battery's ``fine-equivalence`` check
    compares them, not this call.  ``margin`` is the smallest of p and
    1 - p over the pair forms (on a violated table, minus the slack of
    ``find_witness``), and ``near_boundary`` whether it is within
    ``DECISION_TOL`` of zero, where the tolerance settled the decision.
    """
    table.validate(marginal_tol=CONSISTENCY_GATE)
    pair, single, all_hold = _chsh_forms(table.row)
    margin = min(min(pair), 1.0 - max(pair))  # 1 - p rounds monotonically in p
    return ChshCheck(all_hold, tuple(pair), tuple(single), margin, abs(margin) <= DECISION_TOL)


def find_witness(table: ProbabilityTable) -> ChshWitness:
    """Most violated CHSH inequality of a table: the first of the largest slack."""
    sides = [(slack, idx, side, value) for idx, value in enumerate(_chsh_forms(table.row)[0])
             for side, slack in (("lower", -value), ("upper", value - 1.0))]
    slack, idx, side, value = max(sides, key=operator.itemgetter(0))
    return ChshWitness(f"chsh{idx + 1}", side, value, slack)


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
# Which entry lands at each position of a flattened (2, 2, 2, 2) distribution.
_ENTRY_ORDER = np.argsort([
    np.ravel_multi_index(tuple(_SIGN_INDEX[s] for s in outcome), (2, 2, 2, 2))
    for outcome in FREE_OUTCOMES + tuple(DEPENDENT_OUTCOMES)
]).tolist()


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
# The stacked rows' integer matrices, and the float route's copies, cast
# once: ``matrix @ pair_values`` would cast on every call, to the same values.
_MATRICES = [m for m, _, _ in _SYSTEMS] + [_ENTRY_CONSTS]
_FLOAT_MATRICES = [m.astype(float) for m in _MATRICES]
_TOL_NUMERATOR, _TOL_DENOMINATOR = DECISION_TOL.as_integer_ratio()


def _float_minima(pairs) -> tuple:
    """Each run's minimum (only it binds) and the 16 entry rows: numbers on one table's 16 pair
    values, arrays on a column per table of (N, 16) ones.  Each table takes its own matrix-vector
    products: the BLAS matrix product ``pairs @ matrix.T`` rounds differently."""
    column = np.asarray(pairs, dtype=float)[..., None]
    rows = np.concatenate([np.matmul(m, column) for m in _FLOAT_MATRICES], axis=-2)[..., 0].T
    minima, entries = np.minimum.reduceat(rows[:_COMPILED_ROWS], _RUN_STARTS), rows[_COMPILED_ROWS:]
    return (minima.tolist(), entries.tolist()) if rows.ndim == 1 else (list(minima), list(entries))


def _verdict(minima: list, scale) -> tuple:
    """The margin (the last run's minimum: the final rows) times ``scale``, whether it is within
    ``DECISION_TOL``, and feasibility: no final row below it.  One table's or a batch's."""
    lowest, tolerance = minima[-1], _TOL_NUMERATOR * scale
    near_boundary = abs(lowest) * _TOL_DENOMINATOR <= tolerance
    return lowest / scale, near_boundary, lowest * _TOL_DENOMINATOR >= -tolerance


def _substitution_source() -> tuple:
    """The loops over ``_BOUND_RUNS`` and ``_ENTRY_TERMS``, unrolled: free entry ``f<j>`` is its
    interval's midpoint; a bound's sum starts from its run's minimum, an entry's from the int 0
    (exact ints stay ints, and ``0 + -0.0`` is ``0.0``), as the loops did."""
    body = []
    for step, (index, runs) in enumerate(zip(reversed(_ELIMINATION_ORDER), reversed(_BOUND_RUNS))):
        for end, pick, side in (("lower", "larger", True), ("upper", "smaller", False)):
            ends = [f"{'-' * side}({_signed(f'm[{run}]', terms, 'f')})"
                    for run, below, terms in runs if below == side]
            body += [f"{end} = {ends[0]}"] + [f"{end} = {pick}({end}, {e})" for e in ends[1:]]
        body += [f"widest = {'larger(widest, lower - upper)' if step else 'lower - upper'}",
                 f"f{index} = divide(lower + upper, 2)"]
    entries = [f"e[{n}] + ({_signed('0', terms, 'f')})" for n, terms in enumerate(_ENTRY_TERMS)]
    return body, f"[{', '.join(entries)}], widest"


_substitute = _kernel("_substitute", "m, e, larger, smaller, divide", *_substitution_source())


def _back_substitution(minima: list, entries: list, scale, divide) -> tuple:
    """The 16 joint entries times ``scale``, from the runs' minima and the entry rows, and whether
    an interval was empty past ``DECISION_TOL``.  ``_substitute`` sets each free entry to its
    interval's midpoint, by ``operator.truediv`` on floats or ``floordiv`` on ints; each bound is
    ``-+(const + sum c_j x_j)`` with c = +-1, so constants divisible by ``2**7`` keep it an int."""
    values, widest = _substitute(minima, entries, *_picks(minima[-1]), divide)
    return values, widest * _TOL_DENOMINATOR > _TOL_NUMERATOR * scale


def _jpd_values(entries: list, scale=1) -> np.ndarray:
    """The (2, 2, 2, 2) distributions of ``_back_substitution``'s entries, divided by ``scale``."""
    values = np.array([entries[n] / scale for n in _ENTRY_ORDER])
    # In C order, so that a batch's marginals round as one table's do.
    return np.ascontiguousarray(values.T).reshape(values.shape[1:] + (2, 2, 2, 2))


def reconstruct_jpd(table: ProbabilityTable) -> FeasibilityResult:
    """Constructively extend a table to a joint distribution, if one exists.

    Works in floats on the table's own pair values: the compiled system
    decides feasibility, and back-substitution picks each of the seven
    free entries at the midpoint of its interval.  Returns an
    infeasibility witness (the most violated CHSH inequality) when some
    compiled row is violated by more than ``DECISION_TOL``.
    """
    table.validate(marginal_tol=CONSISTENCY_GATE)
    minima, entries = _float_minima(table.row[8:])
    margin, near, feasible = _verdict(minima, 1)
    if not feasible:
        witness = find_witness(table)
        return FeasibilityResult(False, None, witness, "interval-reconstruction", margin, near)
    entries, empty = _back_substitution(minima, entries, 1, operator.truediv)
    if empty:
        raise ArithmeticError("back-substitution met an empty interval")
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
_GENERATOR_COLUMNS = [_COLUMN[k] for k in (1, 2, 3, 4) + _GENERATOR_BLOCKS]


def _generator_pairs() -> tuple:
    """Each pair value (in ``PAIR_KEYS`` order) as a combination of the generators, in ints."""
    unit = np.eye(5 + len(_GENERATOR_BLOCKS), dtype=np.int64)
    pairs = np.zeros((len(PAIR_KEYS), len(unit)), dtype=np.int64)
    for block, (i, j) in zip(unit[5:], _GENERATOR_BLOCKS):
        pairs[PAIR_KEYS.index((i, j))] = block
        pairs[PAIR_KEYS.index((i, -j))] = unit[i] - block
        pairs[PAIR_KEYS.index((-i, j))] = unit[j] - block
        pairs[PAIR_KEYS.index((-i, -j))] = unit[0] - unit[i] - unit[j] + block
    return tuple(map(tuple, pairs.tolist()))


_GENERATOR_PAIRS = _generator_pairs()


def _exact_source() -> tuple:
    """Each distinct stacked row over the generators ``g<j>`` as one Python-int sum ``r<n>``, and
    each run's minimum and the 16 entry rows of them.  A row is the nearest row built before it
    plus the generators they differ by, in the build order of a minimum spanning tree over the
    rows' coefficient vectors (L1 distance; a row started from nothing costs its own terms).
    Python ints add exactly in any order, so the rows are those of the dense product."""
    stacked = np.vstack(_MATRICES) @ np.array(_GENERATOR_PAIRS)
    distinct, row_of = np.unique(stacked, axis=0, return_inverse=True)
    cost, nearest = np.abs(distinct).sum(axis=1), np.full(len(distinct), -1)
    left, body = np.ones(len(distinct), dtype=bool), []
    for _ in range(len(distinct)):
        n = int(np.argmin(np.where(left, cost, np.inf)))
        left[n], start = False, nearest[n]
        if start < 0:
            row = _signed("", enumerate(distinct[n].tolist()), "g").lstrip(" +") or "0"
        else:
            row = _signed(f"r{start}", enumerate((distinct[n] - distinct[start]).tolist()), "g")
        body.append(f"r{n} = {row}")
        distance = np.abs(distinct - distinct[n]).sum(axis=1)
        closer = left & (distance < cost)
        cost[closer], nearest[closer] = distance[closer], n
    rows = [f"r{n}" for n in row_of.reshape(-1).tolist()]
    runs = [", ".join(dict.fromkeys(rows[a:b]))
            for a, b in zip(_RUN_STARTS, _RUN_STARTS[1:] + [_COMPILED_ROWS])]
    minima = ", ".join(f"min({run})" if "," in run else run for run in runs)
    return body, f"[{minima}], [{', '.join(rows[_COMPILED_ROWS:])}]"


_exact_minima = _kernel("_exact_minima", ", ".join(f"g{j}" for j in range(9)), *_exact_source())


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
    ratios = [_limit_denominator(table.row[n]) for n in _GENERATOR_COLUMNS]
    # Back-substitution halves once per free entry.
    scale = math.lcm(*(q for _, q in ratios)) << len(_ELIMINATION_ORDER)
    minima, entries = _exact_minima(scale, *(p * (scale // q) for p, q in ratios))
    margin, near, feasible = _verdict(minima, scale)
    if not feasible:
        return FeasibilityResult(False, None, find_witness(table), "exact-elimination", margin, near)
    entries, empty = _back_substitution(minima, entries, scale, operator.floordiv)
    if empty:
        raise ArithmeticError("back-substitution met an empty interval")
    # A table feasible only within DECISION_TOL leaves entries up to that far
    # below zero.  They become zero and the largest entry gives up their
    # mass, so the entries still sum to exactly ``scale``.
    clipped = [max(entry, 0) for entry in entries]
    clipped[clipped.index(max(clipped))] += sum(min(entry, 0) for entry in entries)
    jpd = Jpd4(_jpd_values(clipped, scale))
    return FeasibilityResult(True, jpd, None, "exact-elimination", margin, near)


def rationalization_error(table: ProbabilityTable) -> float:
    """The largest gap between a table's 24 entries and the rational surrogate
    ``feasibility_oracle`` decides, computed exactly and rounded once.

    The surrogate's eight generators are the ``_limit_denominator`` ratios of
    the four outcome-+1 singles and the four unbarred pairs; the other singles
    are one minus those, and every pair is its ``_GENERATOR_PAIRS`` combination.
    """
    generators = [1] + [Fraction(*_limit_denominator(table.row[n])) for n in _GENERATOR_COLUMNS]
    surrogate = [entry for one in generators[1:5] for entry in (one, 1 - one)]
    surrogate += [sum(c * g for c, g in zip(pair, generators)) for pair in _GENERATOR_PAIRS]
    return float(max(abs(Fraction(x) - entry) for x, entry in zip(table.row, surrogate)))


def table_from_quantum(state, config: BellConfiguration) -> ProbabilityTable:
    """Probability table of a two-particle state under unsharp spin pairs.

    Observables 1 and 2 measure along the configuration's first-particle
    axes, observables 3 and 4 along the second-particle axes, all at the
    configuration's sharpness.
    """
    s = config.sharpness
    # Each particle's effects in SINGLE_KEYS order: outcome +1, then -1, per axis.
    first, second = (
        [unsharp_effect(sign * axis, s) for axis in axes for sign in (1, -1)]
        for axes in (config.axes[:2], config.axes[2:])
    )
    rho = np.asarray(state, dtype=complex)
    # np.kron, not operators.tensor: this is the independent reference the
    # fine-equivalence check compares its tensor-built batch against bit for bit.
    row = [expectation(rho, np.kron(eff, I2)) for eff in first]
    row += [expectation(rho, np.kron(I2, eff)) for eff in second]
    row += [expectation(rho, np.kron(eff_i, eff_j)) for eff_i in first for eff_j in second]
    return _tables([row])[0].validate()
