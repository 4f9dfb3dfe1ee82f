"""Self-verification of the package's headline numerical claims.

Each check reproduces one quantitative statement end to end (thresholds,
bounds, equivalences) and reports the largest deviation it measured
against the tolerance it must meet.  ``run_all`` executes every check
for a given seed and is memoized, so repeated calls (library use plus
the command-line ``verify-all``) cost one computation.

The checks follow one rule.  Large samples are evaluated as batched
array arithmetic, never as one public call per point; a strided subset
of the same points also goes through the public API, whose answers must
match the batch.  Every closed form keeps one independent numeric
cross-check (an eigensolver against the norm formula, the Born rule
against the singlet formula, three feasibility routes against each
other).  Each check's ``detail`` names how many points it evaluated, so
a faster battery cannot come from checking less.

The Cirelson check eigensolves its 100,000 Bell operators as real
symmetric matrices: in the magic basis every ``sigma_i (x) sigma_j`` is
real, so each operator is a real combination of nine constant 4x4
matrices; every ``SPOT_STRIDE``-th one is also eigensolved as the complex
``bell.bell_operator``.  The Fine check builds its 500 quantum tables as
one Born-rule batch, the operations of ``fine.table_from_quantum``
broadcast over a leading axis (``operators.tensor`` broadcasts, and
multiplies entry by entry as ``np.kron`` does); every tenth table also
goes through ``table_from_quantum`` and must match bit for bit.  Its
marginals, CHSH forms, float reconstruction and round trips are batches
over all 1000 tables too; only the exact oracle, whose Python-int
arithmetic has no batch, runs once per table.  The singlet check
evaluates its 1000 draws as one batch.

``_sequential_vs_joint`` takes its effect roots from
``relativistic._measurement_roots``, as charts do, but it and
``check_disturbance`` write the Luders sandwich out rather than call
``instruments.lueders_update``, the one step charts and instruments
apply.  The cover-partition check flags its points with
``_causal_codes``; its spot checks go through ``Cover.flags_at``, which
charts use and which decides every cone through
``relativistic.causal_relation``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import fine
from .bell import (
    THRESHOLDS,
    BellConfiguration,
    bell_operator,
    chsh_report,
    coplanar_configuration,
    operator_chsh_holds,
    orthogonal_configuration,
    scan_lambda_threshold,
    singlet_pair_prob,
    singlet_state,
)
from .instruments import disturbance_report, epr_measurement
from .operators import I2, PAULI, expectation, pauli_dot, tensor
from .relativistic import (
    CausalRelation,
    Measurement,
    MeasurementProgramme,
    SpacetimeEvent,
    _measurement_roots,
    boost_event,
    causal_relation,
    check_consistency,
    influence_cover,
    information_cover,
    lorentz_boost,
)
from .sampling import DEFAULT_SEED, random_density, random_unit_vector, random_unit_vectors
from .spin_povm import (
    MARGIN_TOL,
    PAIR_SHARPNESS_LIMIT,
    CoexistenceError,
    _pair_effects,
    coexistence_margin,
    joint_observable_pair,
    pair_coexistent,
    unsharp_effect,
)

__all__ = ["CheckResult", "run_all", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    tolerance: float
    detail: str
    seconds: float


def _result(name, start, passed, deviation, tolerance, detail) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(passed),
        deviation=float(deviation),
        tolerance=float(tolerance),
        detail=detail,
        seconds=time.perf_counter() - start,
    )


def _squares(vectors: np.ndarray) -> np.ndarray:
    """Squared norms of the rows, each rounded as the dot product ``v @ v`` of that row."""
    return (vectors[..., None, :] @ vectors[..., :, None])[..., 0, 0]


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows, each rounded as ``np.linalg.norm`` of that row."""
    return np.sqrt(_squares(vectors))


# Every SPOT_STRIDE-th point of a batched sample also goes through the
# public API.  The stride is coprime to the coexistence grid's 200 angles,
# so its spot checks visit every angle row rather than a few columns.
SPOT_STRIDE = 97


def check_coexistence_threshold() -> CheckResult:
    """Pair coexistence flips exactly at the margin sign change.

    Boundary: orthogonal axes at sharpness 1/sqrt(2) sit on the margin
    zero within 1e-12 and strictly inside just below it.  Grid: over a
    200 x 200 (sharpness, angle) grid the joint effects have minimum
    eigenvalue >= -1e-10 precisely at the coexistent points.  Every
    ``SPOT_STRIDE``-th point goes through ``pair_coexistent`` and
    ``joint_observable_pair``, which must construct the observable on the
    coexistent side, raise :class:`CoexistenceError` on the other, and
    report the grid's minimum eigenvalue.
    """
    start = time.perf_counter()
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    boundary = abs(coexistence_margin(PAIR_SHARPNESS_LIMIT, x, y))
    below = coexistence_margin(PAIR_SHARPNESS_LIMIT - 1e-6, x, y)

    sharpness = np.repeat(np.linspace(0.0, 1.0, 200), 200)
    angles = np.tile(np.linspace(0.0, np.pi, 200), 200)
    directions = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)
    # Normalized as the public functions normalize the directions they are given.
    axes2 = directions / _norms(directions)[:, None]
    margins = 2.0 - sharpness * (_norms(x + axes2) + _norms(x - axes2))
    coexistent = margins >= -MARGIN_TOL
    min_eigs = np.linalg.eigvalsh(_pair_effects(sharpness, x, axes2)).min(axis=(-2, -1))
    wrong_side = int(np.count_nonzero(coexistent != (min_eigs >= -1e-10)))
    worst_eig = max(0.0, float(-min_eigs[coexistent].min()))

    api_gap = 0.0
    refused = 0
    spots = range(0, sharpness.size, SPOT_STRIDE)
    for i in spots:
        s, direction = float(sharpness[i]), directions[i]
        api_coexistent, api_margin = pair_coexistent(s, x, direction)
        wrong_side += int(api_coexistent != coexistent[i])
        try:
            api_eig = joint_observable_pair(s, x, direction).min_eigenvalue
            wrong_side += int(not coexistent[i])
        except CoexistenceError as exc:
            api_eig = exc.min_eigenvalue
            refused += 1
            wrong_side += int(coexistent[i])
        api_gap = max(api_gap, abs(api_margin - margins[i]), abs(api_eig - min_eigs[i]))

    deviation = max(boundary, worst_eig, api_gap)
    passed = (
        boundary <= 1e-12
        and below > 0.0
        and wrong_side == 0
        and worst_eig <= 1e-10
        and api_gap <= 1e-12
        and 0 < refused < len(spots)
    )
    detail = (
        f"boundary margin {boundary:.3e}, margin below threshold {below:.3e}, "
        f"grid eigenvalue deficit {worst_eig:.3e}, side mismatches {wrong_side} "
        f"over {sharpness.size} grid points ({int(coexistent.sum())} coexistent), "
        f"{len(spots)} spot checks ({refused} refused), API gap {api_gap:.3e}"
    )
    return _result("coexistence-threshold", start, passed, deviation, 1e-10, detail)


def check_chsh_threshold() -> CheckResult:
    """The scanned critical sharpness agrees with 2^(-1/4) on both routes."""
    start = time.perf_counter()
    scan = scan_lambda_threshold(10000)
    target = THRESHOLDS.operator_chsh
    dev_scan = abs(scan.threshold - target)
    dev_routes = abs(scan.singlet_threshold - scan.operator_threshold)
    deviation = max(dev_scan, dev_routes)
    passed = dev_scan <= 2e-4 and dev_routes <= 2e-4
    detail = (
        f"scan threshold {scan.threshold:.6f} vs 2^(-1/4) = {target:.6f}, "
        f"singlet route {scan.singlet_threshold:.6f}, operator route "
        f"{scan.operator_threshold:.6f}"
    )
    return _result("chsh-threshold", start, passed, deviation, 2e-4, detail)


def check_gap_region() -> CheckResult:
    """At sharpness 0.78 orthogonal pairs fail coexistence yet satisfy CHSH."""
    start = time.perf_counter()
    config = orthogonal_configuration(0.78)
    coexistent, margin = pair_coexistent(0.78, config.axis1, config.axis2)
    op = operator_chsh_holds(config)
    op_violation = max(-op.min_eig, op.max_eig - 1.0)
    deviation = max(margin, op_violation, 0.0)
    passed = (not coexistent) and op.holds
    detail = (
        f"coexistence margin {margin:.6f} (negative as required), operator "
        f"violation {op_violation:.3e} (nonpositive as required)"
    )
    return _result("gap-region", start, passed, deviation, 1e-12, detail)


# The magic basis, as columns.  In it every sigma_i (x) sigma_j is real
# symmetric, so an operator sum_ij T_ij sigma_i (x) sigma_j with real T has
# the real matrix sum_ij T_ij R_ij, with R_ij the rows of _MAGIC_PAULI.
_MAGIC = np.array(
    [[1.0, 1.0j, 0.0, 0.0], [0.0, 0.0, 1.0j, 1.0], [0.0, 0.0, 1.0j, -1.0], [1.0, -1.0j, 0.0, 0.0]]
) / np.sqrt(2.0)
_MAGIC_PAULI = np.array([_MAGIC.conj().T @ np.kron(a, b) @ _MAGIC for a in PAULI for b in PAULI])
if np.abs(_MAGIC_PAULI.imag).max() > 1e-15:
    raise ArithmeticError("sigma_i (x) sigma_j is not real in the magic basis")
_MAGIC_PAULI = _MAGIC_PAULI.real.reshape(9, 16)


def _bell_spectra(axes: np.ndarray) -> np.ndarray:
    """Spectra of the sharp Bell combinations for (4, N, 3) axes, ascending.

    a (b + b') + a' (b' - b) is sum_ij T_ij sigma_i (x) sigma_j with
    T = n1 (n3 + n4)^T + n2 (n4 - n3)^T; it is eigensolved as the real
    symmetric matrix it has in the magic basis.
    """
    n1, n2, n3, n4 = axes
    t = n1[:, :, None] * (n3 + n4)[:, None, :] + n2[:, :, None] * (n4 - n3)[:, None, :]
    return np.linalg.eigvalsh((t.reshape(-1, 9) @ _MAGIC_PAULI).reshape(-1, 4, 4))


def check_cirelson(rng) -> CheckResult:
    """The Bell operator norm never exceeds 2*sqrt(2) and attains it.

    Every ``SPOT_STRIDE``-th configuration is also eigensolved as the
    complex ``bell_operator``, whose spectrum must match within 1e-12.
    """
    start = time.perf_counter()
    count = 100_000
    axes = np.stack([random_unit_vectors(rng, count) for _ in range(4)])
    spectra = _bell_spectra(axes)
    norms = np.abs(spectra).max(axis=1)
    cross1 = np.linalg.norm(np.cross(axes[0], axes[1]), axis=1)
    cross2 = np.linalg.norm(np.cross(axes[2], axes[3]), axis=1)
    closed = 2.0 * np.sqrt(1.0 + cross1 * cross2)
    agreement = float(np.max(np.abs(norms - closed)))
    bound = THRESHOLDS.cirelson
    overshoot = max(0.0, float(norms.max()) - bound)

    orthogonal = orthogonal_configuration(1.0)
    attained = np.abs(_bell_spectra(np.stack(orthogonal.axes)[:, None, :])).max()
    attain_dev = abs(attained - bound)

    spots = range(0, count, SPOT_STRIDE)
    operators = [bell_operator(BellConfiguration(1.0, *axes[:, i])) for i in spots]
    spot_gap = float(np.max(np.abs(np.linalg.eigvalsh(np.stack(operators)) - spectra[spots])))

    deviation = max(agreement, overshoot, attain_dev, spot_gap)
    passed = agreement <= 1e-9 and overshoot <= 1e-9 and attain_dev <= 1e-9 and spot_gap <= 1e-12
    detail = (
        f"eigensolver vs closed form {agreement:.3e}, overshoot above 2*sqrt(2) "
        f"{overshoot:.3e}, orthogonal attainment off by {attain_dev:.3e} "
        f"over {count} configurations, {len(spots)} spot checks against "
        f"bell_operator off by {spot_gap:.3e}"
    )
    return _result("cirelson-bound", start, passed, deviation, 1e-9, detail)


def _random_jpd(rng, zero_entries: bool) -> np.ndarray:
    """The (2, 2, 2, 2) values of a random joint distribution."""
    exponent = rng.choice([1.0, 3.0])
    weights = rng.random(16) ** exponent
    if zero_entries:
        # Between 1 and 15 of the 16 joint entries vanish: tables on the
        # faces of the polytope, where the routes' tolerances meet.
        weights[rng.permutation(16)[: rng.integers(1, 16)]] = 0.0
    return (weights / weights.sum()).reshape(2, 2, 2, 2)


def _quantum_parameters(rng, index: int) -> tuple[BellConfiguration, np.ndarray]:
    """Configuration and state of the battery's quantum table ``index``."""
    sharpness = float(rng.random())
    if index % 5 == 0:
        # Deliberately near-optimal configurations so the infeasible side
        # of the equivalence is exercised, not just sampled by luck.
        sharpness = float(1.0 - 0.1 * rng.random())
        angle = float(np.pi / 4 + 0.1 * rng.normal())
        return coplanar_configuration(sharpness, angle), singlet_state()
    config = BellConfiguration(sharpness, *(random_unit_vector(rng) for _ in range(4)))
    return config, random_density(rng, 4)


def _effects(sharpness, axes: np.ndarray) -> np.ndarray:
    """``unsharp_effect`` of each axis at its sharpness, as one batch.

    Axes of shape ``B + (3,)`` are normalized as ``unit_vector`` normalizes
    them; sharpness broadcasts against ``B + (1, 1)``.
    """
    return (I2 + sharpness * pauli_dot(axes / _norms(axes)[..., None])) / 2.0


def _born(states, observables) -> np.ndarray:
    """``operators.expectation`` of each state and observable, over leading axes."""
    return np.trace(np.matmul(states, observables), axis1=-2, axis2=-1).real


# A table row holds the singles in SINGLE_KEYS order, then the pairs in
# PAIR_KEYS order; _COLUMN gives the position of each label.
_COLUMN = {label: n for n, label in enumerate(fine.SINGLE_KEYS + fine.PAIR_KEYS)}


def _tables(rows: np.ndarray) -> list[fine.ProbabilityTable]:
    return [
        fine.ProbabilityTable(
            dict(zip(fine.SINGLE_KEYS, row[:8])), dict(zip(fine.PAIR_KEYS, row[8:]))
        )
        for row in rows.tolist()
    ]


def _row(table: fine.ProbabilityTable) -> list[float]:
    return [table.singles[k] for k in fine.SINGLE_KEYS] + [table.pairs[k] for k in fine.PAIR_KEYS]


def _quantum_tables(configs, states) -> np.ndarray:
    """``fine.table_from_quantum`` of each configuration and state, as rows of one Born-rule batch.

    The effects, Kronecker products, matrix products and traces are those
    of ``table_from_quantum`` applied elementwise over a leading axis, so
    each row equals its table bit for bit.
    """
    sharpness = np.array([config.sharpness for config in configs])[:, None, None, None]
    axes = np.array([config.axes for config in configs])
    # Signed axes in SINGLE_KEYS order.
    effects = _effects(sharpness, np.stack([axes, -axes], axis=2).reshape(-1, 8, 3))
    first, second = effects[:, :4], effects[:, 4:]
    pairs = tensor(first[:, :, None], second[:, None, :]).reshape(-1, 16, 4, 4)
    observables = np.concatenate([tensor(first, I2), tensor(I2, second), pairs], axis=1)
    return _born(np.asarray(states, dtype=complex)[:, None], observables)


def _marginal_rows(values: np.ndarray) -> np.ndarray:
    """``fine.marginals`` of each (2, 2, 2, 2) distribution along the leading axis, as table rows.

    Each marginal is the sum over the other axes that ``marginals`` takes,
    with the leading axis kept, and equals it bit for bit.
    """
    def kept(*observables):
        return values.sum(axis=tuple(a for a in range(1, 5) if a not in observables))

    singles = np.concatenate([kept(a) for a in range(1, 5)], axis=1)
    # Axes (table, i, j, sign of i, sign of j), reordered to PAIR_KEYS order.
    pairs = np.stack([np.stack([kept(i, j) for j in (3, 4)], 1) for i in (1, 2)], 1)
    return np.concatenate([singles, pairs.transpose(0, 1, 3, 2, 4).reshape(-1, 16)], axis=1)


def _signed_sum(rows: np.ndarray, terms) -> np.ndarray:
    """``sum(sign * row[column] for column, sign in terms)`` of each row, added left to right."""
    total = 0.0
    for column, sign in terms:
        total = total + sign * rows[:, column]
    return total


def _labelled(terms) -> list:
    return [(_COLUMN[label], sign) for label, sign in terms]


def _chsh_forms(rows: np.ndarray):
    """``chsh_check`` of each table row, as array arithmetic.

    Returns the pair forms, the single forms, whether every inequality
    holds, and whether the two forms agree as ``chsh_check`` requires
    (where they do not, it raises).
    """
    pair = np.stack([_signed_sum(rows, _labelled(form)) for form in fine.BELL_PAIR_FORMS], axis=1)
    single = np.stack(
        [
            rows[:, _COLUMN[k1]] + rows[:, _COLUMN[k2]] + _signed_sum(rows, _labelled(part))
            for (k1, k2), part in fine.BELL_SINGLE_FORMS
        ],
        axis=1,
    )
    tol = fine.DECISION_TOL
    holds = ((pair >= -tol) & (pair <= 1.0 + tol)).all(axis=1)
    inconsistency = np.max(
        [
            np.abs(rows[:, _COLUMN[a]] + rows[:, _COLUMN[b]] - rows[:, _COLUMN[k]])
            for a, b, k in fine.MARGINAL_RELATIONS
        ],
        axis=0,
    )
    agree = np.abs(pair - single).max(axis=1) <= tol + 4.0 * inconsistency
    return pair, single, holds, agree


# Where each entry of _joint_entries lands in the flattened (2, 2, 2, 2) distribution.
_ENTRY_FLAT = [int(np.ravel_multi_index(index, (2, 2, 2, 2))) for index in fine._ENTRY_INDICES]


def _reconstructions(rows: np.ndarray):
    """``fine.reconstruct_jpd`` of each table row: ``fine._joint_entries`` over a leading axis.

    Returns the margins, the near-boundary flags and the feasibility of
    every row; then, for the feasible rows only, their clipped (2, 2, 2, 2)
    distributions and whether ``reconstruct_jpd`` would raise on them (an
    empty interval, or a distribution ``Jpd4`` refuses).
    """
    column = rows[:, 8:, None]
    # One matrix-vector product per table rounds as ``matrix @ pair_values``
    # does; the BLAS matrix product ``pairs @ matrix.T`` does not.
    products = np.concatenate(
        [np.matmul(matrix, column) for matrix, _, _ in fine._SYSTEMS]
        + [np.matmul(fine._ENTRY_CONSTS, column)],
        axis=1,
    )[..., 0]
    minima = np.minimum.reduceat(products[:, : fine._COMPILED_ROWS], fine._RUN_STARTS, axis=1)
    numerator, denominator = fine._TOL_NUMERATOR, float(fine._TOL_DENOMINATOR)
    margins = minima[:, -1]
    near = np.abs(margins) * denominator <= numerator
    feasible = margins * denominator >= -numerator

    minima = minima[feasible]
    free = np.zeros((len(minima), len(fine._ELIMINATION_ORDER)))
    broken = np.zeros(len(minima), dtype=bool)
    for index, runs in zip(reversed(fine._ELIMINATION_ORDER), reversed(fine._BOUND_RUNS)):
        lower, upper = np.full(len(minima), -np.inf), np.full(len(minima), np.inf)
        for run, below, terms in runs:
            rest = minima[:, run]
            for j, c in terms:
                rest = rest + c * free[:, j]
            # np.where keeps the first of two equal bounds, as Python's max
            # and min do (np.maximum keeps the second), so zeros keep their sign.
            if below:
                lower = np.where(-rest > lower, -rest, lower)
            else:
                upper = np.where(rest < upper, rest, upper)
        broken |= (lower - upper) * denominator > numerator
        free[:, index] = (lower + upper) / 2
    entries = products[feasible, fine._COMPILED_ROWS :]
    jpd = np.zeros((len(minima), 16))
    for n, terms in enumerate(fine._ENTRY_TERMS):
        jpd[:, _ENTRY_FLAT[n]] = entries[:, n] + _signed_sum(free, terms)
    jpd = np.clip(jpd, -fine.RANGE_TOL, None)
    broken |= np.abs(jpd.sum(axis=1) - 1.0) > fine.SUM_TOL
    return margins, near, feasible, jpd.reshape(-1, 2, 2, 2, 2), broken


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def check_fine_equivalence(rng) -> CheckResult:
    """CHSH inequalities, interval reconstruction and the exact oracle agree.

    Half the tables are marginals of random joint distributions, and half
    of those have zero entries; the other half come from quantum states
    under unsharp spin pairs: every fifth of them the singlet near the
    optimal CHSH configuration, the rest random density operators under
    random axes.  The marginals, the quantum tables (one Born-rule
    batch), the CHSH forms and the float reconstruction are array
    arithmetic over all tables; the exact oracle decides every table one
    call at a time, and its integer arithmetic has no batch.  Both
    routes' round trips are one batch of marginals.

    Spot checks compare the batches with the public API bit for bit: every
    tenth quantum table with ``fine.table_from_quantum``; one table in each
    block of ten, at an offset cycling through the block so every kind of
    table is reached, with ``chsh_check``, ``reconstruct_jpd`` and
    ``roundtrip_residual``; and the joint-distribution tables among those
    with ``marginals``.  Any mismatch counts as a disagreement.
    """
    start = time.perf_counter()
    total = 1000
    jpds, parameters = [], []
    zero_count = 0
    for index in range(total):
        if index % 2 == 0:
            zero_entries = index % 4 == 2
            zero_count += zero_entries
            jpds.append(_random_jpd(rng, zero_entries))
        else:
            parameters.append(_quantum_parameters(rng, index))
    configs, states = zip(*parameters)
    quantum_rows = _quantum_tables(configs, states)
    rows = np.empty((total, len(_COLUMN)))
    rows[0::2] = _marginal_rows(np.stack(jpds))
    rows[1::2] = quantum_rows
    tables = _tables(rows)
    for table in tables[1::2]:
        table.validate()

    quantum_spots = range(0, len(parameters), 10)
    disagreements = sum(
        not _same_bits(_row(fine.table_from_quantum(states[i], configs[i])), quantum_rows[i])
        for i in quantum_spots
    )

    pair, single, holds, agree = _chsh_forms(rows)
    margins, near, feasible, jpd, broken = _reconstructions(rows)
    oracles = [fine.feasibility_oracle(table) for table in tables]
    agree &= (holds == feasible) & (feasible == [oracle.feasible for oracle in oracles])
    agree[feasible] &= ~broken
    disagreements += int(np.count_nonzero(~agree))

    # Round trips of both routes on the tables all three call feasible.
    both = agree & feasible
    order = np.cumsum(both) - 1  # a table's position among them
    exact = np.reshape([oracles[i].jpd.values for i in np.flatnonzero(both)], (-1, 2, 2, 2, 2))
    rec_gap, exact_gap = (
        np.abs(_marginal_rows(values) - rows[both]).max(axis=1, initial=0.0)
        for values in (jpd[both[feasible]], exact)
    )
    roundtrip = float(np.concatenate([rec_gap, exact_gap]).max(initial=0.0))

    spots = [10 * k + k % 10 for k in range(total // 10)]
    reconstructed = np.cumsum(feasible) - 1  # a feasible table's row of jpd
    for i in spots:
        table = tables[i]
        check = fine.chsh_check(table)
        rec = fine.reconstruct_jpd(table)
        same = (
            check.all_hold == holds[i]
            and _same_bits(check.pair_form, pair[i])
            and _same_bits(check.single_form, single[i])
            and rec.feasible == feasible[i]
            and _same_bits(rec.margin, margins[i])
            and rec.near_boundary == near[i]
        )
        if same and rec.feasible:
            same = _same_bits(rec.jpd.values, jpd[reconstructed[i]])
        if same and both[i]:
            gaps = [fine.roundtrip_residual(table, result.jpd) for result in (rec, oracles[i])]
            same = _same_bits(gaps, [rec_gap[order[i]], exact_gap[order[i]]])
        if same and i % 2 == 0:
            same = _same_bits(_row(fine.marginals(fine.Jpd4(jpds[i // 2]))), rows[i])
        disagreements += not same
    marginal_spots = sum(i % 2 == 0 for i in spots)

    feasible_count = int(np.count_nonzero(both))
    passed = disagreements == 0 and roundtrip <= 1e-8
    detail = (
        f"{total} tables ({zero_count} with zero entries), {feasible_count} feasible, "
        f"{disagreements} disagreements over the three routes, {len(quantum_spots)} spot "
        f"checks against table_from_quantum and {len(spots)} against chsh_check, "
        f"reconstruct_jpd and roundtrip_residual ({marginal_spots} also against marginals), "
        f"worst marginal round-trip {roundtrip:.3e}"
    )
    return _result("fine-equivalence", start, passed, roundtrip, 1e-8, detail)


def _singlet_probabilities(sharpness: np.ndarray, axes: np.ndarray):
    """``singlet_pair_prob`` and the singlet Born rule, for (N,) sharpness and (N, 2, 3) axes.

    The dot product is a per-entry ``matmul`` and the square a per-entry
    ``float_power``, as in ``spin_povm._pair_effects``, so both equal the
    public routes bit for bit.
    """
    units = axes / _norms(axes)[..., None]
    cosines = (units[:, 0, None, :] @ units[:, 1, :, None])[:, 0, 0]
    closed = 0.25 * (1.0 - np.float_power(sharpness, 2.0) * cosines)
    effects = _effects(sharpness[:, None, None, None], axes)
    return closed, _born(singlet_state(), tensor(effects[:, 0], effects[:, 1]))


def check_singlet_formula(rng) -> CheckResult:
    """Closed-form singlet pair probabilities match the trace formula.

    The draws are made one at a time, then both sides are evaluated for
    all of them as one batch; every tenth draw also goes through
    ``singlet_pair_prob`` and the Born rule on ``unsharp_effect`` and
    ``tensor``, which must match the batch bit for bit.
    """
    start = time.perf_counter()
    state = singlet_state()
    draws = 1000
    sharpness = np.empty(draws)
    axes = np.empty((draws, 2, 3))
    for n in range(draws):
        sharpness[n] = rng.random()
        axes[n] = random_unit_vector(rng), random_unit_vector(rng)
    closed, traced = _singlet_probabilities(sharpness, axes)
    worst = float(np.abs(closed - traced).max())

    spots = range(0, draws, 10)
    mismatches = 0
    for n in spots:
        s, (axis_i, axis_j) = float(sharpness[n]), axes[n]
        api_closed = singlet_pair_prob(s, axis_i, axis_j)
        api_traced = expectation(
            state, tensor(unsharp_effect(axis_i, s), unsharp_effect(axis_j, s))
        )
        mismatches += not _same_bits([api_closed, api_traced], [closed[n], traced[n]])

    f_value = chsh_report(coplanar_configuration(1.0, np.pi / 4)).f
    f_dev = abs(f_value - THRESHOLDS.cirelson)
    eps_dev = abs(THRESHOLDS.unsharpness_chsh - 0.5 * (1.0 - 1.0 / np.sqrt(2.0)))

    deviation = max(worst, f_dev, eps_dev)
    passed = deviation <= 1e-12 and mismatches == 0
    detail = (
        f"pair probability deviation {worst:.3e} over {draws} draws, "
        f"{len(spots)} spot checks against singlet_pair_prob and the Born rule "
        f"({mismatches} mismatches), optimal f off "
        f"2*sqrt(2) by {f_dev:.3e}, critical unsharpness off by {eps_dev:.3e}"
    )
    return _result("singlet-formula", start, passed, deviation, 1e-12, detail)


def _batched_densities(rng, count: int, dim: int) -> np.ndarray:
    g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    rho = g @ np.conj(np.swapaxes(g, 1, 2))
    traces = np.trace(rho, axis1=1, axis2=2).real
    return rho / traces[:, None, None]


def _batched_effects(rng, count: int, dim: int):
    g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    basis, _ = np.linalg.qr(g)
    spectra = rng.random((count, dim))
    return basis, spectra


def check_disturbance(rng) -> CheckResult:
    """Nearly-certain effects disturb states by at most 2(eps + sqrt(eps)).

    Pairs (state, effect) are drawn at random in dimensions 2 and 4 and
    kept when the shortfall eps = 1 - tr[rho E] is below 1/2 (half the
    draws additionally mix the effect toward the identity so small eps is
    well represented).  Checks the trace-norm bound and that the effect's
    probability does not decrease under its own nonselective measurement.
    """
    start = time.perf_counter()
    per_dim = 5000
    bound_excess = 0.0
    monotone_deficit = 0.0
    api_gap = 0.0
    kept_total = 0
    for dim in (2, 4):
        kept = 0
        while kept < per_dim:
            batch = 2 * (per_dim - kept)
            rho = _batched_densities(rng, batch, dim)
            basis, spectra = _batched_effects(rng, batch, dim)
            mix = rng.random(batch)
            mixed = rng.random(batch) < 0.5
            spectra = np.where(
                mixed[:, None], 1.0 - mix[:, None] * (1.0 - spectra), spectra
            )
            effect = np.einsum("nij,nj,nkj->nik", basis, spectra, np.conj(basis))
            prob = np.einsum("nij,nji->n", rho, effect).real
            keep = prob > 0.5
            if not np.any(keep):
                continue
            rho, basis, spectra, prob = rho[keep], basis[keep], spectra[keep], prob[keep]
            rho = rho[: per_dim - kept]
            basis = basis[: per_dim - kept]
            spectra = spectra[: per_dim - kept]
            prob = prob[: per_dim - kept]
            kept += rho.shape[0]

            eps = np.clip(1.0 - prob, 0.0, None)
            root_yes = np.einsum("nij,nj,nkj->nik", basis, np.sqrt(spectra), np.conj(basis))
            root_no = np.einsum(
                "nij,nj,nkj->nik", basis, np.sqrt(1.0 - spectra), np.conj(basis)
            )
            post = root_yes @ rho @ root_yes + root_no @ rho @ root_no
            distance = np.abs(np.linalg.eigvalsh(rho - post)).sum(axis=1)
            bound = 2.0 * (eps + np.sqrt(eps))
            bound_excess = max(bound_excess, float(np.max(distance - bound)))
            effect = np.einsum("nij,nj,nkj->nik", basis, spectra, np.conj(basis))
            prob_after = np.einsum("nij,nji->n", post, effect).real
            monotone_deficit = max(monotone_deficit, float(np.max(prob - prob_after)))

            # Spot-check the public API against the batched arithmetic.
            for i in range(0, rho.shape[0], max(1, rho.shape[0] // 25)):
                report = disturbance_report(rho[i], effect[i])
                api_gap = max(
                    api_gap,
                    abs(report.distance - float(distance[i])),
                    abs(report.bound - float(bound[i])),
                )
                if not report.holds:
                    bound_excess = max(bound_excess, report.distance - report.bound)
        kept_total += kept

    deviation = max(bound_excess, monotone_deficit, api_gap, 0.0)
    passed = bound_excess <= 1e-10 and monotone_deficit <= 1e-12 and api_gap <= 1e-12
    detail = (
        f"{kept_total} accepted pairs, bound excess {bound_excess:.3e}, "
        f"probability monotonicity deficit {monotone_deficit:.3e}, API gap "
        f"{api_gap:.3e}"
    )
    return _result("disturbance-bound", start, passed, deviation, 1e-10, detail)


def check_epr_calculus() -> CheckResult:
    """Steering arithmetic on the singlet matches its closed forms."""
    start = time.perf_counter()
    axes = (
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
    )
    worst = 0.0
    for sharpness in (0.0, 0.5, 0.8, 1.0):
        for axis in axes:
            result = epr_measurement(axis, sharpness)
            expected_prob = 0.5 * (1.0 + sharpness**2)
            for outcome in (1, -1):
                partner = unsharp_effect(-outcome * axis, sharpness)
                component = result.reduced_post_components[outcome]
                worst = max(worst, float(np.max(np.abs(component - 0.5 * partner))))
                conditional = result.reduced_post_conditionals[outcome]
                worst = max(worst, float(np.max(np.abs(conditional - partner))))
                worst = max(worst, abs(result.outcome_prob_after[outcome] - expected_prob))
                worst = max(worst, abs(result.probabilities[outcome] - 0.5))
            mixture_dev = float(
                np.max(np.abs(result.reduced_post_mixture - np.eye(2) / 2.0))
            )
            worst = max(worst, mixture_dev)
    passed = worst <= 1e-12
    detail = (
        f"max deviation {worst:.3e} across sharpness 0, 0.5, 0.8, 1 and three "
        f"axes (components, conditional probability, nonselective reduction)"
    )
    return _result("epr-calculus", start, passed, worst, 1e-12, detail)


def _random_spacelike_events(rng) -> tuple[SpacetimeEvent, SpacetimeEvent]:
    base = rng.normal(size=4)
    while True:
        dt = float(rng.normal())
        dx = rng.normal(size=3)
        norm = float(np.linalg.norm(dx))
        if norm > abs(dt) + 0.1:  # strictly spacelike separation
            break
    first = SpacetimeEvent.from_sequence(base)
    second = SpacetimeEvent(base[0] + dt, base[1] + dx[0], base[2] + dx[1], base[3] + dx[2])
    return first, second


def _random_programme(rng) -> MeasurementProgramme:
    e1, e2 = _random_spacelike_events(rng)
    return MeasurementProgramme(
        initial="singlet",
        sharpness=float(rng.random()),
        measurements=(
            Measurement(e1, random_unit_vector(rng), 1),
            Measurement(e2, random_unit_vector(rng), 2),
        ),
    )


def _sequential_vs_joint(programme: MeasurementProgramme) -> float:
    """Largest gap between ordered applications and the product instrument.

    The roots are the ones charts use; the sandwiches are written out here.
    """
    initial = programme.initial_state
    roots = [_measurement_roots(m, programme.sharpness) for m in programme.measurements]
    worst = 0.0
    for o1, o2 in product((1, -1), repeat=2):
        root1, root2 = roots[0][o1], roots[1][o2]
        seq12 = root2 @ (root1 @ initial @ root1) @ root2
        seq21 = root1 @ (root2 @ initial @ root2) @ root1
        joint_root = root1 @ root2  # commuting embedded roots; the product instrument
        joint = joint_root @ initial @ joint_root
        worst = max(worst, float(np.max(np.abs(seq12 - seq21))))
        worst = max(worst, float(np.max(np.abs(seq12 - joint))))
    return worst


def _partition_violations(rng, events, samples: int) -> int:
    """Sampled points landing outside the enumerated or inside empty regions.

    Every ``SPOT_STRIDE``-th point also goes through ``Cover.flags_at``,
    and flags it disagrees with ``_cover_flags`` on count as a violation.
    """
    coords = np.stack([e.coords for e in events])
    center = coords.mean(axis=0)
    radius = 3.0 * (float(np.max(np.abs(coords - center))) + 1.0)
    points = center + rng.uniform(-radius, radius, size=(samples, 4))
    # Each row of 0/1 flags is counted under the integer it spells in binary.
    bits = 1 << np.arange(len(events))
    violations = 0
    for cover in (influence_cover(events), information_cover(events)):
        flags = _cover_flags(cover, points)
        empty = {int(np.dot(region.flags, bits)): region.empty for region in cover.regions}
        codes, counts = np.unique(flags @ bits, return_counts=True)
        for code, count in zip(codes.tolist(), counts.tolist()):
            if empty.get(code, True):  # outside the enumerated regions, or in an empty one
                violations += count
        for i in range(0, samples, SPOT_STRIDE):
            api_flags = cover.flags_at(SpacetimeEvent.from_sequence(points[i]))
            violations += int(api_flags != tuple(flags[i].tolist()))
    return violations


# _causal_codes numbers the relations in their definition order.
_RELATIONS = tuple(CausalRelation)


def _intervals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared intervals from the rows of a to those of b, rounded as ``interval``."""
    sep = b - a
    return sep[:, 0] * sep[:, 0] - _squares(sep[:, 1:])


def _causal_codes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index into ``_RELATIONS`` of how each row of b lies relative to a's."""
    future = b[:, 0] > a[:, 0]
    s2 = _intervals(a, b)
    return np.select(
        [(a == b).all(axis=1), s2 > 0.0, s2 == 0.0],
        [0, np.where(future, 1, 2), np.where(future, 3, 4)],
        5,
    )


def _cover_flags(cover, points: np.ndarray) -> np.ndarray:
    """``cover.flags_at`` of every row of points, as array arithmetic."""
    # The codes of the closed backward cone that influence flags test (0
    # inside) or of the closed forward cone that information flags test (1).
    codes, inside = ([0, 2, 4], 0) if cover.kind == "influence" else ([0, 1, 3], 1)
    in_cone = [
        np.isin(_causal_codes(np.broadcast_to(e.coords, points.shape), points), codes)
        for e in cover.events
    ]
    return np.where(np.stack(in_cone, axis=1), inside, 1 - inside)


def _boost_mismatches(rng, boosts: int, pairs_per_boost: int) -> tuple[int, int]:
    """Causal classifications changed by a boost, over every boost and pair.

    Pairs are drawn in batches of the number still needed, so the draws
    are those of one pair at a time.  Each batch is boosted and classified
    as arrays; every 25th pair also goes through ``boost_event`` and
    ``causal_relation``, and a classification they disagree on counts as a
    mismatch.  Returns the mismatches and the number of pairs checked.
    """
    mismatches = 0
    checked = 0
    for _ in range(boosts):
        speed = 0.9 * rng.random()
        direction = random_unit_vector(rng)
        boost = lorentz_boost(speed * direction)
        kept = []
        needed = pairs_per_boost
        while needed:
            draws = rng.normal(size=(needed, 8))
            a, b = draws[:, :4], draws[:, 4:]
            # Too close to the light cone for float-stable signs.
            draws = draws[np.abs(_intervals(a, b)) >= 1e-3]
            kept.append(draws)
            needed -= draws.shape[0]
        pairs = np.concatenate(kept)
        a, b = pairs[:, :4], pairs[:, 4:]
        before = _causal_codes(a, b)
        after = _causal_codes(a @ boost.T, b @ boost.T)
        mismatches += int(np.count_nonzero(before != after))
        for i in range(0, pairs.shape[0], 25):
            first = SpacetimeEvent.from_sequence(a[i])
            second = SpacetimeEvent.from_sequence(b[i])
            api_before = causal_relation(first, second)
            api_after = causal_relation(boost_event(boost, first), boost_event(boost, second))
            mismatches += int(api_before is not _RELATIONS[before[i]])
            mismatches += int(api_after is not _RELATIONS[after[i]])
        checked += pairs.shape[0]
    return mismatches, checked


def check_chart_consistency(rng) -> CheckResult:
    """Observer charts are order-independent, local and region-constant."""
    start = time.perf_counter()
    worst = 0.0
    monotone = True
    programmes = 100
    for index in range(programmes):
        programme = _random_programme(rng)
        worst = max(worst, _sequential_vs_joint(programme))
        if index < 10:
            # The full four-check consistency report, including the
            # worldline sweep, on a subsample; the sequential/joint
            # algebra above runs for every programme.
            report = check_consistency(programme, offsets=np.linspace(0.0, 40.0, 11))
            worst = max(
                worst,
                report.order_deviation,
                report.mixture_deviation,
                report.signalling_deviation,
                report.grouping_deviation,
            )
            monotone = monotone and report.flags_monotone

    violations = 0
    e1, e2 = _random_spacelike_events(rng)
    cases = [
        (e1, e2),
        (e1, SpacetimeEvent(e1.t + 3.0, e1.x + 1.0, e1.y, e1.z)),        # timelike
        (e1, SpacetimeEvent(e1.t - 3.0, e1.x, e1.y + 1.0, e1.z)),        # reversed
        (e1, e1),                                                        # coincident
        _random_spacelike_events(rng),
    ]
    samples = 20_000
    for events in cases:
        violations += _partition_violations(rng, events, samples)
    spots = 2 * len(cases) * len(range(0, samples, SPOT_STRIDE))  # both covers of each case

    boosts = 100
    mismatches, boosted_pairs = _boost_mismatches(rng, boosts, pairs_per_boost=100)

    passed = worst <= 1e-12 and monotone and violations == 0 and mismatches == 0
    detail = (
        f"max algebraic deviation {worst:.3e} over {programmes} programmes, cover "
        f"partition violations {violations} on {samples * len(cases)} points "
        f"({spots} spot checks), causal "
        f"classification mismatches {mismatches} under {boosts} boosts x "
        f"{boosted_pairs // boosts} pairs"
    )
    return _result("chart-consistency", start, passed, worst, 1e-12, detail)


CHECK_NAMES = (
    "coexistence-threshold",
    "chsh-threshold",
    "gap-region",
    "cirelson-bound",
    "fine-equivalence",
    "singlet-formula",
    "disturbance-bound",
    "epr-calculus",
    "chart-consistency",
)

_CHECKS = (
    (check_coexistence_threshold, False),
    (check_chsh_threshold, False),
    (check_gap_region, False),
    (check_cirelson, True),
    (check_fine_equivalence, True),
    (check_singlet_formula, True),
    (check_disturbance, True),
    (check_epr_calculus, False),
    (check_chart_consistency, True),
)


@lru_cache(maxsize=None)
def run_all(seed: int = DEFAULT_SEED) -> tuple[CheckResult, ...]:
    """Run every check once for this seed; results are cached."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    results = []
    for index, (func, needs_rng) in enumerate(_CHECKS):
        if needs_rng:
            results.append(func(np.random.default_rng([seed, index])))
        else:
            results.append(func())
    return tuple(results)
