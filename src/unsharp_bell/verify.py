"""Self-verification of the package's headline numerical claims.

Each check reproduces one quantitative statement end to end (thresholds,
bounds, equivalences) and returns (passed, deviation, tolerance, detail):
the largest deviation it measured against the tolerance it must meet.
``_CHECKS`` names every check once; ``run_all`` seeds, runs and times each
for a seed and is memoized, so library use plus ``verify-all`` cost one run.
A check that raises is that check's failure, with a NaN deviation and
tolerance and a detail naming the exception; the other checks still run.

The checks follow one rule.  A large sample is evaluated as batched array
arithmetic, never as one public call per point; a strided subset of it
also goes through the public API, whose answers must match the batch.  No
check holds a whole sample: each is drawn or built in ``_blocks`` of at
most ``_BLOCK`` points (or a fixed fraction of it), and each block is
evaluated into running maxima and counts and spot-checked before the next
is drawn, so no spot pass comes after the loop.  A check's large draws are read through ``sampling.draws_in_blocks``, each
whole draw from its own stream spawned from the rng, so every bit is that
of one batch however the draw is split, and the rng's own stream is not
read.  Every closed form keeps one independent numeric
cross-check (an eigensolver against the norm formula, the Born rule
against the singlet formula, three feasibility routes against each other,
``generalized_bell_operator`` against (1/2)I - (s^2/4) B), and each
identity the request paths rely on is checked here, not on every call.
Each ``detail`` names how many points it evaluated, so a faster battery
cannot come from checking less.

Eigensolves run in real forms where one exists: the coexistence grid's
axes lie in the xy-plane, so each effect is conjugated to a real symmetric
matrix (a grid effect off that plane fails the check), and in the magic
basis every ``sigma_i (x) sigma_j`` is real, so each of the Cirelson
check's 100,000 Bell operators is a real combination of nine 4x4 matrices.
The Fine check builds each block's quantum tables as one Born-rule
batch, the steps of ``fine.table_from_quantum`` broadcast over a leading
axis, and runs the block's marginals, CHSH forms, float reconstruction
and round trips through the bodies of ``fine``'s routes (which take one
table's entries or a batch's columns); only the exact oracle, whose
Python-int arithmetic has no batch, runs once per table.

The chart check applies in both orders the measurements that
``relativistic.observer_chart`` applies in one: it takes the charts'
closed-form roots from ``instruments._measurement_roots``, writes the
Lueders sandwiches of 100 programmes out as one stacked product (as
``check_disturbance`` writes out its own, rather than call
``instruments.lueders_update``), and holds the roots within ``ROOT_TOL``
of one batched eigensolve in ``operators.sqrt_psd``'s steps.  Its cover
points are flagged by ``_causal_codes`` under ``relativistic._COVER_KINDS``'
flag rule, and its boosted pairs classified, as batches.  Strided spots go
through ``sqrt_psd``, ``Cover.flags_at``, ``boost_event`` and
``causal_relation``.
"""

from __future__ import annotations

import math
import operator
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
    generalized_bell_operator,
    operator_chsh_closed_form,
    operator_chsh_holds,
    orthogonal_configuration,
    scan_lambda_threshold,
    singlet_pair_prob,
    singlet_state,
)
from .instruments import _measurement_roots, disturbance_report, epr_measurement
from .operators import I2, I4, PAULI, expectation, pauli_dot, sqrt_psd, tensor
from .relativistic import (
    _COVER_KINDS,
    CausalRelation,
    Measurement,
    MeasurementProgramme,
    SpacetimeEvent,
    boost_event,
    causal_relation,
    check_consistency,
    influence_cover,
    information_cover,
    lorentz_boost,
)
from .sampling import DEFAULT_SEED, draws_in_blocks, random_density
from .spin_povm import (
    MARGIN_TOL,
    PAIR_SHARPNESS_LIMIT,
    CoexistenceError,
    _pair_effects,
    coexistence_margin,
    joint_observable_pair,
    pair_coexistent,
    unit_vector,
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
# The Cirelson check's smeared spot checks cycle through these, drawing nothing from the rng.
_SMEAR_SHARPNESS = (0.0, 0.25, 0.5, PAIR_SHARPNESS_LIMIT, THRESHOLDS.operator_chsh, 0.9, 1.0)
_BLOCK = 4096


def _blocks(count: int, size: int | None = None) -> list[slice]:
    """Even consecutive slices of ``range(count)``, at most ``size`` (``_BLOCK``) long and one row
    only if ``count`` is 1: a one-row matrix product goes to BLAS gemv, which rounds unlike gemm."""
    parts = -(-count // (size or _BLOCK))
    return [slice(count * k // parts, count * (k + 1) // parts) for k in range(parts)]


def _min_eigenvalues(effects: np.ndarray) -> tuple[np.ndarray, float]:
    """Smallest eigenvalue of each row of 2x2 effects in the xy-plane, and their departure from it.

    a I + bx sx + by sy has equal real diagonal entries a and E10 = bx + i by;
    exp(-i pi sx/4) takes sy to sz and it to the real [[a + by, bx], [bx, a - by]],
    eigensolved here.  The departure, the largest |E00 - E11| or imaginary diagonal
    part, must be 0; like the complex ``eigvalsh``, the real form reads no other entry.
    """
    a, d, lower = effects[..., 0, 0], effects[..., 1, 1], effects[..., 1, 0]
    departure = float(max(np.abs(a - d).max(), np.abs(a.imag).max(), np.abs(d.imag).max()))
    a = a.real
    real = np.stack([a + lower.imag, lower.real, lower.real, a - lower.imag], axis=-1)
    return np.linalg.eigvalsh(real.reshape(effects.shape)).min(axis=(-2, -1)), departure


def check_coexistence_threshold() -> tuple[bool, float, float, str]:
    """Pair coexistence flips exactly at the margin sign change.

    Boundary: orthogonal axes at sharpness 1/sqrt(2) sit on the margin
    zero within 1e-12 and strictly inside just below it.  Grid: over a
    200 x 200 (sharpness, angle) grid the joint effects have minimum
    eigenvalue >= -1e-10 precisely at the coexistent points; its axes lie in
    the xy-plane, so the effects are eigensolved in their real form.  The
    grid is built and eigensolved a block of points at a time.  Every
    ``SPOT_STRIDE``-th point, checked as its block is formed, goes through
    ``pair_coexistent`` and ``joint_observable_pair``, which must construct
    the observable on the coexistent side, raise :class:`CoexistenceError`
    on the other, and report the grid's minimum eigenvalue.
    """
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    boundary = abs(coexistence_margin(PAIR_SHARPNESS_LIMIT, x, y))
    below = coexistence_margin(PAIR_SHARPNESS_LIMIT - 1e-6, x, y)

    grid_sharpness, angles = np.linspace(0.0, 1.0, 200), np.linspace(0.0, np.pi, 200)
    directions = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)
    # Normalized as the public functions normalize the directions they are given.
    axes2 = directions / _norms(directions)[:, None]
    spread = _norms(x + axes2) + _norms(x - axes2)
    points = grid_sharpness.size * angles.size
    spots = range(0, points, SPOT_STRIDE)
    wrong_side = coexistent_count = refused = 0
    lowest, departure, api_gap = math.inf, 0.0, 0.0
    for b in _blocks(points, _BLOCK // 4):
        # Row-major over the grid: sharpness by row, the second axis's angle by column.
        row, column = np.divmod(np.arange(b.start, b.stop), angles.size)
        sharpness = grid_sharpness[row]
        margins = 2.0 - sharpness * spread[column]
        coexistent = margins >= -MARGIN_TOL
        min_eigs, off_plane = _min_eigenvalues(_pair_effects(sharpness, x, axes2[column]))
        departure = max(departure, off_plane)
        wrong_side += int(np.count_nonzero(coexistent != (min_eigs >= -1e-10)))
        lowest = min(lowest, float(min_eigs[coexistent].min(initial=math.inf)))
        coexistent_count += int(coexistent.sum())
        for i in range(-b.start % SPOT_STRIDE, b.stop - b.start, SPOT_STRIDE):
            s, direction = float(sharpness[i]), directions[column[i]]
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
    if departure:  # an sz part or a complex diagonal: no real form
        return False, departure, 1e-10, f"grid effects leave the xy-plane by {departure:.3e}"
    worst_eig = max(0.0, -lowest)

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
        f"over {points} grid points ({coexistent_count} coexistent), "
        f"{len(spots)} spot checks ({refused} refused), API gap {api_gap:.3e}"
    )
    return passed, deviation, 1e-10, detail


def check_chsh_threshold() -> tuple[bool, float, float, str]:
    """The scanned critical sharpness agrees with 2^(-1/4) on both routes."""
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
    return passed, deviation, 2e-4, detail


def check_gap_region() -> tuple[bool, float, float, str]:
    """At sharpness 0.78 orthogonal pairs fail coexistence yet satisfy CHSH."""
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
    return passed, deviation, 1e-12, detail


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


def check_cirelson(rng) -> tuple[bool, float, float, str]:
    """The Bell operator norm never exceeds 2*sqrt(2) and attains it.

    The four axes of 100,000 configurations are four unit draws, each from
    its own stream spawned from ``rng``, read a block at a time by
    ``draws_in_blocks``; ``rng``'s own stream is not read.  Each block is
    eigensolved, added to the running eigensolver/closed-form agreement and
    largest norm, and spot-checked before the next is drawn.  Every
    ``SPOT_STRIDE``-th configuration is also eigensolved as the complex
    ``bell_operator``, whose spectrum must match within 1e-12.  Every tenth
    spot configuration, at a ``_SMEAR_SHARPNESS`` value, also goes through
    ``generalized_bell_operator``, which must lie within 1e-12 of its closed
    form (1/2)I - (s^2/4) B.  Every tenth of those is also decided just
    below and just above its critical sharpness sqrt(2/|B|) by
    ``operator_chsh_closed_form``, which ``chsh`` prints, and by the
    eigensolving ``operator_chsh_holds``: the verdicts must agree.
    """
    count = 100_000
    spots = range(0, count, SPOT_STRIDE)
    agreement = largest = spot_gap = smear_gap = 0.0
    smeared, verdicts = 0, []
    blocks = _blocks(count)
    for b, drawn in zip(blocks, draws_in_blocks(rng, [("unit", (3,))] * 4, blocks)):
        axes = np.stack(drawn)
        spectra = _bell_spectra(axes)
        cross1, cross2 = (np.linalg.norm(np.cross(*axes[k:k + 2]), axis=1) for k in (0, 2))
        closed, norms = 2.0 * np.sqrt(1.0 + cross1 * cross2), np.abs(spectra).max(axis=1)
        agreement = max(agreement, float(np.max(np.abs(norms - closed))))
        largest = max(largest, float(norms.max()))

        local = range(-b.start % SPOT_STRIDE, b.stop - b.start, SPOT_STRIDE)
        sharp = [bell_operator(BellConfiguration(1.0, *axes[:, i])) for i in local]
        complex_spectra = np.linalg.eigvalsh(np.stack(sharp))
        spot_gap = max(spot_gap, float(np.max(np.abs(complex_spectra - spectra[local]))))
        for i, op in zip(local, sharp):
            k = (b.start + i) // SPOT_STRIDE  # the spot's index over the whole sample
            if k % 10:
                continue
            s = _SMEAR_SHARPNESS[k // 10 % len(_SMEAR_SHARPNESS)]
            smeared += 1
            assembled = generalized_bell_operator(BellConfiguration(s, *axes[:, i]))
            smear_gap = max(smear_gap, float(np.max(np.abs(
                assembled - (0.5 * I4 - (s**2 / 4.0) * op)))))
            if k % 100:
                continue
            critical = math.sqrt(2.0 / float(np.abs(spectra[i]).max()))
            for s in (critical * (1.0 - 1e-9), critical * (1.0 + 1e-9)):
                if s <= 1.0:
                    config = BellConfiguration(s, *axes[:, i])
                    holds, solved = operator_chsh_closed_form(config), operator_chsh_holds(config)
                    verdicts.append(holds == solved.holds)
    bound = THRESHOLDS.cirelson
    overshoot = max(0.0, largest - bound)

    orthogonal = orthogonal_configuration(1.0)
    attained = np.abs(_bell_spectra(np.stack(orthogonal.axes)[:, None, :])).max()
    attain_dev = abs(attained - bound)

    deviation = max(agreement, overshoot, attain_dev, spot_gap, smear_gap)
    passed = (agreement <= 1e-9 and overshoot <= 1e-9 and attain_dev <= 1e-9
              and max(spot_gap, smear_gap) <= 1e-12 and all(verdicts))
    detail = (
        f"eigensolver vs closed form {agreement:.3e}, overshoot above 2*sqrt(2) "
        f"{overshoot:.3e}, orthogonal attainment off by {attain_dev:.3e} "
        f"over {count} configurations, {len(spots)} spot checks against "
        f"bell_operator off by {spot_gap:.3e}, {smeared} smeared operators "
        f"against (1/2)I - (s^2/4)B off by {smear_gap:.3e}, closed-form operator "
        f"verdicts at {len(verdicts)} sharpnesses beside the critical one "
        f"({verdicts.count(False)} disagreeing with the eigensolver)"
    )
    return passed, deviation, 1e-9, detail


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
    config = BellConfiguration(sharpness, *(unit_vector(rng.normal(size=3)) for _ in range(4)))
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


def _same_bits(a, b) -> bool:
    """Whether the two sides, as arrays, agree in dtype, shape and every byte."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# The largest gap allowed between the exact and the float route's margins (check_fine_equivalence).
MARGIN_TOL = 1e-12


def check_fine_equivalence(rng) -> tuple[bool, float, float, str]:
    """CHSH inequalities, interval reconstruction and the exact oracle agree.

    Half the tables are marginals of random joint distributions, and half
    of those have zero entries; the other half come from quantum states
    under unsharp spin pairs: every fifth of them the singlet near the
    optimal CHSH configuration, the rest random density operators under
    random axes.  The tables are made a block at a time, in index order,
    so the rng is read as if they were drawn one by one: the quantum
    tables of a block are one Born-rule batch.  Each block is then decided
    by the CHSH forms, the float reconstruction and both routes' round
    trips over its tables as columns, through the bodies ``fine``'s routes
    run on one table, and by the exact oracle one call per table (its
    integer arithmetic has no batch); its verdicts and gaps go into
    running counts and maxima, and it is spot-checked, before the next
    block is drawn.

    Spot checks compare the batches with the public API bit for bit: every
    tenth quantum table with ``fine.table_from_quantum``; one table in each
    ten, at an offset cycling through the ten so every kind of table is
    reached, with ``chsh_check``, ``reconstruct_jpd`` and
    ``roundtrip_residual``; and the joint-distribution tables among those
    with ``marginals``.  Any mismatch counts as a disagreement.

    Each table's oracle and float margins must agree within ``MARGIN_TOL``,
    and so must their ``near_boundary`` unless ``|margin|`` is within
    ``MARGIN_TOL`` of ``DECISION_TOL``.  The margins are the same final rows
    on the rational surrogate and on the table's floats, so they part by the
    rationalization error and rounding: at most 3.3e-15 in this check over
    seeds 1, 7, 101-110 and the default, and 8.7e-14 (on a random joint
    distribution's table) over 9,000 joint-distribution, count and quantum
    tables.  1e-12 clears both and is a thousandth of ``DECISION_TOL``, so a
    margin fault far inside the decision tolerance fails.
    """
    total = 1000
    disagreements = feasible_count = quantum_spots = spots = marginal_spots = 0
    roundtrip = margin_gap = 0.0
    for b in _blocks(total, _BLOCK // 32):
        index = range(b.start, b.stop)
        drawn = [_quantum_parameters(rng, i) if i % 2 else _random_jpd(rng, i % 4 == 2)
                 for i in index]
        # The block's local positions of even (joint-distribution) and odd (quantum) tables.
        even, odd = slice(b.start % 2, None, 2), slice(1 - b.start % 2, None, 2)
        rows = np.empty((len(index), len(fine.SINGLE_KEYS + fine.PAIR_KEYS)))
        rows[even] = fine._marginal_entries(np.stack(drawn[even]))
        configs, states = zip(*drawn[odd])
        rows[odd] = _quantum_tables(configs, states)

        # The routes' own bodies, given the tables as 24 columns.
        pair, single, holds = fine._chsh_forms(list(rows.T))
        pair, single = np.stack(pair, axis=1), np.stack(single, axis=1)
        tables = [table.validate() for table in fine._tables(rows.tolist())]
        oracles = [fine.feasibility_oracle(table) for table in tables]
        minima, entries = fine._float_minima(rows[:, 8:])  # reconstruct_jpd's body
        margins, near, feasible = fine._verdict(minima, 1)
        entries, broken = fine._back_substitution(minima, entries, 1, operator.truediv)
        jpd = np.clip(fine._jpd_values(entries), -fine.RANGE_TOL, None)
        # Where reconstruct_jpd would raise: an empty interval, or a sum Jpd4 refuses.
        broken |= np.abs(jpd.reshape(-1, 16).sum(axis=1) - 1.0) > fine.SUM_TOL
        inconsistency = np.array([table.consistency_deviation() for table in tables])
        # The forms differ by two marginal relations; this is their one comparison.
        agree = np.abs(pair - single).max(axis=1) <= fine.DECISION_TOL + 4.0 * inconsistency
        agree &= (holds == feasible) & (feasible == [o.feasible for o in oracles])
        agree &= ~(feasible & broken)
        # The routes' margins, and their near_boundary wherever the margin is clear of DECISION_TOL.
        gap = np.abs(np.array([oracle.margin for oracle in oracles]) - margins)
        flipped = np.array([oracle.near_boundary for oracle in oracles]) != near
        settled = np.abs(np.abs(margins) - fine.DECISION_TOL) > MARGIN_TOL
        margin_gap = max(margin_gap, float(gap.max()))
        disagreements += int(np.count_nonzero(~agree | (gap > MARGIN_TOL) | (flipped & settled)))
        # Round trips of both routes on the tables all three call feasible.
        both = np.flatnonzero(agree & feasible)
        feasible_count += both.size
        gaps = np.zeros((len(index), 2))
        exact = np.reshape([oracles[n].jpd.values for n in both], (-1, 2, 2, 2, 2))
        for route, values in enumerate((jpd[both], exact)):
            back = fine._marginal_entries(values)
            gaps[both, route] = np.abs(back - rows[both]).max(axis=1, initial=0.0)
        roundtrip = max(roundtrip, float(gaps.max(initial=0.0)))

        for n, i in enumerate(index):
            if i % 2 and i // 2 % 10 == 0:  # every tenth quantum table
                quantum_spots += 1
                config, state = drawn[n]
                disagreements += not _same_bits(fine.table_from_quantum(state, config).row,
                                                rows[n])
            if i % 10 != i // 10 % 10:  # one table in each ten, at a cycling offset
                continue
            spots += 1
            table, oracle = tables[n], oracles[n]
            check = fine.chsh_check(table)
            rec = fine.reconstruct_jpd(table)
            same = (
                check.all_hold == holds[n]
                and _same_bits(check.pair_form, pair[n])
                and _same_bits(check.single_form, single[n])
                and rec.feasible == feasible[n]
                and _same_bits(rec.margin, margins[n])
                and rec.near_boundary == near[n]
            )
            if same and rec.feasible:
                same = _same_bits(rec.jpd.values, jpd[n])
            if same and n in both:
                same = _same_bits([fine.roundtrip_residual(table, result.jpd)
                                   for result in (rec, oracle)], gaps[n])
            marginal_spots += i % 2 == 0
            if same and i % 2 == 0:
                same = _same_bits(fine.marginals(fine.Jpd4(drawn[n])).row, rows[n])
            disagreements += not same

    passed = disagreements == 0 and roundtrip <= 1e-8
    detail = (
        f"{total} tables ({len(range(2, total, 4))} with zero entries), {feasible_count} "
        f"feasible, {disagreements} disagreements over the three routes, {quantum_spots} spot "
        f"checks against table_from_quantum and {spots} against chsh_check, "
        f"reconstruct_jpd and roundtrip_residual ({marginal_spots} also against marginals), "
        f"worst marginal round-trip {roundtrip:.3e}, largest margin gap {margin_gap:.1e}"
    )
    return passed, roundtrip, 1e-8, detail


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


def check_singlet_formula(rng) -> tuple[bool, float, float, str]:
    """Closed-form singlet pair probabilities match the trace formula.

    The draws are made one at a time, then both sides are evaluated for
    all of them as one batch; every tenth draw also goes through
    ``singlet_pair_prob`` and the Born rule on ``unsharp_effect`` and
    ``tensor``, which must match the batch bit for bit.
    """
    state = singlet_state()
    draws = 1000
    sharpness = np.empty(draws)
    axes = np.empty((draws, 2, 3))
    for n in range(draws):
        sharpness[n] = rng.random()
        axes[n] = unit_vector(rng.normal(size=3)), unit_vector(rng.normal(size=3))
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
    return passed, deviation, 1e-12, detail


def _accepted_pairs(rng, dim: int, quota: int):
    """Rows rho, basis, spectra, effect, prob of the first ``quota`` random pairs (state, effect)
    with probability above 1/2, yielded in slices as each block of draws forms them.  Each attempt
    draws twice as many pairs as are still needed, as seven whole draws from streams spawned from
    ``rng`` and read block by block through ``draws_in_blocks``, and stops reading once the quota
    is met.  Half the effects are mixed toward the identity, so small shortfalls are well
    represented.  No block is held past its slice.
    """
    draws = [("normal", (dim, dim))] * 4 + [("random", (dim,)), ("random", ()), ("random", ())]
    while quota:
        drawn = draws_in_blocks(rng, draws, _blocks(2 * quota, _BLOCK // 8))
        for rho_re, rho_im, basis_re, basis_im, raw, mix, coin in drawn:
            g = rho_re + 1j * rho_im
            rho = g @ np.conj(np.swapaxes(g, 1, 2))
            rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
            basis, _ = np.linalg.qr(basis_re + 1j * basis_im)
            spectra = np.where(coin[:, None] < 0.5, 1.0 - mix[:, None] * (1.0 - raw), raw)
            effect = np.einsum("nij,nj,nkj->nik", basis, spectra, np.conj(basis))
            prob = np.einsum("nij,nji->n", rho, effect).real
            keep = np.flatnonzero(prob > 0.5)[:quota]
            quota -= keep.size
            if keep.size:
                yield [a[keep] for a in (rho, basis, spectra, effect, prob)]
            if not quota:
                break


def check_disturbance(rng) -> tuple[bool, float, float, str]:
    """Nearly-certain effects disturb states by at most 2(eps + sqrt(eps)).

    Pairs (state, effect) are drawn at random in dimensions 2 and 4 and
    kept when the shortfall eps = 1 - tr[rho E] is below 1/2
    (``_accepted_pairs``).  Each accepted slice is evaluated as it is
    formed, into running maxima; every ``per_dim // 25``-th pair also goes
    through ``disturbance_report``.  Checks the trace-norm bound and that
    the effect's probability does not decrease under its own nonselective
    measurement.
    """
    per_dim = 5000
    stride = per_dim // 25
    bound_excess = 0.0
    monotone_deficit = 0.0
    api_gap = 0.0
    for dim in (2, 4):
        done = 0
        for rho, basis, spectra, effect, prob in _accepted_pairs(rng, dim, per_dim):
            eps = np.clip(1.0 - prob, 0.0, None)
            bound = 2.0 * (eps + np.sqrt(eps))
            root_yes, root_no = (
                np.einsum("nij,nj,nkj->nik", basis, np.sqrt(p), np.conj(basis))
                for p in (spectra, 1.0 - spectra)
            )
            post = root_yes @ rho @ root_yes + root_no @ rho @ root_no
            distance = np.abs(np.linalg.eigvalsh(rho - post)).sum(axis=1)
            prob_after = np.einsum("nij,nji->n", post, effect).real
            monotone_deficit = max(monotone_deficit, float(np.max(prob - prob_after)))
            bound_excess = max(bound_excess, float(np.max(distance - bound)))

            # Spot-check the public API against the batched arithmetic.
            for i in range(-done % stride, prob.size, stride):
                report = disturbance_report(rho[i], effect[i])
                api_gap = max(
                    api_gap,
                    abs(report.distance - float(distance[i])),
                    abs(report.bound - float(bound[i])),
                )
                if not report.holds:
                    bound_excess = max(bound_excess, report.distance - report.bound)
            done += prob.size

    deviation = max(bound_excess, monotone_deficit, api_gap, 0.0)
    passed = bound_excess <= 1e-10 and monotone_deficit <= 1e-12 and api_gap <= 1e-12
    detail = (
        f"{2 * per_dim} accepted pairs, bound excess {bound_excess:.3e}, "
        f"probability monotonicity deficit {monotone_deficit:.3e}, API gap "
        f"{api_gap:.3e}"
    )
    return passed, deviation, 1e-10, detail


def check_epr_calculus() -> tuple[bool, float, float, str]:
    """Steering arithmetic on the singlet matches its closed forms."""
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
    return passed, worst, 1e-12, detail


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
            Measurement(e1, unit_vector(rng.normal(size=3)), 1),
            Measurement(e2, unit_vector(rng.normal(size=3)), 2),
        ),
    )


def _chart_roots(measurements, sharpness) -> np.ndarray:
    """The roots charts use, ``_measurement_roots`` at each sharpness, as (M, 2, 4, 4) arrays."""
    roots = (_measurement_roots(m.axis, s, m.subsystem) for m, s in zip(measurements, sharpness))
    return np.array([[r[1], r[-1]] for r in roots])


def _sequential_vs_joint(roots: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """Largest gap, per programme, between ordered applications and the product instrument,
    from (P, 2, 2, 4, 4) roots (two measurements' ``_chart_roots``) and (P, 4, 4) initial states.
    All four outcome pairs' sandwiches of every programme are one stacked product."""
    # Outcome pairs (o1, o2) in product((1, -1), repeat=2) order.
    root1, root2 = roots[:, 0, [0, 0, 1, 1]], roots[:, 1, [0, 1, 0, 1]]
    initial = initial[:, None]
    seq12 = root2 @ (root1 @ initial @ root1) @ root2
    seq21 = root1 @ (root2 @ initial @ root2) @ root1
    joint_root = root1 @ root2  # commuting embedded roots; the product instrument
    joint = joint_root @ initial @ joint_root
    return np.maximum(np.abs(seq12 - seq21), np.abs(seq12 - joint)).max(axis=(1, 2, 3))


# Largest entry gap allowed between the charts' closed-form roots and
# sqrt_psd's.  Up to sharpness 1 - 1e-9 they agree to about 5e-12.  At
# sharpness 1 eigh returns an eigenvalue of rounding size, about
# eps * |E| = 2.2e-16, whose square root, about 1.5e-8, enters the
# eigensolved root; the closed form is the exact projector there.
ROOT_TOL = 1e-7
# The maximally unsharp effect, the pair-coexistence and operator-CHSH
# thresholds and the projector, each rooted along fixed axes; at sharpness
# 1, eigh's root along the last axis is 3.7e-9 off (numpy with OpenBLAS
# 0.3.31 on x86-64).
_ROOT_SHARPNESS = (0.0, PAIR_SHARPNESS_LIMIT, THRESHOLDS.operator_chsh, 1.0)
_ROOT_AXES = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (2.0, 1.0, 1.0))


def _root_gaps(measurements, sharpness, roots: np.ndarray) -> tuple[np.ndarray, int]:
    """Per measurement, the largest entry gap between its ``_chart_roots`` and eigensolved roots,
    and how many spot roots differ from the batch in any bit.  The effects are rooted in
    ``sqrt_psd``'s steps as one batch; every ninth root (both outcomes) is also a spot root
    taken by ``sqrt_psd``.
    """
    axes = np.array([[m.axis, -m.axis] for m in measurements])
    effects = _effects(np.asarray(sharpness, dtype=float)[:, None, None, None], axes)
    vals, vecs = np.linalg.eigh((effects + np.conj(np.swapaxes(effects, -1, -2))) / 2.0)
    solved = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ np.conj(
        np.swapaxes(vecs, -1, -2))
    first = np.array([m.subsystem == 1 for m in measurements])[:, None, None, None]
    embedded = np.where(first, tensor(solved, I2), tensor(I2, solved))
    flat = axes.reshape(-1, 3), np.repeat(sharpness, 2), solved.reshape(-1, 2, 2)
    differing = sum(not _same_bits(sqrt_psd(unsharp_effect(n, s)), root)
                    for n, s, root in zip(*(a[::9] for a in flat)))
    return np.abs(roots - embedded).max(axis=(1, 2, 3)), differing


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
    return sep[..., 0] * sep[..., 0] - _squares(sep[..., 1:])


def _causal_codes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index into ``_RELATIONS`` of how each row of b lies relative to a's."""
    future = b[..., 0] > a[..., 0]
    s2 = _intervals(a, b)
    return np.select(
        [(a == b).all(axis=-1), s2 > 0.0, s2 == 0.0],
        [0, np.where(future, 1, 2), np.where(future, 3, 4)],
        5,
    )


def _cover_flags(cover, points: np.ndarray) -> np.ndarray:
    """``cover.flags_at`` of every row of points, as array arithmetic."""
    inside, cone, _ = _COVER_KINDS[cover.kind]
    codes = [_RELATIONS.index(relation) for relation in cone]
    in_cone = [
        np.isin(_causal_codes(np.broadcast_to(e.coords, points.shape), points), codes)
        for e in cover.events
    ]
    return np.where(np.stack(in_cone, axis=1), inside, 1 - inside)


def _boosted_codes(matrices: np.ndarray, a: np.ndarray, b: np.ndarray):
    """``_causal_codes`` of (B, P, 4) event pairs, before and after each row's (B, 4, 4) boost."""
    return _causal_codes(a, b), _causal_codes(*(e @ np.swapaxes(matrices, 1, 2) for e in (a, b)))


def _boost_mismatches(rng, boosts: int, pairs_per_boost: int) -> tuple[int, int]:
    """Causal classifications changed by a boost, over every boost and pair.

    Each boost's pairs are drawn in batches of the number still needed (the
    draws of one pair at a time), then all are classified as one batch; every
    25th pair of each boost also goes through ``boost_event`` and
    ``causal_relation``, and a classification they disagree on counts as a
    mismatch.  Returns the mismatches and the number of pairs checked.
    """
    matrices = np.empty((boosts, 4, 4))
    pairs = np.empty((boosts, pairs_per_boost, 8))
    for k in range(boosts):
        matrices[k] = lorentz_boost(0.9 * rng.random() * unit_vector(rng.normal(size=3)))
        kept = []
        needed = pairs_per_boost
        while needed:
            draws = rng.normal(size=(needed, 8))
            a, b = draws[:, :4], draws[:, 4:]
            # Too close to the light cone for float-stable signs.
            draws = draws[np.abs(_intervals(a, b)) >= 1e-3]
            kept.append(draws)
            needed -= draws.shape[0]
        pairs[k] = np.concatenate(kept)
    a, b = pairs[..., :4], pairs[..., 4:]
    before, after = _boosted_codes(matrices, a, b)
    mismatches = int(np.count_nonzero(before != after))
    for k, i in product(range(boosts), range(0, pairs_per_boost, 25)):
        first, second = (SpacetimeEvent.from_sequence(e[k, i]) for e in (a, b))
        api_before = causal_relation(first, second)
        api_after = causal_relation(*(boost_event(matrices[k], e) for e in (first, second)))
        mismatches += int(api_before is not _RELATIONS[before[k, i]])
        mismatches += int(api_after is not _RELATIONS[after[k, i]])
    return mismatches, before.size


def _programme_deviations(rng, count: int, fixed) -> tuple[float, float, int, bool]:
    """Over ``count`` random programmes: the largest algebraic deviation, the largest root gap
    (with the ``fixed`` (measurement, sharpness) pairs), the ``sqrt_psd`` spot roots differing
    from the batch, and whether the sampled consistency reports' flags are monotone."""
    programmes = [_random_programme(rng) for _ in range(count)]
    measurements, sharpness = zip(*fixed, *((m, p.sharpness) for p in programmes
                                           for m in p.measurements))
    roots = _chart_roots(measurements, sharpness)
    gaps, differing = _root_gaps(measurements, sharpness, roots)
    initial = np.stack([p.initial_state for p in programmes])
    worst = float(_sequential_vs_joint(roots[len(fixed):].reshape(-1, 2, 2, 4, 4), initial).max())
    monotone = True
    for programme in programmes[:10]:
        # The full four-check consistency report, including the worldline
        # sweep, on a subsample; the sequential/joint algebra above runs
        # for every programme.
        report = check_consistency(programme, offsets=np.linspace(0.0, 40.0, 11))
        worst = max(worst, report.order_deviation, report.mixture_deviation,
                    report.signalling_deviation, report.grouping_deviation)
        monotone = monotone and report.flags_monotone
    return worst, float(gaps.max()), differing, monotone


def check_chart_consistency(rng) -> tuple[bool, float, float, str]:
    """Observer charts are order-independent, local and region-constant."""
    programmes = 100
    # Drawn without the rng, so the random programmes stay those of the seed.
    fixed = [(Measurement(SpacetimeEvent(0.0), axis, subsystem), s)
             for s in _ROOT_SHARPNESS for axis in _ROOT_AXES for subsystem in (1, 2)]
    worst, root_gap, differing, monotone = _programme_deviations(rng, programmes, fixed)

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

    passed = (worst <= 1e-12 and root_gap <= ROOT_TOL and not differing and monotone
              and violations == 0 and mismatches == 0)
    detail = (
        f"max algebraic deviation {worst:.3e} over {programmes} programmes, "
        f"closed-form root gap {root_gap:.3e} to sqrt_psd (tolerance {ROOT_TOL:.0e}) "
        f"over their roots and {len(fixed)} fixed ones, cover partition violations "
        f"{violations} on {samples * len(cases)} points ({spots} spot checks), causal "
        f"classification mismatches {mismatches} under {boosts} boosts x "
        f"{boosted_pairs // boosts} pairs"
    )
    if differing:
        detail += f", {differing} sqrt_psd spot roots differing from the batch"
    return passed, worst, 1e-12, detail


_CHECKS = (  # (name, check, needs_rng)
    ("coexistence-threshold", check_coexistence_threshold, False),
    ("chsh-threshold", check_chsh_threshold, False),
    ("gap-region", check_gap_region, False),
    ("cirelson-bound", check_cirelson, True),
    ("fine-equivalence", check_fine_equivalence, True),
    ("singlet-formula", check_singlet_formula, True),
    ("disturbance-bound", check_disturbance, True),
    ("epr-calculus", check_epr_calculus, False),
    ("chart-consistency", check_chart_consistency, True),
)
CHECK_NAMES = tuple(name for name, _, _ in _CHECKS)


@lru_cache(maxsize=None)
def run_all(seed: int = DEFAULT_SEED) -> tuple[CheckResult, ...]:
    """Run every check once for this seed; results are cached."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    results = []
    for index, (name, check, needs_rng) in enumerate(_CHECKS):
        args = (np.random.default_rng([seed, index]),) if needs_rng else ()
        start = time.perf_counter()
        try:
            passed, deviation, tolerance, detail = check(*args)
        except Exception as exc:  # this check's FAIL, measuring nothing; the rest still run
            passed, deviation, tolerance = False, math.nan, math.nan
            detail = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append(CheckResult(name, bool(passed), float(deviation), float(tolerance),
                                   detail, seconds))
    return tuple(results)
