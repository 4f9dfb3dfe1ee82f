"""The verification battery's batched arithmetic against the public API it stands for."""

import json
import math
import operator
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unsharp_bell import bell, cli, fine, instruments, relativistic, verify
from unsharp_bell.bell import (
    THRESHOLDS,
    BellConfiguration,
    bell_operator,
    coplanar_configuration,
    orthogonal_configuration,
    singlet_pair_prob,
    singlet_state,
)
from unsharp_bell.operators import I2, PAULI, expectation, sqrt_psd, tensor
from unsharp_bell.relativistic import Measurement, SpacetimeEvent
from unsharp_bell.sampling import (
    DEFAULT_SEED,
    draws_in_blocks,
    random_density,
)
from unsharp_bell.spin_povm import _pair_effects, unsharp_effect

from random_operators import random_unit_vector

SPECIAL_SHARPNESS = (0.0, 1.0, 2.0 ** -0.5, 2.0 ** -0.25)
# A CHSH form of the optimal singlet table sits about 1e-9 past 1 here,
# where DECISION_TOL decides (see tests/test_fine.py).
EDGE_SHARPNESS = 2.0 ** -0.25 * (1 + 1e-9)


def bits(table: fine.ProbabilityTable) -> dict:
    """Every entry of a table, keyed as in its JSON, as the exact bits of its float."""
    data = table.to_json_dict()
    return {key: float.hex(value) for part in data.values() for key, value in part.items()}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sharpness=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
)
@example(seed=0, sharpness=list(SPECIAL_SHARPNESS))
@example(seed=1, sharpness=[2.0 ** -0.25 * (1 + 1e-9)])  # just past the CHSH threshold
def test_batched_quantum_tables_equal_table_from_quantum(seed, sharpness):
    # one Born-rule batch returns, bit for bit, the tables built one at a time
    rng = np.random.default_rng(seed)
    configs, states = [], []
    for s in sharpness:
        raw = rng.normal(size=(4, 3))  # unnormalized: BellConfiguration normalizes
        pair = [BellConfiguration(s, *raw), coplanar_configuration(s, rng.uniform(0, np.pi))]
        configs += pair * 2
        states += [singlet_state()] * 2 + [random_density(rng, 4)] * 2
    tables = fine._tables(verify._quantum_tables(configs, states).tolist())
    for config, state, table in zip(configs, states, tables):
        assert bits(table) == bits(fine.table_from_quantum(state, config))


def test_magic_basis_is_unitary():
    magic = verify._MAGIC
    assert np.abs(magic.conj().T @ magic - np.eye(4)).max() <= 1e-15


def test_magic_basis_spectra_equal_bell_operator_spectra(rng):
    # the real magic-basis eigensolve against the complex Bell operator
    axes = rng.normal(size=(4, 200, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    orthogonal = np.stack(orthogonal_configuration(1.0).axes)[:, None, :]
    coplanar = np.stack(coplanar_configuration(1.0, np.pi / 4).axes)[:, None, :]
    axes = np.concatenate([orthogonal, coplanar, axes], axis=1)
    spectra = verify._bell_spectra(axes)
    for i in range(axes.shape[1]):
        want = np.linalg.eigvalsh(bell_operator(BellConfiguration(1.0, *axes[:, i])))
        assert np.abs(spectra[i] - want).max() <= 1e-12
    # both optimal configurations reach 2*sqrt(2)
    assert np.abs(np.abs(spectra[:2]).max(axis=1) - THRESHOLDS.cirelson).max() <= 1e-12


def test_cirelson_check_holds_the_smeared_operator_to_its_closed_form(monkeypatch):
    # the smeared spot checks draw nothing from the check's random stream
    # (test_blocked_draws_leave_the_generator_state_unchanged)
    passed, _, _, detail = verify.check_cirelson(np.random.default_rng(5))
    assert passed and "104 smeared operators" in detail
    assert {0.0, 2.0 ** -0.25, 1.0} <= set(verify._SMEAR_SHARPNESS)
    # an assembled operator 2e-12 off its closed form fails the check
    build = verify.generalized_bell_operator
    monkeypatch.setattr(verify, "generalized_bell_operator",
                        lambda config: build(config) + 2e-12 * np.eye(4))
    passed, deviation, _, _ = verify.check_cirelson(np.random.default_rng(5))
    assert not passed and deviation >= 2e-12


def test_cirelson_check_holds_the_closed_form_verdict_to_the_eigensolved_one(monkeypatch):
    passed, _, _, detail = verify.check_cirelson(np.random.default_rng(5))
    assert passed and "verdicts at 22 sharpnesses" in detail and "(0 disagreeing" in detail
    # a closed-form verdict that misplaces the critical sharpness by 1e-8 fails the check
    def misplaced(config):
        return bell.operator_chsh_closed_form(
            BellConfiguration(config.sharpness * (1 - 1e-8), *config.axes))

    monkeypatch.setattr(verify, "operator_chsh_closed_form", misplaced)
    passed, _, _, detail = verify.check_cirelson(np.random.default_rng(5))
    assert not passed and "(11 disagreeing" in detail


def run_check(name: str):
    """One battery check, uncached, with the random stream ``run_all(DEFAULT_SEED)`` gives it."""
    index = verify.CHECK_NAMES.index(name)
    _, check, needs_rng = verify._CHECKS[index]
    return check(*((np.random.default_rng([DEFAULT_SEED, index]),) if needs_rng else ()))


BLOCKED_CHECKS = (
    "coexistence-threshold", "cirelson-bound", "fine-equivalence", "disturbance-bound"
)


@pytest.mark.parametrize("name", BLOCKED_CHECKS)
def test_blocked_checks_equal_one_batch(monkeypatch, name):
    # a sample drawn and evaluated in blocks gives one batch's verdict, deviation bits and detail
    passed, deviation, _, detail = run_check(name)
    monkeypatch.setattr(verify, "_BLOCK", 100_000)  # each sample in one block
    assert len(verify._blocks(100_000)) == 1
    whole = run_check(name)
    assert (passed, detail) == (whole[0], whole[3]) and same_bits(deviation, whole[1])


@pytest.mark.parametrize(
    "count", [2, 3, verify._BLOCK + 1, 2 * verify._BLOCK + 1, 25 * verify._BLOCK + 1, 40_000, 100_000]
)
def test_blocks_cover_a_sample_without_one_row_blocks(count):
    # a one-row product goes to BLAS gemv, which rounds unlike the batch's gemm
    blocks = verify._blocks(count)
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == count
    assert all(2 <= b.stop - b.start <= verify._BLOCK for b in blocks)


@pytest.mark.parametrize(
    "name, limit_mib", zip(BLOCKED_CHECKS + ("chart-consistency",), (2, 2.5, 2.5, 2.5, 2.5))
)
def test_blocked_checks_hold_a_bounded_working_set(name, limit_mib):
    # numpy reports its buffers to tracemalloc.  Evaluated as one batch, the
    # coexistence grid peaked at 40.9 MiB and the Cirelson check at 31.3 MiB;
    # evaluated in blocks but drawn or built whole, at 7.1 and 16.9 MiB, the
    # Fine check at 9.2 MiB and the disturbance check at 11.9 MiB.  Drawn,
    # built, decided and spot-checked block by block, each block's arrays
    # freed before the next is built, they peak at 1.35, 1.65, 1.53 and
    # 1.66 MiB (1.61, 1.90, 1.81 and 2.01 MiB while a block's arrays stayed
    # bound as the next was built), and the chart check at 2.1 MiB.  The
    # first call in a process also counts one-time allocations (free lists,
    # numpy's lazily built state), up to 0.8 MiB more, and how much of them
    # an earlier test already made depends on the test order; so each check
    # runs once before it is traced, and the peak is the same alone or in
    # the suite.
    assert run_check(name)[0]
    tracemalloc.start()
    try:
        passed = run_check(name)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed and peak <= limit_mib * 2**20


COUNTS = [2, 3, verify._BLOCK + 1, 25 * verify._BLOCK + 1]


@pytest.mark.parametrize("kind", ["normal", "random", "unit"])
@pytest.mark.parametrize("count", COUNTS)
def test_blocks_equal_whole_draws_of_spawned_streams(kind, count):
    # read a block at a time, each draw gives the bits of one whole draw
    # from its own child of rng.spawn
    shapes = [(3,), (4, 4), ()]
    rng = np.random.default_rng(count)
    blocks = verify._blocks(count)
    parts = list(draws_in_blocks(rng, [(kind, shape) for shape in shapes], blocks))
    assert len(parts) == len(blocks)
    children = np.random.default_rng(count).spawn(len(shapes))
    for k, (shape, child) in enumerate(zip(shapes, children)):
        want = getattr(child, "random" if kind == "random" else "normal")(size=(count,) + shape)
        if kind == "unit":  # each row divided by its norm
            norms = np.linalg.norm(want.reshape(count, -1), axis=1)
            want /= norms.reshape((count,) + (1,) * len(shape))
        assert verify._same_bits(np.concatenate([part[k] for part in parts]), want)


DRAWS = [("unit", (3,)), ("normal", (4, 4)), ("random", ())]
LEAVE_STATE = {
    "draws_in_blocks": lambda rng: list(draws_in_blocks(rng, DRAWS, verify._blocks(10_000))),
    "check_cirelson": verify.check_cirelson,
    "check_disturbance": verify.check_disturbance,
}


@pytest.mark.parametrize("name", LEAVE_STATE)
def test_blocked_draws_leave_the_generator_state_unchanged(name):
    # the draws read spawned streams, and nothing else in these checks draws
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    LEAVE_STATE[name](rng)
    assert rng.bit_generator.state == before


class ZeroRow:
    """A generator whose ``spawn`` gives seeded children, the last of which
    zeroes the normal row ``row`` of its draw, so too short to be a direction."""

    def __init__(self, row: int):
        self.row, self.drawn = row, 0

    def spawn(self, n: int):
        *children, self.last = np.random.default_rng(3).spawn(n)
        return children + [self]

    def normal(self, size):
        values = self.last.normal(size=size)
        if 0 <= self.row - self.drawn < len(values):
            values[self.row - self.drawn] = 0.0
        self.drawn += len(values)
        return values


def test_a_short_unit_row_raises_naming_its_draw_and_row():
    count = 2 * verify._BLOCK + 1
    parts = draws_in_blocks(ZeroRow(verify._BLOCK), [("unit", (3,))] * 2, verify._blocks(count))
    first = next(parts)  # rows 0-2730
    assert all(np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-15 for rows in first)
    with pytest.raises(ArithmeticError, match="unit draw 1 has row 4096 shorter than 1e-08"):
        next(parts)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def distributions(rng, count: int) -> np.ndarray:
    """Random joint distributions: plain, with zero entries, and frequencies k/N."""
    values = []
    for n in range(count):
        if n % 3 == 2:
            runs = int(rng.integers(2, 65))
            counts = rng.multinomial(runs, rng.dirichlet(np.ones(16)))
            values.append((counts / runs).reshape(2, 2, 2, 2))
        else:
            values.append(verify._random_jpd(rng, zero_entries=n % 3 == 1))
    return np.stack(values)


def rounded_singlet_rows(rng, count: int) -> np.ndarray:
    """Near-optimal singlet tables with pairs rounded to k/N: mostly infeasible."""
    rows = []
    for _ in range(count):
        runs = int(rng.integers(8, 65))
        config = coplanar_configuration(1.0 - 0.1 * rng.random(), np.pi / 4 + 0.1 * rng.normal())
        table = fine.table_from_quantum(singlet_state(), config)
        pairs = {}
        for i in (1, 2):
            for j in (3, 4):
                block = round(table.pair(i, j) * runs) / runs
                pairs[(i, j)] = pairs[(-i, -j)] = block
                pairs[(i, -j)] = pairs[(-i, j)] = 0.5 - block
        rows.append([0.5] * 8 + [pairs[key] for key in fine.PAIR_KEYS])
    return np.array(rows)


def battery_rows(seed: int, count: int) -> np.ndarray:
    """Table rows of every kind: marginals of distributions, quantum tables as the
    battery draws them, k/N tables and the tolerance-edge singlet table."""
    rng = np.random.default_rng(seed)
    parameters = [verify._quantum_parameters(rng, index) for index in range(1, 2 * count, 2)]
    configs, states = zip(*parameters)
    configs += (coplanar_configuration(EDGE_SHARPNESS, np.pi / 4),)
    states += (singlet_state(),)
    return np.concatenate([
        fine._marginal_entries(distributions(rng, count)),
        verify._quantum_tables(configs, states),
        rounded_singlet_rows(rng, count),
    ])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), count=st.integers(1, 12))
def test_batched_marginals_equal_marginals(seed, count):
    values = distributions(np.random.default_rng(seed), count)
    for jpd, row in zip(values, fine._marginal_entries(values)):
        assert same_bits(fine.marginals(fine.Jpd4(jpd)).row, row)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), count=st.integers(1, 12))
def test_batched_chsh_forms_equal_chsh_check(seed, count):
    # The CHSH body on a batch's columns against chsh_check, which runs it on one table.
    rows = battery_rows(seed, count)
    pair, single, holds = fine._chsh_forms(list(rows.T))
    pair, single = np.stack(pair, axis=1), np.stack(single, axis=1)
    for n, table in enumerate(fine._tables(rows.tolist())):
        check = fine.chsh_check(table)
        bound = fine.DECISION_TOL + 4.0 * table.consistency_deviation()
        assert np.abs(pair[n] - single[n]).max() <= bound
        assert check.all_hold == holds[n]
        assert same_bits(check.pair_form, pair[n]) and same_bits(check.single_form, single[n])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), count=st.integers(1, 12))
@example(seed=101, count=12)
def test_batched_reconstruction_equals_reconstruct_jpd(seed, count):
    # Decision, margin, near-boundary flag, distribution and round trip, bit
    # for bit.  Forming the rows as pairs @ matrix.T instead changes margins.
    rows = battery_rows(seed, count)
    minima, entries = fine._float_minima(rows[:, 8:])
    margins, near, feasible = fine._verdict(minima, 1)
    entries, empty = fine._back_substitution(minima, entries, 1, operator.truediv)
    assert not (feasible & empty).any()
    jpd = np.clip(fine._jpd_values(entries), -fine.RANGE_TOL, None)
    back = fine._marginal_entries(jpd)
    for n, table in enumerate(fine._tables(rows.tolist())):
        result = fine.reconstruct_jpd(table)
        assert (result.feasible, result.near_boundary) == (feasible[n], near[n])
        assert same_bits(result.margin, margins[n])
        if result.feasible:
            assert same_bits(result.jpd.values, jpd[n])
            gap = np.abs(back[n] - rows[n]).max()
            assert same_bits(fine.roundtrip_residual(table, result.jpd), gap)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sharpness=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
)
@example(seed=0, sharpness=list(SPECIAL_SHARPNESS) + [EDGE_SHARPNESS])
def test_batched_singlet_probabilities_equal_public_routes(seed, sharpness):
    rng = np.random.default_rng(seed)
    sharpness = np.array(sharpness)
    axes = rng.normal(size=(len(sharpness), 2, 3))  # unnormalized: both routes normalize
    axes[0, 1] = -axes[0, 0]  # one antiparallel pair
    closed, traced = verify._singlet_probabilities(sharpness, axes)
    state = singlet_state()
    for n, s in enumerate(sharpness.tolist()):
        axis_i, axis_j = axes[n]
        assert same_bits(singlet_pair_prob(s, axis_i, axis_j), closed[n])
        product = tensor(unsharp_effect(axis_i, s), unsharp_effect(axis_j, s))
        assert same_bits(expectation(state, product), traced[n])


def test_chart_check_reports_the_root_gap_within_its_tolerance():
    # The closed-form chart roots against sqrt_psd: the tolerance leaves room
    # for eigh's root at sharpness 1 (about sqrt(eps) = 1.5e-8), and the
    # battery's fixed roots reach that case.
    assert verify.ROOT_TOL == 1e-7 and np.sqrt(np.finfo(float).eps) < verify.ROOT_TOL
    result = {r.name: r for r in verify.run_all(DEFAULT_SEED)}["chart-consistency"]
    gap = float(result.detail.split("closed-form root gap ")[1].split()[0])
    assert result.passed and gap <= verify.ROOT_TOL and 1.0 in verify._ROOT_SHARPNESS
    assert "(tolerance 1e-07)" in result.detail


def reference_sequential_vs_joint(programme) -> float:
    """The chart check's algebra on one programme, with its own loop over outcome pairs."""
    initial = programme.initial_state
    roots = [instruments._measurement_roots(m.axis, programme.sharpness, m.subsystem)
             for m in programme.measurements]
    worst = 0.0
    for o1, o2 in product((1, -1), repeat=2):
        root1, root2 = roots[0][o1], roots[1][o2]
        seq12 = root2 @ (root1 @ initial @ root1) @ root2
        seq21 = root1 @ (root2 @ initial @ root2) @ root1
        joint_root = root1 @ root2
        joint = joint_root @ initial @ joint_root
        worst = max(worst, float(np.max(np.abs(seq12 - seq21))))
        worst = max(worst, float(np.max(np.abs(seq12 - joint))))
    return worst


def reference_root_gap(measurement: Measurement, sharpness: float) -> float:
    """One measurement's chart roots against ``sqrt_psd`` of its effects, one call each."""
    roots = instruments._measurement_roots(measurement.axis, sharpness, measurement.subsystem)
    gaps = []
    for o in (1, -1):
        root = sqrt_psd(unsharp_effect(o * measurement.axis, sharpness))
        embedded = tensor(root, I2) if measurement.subsystem == 1 else tensor(I2, root)
        gaps.append(float(np.max(np.abs(roots[o] - embedded))))
    return max(gaps)


def fixed_measurements():
    return [
        (Measurement(SpacetimeEvent(0.0), axis, subsystem), s)
        for s in verify._ROOT_SHARPNESS for axis in verify._ROOT_AXES for subsystem in (1, 2)
    ]


@pytest.mark.parametrize("seed", [1, 101, 102])
def test_batched_chart_algebra_equals_per_programme_references(seed):
    # the programmes the battery draws at this seed, and its fixed roots
    rng = np.random.default_rng([seed, verify.CHECK_NAMES.index("chart-consistency")])
    programmes = [verify._random_programme(rng) for _ in range(100)]
    fixed = fixed_measurements()
    measurements, sharpness = zip(*fixed, *((m, p.sharpness) for p in programmes
                                           for m in p.measurements))
    roots = verify._chart_roots(measurements, sharpness)
    gaps, differing = verify._root_gaps(measurements, sharpness, roots)
    assert differing == 0
    assert same_bits(gaps, [reference_root_gap(m, s) for m, s in zip(measurements, sharpness)])
    initial = np.stack([p.initial_state for p in programmes])
    worst = verify._sequential_vs_joint(roots[len(fixed):].reshape(-1, 2, 2, 4, 4), initial)
    assert same_bits(worst, [reference_sequential_vs_joint(p) for p in programmes])


def test_boost_batch_codes_equal_per_boost_codes(rng):
    matrices = np.stack([
        relativistic.lorentz_boost(0.9 * rng.random() * random_unit_vector(rng)) for _ in range(40)
    ])
    pairs = rng.normal(size=(40, 60, 8))
    pairs[:, :5, 4:] = pairs[:, :5, :4]  # coincident
    pairs[:, 5:10, 4:] = pairs[:, 5:10, :4] + [1.0, 1.0, 0.0, 0.0]  # lightlike future
    pairs[:, 10:15, 4:] = pairs[:, 10:15, :4] - [2.0, 0.0, 2.0, 0.0]  # lightlike past
    a, b = pairs[..., :4], pairs[..., 4:]
    # _boost_mismatches' batch: each row of pairs boosted by its own matrix
    before = verify._causal_codes(a, b)
    after = verify._causal_codes(*(e @ np.swapaxes(matrices, 1, 2) for e in (a, b)))
    assert set(before.ravel().tolist()) == set(range(len(verify._RELATIONS)))
    for k, boost in enumerate(matrices):
        assert (before[k] == verify._causal_codes(a[k], b[k])).all()
        assert (after[k] == verify._causal_codes(a[k] @ boost.T, b[k] @ boost.T)).all()


def batched_root_gap(measurement: Measurement, sharpness: float) -> float:
    roots = verify._chart_roots([measurement], [sharpness])
    return float(verify._root_gaps([measurement], [sharpness], roots)[0][0])


def test_root_gap_catches_a_wrong_root(monkeypatch):
    # roots off by 1e-6, or no root taken at all, fail the cross-check
    measurement = Measurement(SpacetimeEvent(0.0), np.array([2.0, 1.0, 1.0]), 2)
    assert batched_root_gap(measurement, 0.6) <= 1e-14
    root = instruments.effect_root
    monkeypatch.setattr(instruments, "effect_root", lambda n, s: root(n, s) + 1e-6 * I2)
    assert batched_root_gap(measurement, 0.6) > verify.ROOT_TOL
    monkeypatch.setattr(instruments, "effect_root", unsharp_effect)
    assert batched_root_gap(measurement, 0.6) > verify.ROOT_TOL


def test_chart_check_counts_spot_roots_differing_from_the_batch(monkeypatch):
    # a sqrt_psd root one rounding step off the batch fails the check, and says so
    monkeypatch.setattr(verify, "sqrt_psd", lambda matrix: sqrt_psd(matrix) * (1.0 + 2.0 ** -52))
    passed, deviation, tolerance, detail = run_check("chart-consistency")
    assert not passed and deviation <= tolerance
    assert detail.endswith(", 52 sqrt_psd spot roots differing from the batch")


def test_same_bits_compares_dtype_shape_and_every_byte():
    a = np.array([1.0 + 2.0j, 3.0 - 1.0j])
    assert verify._same_bits(a, a.copy())
    # an imaginary part alone tells them apart
    assert not verify._same_bits(a, a.real + np.array([2.0j, -1.5j]))
    assert not verify._same_bits(a, a.real)  # dtype
    assert not verify._same_bits(a.real, a.real.reshape(2, 1))  # shape
    assert verify._same_bits([0.5, 1.0], np.array([0.5, 1.0]))

def coexistence_grid():
    """The coexistence check's 200 x 200 grid: sharpness and the second axis."""
    sharpness = np.repeat(np.linspace(0.0, 1.0, 200), 200)
    angles = np.tile(np.linspace(0.0, np.pi, 200), 200)
    directions = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)
    return sharpness, directions / verify._norms(directions)[:, None]


def test_real_form_spectra_equal_the_complex_eigensolve():
    sharpness, axes2 = coexistence_grid()
    effects = _pair_effects(sharpness, np.array([1.0, 0.0, 0.0]), axes2)
    real, departure = verify._min_eigenvalues(effects)
    assert departure == 0.0 and real.shape == (40_000,)
    assert np.abs(real - np.linalg.eigvalsh(effects).min(axis=(1, 2))).max() <= 1e-15


@pytest.mark.parametrize("fault", [PAULI[2], np.diag([1.0, 0.0]), 1j * I2])
def test_coexistence_check_refuses_effects_off_the_xy_plane(monkeypatch, fault):
    # an sz part, unequal diagonal entries or a complex diagonal: no real form
    build = verify._pair_effects

    def faulty(*args):
        effects = build(*args)
        effects[7, 2] += 1e-9 * fault
        return effects

    monkeypatch.setattr(verify, "_pair_effects", faulty)
    passed, deviation, _, detail = verify.check_coexistence_threshold()
    assert not passed and deviation >= 1e-9
    assert detail.startswith("grid effects leave the xy-plane")


@pytest.fixture
def uncached_battery():
    """``run_all``'s memo emptied before and after the test, so no patched result outlives it."""
    verify.run_all.cache_clear()
    yield
    verify.run_all.cache_clear()


def test_a_check_that_raises_is_that_checks_failure(uncached_battery, capsys, monkeypatch):
    def raising(error):
        def check(*args):
            raise error(f"{error.__name__} inside the check")
        return check

    checks = list(verify._CHECKS)
    for index, error in ((1, ValueError), (4, TypeError)):
        name, _, needs_rng = checks[index]
        checks[index] = (name, raising(error), needs_rng)
    monkeypatch.setattr(verify, "_CHECKS", tuple(checks))
    failing = {checks[1][0]: "raised ValueError: ValueError inside the check",
               checks[4][0]: "raised TypeError: TypeError inside the check"}

    assert cli.main(["verify-all", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10 and lines[-1] == "7/9 checks passed (seed 1)"
    for line, name in zip(lines, verify.CHECK_NAMES):
        verdict = "FAIL" if name in failing else "PASS"
        assert line.startswith(f"{verdict} {name}: max deviation ")
        if name in failing:
            assert line.endswith(f"): {failing[name]}") and "deviation nan (tolerance nan" in line

    assert cli.main(["verify-all", "--seed", "1", "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert (document["passed"], document["total"]) == (7, 9)
    assert [check["name"] for check in document["checks"]] == list(verify.CHECK_NAMES)
    for check in document["checks"]:
        assert check["passed"] is (check["name"] not in failing)
        if check["name"] in failing:
            assert check["detail"] == failing[check["name"]]
            assert math.isnan(check["deviation"]) and math.isnan(check["tolerance"])
            assert check["headroom"] is None
