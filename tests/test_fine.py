import itertools
import json
import math
import re
import sys
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from unsharp_bell import fine, fme
from unsharp_bell.bell import BellConfiguration, coplanar_configuration, singlet_state
from unsharp_bell.fine import (
    _ELIMINATION_ORDER,
    _ENTRY_CONSTS,
    _SYSTEMS,
    _exact_rows,
    _generator_pairs,
    _limit_denominator,
    BELL_PAIR_FORMS,
    DECISION_TOL,
    DEPENDENT_OUTCOMES,
    FREE_OUTCOMES,
    PAIR_KEYS,
    RATIONAL_DENOMINATOR,
    SINGLE_KEYS,
    Jpd4,
    ProbabilityTable,
    TableError,
    chsh_check,
    feasibility_oracle,
    find_witness,
    marginals,
    rationalization_error,
    reconstruct_jpd,
    table_from_quantum,
)
from unsharp_bell.sampling import random_density

ROOT2 = np.sqrt(2.0)


def uniform_table():
    return ProbabilityTable(
        singles={k: 0.5 for k in SINGLE_KEYS},
        pairs={k: 0.25 for k in PAIR_KEYS},
    )


def labelled(table) -> tuple[dict, dict]:
    """A table's singles and pairs, by label, as fresh dicts."""
    return dict(zip(SINGLE_KEYS, table.row)), dict(zip(PAIR_KEYS, table.row[8:]))


def random_jpd_table(rng):
    weights = rng.random(16)
    weights /= weights.sum()
    jpd = Jpd4(weights.reshape(2, 2, 2, 2))
    return marginals(jpd), jpd


def table_deviation(a, b):
    ds = max(abs(a.single(k) - b.single(k)) for k in SINGLE_KEYS)
    dp = max(abs(a.pair(i, j) - b.pair(i, j)) for i, j in PAIR_KEYS)
    return max(ds, dp)


def test_marginals_brute_force(rng):
    # against a direct loop over the sixteen outcome tuples
    weights = rng.random(16)
    weights /= weights.sum()
    jpd = Jpd4(weights.reshape(2, 2, 2, 2))
    table = marginals(jpd)
    signs = (1, -1)
    for k in (1, 2, 3, 4):
        want = sum(
            jpd.entry(o)
            for o in itertools.product(signs, repeat=4)
            if o[k - 1] == 1
        )
        np.testing.assert_allclose(table.single(k), want, atol=1e-14)
    for i, j in PAIR_KEYS:
        slot_i, sign_i = abs(i) - 1, 1 if i > 0 else -1
        slot_j, sign_j = abs(j) - 1, 1 if j > 0 else -1
        want = sum(
            jpd.entry(o)
            for o in itertools.product(signs, repeat=4)
            if o[slot_i] == sign_i and o[slot_j] == sign_j
        )
        np.testing.assert_allclose(table.pair(i, j), want, atol=1e-14)


def test_jpd_round_trip(rng):
    # the JSON fine-solve writes keys each entry by its sign quadruple
    table, jpd = random_jpd_table(rng)
    back = json.loads(json.dumps(jpd.to_json_dict()))
    assert len(back) == 16
    for o in itertools.product((1, -1), repeat=4):
        assert back[",".join(map(str, o))] == jpd.entry(o)


def test_table_json_round_trip(rng):
    table, _ = random_jpd_table(rng)
    back = ProbabilityTable.from_json_dict(json.loads(json.dumps(table.to_json_dict())))
    assert table_deviation(table, back) == 0.0


def test_table_csv_round_trip(rng):
    table, _ = random_jpd_table(rng)
    back = ProbabilityTable.from_csv_text(table.to_csv_text())
    assert table_deviation(table, back) == 0.0



def test_table_csv_skips_blank_lines():
    table = uniform_table()
    lines = table.to_csv_text().splitlines()
    lines.insert(5, "")
    back = ProbabilityTable.from_csv_text("\n".join(lines) + "\n")
    assert table_deviation(table, back) == 0.0

def test_table_validation_errors():
    singles, pairs = labelled(uniform_table())
    broken = ProbabilityTable(singles={**singles, 1: 0.7}, pairs=pairs)
    with pytest.raises(TableError):
        broken.validate()
    missing = dict(pairs)
    missing.pop((1, 3))
    with pytest.raises(TableError, match="missing"):
        ProbabilityTable(singles=singles, pairs=missing).validate()


def test_uniform_table_feasible():
    result = reconstruct_jpd(uniform_table())
    assert result.feasible
    assert result.witness is None
    assert table_deviation(marginals(result.jpd), uniform_table()) <= 1e-12


def test_jpd_marginals_always_feasible(rng):
    for _ in range(50):
        table, _ = random_jpd_table(rng)
        result = reconstruct_jpd(table)
        assert result.feasible
        assert table_deviation(marginals(result.jpd), table) <= 1e-8
        oracle = feasibility_oracle(table)
        assert oracle.feasible


def test_quantum_above_threshold_infeasible():
    table = table_from_quantum(singlet_state(), coplanar_configuration(1.0, np.pi / 4))
    check = chsh_check(table)
    assert not check.all_hold
    result = reconstruct_jpd(table)
    assert not result.feasible
    assert result.witness is not None
    oracle = feasibility_oracle(table)
    assert not oracle.feasible


def test_quantum_below_threshold_feasible():
    table = table_from_quantum(singlet_state(), coplanar_configuration(0.8, np.pi / 4))
    assert chsh_check(table).all_hold
    result = reconstruct_jpd(table)
    assert result.feasible
    assert table_deviation(marginals(result.jpd), table) <= 1e-8
    assert feasibility_oracle(table).feasible


def test_threshold_witness_value():
    # at full sharpness the optimal configuration pushes one CHSH form
    # up to (1 + sqrt 2)/2
    table = table_from_quantum(singlet_state(), coplanar_configuration(1.0, np.pi / 4))
    witness = find_witness(table)
    assert witness.side == "upper"
    np.testing.assert_allclose(witness.value, (1 + ROOT2) / 2, atol=1e-12)
    np.testing.assert_allclose(witness.slack, (ROOT2 - 1) / 2, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    power=st.sampled_from([1, 3, 8]),
    scale=st.one_of(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 0.49 * fine.CONSISTENCY_GATE]),
                    st.floats(0.0, 0.49 * fine.CONSISTENCY_GATE)),
)
def test_chsh_check_forms_agree(seed, power, scale):
    # The two forms of an expression differ by two marginal relations, so on
    # any table the gate admits they agree within twice its largest gap, and
    # chsh_check decides it without comparing them.  Noise on the pair entries
    # moves each relation by at most 2 * scale, within the gate.
    rng = np.random.default_rng(seed)
    weights = rng.random(16) ** power
    weights[rng.random(16) < 0.2] = 0.0
    if not weights.any():
        weights[0] = 1.0
    row = list(marginals(Jpd4((weights / weights.sum()).reshape(2, 2, 2, 2))).row)
    row[8:] = [min(1.0, max(0.0, p + rng.uniform(-scale, scale))) for p in row[8:]]
    table = ProbabilityTable(dict(zip(SINGLE_KEYS, row[:8])), dict(zip(PAIR_KEYS, row[8:])))
    table.validate(marginal_tol=fine.CONSISTENCY_GATE)
    check = chsh_check(table)
    bound = 2.0 * table.consistency_deviation() + 1e-15
    for pair, single in zip(check.pair_form, check.single_form):
        assert abs(pair - single) <= bound


def test_chsh_equivalence_on_random_states(rng):
    # feasibility, the inequalities and the exact oracle agree everywhere
    for trial in range(60):
        if trial % 2 == 0:
            table, _ = random_jpd_table(rng)
        else:
            config = coplanar_configuration(rng.uniform(0.6, 1.0), rng.uniform(0, np.pi / 2))
            state = singlet_state() if trial % 4 == 1 else random_density(rng, 4)
            table = table_from_quantum(state, config)
        check = chsh_check(table)
        result = reconstruct_jpd(table)
        oracle = feasibility_oracle(table)
        assert check.all_hold == result.feasible == oracle.feasible


def test_linprog_cross_check(rng):
    # independent LP feasibility on the full sixteen-entry polytope
    from scipy.optimize import linprog

    def lp_feasible(table):
        outcomes = list(itertools.product((1, -1), repeat=4))
        index = {o: n for n, o in enumerate(outcomes)}
        rows, rhs = [], []
        for k, key in enumerate((1, 2, 3, 4)):
            row = np.zeros(16)
            for o in outcomes:
                if o[k] == 1:
                    row[index[o]] = 1.0
            rows.append(row)
            rhs.append(table.single(key))
        for i, j in PAIR_KEYS:
            slot_i, sign_i = abs(i) - 1, 1 if i > 0 else -1
            slot_j, sign_j = abs(j) - 1, 1 if j > 0 else -1
            row = np.zeros(16)
            for o in outcomes:
                if o[slot_i] == sign_i and o[slot_j] == sign_j:
                    row[index[o]] = 1.0
            rows.append(row)
            rhs.append(table.pair(i, j))
        rows.append(np.ones(16))
        rhs.append(1.0)
        res = linprog(
            np.zeros(16),
            A_eq=np.array(rows),
            b_eq=np.array(rhs),
            bounds=[(0, None)] * 16,
            method="highs",
        )
        return res.status == 0

    for trial in range(40):
        if trial % 2 == 0:
            table, _ = random_jpd_table(rng)
        else:
            config = coplanar_configuration(rng.uniform(0.7, 1.0), rng.uniform(0, np.pi / 2))
            table = table_from_quantum(singlet_state(), config)
        assert reconstruct_jpd(table).feasible == lp_feasible(table)


def test_coexistent_quadruple_solves_its_own_table(rng):
    # below the universal limit, the Born probabilities of the quadruple
    # joint observable form a valid jpd reproducing the quantum table
    from unsharp_bell.operators import expectation
    from random_operators import random_unit_vector
    from unsharp_bell.spin_povm import PAIR_SHARPNESS_LIMIT, quadruple_joint

    for _ in range(10):
        s = rng.uniform(0.0, PAIR_SHARPNESS_LIMIT)
        axes = tuple(random_unit_vector(rng) for _ in range(4))
        from unsharp_bell.bell import BellConfiguration

        config = BellConfiguration(s, *axes)
        state = singlet_state() if rng.random() < 0.5 else random_density(rng, 4)
        joint = quadruple_joint(s, *axes)
        entries = np.empty((2, 2, 2, 2))
        index = {1: 0, -1: 1}
        for key, effect in joint.effects.items():
            entries[tuple(index[o] for o in key)] = expectation(state, effect)
        jpd = Jpd4(entries)
        table = table_from_quantum(state, config)
        assert table_deviation(marginals(jpd), table) <= 1e-12
        assert chsh_check(table).all_hold


def test_witness_soundness(rng):
    # every infeasibility witness evaluates outside [0, 1] on the table
    found = 0
    for _ in range(40):
        config = coplanar_configuration(rng.uniform(0.85, 1.0), np.pi / 4)
        table = table_from_quantum(singlet_state(), config)
        result = reconstruct_jpd(table)
        if result.feasible:
            continue
        found += 1
        value = result.witness.value
        assert value < -1e-9 or value > 1.0 + 1e-9
        assert result.witness.slack > 0
    assert found > 0


def test_infeasible_perturbation_detected():
    # push one pair probability past its CHSH budget
    table = table_from_quantum(singlet_state(), coplanar_configuration(0.84, np.pi / 4))
    assert reconstruct_jpd(table).feasible
    singles, bumped_pairs = labelled(table)
    bumped_pairs[(1, -3)] = min(1.0, bumped_pairs[(1, -3)] + 0.08)
    bumped_pairs[(1, 3)] = max(0.0, table.single(1) - bumped_pairs[(1, -3)])
    bumped_pairs[(-1, -3)] = table.single(-3) - bumped_pairs[(1, -3)]
    bumped_pairs[(-1, 3)] = table.single(3) - bumped_pairs[(1, 3)]
    bumped = ProbabilityTable(singles=singles, pairs=bumped_pairs)
    result = reconstruct_jpd(bumped)
    assert not result.feasible
    assert result.witness is not None and result.witness.slack > 0


def test_inconsistent_table_rejected():
    singles, pairs = labelled(uniform_table())
    pairs[(1, 3)] = 0.4  # breaks the marginal identity by 0.15
    with pytest.raises(TableError, match="consistency|marginal"):
        chsh_check(ProbabilityTable(singles=singles, pairs=pairs))


def test_quantum_table_matches_born_rule(rng):
    from unsharp_bell.operators import expectation
    from unsharp_bell.spin_povm import unsharp_effect

    config = coplanar_configuration(0.9, 0.6)
    state = random_density(rng, 4)
    table = table_from_quantum(state, config)
    effect_1 = unsharp_effect(config.axes[0], 0.9)
    effect_3 = unsharp_effect(config.axes[2], 0.9)
    want = expectation(state, np.kron(effect_1, effect_3))
    np.testing.assert_allclose(table.pair(1, 3), want, atol=1e-12)


def roundtrip_deviation(table, result):
    return table_deviation(marginals(result.jpd), table)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    zero_pairs=st.lists(
        st.tuples(st.sampled_from((0, 1)), st.sampled_from((2, 3)),
                  st.sampled_from((0, 1)), st.sampled_from((0, 1))),
        max_size=3,
    ),
    runs=st.one_of(st.none(), st.integers(min_value=8, max_value=64)),
)
def test_routes_agree_on_zero_and_count_tables(seed, zero_pairs, runs):
    # Tables of a joint distribution with zero pair probabilities (all
    # four entries under one sign pair set to zero), optionally as
    # frequencies k/N of N runs: feasible by construction, and every
    # route must say so although float sums leave zeros at about -1e-17.
    rng = np.random.default_rng(seed)
    weights = rng.random((2, 2, 2, 2)) ** 3
    for slot_i, slot_j, sign_i, sign_j in zero_pairs:
        block = [slice(None)] * 4
        block[slot_i], block[slot_j] = sign_i, sign_j
        weights[tuple(block)] = 0.0
    if runs is not None:
        weights = rng.multinomial(runs, (weights / weights.sum()).ravel()).reshape(2, 2, 2, 2)
    table = marginals(Jpd4(weights / weights.sum()))
    assert chsh_check(table).all_hold
    for result in (reconstruct_jpd(table), feasibility_oracle(table)):
        assert result.feasible, result.method
        # The exact route's surrogate moves entries below 1e-9 (denominators
        # up to RATIONAL_DENOMINATOR), so hold both routes to the battery's bound.
        assert roundtrip_deviation(table, result) <= 1e-8


def test_routes_agree_next_to_the_chsh_boundary():
    # At sharpness 2^(-1/4) the optimal singlet table puts a CHSH form at
    # 1; it moves past 1 by about eps at sharpness 2^(-1/4) (1 + eps).
    # Inside DECISION_TOL every route says feasible, beyond it none does.
    threshold = 2 ** -0.25
    for eps in (-1e-7, -2e-9, -5e-10, -1e-10, 0.0, 1e-10, 5e-10, 2e-9, 1e-7):
        config = coplanar_configuration(threshold * (1 + eps), np.pi / 4)
        table = table_from_quantum(singlet_state(), config)
        holds = chsh_check(table).all_hold
        assert holds == (eps < DECISION_TOL)
        for result in (reconstruct_jpd(table), feasibility_oracle(table)):
            assert result.feasible == holds, result.method
            if holds:
                assert roundtrip_deviation(table, result) <= 1e-8


def pair_polytope(with_bell: bool):
    """Consistent pair tables (nonnegative, normalized), optionally within Fine's bounds.

    Returns (A_ub, b_ub, A_eq, b_eq) over the pair values in PAIR_KEYS order.
    """
    column = {key: n for n, key in enumerate(PAIR_KEYS)}

    def row(terms):
        out = np.zeros(len(PAIR_KEYS))
        for key, sign in terms:
            out[column[key]] += sign
        return out

    equalities, totals = [], []
    for i in (1, -1, 2, -2):
        equalities.append(row([((i, 3), 1), ((i, -3), 1), ((i, 4), -1), ((i, -4), -1)]))
        totals.append(0.0)
    for j in (3, -3, 4, -4):
        equalities.append(row([((1, j), 1), ((-1, j), 1), ((2, j), -1), ((-2, j), -1)]))
        totals.append(0.0)
    for i, j in itertools.product((1, 2), (3, 4)):
        equalities.append(row([((i, j), 1), ((i, -j), 1), ((-i, j), 1), ((-i, -j), 1)]))
        totals.append(1.0)
    bounds, limits = [], []
    if with_bell:
        for form in BELL_PAIR_FORMS:
            bounds += [-row(form), row(form)]  # 0 <= S <= 1
            limits += [0.0, 1.0]
    return (np.array(bounds) if bounds else None, limits or None,
            np.array(equalities), totals)


def test_compiled_system_is_fines_theorem():
    # Every final compiled row is implied by the eight CHSH-type bounds
    # plus nonnegativity and consistency (so the compiled system decides
    # exactly Fine's condition), and exactly eight rows need those bounds.
    from scipy.optimize import linprog

    def minima(with_bell):
        a_ub, b_ub, a_eq, b_eq = pair_polytope(with_bell)
        found = []
        for objective in _SYSTEMS[-1][0]:
            res = linprog(objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=[(0, None)] * len(PAIR_KEYS), method="highs")
            assert res.status == 0
            found.append(res.fun)
        return np.array(found)

    systems = fme.project(fine._build_system(), _ELIMINATION_ORDER)
    assert [len(system) for system in systems] == [16, 16, 16, 16, 21, 26, 51, 110]
    assert _SYSTEMS[-1][0].shape == (110, len(PAIR_KEYS))
    assert minima(with_bell=True).min() >= -1e-12
    assert int(np.sum(minima(with_bell=False) < -1e-9)) == 8


# The exact route as it was before it ran in integers: a rational
# surrogate in ``Fraction``s and interval back-substitution over them.
# Kept here, off the package's request path, as the reference.


def rationalized_pair_values(table: ProbabilityTable) -> dict:
    """Exactly consistent rational surrogate of a table's pair values.

    Only the eight generating numbers (four singles, four unbarred
    pairs) are rationalized; every other entry is derived from them, so
    the surrogate satisfies the marginal relations exactly.
    """
    def rat(x: float) -> Fraction:
        return Fraction(x).limit_denominator(RATIONAL_DENOMINATOR)

    ones = {k: rat(table.single(k)) for k in (1, 2, 3, 4)}
    pairs = {}
    for i in (1, 2):
        for j in (3, 4):
            block = rat(table.pair(i, j))
            pairs[(i, j)] = block
            pairs[(i, -j)] = ones[i] - block
            pairs[(-i, j)] = ones[j] - block
            pairs[(-i, -j)] = 1 - ones[i] - ones[j] + block
    return pairs


def variable_interval(rows, index: int, values: dict):
    """Interval allowed for one variable given values for all others.

    Rows whose coefficient on ``index`` vanishes are ignored; ``values``
    must cover every other variable with a nonzero coefficient.
    """
    lower = None
    upper = None
    for const, coeffs in rows:
        c = coeffs[index]
        if c == 0:
            continue
        rest = const
        for j, cj in enumerate(coeffs):
            if j != index and cj != 0:
                rest = rest + cj * values[j]
        bound = -rest / c
        if c > 0:
            if lower is None or bound > lower:
                lower = bound
        else:
            if upper is None or bound < upper:
                upper = bound
    return lower, upper


def back_substitute(systems, order, slack_tol=0):
    """Assign midpoint values for the eliminated variables, in reverse order.

    ``systems`` are the evaluated systems of :func:`project` with the same
    ``order``.  Interval endpoints crossing by more than ``slack_tol``
    raise; smaller inversions (rounding noise at degenerate vertices, or
    violations the caller tolerates) collapse to the crossing point.
    """
    values: dict[int, object] = {}
    for step in range(len(order) - 1, -1, -1):
        index = order[step]
        lower, upper = variable_interval(systems[step], index, values)
        if lower is None and upper is None:
            values[index] = 0
            continue
        if lower is None:
            values[index] = upper
            continue
        if upper is None:
            values[index] = lower
            continue
        if lower > upper:
            if lower - upper > slack_tol:
                raise ArithmeticError(
                    f"empty interval for variable {index}: [{lower}, {upper}]"
                )
        values[index] = (lower + upper) / 2
    return values


def reference_systems(table):
    """Per-table elimination over the table's own rational rows, and its surrogate."""
    pairs = rationalized_pair_values(table)
    scale = lcm(*(value.denominator for value in pairs.values()))
    rows = [((0,), tuple(int(i == k) for i in range(7))) for k in range(7)]
    for terms, coeffs in DEPENDENT_OUTCOMES.values():
        const = sum(sign * pairs[key] for key, sign in terms)
        rows.append(((int(const * scale),), coeffs))
    systems = [
        [(Fraction(const[0], scale), coeffs) for const, coeffs in system]
        for system in fme.project(rows, _ELIMINATION_ORDER)
    ]
    return systems, pairs


def reference_exact_jpd(table):
    """The exact route as per-table elimination over the table's own rational rows."""
    systems, pairs = reference_systems(table)
    if min(const for const, _ in systems[-1]) < -Fraction(DECISION_TOL):
        return None
    free = back_substitute(systems, _ELIMINATION_ORDER, Fraction(DECISION_TOL))
    entries = {outcome: free[k] for k, outcome in enumerate(FREE_OUTCOMES)}
    for outcome, (terms, coeffs) in DEPENDENT_OUTCOMES.items():
        entries[outcome] = sum(sign * pairs[key] for key, sign in terms) + sum(
            c * free[k] for k, c in enumerate(coeffs)
        )
    # Entries below zero become zero, and the first largest entry in
    # free-then-dependent order gives up their mass.
    clipped = {outcome: max(value, 0) for outcome, value in entries.items()}
    clipped[max(clipped, key=clipped.get)] += sum(min(value, 0) for value in entries.values())
    ordered = [clipped[signs] for signs in itertools.product((1, -1), repeat=4)]
    return np.array([float(value) for value in ordered]).reshape(2, 2, 2, 2)


def test_exact_route_matches_per_table_elimination(rng):
    for trial in range(40):
        if trial % 2 == 0:
            table, _ = random_jpd_table(rng)
        else:
            config = coplanar_configuration(rng.uniform(0.8, 1.0), rng.uniform(0, np.pi / 2))
            table = table_from_quantum(singlet_state(), config)
        oracle = feasibility_oracle(table)
        reference = reference_exact_jpd(table)
        assert oracle.feasible == (reference is not None)
        if reference is not None:
            np.testing.assert_array_equal(oracle.jpd.values, reference)


def test_requests_do_not_eliminate(monkeypatch, rng):
    # No elimination and no Fraction arithmetic on a request: the
    # reference back-substitution above is not reachable from the package.
    def refuse(*args, **kwargs):
        raise AssertionError("Fourier-Motzkin elimination or Fraction arithmetic on a request")

    monkeypatch.setattr(fme, "project", refuse)
    monkeypatch.setattr(fme, "eliminate_variable", refuse)
    for name in ("rationalized_pair_values", "variable_interval", "back_substitute"):
        monkeypatch.setattr(sys.modules[__name__], name, refuse)
    monkeypatch.setattr(Fraction, "__new__", refuse)
    feasible, _ = random_jpd_table(rng)
    infeasible = table_from_quantum(singlet_state(), coplanar_configuration(1.0, np.pi / 4))
    for table, want in ((feasible, True), (infeasible, False)):
        assert chsh_check(table).all_hold is want
        assert reconstruct_jpd(table).feasible is want
        assert feasibility_oracle(table).feasible is want


def reference_rationalization_error(table: ProbabilityTable) -> float:
    """The largest |entry - surrogate entry| over the 24 entries, in ``Fraction``s."""
    ones = {k: Fraction(table.single(k)).limit_denominator(RATIONAL_DENOMINATOR)
            for k in (1, 2, 3, 4)}
    singles = {**ones, **{-k: 1 - one for k, one in ones.items()}}
    pairs = rationalized_pair_values(table)
    gaps = [abs(Fraction(table.single(k)) - singles[k]) for k in SINGLE_KEYS]
    gaps += [abs(Fraction(table.pair(i, j)) - pairs[(i, j)]) for i, j in PAIR_KEYS]
    return float(max(gaps))


def test_rationalization_error_is_the_largest_gap_to_the_surrogate(rng):
    # dyadic entries are their own surrogate
    assert rationalization_error(uniform_table()) == 0.0
    counts = rng.multinomial(1024, [1 / 16] * 16).reshape(2, 2, 2, 2)
    assert rationalization_error(marginals(Jpd4(counts / 1024))) == 0.0
    for _ in range(100):
        config = BellConfiguration(float(rng.random()), *rng.normal(size=(4, 3)))
        table = table_from_quantum(random_density(rng, 4), config)
        error = rationalization_error(table)
        # a derived entry sums up to four generators' gaps, each at most 1 / RATIONAL_DENOMINATOR
        assert error == reference_rationalization_error(table)
        assert 0.0 < error <= 4 / RATIONAL_DENOMINATOR


def test_compiled_coefficients_keep_integers_exact():
    # The integer route rests on these: every coefficient is 0 or +-1, and
    # each eliminated variable has a lower and an upper bound to halve.
    for _, _, coeffs in _SYSTEMS:
        assert {c for row in coeffs for c in row} <= {-1, 0, 1}
    for (_, _, coeffs), index in zip(_SYSTEMS, _ELIMINATION_ORDER):
        assert {row[index] for row in coeffs} == {-1, 1}


# The compiled and entry rows' integer matrices, and their stacked rows over
# the generators as one dense integer matrix.
INTEGER_MATRICES = [m for m, _, _ in _SYSTEMS] + [_ENTRY_CONSTS]
DENSE_EXACT_ROWS = np.vstack(INTEGER_MATRICES) @ _generator_pairs()


@settings(max_examples=300, deadline=None)
@given(generators=st.lists(
    st.integers(-(2**310), 2**310) | st.sampled_from([0, 1, -1, 2**300 + 1, -(2**300)]),
    min_size=9, max_size=9,
))
@example(generators=[0] * 9)
@example(generators=[2**300 + k for k in range(9)])
def test_exact_rows_are_the_dense_product(generators):
    rows = _exact_rows(generators)
    dense = DENSE_EXACT_ROWS.astype(object) @ np.array(generators, dtype=object)
    assert rows.tolist() == dense.tolist()
    assert all(type(value) is int for value in rows.tolist())


def captured_rows(monkeypatch, route, tables):
    """The rows each table's ``route`` call hands to ``fine._decision``."""
    seen, decision = [], fine._decision

    def record(rows, *args):
        seen.append(rows)
        return decision(rows, *args)

    monkeypatch.setattr(fine, "_decision", record)
    for table in tables:
        route(table)
    monkeypatch.undo()
    return seen


def test_exact_rows_stay_python_ints(monkeypatch, rng):
    tables = [count_table(rng) for _ in range(20)] + [past_chsh_bound_table(rng) for _ in range(5)]
    for rows in captured_rows(monkeypatch, feasibility_oracle, tables):
        assert len(rows) == len(DENSE_EXACT_ROWS)
        assert all(type(value) is int for value in rows.tolist())


def test_exact_route_beyond_int64_matches_fraction_reference(monkeypatch, rng):
    # Denominators of about 10^9 per generator put the common denominator, and
    # the scaled rows, far past 2**63, where int64 would wrap: the exact route
    # still equals the Fraction reference, on feasible, tolerance-edge and
    # infeasible tables.
    tables = [zero_entry_table(rng) for _ in range(10)] + [past_chsh_bound_table(rng) for _ in range(5)]
    tables.append(table_from_quantum(singlet_state(), coplanar_configuration(1.0, np.pi / 4)))
    beyond = set()  # (feasible, near boundary) of the tables whose rows pass 2**63
    for table, rows in zip(tables, captured_rows(monkeypatch, feasibility_oracle, tables)):
        oracle = feasibility_oracle(table)
        reference = reference_exact_jpd(table)
        assert oracle.feasible == (reference is not None)
        if reference is not None:
            np.testing.assert_array_equal(oracle.jpd.values, reference)
        systems, _ = reference_systems(table)
        assert oracle.margin == float(min(const for const, _ in systems[-1]))
        if max(abs(value) for value in rows.tolist()) > 2**63:
            beyond.add((oracle.feasible, oracle.near_boundary))
    assert beyond == {(True, False), (True, True), (False, False)}


def test_float_route_rows_match_the_integer_matrices(monkeypatch, rng):
    # The float matrices are cast once; numpy casting the int64 ones on
    # every product must give the same bits.
    tables = [random_jpd_table(rng)[0] for _ in range(20)]
    tables += [zero_entry_table(rng) for _ in range(20)] + [past_chsh_bound_table(rng)]
    assert all(m.dtype == np.int64 for m in INTEGER_MATRICES)
    for table, rows in zip(tables, captured_rows(monkeypatch, reconstruct_jpd, tables)):
        pair_values = np.array([table.pair(*key) for key in PAIR_KEYS])
        want = np.concatenate([m @ pair_values for m in INTEGER_MATRICES])
        assert rows.tobytes() == want.tobytes()


# Every entry a valid table admits, [-RANGE_TOL, 1 + RANGE_TOL], with both ends and the
# smallest subnormals of either sign.
@settings(max_examples=500, deadline=None)
@given(x=st.floats(min_value=-fine.RANGE_TOL, max_value=1.0 + fine.RANGE_TOL))
@example(x=0.0)
@example(x=1.0)
@example(x=-fine.RANGE_TOL)
@example(x=1.0 + fine.RANGE_TOL)
@example(x=5e-324)
@example(x=-5e-324)
@example(x=3 / 7)  # k/N
@example(x=17 / 64)
@example(x=29 / 62)
@example(x=2.0 ** -30)  # dyadics, one of them past the denominator bound
@example(x=0.375)
@example(x=1 - 2.0 ** -53)
@example(x=1 / 10**9)  # denominators 10^9 and 10^9 + 1
@example(x=123456789 / 10**9)
@example(x=999999999 / 10**9)
@example(x=1 / (10**9 + 1))
@example(x=500000000 / (10**9 + 1))
def test_limit_denominator_is_fractions(x):
    want = Fraction(x).limit_denominator(RATIONAL_DENOMINATOR)
    assert _limit_denominator(x) == (want.numerator, want.denominator)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=1.0), bound=st.integers(min_value=1, max_value=64))
@example(x=0.25, bound=2)  # 0/1 and 1/2 tie: the convergent 0/1 wins
@example(x=0.5, bound=1)  # 0 and 1 tie: the floor wins
@example(x=0.75, bound=2)
def test_limit_denominator_ties_go_to_the_convergent(x, bound):
    # A float ties only when the candidates' denominators are 1 and a power
    # of two, one of them equal to the bound: never with 10^9, so small bounds.
    want = Fraction(x).limit_denominator(bound)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fine, "RATIONAL_DENOMINATOR", bound)
        assert _limit_denominator(x) == (want.numerator, want.denominator)


def count_table(rng):
    runs = int(rng.integers(2, 200))
    weights = rng.multinomial(runs, rng.dirichlet(np.ones(16)))
    return marginals(Jpd4((weights / runs).reshape(2, 2, 2, 2)))


def zero_entry_table(rng):
    weights = rng.random((2, 2, 2, 2))
    weights.ravel()[rng.choice(16, size=int(rng.integers(1, 12)), replace=False)] = 0.0
    return marginals(Jpd4(weights / weights.sum()))


def past_chsh_bound_table(rng):
    # At sharpness 2^(-1/4) (1 + eps) a CHSH form sits about eps past 1.
    eps = rng.uniform(1e-10, 1e-9)
    config = coplanar_configuration(2 ** -0.25 * (1 + eps), np.pi / 4 + rng.uniform(-1e-12, 1e-12))
    return table_from_quantum(singlet_state(), config)


@pytest.mark.parametrize("make", [count_table, zero_entry_table, past_chsh_bound_table])
def test_exact_route_matches_fraction_reference(make):
    rng = np.random.default_rng(20)
    for _ in range(100):
        table = make(rng)
        oracle = feasibility_oracle(table)
        reference = reference_exact_jpd(table)
        assert oracle.feasible == (reference is not None)
        if reference is not None:
            np.testing.assert_array_equal(oracle.jpd.values, reference)
        systems, _ = reference_systems(table)
        margin = min(const for const, _ in systems[-1])
        assert oracle.margin == float(margin)
        assert oracle.near_boundary == (abs(margin) <= Fraction(DECISION_TOL))


def test_margin_reports_the_decision():
    for sharpness, feasible in ((0.8, True), (1.0, False)):
        table = table_from_quantum(singlet_state(), coplanar_configuration(sharpness, np.pi / 4))
        for result in (reconstruct_jpd(table), feasibility_oracle(table)):
            assert result.feasible is feasible
            assert (result.margin >= -DECISION_TOL) is feasible
            assert not result.near_boundary
    # The optimal singlet table at sharpness 2^(-1/4) puts a CHSH form at 1.
    table = table_from_quantum(singlet_state(), coplanar_configuration(2 ** -0.25, np.pi / 4))
    for result in (reconstruct_jpd(table), feasibility_oracle(table)):
        assert result.feasible and result.near_boundary
        assert abs(result.margin) <= DECISION_TOL


def test_exact_route_at_the_tolerance_edge_returns_a_distribution():
    # A CHSH form about 1e-9 past 1: the surrogate is feasible within
    # DECISION_TOL and leaves an entry near -1e-9.  Zeroing it used to leave
    # a sum of 1.000000001, which Jpd4 refuses; the largest entry now gives
    # up that mass.
    config = coplanar_configuration(2 ** -0.25 * (1 + 1e-9), np.pi / 4)
    table = table_from_quantum(singlet_state(), config)
    assert chsh_check(table).all_hold
    oracle = feasibility_oracle(table)
    assert oracle.feasible and oracle.near_boundary
    assert oracle.jpd.values.min() == 0.0
    assert abs(oracle.jpd.values.sum() - 1.0) <= fine.SUM_TOL
    assert table_deviation(marginals(oracle.jpd), table) <= 1e-8
    np.testing.assert_array_equal(oracle.jpd.values, reference_exact_jpd(table))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_jpd_refuses_non_finite_entries(value):
    # a NaN table passed the range and sum checks, and marginals made a NaN table of it
    values = np.full((2, 2, 2, 2), 1 / 16)
    values[1, 0, 1, 0] = value
    with pytest.raises(ValueError, match=re.escape(f"non-finite entry ({value!r})")):
        Jpd4(values)
    with pytest.raises(ValueError, match="non-finite entry"):
        Jpd4(np.full((2, 2, 2, 2), value))


@pytest.mark.parametrize(
    "data",
    [
        {"singles": 3, "pairs": {}},
        {"singles": {}, "pairs": [1, 2]},
        {"singles": {"1": [0.5]}, "pairs": {}},
        {"singles": {"1": 0.5}, "pairs": {"1": 0.5}},
    ],
)
def test_table_json_structure_errors(data):
    with pytest.raises(TableError):
        ProbabilityTable.from_json_dict(data)


def uniform_json(**singles) -> dict:
    data = uniform_table().to_json_dict()
    data["singles"].update(singles)
    return data


@pytest.mark.parametrize(
    ("value", "message"),
    [("0.5", "table JSON entry '1' must be a number, got '0.5'"),
     (True, "table JSON entry '1' must be a number, got True")],
)
def test_table_json_refuses_text_and_booleans(value, message):
    data = uniform_json(**{"1": value})
    with pytest.raises(TableError, match=re.escape(message)):
        ProbabilityTable.from_json_dict(data)


@pytest.mark.parametrize(
    ("part", "key", "message"),
    [
        # An extra label used to exit with "(missing [])", naming nothing.
        ("pairs", "1,5", "table JSON pairs has an unknown label '1,5'"),
        ("singles", "7", "table JSON singles has an unknown label '7'"),
        ("pairs", "01,3", "table JSON pairs gives label '01,3' twice"),
        (None, "extra", "table JSON has an unknown key 'extra'"),
    ],
)
def test_table_json_refuses_unknown_keys_by_name(part, key, message):
    data = uniform_json()
    (data if part is None else data[part])[key] = 0.0
    with pytest.raises(TableError, match=re.escape(message)):
        ProbabilityTable.from_json_dict(data)


def test_table_validation_names_unexpected_labels():
    singles, pairs = labelled(uniform_table())
    extra = ProbabilityTable({**singles, 7: 0.0}, {**pairs, (1, 5): 0.0})
    with pytest.raises(TableError, match=re.escape("(unexpected single 7, pair (1, 5))")):
        extra.validate()


def test_marginal_inconsistency_names_the_broken_relation():
    singles, pairs = labelled(uniform_table())
    broken = ProbabilityTable(singles, {**pairs, (-2, 4): 0.26})
    # The value chsh_check reads is unchanged: the largest relation gap.
    assert broken.consistency_deviation() == abs(0.26 + 0.25 - 0.5)
    message = "marginal inconsistency 1.000e-02 exceeds 1.0e-09 (pairs (-2, 4) + (-2, -4) vs single -2)"
    with pytest.raises(TableError, match=re.escape(message)):
        broken.validate()


def test_single_sum_error_names_both_singles():
    data = uniform_json(**{"-3": 0.51})
    message = "outcome probabilities of observable 3 sum to 1.01 (single 3 + single -3)"
    with pytest.raises(TableError, match=re.escape(message)):
        ProbabilityTable.from_json_dict(data)


@pytest.mark.parametrize(
    ("row", "shown"),
    [("1", "'1'"), ("x,3,0.25", "'x,3,0.25'"), ("1,3,half", "'1,3,half'")],
)
def test_table_csv_names_the_malformed_row(row, shown):
    lines = uniform_table().to_csv_text().splitlines()
    lines[3] = row
    with pytest.raises(TableError, match=re.escape(f"table CSV row 4 must be i,j,p") + ".*" + re.escape(shown)):
        ProbabilityTable.from_csv_text("\n".join(lines) + "\n")


def test_table_csv_refuses_a_repeated_label():
    # A repeated row used to be read silently, the last one winning.
    lines = uniform_table().to_csv_text().splitlines()
    lines.insert(10, "1,3,0.9")
    with pytest.raises(TableError, match=re.escape("table CSV row 11 repeats pair (1, 3)")):
        ProbabilityTable.from_csv_text("\n".join(lines) + "\n")


def test_table_readers_keep_integral_json_numbers():
    data = uniform_json(**{"1": 1, "-1": 0})
    data["pairs"].update({"1,3": 0.5, "1,-3": 0.5, "1,4": 0.5, "1,-4": 0.5})
    data["pairs"].update({"-1,3": 0, "-1,-3": 0, "-1,4": 0, "-1,-4": 0})
    data["pairs"].update({"2,3": 0, "2,-3": 0.5, "-2,3": 0.5, "-2,-3": 0})
    table = ProbabilityTable.from_json_dict(data)
    assert table.single(1) == 1.0 and type(table.single(1)) is float


# ----------------------------------------------------------------------
# Tables are read-only rows, checked once when they are made.


def label_name(label) -> str:
    return f"single {label}" if isinstance(label, int) else f"pair {label}"


def reference_refusal(singles: dict, pairs: dict, marginal_tol: float):
    """The refusal of the dict-walking validation tables had before they were rows, or None.

    It walks the caller's dicts in their own order, as that validation did
    on every call.
    """
    missing = [k for k in SINGLE_KEYS if k not in singles]
    missing += [k for k in PAIR_KEYS if k not in pairs]
    if missing or len(singles) != 8 or len(pairs) != 16:
        unexpected = [k for k in singles if k not in SINGLE_KEYS]
        unexpected += [k for k in pairs if k not in PAIR_KEYS]
        found = [f"{what} {', '.join(map(label_name, labels))}"
                 for what, labels in (("missing", missing), ("unexpected", unexpected))
                 if labels]
        return f"table must carry 8 singles and 16 pairs ({'; '.join(found)})"
    for label, value in list(singles.items()) + list(pairs.items()):
        if not -fine.RANGE_TOL <= value <= 1.0 + fine.RANGE_TOL:
            return f"entry {label} = {value!r} outside [0, 1]"
    for k in (1, 2, 3, 4):
        s = singles[k] + singles[-k]
        if abs(s - 1.0) > fine.SUM_TOL:
            return f"outcome probabilities of observable {k} sum to {s!r} (single {k} + single {-k})"
    gaps = [abs(pairs[a] + pairs[b] - singles[k]) for a, b, k in fine.MARGINAL_RELATIONS]
    dev = max(gaps)
    if dev > marginal_tol:
        a, b, k = fine.MARGINAL_RELATIONS[gaps.index(dev)]
        return (f"marginal inconsistency {dev:.3e} exceeds {marginal_tol:.1e} "
                f"(pairs {a} + {b} vs single {k})")
    return None


def refusal(table, marginal_tol):
    try:
        table.validate(marginal_tol)
    except TableError as exc:
        return str(exc)
    return None


def row_bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# Values an entry is moved to: near and far off its relations, at and past
# the ends of [0, 1], and NaN.
MOVED_VALUE = st.one_of(
    st.floats(min_value=-0.1, max_value=1.1),
    st.sampled_from([0.0, 1.0, -1e-12, -2e-12, 1.0 + 1e-12, 1.0 + 3e-12, 1.5, -0.5,
                     math.inf, -math.inf, math.nan]),
)


@st.composite
def table_dicts(draw):
    """A table's two dicts, in a drawn key order, from a valid table with drawn changes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["jpd", "count", "quantum"]))
    if kind == "quantum":
        table = table_from_quantum(random_density(rng, 4), coplanar_configuration(
            float(rng.random()), float(rng.uniform(0, np.pi))))
    else:
        table = (count_table if kind == "count" else random_jpd_table)(rng)
        table = table[0] if kind == "jpd" else table
    singles, pairs = labelled(table)
    labels = SINGLE_KEYS + PAIR_KEYS
    for label in draw(st.lists(st.sampled_from(labels), max_size=3)):
        entries = pairs if isinstance(label, tuple) else singles
        change = draw(st.sampled_from(["nudge"] * 3 + ["move"] * 2 + ["drop"]))
        if change == "nudge" and label in entries:
            entries[label] += draw(st.sampled_from([1e-11, -1e-10, 5e-10, 2e-9, -3e-7, 2e-6]))
        elif change == "move":
            entries[label] = draw(MOVED_VALUE)
        else:
            entries.pop(label, None)
    rarely = st.sampled_from([False] * 19 + [True])
    if draw(rarely):
        singles[7] = 0.0
    if draw(rarely):
        pairs[(1, 5)] = 0.0
    singles = dict(draw(st.permutations(list(singles.items()))))
    pairs = dict(draw(st.permutations(list(pairs.items()))))
    return singles, pairs


def complete(singles, pairs) -> bool:
    return set(singles) == set(SINGLE_KEYS) and set(pairs) == set(PAIR_KEYS)


@settings(max_examples=400, deadline=None)
@given(dicts=table_dicts())
def test_table_is_checked_once_as_the_dict_validation_did(dicts):
    singles, pairs = dicts
    made = [ProbabilityTable(singles, pairs)]
    if complete(singles, pairs):
        rows = [singles[k] for k in SINGLE_KEYS] + [pairs[k] for k in PAIR_KEYS]
        # The document readers see the entries in the order the caller wrote them.
        document = {"singles": {str(k): v for k, v in singles.items()},
                    "pairs": {f"{i},{j}": v for (i, j), v in pairs.items()}}
        csv_text = "i,j,p\n" + "".join(f"{k},,{v!r}\n" for k, v in singles.items())
        csv_text += "".join(f"{i},{j},{v!r}\n" for (i, j), v in pairs.items())
        for read in (lambda: ProbabilityTable.from_json_dict(json.loads(json.dumps(document))),
                     lambda: ProbabilityTable.from_csv_text(csv_text)):
            try:
                made.append(read())
            except TableError as exc:  # the readers validate: the same refusal
                assert str(exc) == reference_refusal(singles, pairs, fine.MARGINAL_TOL)
        # A row names the first bad entry in its own order.
        canonical = ({k: singles[k] for k in SINGLE_KEYS}, {k: pairs[k] for k in PAIR_KEYS})
        row_table = fine._tables([rows])[0]
        for tol in (fine.MARGINAL_TOL, fine.CONSISTENCY_GATE):
            assert refusal(row_table, tol) == reference_refusal(*canonical, tol)
        assert row_bits(row_table.row) == row_bits(rows)
        for table in made:
            assert row_bits(table.row) == row_bits(rows)
            assert all(type(value) is float for value in table.row)
            gaps = [abs(pairs[a] + pairs[b] - singles[k]) for a, b, k in fine.MARGINAL_RELATIONS]
            assert row_bits(table.consistency_deviation()) == row_bits(max(gaps))
    for table in made:
        for tol in (fine.MARGINAL_TOL, fine.CONSISTENCY_GATE):
            assert refusal(table, tol) == reference_refusal(singles, pairs, tol)
    event(f"{len(made)} constructions, refusal: "
          f"{(reference_refusal(singles, pairs, fine.MARGINAL_TOL) or 'none').split()[0]}")


def test_table_is_read_only():
    table = uniform_table()
    with pytest.raises(AttributeError):
        table.row = (0.5,) * 24
    # The row and its verdict are all a table holds: no dicts sit beside them.
    assert not hasattr(table, "__dict__")
    assert not any(isinstance(getattr(table, name), dict) for name in table.__slots__)
    assert [table.single(k) for k in SINGLE_KEYS] == [0.5] * 8


# Entries a row cannot hold: each once refused by a bare TypeError or
# ValueError naming no entry.
NOT_NUMBERS = ["0.5", None, [0.5], 1 + 0j, "abc"]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bad=st.lists(
    st.tuples(st.sampled_from(SINGLE_KEYS + PAIR_KEYS), st.sampled_from(NOT_NUMBERS)),
    min_size=1, max_size=3))
def test_an_entry_that_is_not_a_number_is_refused_by_name(seed, bad):
    rng = np.random.default_rng(seed)
    table = random_jpd_table(rng)[0]
    singles = {SINGLE_KEYS[i]: table.row[i] for i in rng.permutation(8)}
    pairs = {PAIR_KEYS[i]: table.row[8 + i] for i in rng.permutation(16)}
    for label, value in bad:
        (pairs if isinstance(label, tuple) else singles)[label] = value
    # the first bad entry in the caller's order: singles as given, then pairs
    label, value = next((k, v) for k, v in [*singles.items(), *pairs.items()]
                        if not isinstance(v, float))
    with pytest.raises(TableError) as refused:
        ProbabilityTable(singles, pairs)
    assert str(refused.value) == f"table entry {label_name(label)} must be a number, got {value!r}"


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["int", "float", "float64", "Fraction"]))
def test_numeric_entries_keep_their_rows(seed, kind):
    # the row is each entry's float, bit for bit, and the verdict is the float table's
    rng = np.random.default_rng(seed)
    if kind == "int":  # a deterministic distribution: every entry is 0 or 1
        weights = np.zeros(16)
        weights[rng.integers(16)] = 1.0
        floats = marginals(Jpd4(weights.reshape(2, 2, 2, 2)))
    else:
        floats = count_table(rng)
    convert = {"int": int, "float": float, "float64": np.float64, "Fraction": Fraction}[kind]
    singles, pairs = ({k: convert(v) for k, v in part.items()} for part in labelled(floats))
    table = ProbabilityTable(singles, pairs)
    assert row_bits(table.row) == row_bits([float(v) for v in [*singles.values(), *pairs.values()]])
    assert row_bits(table.row) == row_bits(floats.row)
    assert all(type(value) is float for value in table.row)
    for tol in (fine.MARGINAL_TOL, fine.CONSISTENCY_GATE):
        assert refusal(table, tol) == refusal(floats, tol)


def route_bits(table) -> list:
    """Every field of the three routes' answers on a table, as exact bits."""
    check = chsh_check(table)
    answers = [(check.all_hold, row_bits(check.pair_form + check.single_form))]
    for result in (reconstruct_jpd(table), feasibility_oracle(table)):
        witness = result.witness
        answers.append((
            result.feasible, result.method, row_bits(result.margin), result.near_boundary,
            None if result.jpd is None else row_bits(result.jpd.values),
            None if witness is None else (witness.inequality, witness.side,
                                          row_bits([witness.value, witness.slack])),
        ))
    return answers


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       make=st.sampled_from([count_table, zero_entry_table, past_chsh_bound_table,
                             lambda rng: random_jpd_table(rng)[0]]))
def test_routes_answer_alike_on_fresh_and_decided_tables(seed, make):
    table = make(np.random.default_rng(seed))
    first = route_bits(table)
    assert route_bits(table) == first  # the same table, decided again
    assert route_bits(fine._tables([table.row])[0]) == first  # a fresh table of its row
    assert route_bits(ProbabilityTable(*labelled(table))) == first
