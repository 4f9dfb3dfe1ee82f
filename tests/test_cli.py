import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from unsharp_bell import bell, cli
from unsharp_bell.fine import PAIR_KEYS, SINGLE_KEYS
from unsharp_bell.operators import matrix_to_pairs
from unsharp_bell.sampling import DEFAULT_SEED
from unsharp_bell.spin_povm import parse_direction, unit_vector

from pinned_outputs import (
    CHART_FIXTURE,
    DIGEST_CORE,
    POINT_QUERY_FIXTURE,
    assert_matches,
    load,
    mismatches,
    openblas_core,
    text_and_floats,
)

SRC = Path(cli.__file__).resolve().parents[1]
COEXIST = ("coexist", "--lambda", "0.5", "--n1", "1,0,0", "--n2", "0,1,0")
PROGRAMME = {
    "initial": "singlet",
    "lambda": 0.8,
    "measurements": [
        {"event": [0.0, 0.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0], "subsystem": 1},
        {"event": [0.0, 5.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0], "subsystem": 2},
    ],
    "outcomes": [1, -1],
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_uniform_table(path):
    data = {
        "singles": {str(k): 0.5 for k in SINGLE_KEYS},
        "pairs": {f"{i},{j}": 0.25 for i, j in PAIR_KEYS},
    }
    path.write_text(json.dumps(data))


def test_coexist_boundary_example(capsys):
    code, out, _ = run_cli(
        capsys, "coexist", "--lambda", "0.7071067811865476", "--n1", "1,0,0", "--n2", "0,1,0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["coexistent"] is True
    assert abs(data["margin"]) <= 1e-12


def test_coexist_refuses_zero_axis(capsys):
    code, _, err = run_cli(capsys, "coexist", "--lambda", "0.5", "--n1", "0,0,0", "--n2", "1,0,0")
    assert code == 1
    assert err.startswith("error:")
    assert "nonzero" in err


def test_tiny_axis_refusal_names_the_bound_and_the_norm(capsys):
    # a nonzero axis whose squares underflow is not called the zero vector
    code, out, err = run_cli(capsys, "epr", "--lambda", "0", "--axis", "1e-320,0,0")
    assert (code, out) == (1, "")
    assert err == "error: direction norm 1.000e-320 is below 1e-12\n"
    code, _, err = run_cli(capsys, "epr", "--lambda", "0", "--axis", "0,-0,0")
    assert code == 1 and err == "error: direction must be a nonzero vector\n"


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["coexist", "--lambda", "0.5", "--n1", "1,0,0"])  # --n2 missing
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2


def test_joint_beyond_threshold_exit_one(capsys):
    code, _, err = run_cli(capsys, "joint", "--lambda", "0.9", "--n1", "1,0,0", "--n2", "0,1,0")
    assert code == 1
    assert "coexistent" in err


def test_scan_csv_header_and_infinity(capsys):
    code, out, _ = run_cli(capsys, "scan", "--grid", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,f,F,max_op_violation,violated"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[2] == "inf"
    assert "." in lines[5]  # decimal point, not comma


def test_scan_json_shape(capsys):
    code, out, _ = run_cli(capsys, "scan", "--grid", "20", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 21
    assert set(data["rows"][0]) == {"lambda", "f", "F", "max_op_violation", "violated"}
    assert data["rows"][0]["F"] == float("inf")


# sha256 over the exit code and stdout of ``scan`` in JSON and CSV at these
# grids, taken while the scan still built one row object per grid point.
SCAN_GRIDS = (10, 11, 20, 97, 1000, 10000, 99999)
SCAN_DIGEST = "c28c5a4340b68a6dc19b7ef63b87a97d63ca969256ee44b0dcebbda4ab821d0a"


def test_scan_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for grid in SCAN_GRIDS:
        for fmt in ("json", "csv"):
            code, out, err = run_cli(capsys, "scan", "--grid", str(grid), "--format", fmt)
            assert err == ""
            digest.update(f"{code}\n{len(out)}\n{out}".encode())
    assert digest.hexdigest() == SCAN_DIGEST


def test_byte_identical_repeats(capsys):
    argv = ("chsh", "--lambda", "0.95", "--angle", "0.7853981633974483")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_fine_solve_uniform_roundtrip(tmp_path, capsys):
    table = tmp_path / "uniform.json"
    write_uniform_table(table)
    code, out, _ = run_cli(capsys, "fine-solve", "--table", str(table))
    assert code == 0
    data = json.loads(out)
    assert data["feasible"] is True
    assert data["roundtrip_residual"] <= 1e-8
    assert data["rationalization_error"] is None  # the interval route has no surrogate
    code, out, _ = run_cli(capsys, "fine-solve", "--table", str(table), "--method", "exact")
    data = json.loads(out)
    assert data["feasible"] is True and data["method"] == "exact-elimination"
    assert data["rationalization_error"] == 0.0  # dyadic entries are their own surrogate


def test_fine_solve_exact_at_the_tolerance_edge(tmp_path, capsys):
    # A CHSH form about 1e-9 past 1, feasible within the decision tolerance:
    # the exact route returns a distribution instead of exiting 1.
    from unsharp_bell.bell import coplanar_configuration, singlet_state
    from unsharp_bell.fine import table_from_quantum

    config = coplanar_configuration(2 ** -0.25 * (1 + 1e-9), np.pi / 4)
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(table_from_quantum(singlet_state(), config).to_json_dict()))
    code, out, err = run_cli(capsys, "fine-solve", "--table", str(path), "--method", "exact")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["feasible"] is True and data["near_boundary"] is True
    assert data["roundtrip_residual"] <= 1e-8


SIGN_QUADRUPLES = list(itertools.product((1, -1), repeat=4))


def count_table_json(weights) -> dict:
    """The table of a joint distribution given as integer weights, each entry one int / int."""
    total = sum(weights)

    def share(*labels):
        return sum(
            w for w, signs in zip(weights, SIGN_QUADRUPLES)
            if all(signs[abs(k) - 1] == (1 if k > 0 else -1) for k in labels)
        ) / total

    return {"singles": {str(k): share(k) for k in SINGLE_KEYS},
            "pairs": {f"{i},{j}": share(i, j) for i, j in PAIR_KEYS}}


def correlation_table_json(e: int, n: int) -> dict:
    """Unbiased singles and correlation e/n on three pairs, -e/n on (2, 3): infeasible past e/n = 1/2."""
    pairs = {}
    for i, j in PAIR_KEYS:
        sign = (1 if i > 0 else -1) * (1 if j > 0 else -1) * (-1 if (abs(i), abs(j)) == (2, 3) else 1)
        pairs[f"{i},{j}"] = (n + sign * e) / (4 * n)
    return {"singles": {str(k): 0.5 for k in SINGLE_KEYS}, "pairs": pairs}


def pinned_tables() -> list[dict]:
    """Count tables (some with zero entries, some with denominators past 10^9) and
    correlation tables on both sides of the CHSH bound and of its tolerance."""
    tables, state = [], 12345

    def draw():
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return state

    for n in range(12):
        weights = [(draw() >> 33) % (7 + 50 * n) for _ in range(16)]
        if n % 3 == 0:
            weights[n] = weights[15 - n] = 0
        tables.append(count_table_json(weights))
    for _ in range(4):
        tables.append(count_table_json([draw() % (2**61 - 1) for _ in range(16)]))
    for e, n in ((400, 1000), (500, 1000), (501, 1000), (600, 1000), (1000, 1000),
                 (1_500_000_001, 3_000_000_007), (1_499_999_999, 3_000_000_007),
                 (1_500_000_006, 3_000_000_007), (1_500_000_010, 3_000_000_007)):
        tables.append(correlation_table_json(e, n))
    return tables


# sha256 of the concatenated ``fine-solve --method exact`` output over
# ``pinned_tables()``.  The tables are int / int quotients and the exact route
# decides in integers, so the digest depends on no math library or BLAS.
EXACT_SOLVE_DIGEST = "c497c4aefc404e37e3c0ee45f89eadb8c8c4f63e7682c43bf819160c315edb3b"


def test_exact_fine_solve_output_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    outcomes = set()
    for n, data in enumerate(pinned_tables()):
        path = tmp_path / f"table-{n}.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "fine-solve", "--table", str(path), "--method", "exact")
        assert (code, err) == (0, "")
        document = json.loads(out)
        outcomes.add((document["feasible"], document["near_boundary"]))
        digest.update(out.encode())
    # both decisions, and feasible tables on and off the tolerance edge
    assert outcomes == {(True, False), (True, True), (False, False)}
    assert digest.hexdigest() == EXACT_SOLVE_DIGEST


POINT_KINDS = ("coexist", "joint-pair", "joint-quad", "chsh", "bell-op", "lueders", "epr")


def pinned_point_queries() -> list[list[str]]:
    """350 seeded argvs, 50 per point-query kind, a third each with sharpness
    uniform on [0, 1) or within 2e-3 of 1/sqrt(2) or of 2^(-1/4)."""
    rng = np.random.default_rng(20_171)
    centres = (None, 1.0 / np.sqrt(2.0), 2.0 ** -0.25)

    def unit():
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    def flag(name, v):  # the = form lets a leading minus sign through argparse
        return f"--{name}=" + ",".join(repr(float(c)) for c in v)

    argvs = []
    for n in range(350):
        kind, centre = POINT_KINDS[n % 7], centres[(n // 7) % 3]
        s = float(rng.random()) if centre is None else float(centre + rng.uniform(-2e-3, 2e-3))
        argv = ["joint" if kind.startswith("joint") else kind, "--lambda", repr(s)]
        if kind in ("coexist", "joint-pair"):
            argv += [flag("n1", unit()), flag("n2", unit())]
        elif kind == "joint-quad":
            argv += [flag(f"n{i}", unit()) for i in range(1, 5)]
        elif kind in ("chsh", "bell-op"):
            shape = (n // 21) % 4  # random axes, any angle, near pi/4, the orthogonal default
            if shape == 0:
                argv += [flag(f"n{i}", unit()) for i in range(1, 5)]
            elif shape == 1:
                argv += ["--angle", repr(float(rng.uniform(0.0, np.pi)))]
            elif shape == 2:
                argv += ["--angle", repr(float(np.pi / 4 + rng.uniform(-1e-3, 1e-3)))]
        elif kind == "lueders":
            argv += [flag("axis", unit()), flag("state-axis", unit())]
        else:
            argv += [flag("axis", unit())]
        argvs.append(argv)
    return argvs


def point_query_runs() -> list[tuple[list[str], int, str, str]]:
    """The argv, exit code, stdout and stderr of each of ``pinned_point_queries()``."""
    runs = []
    for argv in pinned_point_queries():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        runs.append((argv, code, out.getvalue(), err.getvalue()))
    return runs


def point_query_documents(runs) -> list:
    """Each run's exit code, stdout read as JSON (None when empty) and stderr, split at its
    numbers: a refusal may quote a computed float."""
    return [[code, json.loads(out) if out else None, text_and_floats(err)]
            for _, code, out, err in runs]


# sha256 over the exit code, stdout and stderr of ``pinned_point_queries()``,
# taken before the CLI's own JSON writer replaced ``json.dumps``, the closed-form
# ``chsh`` decision replaced its eigensolve and the scalar cross products
# replaced ``np.cross``.  The eigensolved fields carry LAPACK's bits, so the
# digest pins one numpy build (2.x, OpenBLAS, x86-64) and one OpenBLAS kernel
# family, SkylakeX; the Haswell and Prescott kernels differ in the last bits,
# which the fixture comparison allows.
POINT_QUERY_DIGEST = "4186c867f7f9ce4e6ef29ab7db14c62c8ec74d920eacb011ccfe4a5bf4e95ea4"


def test_point_query_output_is_pinned():
    digest = hashlib.sha256()
    seen = set()
    runs = point_query_runs()
    for argv, code, out, err in runs:
        digest.update(f"{code}\n{len(out)}\n{out}{len(err)}\n{err}".encode())
        holds = json.loads(out).get("operator_chsh_holds") if code == 0 else None
        seen.add((argv[0], code, holds))
    # both exit codes, and both operator decisions from chsh and bell-op
    assert {code for _, code, _ in seen} == {0, 1}
    for command in ("chsh", "bell-op"):
        assert {(command, 0, True), (command, 0, False)} <= seen
    assert_matches(point_query_documents(runs), POINT_QUERY_FIXTURE)
    if openblas_core() == DIGEST_CORE:
        assert digest.hexdigest() == POINT_QUERY_DIGEST


def float_slots(document):
    """(container, key) of each float in a JSON document, depth first."""
    items = document.items() if isinstance(document, dict) else enumerate(document)
    for key, value in items:
        if isinstance(value, float):
            yield document, key
        elif isinstance(value, (dict, list)):
            yield from float_slots(value)


@pytest.mark.parametrize("name", [POINT_QUERY_FIXTURE, CHART_FIXTURE])
def test_a_1e_12_change_to_one_float_fails_the_fixture_comparison(name):
    expected = load(name)
    actual = json.loads(json.dumps(expected))
    holder, key = next((h, k) for h, k in float_slots(actual) if abs(h[k]) <= 1.0)
    value = holder[key]
    holder[key] = value + 2.0 * math.ulp(1.0)  # within the bound, as kernel gaps are
    assert mismatches(actual, expected) == []
    holder[key] = value + 1e-12
    assert len(mismatches(actual, expected)) == 1
    holder[key] = math.inf
    assert len(mismatches(actual, expected)) == 1


def test_axis_commands_print_the_normalized_parsed_direction(capsys):
    # lueders, epr, coexist and bell-op print the same bits for the same
    # direction flag: unit_vector of the direction parse_direction returns
    rng = np.random.default_rng(1_500)
    others = ("--n2=0.0,1.0,0.0", "--n3=1.0,0.0,0.0", "--n4=0.0,0.0,1.0")
    for _ in range(60):
        v = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)
        text = ",".join(repr(float(c)) for c in v)
        want = unit_vector(parse_direction(text)).tolist()
        printed = []
        for argv, read in (
            (("lueders", "--lambda", "0.9", f"--axis={text}"), lambda d: d["axis"]),
            (("epr", "--lambda", "0.9", f"--axis={text}"), lambda d: d["axis"]),
            (("coexist", "--lambda", "0.5", f"--n1={text}", others[0]), lambda d: d["axis1"]),
            (("bell-op", "--lambda", "0.9", f"--n1={text}", *others), lambda d: d["axes"][0]),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            printed.append(read(json.loads(out)))
        assert printed == [want] * 4


@pytest.mark.parametrize("angle", ["0.7853981633974483", "0.3", None])
def test_chsh_document_is_the_reports_fields(capsys, angle):
    # The handler copies the report's fields shallowly; the bytes are those of
    # the deep asdict copy it replaced.
    config = (bell.coplanar_configuration(0.9, float(angle)) if angle
              else bell.orthogonal_configuration(0.9))
    report = bell.chsh_report(config)
    want = {
        **asdict(report),
        "pair_probs": {f"{i},{j}": p for (i, j), p in report.pair_probs.items()},
        "operator_chsh_holds": bell.operator_chsh_holds(config).holds,
    }
    argv = ["chsh", "--lambda", "0.9"] + (["--angle", angle] if angle else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_fine_check_reads_csv(tmp_path, capsys):
    from unsharp_bell.fine import ProbabilityTable

    table = ProbabilityTable(
        singles={k: 0.5 for k in SINGLE_KEYS},
        pairs={k: 0.25 for k in PAIR_KEYS},
    )
    path = tmp_path / "uniform.csv"
    path.write_text(table.to_csv_text())
    code, out, _ = run_cli(capsys, "fine-check", "--table", str(path))
    assert code == 0
    assert json.loads(out)["all_hold"] is True


def test_fine_check_reports_its_margin(tmp_path, capsys):
    # On a violated table the margin is minus the witness's slack, bit for bit;
    # a pair form at exactly 0 sits on the boundary.
    from unsharp_bell.fine import Jpd4, marginals, table_from_quantum

    corner = np.zeros((2, 2, 2, 2))
    corner[0, 0, 0, 0] = 1.0
    tables = {
        "violated": table_from_quantum(
            bell.singlet_state(), bell.coplanar_configuration(1.0, np.pi / 4)),
        "corner": marginals(Jpd4(corner)),
    }
    docs = {}
    for name, table in tables.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(table.to_json_dict()))
        code, out, _ = run_cli(capsys, "fine-check", "--table", str(path))
        assert code == 0
        docs[name] = json.loads(out)
    violated, corner = docs["violated"], docs["corner"]
    assert not violated["all_hold"] and violated["near_boundary"] is False
    assert float.hex(violated["margin"]) == float.hex(-violated["witness"]["slack"])
    assert corner["all_hold"] and corner["margin"] == 0.0 and corner["near_boundary"] is True


def test_fine_solve_missing_file_exit_one(capsys):
    code, _, err = run_cli(capsys, "fine-solve", "--table", "/nonexistent/t.json")
    assert code == 1 and err.startswith("error:")


def test_lueders_json_fields(capsys):
    code, out, _ = run_cli(capsys, "lueders", "--lambda", "0.9", "--axis", "0,0,1")
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert data["trace_distance"] <= data["bound"]


def test_lueders_epsilon_out_of_range(capsys):
    code, _, err = run_cli(
        capsys, "lueders", "--lambda", "0.2", "--axis", "0,0,1", "--epsilon", "0.7"
    )
    assert code == 1
    assert "epsilon" in err


def test_epr_probabilities(capsys):
    code, out, _ = run_cli(capsys, "epr", "--lambda", "0.8", "--axis", "0,0,1")
    assert code == 0
    data = json.loads(out)
    np.testing.assert_allclose(data["probabilities"]["1"], 0.5, atol=1e-12)
    np.testing.assert_allclose(data["outcome_prob_after"]["1"], 0.82, atol=1e-12)


def test_chart_command(tmp_path, capsys):
    programme = {
        "initial": "singlet",
        "lambda": 0.8,
        "measurements": [
            {"event": [0.0, 0.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0], "subsystem": 1},
            {"event": [0.0, 5.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0], "subsystem": 2},
        ],
        "outcomes": [1, -1],
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(programme))
    code, out, _ = run_cli(capsys, "chart", "--programme", str(path), "--observer", "10,2,0,0")
    assert code == 0
    chart = json.loads(out)["chart"]
    assert chart["informed"] == [0, 1]
    assert len(chart["assertions"]) == 4
    assert len(chart["assignments"]) == 4
    assert chart["assignments"][0]["selective"] is False
    assert chart["assignments"][3]["selective"] is True
    assert chart["assignments"][3]["conditioned"] == [0, 1]
    assert chart["region_index"] == 3
    code, out, _ = run_cli(capsys, "chart", "--programme", str(path))
    assert code == 0
    assert json.loads(out)["consistency"]["all_pass"] is True


def test_chart_missing_outcome_exit_one(tmp_path, capsys):
    programme = {
        "initial": "singlet",
        "lambda": 0.8,
        "measurements": [
            {"event": [0.0, 0.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0], "subsystem": 1},
        ],
        "outcomes": [None],
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(programme))
    code, _, err = run_cli(capsys, "chart", "--programme", str(path), "--observer", "10,0,0,0")
    assert code == 1
    assert "outcome" in err



def test_chart_consistency_on_the_sharp_singlet(tmp_path, capsys):
    # lambda = 1 along parallel axes: the records (1, 1) and (-1, -1) cannot
    # occur, and the report charts only the two that can
    path = tmp_path / "prog.json"
    write_programme(path, **{"lambda": 1.0})
    code, out, err = run_cli(capsys, "chart", "--programme", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["consistency"]["all_pass"] is True


def test_chart_refuses_an_impossible_registered_outcome(tmp_path, capsys):
    path = tmp_path / "prog.json"
    write_programme(path, **{"lambda": 1.0, "outcomes": [1, 1]})
    code, out, err = run_cli(capsys, "chart", "--programme", str(path), "--observer", "10,2,0,0")
    assert (code, out) == (1, "")
    assert err.startswith("error: registered outcomes have probability zero on this state")

def test_bell_op_norms_agree(capsys):
    code, out, _ = run_cli(capsys, "bell-op", "--lambda", "1.0", "--angle", "0.7853981633974483")
    assert code == 0
    data = json.loads(out)
    np.testing.assert_allclose(data["norm_closed_form"], data["norm_eigensolver"], atol=1e-9)
    np.testing.assert_allclose(data["norm_closed_form"], 2 * np.sqrt(2), atol=1e-12)


def test_config_rejects_angle_and_axes(capsys):
    code, _, err = run_cli(
        capsys, "chsh", "--lambda", "0.5", "--angle", "0.3",
        "--n1", "1,0,0", "--n2", "0,1,0", "--n3", "0,0,1", "--n4", "1,1,0",
    )
    assert code == 1
    assert "either" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "coexist", "--lambda", "0.5", "--n1", "1,0,0", "--n2", "0,1,0",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["coexistent"] is True


def test_coexist_refuses_non_finite_axis(capsys):
    code, out, err = run_cli(
        capsys, "coexist", "--lambda", "0.5", "--n1", "1,0,nan", "--n2", "0,1,0"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "finite" in err


def test_table_with_non_object_singles_exit_one(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"singles": 3, "pairs": {}}))
    code, out, err = run_cli(capsys, "fine-check", "--table", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "objects" in err


def write_programme(path, **changes):
    path.write_text(json.dumps({**PROGRAMME, **changes}))


@pytest.mark.parametrize("observer", ["nan,0,0,0", "10,inf,0,0"])
def test_chart_refuses_non_finite_observer(tmp_path, capsys, observer):
    path = tmp_path / "prog.json"
    write_programme(path)
    code, out, err = run_cli(capsys, "chart", "--programme", str(path), "--observer", observer)
    assert code == 1
    assert out == ""
    assert err.startswith("error: coordinate") and "must be finite" in err


def test_chart_refuses_non_finite_event(tmp_path, capsys):
    path = tmp_path / "prog.json"
    write_programme(
        path, measurements=[{"event": [float("nan"), 0, 0, 0], "axis": [0, 0, 1], "subsystem": 1}],
        outcomes=[1],
    )
    code, out, err = run_cli(capsys, "chart", "--programme", str(path), "--observer", "10,0,0,0")
    assert code == 1
    assert out == ""
    assert "coordinate t must be finite" in err


def test_chart_report_refuses_events_beyond_its_worldline(tmp_path, capsys):
    # Without --observer the report samples a worldline about the events; at
    # t = 1e308 it would leave the float range, so the events are refused
    # by name, without a numpy warning.
    path = tmp_path / "prog.json"
    first, second = PROGRAMME["measurements"]
    write_programme(path, measurements=[{**first, "event": [1e308, 0.0, 0.0, 0.0]}, second])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "chart", "--programme", str(path))
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (1, "")
    assert err.startswith("error: measurement events are too far apart for the default worldline")


def test_chart_observer_needs_four_coordinates(tmp_path, capsys):
    path = tmp_path / "prog.json"
    write_programme(path)
    code, out, err = run_cli(capsys, "chart", "--programme", str(path), "--observer", "1,0,0")
    assert code == 1
    assert out == ""
    assert "--observer needs four comma-separated coordinates t,x,y,z" in err


def test_chart_names_missing_measurement_field(tmp_path, capsys):
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(
        {"initial": "singlet", "lambda": 0.5, "measurements": [{"axis": [1, 0, 0], "subsystem": 1}]}
    ))
    code, out, err = run_cli(capsys, "chart", "--programme", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "missing a field: event" in err


@pytest.mark.parametrize(
    ("changes", "message"),
    [
        ({"outcomes": 5}, "programme outcomes must be a list of +1, -1 or null, got 5"),
        ({"initial": 5}, 'programme initial must be "singlet" or [re, im] pairs'),
        ({"lambda": None}, "programme lambda must be a number, got None"),
        ({"outcomes": [1.5, -1]}, "programme outcome must be an integer, got 1.5"),
        ({"initial": [[0.25, 0.0]] * 9},
         "programme initial: cannot infer a 2x2 or 4x4 matrix from 9 entries"),
        ({"measurements": [{"event": [0, 0, 0, 0], "axis": [0, 0, 0], "subsystem": 1}],
          "outcomes": [1]}, "programme measurement 0 axis: direction must be a nonzero vector"),
        ({"measurements": [{"event": [0, 0, 0, 0], "axis": [0, 0], "subsystem": 1}],
          "outcomes": [1]}, "programme measurement 0 axis: expected a 3-vector, got shape (2,)"),
    ],
)
def test_chart_names_malformed_programme_field(tmp_path, capsys, changes, message):
    path = tmp_path / "prog.json"
    write_programme(path, **changes)
    code, out, err = run_cli(capsys, "chart", "--programme", str(path), "--observer", "10,2,0,0")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")


# Values starting with a minus sign that argparse's default negative-number
# pattern (-<digits>, -<digits>.<digits>) does not cover: one per float,
# axis and event flag.
LEADING_MINUS = [
    ("chsh", "--lambda", "-1e-3"),
    ("chsh", "--lambda", "0.9", "--angle", "-1e-3"),
    ("bell-op", "--lambda", "0.9", "--angle", "-inf"),
    ("lueders", "--lambda", "0.9", "--axis", "0,0,1", "--epsilon", "-1e-9"),
    ("coexist", "--lambda", "0.5", "--n1", "-1,0,1", "--n2", "-.5,1,0"),
    ("joint", "--lambda", "0.3", "--n1", "-1,0,0", "--n2", "-0,1,0",
     "--n3", "-1e0,0,1", "--n4", "-inf,1,0"),
    ("bell-op", "--lambda", "0.9", "--n1", "1,0,0", "--n2", "0,1,0",
     "--n3", "-1,0,1", "--n4", "-1,0,-1"),
    ("lueders", "--lambda", "0.9", "--axis", "-1,0,0", "--state-axis", "-.6,.8,0"),
    ("epr", "--lambda", "0.8", "--axis", "-1,1,1"),
    ("chart", "--programme", "PROGRAMME", "--observer", "-10,0,0,0"),
    ("chart", "--programme", "PROGRAMME", "--observer", "-1e1,2,0,0"),
]


def joined(argv):
    """The same argv with every flag value written as --flag=value."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and token.startswith("-") and "=" not in out[-1]:
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


@pytest.mark.parametrize("argv", LEADING_MINUS, ids=" ".join)
def test_leading_minus_values_parse_as_values(tmp_path, capsys, argv):
    programme = tmp_path / "prog.json"
    write_programme(programme)
    argv = [str(programme) if token == "PROGRAMME" else token for token in argv]
    spaced = run_cli(capsys, *argv)
    assert spaced[0] in (0, 1), spaced[2]
    assert spaced == run_cli(capsys, *joined(argv))


@pytest.mark.parametrize("command", ["bell-op", "chsh"])
@pytest.mark.parametrize("angle", ["nan", "inf"])
def test_config_refuses_non_finite_angle(capsys, command, angle):
    code, out, err = run_cli(capsys, command, "--lambda", "0.5", "--angle", angle)
    assert code == 1
    assert out == ""
    assert err == f"error: angle must be finite, got {angle}\n"


@pytest.mark.parametrize("command", ["bell-op", "chsh"])
@pytest.mark.parametrize("angle", ["1e308", "-9e307"])
def test_config_refuses_an_angle_whose_double_overflows(capsys, command, angle):
    code, out, err = run_cli(capsys, command, "--lambda", "0.5", f"--angle={angle}")
    assert (code, out) == (1, "")
    assert err == f"error: angle {float(angle)!r} is out of range: twice it overflows a float\n"
    code, out, err = run_cli(capsys, command, "--lambda", "0.5", "--angle=-8e307")
    assert (code, err) == (0, "")


def test_bell_op_builds_the_smeared_operator_once(capsys, monkeypatch):
    built = []
    build = bell.generalized_bell_operator

    def counting(config):
        built.append(config)
        return build(config)

    monkeypatch.setattr(bell, "generalized_bell_operator", counting)
    monkeypatch.setattr(cli, "generalized_bell_operator", counting, raising=False)
    code, out, _ = run_cli(capsys, "bell-op", "--lambda", "0.9", "--angle", "0.3")
    assert code == 0 and len(built) == 1
    assert json.loads(out)["smeared_operator"] == matrix_to_pairs(build(built[0]))


def every_subcommand(tmp_path):
    """One accepted argv per subcommand."""
    table, programme = tmp_path / "uniform.json", tmp_path / "prog.json"
    write_uniform_table(table)
    write_programme(programme)
    return [
        COEXIST,
        ("joint", "--lambda", "0.6", "--n1", "1,0,0", "--n2", "0,1,0"),
        ("bell-op", "--lambda", "0.9", "--angle", "0.3"),
        ("chsh", "--lambda", "0.9"),
        ("scan", "--grid", "10"),
        ("fine-check", "--table", str(table)),
        ("fine-solve", "--table", str(table), "--method", "exact"),
        ("lueders", "--lambda", "0.9", "--axis", "0,0,1"),
        ("epr", "--lambda", "0.8", "--axis", "0,0,1"),
        ("chart", "--programme", str(programme), "--observer", "10,2,0,0"),
        ("verify-all", "--seed", "3"),
    ]


def test_parser_built_at_most_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    original_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "run_all", lambda seed: ())
    cli.build_parser()
    one_tree = len(built)
    assert one_tree == 12  # the top-level parser and its 11 subcommands
    built.clear()
    for argv in itertools.islice(itertools.cycle(every_subcommand(tmp_path)), 50):
        assert cli.main(list(argv)) == 0
    capsys.readouterr()
    assert len(built) <= one_tree


def run_in_process(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse refusing the flags
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def run_fresh(argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "unsharp_bell.cli", *argv], capture_output=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def take_out_file(argv):
    """Bytes written through ``--out`` (the file is removed), or None."""
    if "--out" not in argv:
        return None
    path = Path(argv[argv.index("--out") + 1])
    data = path.read_bytes()
    path.unlink()
    return data


@pytest.mark.parametrize(
    "sequence",
    [
        [("scan", "--grid", "10", "--format", "csv"), ("scan", "--grid", "10")],
        [(*COEXIST, "--out", "{tmp}/first.json"), COEXIST],
        [("coexist", "--lambda", "0.5", "--n1", "1,0,0"), COEXIST],
    ],
    ids=["format-then-default", "out-then-stdout", "refusal-then-valid"],
)
def test_repeated_calls_match_fresh_processes(sequence, tmp_path, capsys, monkeypatch):
    # argparse wraps usage text to the terminal width; pin it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    for argv in sequence:
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        in_process = run_in_process(capsys, argv), take_out_file(argv)
        fresh = run_fresh(argv), take_out_file(argv)
        assert in_process == fresh, argv


# Argument lists at argparse's edges: help, unknown and abbreviated commands and
# flags, leftovers, missing, repeated and refused values, values with a minus sign.
EDGE_ARGVS = [
    (),
    ("-h",),
    ("--help",),
    ("--he",),
    ("-h", "chsh"),
    ("chs",),
    ("Chsh", "--lambda", "0.5"),
    ("--", "chsh", "--lambda", "0.5"),
    ("--lambda", "0.5"),
    ("chsh", "-h"),
    ("chsh", "--he"),
    ("chsh", "--lambda", "0.5", "-h"),
    ("chsh",),
    ("chsh", "--lambda"),
    ("chsh", "--lambda", "0.5", "--n1"),
    ("chsh", "--lam", "0.5"),
    ("chsh", "--n", "1,0,0", "--lambda", "0.5"),
    ("chsh", "--lambda", "0.5", "--lambda", "0.9"),
    ("chsh", "--lambda", "-0.5"),
    ("chsh", "--lambda", "x"),
    ("chsh", "--lambda", "0.5", "--angle", "-1e-3"),
    ("chsh", "--lambda", "0.5", "extra"),
    ("chsh", "--lambda", "0.5", "extra", "more", "--foo"),
    ("chsh", "--lambda", "0.5", "--foo"),
    ("chsh", "--lambda", "0.5", "--foo=1"),
    ("chsh", "--lambda", "0.5", "-x"),
    ("chsh", "--lambda", "0.5", "-"),
    ("chsh", "--lambda", "0.5", "--"),
    ("chsh", "--lambda", "0.5", "--", "extra"),
    ("chsh", "--", "--lambda", "0.5"),
    (*COEXIST, "--out"),
    (*COEXIST, "--n1", "-1,0,0"),
    ("coexist", "--lambda=0.5", "--n1=-inf,0,0", "--n2", "0,1,0"),
    ("lueders", "--lambda", "0.5", "--axis", "0,0,1", "--epsilon", "-1"),
    ("scan", "--grid", "-10"),
    ("scan", "--grid", "10", "--format", "xml"),
    ("scan", "--grid", "10", "--format"),
    ("verify-all", "--format", "csv"),
    ("verify-all", "--seed", "1.5"),
    ("fine-solve", "--table", "t.json", "--method", "exactly"),
    ("fine-check",),
    ("chart", "--check"),
]


def test_routing_on_the_command_changes_no_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_all", lambda seed: ())
    argvs = [*EDGE_ARGVS, *every_subcommand(tmp_path)]
    routed = [run_in_process(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse_args", cli._parser().parse_args)
    full = [run_in_process(capsys, argv) for argv in argvs]
    for argv, mine, theirs in zip(argvs, routed, full):
        assert mine == theirs, argv
    assert {code for code, _, _ in full} == {0, 1, 2}


def test_routing_parses_the_point_query_stream_into_the_same_namespace():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("point_query_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    parser = cli._parser()
    for request in itertools.islice(workloads.PointQueries(1).stream(), 600):
        argv = request["argv"]
        assert vars(cli._parse_args(argv)) == vars(parser.parse_args(argv)), argv


def test_a_subcommand_reads_its_flags_once(capsys, monkeypatch):
    readers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        readers.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    assert cli.main(list(COEXIST)) == 0
    capsys.readouterr()
    assert readers == ["unsharp-bell coexist"]


@pytest.mark.parametrize("depth", [1_200, 100_000])
@pytest.mark.parametrize("command", ["fine-check", "fine-solve", "chart"])
def test_deeply_nested_json_is_refused_naming_the_file(tmp_path, capsys, command, depth):
    path = tmp_path / "nested.json"
    path.write_text("[" * depth + "]" * depth)
    flag = "--programme" if command == "chart" else "--table"
    code, out, err = run_cli(capsys, command, flag, str(path))
    assert (code, out, err) == (1, "", f"error: {path}: JSON nested too deeply to read\n")


def test_seed_variable_is_ignored(capsys, monkeypatch):
    # --seed alone sets the seed, per call; the former UNSHARP_BELL_SEED
    # override is read no more
    seeds = []

    def stand_in(seed):
        seeds.append(seed)
        return ()

    monkeypatch.setattr(cli, "run_all", stand_in)
    monkeypatch.setenv("UNSHARP_BELL_SEED", "7")
    assert cli.main(["verify-all", "--seed", "3"]) == 0
    assert cli.main(["verify-all"]) == 0
    monkeypatch.setenv("UNSHARP_BELL_SEED", "abc")
    assert cli.main(["verify-all", "--seed", "3"]) == 0
    capsys.readouterr()
    assert seeds == [3, DEFAULT_SEED, 3]


@pytest.mark.parametrize(
    ("suffix", "text", "message"),
    [
        (".json", None, "error: table JSON entry '1' must be a number, got '0.5'"),
        (".csv", "i,j,p\n1\n", "error: table CSV row 2 must be i,j,p"),
        (".csv", "i,j,p\nx,,0.5\n", "error: table CSV row 2 must be i,j,p"),
        (".csv", "i,j,q\n1,,0.5\n", "error: table CSV must start with header i,j,p"),
        (".csv", "", "error: table CSV must start with header i,j,p"),
    ],
)
def test_table_reader_errors_exit_one(tmp_path, capsys, suffix, text, message):
    path = tmp_path / f"table{suffix}"
    if text is None:
        write_uniform_table(path)
        data = json.loads(path.read_text())
        data["singles"]["1"] = "0.5"
        text = json.dumps(data)
    path.write_text(text)
    code, out, err = run_cli(capsys, "fine-solve", "--table", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize(
    ("changes", "message"),
    [
        ({"measurements": [{"event": "0510", "axis": [0, 0, 1], "subsystem": 1}], "outcomes": [1]},
         "programme measurement 0 event must be a list of numbers, got '0510'"),
        ({"outcomes": "1"}, "programme outcomes must be a list of +1, -1 or null, got '1'"),
        ({"initial": "foo"}, 'programme initial must be "singlet" or [re, im] pairs, got \'foo\''),
        ({"measurements": [{"event": [0, 0, 0, 0], "axis": [0, 0, 1], "subsystem": True}],
          "outcomes": [1]}, "programme measurement 0 subsystem must be an integer, got True"),
        ({"outcomes": [True, -1]}, "programme outcome must be an integer, got True"),
        ({"lambda": "0.5"}, "programme lambda must be a number, got '0.5'"),
        ({"measurements": [{"event": ["1", 0, 0, 0], "axis": [0, 0, 1], "subsystem": 1}],
          "outcomes": [1]}, "programme measurement 0 event must be a list of numbers, got '1'"),
    ],
)
def test_chart_refuses_text_and_booleans_in_programme(tmp_path, capsys, changes, message):
    path = tmp_path / "prog.json"
    write_programme(path, **changes)
    code, out, err = run_cli(capsys, "chart", "--programme", str(path), "--observer", "10,2,0,0")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_fine_solve_reports_the_margin(tmp_path, capsys):
    table = tmp_path / "uniform.json"
    write_uniform_table(table)
    for method in ("interval", "exact"):
        code, out, _ = run_cli(capsys, "fine-solve", "--table", str(table), "--method", method)
        assert code == 0
        data = json.loads(out)
        # The uniform table has every joint entry at 1/16 and every CHSH form at 1/2.
        assert data["margin"] > 0 and data["near_boundary"] is False


def test_chart_names_initial_with_non_finite_entries(tmp_path, capsys):
    # check_hermitian let NaN through (nan > tol is false): the eigensolver then
    # failed with a message naming no field.
    initial = [[0.25, 0.0] if index % 5 == 0 else [0.0, 0.0] for index in range(16)]
    initial[5] = [float("nan"), 0.0]
    path = tmp_path / "prog.json"
    write_programme(path, initial=initial)
    code, out, err = run_cli(capsys, "chart", "--programme", str(path), "--observer", "10,2,0,0")
    assert (code, out, err) == (1, "", "error: initial state must have finite entries\n")


def test_overflowing_axis_is_refused_without_a_warning(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "coexist", "--lambda", "0.5", "--n1", "1,0,0", "--n2", "1e308,1e308,0"
        )
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (1, "")
    assert err == "error: direction must be finite with a finite norm, got [1e+308, 1e+308, 0.0]\n"


@pytest.mark.parametrize("source", ["flag", "variable"])
def test_negative_seed_is_refused_by_name(capsys, monkeypatch, source):
    # the flag's seed is refused, whether or not the former seed variable is set
    if source == "variable":
        monkeypatch.setenv("UNSHARP_BELL_SEED", "3")
    code, out, err = run_cli(capsys, "verify-all", "--seed", "-1")
    assert (code, out, err) == (1, "", "error: seed must be a non-negative integer, got -1\n")


@pytest.mark.parametrize("grid", [10**6 + 1, 10**11])
def test_scan_refuses_a_grid_past_its_limit_before_allocating(capsys, grid):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "scan", "--grid", str(grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == f"error: grid must be at most 1,000,000, got {grid}\n"
    assert peak < 1_000_000  # a grid of 10^6 + 1 points alone takes 8 MB


@pytest.mark.parametrize("grid, shown", [
    ("5", "5"),
    ("-" + "9" * 4000, "an integer beyond the float range"),
])
def test_scan_refuses_a_small_grid_quoting_it_bounded(capsys, grid, shown):
    code, out, err = run_cli(capsys, "scan", f"--grid={grid}")
    assert (code, out) == (1, "")
    assert err == f"error: grid must be at least 10, got {shown}\n"


def test_chsh_decides_the_operator_inequality_without_an_eigensolve(capsys, monkeypatch):
    def refuse(matrix):
        raise AssertionError("chsh eigensolved")

    monkeypatch.setattr(bell, "eigen_hermitian", refuse)
    for s, holds in ((2 ** -0.25 * (1 - 1e-9), True), (2 ** -0.25 * (1 + 1e-9), False)):
        code, out, _ = run_cli(capsys, "chsh", "--lambda", repr(s))
        assert code == 0 and json.loads(out)["operator_chsh_holds"] is holds
