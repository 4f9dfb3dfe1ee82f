import argparse
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from unsharp_bell import bell, cli
from unsharp_bell.fine import PAIR_KEYS, SINGLE_KEYS
from unsharp_bell.operators import matrix_to_pairs
from unsharp_bell.sampling import DEFAULT_SEED

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
    code, out, _ = run_cli(capsys, "fine-solve", "--table", str(table), "--method", "exact")
    data = json.loads(out)
    assert data["feasible"] is True and data["method"] == "exact-elimination"


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


def test_non_integer_seed_variable_exit_one(capsys, monkeypatch):
    monkeypatch.setenv("UNSHARP_BELL_SEED", "abc")
    code, out, err = run_cli(capsys, "verify-all")
    assert code == 1
    assert out == ""
    assert "UNSHARP_BELL_SEED" in err


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


def test_seed_variable_applies_per_call(capsys, monkeypatch):
    seeds = []

    def stand_in(seed):
        seeds.append(seed)
        return ()

    monkeypatch.setattr(cli, "run_all", stand_in)
    monkeypatch.setenv("UNSHARP_BELL_SEED", "7")
    assert cli.main(["verify-all", "--seed", "3"]) == 0
    monkeypatch.delenv("UNSHARP_BELL_SEED")
    assert cli.main(["verify-all", "--seed", "3"]) == 0
    assert cli.main(["verify-all"]) == 0
    capsys.readouterr()
    assert seeds == [7, 3, DEFAULT_SEED]


@pytest.mark.parametrize(
    ("suffix", "text", "message"),
    [
        (".json", None, "error: table JSON entry '1' must be a number, got '0.5'"),
        (".csv", "i,j,p\n1\n", "error: table CSV row 2 must be i,j,p"),
        (".csv", "i,j,p\nx,,0.5\n", "error: table CSV row 2 must be i,j,p"),
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
    if source == "flag":
        monkeypatch.delenv("UNSHARP_BELL_SEED", raising=False)
        argv = ("verify-all", "--seed", "-1")
    else:
        monkeypatch.setenv("UNSHARP_BELL_SEED", "-3")
        argv = ("verify-all", "--seed", "3")
    code, out, err = run_cli(capsys, *argv)
    seed = "-1" if source == "flag" else "-3"
    assert (code, out, err) == (1, "", f"error: seed must be a non-negative integer, got {seed}\n")
