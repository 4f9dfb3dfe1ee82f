import json

import numpy as np
import pytest

from unsharp_bell import cli
from unsharp_bell.fine import PAIR_KEYS, SINGLE_KEYS


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
