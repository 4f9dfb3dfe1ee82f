"""Acceptance battery.

Each test pins one documented numeric guarantee, prints a PASS/FAIL line
(visible under ``pytest -s``) and asserts the recorded deviation against
the advertised tolerance.  The expensive sweeps run once per session
through the cached ``run_all``.
"""

import json
import re

import pytest

from unsharp_bell import cli
from unsharp_bell.sampling import DEFAULT_SEED
from unsharp_bell.verify import CHECK_NAMES, run_all


@pytest.fixture(scope="session")
def results():
    by_name = {r.name: r for r in run_all(DEFAULT_SEED)}
    assert set(by_name) == set(CHECK_NAMES)
    return by_name


def report(number, result):
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status} criterion {number} [{result.name}]: "
        f"max deviation {result.deviation:.3e} vs tolerance {result.tolerance:.1e} "
        f"({result.detail})"
    )
    assert result.passed, f"criterion {number} failed: {result.detail}"


def test_criterion_01_coexistence_threshold(results):
    # margin zero at the orthogonal boundary, positive just below, and
    # joint positivity everywhere on the coexistent side of a dense grid
    report(1, results["coexistence-threshold"])


def test_criterion_02_critical_sharpness_scan(results):
    # scanned threshold matches 2^(-1/4) within the grid tolerance on
    # both the probabilistic and the operator route
    report(2, results["chsh-threshold"])


def test_criterion_03_gap_region(results):
    # at sharpness 0.78 orthogonal axes are not coexistent while the
    # operator inequality still holds
    report(3, results["gap-region"])


def test_criterion_04_cirelson_bound(results):
    # closed-form norm agrees with the eigensolver, never exceeds
    # 2 sqrt(2), and the bound is attained at the orthogonal configuration
    report(4, results["cirelson-bound"])


def test_criterion_05_fine_equivalence(results):
    # inequality check, interval reconstruction and the exact oracle
    # decide feasibility identically over mixed jpd/quantum tables
    report(5, results["fine-equivalence"])


def test_criterion_06_singlet_formula(results):
    # pair probabilities match the trace rule, the coplanar combination
    # peaks at 2 sqrt(2), and the critical unsharpness constant is exact
    report(6, results["singlet-formula"])


def test_criterion_07_disturbance_bound(results):
    # trace distance after a nonselective binary instrument stays within
    # 2(eps + sqrt(eps)) and the yes-probability never decreases
    report(7, results["disturbance-bound"])


def test_criterion_08_epr_calculus(results):
    # conditional partner states, their firing probability
    # (1 + lambda^2)/2 and the maximally mixed nonselective reduction
    report(8, results["epr-calculus"])


def test_criterion_09_chart_consistency(results):
    # sequential equals joint application, covers partition spacetime,
    # and causal classification is boost invariant
    report(9, results["chart-consistency"])


def test_criterion_10_verify_all_cli(results, capsys, monkeypatch):
    # the bundled runner reports every check and exits zero
    monkeypatch.delenv("UNSHARP_BELL_SEED", raising=False)
    code = cli.main(["verify-all", "--seed", str(DEFAULT_SEED)])
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    status = "PASS" if code == 0 and len(lines) == len(CHECK_NAMES) else "FAIL"
    print(f"{status} criterion 10 [verify-all]: exit {code}, {len(lines)} check lines")
    for name in CHECK_NAMES:
        assert any(name in line for line in lines), f"no line for {name}"
    assert all(line.startswith("PASS") for line in lines)
    assert code == 0


# What each check must report having evaluated, as it appears in its detail.
CHECK_SIZES = {
    "coexistence-threshold": [r"over 40000 grid points", r"(\d+) spot checks"],
    "cirelson-bound": [r"over 100000 configurations"],
    "fine-equivalence": [r"^1000 tables"],
    "singlet-formula": [r"over 1000 draws"],
    "disturbance-bound": [r"^10000 accepted pairs"],
    "chart-consistency": [
        r"over 100 programmes",
        r"on 100000 points \(2070 spot checks\)",
        r"under 100 boosts x 100 pairs",
    ],
}


def test_check_sizes_are_pinned(results):
    # a faster battery must not come from evaluating fewer points
    for name, patterns in CHECK_SIZES.items():
        for pattern in patterns:
            assert re.search(pattern, results[name].detail), (name, pattern)
    spots = int(re.search(r"(\d+) spot checks", results["coexistence-threshold"].detail)[1])
    assert 0 < spots <= 500


def test_verify_all_json_format(results, capsys, monkeypatch):
    monkeypatch.delenv("UNSHARP_BELL_SEED", raising=False)
    code = cli.main(["verify-all", "--seed", str(DEFAULT_SEED), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (data["passed"], data["total"]) == (len(CHECK_NAMES), len(CHECK_NAMES))
    assert [check["name"] for check in data["checks"]] == list(CHECK_NAMES)
    for check in data["checks"]:
        result = results[check["name"]]
        assert set(check) == {
            "name", "passed", "seconds", "deviation", "tolerance", "headroom", "seed"
        }
        assert check["passed"] is True and check["seed"] == DEFAULT_SEED
        assert check["deviation"] == result.deviation
        if result.deviation == 0.0:
            assert check["headroom"] is None
        else:
            assert check["headroom"] == result.tolerance / result.deviation
