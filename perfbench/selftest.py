"""Fast self-test of the benchmark harness, run from the repository root.

    python3 perfbench/selftest.py

Runs every workload at a tiny size and checks that each end-to-end and
per-layer metric is reported with the unit ``BENCHMARK.json`` gives it,
that the traced passes repeat their exact counts, that every correctness
gate trips on a deliberately corrupted answer, and that the span
accounting gate trips on traced time no span explains.  The full
check battery is not run: its gate is fed a synthetic battery instead.
Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import run  # sets the thread caps before numpy is imported

sys.path.insert(0, str(run.SOURCE.resolve()))

from unsharp_bell.verify import CHECK_NAMES, CheckResult  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)


def trips(workload, request, answer, what: str) -> None:
    expect(workload.check(request, answer) is not None, f"{workload.name}: gate missed {what}")


def check_catalogue() -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names differ")
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == units, f"{key} metrics differ from BENCHMARK.json")
    expect(tuple(CHECK_NAMES) == run.CHECK_NAMES, "check names differ from the package's")


def check_metrics(name: str) -> None:
    workload = WORKLOADS[name](7)
    workload.trace_requests = 6
    metrics, served, _ = run.per_layer(workload)
    expect(served.failed == 0, f"{name}: traced passes failed: {served.errors}")
    expect(set(metrics) == set(run.PER_LAYER), f"{name}: per-layer metrics missing")
    expect(metrics["harness.self_s"] > 0.0, f"{name}: no harness time measured")
    metrics, served, _ = run.end_to_end(workload, 7, 0.3)
    expect(served.failed == 0, f"{name}: closed loop failed: {served.errors}")
    expect(set(metrics) == set(run.END_TO_END), f"{name}: end-to-end metrics missing")
    expect(all(metrics[m] > 0 for m in run.END_TO_END), f"{name}: an end-to-end metric is 0")


def check_accounting_gate() -> None:
    """A second of traced time that no span explains must fail the run."""
    workload = WORKLOADS["chart-sweeps"](7)
    workload.trace_requests = 4
    measured = run.Tracer.request_seconds
    run.Tracer.request_seconds = lambda tracer: measured(tracer) + 1.0
    try:
        _, served, _ = run.per_layer(workload)
    finally:
        run.Tracer.request_seconds = measured
    expect(served.failed > 0, "per-layer: accounting gate missed unexplained traced time")


def check_battery_gate() -> None:
    workload = WORKLOADS["verify-battery"](7)
    results = tuple(CheckResult(n, True, 0.0, 1.0, "", 0.1) for n in CHECK_NAMES)
    expect(workload.check(7, (results, 1)) is None, "verify-battery: gate refused a passing battery")
    broken = (dataclasses.replace(results[0], passed=False),) + results[1:]
    trips(workload, 7, (broken, 1), "a failed check")
    trips(workload, 7, (results, 0), "a memoized battery")
    trips(workload, 7, (results[:-1], 1), "a missing check")


def _perturbed(out: str, path: tuple) -> str:
    data = json.loads(out)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = node[path[-1]] + 1e-3 if not isinstance(node[path[-1]], bool) else not node[path[-1]]
    return json.dumps(data)


POINT_CORRUPTIONS = {
    "coexist": ("margin",),
    "joint-pair": ("effects", "1,1", 0, 0),
    "joint-quad": ("effects", "1,1,1,1", 0, 0),
    "chsh": ("f",),
    "bell-op": ("norm_eigensolver",),
    "lueders": ("trace_distance",),
    "epr": ("outcome_prob_after", "1"),
}


def check_point_gate() -> None:
    workload = WORKLOADS["point-queries"](7)
    seen = set()
    for request in workload.requests(200):
        code, out, err = answer = workload.execute(request)
        expect(workload.check(request, answer) is None, f"point-queries: {request['argv']} refused")
        if code == 1:
            trips(workload, request, (0, "{}", ""), "an accepted rejection")
            seen.add("rejection")
            continue
        trips(workload, request, (1, "", "error: x"), "a refused valid request")
        trips(workload, request, (code, _perturbed(out, POINT_CORRUPTIONS[request["kind"]]), err),
              f"a corrupted {request['kind']} answer")
        seen.add(request["kind"])
    expect(seen == set(POINT_CORRUPTIONS) | {"rejection"}, f"point-queries: only saw {seen}")


def check_table_gate() -> None:
    workload = WORKLOADS["table-decisions"](7)
    for request in workload.requests(40):
        check, rec, oracle = answer = workload.execute(request)
        expect(workload.check(request, answer) is None, "table-decisions: valid answer refused")
        flipped = dataclasses.replace(oracle, feasible=not oracle.feasible)
        trips(workload, request, (check, rec, flipped), "disagreeing routes")
        if rec.feasible:
            jpd = copy.deepcopy(rec.jpd)
            jpd.values[0, 0, 0, 0] += 1e-6
            jpd.values[1, 1, 1, 1] -= 1e-6
            moved = dataclasses.replace(rec, jpd=jpd)
            trips(workload, request, (check, moved, oracle), "a marginal round trip off by 1e-6")


def check_chart_gate() -> None:
    workload = WORKLOADS["chart-sweeps"](7)
    for request in workload.requests(30):
        answer = workload.execute(request)
        expect(workload.check(request, answer) is None, "chart-sweeps: valid chart refused")
        shifted = copy.copy(answer)
        shifted.state = answer.state + 1e-6 * (answer.state @ answer.state)
        trips(workload, request, shifted, "an order-dependent state")
        first = answer.assignments[0]
        for field, value in (("probability", 1.5), ("state", first.state * 1.01)):
            broken = copy.copy(answer)
            broken.assignments = (dataclasses.replace(first, **{field: value}),) + answer.assignments[1:]
            trips(workload, request, broken, f"a region {field} out of range")


def main() -> int:
    check_catalogue()
    for name in ("point-queries", "table-decisions", "chart-sweeps"):
        check_metrics(name)
    check_accounting_gate()
    check_battery_gate()
    check_point_gate()
    check_table_gate()
    check_chart_gate()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
