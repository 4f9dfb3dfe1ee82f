"""Benchmark of the unsharp_bell package, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process drives the package in a single-client closed loop: the next
request is sent when the previous one has returned, and answers are
checked between batches of requests.  The process is pinned to one CPU,
BLAS and OpenMP are capped at one thread, and the cyclic garbage
collector runs between batches, not inside them.  Every metric is
printed by name with its unit; the last line of standard output is one
JSON object, and the exit status is 1 if any answer failed its check.

``--trace 0`` serves requests for ``--seconds`` seconds, and at least the
workload's ``minimum`` (three batteries on ``verify-battery``), and
reports the end-to-end metrics: ``setup_s``, the median over seven fresh
processes of the CPU time of a process that imports the package, warms
it up and exits; ``latency_p50_us`` and ``latency_p99_us`` over every
request of the run (on ``verify-battery`` one request is one full,
uncached battery); ``throughput_ops_s``, completed requests per second
spent in the package; and ``peak_rss_mb`` of the serving process.  Times
are CPU times.  Set-up, throughput and the median are scaled to a nominal
host speed by the calibration loop of ``calibrate.py``; the unscaled
figures and the scale are printed beside them.  The 99th percentile is
not scaled: on the 2-vCPU VM the benchmark was built on, the slowest
requests changed far less with the host's slow phases than the bulk of
the requests and the calibration loop did, and scaled it spread up to
four times as widely from run to run as unscaled.

``--trace 1`` runs a fixed, seed-determined set of requests three times:
untraced, traced, and traced again to assert that the exact counts repeat.
It reports per-layer metrics from the first traced pass and stores its
spans under ``.perfbench/``.
"""

from __future__ import annotations

import os

THREAD_CAP = "1"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = THREAD_CAP

import argparse  # noqa: E402  (the thread caps must precede numpy's import)
import functools  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Calibration, quiet_scale  # noqa: E402
from tracing import JOINT_CONSTRUCTIONS, LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = Path("src")
SPAN_DIR = Path(".perfbench")
SETUP_PROBES = 7
# Largest share of the traced wall time the span accounting may leave unexplained.
UNACCOUNTED_SHARE = 1e-3
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "peak_rss_mb": "MB",
}
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
PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.parser_build_s": "s",
    "spin_povm.joint_attempts": "count",
    "spin_povm.joint_rejected_share": "ratio",
    "fine.chsh_check_s": "s",
    "fine.reconstruct_jpd_s": "s",
    "fine.feasibility_oracle_s": "s",
    "fine.oracle_decisions": "count",
    "fine.feasible_share": "ratio",
    "fme.rows_generated": "count",
    "fme.rows_kept": "count",
    "operators.eig_calls": "count",
    "operators.sqrt_psd_calls": "count",
    **{f"verify.{name}_s": "s" for name in CHECK_NAMES},
    "harness.requests": "count",
    "harness.check_s": "s",
    "harness.self_s": "s",
    "harness.unaccounted_s": "s",
    "tracing_overhead_s": "s",
    "error_rate": "ratio",
}


@dataclass
class Served:
    """What one pass of the closed loop observed."""

    latencies: list = field(default_factory=list)
    windows: list = field(default_factory=list)  # (start, end) of each request, if calibrated
    failed: int = 0
    errors: list = field(default_factory=list)
    traits: Counter = field(default_factory=Counter)
    wall_s: float = 0.0
    check_s: float = 0.0
    last: object = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def serve(workload, requests, *, seconds=None, minimum=1, tracer=None, calibration=None) -> Served:
    """Closed loop over ``requests``: time each call, then check the answers.

    Requests are drawn and answers checked in batches of ``workload.batch``,
    so input generation, checking and garbage collection stay out of the
    code paths between two timed calls.  Stops when ``requests`` runs out
    or, given ``seconds``, at the first batch boundary past the deadline
    once ``minimum`` requests are done.  Under a tracer, each request is
    one traced request; checks run untraced.  Under a calibration, the
    time its loop took inside a request is not counted as the request's.

    A request's latency is the CPU time the serving thread spent on it.
    The package does no I/O and never waits, so this is its wall time less
    the time the host gave the CPU to other work.
    """
    served = Served()
    clock, cpu_clock = time.perf_counter, time.thread_time
    call = workload.execute if tracer is None else functools.partial(tracer.request, workload.execute)
    began = clock()
    deadline = None if seconds is None else began + seconds
    requests = iter(requests)
    while deadline is None or served.attempted < minimum or clock() < deadline:
        batch = list(itertools.islice(requests, workload.batch))
        if not batch:
            break
        answers = []
        gc.collect()
        gc.disable()
        if calibration is not None:
            calibration.burst()
        if tracer is not None:
            tracer.enabled = True
        for request in batch:
            if calibration is not None:
                aside = calibration.spent
                calibration.request_start = start = clock()
            used = cpu_clock()
            try:
                answers.append((call(request), None))
            except Exception as exc:  # a request that raises is a failed request
                answers.append((None, f"raised {type(exc).__name__}: {exc}"))
            used = cpu_clock() - used
            if calibration is not None:
                calibration.request_start = None
                served.windows.append((start, clock()))
                used -= calibration.spent - aside
            served.latencies.append(used)
        if tracer is not None:
            tracer.enabled = False
        gc.enable()
        checking = clock()
        for request, (answer, error) in zip(batch, answers):
            if error is None:
                try:
                    error = workload.check(request, answer)
                except Exception as exc:  # a malformed answer fails its check
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is None:
                served.traits.update(workload.traits(request, answer))
            else:
                served.failed += 1
                if len(served.errors) < 5:
                    served.errors.append(error)
            served.last = answer
        served.check_s += clock() - checking
    served.wall_s = clock() - began
    return served


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of fresh processes that import the package and warm up.

    Returns the median wall time from process start until the warm-up has
    finished, and the median CPU time (user and system) of the whole probe
    process, each probe's scaled to the nominal host speed by a
    calibration taken just before it.
    """
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        scale = quiet_scale()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            if probe.wait(timeout=PROBE_TIMEOUT_S) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe for {workload} failed")
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        times.append(elapsed)
        scaled.append(cpu * scale)
    return statistics.median(times), statistics.median(scaled)


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_caps": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


def shares(served: Served) -> dict:
    done = served.attempted - served.failed
    return {trait: n / done for trait, n in sorted(served.traits.items())} if done else {}


def timings(served: Served, setup: float, scales) -> dict:
    latencies = [t * scale for t, scale in zip(served.latencies, scales)]
    return {
        "setup_s": setup,
        "throughput_ops_s": (served.attempted - served.failed) / sum(latencies),
        "latency_p50_us": percentile(latencies, 50) * 1e6,
        # Unscaled: see the module docstring.
        "latency_p99_us": percentile(served.latencies, 99) * 1e6,
    }


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, Served, list]:
    raw_setup, setup = setup_seconds(workload.name, seed)
    workload.warmup()
    with Calibration() as calibration:
        served = serve(workload, workload.stream(), seconds=seconds, minimum=workload.minimum,
                       calibration=calibration)
    scales = calibration.scales(served.windows)
    metrics = timings(served, setup, scales)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = timings(served, raw_setup, itertools.repeat(1.0))
    notes = [
        f"latency samples {served.attempted}, calibration samples {len(calibration.samples)}, "
        f"median time scale {statistics.median(scales):.4f}",
        "unscaled figures (set-up as wall time to ready, requests as CPU time) "
        + json.dumps({k: round(v, 6) for k, v in raw.items()}),
    ]
    return metrics, served, notes


def per_layer(workload) -> tuple[dict, Served, list[str]]:
    """Untraced pass, traced pass, and a second traced pass for the counts.

    A difference between the two traced passes' exact counts is reported
    as a failed request.
    """
    requests = workload.requests(workload.trace_requests)
    workload.warmup()
    plain = serve(workload, requests)
    tracer = Tracer()
    tracer.install()
    try:
        traced = serve(workload, requests, tracer=tracer)
        counts = tracer.exact_counts()
        metrics = layer_metrics(workload, tracer, plain, traced)
        path = tracer.write(SPAN_DIR, f"spans-{workload.name}")
        tracer.reset()
        again = serve(workload, requests, tracer=tracer)
        repeat = tracer.exact_counts()
    finally:
        tracer.uninstall()
    total = Served(
        latencies=plain.latencies + traced.latencies + again.latencies,
        failed=plain.failed + traced.failed + again.failed,
        errors=plain.errors + traced.errors + again.errors,
        traits=plain.traits + traced.traits + again.traits,
    )
    drift = sorted(k for k in counts.keys() | repeat.keys() if counts.get(k) != repeat.get(k))
    if drift:
        total.failed += 1
        total.errors.append(f"exact counts differ between traced passes: {drift}")
    unaccounted = metrics["harness.unaccounted_s"]
    if abs(unaccounted) > UNACCOUNTED_SHARE * traced.wall_s:
        total.failed += 1
        total.errors.append(f"{unaccounted:.6f} s of the traced wall time is not accounted for")
    metrics["error_rate"] = total.failed / total.attempted
    accounted = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    notes = [
        f"traced wall {traced.wall_s:.6f} s = layer self {accounted:.6f} s"
        f" + answer checks {traced.check_s:.6f} s + harness {metrics['harness.self_s']:.6f} s"
        f" + unaccounted {unaccounted:.9f} s",
        f"exact counts (repeated in a second traced pass) {json.dumps(counts)}",
        f"spans of the traced pass written to {path}",
    ]
    return metrics, total, notes


def layer_metrics(workload, tracer, plain: Served, traced: Served) -> dict:
    metrics = {}
    layers = tracer.layer_totals()
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
        metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
    index = tracer.function
    attempts = sum(tracer.calls[index(f)] for f in JOINT_CONSTRUCTIONS)
    rejected = sum(tracer.rejected(f, "CoexistenceError") for f in JOINT_CONSTRUCTIONS)
    decisions = tracer.counters["fine.oracle_decisions"]
    checks = workload.check_seconds(plain.last) if plain.failed == 0 else {}
    # Harness time, measured part by part: the workload's own code inside
    # each request span, the tracer's hooks, and the closed loop's time
    # outside the request spans.
    outside = traced.wall_s - traced.check_s - tracer.request_seconds()
    harness = tracer.self_s[0] + tracer.hook_s + outside
    metrics.update(
        {
            "cli.parser_build_s": tracer.total_s[index("cli.build_parser")],
            "spin_povm.joint_attempts": attempts,
            "spin_povm.joint_rejected_share": rejected / attempts if attempts else 0.0,
            "fine.chsh_check_s": tracer.total_s[index("fine.chsh_check")],
            "fine.reconstruct_jpd_s": tracer.total_s[index("fine.reconstruct_jpd")],
            "fine.feasibility_oracle_s": tracer.total_s[index("fine.feasibility_oracle")],
            "fine.oracle_decisions": decisions,
            "fine.feasible_share": tracer.counters["fine.oracle_feasible"] / decisions if decisions else 0.0,
            "fme.rows_generated": tracer.counters["fme.rows_generated"],
            "fme.rows_kept": tracer.counters["fme.rows_kept"],
            "operators.eig_calls": tracer.counters["operators.eig_calls"],
            "operators.sqrt_psd_calls": tracer.calls[index("operators.sqrt_psd")],
            **{f"verify.{name}_s": checks.get(name, 0.0) for name in CHECK_NAMES},
            "harness.requests": traced.attempted,
            "harness.check_s": traced.check_s,
            "harness.self_s": harness,
            "harness.unaccounted_s": traced.wall_s - traced.check_s - harness
            - sum(t["self_s"] for t in layers.values()),
            # Request time only: the answer checks run untraced in both passes.
            "tracing_overhead_s": sum(traced.latencies) - sum(plain.latencies),
        }
    )
    return metrics


def report(metrics: dict, units: dict, served: Served, notes: list[str]) -> None:
    for name, unit in units.items():
        print(f"{name:<36} {metrics[name]:>16.6f} {unit}")
    print(f"requests attempted {served.attempted}, failed {served.failed}, "
          f"error_rate {served.failed / served.attempted:.6f} ratio")
    for error in served.errors:
        print(f"failure: {error}")
    for trait, share in shares(served).items():
        print(f"input share {trait:<28} {share:.4f}")
    for note in notes:
        print(note)
    print("environment " + json.dumps(environment(), sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the whole run, set-up probes included: no migrations.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SOURCE / "unsharp_bell" / "__init__.py").is_file():
        print(f"error: {SOURCE / 'unsharp_bell'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE.resolve()))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, served, notes = per_layer(workload)
        units = PER_LAYER
    else:
        metrics, served, notes = end_to_end(workload, args.seed, args.seconds)
        units = END_TO_END
    report(metrics, units, served, notes)
    result = {
        "correct": served.failed == 0,
        "attempted": served.attempted,
        "failed": served.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 1 if served.failed else 0


if __name__ == "__main__":
    sys.exit(main())
