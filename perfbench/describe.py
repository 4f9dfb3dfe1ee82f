"""Record what each workload feeds the package, as ``perfbench/WORKLOADS.json``.

    python3 perfbench/describe.py

Run from the repository root.  For each workload it serves the traced
run's request set (untimed) at seeds 1 to 3 and records the share of the
generated requests with each behaviour-deciding property, next to why the
workload was chosen, its loop type, the assumptions behind its input mix
and the environment.  The shares describe the generator's output, which
is assumed traffic: nobody observed it.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import run  # sets the thread caps before numpy is imported

sys.path.insert(0, str(run.SOURCE.resolve()))

from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)


def describe(name: str) -> dict:
    cls = WORKLOADS[name]
    entry = {
        "why": cls.why,
        "loop": "closed, 1 client, no think time",
        "requests_per_traced_pass": cls.trace_requests,
        "properties": cls.properties,
        "assumed_unverified": cls.assumptions,
    }
    if name == "verify-battery":
        return entry
    per_seed = []
    for seed in SEEDS:
        workload = cls(seed)
        served = run.serve(workload, workload.requests(cls.trace_requests))
        if served.failed:
            raise SystemExit(f"{name} seed {seed}: {served.errors}")
        per_seed.append(run.shares(served))
    traits = sorted({t for shares in per_seed for t in shares})
    entry["generated_shares"] = {
        t: round(statistics.mean(s.get(t, 0.0) for s in per_seed), 4) for t in traits
    }
    entry["generated_over"] = f"seeds {list(SEEDS)}, {cls.trace_requests} requests each"
    return entry


def main() -> None:
    record = {
        "environment": run.environment(),
        "workloads": {name: describe(name) for name in WORKLOADS},
    }
    path = Path(__file__).with_name("WORKLOADS.json")
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
