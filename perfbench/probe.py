"""Set-up probe: import the package, warm one workload up, then print ``ready``.

    python3 perfbench/probe.py WORKLOAD SEED

Run from the repository root; ``run.py`` times it from process start to
the ``ready`` line to measure set-up time.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2])).warmup()
print("ready", flush=True)
