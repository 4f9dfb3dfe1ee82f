"""Stored command and chart outputs, compared within a float bound on any kernel.

The pinned-output tests print hundreds of documents whose floats carry the
last bits of numpy's BLAS and LAPACK kernels, which differ between kernel
families: under OpenBLAS's Haswell and SkylakeX kernels these outputs differ
by up to 1.8e-15, 4 units in the last place of max(|a|, |b|, 1).  So each
document is compared with a fixture under ``tests/data/``: exit codes,
keys, strings, ints, bools and None exactly, each float within ``ULPS``
units in the last place of ``max(|a|, |b|, 1)``.  A message that quotes
computed floats is stored split at its decimal numbers
(``text_and_floats``), so its words compare exactly and its numbers within
the same bound.  Where numpy's bundled OpenBLAS runs the kernels the
digests were taken with, the tests also check the output's sha256, bit for
bit.

Run ``PYTHONPATH=src python tests/pinned_outputs.py`` to write the
fixtures from the current code.
"""

import ctypes
import gzip
import json
import math
import re
from pathlib import Path

import numpy as np

DATA = Path(__file__).with_name("data")
POINT_QUERY_FIXTURE = "point_queries.json.gz"
CHART_FIXTURE = "charts.json.gz"
# Floats may differ by this many units in the last place of max(|a|, |b|, 1).
ULPS = 16
# The kernel family the sha256 digests were taken with.
DIGEST_CORE = "SkylakeX"


def openblas_core() -> str | None:
    """The kernel family numpy's bundled OpenBLAS picked, or None where no bundled library
    answers (a numpy build without one, or another platform's wheel layout)."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy loaded: the same handle
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


# A decimal number as ``repr`` writes a float: 0.69, 1e-05, 2.5e+20.
_DECIMAL = re.compile(r"(-?\d+(?:\.\d+(?:e[-+]\d+)?|e[-+]\d+))")


def text_and_floats(text: str) -> list:
    """``text`` split at its decimal numbers: its words, then each number as a float, in turn."""
    return [float(piece) if i % 2 else piece for i, piece in enumerate(_DECIMAL.split(text))]


def mismatches(actual, expected, path: str = "$") -> list[str]:
    """Where ``actual`` departs from ``expected``, two documents as ``json.loads`` returns them."""
    if type(actual) is not type(expected):
        return [f"{path}: {actual!r} is not of the type of {expected!r}"]
    if isinstance(expected, float):
        if actual == expected or (math.isnan(actual) and math.isnan(expected)):
            return []
        bound = ULPS * math.ulp(max(abs(actual), abs(expected), 1.0))
        if math.isfinite(bound) and abs(actual - expected) <= bound:
            return []
        return [f"{path}: {actual!r} differs from {expected!r} by more than {bound!r}"]
    if isinstance(expected, dict):
        if sorted(actual) != sorted(expected):
            return [f"{path}: keys {sorted(actual)} are not {sorted(expected)}"]
        return [gap for key in expected for gap in mismatches(actual[key], expected[key],
                                                              f"{path}.{key}")]
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return [f"{path}: {len(actual)} items, not {len(expected)}"]
        return [gap for i, (a, e) in enumerate(zip(actual, expected))
                for gap in mismatches(a, e, f"{path}[{i}]")]
    return [] if actual == expected else [f"{path}: {actual!r} is not {expected!r}"]


def load(name: str):
    with gzip.open(DATA / name, "rt") as f:
        return json.load(f)


def assert_matches(documents, name: str) -> None:
    """``documents`` (anything ``json.dumps`` writes) match the fixture ``name``."""
    gaps = mismatches(json.loads(json.dumps(documents)), load(name))
    assert not gaps, f"{len(gaps)} departures from {name}, first: {gaps[:5]}"


def write(documents, name: str) -> None:
    text = json.dumps(documents, sort_keys=True, separators=(",", ":"))
    # mtime 0: the same documents give the same bytes
    (DATA / name).write_bytes(gzip.compress(text.encode(), mtime=0))


if __name__ == "__main__":
    from test_cli import point_query_documents, point_query_runs
    from test_relativistic import chart_documents, chart_runs

    DATA.mkdir(exist_ok=True)
    write(point_query_documents(point_query_runs()), POINT_QUERY_FIXTURE)
    write(chart_documents(*chart_runs()), CHART_FIXTURE)
