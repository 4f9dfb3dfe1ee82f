"""The command line's JSON writer prints exactly what ``json.dumps`` prints.

``cli._to_json`` replaces ``json.dumps(document, sort_keys=True, indent=2)``,
which runs the pure-Python encoder.  Hypothesis builds documents of the
shapes the subcommands return (nested dicts and lists, tuples, empty
containers, float lists and ``[re, im]`` pair lists, int-keyed dicts) and
seeds them with the values that must leave the fast paths: NaN, the
infinities, ``-0.0``, bools beside ints, ``np.float64``, and keys and text
with non-ASCII, control and quote characters.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unsharp_bell.cli import _to_json
from unsharp_bell.operators import matrix_to_pairs

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
floats = st.floats() | st.sampled_from(SPECIAL)
finite = st.floats(allow_nan=False, allow_infinity=False)
text = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é ü ℏ", " ", "😀", ""])
scalars = (
    st.none() | st.booleans() | st.integers() | floats | text
    | floats.map(np.float64)
)
float_lists = st.lists(floats) | st.lists(finite, min_size=1)
pair_lists = (
    st.lists(st.lists(finite, min_size=2, max_size=2), min_size=1, max_size=20)
    | st.lists(st.lists(floats, min_size=2, max_size=2), max_size=20)
)
leaves = scalars | float_lists | pair_lists
keys = text | st.integers() | floats | st.booleans() | st.none()


def containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(text, children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=5)
        | st.dictionaries(keys, children, max_size=4)
    )


documents = st.recursive(leaves, containers, max_leaves=30)


def assert_writes_as_json(document):
    try:
        want = json.dumps(document, sort_keys=True, indent=2)
    except TypeError:
        with pytest.raises(TypeError):
            _to_json(document)
        return
    assert _to_json(document) == want


@settings(max_examples=150, deadline=None)
@given(documents)
@example({9: [1.0], 10: [2.0], -1: []})
@example({"a": [[math.nan, 0.0], [1.0, -0.0]], "b": [math.inf, -math.inf, -0.0]})
@example([[1.0, 2.0], [True, 0.0]])
@example([1.0, 2, True, None, np.float64(0.5)])
@example({True: 1, 2: 3, 0.5: "x", -math.inf: ()})
@example({None: 1, "é\n": {}, "": []})
@example({"x": 1, 2: 3})  # keys json cannot sort
def test_writer_prints_what_json_dumps_prints(document):
    assert_writes_as_json(document)


@given(st.sampled_from([2, 4]).flatmap(
    lambda dim: st.lists(st.tuples(finite, finite), min_size=dim * dim, max_size=dim * dim)
))
def test_matrix_pair_lists_print_as_json(entries):
    # the pair fast path at several depths, on what matrix_to_pairs returns
    dim = math.isqrt(len(entries))
    pairs = matrix_to_pairs(np.array([complex(*z) for z in entries]).reshape(dim, dim))
    assert_writes_as_json({"effects": {"1,-1": pairs}, "state": pairs, "list": [pairs, pairs]})


@pytest.mark.parametrize("value", [
    np.zeros(2), 1j, np.int64(3), np.bool_(True), object(), {(1, 2): 0.0}, [np.float32(1.0)],
    [[1.0, np.int64(2)]], {"a": [0.0, 1j]},
])
def test_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _to_json(value)
