"""The command line's exit contract, fuzzed.

Hypothesis mutates valid programme and table documents (wrong types,
text, booleans, nulls, nesting, NaN and Infinity literals, finite event
coordinates up to the largest float, deleted and unknown keys, numbers
out of range) and generates argv for every subcommand except battery
runs; a programme is charted at an observer or, without one, checked
for consistency along its default worldline.  ``cli.main`` runs in
process.  Every run exits 0, 1 or 2 without a traceback or a numpy
warning; an exit-1 message is one ``error:`` line, and for a document it
names the mutated field; a document that exits 0 is written back by its
``to_json_dict`` as it was read.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from unsharp_bell import cli
from unsharp_bell.fine import PAIR_KEYS, SINGLE_KEYS, ProbabilityTable
from unsharp_bell.relativistic import programme_from_json_dict, programme_to_json_dict

# The maximally mixed two-particle state as row-major [re, im] pairs.
MIXED = [[0.25, 0.0] if index % 5 == 0 else [0.0, 0.0] for index in range(16)]
PROGRAMMES = (
    {
        "initial": "singlet",
        "lambda": 0.8,
        "measurements": [
            {"event": [0.0, 0.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0], "subsystem": 1},
            {"event": [0.0, 5.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0], "subsystem": 2},
        ],
        "outcomes": [1, -1],
    },
    {
        "initial": MIXED,
        "lambda": 0.5,
        "measurements": [{"event": [1.0, 0.0, 2.0, 0.0], "axis": [1.0, 0.0, 0.0], "subsystem": 2}],
        "outcomes": [1],
    },
)
TABLE = {
    "singles": {str(k): 0.5 for k in SINGLE_KEYS},
    "pairs": {f"{i},{j}": 0.25 for i, j in PAIR_KEYS},
}
# Observers informed of every measurement of both programmes, and of none.
OBSERVERS = ("10,2,0,0", "-10,0,0,0")
# Finite event coordinates at and near the largest float.
HUGE = (1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308)


def run(argv):
    """Exit code, stdout and stderr of one in-process call; numpy warnings fail the test."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse refusing the flags, or --help
                code = exc.code
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2), code
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert len(err.getvalue()) < 300, err.getvalue()
    return code, out.getvalue(), err.getvalue()


def paths(node, prefix=()):
    """Every position in a JSON document, the document itself first."""
    yield prefix
    if isinstance(node, (dict, list)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


def replaced(node, path, value):
    """A copy of node with the value at path replaced, or added under a new key."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = value if len(path) == 1 else replaced(node[path[0]], path[1:], value)
    return copy


def deleted(node, path):
    """A copy of node without the key or list item at path."""
    copy = dict(node) if isinstance(node, dict) else list(node)
    if len(path) == 1:
        del copy[path[0]]
    else:
        copy[path[0]] = deleted(node[path[0]], path[1:])
    return copy


def moved(programme, shift):
    """A copy of a programme document with every event's time moved by shift."""
    for n, measurement in enumerate(programme["measurements"]):
        path = ("measurements", n, "event", 0)
        programme = replaced(programme, path, measurement["event"][0] + shift)
    return programme


def at(node, path):
    for key in path:
        node = node[key]
    return node


# Integers beyond the float range, which JSON carries exactly.
HUGE_INTEGERS = (10**400, -(10**400))
# An integer literal of more digits than int converts (4,300 by default).
# json.dumps cannot print such an int, so a document carries LONG in its
# place and is written by document_text.
LONG = "<a 5001-digit integer>"
LONG_DIGITS = "1" + "0" * 5000


def document_text(document) -> str:
    return json.dumps(document).replace(json.dumps(LONG), LONG_DIGITS)


BAD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, None, True, False, [], {}, *HUGE_INTEGERS]),
    st.text(max_size=4),
    st.sampled_from(["1", "0.5", "nan", "singlet"]),
)


# Keys no reader knows, or knows only elsewhere: an extra table label, a
# misspelt "outcomes", a measurement flag.
EXTRA_KEYS = ("extra", "7", "1,5", "outcome", "sharp", "singles", "lambda", "axis")


def out_of_range(kind: str, path, old):
    """Numbers of the right type that the field at path must refuse, or None for another field.

    For a table entry, a perturbation small enough to stay within [0, 1].
    """
    if kind == "table" and len(path) == 2:
        return st.sampled_from([1.5, -0.2]) | st.sampled_from([1e-3, -1e-3, 1e-7, 1e-12]).map(
            lambda delta: old + delta
        )
    keys = [key for key in path if isinstance(key, str)]
    if keys[-1:] == ["lambda"]:
        return st.sampled_from([1.5, -0.2])
    if keys[-1:] in (["subsystem"], ["outcomes"]) and isinstance(old, int):
        return st.sampled_from([3, 0, -2])
    return None


@st.composite
def mutated_documents(draw):
    """(kind, document, mutated path): one value of a valid document replaced,
    nested, deleted or out of range, one event coordinate made huge, or one
    unknown key added."""
    kind, base = draw(st.sampled_from([("table", TABLE)] + [("programme", p) for p in PROGRAMMES]))
    hows = ["replace", "list", "object", "delete", "add", "range"]
    how = draw(st.sampled_from(hows + (["huge"] if kind == "programme" else [])))
    if how == "huge":
        path = draw(st.sampled_from([p for p in paths(base) if p[-2:-1] == ("event",)]))
        return kind, replaced(base, path, draw(st.sampled_from(HUGE))), path
    if how == "delete":
        path = draw(st.sampled_from([path for path in paths(base) if path]))
        return kind, deleted(base, path), path
    if how == "add":
        parent = draw(st.sampled_from([p for p in paths(base) if isinstance(at(base, p), dict)]))
        key = draw(st.sampled_from([k for k in EXTRA_KEYS if k not in at(base, parent)]))
        path = parent + (key,)
        return kind, replaced(base, path, draw(st.sampled_from([0.0, 1, [1]]))), path
    if how == "range":
        ranged = [p for p in paths(base) if out_of_range(kind, p, at(base, p)) is not None]
        path = draw(st.sampled_from(ranged))
        return kind, replaced(base, path, draw(out_of_range(kind, path, at(base, path)))), path
    path = draw(st.sampled_from(list(paths(base))))
    old = at(base, path)
    value = {"replace": None, "list": [old], "object": {"value": old}}[how]
    if how == "replace":
        value = draw(BAD_VALUES)
    return kind, replaced(base, path, value), path


def table_label_names(key: str) -> list[str]:
    """How messages name the table entry under a JSON key: by the key, or by its labels."""
    try:
        labels = tuple(int(part) for part in key.split(","))
    except ValueError:
        return []
    if len(labels) == 1:
        return [f"entry {labels[0]} ", f"single {labels[0]}"]
    return [f"entry {labels} ", str(labels)]


def field_names(kind: str, path) -> list[str]:
    """Words one of which an exit-1 message must contain to name the field at path.

    A value nested in an object may instead be named by its new key, ``'value'``.
    """
    keys = [key for key in path if isinstance(key, str)]
    if not keys:
        return [f"{kind} JSON", "'value'"]
    key = keys[-1]
    if kind == "table" and key not in ("singles", "pairs"):
        return [repr(key)] + table_label_names(key)
    aliases = {"lambda": ["lambda", "sharpness"], "outcomes": ["outcome"],
               "measurements": ["measurement"]}
    return aliases.get(key, [key]) + ["'value'"]


def read_back(kind: str, document: dict) -> dict:
    """The document as its reader's object writes it out again."""
    if kind == "table":
        return ProbabilityTable.from_json_dict(document).to_json_dict()
    return programme_to_json_dict(programme_from_json_dict(document))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the valid files argv may name (``FILES`` but the missing one)."""
    path = tmp_path_factory.mktemp("exit-contract")
    (path / "uniform.json").write_text(json.dumps(TABLE))
    (path / "uniform.csv").write_text(ProbabilityTable.from_json_dict(TABLE).to_csv_text())
    (path / "programme.json").write_text(json.dumps(PROGRAMMES[0]))
    return path


def pinned(kind, base, path, value):
    """A mutated-document case: the value at path replaced, or added under a new key."""
    return kind, replaced(base, path, value), path


def nan_initial():
    initial = [list(pair) for pair in MIXED]
    initial[5] = [math.nan, 0.0]
    return {**PROGRAMMES[1], "initial": initial}


@settings(max_examples=200, deadline=None)
@given(
    case=mutated_documents(),
    method=st.sampled_from([None, "interval", "exact"]),  # None: fine-check
    observer=st.sampled_from(OBSERVERS + (None,)),  # None: the consistency report
)
@example(case=("programme", nan_initial(), ("initial", 5, 0)), method=None, observer=OBSERVERS[0])
@example(
    case=("programme", replaced(PROGRAMMES[0], ("measurements", 0, "event", 0), "1"),
          ("measurements", 0, "event", 0)),
    method=None,
    observer=OBSERVERS[1],
)
@example(case=pinned("table", TABLE, ("pairs", "1,5"), 0.0), method=None, observer=OBSERVERS[0])
@example(case=pinned("table", TABLE, ("singles", "7"), 0.0), method="exact", observer=OBSERVERS[0])
@example(case=pinned("table", TABLE, ("pairs", "1,3"), 0.26), method=None, observer=OBSERVERS[0])
@example(case=pinned("table", TABLE, ("singles", "-1"), -0.2), method="interval",
         observer=OBSERVERS[0])
@example(case=pinned("programme", {k: v for k, v in PROGRAMMES[1].items() if k != "outcomes"},
                     ("outcome",), [1]),
         method=None, observer=OBSERVERS[0])
@example(case=pinned("programme", PROGRAMMES[0], ("measurements", 1, "sharp"), 1), method=None,
         observer=OBSERVERS[0])
@example(case=pinned("programme", PROGRAMMES[0], ("lambda",), 1.5), method=None,
         observer=OBSERVERS[0])
@example(case=pinned("programme", PROGRAMMES[0], ("measurements", 0, "subsystem"), 3),
         method=None, observer=OBSERVERS[0])
@example(case=pinned("programme", PROGRAMMES[0], ("outcomes", 1), 3), method=None,
         observer=OBSERVERS[1])
@example(case=pinned("programme", PROGRAMMES[0], ("measurements", 0, "event", 0), 1e308),
         method=None, observer=None)
@example(case=pinned("table", TABLE, ("pairs", "1,3"), 10**400), method="exact",
         observer=OBSERVERS[0])
@example(case=pinned("programme", PROGRAMMES[0], ("measurements", 1, "event", 2), -(10**400)),
         method=None, observer=OBSERVERS[0])
@example(case=pinned("programme", PROGRAMMES[0], ("outcomes", 0), 10**400), method=None,
         observer=OBSERVERS[0])
@example(case=pinned("programme", PROGRAMMES[1], ("initial", 0, 1), 10**400), method=None,
         observer=None)
@example(case=pinned("table", TABLE, ("pairs", "1,3"), LONG), method=None, observer=OBSERVERS[0])
@example(case=pinned("programme", PROGRAMMES[0], ("lambda",), LONG), method=None,
         observer=OBSERVERS[0])
@example(case=pinned("programme", PROGRAMMES[1], ("measurements", 0, "event", 1), LONG),
         method=None, observer=None)
@example(case=pinned("programme", PROGRAMMES[0], ("measurements", 1, "subsystem"), LONG),
         method=None, observer=OBSERVERS[1])
@example(case=pinned("programme", PROGRAMMES[0], ("measurements",), 10**400), method=None,
         observer=OBSERVERS[0])
@example(case=pinned("programme", PROGRAMMES[1], ("initial",), "x" * 3000), method=None,
         observer=None)
def test_documents_keep_the_exit_contract(workdir, case, method, observer):
    kind, document, path = case
    target = workdir / f"mutated-{kind}.json"
    if kind == "programme":
        argv = ["chart", "--programme", str(target)]
        argv += [] if observer is None else ["--observer", observer]
    elif method is None:
        argv = ["fine-check", "--table", str(target)]
    else:
        argv = ["fine-solve", "--table", str(target), "--method", method]
    target.write_text(document_text(document))
    code, _, err = run(argv)
    event(f"{argv[0]} exit {code}")
    assert code != 2
    if code == 1:
        assert any(name in err for name in field_names(kind, path)), (path, err)
        return
    # The reader may drop a null "outcomes"; every other value must come back as written.
    expected = {key: value for key, value in document.items() if value is not None}
    assert json.dumps(read_back(kind, document), sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


@settings(max_examples=60, deadline=None)
@given(
    programme=st.sampled_from(PROGRAMMES),
    shift=st.sampled_from(HUGE) | st.floats(min_value=-HUGE[2], max_value=HUGE[2]),
    observer=st.sampled_from(OBSERVERS + (None,)),
)
@example(programme=PROGRAMMES[0], shift=1.7e308, observer=None)  # the mean time overflows
def test_programmes_moved_far_in_time_are_charted(workdir, programme, shift, observer):
    # The events stay close together wherever they are in time, so the
    # default worldline exists and every chart is drawn.
    target = workdir / "moved-programme.json"
    target.write_text(json.dumps(moved(programme, shift)))
    argv = ["chart", "--programme", str(target)]
    code, _, err = run(argv + ([] if observer is None else ["--observer", observer]))
    assert (code, err) == (0, "")


def usually(valid, invalid):
    """Values that are valid about three times in four, so every exit code is reached."""
    return st.integers(0, 3).flatmap(lambda roll: invalid if roll == 0 else valid)


def joined(components, size=3):
    lists = st.lists(components, min_size=size, max_size=size)
    return lists.map(lambda xs: ",".join(map(repr, xs)))


ANY_TEXT = st.sampled_from(["x", "", "1e308", "-inf", "nan", "1,2"])
NUMBER = usually(st.floats(0.0, 1.0).map(repr), st.one_of(st.floats().map(repr), ANY_TEXT))
AXIS = usually(
    joined(st.floats(-1.0, 1.0)),
    st.one_of(
        joined(st.floats()),
        st.lists(st.floats(-1.0, 1.0).map(repr), min_size=2, max_size=4).map(",".join),
        st.sampled_from(["0,0,0", "1e308,1e308,0", "1,0,x", ",,"]),
        ANY_TEXT,
    ),
)
OBSERVER = usually(
    joined(st.floats(-20.0, 20.0), size=4),
    st.one_of(st.lists(st.floats().map(repr), min_size=3, max_size=5).map(",".join), ANY_TEXT),
)
FILES = ("uniform.json", "uniform.csv", "programme.json", "missing.json")
SEED = st.one_of(st.integers(max_value=-1).map(str), st.sampled_from(["x", "1.5", ""]))
AXES = {f"--n{i}": AXIS for i in (1, 2, 3, 4)}
REQUIRED = {"--lambda", "--grid", "--table", "--axis", "--programme"}
# Each subcommand's flags and the values drawn for them; verify-all gets only
# seeds it must refuse, so the battery never runs.
SUBCOMMANDS = {
    "coexist": {"--lambda": NUMBER, "--n1": AXIS, "--n2": AXIS},
    "joint": {"--lambda": NUMBER, **AXES},
    "bell-op": {"--lambda": NUMBER, "--angle": NUMBER, **AXES},
    "chsh": {"--lambda": NUMBER, "--angle": NUMBER, **AXES},
    "scan": {"--grid": usually(st.integers(2, 200).map(str), st.sampled_from(["-3", "0", "x"])),
             "--format": st.sampled_from(["json", "csv", "xml"])},
    "fine-check": {"--table": st.sampled_from(FILES)},
    "fine-solve": {"--table": st.sampled_from(FILES),
                   "--method": st.sampled_from(["interval", "exact", "other"])},
    "lueders": {"--lambda": NUMBER, "--axis": AXIS, "--state-axis": AXIS, "--epsilon": NUMBER},
    "epr": {"--lambda": NUMBER, "--axis": AXIS},
    "chart": {"--programme": st.sampled_from(FILES), "--observer": OBSERVER},
    "verify-all": {"--seed": SEED},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for flag, values in SUBCOMMANDS[command].items():
        # Required flags are nearly always given and optional ones half the
        # time; a missing required flag must exit 2.  Without a seed to
        # refuse, verify-all would run the battery.
        if flag in REQUIRED or command == "coexist":
            present = draw(st.integers(0, 7)) > 0
        else:
            present = draw(st.booleans())
        if present or command == "verify-all":
            value = draw(values)
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if command == "chart" and draw(st.booleans()):
        argv.append("--check")
    return argv


# Flag values of 3,000 characters: a refusal quotes them once, cut short.
LONG_AXIS = "1," + "x" * 3000 + ",0"
LONG_OBSERVER = "1," + "x" * 3000 + ",0,0"


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
@example(argv=["coexist", "--lambda", "0.5", "--n1", "1,0,0", "--n2", "1e308,1e308,0"])
@example(argv=["verify-all", "--seed", "-1"])
@example(argv=["chart", "--programme", "programme.json", "--observer=1e155,1e155,0,0"])
@example(argv=["chsh", "--lambda", "0.5", "--angle", "1e308"])
@example(argv=["bell-op", "--lambda", "0.5", "--angle=-9e307"])
@example(argv=["epr", "--lambda", "0.5", "--axis", LONG_AXIS])
@example(argv=["chart", "--programme", "programme.json", "--observer", LONG_OBSERVER])
def test_argv_keeps_the_exit_contract(workdir, argv):
    def resolve(token):
        flag, equals, value = token.rpartition("=")
        return f"{flag}{equals}{workdir / value}" if value in FILES else token

    code, out, err = run([resolve(token) for token in argv])
    event(f"{argv[0]} exit {code}")
    if argv[0] == "verify-all":
        assert code == 2 or (code == 1 and "seed" in err)
    if code == 0 and "csv" not in argv and "--format=csv" not in argv:
        json.loads(out)


@pytest.mark.parametrize(
    ("argv", "named"),
    [
        (["epr", "--lambda", "0.5", "--axis", LONG_AXIS], "--axis"),
        (["lueders", "--lambda", "0.5", "--axis", "0,0,1", "--state-axis", LONG_AXIS],
         "--state-axis"),
        (["coexist", "--lambda", "0.5", "--n1", "1,0,0", "--n2", LONG_AXIS], "--n2"),
        (["chart", "--programme", "programme.json", "--observer", LONG_OBSERVER], "--observer"),
    ],
    ids=["epr-axis", "lueders-state-axis", "coexist-n2", "chart-observer"],
)
def test_long_values_are_quoted_once_by_name(workdir, argv, named):
    # Such values used to be quoted whole, and twice for an axis: 3,045 and
    # 6,071 bytes of stderr, the observer's naming no flag.
    argv = [str(workdir / token) if token in FILES else token for token in argv]
    code, _, err = run(argv)  # one error line under 300 characters
    assert code == 1
    assert err.startswith(f"error: {named} ")
