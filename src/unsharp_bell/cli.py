"""Command-line front end.

Every subcommand maps onto one library operation and returns its
document: a dict that ``main`` writes as JSON, or text (CSV where a table
is the natural shape, and the ``verify-all`` report).  ``main`` is the one
writer: it serializes the document and writes it once, to stdout or to the
``--out`` file every subcommand takes.  Output is deterministic for a
given argument list and seed: keys are sorted, floats use ``repr``
precision, and the only randomized subcommand (``verify-all``) is seeded
by its ``--seed`` flag alone; no environment variable changes the seed.
The serializer ``_to_json`` prints the bytes of
``json.dumps(document, sort_keys=True, indent=2)``, whose ``indent`` turns
off the C encoder: it prints a list of floats, and a matrix's list of
``[re, im]`` pairs, with one string operation each.

The parser is built on the first ``main`` call and reused for the rest of
the process, so in-process callers do not pay for argparse set-up on every
request.  A call is parsed by its subcommand's own parser, so argparse
reads each flag once; the top-level parser reads only an argument list
that names no subcommand first, and refuses leftover arguments with its
own usage line, as its ``parse_args`` would.  Repeated ``main`` calls in
one process print the same bytes as the same argument list and seed run
in a fresh process.

Exit codes: 0 on success (for ``verify-all``, all checks passing), 1 for
an operation rejecting its inputs, 2 for unusable flags.  Note that the
CHSH bound 2/lambda^2 is infinite at lambda = 0; JSON output renders it
as ``Infinity``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import re
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import fine
from .bell import (
    BellConfiguration,
    bell_norm,
    bell_operator,
    chsh_report,
    coplanar_configuration,
    operator_chsh_closed_form,
    operator_chsh_holds,
    orthogonal_configuration,
    scan_lambda_threshold,
)
from .instruments import disturbance_report, epr_measurement
from .operators import _echo, _json_int, comma_floats, matrix_to_pairs
from .relativistic import (
    SpacetimeEvent,
    check_consistency,
    observer_chart,
    programme_from_json_dict,
)
from .sampling import DEFAULT_SEED
from .spin_povm import (
    joint_observable_pair,
    pair_coexistent,
    parse_direction,
    quadruple_joint,
    unit_vector,
    unsharp_effect,
)
from .verify import run_all

__all__ = ["main", "main_entry"]


def _axes(values) -> list:
    """``--n1``, ``--n2``, ... in order, as parsed directions."""
    return [parse_direction(text, f"--n{n}") for n, text in enumerate(values, start=1)]


def _configuration(args) -> BellConfiguration:
    axes = [args.n1, args.n2, args.n3, args.n4]
    if args.angle is not None:
        if any(a is not None for a in axes):
            raise ValueError("give either --angle or explicit axes, not both")
        return coplanar_configuration(args.sharpness, args.angle)
    if all(a is None for a in axes):
        return orthogonal_configuration(args.sharpness)
    if any(a is None for a in axes):
        raise ValueError("explicit axes need all of --n1 --n2 --n3 --n4")
    return BellConfiguration(args.sharpness, *_axes(axes))


def _cmd_coexist(args) -> dict:
    n1, n2 = _axes([args.n1, args.n2])
    coexistent, margin = pair_coexistent(args.sharpness, n1, n2)
    return {
        "sharpness": args.sharpness,
        "axis1": unit_vector(n1).tolist(),
        "axis2": unit_vector(n2).tolist(),
        "coexistent": coexistent,
        "margin": margin,
    }


def _cmd_joint(args) -> dict:
    axes = [args.n1, args.n2, args.n3, args.n4]
    given = [a for a in axes if a is not None]
    if len(given) == 2 and axes[2] is None and axes[3] is None:
        joint = joint_observable_pair(args.sharpness, *_axes(axes[:2]))
    elif len(given) == 4:
        joint = quadruple_joint(args.sharpness, *_axes(axes))
    else:
        raise ValueError("joint needs --n1 --n2 (pair) or --n1 .. --n4 (quadruple)")
    return {
        "sharpness": args.sharpness,
        "min_eigenvalue": joint.min_eigenvalue,
        "effects": {
            ",".join(str(s) for s in key): matrix_to_pairs(effect)
            for key, effect in joint.effects.items()
        },
    }


def _cmd_bell_op(args) -> dict:
    config = _configuration(args)
    operator = bell_operator(config)
    eigs = np.linalg.eigvalsh(operator)
    op_result = operator_chsh_holds(config)
    return {
        "sharpness": config.sharpness,
        "axes": [a.tolist() for a in config.axes],
        "bell_operator": matrix_to_pairs(operator),
        "norm_closed_form": bell_norm(config),
        "norm_eigensolver": float(np.max(np.abs(eigs))),
        "smeared_operator": matrix_to_pairs(op_result.operator),
        "operator_chsh_holds": op_result.holds,
        "smeared_min_eig": op_result.min_eig,
        "smeared_max_eig": op_result.max_eig,
    }


def _cmd_chsh(args) -> dict:
    config = _configuration(args)
    report = chsh_report(config)
    return {
        **vars(report),  # shallow: asdict would deep-copy the pair_probs replaced below
        "pair_probs": {f"{i},{j}": p for (i, j), p in report.pair_probs.items()},
        "operator_chsh_holds": operator_chsh_closed_form(config),
    }


_SCAN_COLUMNS = ("lambda", "f", "F", "max_op_violation", "violated")


def _cmd_scan(args) -> dict | str:
    result = scan_lambda_threshold(args.grid)
    rows = zip(
        result.sharpness.tolist(),
        itertools.repeat(result.f),
        result.bound.tolist(),
        result.max_operator_violation.tolist(),
        result.violated.tolist(),
    )
    if args.format == "json":
        return {
            "threshold": result.threshold,
            "singlet_threshold": result.singlet_threshold,
            "operator_threshold": result.operator_threshold,
            "best_angle": result.best_angle,
            "rows": [dict(zip(_SCAN_COLUMNS, row)) for row in rows],
        }
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(_SCAN_COLUMNS)
    writer.writerows(
        [*map(repr, numbers), "true" if violated else "false"] for *numbers, violated in rows
    )
    return out.getvalue()


def _read_json(path: str):
    """A JSON document from a file, whose reader refuses an overlong integer literal by field."""
    text = Path(path).read_text()
    try:
        return json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _load_table(path: str) -> fine.ProbabilityTable:
    if path.endswith(".csv"):
        return fine.ProbabilityTable.from_csv_text(Path(path).read_text())
    return fine.ProbabilityTable.from_json_dict(_read_json(path))


def _cmd_fine_check(args) -> dict:
    table = _load_table(args.table)
    check = fine.chsh_check(table)
    witness = None if check.all_hold else asdict(fine.find_witness(table))
    return {**asdict(check), "witness": witness}


def _cmd_fine_solve(args) -> dict:
    table = _load_table(args.table)
    if args.method == "exact":
        result = fine.feasibility_oracle(table)
    else:
        result = fine.reconstruct_jpd(table)
    return {
        "feasible": result.feasible,
        "method": result.method,
        "witness": None if result.witness is None else asdict(result.witness),
        "jpd": result.jpd.to_json_dict() if result.feasible else None,
        "roundtrip_residual": (
            fine.roundtrip_residual(table, result.jpd) if result.feasible else None
        ),
        "margin": result.margin,
        "near_boundary": result.near_boundary,
        "rationalization_error": (
            fine.rationalization_error(table) if args.method == "exact" else None
        ),
    }


def _cmd_lueders(args) -> dict:
    axis = parse_direction(args.axis, "--axis")
    state_axis = parse_direction(args.state_axis, "--state-axis") if args.state_axis else axis
    report = disturbance_report(
        unsharp_effect(state_axis, 1.0), unsharp_effect(axis, args.sharpness), args.epsilon
    )
    return {
        "sharpness": args.sharpness,
        "axis": unit_vector(axis).tolist(),
        "probability": report.probability,
        "epsilon": report.epsilon,
        "trace_distance": report.distance,
        "bound": report.bound,
        "holds": report.holds,
    }


def _cmd_epr(args) -> dict:
    result = epr_measurement(parse_direction(args.axis, "--axis"), args.sharpness)
    return {
        "sharpness": result.sharpness,
        "axis": result.axis.tolist(),
        "probabilities": {str(k): v for k, v in result.probabilities.items()},
        "reduced_pre": matrix_to_pairs(result.reduced_pre),
        "reduced_post_components": {
            str(k): matrix_to_pairs(v)
            for k, v in result.reduced_post_components.items()
        },
        "reduced_post_conditionals": {
            str(k): matrix_to_pairs(v)
            for k, v in result.reduced_post_conditionals.items()
        },
        "reduced_post_mixture": matrix_to_pairs(result.reduced_post_mixture),
        "outcome_prob_after": {
            str(k): v for k, v in result.outcome_prob_after.items()
        },
    }


def _cmd_chart(args) -> dict:
    programme = programme_from_json_dict(_read_json(args.programme))
    data = {}
    if args.observer is not None:
        observer = SpacetimeEvent.from_sequence(comma_floats(
            args.observer, 4, "--observer needs four comma-separated coordinates t,x,y,z"
        ))
        data["chart"] = observer_chart(programme, observer).to_json_dict()
    if args.check or args.observer is None:
        report = check_consistency(programme)
        data["consistency"] = {**asdict(report), "all_pass": report.all_pass}
    return data


def _cmd_verify_all(args) -> tuple[dict | str, int]:
    """The battery's report, and exit status 1 when a check fails."""
    results = run_all(args.seed)
    passed = sum(1 for res in results if res.passed)
    status = 0 if passed == len(results) else 1
    if args.format == "json":
        checks = [
            {**asdict(res), "seed": args.seed,
             "headroom": res.tolerance / res.deviation if res.deviation > 0.0 else None}
            for res in results
        ]
        return {"checks": checks, "passed": passed, "total": len(results)}, status
    # A check can fail on a bound other than its tolerance, so a FAIL line says why.
    lines = [
        f"{'PASS' if res.passed else 'FAIL'} {res.name}: max deviation {res.deviation:.3e} "
        f"(tolerance {res.tolerance:.1e}, {res.seconds:.2f}s)"
        + ("" if res.passed else f": {res.detail}")
        for res in results
    ]
    lines.append(f"{passed}/{len(results)} checks passed (seed {args.seed})")
    return "\n".join(lines), status


def _number(convert):
    """argparse's ``type`` for an ``int`` or ``float`` flag, quoting a refused value short."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {_echo(text)}") from None
    return parse


def _add_sharpness(parser):
    parser.add_argument(
        "--lambda", dest="sharpness", type=_number(float), required=True,
        help="sharpness parameter in [0, 1]",
    )


def _add_config_flags(parser):
    _add_sharpness(parser)
    parser.add_argument("--angle", type=_number(float), default=None, help="coplanar family angle")
    for name in ("--n1", "--n2", "--n3", "--n4"):
        parser.add_argument(name, default=None, help=f"axis {name[2:]} as x,y,z")


# Tokens argparse reads as values although they start with "-".  Its own
# pattern takes only -<digits> and -<digits>.<digits>, refusing -1,0,1,
# -1e-3 and -inf; no flag here starts with one dash and a digit or "inf".
_NUMBER_LIKE = re.compile(r"-(\.?\d|inf|nan).*", re.IGNORECASE | re.DOTALL)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unsharp-bell",
        description="Unsharp spin observables, CHSH inequalities and observer charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coexist", help="pair coexistence margin for two axes")
    _add_sharpness(p)
    p.add_argument("--n1", required=True, help="first axis as x,y,z")
    p.add_argument("--n2", required=True, help="second axis as x,y,z")
    p.set_defaults(func=_cmd_coexist)

    p = sub.add_parser("joint", help="joint observable for two or four axes")
    _add_sharpness(p)
    for name in ("--n1", "--n2", "--n3", "--n4"):
        p.add_argument(name, default=None, help=f"axis {name[2:]} as x,y,z")
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser("bell-op", help="Bell operator, its norm and the smeared form")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_bell_op)

    p = sub.add_parser("chsh", help="singlet CHSH combination against its bound")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("scan", help="critical sharpness scan over a grid")
    p.add_argument("--grid", type=_number(int), required=True, help="number of grid intervals")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("fine-check", help="CHSH inequalities of a probability table")
    p.add_argument("--table", required=True, help="table file (.json or .csv)")
    p.set_defaults(func=_cmd_fine_check)

    p = sub.add_parser("fine-solve", help="joint-distribution feasibility of a table")
    p.add_argument("--table", required=True, help="table file (.json or .csv)")
    p.add_argument(
        "--method",
        choices=("interval", "exact"),
        default="interval",
        help="interval reconstruction (float) or exact rational elimination",
    )
    p.set_defaults(func=_cmd_fine_solve)

    p = sub.add_parser("lueders", help="disturbance bound for an unsharp spin effect")
    _add_sharpness(p)
    p.add_argument("--axis", required=True, help="effect axis as x,y,z")
    p.add_argument("--state-axis", default=None, help="state axis (defaults to effect axis)")
    p.add_argument("--epsilon", type=_number(float), default=None, help="explicit bound parameter")
    p.set_defaults(func=_cmd_lueders)

    p = sub.add_parser("epr", help="one-sided measurement on the singlet pair")
    _add_sharpness(p)
    p.add_argument("--axis", required=True, help="measurement axis as x,y,z")
    p.set_defaults(func=_cmd_epr)

    p = sub.add_parser("chart", help="observer state assignment for a programme")
    p.add_argument("--programme", required=True, help="programme JSON file")
    p.add_argument("--observer", default=None, help="observation point as t,x,y,z")
    p.add_argument("--check", action="store_true", help="include the consistency report")
    p.set_defaults(func=_cmd_chart)

    p = sub.add_parser("verify-all", help="run every numeric check and report deviations")
    p.add_argument("--seed", type=_number(int), default=DEFAULT_SEED)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify_all)

    parser._negative_number_matcher = _NUMBER_LIKE
    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
        p._negative_number_matcher = _NUMBER_LIKE
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` builds on its first call and reuses after that.

    Reuse is safe because argparse keeps no state between calls:
    ``parse_args`` fills a fresh ``Namespace`` each time.
    """
    return build_parser()


@functools.cache
def _commands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser by name: the choices of ``_parser()``'s subparsers action."""
    (action,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _parse_args(argv) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, reading a subcommand's flags once.

    When ``argv[0]`` names a subcommand, its own parser reads the rest, as the
    top-level parser's subparsers action would, and the top-level parser
    refuses what is left over with its own message.  Any other ``argv``
    (empty, ``-h``, an unknown or abbreviated command, a leading ``--``)
    goes through the top-level parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _commands().get(argv[0]) if argv else None
    if command is None:
        return _parser().parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        _parser().error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json writes them


def _float_list(items, inner: str) -> str | None:
    """The items of a list of finite floats, or None for any other list."""
    try:
        text = ("," + inner).join(map(float.__repr__, items))
    except TypeError:  # an item that is not a float; bool is an int
        return None
    return None if "n" in text else text  # nan, inf: json's NaN, Infinity


@functools.lru_cache(maxsize=32)
def _pairs_template(count: int, inner: str) -> str:
    deeper = inner + "  "
    return ("," + inner).join(["[" + deeper + "%r," + deeper + "%r" + inner + "]"] * count)


def _pair_list(items, inner: str) -> str | None:
    """The items of a ``matrix_to_pairs`` list of finite [re, im] floats, or None."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    values = [x for pair in items for x in pair]
    if set(map(type, values)) != {float}:  # %r of a float subclass is not float.__repr__
        return None
    text = _pairs_template(len(items), inner) % tuple(values)
    return None if "n" in text else text


def _json_key(key) -> str:
    """A dict key as json writes it: a str as it is, a number, bool or None as its value."""
    if isinstance(key, str):
        return key
    if isinstance(key, (float, int)) or key is None:  # bool is an int
        return _to_json(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _to_json(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, errors included.

    ``indent`` is a newline and the indentation of ``value``'s own line.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        text = _float_list(value, inner) or _pair_list(value, inner)
        if text is None:
            text = ("," + inner).join([_to_json(item, inner) for item in value])
        return "[" + inner + text + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [  # sorted on the keys as given, as json sorts them: 9 before 10
            encode_basestring_ascii(_json_key(key)) + ": " + _to_json(item, inner)
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        document = args.func(args)
        status = 0
        if isinstance(document, tuple):  # verify-all: its report and exit status
            document, status = document
        if not isinstance(document, str):
            document = _to_json(document)
        text = document if document.endswith("\n") else document + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
        return status
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
