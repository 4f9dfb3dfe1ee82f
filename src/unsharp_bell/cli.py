"""Command-line front end.

Every subcommand maps onto one library operation and emits JSON (or CSV
where a table is the natural shape).  Output is deterministic for a given
argument list and seed: keys are sorted, floats use ``repr`` precision,
and the only randomized subcommand (``verify-all``) is seeded.  The
environment variable ``UNSHARP_BELL_SEED`` overrides ``--seed``.

The parser is built on the first ``main`` call and reused for the rest of
the process, so in-process callers do not pay for argparse set-up on every
request.  Repeated ``main`` calls in one process print the same bytes as
the same argument list and seed run in a fresh process.

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
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import fine
from .bell import (
    BellConfiguration,
    bell_norm,
    bell_operator,
    chsh_report,
    coplanar_configuration,
    generalized_bell_operator,
    operator_chsh_holds,
    orthogonal_configuration,
    scan_lambda_threshold,
    singlet_state,
)
from .instruments import disturbance_report, epr_measurement
from .operators import matrix_to_pairs
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
)
from .verify import run_all

__all__ = ["main", "main_entry"]


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out_path).write_text(text if text.endswith("\n") else text + "\n")


def _emit_json(data, out_path: str | None) -> None:
    _emit(json.dumps(data, sort_keys=True, indent=2), out_path)


def _axis_list(axis) -> list[float]:
    return [float(c) for c in axis]


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
    return BellConfiguration(args.sharpness, *(parse_direction(a) for a in axes))


def _cmd_coexist(args) -> int:
    n1 = parse_direction(args.n1)
    n2 = parse_direction(args.n2)
    coexistent, margin = pair_coexistent(args.sharpness, n1, n2)
    _emit_json(
        {
            "sharpness": args.sharpness,
            "axis1": _axis_list(n1 / np.linalg.norm(n1)),
            "axis2": _axis_list(n2 / np.linalg.norm(n2)),
            "coexistent": coexistent,
            "margin": margin,
        },
        args.out,
    )
    return 0


def _cmd_joint(args) -> int:
    axes = [args.n1, args.n2, args.n3, args.n4]
    given = [a for a in axes if a is not None]
    if len(given) == 2 and axes[2] is None and axes[3] is None:
        joint = joint_observable_pair(
            args.sharpness, parse_direction(axes[0]), parse_direction(axes[1])
        )
    elif len(given) == 4:
        joint = quadruple_joint(
            args.sharpness, *(parse_direction(a) for a in axes)
        )
    else:
        raise ValueError("joint needs --n1 --n2 (pair) or --n1 .. --n4 (quadruple)")
    _emit_json(
        {
            "sharpness": args.sharpness,
            "min_eigenvalue": joint.min_eigenvalue,
            "effects": {
                ",".join(str(s) for s in key): matrix_to_pairs(effect)
                for key, effect in joint.effects.items()
            },
        },
        args.out,
    )
    return 0


def _cmd_bell_op(args) -> int:
    config = _configuration(args)
    operator = bell_operator(config)
    smeared = generalized_bell_operator(config)
    eigs = np.linalg.eigvalsh(operator)
    op_result = operator_chsh_holds(config)
    _emit_json(
        {
            "sharpness": config.sharpness,
            "axes": [_axis_list(a) for a in config.axes],
            "bell_operator": matrix_to_pairs(operator),
            "norm_closed_form": bell_norm(config),
            "norm_eigensolver": float(np.max(np.abs(eigs))),
            "smeared_operator": matrix_to_pairs(smeared),
            "operator_chsh_holds": op_result.holds,
            "smeared_min_eig": op_result.min_eig,
            "smeared_max_eig": op_result.max_eig,
        },
        args.out,
    )
    return 0


def _cmd_chsh(args) -> int:
    config = _configuration(args)
    report = chsh_report(config)
    op_result = operator_chsh_holds(config)
    _emit_json(
        {
            "sharpness": report.sharpness,
            "epsilon": report.epsilon,
            "f": report.f,
            "bound": report.bound,
            "violated": report.violated,
            "operator_chsh_holds": op_result.holds,
            "pair_probs": {f"{i},{j}": p for (i, j), p in report.pair_probs.items()},
        },
        args.out,
    )
    return 0


def _scan_rows(result) -> list[dict]:
    return [
        {
            "lambda": row.sharpness,
            "f": row.f,
            "F": row.bound,
            "max_op_violation": row.max_operator_violation,
            "violated": row.violated,
        }
        for row in result.rows
    ]


def _cmd_scan(args) -> int:
    result = scan_lambda_threshold(args.grid)
    rows = _scan_rows(result)
    if args.format == "json":
        _emit_json(
            {
                "threshold": result.threshold,
                "singlet_threshold": result.singlet_threshold,
                "operator_threshold": result.operator_threshold,
                "best_angle": result.best_angle,
                "rows": rows,
            },
            args.out,
        )
    else:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["lambda", "f", "F", "max_op_violation", "violated"])
        for row in rows:
            writer.writerow(
                [
                    repr(row["lambda"]),
                    repr(row["f"]),
                    repr(row["F"]),
                    repr(row["max_op_violation"]),
                    "true" if row["violated"] else "false",
                ]
            )
        _emit(out.getvalue(), args.out)
    return 0


def _load_table(path: str) -> fine.ProbabilityTable:
    text = Path(path).read_text()
    if path.endswith(".csv"):
        return fine.ProbabilityTable.from_csv_text(text)
    return fine.ProbabilityTable.from_json_dict(json.loads(text))


def _witness_dict(witness) -> dict | None:
    if witness is None:
        return None
    return {
        "inequality": witness.inequality,
        "side": witness.side,
        "value": witness.value,
        "slack": witness.slack,
    }


def _cmd_fine_check(args) -> int:
    table = _load_table(args.table)
    check = fine.chsh_check(table)
    _emit_json(
        {
            "all_hold": check.all_hold,
            "pair_form": list(check.pair_form),
            "single_form": list(check.single_form),
            "witness": None if check.all_hold else _witness_dict(fine.find_witness(table)),
        },
        args.out,
    )
    return 0


def _cmd_fine_solve(args) -> int:
    table = _load_table(args.table)
    if args.method == "exact":
        result = fine.feasibility_oracle(table)
    else:
        result = fine.reconstruct_jpd(table)
    data = {
        "feasible": result.feasible,
        "method": result.method,
        "witness": _witness_dict(result.witness),
        "jpd": None,
        "roundtrip_residual": None,
        "margin": result.margin,
        "near_boundary": result.near_boundary,
    }
    if result.feasible:
        back = fine.marginals(result.jpd)
        residual = max(
            max(abs(back.single(k) - table.single(k)) for k in fine.SINGLE_KEYS),
            max(abs(back.pair(i, j) - table.pair(i, j)) for i, j in fine.PAIR_KEYS),
        )
        data["jpd"] = result.jpd.to_json_dict()
        data["roundtrip_residual"] = residual
    _emit_json(data, args.out)
    return 0


def _cmd_lueders(args) -> int:
    from .spin_povm import spin_projector, unsharp_effect

    axis = parse_direction(args.axis)
    state_axis = parse_direction(args.state_axis) if args.state_axis else axis
    state = spin_projector(state_axis)
    effect = unsharp_effect(axis, args.sharpness)
    report = disturbance_report(state, effect, args.epsilon)
    _emit_json(
        {
            "sharpness": args.sharpness,
            "axis": _axis_list(axis / np.linalg.norm(axis)),
            "probability": report.probability,
            "epsilon": report.epsilon,
            "trace_distance": report.distance,
            "bound": report.bound,
            "holds": report.holds,
        },
        args.out,
    )
    return 0


def _cmd_epr(args) -> int:
    axis = parse_direction(args.axis)
    result = epr_measurement(axis, args.sharpness)
    _emit_json(
        {
            "sharpness": result.sharpness,
            "axis": _axis_list(result.axis),
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
        },
        args.out,
    )
    return 0


def _cmd_chart(args) -> int:
    programme = programme_from_json_dict(json.loads(Path(args.programme).read_text()))
    data = {}
    if args.observer is not None:
        parts = args.observer.split(",")
        if len(parts) != 4:
            raise ValueError(
                f"--observer needs four comma-separated coordinates t,x,y,z, got {args.observer!r}"
            )
        observer = SpacetimeEvent.from_sequence(float(part) for part in parts)
        data["chart"] = observer_chart(programme, observer).to_json_dict()
    if args.check or args.observer is None:
        report = check_consistency(programme)
        data["consistency"] = {
            "order_deviation": report.order_deviation,
            "mixture_deviation": report.mixture_deviation,
            "signalling_deviation": report.signalling_deviation,
            "grouping_deviation": report.grouping_deviation,
            "flags_monotone": report.flags_monotone,
            "regions_visited": [
                [list(m), list(n)] for m, n in report.regions_visited
            ],
            "all_pass": report.all_pass,
        }
    _emit_json(data, args.out)
    return 0


def _cmd_verify_all(args) -> int:
    results = run_all(args.seed)
    passed = sum(1 for res in results if res.passed)
    if args.format == "json":
        checks = [
            {
                "name": res.name,
                "passed": res.passed,
                "seconds": res.seconds,
                "deviation": res.deviation,
                "tolerance": res.tolerance,
                "headroom": res.tolerance / res.deviation if res.deviation > 0.0 else None,
                "seed": args.seed,
            }
            for res in results
        ]
        _emit_json({"checks": checks, "passed": passed, "total": len(results)}, args.out)
        return 0 if passed == len(results) else 1
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(
            f"{status} {res.name}: max deviation {res.deviation:.3e} "
            f"(tolerance {res.tolerance:.1e}, {res.seconds:.2f}s)"
        )
    lines.append(f"{passed}/{len(results)} checks passed (seed {args.seed})")
    _emit("\n".join(lines), args.out)
    return 0 if passed == len(results) else 1


def _add_sharpness(parser, required=False, default=None):
    parser.add_argument(
        "--lambda",
        dest="sharpness",
        type=float,
        required=required,
        default=default,
        help="sharpness parameter in [0, 1]",
    )


def _add_out(parser):
    parser.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _add_config_flags(parser):
    _add_sharpness(parser, required=True)
    parser.add_argument("--angle", type=float, default=None, help="coplanar family angle")
    for name in ("--n1", "--n2", "--n3", "--n4"):
        parser.add_argument(name, default=None, help=f"axis {name[2:]} as x,y,z")
    _add_out(parser)


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
    _add_sharpness(p, required=True)
    p.add_argument("--n1", required=True, help="first axis as x,y,z")
    p.add_argument("--n2", required=True, help="second axis as x,y,z")
    _add_out(p)
    p.set_defaults(func=_cmd_coexist)

    p = sub.add_parser("joint", help="joint observable for two or four axes")
    _add_sharpness(p, required=True)
    for name in ("--n1", "--n2", "--n3", "--n4"):
        p.add_argument(name, default=None, help=f"axis {name[2:]} as x,y,z")
    _add_out(p)
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser("bell-op", help="Bell operator, its norm and the smeared form")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_bell_op)

    p = sub.add_parser("chsh", help="singlet CHSH combination against its bound")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("scan", help="critical sharpness scan over a grid")
    p.add_argument("--grid", type=int, required=True, help="number of grid intervals")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("fine-check", help="CHSH inequalities of a probability table")
    p.add_argument("--table", required=True, help="table file (.json or .csv)")
    _add_out(p)
    p.set_defaults(func=_cmd_fine_check)

    p = sub.add_parser("fine-solve", help="joint-distribution feasibility of a table")
    p.add_argument("--table", required=True, help="table file (.json or .csv)")
    p.add_argument(
        "--method",
        choices=("interval", "exact"),
        default="interval",
        help="interval reconstruction (float) or exact rational elimination",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_fine_solve)

    p = sub.add_parser("lueders", help="disturbance bound for an unsharp spin effect")
    _add_sharpness(p, required=True)
    p.add_argument("--axis", required=True, help="effect axis as x,y,z")
    p.add_argument("--state-axis", default=None, help="state axis (defaults to effect axis)")
    p.add_argument("--epsilon", type=float, default=None, help="explicit bound parameter")
    _add_out(p)
    p.set_defaults(func=_cmd_lueders)

    p = sub.add_parser("epr", help="one-sided measurement on the singlet pair")
    _add_sharpness(p, required=True)
    p.add_argument("--axis", required=True, help="measurement axis as x,y,z")
    _add_out(p)
    p.set_defaults(func=_cmd_epr)

    p = sub.add_parser("chart", help="observer state assignment for a programme")
    p.add_argument("--programme", required=True, help="programme JSON file")
    p.add_argument("--observer", default=None, help="observation point as t,x,y,z")
    p.add_argument("--check", action="store_true", help="include the consistency report")
    _add_out(p)
    p.set_defaults(func=_cmd_chart)

    p = sub.add_parser("verify-all", help="run every numeric check and report deviations")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_out(p)
    p.set_defaults(func=_cmd_verify_all)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NUMBER_LIKE
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` builds on its first call and reuses after that.

    Reuse is safe because argparse keeps no state between calls:
    ``parse_args`` fills a fresh ``Namespace`` each time, and ``main``
    applies the seed override to that namespace, never to the parser.
    """
    return build_parser()


def _env_seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"UNSHARP_BELL_SEED must be an integer, got {text!r}") from None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if hasattr(args, "seed") and "UNSHARP_BELL_SEED" in os.environ:
            args.seed = _env_seed(os.environ["UNSHARP_BELL_SEED"])
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
