"""Command-line interface.

Subcommands:

    levels    enumerate candidate bifurcation levels of a problem file
    index     index and certificate at one level, addressed by --k/--alpha
              or by --lambda-sq
    classify  per-level reports, the continuum classification, and the
              zero-sum cancellation check over the enumerated levels
    star      multiply two Euler-ring elements written in the text grammar
    example   write the built-in worked example as a problem file

Exit codes: 0 success, 2 malformed input (problem files, expressions,
usage), 3 a frequency that is not a candidate level, 4 output-file
failure, 5 an internal cross-check failed (a bug in torbif), 141 stdout
was closed before all output was written (the status a shell reports for
a process ended by SIGPIPE).  Output is deterministic: identical inputs
produce byte-identical text, and --json swaps in machine-readable JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .bifurcation import (
    BifurcationReport,
    Classification,
    any_zero_sum_subset,
    build_report,
    classify_noncompact,
    example_problem,
)
from .euler import format_element
from .grammar import ElementParseError, parse_element
from .problem_io import load_problem, write_problem
from .rationals import parse_rational, rational_to_json
from .spectral import (
    BifurcationLevel,
    CriticalPointProblem,
    InvalidLevel,
    lambda_set,
    level_from_lambda_sq,
    resonant_pairs,
    validate,
)

_ZERO_SUM_LIMIT = 20


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit JSON instead of text")
    problem_flag = argparse.ArgumentParser(add_help=False)
    problem_flag.add_argument(
        "--problem", required=True, metavar="PATH", help="problem file to read"
    )
    maxk_flag = argparse.ArgumentParser(add_help=False)
    maxk_flag.add_argument(
        "--max-k",
        type=_positive_int,
        default=5,
        metavar="N",
        help="enumerate levels k/sqrt(alpha) for k = 1..N (default 5)",
    )

    parser = argparse.ArgumentParser(
        prog="torbif",
        description="Exact bifurcation invariants in the Euler ring of the 2-torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "levels",
        parents=[json_flag, problem_flag, maxk_flag],
        help="enumerate candidate bifurcation levels",
    )
    p.set_defaults(handler=_cmd_levels)

    p = sub.add_parser(
        "index",
        parents=[json_flag, problem_flag],
        help="compute the index at one level",
    )
    p.add_argument("--k", type=int, metavar="K", help="frequency numerator")
    p.add_argument("--alpha", metavar="RAT", help="eigenvalue, as 'p' or 'p/q'")
    p.add_argument(
        "--lambda-sq", dest="lambda_sq", metavar="RAT", help="squared frequency, as 'p' or 'p/q'"
    )
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser(
        "classify",
        parents=[json_flag, problem_flag, maxk_flag],
        help="classify the bifurcating continua level by level",
    )
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "star",
        parents=[json_flag],
        help="multiply two Euler-ring elements",
    )
    p.add_argument("lhs", help="left factor, in the element grammar")
    p.add_argument("rhs", help="right factor, in the element grammar")
    p.set_defaults(handler=_cmd_star)

    p = sub.add_parser(
        "example",
        parents=[json_flag],
        help="write the built-in worked example as a problem file",
    )
    p.add_argument("out", metavar="PATH", help="where to write the problem file")
    p.set_defaults(handler=_cmd_example)

    return parser


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _level_payload(problem: CriticalPointProblem, level: BifurcationLevel) -> dict:
    return {
        "k": level.k,
        "alpha": rational_to_json(level.alpha),
        "lambda_sq": rational_to_json(level.lambda_sq),
        "resonances": [
            {"n": n, "alpha": rational_to_json(alpha)}
            for n, alpha in resonant_pairs(problem, level)
        ],
    }


def _cmd_levels(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    levels = lambda_set(problem, args.max_k)
    if args.json:
        _emit_json({"levels": [_level_payload(problem, lvl) for lvl in levels]})
    else:
        if not levels:
            print("warning: no positive eigenvalue, the level set is empty", file=sys.stderr)
        for lvl in levels:
            res = ", ".join(
                f"(n={n}, alpha={alpha})" for n, alpha in resonant_pairs(problem, lvl)
            )
            print(f"k={lvl.k} alpha={lvl.alpha} lambda_sq={lvl.lambda_sq} resonances: {res}")
    return 0


def _resolve_level(args: argparse.Namespace, problem: CriticalPointProblem) -> BifurcationLevel:
    by_pair = args.k is not None or args.alpha is not None
    by_square = args.lambda_sq is not None
    if by_pair == by_square or (by_pair and (args.k is None or args.alpha is None)):
        raise _UsageError("address the level with both --k and --alpha, or with --lambda-sq")
    if by_square:
        return level_from_lambda_sq(problem, parse_rational(args.lambda_sq))
    alpha = parse_rational(args.alpha)
    try:
        level = BifurcationLevel(args.k, alpha)
    except ValueError as exc:
        raise InvalidLevel(str(exc)) from exc
    return level


class _UsageError(ValueError):
    pass


def _cmd_index(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    level = _resolve_level(args, problem)
    report = build_report(problem, level)
    if args.json:
        _emit_json(report.to_dict())
    else:
        print(format_element(report.index))
        certificate = report.certificate.value if report.certificate else "none"
        print(f"certificate: {certificate}")
    return 0


def _report_line(report: BifurcationReport) -> str:
    lvl = report.level
    certificate = report.certificate.value if report.certificate else "none"
    return (
        f"k={lvl.k} alpha={lvl.alpha} lambda_sq={lvl.lambda_sq}"
        f" nontrivial={'yes' if report.nontrivial else 'no'}"
        f" certificate={certificate}"
        f" classification={report.classification.value}"
        f" index={format_element(report.index)}"
    )


def _cmd_classify(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    levels = lambda_set(problem, args.max_k)
    headline = classify_noncompact(problem)
    reports = [build_report(problem, lvl) for lvl in levels]
    if not validate(problem).ok:
        zero_sum_state = "skipped (assumptions not satisfied)"
    elif not levels:
        zero_sum_state = "skipped (no levels)"
    elif len(levels) > _ZERO_SUM_LIMIT:
        zero_sum_state = f"skipped (more than {_ZERO_SUM_LIMIT} levels)"
    else:
        # No subset of level indices sums to zero (see `bifurcation`), so
        # every level is upgraded; the search checks that at run time.
        indices = {report.level: report.index for report in reports}
        if any_zero_sum_subset(problem, levels, indices) is not None:
            raise RuntimeError("a subset of the level indices sums to zero")
        zero_sum_state = "checked"
        if headline is Classification.ALTERNATIVE and problem.unique_critical_point:
            reports = [
                replace(report, classification=Classification.NONCOMPACT_SUM_OBSTRUCTION)
                for report in reports
            ]

    if args.json:
        if zero_sum_state == "checked":
            zero_sum = {"exists": False, "witness": None}
        else:
            zero_sum = {"skipped": zero_sum_state}
        _emit_json(
            {
                "classification": headline.value,
                "reports": [report.to_dict() for report in reports],
                "zero_sum_subset": zero_sum,
            }
        )
        return 0
    print(f"classification: {headline.value}")
    if not levels:
        print("warning: no positive eigenvalue, the level set is empty", file=sys.stderr)
    for report in reports:
        print(_report_line(report))
    if zero_sum_state == "checked":
        print("zero-sum subsets among computed levels: none")
    else:
        print(f"zero-sum check: {zero_sum_state}")
    return 0


def _print_parse_error(source: str, exc: ElementParseError) -> None:
    print(f"error: {exc}", file=sys.stderr)
    print(f"  {source}", file=sys.stderr)
    print("  " + " " * exc.position + "^", file=sys.stderr)


def _cmd_star(args: argparse.Namespace) -> int:
    factors = []
    for source in (args.lhs, args.rhs):
        try:
            factors.append(parse_element(source))
        except ElementParseError as exc:
            _print_parse_error(source, exc)
            return 2
    product = factors[0].star(factors[1])
    if args.json:
        _emit_json(
            {
                "product": [
                    {"generator": str(subgroup), "coeff": coeff}
                    for subgroup, coeff in product.terms
                ],
                "text": format_element(product),
            }
        )
    else:
        print(format_element(product))
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    problem = example_problem()
    try:
        write_problem(problem, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 4
    if args.json:
        _emit_json({"written": args.out})
    else:
        print(f"wrote example problem to {args.out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except InvalidLevel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 5
    except BrokenPipeError:
        # The reader went away; point stdout at devnull so the interpreter's
        # final flush cannot raise again (the recipe from the signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def entry() -> None:
    sys.exit(main())
