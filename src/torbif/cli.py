"""Command-line interface.

Subcommands:

    levels    enumerate candidate bifurcation levels of a problem file
    index     index and certificate at one level, addressed by --k/--alpha
              or by --lambda-sq
    classify  per-level reports, the continuum classification, and the
              zero-sum cancellation check over the enumerated levels
    star      multiply two Euler-ring elements written in the text grammar
    example   write the built-in worked example as a problem file

`torbif -h` lists the commands and `torbif CMD -h` a command's options;
both print to stdout and exit 0.  The argv is read against one table,
`_COMMANDS`, which also writes that help.  An option is written
`--name value` or `--name=value`, in any order, and may be shortened to a
unique prefix (`--max` for `--max-k`).  `--name=value` takes any value;
`--name value` takes a negative number (`--k -3`) or a word with a space,
but no other word that starts with `-`.  Any other word is a
positional, including one that starts with a single `-`, such as the star
factor `-1*T`, and every word after `--`.  A malformed command line (an
unknown command or `--flag`, a missing, extra or unconvertible argument)
prints a `usage: torbif CMD ...` line and a `torbif CMD: error: ...` line
on stderr and exits 2.

Exit codes: 0 success, 2 malformed input (problem files, expressions,
usage) or input over a bound (a problem file of more than 2^20 bytes, an
integer of more than 1000 digits, more than 100,000 levels, an index, its
null modes' degree or a star product needing more than 10^6 line
products), 3 a frequency that is not a candidate level, 4 output-file
failure or a failed write to stdout, such as to a full device, with one
`error: cannot write stdout: ...` line on stderr, 5 an internal
cross-check failed (a bug in torbif), 141 stdout was closed at start or
before all output, help included, was written (the status a shell
reports for a process ended by SIGPIPE).  Every stderr line goes through
`_stderr`: when stderr cannot be written (a full device, or fd 2 closed)
the message is lost but the exit code is kept.  Output is deterministic:
identical inputs produce byte-identical text, and --json swaps in
machine-readable JSON.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple, NoReturn, Optional, Sequence

from .bifurcation import (
    BifurcationReport,
    Classification,
    _reports,
    any_zero_sum_subset,
    build_report,
    classify_noncompact,
    example_problem,
)
from .euler import _by_direction, _check_line_products, _split, element_to_json, format_element
from .grammar import ElementParseError, parse_element
from .problem_io import load_problem, write_problem
from .rationals import _is_int, _to_int, parse_rational, rational_to_json
from .spectral import (
    BifurcationLevel,
    CriticalPointProblem,
    InvalidLevel,
    _level_json,
    _resonances,
    lambda_set,
    level_from_lambda_sq,
    validate,
)

_ZERO_SUM_LIMIT = 20


def _integer(text: str) -> int:
    if not _is_int(text, "+-"):
        raise ValueError(f"expected an integer, got {text!r}")
    return _to_int(text)


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _level_payload(level: BifurcationLevel, pairs: tuple[tuple[int, Fraction], ...]) -> dict:
    return dict(
        _level_json(level),
        resonances=[{"n": n, "alpha": rational_to_json(alpha)} for n, alpha in pairs],
    )


def _level_text(level: BifurcationLevel) -> str:
    return f"k={level.k} alpha={level.alpha} lambda_sq={level.lambda_sq}"


def _cmd_levels(args: SimpleNamespace) -> int:
    problem = load_problem(args.problem)
    levels = lambda_set(problem, args.max_k)
    resonances = zip(levels, _resonances(problem, levels))
    if args.json:
        _emit_json({"levels": [_level_payload(lvl, pairs) for lvl, pairs in resonances]})
    else:
        if not levels:
            _stderr("warning: no positive eigenvalue, the level set is empty")
        for lvl, pairs in resonances:
            res = ", ".join(f"(n={n}, alpha={alpha})" for n, alpha in pairs)
            print(f"{_level_text(lvl)} resonances: {res}")
    return 0


def _resolve_level(args: SimpleNamespace, problem: CriticalPointProblem) -> BifurcationLevel:
    by_pair = args.k is not None or args.alpha is not None
    by_square = args.lambda_sq is not None
    if by_pair == by_square or (by_pair and (args.k is None or args.alpha is None)):
        raise ValueError("address the level with both --k and --alpha, or with --lambda-sq")
    if by_square:
        return level_from_lambda_sq(problem, parse_rational(args.lambda_sq))
    alpha = parse_rational(args.alpha)
    try:
        level = BifurcationLevel(args.k, alpha)
    except ValueError as exc:
        raise InvalidLevel(str(exc)) from exc
    return level


def _cmd_index(args: SimpleNamespace) -> int:
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


def _report_line(report: BifurcationReport, classification: Classification) -> str:
    certificate = report.certificate.value if report.certificate else "none"
    return (
        _level_text(report.level)
        + f" nontrivial={'yes' if report.nontrivial else 'no'}"
        f" certificate={certificate}"
        f" classification={classification.value}"
        f" index={format_element(report.index)}"
    )


def _cmd_classify(args: SimpleNamespace) -> int:
    problem = load_problem(args.problem)
    levels = lambda_set(problem, args.max_k)
    headline = classify_noncompact(problem)
    reports = list(_reports(problem, levels))
    upgrade = None
    if not validate(problem).ok:
        skipped = "skipped (assumptions not satisfied)"
    elif len(levels) > _ZERO_SUM_LIMIT:
        skipped = f"skipped (more than {_ZERO_SUM_LIMIT} levels)"
    else:
        # No subset of level indices sums to zero (see `bifurcation`), so
        # every level is upgraded; the search checks that at run time.
        indices = {report.level: report.index for report in reports}
        if any_zero_sum_subset(problem, levels, indices) is not None:
            raise RuntimeError("a subset of the level indices sums to zero")
        skipped = None
        if headline is Classification.ALTERNATIVE and problem.unique_critical_point:
            upgrade = Classification.NONCOMPACT_SUM_OBSTRUCTION

    if args.json:
        zero_sum = {"skipped": skipped} if skipped else {"exists": False, "witness": None}
        _emit_json(
            {
                "classification": headline.value,
                "reports": [
                    dict(report.to_dict(), classification=(upgrade or report.classification).value)
                    for report in reports
                ],
                "zero_sum_subset": zero_sum,
            }
        )
        return 0
    print(f"classification: {headline.value}")
    if not levels:
        _stderr("warning: no positive eigenvalue, the level set is empty")
    for report in reports:
        print(_report_line(report, upgrade or report.classification))
    if skipped:
        print(f"zero-sum check: {skipped}")
    else:
        print("zero-sum subsets among computed levels: none")
    return 0


def _cmd_star(args: SimpleNamespace) -> int:
    factors = [parse_element(args.lhs), parse_element(args.rhs)]
    # `star` pairs only lines of two primitive directions
    left, right = [_by_direction(_split(factor._terms)[2]) for factor in factors]
    lines = [sum(map(len, groups.values())) for groups in (left, right)]
    pairs = lines[0] * lines[1] - sum(len(group) * len(right.get(d, ())) for d, group in left.items())
    _check_line_products(pairs, "the product of {} and {} line terms needs {count} line products", *lines)
    product = factors[0].star(factors[1])
    if args.json:
        _emit_json({"product": element_to_json(product), "text": format_element(product)})
    else:
        print(format_element(product))
    return 0


def _cmd_example(args: SimpleNamespace) -> int:
    problem = example_problem()
    try:
        write_problem(problem, args.out)
    except OSError as exc:
        _stderr(f"error: cannot write {args.out}: {exc}")
        return 4
    if args.json:
        _emit_json({"written": args.out})
    else:
        print(f"wrote example problem to {args.out}")
    return 0


class _Option(NamedTuple):
    flag: str  # `--max-k` is read as `args.max_k`
    convert: Optional[Callable[[str], object]]  # None for a flag that takes no value
    default: object = None
    required: bool = False
    metavar: str = ""
    help: str = ""


class _Command(NamedTuple):
    handler: Callable[[SimpleNamespace], int]
    help: str
    options: tuple[_Option, ...]
    positionals: tuple[tuple[str, str, str], ...] = ()  # (dest, metavar, help)


_HELP = _Option("--help", None, help="show this help message and exit")
_JSON = _Option("--json", None, False, help="emit JSON instead of text")
_PROBLEM = _Option("--problem", str, required=True, metavar="PATH", help="problem file to read")
_MAX_K = _Option(
    "--max-k",
    _positive_int,
    5,
    metavar="N",
    help="enumerate levels k/sqrt(alpha) for k = 1..N (default 5)",
)

_COMMANDS = {
    "levels": _Command(
        _cmd_levels, "enumerate candidate bifurcation levels", (_HELP, _JSON, _PROBLEM, _MAX_K)
    ),
    "index": _Command(
        _cmd_index,
        "compute the index at one level",
        (
            _HELP,
            _JSON,
            _PROBLEM,
            _Option("--k", _integer, metavar="K", help="frequency numerator"),
            _Option("--alpha", str, metavar="RAT", help="eigenvalue, as 'p' or 'p/q'"),
            _Option(
                "--lambda-sq",
                str,
                metavar="RAT",
                help="squared frequency, as 'p' or 'p/q'",
            ),
        ),
    ),
    "classify": _Command(
        _cmd_classify,
        "classify the bifurcating continua level by level",
        (_HELP, _JSON, _PROBLEM, _MAX_K),
    ),
    "star": _Command(
        _cmd_star,
        "multiply two Euler-ring elements",
        (_HELP, _JSON),
        (
            ("lhs", "lhs", "left factor, in the element grammar"),
            ("rhs", "rhs", "right factor, in the element grammar"),
        ),
    ),
    "example": _Command(
        _cmd_example,
        "write the built-in worked example as a problem file",
        (_HELP, _JSON),
        (("out", "PATH", "where to write the problem file"),),
    ),
}

# How a token before `--` reads when it names no option: a plain word; a
# word that starts with one `-`, such as the factor `-1*T`, which may stand
# as a positional but not as an option's value; an unknown `--flag`.  A
# negative number or a token with a space is a plain word.
_WORD, _DASHED, _UNKNOWN = "word", "dashed", "unknown"


def _negative_number(token: str) -> bool:
    # argparse's re.match(r"^-\d+$|^-\d*\.\d+$", token) without compiling a
    # pattern: `\d` is str.isdecimal, `$` also matches before a final "\n"
    whole, dot, fraction = token[1 : -1 if token.endswith("\n") else None].partition(".")
    return token[:1] == "-" and (whole + fraction).isdecimal() and bool(fraction or not dot)


def _usage(name: Optional[str]) -> str:
    if name is None:
        return f"usage: torbif [-h] {{{','.join(_COMMANDS)}}} ..."
    command = _COMMANDS[name]
    words = ["torbif", name]
    for option in command.options:
        text = "-h" if option is _HELP else _label(option)
        words.append(text if option.required else f"[{text}]")
    words += [metavar for _, metavar, _ in command.positionals]
    return "usage: " + " ".join(words)


def _label(option: _Option) -> str:
    if option is _HELP:
        return "-h, --help"
    return option.flag if option.convert is None else f"{option.flag} {option.metavar}"


def _help(name: Optional[str]) -> str:
    if name is None:
        lead = "Exact bifurcation invariants in the Euler ring of the 2-torus."
        sections = [
            ("commands", [(command, spec.help) for command, spec in _COMMANDS.items()]),
            ("options", [(_label(_HELP), _HELP.help)]),
        ]
    else:
        command = _COMMANDS[name]
        lead = command.help
        sections = [
            ("positional arguments", [(metavar, text) for _, metavar, text in command.positionals]),
            ("options", [(_label(option), option.help) for option in command.options]),
        ]
    width = max(len(label) for _, rows in sections for label, _ in rows)
    lines = [_usage(name), "", lead]
    for title, rows in sections:
        if rows:
            lines += ["", f"{title}:"] + [f"  {label:<{width}}  {text}" for label, text in rows]
    return "\n".join(lines) + "\n"


def _stdout():
    # CPython sets sys.stdout to None when fd 1 is closed at start, which
    # ends as a reader that went away does
    if sys.stdout is None:
        raise BrokenPipeError("stdout was closed before start")
    return sys.stdout


def _to_devnull(fd: int) -> None:
    # after a failed write, so that the interpreter's final flush of the
    # stream cannot raise again (the recipe from the signal docs)
    os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def _stderr(*lines: str) -> None:
    # Every stderr line goes through here.  A stderr that is closed
    # (CPython then sets sys.stderr to None) or cannot be written loses
    # the lines but not the exit code.
    if sys.stderr is not None:
        try:
            sys.stderr.write("".join(line + "\n" for line in lines))
            sys.stderr.flush()
            return
        except OSError:
            pass
    _to_devnull(2)


def _print_help(name: Optional[str]) -> NoReturn:
    # flushed here, so a closed stdout fails inside `main`
    out = _stdout()
    out.write(_help(name))
    out.flush()
    raise SystemExit(0)


def _usage_error(name: Optional[str], message: str) -> NoReturn:
    prog = "torbif" if name is None else f"torbif {name}"
    _stderr(_usage(name), f"{prog}: error: {message}")
    raise SystemExit(2)


def _read(token: str, name: Optional[str]):
    """How `token`, met before `--`, reads for command `name` (None for the
    top level): `(option, inline value or None)`, or `_WORD`, `_DASHED` or
    `_UNKNOWN`.  A `--flag` may be any unique prefix of an option's flag."""
    options = (_HELP,) if name is None else _COMMANDS[name].options
    if token == "-h":
        return _HELP, None
    if token.startswith("--") and token != "--":
        flag, equals, value = token.partition("=")
        found = [option for option in options if option.flag == flag] or [
            option for option in options if option.flag.startswith(flag)
        ]
        if len(found) > 1:
            flags = ", ".join(option.flag for option in found)
            _usage_error(name, f"ambiguous option: {token} could match {flags}")
        if found:
            return found[0], (value if equals else None)
    if not token.startswith("-") or token in ("-", "--"):
        return _WORD
    if " " in token or _negative_number(token):
        return _WORD
    return _DASHED if token[1] != "-" else _UNKNOWN


def _parse_command(name: str, tokens: list[str]) -> SimpleNamespace:
    command = _COMMANDS[name]
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    # every token is read before any is used, so an ambiguous prefix is
    # reported before any other error
    reads = [_read(token, name) for token in tokens[:cut]]
    values = {option.flag: option.default for option in command.options if option is not _HELP}
    given = set()
    words: list[str] = []
    extras: list[str] = []
    after_word = False
    i = 0
    while i < cut:
        token, read = tokens[i], reads[i]
        i += 1
        after_word = read in (_WORD, _DASHED)
        if after_word:
            words.append(token)
            continue
        if read == _UNKNOWN:
            extras.append(token)
            continue
        option, value = read
        if option.convert is None:
            if value is not None:
                message = f"ignored explicit argument {value!r}"
                _usage_error(name, f"argument {_label(option)}: {message}")
            if option is _HELP:
                _print_help(name)
            values[option.flag] = True
            continue
        if value is None:
            if i == cut or reads[i] != _WORD:
                _usage_error(name, f"argument {option.flag}: expected one argument")
            value = tokens[i]
            i += 1
        try:
            values[option.flag] = option.convert(value)
        except ValueError as exc:
            _usage_error(name, f"argument {option.flag}: {exc}")
        given.add(option.flag)
    if cut < len(tokens):
        # `--` goes with a positional still to come or just given; after
        # an option it is an argument of its own, and so one too many
        if len(words) >= len(command.positionals) and not after_word:
            extras.append("--")
        words += tokens[cut + 1 :]
    missing = [
        option.flag for option in command.options if option.required and option.flag not in given
    ] + [metavar for _, metavar, _ in command.positionals[len(words) :]]
    if missing:
        _usage_error(name, f"the following arguments are required: {', '.join(missing)}")
    extras += words[len(command.positionals) :]
    if extras:
        _usage_error(name, f"unrecognized arguments: {' '.join(extras)}")
    values.update(zip((dest for dest, _, _ in command.positionals), words))
    names = {key.lstrip("-").replace("-", "_"): value for key, value in values.items()}
    return SimpleNamespace(command=name, handler=command.handler, **names)


def _parse(argv: list[str]) -> SimpleNamespace:
    """The handler and arguments that `argv` asks for; on a malformed
    command line print a usage line and an error line and exit 2."""
    unknown = []
    for at, token in enumerate(argv):
        read = _read(token, None)
        if read == _WORD:
            break
        if read in (_DASHED, _UNKNOWN):
            # a command name never starts with `-`
            unknown.append(token)
        elif read[1] is not None:
            _usage_error(None, f"argument -h, --help: ignored explicit argument {read[1]!r}")
        else:
            _print_help(None)
    else:
        _usage_error(None, "the following arguments are required: command")
    if token not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(None, f"argument command: invalid choice: {token!r} (choose from {choices})")
    args = _parse_command(token, argv[at + 1 :])
    if unknown:
        _usage_error(None, f"unrecognized arguments: {' '.join(unknown)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        code = args.handler(args)
        _stdout().flush()
        return code
    except ValueError as exc:
        lines = [f"error: {exc}"]
        if isinstance(exc, ElementParseError):
            lines += [f"  {exc.text}", "  " + " " * exc.position + "^"]
        _stderr(*lines)
        return 3 if isinstance(exc, InvalidLevel) else 2
    except RuntimeError as exc:
        _stderr(f"error: internal: {exc}")
        return 5
    except OSError as exc:
        # The handlers report their own file errors, so this is a write to
        # stdout that failed; a reader that went away ends silently, as
        # SIGPIPE would.
        if sys.stdout is not None:
            _to_devnull(sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141
        _stderr(f"error: cannot write stdout: {exc}")
        return 4


def entry() -> None:
    sys.exit(main())
