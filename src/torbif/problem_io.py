"""Strict reading and writing of critical-point problem files.

The on-disk format is JSON with exactly three top-level fields:

    {
      "spectra": [
        {"alpha": 0, "isotypic": [{"m": 0, "k": 1}, {"m": 1, "k": 1}]},
        {"alpha": 2, "isotypic": [{"m": 0, "k": 1}]}
      ],
      "deg_s1": [{"subgroup": "Z1", "coeff": 1}],
      "unique_critical_point": true
    }

`alpha` is an integer or a rational string "p/q"; `m` is a rotation speed
(0 for the trivial summand) and `k` its multiplicity; `subgroup` is "S1"
for the full-orbit class or "Zk" for cyclic isotropy of order k, and an
empty `deg_s1` list is the zero degree.  Floats, unknown, missing or
repeated fields, duplicate eigenvalues, duplicate speeds, duplicate
subgroups, malformed rationals and integers of more than
`rationals._MAX_DIGITS` digits are all rejected outright so fixtures
cannot drift silently; a repeated field, which `json.loads` alone would
read as its last value, raises "duplicate field 'name'".  The integers
in "p/q" and "Zk" are ASCII digits with nothing after them: no other
script's digits and no trailing newline.  `rationals._is_int` and
`rationals._to_int` judge and convert them, and every JSON integer.

`parse_problem` reads the decoded JSON in one pass and checks each rule
once, in a fixed order: the fields of an object, then each value in
field order, an entry's duplicate after its own values, and the spectra
before the degree and the flag.  A field's place, such as
`spectra[0].isotypic[1].m`, is spelled only in the message of the error
it raises, so a valid file formats no text.  Eigenvalues are told apart
by (numerator, denominator), with no `Fraction` hash.  The values that
pass are built through `_frozen._trusted`, so the public constructors of
`S1Representation`, `SpectralDatum`, `EulerElementS1` and
`CriticalPointProblem`, which check a caller's values, do not check them
again.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from ._frozen import _trusted
from .euler import EulerElementS1
from .rationals import _is_int, _to_int, parse_rational, rational_to_json
from .representations import S1Representation
from .spectral import CriticalPointProblem, SpectralDatum

__all__ = [
    "ProblemFormatError",
    "parse_problem",
    "load_problem",
    "problem_to_text",
    "write_problem",
]

# The most bytes `load_problem` reads from a problem file, far above any
# real problem, so that a huge file or an endless one such as /dev/zero
# ends in an error, not in memory exhaustion.
_MAX_PROBLEM_BYTES = 1 << 20


class ProblemFormatError(ValueError):
    """The problem file does not conform to the format above."""


def _no_float(text: str) -> None:
    raise ProblemFormatError(f"floats are not accepted, got {text!r}; use 'p/q' strings")


def _no_constant(text: str) -> None:
    raise ProblemFormatError(f"non-finite numbers are not accepted, got {text!r}")


def _int(text: str) -> int:
    try:
        return _to_int(text)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None


def _object(pairs: list[tuple[str, Any]]) -> dict:
    # json.loads would keep the last value of a repeated field
    fields = {}
    for name, value in pairs:
        if name in fields:
            raise ProblemFormatError(f"duplicate field {name!r}")
        fields[name] = value
    return fields


def _spell(path: tuple) -> str:
    # the place of a field from its field names and list positions, such
    # as spectra[0].isotypic[1].m
    return "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path)[1:]


def _fields(value: Any, keys: tuple[str, ...], *path: str | int) -> list:
    """The values of `keys` in `value`, an object with exactly those fields."""
    if type(value) is dict and value.keys() == set(keys):
        return [value[key] for key in keys]
    where = _spell(path)
    if type(value) is not dict:
        raise ProblemFormatError(f"{where} must be an object")
    unknown = set(value) - set(keys)
    if unknown:
        raise ProblemFormatError(f"{where} has unknown fields {sorted(unknown)}")
    raise ProblemFormatError(f"{where} is missing fields {sorted(set(keys) - set(value))}")


def _integer(value: Any, *path: str | int) -> int:
    if type(value) is not int:
        raise ProblemFormatError(f"{_spell(path)} must be an integer, got {value!r}")
    return value


def _alpha(value: Any, pos: int) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    if type(value) is str:
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise ProblemFormatError(f"spectra[{pos}].alpha: {exc}") from exc
    kind = "a rational" if type(value) is bool else "an integer or a 'p/q' string"
    raise ProblemFormatError(f"spectra[{pos}].alpha must be {kind}, got {value!r}")


def _isotypic(value: Any, pos: int) -> S1Representation:
    if type(value) is not list or not value:
        raise ProblemFormatError(f"spectra[{pos}].isotypic must be a non-empty list")
    speeds: dict[int, int] = {}
    for at, entry in enumerate(value):
        path = ("spectra", pos, "isotypic", at)
        m, k = _fields(entry, ("m", "k"), *path)
        _integer(m, *path, "m")
        _integer(k, *path, "k")
        if m < 0:
            raise ProblemFormatError(f"{_spell(path)}.m must be >= 0")
        if k < 1:
            raise ProblemFormatError(f"{_spell(path)}.k must be >= 1")
        if m in speeds:
            raise ProblemFormatError(f"{_spell(path)}: duplicate speed m={m}")
        speeds[m] = k
    return _trusted(S1Representation, trivial=speeds.pop(0, 0), rotating=tuple(sorted(speeds.items())))


def _degree(value: Any) -> EulerElementS1:
    if type(value) is not list:
        raise ProblemFormatError("deg_s1 must be a list")
    # coefficients keyed by isotropy order, with 0 for S1
    terms: dict[int, int] = {}
    for pos, entry in enumerate(value):
        label, coeff = _fields(entry, ("subgroup", "coeff"), "deg_s1", pos)
        _integer(coeff, "deg_s1", pos, "coeff")
        cyclic = type(label) is str and label[:1] == "Z" and _is_int(label[1:], "") and label[1] != "0"
        if not coeff:
            raise ProblemFormatError(f"deg_s1[{pos}].coeff must be nonzero; omit the entry instead")
        if type(label) is not str:
            raise ProblemFormatError(f"deg_s1[{pos}].subgroup must be a string")
        if not (cyclic or label == "S1"):
            raise ProblemFormatError(f"deg_s1[{pos}].subgroup must be 'S1' or 'Zk' with k >= 1, got {label!r}")
        order = _int(label[1:]) if cyclic else 0
        if order in terms:
            raise ProblemFormatError(f"deg_s1[{pos}]: duplicate subgroup {label!r}")
        terms[order] = coeff
    return _trusted(EulerElementS1, fixed=terms.pop(0, 0), finite=tuple(sorted(terms.items())))


def parse_problem(text: str) -> CriticalPointProblem:
    """Parse a problem file's contents."""
    try:
        payload = json.loads(
            text,
            object_pairs_hook=_object,
            parse_int=_int,
            parse_float=_no_float,
            parse_constant=_no_constant,
        )
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ProblemFormatError("not valid JSON: nested too deeply") from exc
    spectra, degree, unique = _fields(payload, ("spectra", "deg_s1", "unique_critical_point"), "problem")
    if type(spectra) is not list or not spectra:
        raise ProblemFormatError("spectra must be a non-empty list")
    data = []
    alphas: set[tuple[int, int]] = set()
    for pos, entry in enumerate(spectra):
        value, isotypic = _fields(entry, ("alpha", "isotypic"), "spectra", pos)
        alpha = _alpha(value, pos)
        if (alpha.numerator, alpha.denominator) in alphas:
            raise ProblemFormatError(f"spectra[{pos}]: duplicate eigenvalue alpha = {alpha}")
        alphas.add((alpha.numerator, alpha.denominator))
        data.append(_trusted(SpectralDatum, alpha=alpha, isotypic=_isotypic(isotypic, pos)))
    deg_s1 = _degree(degree)
    if type(unique) is not bool:
        raise ProblemFormatError("unique_critical_point must be a bool")
    return _trusted(CriticalPointProblem, spectra=tuple(data), deg_s1=deg_s1, unique_critical_point=unique)


def load_problem(path: str | Path) -> CriticalPointProblem:
    """Read and parse a problem file of at most `_MAX_PROBLEM_BYTES`
    bytes of UTF-8; a longer one raises ProblemFormatError before any of
    it is decoded, and one that is not UTF-8 raises UnicodeDecodeError."""
    data = b""
    try:
        with open(path, "rb") as handle:
            # in chunks, so a small file needs no buffer of the whole limit
            while chunk := handle.read(1 << 16):
                data += chunk
                if len(data) > _MAX_PROBLEM_BYTES:
                    raise ProblemFormatError(f"{path} is longer than the limit of {_MAX_PROBLEM_BYTES} bytes")
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    # newlines as text mode reads them, so JSON error positions stay put
    return parse_problem(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))


def problem_to_text(problem: CriticalPointProblem) -> str:
    """Serialize a problem; parsing the result reproduces it exactly."""
    spectra = []
    for datum in problem.spectra:
        isotypic = []
        if datum.isotypic.trivial:
            isotypic.append({"m": 0, "k": datum.isotypic.trivial})
        isotypic.extend({"m": m, "k": k} for m, k in datum.isotypic.rotating)
        spectra.append({"alpha": rational_to_json(datum.alpha), "isotypic": isotypic})
    degree = []
    if problem.deg_s1.fixed:
        degree.append({"subgroup": "S1", "coeff": problem.deg_s1.fixed})
    degree.extend(
        {"subgroup": f"Z{order}", "coeff": coeff} for order, coeff in problem.deg_s1.finite
    )
    payload = {
        "spectra": spectra,
        "deg_s1": degree,
        "unique_critical_point": problem.unique_critical_point,
    }
    return json.dumps(payload, indent=2) + "\n"


def write_problem(problem: CriticalPointProblem, path: str | Path) -> None:
    Path(path).write_text(problem_to_text(problem), encoding="utf-8")
