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
empty `deg_s1` list is the zero degree.  Floats, unknown or missing
fields, duplicate eigenvalues, duplicate speeds, duplicate subgroups,
malformed rationals and integers of more than `rationals._MAX_DIGITS`
digits are all rejected outright so fixtures cannot drift silently.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any

from .euler import EulerElementS1
from .rationals import _check_digits, parse_rational, rational_to_json
from .representations import S1Representation
from .spectral import CriticalPointProblem, SpectralDatum

__all__ = [
    "ProblemFormatError",
    "parse_problem",
    "load_problem",
    "problem_to_text",
    "write_problem",
]

_SUBGROUP_RE = re.compile(r"^Z([1-9]\d*)$")


class ProblemFormatError(ValueError):
    """The problem file does not conform to the format above."""


def _no_float(text: str) -> None:
    raise ProblemFormatError(f"floats are not accepted, got {text!r}; use 'p/q' strings")


def _no_constant(text: str) -> None:
    raise ProblemFormatError(f"non-finite numbers are not accepted, got {text!r}")


def _int(text: str) -> int:
    try:
        return int(_check_digits(text))
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None


def _require_object(value: Any, keys: tuple[str, ...], where: str) -> dict:
    if not isinstance(value, dict):
        raise ProblemFormatError(f"{where} must be an object")
    unknown = set(value) - set(keys)
    if unknown:
        raise ProblemFormatError(f"{where} has unknown fields {sorted(unknown)}")
    missing = set(keys) - set(value)
    if missing:
        raise ProblemFormatError(f"{where} is missing fields {sorted(missing)}")
    return value


def _require_int(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProblemFormatError(f"{where} must be an integer, got {value!r}")
    return value


def _parse_alpha(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ProblemFormatError(f"{where} must be a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise ProblemFormatError(f"{where}: {exc}") from exc
    raise ProblemFormatError(f"{where} must be an integer or a 'p/q' string, got {value!r}")


def _parse_isotypic(value: Any, where: str) -> S1Representation:
    if not isinstance(value, list) or not value:
        raise ProblemFormatError(f"{where} must be a non-empty list")
    trivial = 0
    rotating: dict[int, int] = {}
    seen: set[int] = set()
    for pos, entry in enumerate(value):
        ctx = f"{where}[{pos}]"
        record = _require_object(entry, ("m", "k"), ctx)
        m = _require_int(record["m"], f"{ctx}.m")
        k = _require_int(record["k"], f"{ctx}.k")
        if m < 0:
            raise ProblemFormatError(f"{ctx}.m must be >= 0")
        if k < 1:
            raise ProblemFormatError(f"{ctx}.k must be >= 1")
        if m in seen:
            raise ProblemFormatError(f"{ctx}: duplicate speed m={m}")
        seen.add(m)
        if m == 0:
            trivial = k
        else:
            rotating[m] = k
    return S1Representation(trivial, rotating)


def _parse_degree(value: Any, where: str) -> EulerElementS1:
    if not isinstance(value, list):
        raise ProblemFormatError(f"{where} must be a list")
    fixed = 0
    finite: dict[int, int] = {}
    seen: set[str] = set()
    for pos, entry in enumerate(value):
        ctx = f"{where}[{pos}]"
        record = _require_object(entry, ("subgroup", "coeff"), ctx)
        label = record["subgroup"]
        coeff = _require_int(record["coeff"], f"{ctx}.coeff")
        if coeff == 0:
            raise ProblemFormatError(f"{ctx}.coeff must be nonzero; omit the entry instead")
        if not isinstance(label, str):
            raise ProblemFormatError(f"{ctx}.subgroup must be a string")
        if label in seen:
            raise ProblemFormatError(f"{ctx}: duplicate subgroup {label!r}")
        seen.add(label)
        if label == "S1":
            fixed = coeff
            continue
        match = _SUBGROUP_RE.match(label)
        if not match:
            raise ProblemFormatError(
                f"{ctx}.subgroup must be 'S1' or 'Zk' with k >= 1, got {label!r}"
            )
        finite[_int(match.group(1))] = coeff
    return EulerElementS1(fixed, finite)


def parse_problem(text: str) -> CriticalPointProblem:
    """Parse a problem file's contents."""
    try:
        payload = json.loads(
            text, parse_int=_int, parse_float=_no_float, parse_constant=_no_constant
        )
    except ProblemFormatError:
        raise
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ProblemFormatError("not valid JSON: nested too deeply") from exc
    top = _require_object(
        payload, ("spectra", "deg_s1", "unique_critical_point"), "problem"
    )
    spectra_raw = top["spectra"]
    if not isinstance(spectra_raw, list) or not spectra_raw:
        raise ProblemFormatError("spectra must be a non-empty list")
    data = []
    alphas: set[Fraction] = set()
    for pos, entry in enumerate(spectra_raw):
        ctx = f"spectra[{pos}]"
        record = _require_object(entry, ("alpha", "isotypic"), ctx)
        alpha = _parse_alpha(record["alpha"], f"{ctx}.alpha")
        if alpha in alphas:
            raise ProblemFormatError(f"{ctx}: duplicate eigenvalue alpha = {alpha}")
        alphas.add(alpha)
        data.append(SpectralDatum(alpha, _parse_isotypic(record["isotypic"], f"{ctx}.isotypic")))
    degree = _parse_degree(top["deg_s1"], "deg_s1")
    unique = top["unique_critical_point"]
    if not isinstance(unique, bool):
        raise ProblemFormatError("unique_critical_point must be a bool")
    return CriticalPointProblem(tuple(data), degree, unique)


def load_problem(path: str | Path) -> CriticalPointProblem:
    """Read and parse a problem file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    return parse_problem(text)


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
