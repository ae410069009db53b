"""Spans and counters recorded around calls into torbif's public functions.

The tracer wraps functions from outside the package: it replaces each
function in every torbif module that holds it (so `from .x import f` copies
are wrapped too) and each method on its class.  A span is
`[name, start_ns, end_ns, parent]`, where `parent` is the index of the
enclosing span or -1.  Counters that need the call's arguments or result are
taken in the same wrappers.  Functions or caches that a later version of the
package no longer has are skipped, and their metrics are then absent.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Any, Callable

# (module, attribute, span name); "Class.method" names a method.
TRACED = (
    ("cli", "main", "cli.main"),
    ("problem_io", "load_problem", "problem_io.load_problem"),
    ("spectral", "lambda_set", "spectral.lambda_set"),
    ("spectral", "negative_space", "spectral.negative_space"),
    ("spectral", "resonant_space", "spectral.resonant_space"),
    ("representations", "loop_decompose", "representations.loop_decompose"),
    ("representations", "deg_minus_id_t2", "representations.deg_minus_id_t2"),
    ("euler", "EulerElementT2.star", "euler.star"),
    ("euler", "EulerElementT2.__add__", "euler.add"),
    ("subgroups", "TorusSubgroup.intersect", "subgroups.intersect"),
    ("bifurcation", "bif_index", "bifurcation.bif_index"),
    ("bifurcation", "certify_nontrivial", "bifurcation.certify_nontrivial"),
    ("bifurcation", "build_report", "bifurcation.build_report"),
    ("bifurcation", "exists_zero_sum_subset", "bifurcation.exists_zero_sum_subset"),
    ("bifurcation", "any_zero_sum_subset", "bifurcation.any_zero_sum_subset"),
)

# lru caches read through cache_info() when the request ends.
CACHES = (
    ("euler", "_generator_product", "euler.generator_product"),
    ("subgroups", "_interned", "subgroups.interned"),
)


def _star_counts(counts: Counter, args: tuple, result: Any) -> None:
    left, right = args[0], args[1]
    counts["euler.star.pairs"] += len(left.terms) * len(right.terms)
    counts["euler.star.terms_out"] += len(result.terms)


def _deg_counts(counts: Counter, args: tuple, result: Any) -> None:
    characters = args[0].characters
    counts["representations.deg_minus_id_t2.chars_in"] += len(characters)
    counts["representations.deg_minus_id_t2.mult_in"] += sum(mult for _, mult in characters)


COUNTERS: dict[str, Callable[[Counter, tuple, Any], None]] = {
    "euler.star": _star_counts,
    "representations.deg_minus_id_t2": _deg_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.installed: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED that the loaded package has."""
        modules = [m for n, m in list(sys.modules.items()) if n == "torbif" or n.startswith("torbif.")]
        for module_name, attribute, name in TRACED:
            home = sys.modules.get(f"torbif.{module_name}")
            if home is None:
                continue
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(home, cls_name, None)
                if cls is not None and method in vars(cls):
                    setattr(cls, method, self.wrap(name, vars(cls)[method]))
                    self.installed.append(name)
                continue
            original = getattr(home, attribute, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original)
            for module in modules:
                if getattr(module, attribute, None) is original:
                    setattr(module, attribute, wrapped)
            self.installed.append(name)

    def cache_counts(self) -> dict[str, int]:
        out = {}
        for module_name, attribute, name in CACHES:
            cache = getattr(sys.modules.get(f"torbif.{module_name}"), attribute, None)
            if cache is None or not hasattr(cache, "cache_info"):
                continue
            info = cache.cache_info()
            out.update({f"{name}.hits": info.hits, f"{name}.misses": info.misses, f"{name}.size": info.currsize})
        return out

    def dump(self, path: str) -> None:
        payload = {
            "installed": self.installed,
            "spans": self.spans,
            "counts": dict(self.counts),
            "caches": self.cache_counts(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))

