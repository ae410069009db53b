"""Seeded problem generators for the three benchmark workloads.

A generator takes a `random.Random` and a group name and returns one request:
the problem-file payload, the `torbif` argv (with `{problem}` standing for the
problem file's path) and the number of levels the request covers.  Each
generator asserts the shape its workload relies on.  `record.py` draws the
problem sets under `problems/` from these generators and records the golden
stdout of each request.

The shapes are deliberately narrow, so that requests within a workload do
similar work and a run's figures move with the code rather than the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Scaling every eigenvalue by one factor maps levels to levels with the same
# resonances, so the scale varies the input files without varying the work.
SCALES = tuple(Fraction(p, q) for p, q in ((1, 1), (2, 1), (1, 3), (5, 7), (3, 2), (1, 5)))
POSITIVE = tuple(Fraction(p, q) for p, q in ((1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (2, 3), (5, 4), (7, 3)))


def rational(q: Fraction) -> int | str:
    """A rational as the problem format writes it: an int or a 'p/q' string."""
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def count_levels(spectra: list[dict], max_k: int) -> int:
    """Distinct squared frequencies k^2/alpha, k = 1..max_k, alpha > 0."""
    alphas = [Fraction(d["alpha"]) for d in spectra]
    return len({Fraction(k * k) / a for k in range(1, max_k + 1) for a in alphas if a > 0})


def _speeds(rng: random.Random, count: int) -> list[dict]:
    return [{"m": m, "k": 1} for m in sorted(rng.sample(range(1, 5), count))]


def _problem(spectra: list[dict], degree: list[dict]) -> dict:
    return {"spectra": spectra, "deg_s1": degree, "unique_critical_point": True}


def dense_classify(rng: random.Random, group: str) -> tuple[dict, list[str], int]:
    """Three positive eigenvalues in ratio 1 : 2 : 3, each eigenspace the
    trivial summand plus two rotation speeds; a full-orbit degree ("c1") or
    a uniformly signed finite-isotropy degree ("c2")."""
    scale = rng.choice(SCALES)
    spectra = [
        {"alpha": rational(r * scale), "isotypic": [{"m": 0, "k": 1}] + _speeds(rng, 2)}
        for r in (Fraction(1), Fraction(2), Fraction(3))
    ]
    if group == "c1":
        degree = [{"subgroup": "S1", "coeff": rng.choice((-2, -1, 1, 2))}]
    elif group == "c2":
        sign = rng.choice((-1, 1))
        orders = sorted(rng.sample((1, 2, 3), rng.randint(1, 2)))
        degree = [{"subgroup": f"Z{o}", "coeff": sign * rng.randint(1, 2)} for o in orders]
    else:
        raise ValueError(f"unknown dense-classify group {group!r}")
    max_k = next(k for k in range(1, 64) if count_levels(spectra, k) > 20)
    levels = count_levels(spectra, max_k)
    # At 20 levels or fewer the CLI runs the exponential zero-sum search,
    # which would swamp the index kernel this workload is meant to load.
    assert 20 < levels <= 30, levels
    argv = ["classify", "--problem", "{problem}", "--max-k", str(max_k)]
    return _problem(spectra, degree), argv, levels


def zero_sum_classify(rng: random.Random, group: str) -> tuple[dict, list[str], int]:
    """One positive eigenvalue with one or two rotation speeds, a unique
    critical point, no full-orbit coefficient and a mixed-sign finite degree:
    the classification is "Alternative", so every level runs an anchored
    zero-sum search on top of the unanchored one."""
    if group != "alternative":
        raise ValueError(f"unknown zero-sum-classify group {group!r}")
    trivial = [{"m": 0, "k": 1}] if rng.random() < 0.5 else []
    spectra = [{"alpha": rational(rng.choice(POSITIVE)), "isotypic": trivial + _speeds(rng, rng.randint(1, 2))}]
    if rng.random() < 0.5:
        spectra.append({"alpha": 0, "isotypic": [{"m": 0, "k": 1}, {"m": 1, "k": 1}]})
    plus, minus = rng.sample((1, 2, 3, 4), 2)
    degree = sorted(
        [
            {"subgroup": f"Z{plus}", "coeff": rng.randint(1, 2)},
            {"subgroup": f"Z{minus}", "coeff": -rng.randint(1, 2)},
        ],
        key=lambda term: term["subgroup"],
    )
    max_k = 12
    levels = count_levels(spectra, max_k)
    assert levels == max_k <= 20, levels
    argv = ["classify", "--problem", "{problem}", "--max-k", str(max_k)]
    return _problem(spectra, degree), argv, levels


def high_k_index(rng: random.Random, group: str) -> tuple[dict, list[str], int]:
    """`torbif index` at one level of a small problem: a harmonic k in the low
    hundreds over a trivial eigenspace ("harmonic"), or a low k over one
    rotation speed of multiplicity in the thousands ("multiplicity")."""
    alpha = rng.choice(POSITIVE)
    if group == "harmonic":
        # Rotation planes here would make the index cost grow steeply in k;
        # the trivial summand alone keeps one character per mode.
        isotypic = [{"m": 0, "k": rng.randint(1, 2)}]
        k = rng.randint(240, 320)
    elif group == "multiplicity":
        isotypic = [{"m": 0, "k": 1}, {"m": rng.randint(1, 3), "k": rng.randint(1000, 1400)}]
        k = rng.randint(2, 3)
    else:
        raise ValueError(f"unknown high-k-index group {group!r}")
    spectra = [{"alpha": rational(alpha), "isotypic": isotypic}]
    if rng.random() < 0.5:
        spectra.append({"alpha": 0, "isotypic": [{"m": 0, "k": 1}, {"m": 1, "k": 1}]})
    degree = rng.choice(
        (
            [{"subgroup": "S1", "coeff": 1}],
            [{"subgroup": "Z1", "coeff": 1}],
            [{"subgroup": "Z1", "coeff": -1}, {"subgroup": "Z2", "coeff": -1}],
        )
    )
    # k resonates with alpha on mode k, so (k, alpha) addresses exactly one level.
    assert (Fraction(k * k) / alpha) * alpha == k * k
    argv = ["index", "--problem", "{problem}", "--k", str(k), "--alpha", str(rational(alpha))]
    return _problem(spectra, degree), argv, 1


@dataclass(frozen=True)
class Workload:
    generate: Callable[[random.Random, str], tuple[dict, list[str], int]]
    groups: tuple[str, ...]
    per_group: int  # problems drawn per group for one problem set
    traced_requests: int  # fixed request count of a traced run
    why: str


WORKLOADS = {
    "dense-classify": Workload(
        dense_classify,
        ("c1", "c2"),
        per_group=6,
        traced_requests=4,
        why="classify above 20 levels: nearly all time in bif_index (3 calls per level) and star; no zero-sum search",
    ),
    "zero-sum-classify": Workload(
        zero_sum_classify,
        ("alternative",),
        per_group=16,
        traced_requests=4,
        why="classify on Alternative problems at 12 levels: about 90% of the time in the zero-sum subset search",
    ),
    "high-k-index": Workload(
        high_k_index,
        ("harmonic", "multiplicity"),
        per_group=12,
        traced_requests=8,
        why="index at one level, harmonic k in the hundreds or a multiplicity in the thousands: per-call latency",
    ),
}
