"""Fractional edge covers and the output-size bound they certify.

For a join query whose hypergraph has edge sizes N_F, any fractional
edge cover x yields the output bound

    |output| <= prod_F N_F ** x[F]

and minimizing sum_F x[F] * log2(N_F) over the cover polyhedron gives
the tightest such bound.  Weights are exact rationals; objective
coefficients log2(N_F) are 45-digit rational approximations, exact
whenever N_F is a power of two.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import InfeasibleCoverError, MalformedCoverError
from .relational import Hypergraph
from . import simplex

WeightLike = int | float | Fraction


@dataclass(frozen=True)
class FractionalCover:
    """Edge weights, indexed like the query's edge list."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights",
                           tuple(w if type(w) is Fraction else Fraction(w) for w in self.weights))

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]

    def __len__(self) -> int:
        return len(self.weights)


def cover(*weights: WeightLike) -> FractionalCover:
    return FractionalCover(weights)


@dataclass(frozen=True)
class BoundReport:
    """A certified output-size bound: bound == 2 ** log2_bound."""

    cover: FractionalCover
    sizes: tuple[int, ...]
    log2_bound: Fraction

    @property
    def bound(self) -> float:
        v = float(self.log2_bound)
        return math.inf if v > 1023 else 2.0 ** v


@lru_cache(maxsize=None)
def log2_fraction(n: int) -> Fraction:
    """log2(n) as a rational: exact for powers of two, 45 digits otherwise."""
    if n < 1:
        raise ValueError(f"log2 of non-positive size {n}")
    if n & (n - 1) == 0:
        return Fraction(n.bit_length() - 1)
    with localcontext() as ctx:
        ctx.prec = 45
        return Fraction(Decimal(n).ln() / Decimal(2).ln())


def _check_shape(h: Hypergraph, x: FractionalCover) -> None:
    if len(x) != len(h.edges):
        raise MalformedCoverError(f"{len(x)} weights for {len(h.edges)} edges")


def _check_sizes(h: Hypergraph, sizes: Sequence[int]) -> tuple[int, ...]:
    """The sizes as Python ints; integral types such as numpy's are accepted."""
    # Sizes enter through log2; callers clamp empty relations to 1.
    if len(sizes) != len(h.edges):
        raise MalformedCoverError(f"{len(sizes)} sizes for {len(h.edges)} edges")
    try:
        ints = tuple(operator.index(n) for n in sizes)
    except TypeError:
        raise MalformedCoverError(f"sizes {tuple(sizes)} must be integers") from None
    if any(n < 1 for n in ints):
        raise MalformedCoverError(f"sizes {ints} must all be at least 1")
    return ints


def is_cover(h: Hypergraph, x: FractionalCover) -> bool:
    """Exact test: x >= 0 and every vertex gathers total weight >= 1.

    Summed in integers: each weight times d, the lcm of their denominators.
    """
    _check_shape(h, x)
    d = math.lcm(*(w.denominator for w in x.weights))
    scaled = [w.numerator * (d // w.denominator) for w in x.weights]
    return (all(s >= 0 for s in scaled)
            and all(sum(scaled[i] for i in h.edges_with(v)) >= d for v in h.vertices))


def agm_bound(h: Hypergraph, sizes: Sequence[int], x: FractionalCover) -> BoundReport:
    """Evaluate the bound certified by a given cover (log-space product)."""
    _check_shape(h, x)
    sizes = _check_sizes(h, sizes)
    if not is_cover(h, x):
        raise InfeasibleCoverError(f"weights {x.weights} do not cover {h.vertices}")
    log2b = sum((w * log2_fraction(n) for w, n in zip(x.weights, sizes) if w), Fraction(0))
    return BoundReport(x, sizes, log2b)


def min_cover_lp(h: Hypergraph, sizes: Sequence[int]) -> BoundReport:
    """Tightest bound over the cover polyhedron.

    Solved exactly by ``simplex.minimize``, read off the module at each
    call so that a wrapper put there sees every solve.  Its tableau holds
    Python ints and its results are rationals; among optimal vertices
    the lexicographically smallest weight vector (edge-list order) is
    returned, which makes the report deterministic.  The constraint rows
    are the 0/1 vertex-edge incidence as ints, so the tableau needs no
    row scaling; only the costs log2 |R_F| carry denominators.  They are
    never negative, so the dual simplex minimizes the log-size objective
    from the all-surplus basis with no phase 1; its ratio ties are broken
    on the weights' own reduced costs, first weight first, so the one
    pass ends at the lex-least optimal cover.  The result is certified
    by re-evaluating its cover through ``agm_bound``, so a caller needs
    no cover check of its own.
    """
    sizes = _check_sizes(h, sizes)
    m = len(h.edges)
    c = tuple(log2_fraction(n) for n in sizes)
    ge = []
    for v in h.vertices:
        row = [0] * m
        for i in h.edges_with(v):
            row[i] = 1
        ge.append((tuple(row), 1))
    value, x = simplex.minimize(simplex.LinearProgram(c, tuple(ge)))
    report = agm_bound(h, sizes, FractionalCover(x))
    assert report.log2_bound == value
    return report
