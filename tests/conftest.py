import math
import os
import random
import re
import sys
from itertools import islice, product

import pytest
from hypothesis import HealthCheck, settings

from agmjoin import (
    CostMeter,
    FractionalCover,
    JoinQuery,
    PlanError,
    PlanTree,
    QueryFormatError,
    Relation,
    SchemaError,
    descend,
    gen_random,
    join,
    leaf,
    min_cover_lp,
)

settings.register_profile(
    "ci", max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# HYPOTHESIS_PROFILE=deep: CI runs tests/test_simplex.py's and tests/test_formats.py's
# reference properties under it
settings.register_profile("deep", max_examples=2000, parent=settings.get_profile("ci"))
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def random_instance(seed: int, max_n: int = 4, max_m: int = 4, max_rows: int = 12,
                    max_domain: int = 6) -> JoinQuery:
    """Small seeded join query; shapes and data come from the package generator.

    A drawn size can exceed what a narrow relation can hold distinctly
    (the generator refuses more rows than domain**arity); redraw until
    the combination fits.  Deterministic for a given seed.
    """
    from agmjoin import GeneratorParameterError

    rng = random.Random(seed)
    while True:
        n = rng.randint(2, max_n)
        m = rng.randint(1, max_m)
        sizes = [rng.randint(0, max_rows) for _ in range(m)]
        domain = rng.randint(2, max_domain)
        try:
            return gen_random(seed, n, m, sizes, domain).query
        except GeneratorParameterError:
            continue


def random_feasible_cover(q: JoinQuery, rng: random.Random) -> FractionalCover:
    """A random point of the cover polyhedron.

    Convex mixes of covers are covers and adding weight never breaks
    feasibility, so mix the all-ones cover with the LP optimum and
    sprinkle bumps.
    """
    from fractions import Fraction

    ones = [Fraction(1)] * len(q.relations)
    sizes = [max(1, len(r)) for r in q.relations]
    opt = min_cover_lp(q.hypergraph, sizes).cover.weights
    lam = Fraction(rng.randint(0, 8), 8)
    mixed = [lam * a + (1 - lam) * b for a, b in zip(ones, opt)]
    return FractionalCover(
        tuple(w + Fraction(rng.randint(0, 4), 8) for w in mixed)
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xA6A)


def walk(ix, prefix, meter=None):
    """The node that ``prefix``'s values reach from the root of trie ``ix``;
    None when the path is absent.  A prefix longer than the trie is an error."""
    if len(prefix) > ix.depth:
        raise SchemaError(f"prefix {prefix} longer than trie depth {ix.depth}")
    return descend(ix.root, prefix, CostMeter() if meter is None else meter)


def keys(node):
    """The sorted child values of ``node``."""
    level, lo, hi = node
    return tuple(level[0][lo:hi])


def all_join_plans(m: int) -> list[PlanTree]:
    """Every unordered binary join tree over atoms 0..m-1 (join-only)."""
    if m < 1:
        raise PlanError("need at least one atom")

    def build(atoms: tuple[int, ...]) -> list[PlanTree]:
        if len(atoms) == 1:
            return [leaf(atoms[0])]
        out = []
        first, rest = atoms[0], atoms[1:]
        for mask in range(1 << len(rest)):
            left_atoms = (first,) + tuple(a for i, a in enumerate(rest) if mask >> i & 1)
            right_atoms = tuple(a for i, a in enumerate(rest) if not mask >> i & 1)
            if not right_atoms:
                continue
            for l in build(left_atoms):
                for r in build(right_atoms):
                    out.append(join(l, r))
        return out

    return build(tuple(range(m)))


def is_simple(r: Relation) -> bool:
    """True when r is exactly all tuples over 0..d with at most one non-zero
    value, d being the largest value present.  There are 1 + arity * d such
    tuples, so a relation of that many of them holds all of them."""
    if len(r) == 0:
        return False
    d = max(max(t) for t in r.rows)
    return len(r) == 1 + r.arity * d and all(sum(v != 0 for v in t) <= 1 for t in r.rows)


_VALUE = re.compile(r"\s*-?[0-9]+\s*", re.ASCII)


def parse_rows_by_line(text: str, cols: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
    """The rows of a relation file's body, parsed one line at a time: the
    reference for ``formats._parse_rows``, rows and error text alike."""
    rows = []
    for ln, raw in enumerate(text.split("\n"), start=2):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split(",")
        if len(parts) != len(cols):
            raise QueryFormatError(f"line {ln}, column 1: "
                                   f"expected {len(cols)} values, found {len(parts)}")
        try:
            if not body.isascii() or "_" in body or "+" in body:
                raise ValueError  # int() reads these, the format does not
            rows.append(tuple(map(int, parts)))
        except ValueError:
            for k, p in enumerate(parts):
                col = 1 + sum(len(q) + 1 for q in parts[:k])
                if not _VALUE.fullmatch(p):
                    raise QueryFormatError(f"line {ln}, column {col}: "
                                           f"not an integer: {p.strip()!r}") from None
                digits, limit = len(p.strip().lstrip("-")), sys.get_int_max_str_digits()
                if 0 < limit < digits:
                    raise QueryFormatError(f"line {ln}, column {col}: value too long: "
                                           f"{digits} digits, and Python reads at most {limit}") from None
    return tuple(rows)


def oracle_join_by_candidate(q: JoinQuery) -> Relation:
    """Brute force over the active-domain cross product, one candidate and
    one relation at a time: the reference for ``oracle_join``."""
    attrs = q.attrs
    domains = []
    for a in attrs:
        cols = [set(r.column(a)) for r in q.relations if a in r.schema]
        domains.append(sorted(set.intersection(*cols)))
    checks = [(tuple(attrs.index(a) for a in r.schema), set(r.rows)) for r in q.relations]
    out = []
    cands = product(*domains)
    for _ in range(0, math.prod(map(len, domains)), 4096):
        out += [c for c in islice(cands, 4096)
                if all(tuple(c[i] for i in idx) in rows for idx, rows in checks)]
    return Relation(attrs, tuple(out))
