"""Deterministic instance generators: adversarial families and seeded noise.

Two hand-built families drive the separation experiments:

* ``gen_triangle_bad`` — the triangle instance whose relations each hold
  one "star" value: every pairwise join blows up to a quadratic
  intermediate while the triangle output stays linear.
* ``gen_lw_bad`` — its n-ary generalization: each relation is the full
  simple relation (at most one non-zero coordinate) over all attributes
  but one.  Pairwise joins of distinct-schema simple relations are
  forced quadratic in the domain, yet the full join stays linear.

The random families (``gen_clique_query``, ``gen_lw_query``,
``gen_random``) exist for scaling measurements and fuzzing; they are
reproducible from their seed, with one independent stream per relation
so adding a relation never perturbs the data of earlier ones.

Every generator returns an :class:`InstanceBundle`; regenerating with
identical parameters is bit-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .errors import GeneratorParameterError
from .relational import JoinQuery, Relation, Row, join_query, make_attrs, relation
from .rewrite import Atom, ConjunctiveQuery


@dataclass(frozen=True)
class InstanceBundle:
    """A query, its data, and how they were made.

    For natural-join families ``relations`` simply aliases
    ``query.relations``; the conjunctive-query family keeps its data in
    a symbol-keyed mapping instead, since its body repeats symbols.
    ``expected_size`` carries the closed-form output size when the
    family has one.
    """

    query: Union[JoinQuery, ConjunctiveQuery]
    relations: Union[tuple[Relation, ...], Mapping[str, tuple[Row, ...]]]
    name: str
    params: Mapping[str, object]
    expected_size: int | None = None


def _simple_rows(arity: int, d: int) -> list[Row]:
    """All tuples over {0..d}^arity with at most one non-zero coordinate."""
    rows = [(0,) * arity]
    for pos in range(arity):
        for v in range(1, d + 1):
            rows.append(tuple(v if k == pos else 0 for k in range(arity)))
    return rows


def gen_triangle_bad(m: int) -> InstanceBundle:
    """Triangle instance with N = 2m+1 rows per relation and 3m+1 output rows.

    Each relation pairs value 0 with everything and everything with 0,
    so any two relations join into ~m^2 rows, while the only triangles
    are (0,0,j), (0,j,0), (j,0,0) and (0,0,0).
    """
    if m < 1:
        raise GeneratorParameterError(f"need m >= 1, got {m}")
    a, b, c = make_attrs("A", "B", "C")
    rows = _simple_rows(2, m)
    rels = (relation((a, b), rows), relation((b, c), rows), relation((a, c), rows))
    return InstanceBundle(
        query=join_query(rels),
        relations=rels,
        name="triangle-bad",
        params={"m": m},
        expected_size=3 * m + 1,
    )


def gen_lw_bad(n: int, big_n: int) -> InstanceBundle:
    """n relations, each the full simple relation on all attributes but one.

    With d = (N-1)/(n-1) each relation has exactly
    (n-1)*d + 1 = N rows.  A joined tuple must look simple from every
    angle, so for n >= 3 the output is exactly the simple tuples over
    all n attributes: N + d of them.  Divisibility of N-1 by n-1 is
    required so both formulas stay exact.
    """
    if n < 2:
        raise GeneratorParameterError(f"need n >= 2, got {n}")
    if big_n < 2:
        raise GeneratorParameterError(f"need N >= 2, got {big_n}")
    if (big_n - 1) % (n - 1) != 0:
        raise GeneratorParameterError(f"N-1 = {big_n - 1} not divisible by n-1 = {n - 1}")
    d = (big_n - 1) // (n - 1)
    attrs = make_attrs(*(f"X{i}" for i in range(n)))
    rows = _simple_rows(n - 1, d)
    rels = tuple(
        relation(tuple(a for j, a in enumerate(attrs) if j != i), rows) for i in range(n)
    )
    # Two unary factors join into a full cross product; the "simple from
    # every angle" argument needs n >= 3.
    expected = n * d + 1 if n >= 3 else big_n * big_n
    return InstanceBundle(
        query=join_query(rels),
        relations=rels,
        name="lw-bad",
        params={"n": n, "N": big_n},
        expected_size=expected,
    )


def _distinct_tuples(rng: random.Random, count: int, arity: int, domain: int) -> list[Row]:
    space = domain**arity
    if count > space:
        raise GeneratorParameterError(
            f"cannot draw {count} distinct tuples from {domain}^{arity} = {space}"
        )
    out: set[Row] = set()
    while len(out) < count:
        out.add(tuple(rng.randrange(domain) for _ in range(arity)))
    return sorted(out)


def gen_clique_query(k: int, big_n: int, seed: int = 0) -> InstanceBundle:
    """One binary relation per attribute pair, N seeded-random rows each."""
    if k < 3:
        raise GeneratorParameterError(f"need k >= 3, got {k}")
    if big_n < 1:
        raise GeneratorParameterError(f"need N >= 1, got {big_n}")
    attrs = make_attrs(*(f"X{i}" for i in range(k)))
    rels = []
    for i in range(k):
        for j in range(i + 1, k):
            rng = random.Random(f"{seed}:E{i},{j}")
            rels.append(relation((attrs[i], attrs[j]), _distinct_tuples(rng, big_n, 2, big_n)))
    rels = tuple(rels)
    return InstanceBundle(
        query=join_query(rels),
        relations=rels,
        name="clique",
        params={"k": k, "N": big_n, "seed": seed},
    )


def gen_lw_query(k: int, big_n: int, seed: int = 0) -> InstanceBundle:
    """k relations of arity k-1, each on all attributes but one, random rows."""
    if k < 3:
        raise GeneratorParameterError(f"need k >= 3, got {k}")
    if big_n < 1:
        raise GeneratorParameterError(f"need N >= 1, got {big_n}")
    attrs = make_attrs(*(f"X{i}" for i in range(k)))
    rels = []
    for i in range(k):
        rng = random.Random(f"{seed}:R{i}")
        schema = tuple(a for j, a in enumerate(attrs) if j != i)
        rels.append(relation(schema, _distinct_tuples(rng, big_n, k - 1, big_n)))
    rels = tuple(rels)
    return InstanceBundle(
        query=join_query(rels),
        relations=rels,
        name="lw",
        params={"k": k, "N": big_n, "seed": seed},
    )


def gen_chase_witness(big_n: int) -> InstanceBundle:
    """Instance showing the chase-free quadratic bound is nearly attained.

    Q(W,X,Y) <- R(W,X), R(W,W), S(X,Y) over
    R = {(i,i)} u {(i,0)} for i in 1..N/2 and S = {(0,j)} for j in 1..N
    outputs exactly (i,0,j) for all i,j: N^2/2 tuples.  (Note R violates
    a first-column key on purpose — with that key the chase collapses
    the query and the bound drops to N.)
    """
    if big_n < 2 or big_n % 2 != 0:
        raise GeneratorParameterError(f"need even N >= 2, got {big_n}")
    half = big_n // 2
    r_rows = tuple(sorted([(i, i) for i in range(1, half + 1)] + [(i, 0) for i in range(1, half + 1)]))
    s_rows = tuple((0, j) for j in range(1, big_n + 1))
    query = ConjunctiveQuery(
        head=Atom("Q", ("W", "X", "Y")),
        body=(Atom("R", ("W", "X")), Atom("R", ("W", "W")), Atom("S", ("X", "Y"))),
    )
    return InstanceBundle(
        query=query,
        relations={"R": r_rows, "S": s_rows},
        name="chase-witness",
        params={"N": big_n},
        expected_size=half * big_n,
    )


def gen_random(
    seed: int, n: int, m: int, sizes: Union[int, Sequence[int]], domain: int
) -> InstanceBundle:
    """Seeded random join query: connected hypergraph, exact-size relations.

    The shape stream first covers every attribute, then stitches the
    edges into one connected component, then sprinkles extra attributes;
    each relation's rows come from an independent per-relation stream,
    drawn without duplicates.
    """
    if n < 1 or m < 1 or domain < 1:
        raise GeneratorParameterError(f"parameters must be positive: n={n} m={m} domain={domain}")
    size_list = list(sizes) if not isinstance(sizes, int) else [sizes] * m
    if len(size_list) != m:
        raise GeneratorParameterError(f"{len(size_list)} sizes for {m} relations")
    if any(s < 0 for s in size_list):
        raise GeneratorParameterError(f"negative relation size in {size_list}")

    shape = random.Random(f"{seed}:shape")
    members: list[set[int]] = [{shape.randrange(n)} for _ in range(m)]
    for v in range(n):
        members[shape.randrange(m)].add(v)
    # stitch components together: edges sharing an attribute are connected
    def comp_of() -> list[int]:
        comp = list(range(m))

        def find(x: int) -> int:
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for i in range(m):
            for j in range(i + 1, m):
                if members[i] & members[j]:
                    comp[find(i)] = find(j)
        return [find(i) for i in range(m)]

    comp = comp_of()
    while len(set(comp)) > 1:
        a, b = sorted(set(comp))[:2]
        donors = [i for i in range(m) if comp[i] == a]
        takers = [i for i in range(m) if comp[i] == b]
        v = shape.choice(sorted(members[shape.choice(donors)]))
        members[shape.choice(takers)].add(v)
        comp = comp_of()
    for e in members:
        for v in range(n):
            if v not in e and shape.random() < 1.0 / n:
                e.add(v)

    attrs = make_attrs(*(f"X{i}" for i in range(n)))
    rels = []
    for i, e in enumerate(members):
        rng = random.Random(f"{seed}:R{i}")
        schema = tuple(attrs[v] for v in sorted(e))
        rels.append(relation(schema, _distinct_tuples(rng, size_list[i], len(schema), domain)))
    rels = tuple(rels)
    return InstanceBundle(
        query=join_query(rels),
        relations=rels,
        name="random",
        params={"seed": seed, "n": n, "m": m, "sizes": tuple(size_list), "domain": domain},
    )
