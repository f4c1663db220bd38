import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agmjoin import (
    Hypergraph,
    JoinQuery,
    Relation,
    SchemaError,
    attrs_sorted,
    join_query,
    make_attrs,
    min_cover_lp,
    oracle_join,
    project,
    relation,
    semijoin,
)

A, B, C, D = make_attrs("A", "B", "C", "D")

rows2 = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12)


def test_attribute_order_is_by_id_not_name():
    z, a = make_attrs("Z", "A")
    assert z < a
    assert attrs_sorted([a, z]) == (z, a)


def test_make_attrs_start_offset():
    (x,) = make_attrs("X", start=7)
    assert x.id == 7


def test_relation_sorts_and_dedups():
    r = relation([A, B], [(2, 1), (0, 3), (2, 1)])
    assert r.rows == ((0, 3), (2, 1))
    assert len(r) == 2
    assert r.arity == 2


def test_relation_drops_an_adjacent_duplicate_in_sorted_rows():
    r = Relation((A, B), ((1, 2), (1, 2), (3, 4)))
    assert r.rows == ((1, 2), (3, 4))


def test_relation_keeps_strictly_increasing_rows_as_given():
    rows = ((0, 5), (1, 2), (1, 3))
    assert Relation((A, B), rows).rows is rows


def test_relation_permutes_to_schema_order():
    # Rows arrive laid out as (B, A); storage is in global attribute order.
    r = relation([B, A], [(1, 2), (3, 0)])
    assert r.schema == (A, B)
    assert r.rows == ((0, 3), (2, 1))


def test_relation_rejects_bad_arity_and_dup_attrs():
    with pytest.raises(SchemaError):
        relation([A, B], [(1,)])
    with pytest.raises(SchemaError):
        relation([A, A], [(1, 2)])


@pytest.mark.parametrize("bad", [True, False, -1, 1.0, "1", None])
def test_relation_rejects_non_encodable_values(bad):
    """Only non-negative ints can be written to a .rel file and read back;
    a bool would be written as True or False."""
    with pytest.raises(SchemaError, match="non-encodable value"):
        relation([A, B], [(0, 0), (bad, 0)])


def test_position_and_column():
    r = relation([A, B], [(1, 2), (1, 3), (4, 2)])
    assert r.position(B) == 1
    assert r.column(A) == (1, 4)
    with pytest.raises(SchemaError):
        r.position(C)


@given(rows2)
def test_project_matches_set_comprehension(rows):
    r = relation([A, B], rows)
    p = project(r, [B])
    assert set(p.rows) == {(b,) for _, b in r.rows}
    assert p.schema == (B,)


def test_project_to_nothing_is_boolean():
    assert project(relation([A], [(1,)]), []).rows == ((),)
    assert project(relation([A], []), []).rows == ()


@given(rows2, st.integers(0, 5))
def test_select_and_semijoin_agree_with_filters(rows, v):
    r = relation([A, B], rows)
    assert set(semijoin(r, {A: v}).rows) == {t for t in r.rows if t[0] == v}
    # Semijoin against a binding mentioning B and an attribute r lacks.
    kept = semijoin(r, {B: v, C: 9})
    assert set(kept.rows) == {t for t in r.rows if t[1] == v}


def natural_join(r: Relation, s: Relation) -> Relation:
    """Plain hash natural join, kept here as an independent check of ``oracle_join``."""
    shared = [a for a in r.schema if a in s.schema]
    out_schema = attrs_sorted(r.schema + s.schema)
    r_pos = [r.schema.index(a) for a in shared]
    s_pos = [s.schema.index(a) for a in shared]
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for u in s.rows:
        table.setdefault(tuple(u[i] for i in s_pos), []).append(u)
    out = set()
    for t in r.rows:
        for u in table.get(tuple(t[i] for i in r_pos), ()):
            merged = {**dict(zip(r.schema, t)), **dict(zip(s.schema, u))}
            out.add(tuple(merged[a] for a in out_schema))
    return Relation(out_schema, tuple(out))


def test_natural_join_small_example():
    r = relation([A, B], [(1, 2), (1, 3), (5, 5)])
    s = relation([B, C], [(2, 7), (3, 7), (3, 8)])
    out = natural_join(r, s)
    assert out.schema == (A, B, C)
    assert set(out.rows) == {(1, 2, 7), (1, 3, 7), (1, 3, 8)}


@given(rows2, rows2)
def test_natural_join_is_commutative(xs, ys):
    r = relation([A, B], xs)
    s = relation([B, C], ys)
    assert natural_join(r, s) == natural_join(s, r)


@given(rows2)
def test_natural_join_disjoint_schemas_is_cross_product(rows):
    r = relation([A, B], rows)
    s = relation([C], [(0,), (1,)])
    out = natural_join(r, s)
    assert len(out) == 2 * len(r)


def test_hypergraph_validation():
    with pytest.raises(SchemaError):
        Hypergraph((A, B), ((B, A),))  # edge not sorted in global order
    with pytest.raises(SchemaError):
        Hypergraph((A, A), ((A,),))  # duplicate vertex
    with pytest.raises(SchemaError):
        Hypergraph((A, B), ((A,),))  # B is isolated
    with pytest.raises(SchemaError):
        Hypergraph((A,), ((A,), ()))  # empty edge
    with pytest.raises(SchemaError):
        Hypergraph((A,), ((A, B),))  # edge uses unknown vertex
    h = Hypergraph((A, B), ((A, B), (A, B)))  # duplicate edges are allowed
    assert len(h.edges) == 2
    assert h.edges_with(A) == (0, 1)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=6))))
def test_incidence_matches_vertex_edge_containment(shape):
    n, picks = shape
    vs = make_attrs(*(f"V{i}" for i in range(n)))
    covered = set().union(*picks)
    picks = picks + [{i} for i in range(n) if i not in covered]  # no isolated vertex
    edges = tuple(tuple(vs[i] for i in sorted(p)) for p in picks)
    h = Hypergraph(vs, edges)
    for a in vs:
        assert h.edges_with(a) == tuple(i for i, e in enumerate(edges) if a in e)


def test_join_query_reads_hypergraph_off_schemas():
    r = relation([A, B], [(1, 2)])
    s = relation([B, C], [(2, 3)])
    q = join_query([r, s])
    assert q.hypergraph.edges == ((A, B), (B, C))
    assert q.attrs == (A, B, C)
    assert q.sizes == (1, 1)


def test_join_query_needs_a_relation():
    with pytest.raises(SchemaError):
        join_query([])
    with pytest.raises(SchemaError):
        JoinQuery(Hypergraph((), ()), ())
    # the empty shape itself stays valid, and so does its cover LP
    assert min_cover_lp(Hypergraph((), ()), ()).log2_bound == 0


def test_join_query_schema_must_match_edge():
    h = Hypergraph((A, B, C), ((A, B), (B, C)))
    r = relation([A, B], [(1, 2)])
    with pytest.raises(SchemaError):
        JoinQuery(h, (r, r))


def triangle(r_rows, s_rows, t_rows):
    return join_query(
        [relation([A, B], r_rows), relation([B, C], s_rows), relation([A, C], t_rows)]
    )


def test_oracle_join_triangle_by_hand():
    q = triangle([(0, 1), (0, 2)], [(1, 5), (2, 6)], [(0, 5)])
    assert set(oracle_join(q).rows) == {(0, 1, 5)}


@given(rows2, rows2)
def test_oracle_join_agrees_with_natural_join_on_two_relations(xs, ys):
    r = relation([A, B], xs)
    s = relation([B, C], ys)
    assert oracle_join(join_query([r, s])) == natural_join(r, s)


def test_oracle_join_three_paths_brute():
    q = triangle(
        [(a, b) for a in range(3) for b in range(3)],
        [(b, c) for b in range(3) for c in range(3)],
        [(a, c) for a in range(3) for c in range(3)],
    )
    out = oracle_join(q)
    assert set(out.rows) == set(itertools.product(range(3), repeat=3))
