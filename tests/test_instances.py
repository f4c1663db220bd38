import math

import pytest

from agmjoin import (
    GeneratorParameterError,
    evaluate_cq,
    gen_chase_witness,
    gen_clique_query,
    gen_lw_bad,
    gen_lw_query,
    gen_random,
    gen_triangle_bad,
    oracle_join,
    run_join,
)
from conftest import is_simple, project


def test_triangle_bad_shape():
    b = gen_triangle_bad(4)
    assert b.name == "triangle-bad"
    assert b.params == {"m": 4}
    assert b.expected_size == 13
    assert len(b.query.relations) == 3
    for r in b.query.relations:
        assert len(r) == 2 * 4 + 1
        assert is_simple(r)


@pytest.mark.parametrize("m", [1, 2, 5, 8])
def test_triangle_bad_output_size_is_exact(m):
    b = gen_triangle_bad(m)
    assert len(oracle_join(b.query)) == b.expected_size == 3 * m + 1


def test_triangle_bad_rejects_bad_m():
    with pytest.raises(GeneratorParameterError):
        gen_triangle_bad(0)


@pytest.mark.parametrize("m", [1, 2, 5])
def test_triangle_bad_is_the_three_relation_corner_case(m):
    tri = gen_triangle_bad(m)
    lw = gen_lw_bad(3, 2 * m + 1)
    for r, s in zip(tri.query.relations, lw.query.relations):
        assert r.rows == s.rows


def test_lw_bad_validation():
    with pytest.raises(GeneratorParameterError):
        gen_lw_bad(1, 5)
    with pytest.raises(GeneratorParameterError):
        gen_lw_bad(3, 1)
    with pytest.raises(GeneratorParameterError):
        gen_lw_bad(3, 10)  # (N-1) not divisible by (n-1)


@pytest.mark.parametrize("n,big_n", [(3, 9), (4, 10), (5, 13)])
def test_lw_bad_sizes_and_output(n, big_n):
    b = gen_lw_bad(n, big_n)
    d = (big_n - 1) // (n - 1)
    assert len(b.query.relations) == n
    for r in b.query.relations:
        assert r.arity == n - 1
        assert len(r) == big_n  # (n-1) * d + 1 rows, exactly N
        assert is_simple(r)
    assert b.expected_size == n * d + 1
    assert len(oracle_join(b.query)) == b.expected_size


def test_lw_bad_two_relations_cross_product():
    # With two unary factors the join is a full cross product.
    b = gen_lw_bad(2, 4)
    assert b.expected_size == 16
    assert len(oracle_join(b.query)) == 16


def test_lw_bad_every_projection_is_simple():
    b = gen_lw_bad(4, 7)
    r = b.query.relations[0]
    for keep in ((r.schema[0],), r.schema[:2], r.schema):
        assert is_simple(project(r, keep))


def test_clique_query_shape():
    b = gen_clique_query(3, 32, seed=5)
    assert b.name == "clique"
    assert len(b.query.relations) == 3
    for r in b.query.relations:
        assert r.arity == 2
        assert len(r) == 32
        assert len(set(r.rows)) == 32
    assert len({a.name for a in b.query.attrs}) == 3


def test_clique_query_edge_count_grows_quadratically():
    b = gen_clique_query(5, 8, seed=0)
    assert len(b.query.relations) == math.comb(5, 2)


def test_clique_query_validation():
    with pytest.raises(GeneratorParameterError):
        gen_clique_query(2, 8)
    with pytest.raises(GeneratorParameterError):
        gen_clique_query(3, 0)


def test_clique_query_is_deterministic():
    a = gen_clique_query(4, 16, seed=9)
    b = gen_clique_query(4, 16, seed=9)
    c = gen_clique_query(4, 16, seed=10)
    assert [r.rows for r in a.query.relations] == [r.rows for r in b.query.relations]
    assert [r.rows for r in a.query.relations] != [r.rows for r in c.query.relations]


def test_lw_query_shape():
    b = gen_lw_query(3, 8, seed=1)
    assert len(b.query.relations) == 3
    for r in b.query.relations:
        assert r.arity == 2
        assert len(r) == 8


def test_lw_query_omits_one_attribute_per_relation():
    b = gen_lw_query(4, 6, seed=0)
    attrs = b.query.attrs
    schemas = [r.schema for r in b.query.relations]
    for i, schema in enumerate(schemas):
        assert attrs[i] not in schema
        assert len(schema) == 3


def test_chase_witness_structure():
    b = gen_chase_witness(8)
    rows = dict(b.relations)
    assert set(rows["R"]) == {(i, i) for i in range(1, 5)} | {(i, 0) for i in range(1, 5)}
    assert set(rows["S"]) == {(0, j) for j in range(1, 9)}
    assert b.expected_size == 32
    assert len(evaluate_cq(b.query, rows)) == 32


def test_chase_witness_validation():
    with pytest.raises(GeneratorParameterError):
        gen_chase_witness(7)  # odd
    with pytest.raises(GeneratorParameterError):
        gen_chase_witness(0)


def test_random_instances_are_deterministic():
    # sizes stay within domain**1 so even a unary edge can be filled
    a = gen_random(3, 4, 3, [6, 5, 4], 6)
    b = gen_random(3, 4, 3, [6, 5, 4], 6)
    assert [r.rows for r in a.query.relations] == [r.rows for r in b.query.relations]
    assert a.query.hypergraph == b.query.hypergraph


def test_random_instances_respect_requested_sizes():
    b = gen_random(11, 3, 4, [7, 0, 3, 9], 5)
    assert [len(r) for r in b.query.relations] == [7, 0, 3, 9]


def test_random_instance_hypergraph_is_connected():
    for seed in range(12):
        q = gen_random(seed, 5, 4, [4, 4, 4, 4], 4).query
        edges = [set(e) for e in q.hypergraph.edges]
        reach = set(edges[0])
        frontier = True
        while frontier:
            frontier = False
            for e in edges:
                if e & reach and not e <= reach:
                    reach |= e
                    frontier = True
        assert reach == set(q.hypergraph.vertices)


def test_random_instance_rejects_impossible_sizes():
    with pytest.raises(GeneratorParameterError):
        gen_random(0, 2, 1, [100], 3)  # 100 distinct rows cannot fit 3**2


def test_random_instances_join_cleanly():
    for seed in (0, 1, 2):
        q = gen_random(seed, 3, 3, [4, 4, 4], 4).query
        assert run_join(q).output == oracle_join(q)
