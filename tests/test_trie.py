import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agmjoin import (
    CostMeter,
    SchemaError,
    TimeBudgetExceeded,
    build_trie,
    descend,
    intersect,
    iter_leaves,
    make_attrs,
    relation,
    walk,
)

A, B, C = make_attrs("A", "B", "C")

rows3 = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)), max_size=20
)
sorted_list = st.lists(st.integers(0, 40), max_size=25).map(lambda xs: sorted(set(xs)))


def fig_r(m):
    """The flat side of the skewed triangle family: (0, j) and (i, 0)."""
    return [(0, j) for j in range(m + 1)] + [(i, 0) for i in range(1, m + 1)]


@given(rows3)
def test_leaves_round_trip(rows):
    r = relation([A, B, C], rows)
    ix = build_trie(r)
    assert tuple(iter_leaves(ix.root, ix.depth)) == r.rows
    assert len(ix) == len(r)


def test_build_respects_alternative_order():
    r = relation([A, B], [(0, 1), (2, 0)])
    ix = build_trie(r, order=(B, A))
    assert tuple(iter_leaves(ix.root, 2)) == ((0, 2), (1, 0))
    with pytest.raises(SchemaError):
        build_trie(r, order=(A, C))
    with pytest.raises(SchemaError):
        build_trie(r, order=(A, A))


def test_probe_hits_and_misses():
    ix = build_trie(relation([A, B], fig_r(4)))
    assert walk(ix, (0, 3)) is not None
    assert walk(ix, (3, 0)) is not None
    assert walk(ix, (3, 3)) is None
    assert walk(ix, (2,)) is not None  # prefixes are probeable
    assert walk(ix, (9,)) is None
    with pytest.raises(SchemaError):
        walk(ix, (0, 0, 0))


def test_probe_meters_one_per_level_examined():
    ix = build_trie(relation([A, B], fig_r(4)))
    m = CostMeter()
    walk(ix, (0, 3), m)
    assert m.probes == 2
    m = CostMeter()
    walk(ix, (9, 9), m)  # dies at the first level
    assert m.probes == 1


def test_descend_meters_one_probe_per_level_up_to_the_first_miss():
    ix = build_trie(relation([A, B, C], [(0, 1, 2), (0, 1, 3), (4, 5, 6)]))
    for vals, probes in (((), 0), ((0,), 1), ((0, 1, 3), 3), ((0, 9, 3), 2), ((7, 1, 2), 1)):
        m = CostMeter()
        descend(ix.root, vals, m)
        assert m.probes == probes, vals
    assert descend(ix.root, (0, 9, 3)) is None  # no meter: nothing counted, same answer


def test_descend_from_an_inner_node():
    ix = build_trie(relation([A, B, C], [(0, 1, 2), (0, 1, 3), (4, 5, 6)]))
    inner = descend(ix.root, (0,))
    m = CostMeter()
    node = descend(inner, (1,), m)
    assert m.probes == 1
    assert node is walk(ix, (0, 1))
    assert node.keys == (2, 3)
    assert descend(inner, (1, 3)) is walk(ix, (0, 1, 3))
    assert descend(inner, ()) is inner


def test_descend_returns_none_on_an_absent_path():
    ix = build_trie(relation([A, B], fig_r(3)))
    assert descend(ix.root, (3, 3)) is None  # first level present, second absent
    assert descend(ix.root, (8,)) is None
    assert descend(descend(ix.root, (1,)), (1,)) is None
    assert descend(descend(ix.root, (1, 0)), (0,)) is None  # below a leaf


def test_children_and_child_counts():
    ix = build_trie(relation([A, B], fig_r(4)))
    assert walk(ix, ()).keys == (0, 1, 2, 3, 4)
    assert walk(ix, (0,)).keys == (0, 1, 2, 3, 4)
    assert walk(ix, (3,)).keys == (0,)
    assert walk(ix, (9,)) is None
    assert walk(ix, ()).pcounts[0] == 5
    assert walk(ix, (0,)).pcounts[0] == 5
    assert walk(ix, (0, 0)).keys == ()  # full-length prefix: nothing below


@given(rows3, st.tuples(st.integers(0, 4)))
def test_children_match_projection_oracle(rows, prefix):
    r = relation([A, B, C], rows)
    ix = build_trie(r)
    want = tuple(sorted({t[1] for t in r.rows if t[0] == prefix[0]}))
    node = walk(ix, prefix)
    assert (node.keys if node is not None else ()) == want
    assert (node.pcounts[0] if node is not None else 0) == len(want)


@given(rows3)
def test_pcounts_count_distinct_prefixes(rows):
    r = relation([A, B, C], rows)
    ix = build_trie(r)
    for d in range(3):
        want = len({t[: d + 1] for t in r.rows})
        assert ix.root.pcounts[d] == want
    assert ix.root.size == len(r)


def test_empty_relation_trie():
    ix = build_trie(relation([A, B], []))
    assert len(ix) == 0
    assert ix.root.keys == ()
    assert walk(ix, (0, 0)) is None
    assert ix.root.pcounts == (0, 0)


def test_walk_returns_subtree_nodes():
    ix = build_trie(relation([A, B], fig_r(3)))
    node = walk(ix, (0,))
    assert node is not None and node.size == 4
    assert walk(ix, (7,)) is None


@given(st.lists(sorted_list, min_size=1, max_size=4))
def test_intersect_matches_set_intersection(lists):
    want = set(lists[0])
    for xs in lists[1:]:
        want &= set(xs)
    assert intersect(lists) == sorted(want)


@given(st.lists(sorted_list, min_size=2, max_size=4))
def test_intersect_advance_budget(lists):
    m = CostMeter()
    intersect(lists, m)
    k = len(lists)
    min_len = min(len(xs) for xs in lists)
    max_len = max(len(xs) for xs in lists)
    budget = k * min_len * max(1, math.ceil(math.log2(max_len)) if max_len > 1 else 1)
    assert m.advances <= budget


def test_intersect_edge_cases():
    with pytest.raises(SchemaError):
        intersect([])
    assert intersect([[1, 2, 3]]) == [1, 2, 3]
    assert intersect([[1, 2], []]) == []
    m = CostMeter()
    assert intersect([[1, 2], [], [0]], m) == []
    assert m.total_ops == 0  # empty input short-circuits before any work


def test_intersect_meters_probes():
    m = CostMeter()
    out = intersect([[1, 2, 3], [2, 3, 4]], m)
    assert out == [2, 3]
    assert m.probes >= len(out)


def test_meter_totals_and_deadline():
    m = CostMeter(probes=1, advances=2, emits=3, recursions=4)
    assert m.total_ops == 10
    m.check_deadline()  # no deadline set: never fires
    m.start_deadline(1e-9)
    time.sleep(0.01)
    with pytest.raises(TimeBudgetExceeded):
        m.check_deadline()
    m.start_deadline(None)
    m.check_deadline()
