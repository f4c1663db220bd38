import math
import time
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agmjoin import (
    CostMeter,
    SchemaError,
    TimeBudgetExceeded,
    build_trie,
    count,
    descend,
    intersect,
    iter_leaves,
    join_query,
    leapfrog_strategy,
    make_attrs,
    nprr_strategy,
    oracle_join,
    relation,
    run_join,
)
from agmjoin.trie import children, leaf_rows
from conftest import keys, walk

A, B, C, D = make_attrs("A", "B", "C", "D")

rows3 = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)), max_size=20
)
rows4 = st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=30)
sorted_list = st.lists(st.integers(0, 40), max_size=25).map(lambda xs: sorted(set(xs)))


def one_level(xs):
    """A sorted list as the root node of a one-level trie."""
    return ((xs, None, None), 0, len(xs))


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
    with pytest.raises(SchemaError):  # a trie has at least one level
        build_trie(relation([], [()]))


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
    assert descend(ix.root, (0, 9, 3), CostMeter()) is None


def test_descend_from_an_inner_node():
    ix = build_trie(relation([A, B, C], [(0, 1, 2), (0, 1, 3), (4, 5, 6)]))
    inner = descend(ix.root, (0,), CostMeter())
    m = CostMeter()
    node = descend(inner, (1,), m)
    assert m.probes == 1
    assert node == walk(ix, (0, 1))
    assert keys(node) == (2, 3)
    assert descend(inner, (1, 3), CostMeter()) is walk(ix, (0, 1, 3))
    assert descend(inner, (), CostMeter()) is inner


def test_descend_returns_none_on_an_absent_path():
    ix = build_trie(relation([A, B], fig_r(3)))
    assert descend(ix.root, (3, 3), CostMeter()) is None  # first level present, second absent
    assert descend(ix.root, (8,), CostMeter()) is None
    assert descend(descend(ix.root, (1,), CostMeter()), (1,), CostMeter()) is None
    assert descend(descend(ix.root, (1, 0), CostMeter()), (0,), CostMeter()) is None  # below a leaf


def test_children_and_child_counts():
    ix = build_trie(relation([A, B], fig_r(4)))
    assert keys(walk(ix, ())) == (0, 1, 2, 3, 4)
    assert keys(walk(ix, (0,))) == (0, 1, 2, 3, 4)
    assert keys(walk(ix, (3,))) == (0,)
    assert walk(ix, (9,)) is None
    assert count(walk(ix, ()), 0) == 5
    assert count(walk(ix, (0,)), 0) == 5
    assert keys(walk(ix, (0, 0))) == ()  # full-length prefix: nothing below


@given(rows3, st.tuples(st.integers(0, 4)))
def test_children_match_projection_oracle(rows, prefix):
    r = relation([A, B, C], rows)
    ix = build_trie(r)
    want = tuple(sorted({t[1] for t in r.rows if t[0] == prefix[0]}))
    node = walk(ix, prefix)
    assert (keys(node) if node is not None else ()) == want
    assert (count(node, 0) if node is not None else 0) == len(want)


@given(rows3)
def test_pcounts_count_distinct_prefixes(rows):
    r = relation([A, B, C], rows)
    ix = build_trie(r)
    for d in range(3):
        want = len({t[: d + 1] for t in r.rows})
        assert count(ix.root, d) == want
    assert len(ix) == len(r)


def test_empty_relation_trie():
    ix = build_trie(relation([A, B], []))
    assert len(ix) == 0
    assert keys(ix.root) == ()
    assert walk(ix, (0, 0)) is None
    assert (count(ix.root, 0), count(ix.root, 1)) == (0, 0)


def test_walk_returns_subtree_nodes():
    ix = build_trie(relation([A, B], fig_r(3)))
    node = walk(ix, (0,))
    assert node is not None and count(node, 0) == 4
    assert walk(ix, (7,)) is None


@given(st.lists(sorted_list, min_size=1, max_size=4))
def test_intersect_matches_set_intersection(lists):
    want = set(lists[0])
    for xs in lists[1:]:
        want &= set(xs)
    assert intersect([one_level(xs) for xs in lists], CostMeter()) == sorted(want)


@given(st.lists(sorted_list, min_size=2, max_size=4))
def test_intersect_advance_budget(lists):
    m = CostMeter()
    intersect([one_level(xs) for xs in lists], m)
    k = len(lists)
    min_len = min(len(xs) for xs in lists)
    max_len = max(len(xs) for xs in lists)
    budget = k * min_len * max(1, math.ceil(math.log2(max_len)) if max_len > 1 else 1)
    assert m.advances <= budget


def test_intersect_edge_cases():
    with pytest.raises(SchemaError):
        intersect([], CostMeter())
    assert intersect([one_level([1, 2, 3])], CostMeter()) == [1, 2, 3]
    assert intersect([one_level([1, 2]), one_level([])], CostMeter()) == []
    m = CostMeter()
    assert intersect([one_level([1, 2]), one_level([]), one_level([0])], m) == []
    assert m.total_ops == 0  # empty input short-circuits before any work


def test_intersect_meters_probes():
    m = CostMeter()
    out = intersect([one_level([1, 2, 3]), one_level([2, 3, 4])], m)
    assert out == [2, 3]
    assert m.probes >= len(out)


def test_intersect_meters_pin_the_pivot_and_the_search_order():
    # The first of the two smallest inputs drives; the others are
    # searched in input order.  Driving by the second one, or searching
    # the long input first, reads (5, 7), (6, 9) or (5, 8) instead.
    lists = [[1, 5, 18, 24], [0, 9, 24, 26], [8, 12, 13, 15, 18, 19, 22, 23, 24, 27]]
    m = CostMeter()
    assert intersect([one_level(xs) for xs in lists], m) == [24]
    assert (m.probes, m.advances) == (5, 6)


def _reference_seek(arr, pos, n, v, meter):
    """The galloping seek the one-bisect seek is metered as: double from
    ``pos`` while the key there is below v, then bisect the last window."""
    step = 1
    galloped = 0
    while pos + step < n and arr[pos + step] < v:
        step <<= 1
        galloped += 1
    lo = pos + (step >> 1) + 1 if step > 1 else pos + 1
    hi = min(pos + step + 1, n)
    out = bisect_left(arr, v, lo, hi)
    meter.advances += min(galloped + (hi - lo).bit_length(), (n - pos - 1).bit_length())
    return out


def _reference_intersect(nodes, meter):
    """The k-way intersection with the galloping seek, metered as it goes."""
    lens = [hi - lo for _, lo, hi in nodes]
    if 0 in lens:
        return []
    pivot_i = lens.index(min(lens))
    level, lo, hi = nodes[pivot_i]
    others = [(n[0][0], n[2]) for n in nodes]
    pos = [n[1] for n in nodes]
    del others[pivot_i], pos[pivot_i]
    out = []
    for v in level[0][lo:hi]:
        ok = True
        for j, (arr, end) in enumerate(others):
            p = pos[j]
            if p == end:
                return out
            meter.probes += 1
            if arr[p] < v:
                p = _reference_seek(arr, p, end, v, meter)
                pos[j] = p
                if p == end:
                    return out
            if arr[p] != v:
                ok = False
                break
        if ok:
            out.append(v)
    return out


wide_values = (st.integers(0, 60) | st.integers(2**64 - 8, 2**64 + 8)
               | st.integers(0, 2**70))


@st.composite
def sub_ranges(draw):
    """A sorted list as a node over a drawn [lo, hi) range of it, maybe empty."""
    xs = sorted(set(draw(st.lists(wide_values, max_size=80))))
    lo = draw(st.integers(0, len(xs)))
    hi = draw(st.just(len(xs)) | st.integers(lo, len(xs)))
    return ((xs, None, None), lo, hi)


@st.composite
def intersect_inputs(draw):
    """One to four nodes, one of them, at a drawn position, maybe cut to a
    single key: one of another node's keys or any value."""
    nodes = draw(st.lists(sub_ranges(), min_size=1, max_size=4))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(nodes) - 1))
        pool = [v for (xs, _, _), lo, hi in nodes for v in xs[lo:hi]]
        v = draw(st.sampled_from(pool) | wide_values if pool else wide_values)
        xs = sorted(set(draw(st.lists(wide_values, max_size=6))) | {v})
        i = xs.index(v)
        nodes[at] = ((xs, None, None), i, i + 1)
    return nodes


@settings(max_examples=400)
@given(intersect_inputs())
@example([one_level([200]), one_level(list(range(100)))])  # a seek off the end: the cap binds
@example([one_level(list(range(100))), one_level([50])])  # a one-key pivot after the first node
@example([one_level([3, 5]), one_level([5]), one_level([1, 5, 9])])  # ... in the middle
@example([one_level([1, 5, 9]), one_level([3, 5]), one_level([4])])  # ... last, and missing
@example([((list(range(10)), None, None), 2, 9)])  # a lone node over part of its level
def test_intersect_matches_the_galloping_reference(nodes):
    m, ref, pm = CostMeter(), CostMeter(), CostMeter()
    want = _reference_intersect(nodes, ref)
    assert intersect(nodes, m) == want
    assert (m.probes, m.advances) == (ref.probes, ref.advances)
    vals, at = intersect(nodes, pm, positions=True)
    assert vals == want
    assert (pm.probes, pm.advances) == (ref.probes, ref.advances)
    assert len(at) == len(nodes)
    for ((xs, _, _), lo, hi), idx in zip(nodes, at):
        assert list(idx) == [bisect_left(xs, v, lo, hi) for v in want]
        assert [xs[i] for i in idx] == want


@st.composite
def open_cases(draw):
    """One to three nodes above the last level of tries over one relation
    of arity 2-3 in drawn orders: roots, or children of a drawn first key."""
    arity = draw(st.integers(2, 3))
    val = st.integers(0, 4) | st.integers(2**64, 2**64 + 2)
    r = relation((A, B, C)[:arity], draw(st.lists(st.tuples(*[val] * arity), max_size=25)))
    nodes = []
    for _ in range(draw(st.integers(1, 3))):
        ix = build_trie(r, draw(st.permutations(r.schema)))
        node = ix.root
        if arity == 3 and r.rows and draw(st.booleans()):
            node = descend(node, (draw(st.sampled_from(keys(node))),), CostMeter())
        nodes.append(node)
    return nodes


@given(open_cases())
def test_an_opened_child_is_the_descent_to_it(nodes):
    """A child range opened at the index ``intersect`` reports is the node
    a one-level descent by the matched value reaches."""
    vals, at = intersect(nodes, CostMeter(), positions=True)
    for node, idx in zip(nodes, at):
        opened = list(children(node[0], idx))
        assert opened == [descend(node, (v,), CostMeter()) for v in vals]


def test_intersect_checks_the_deadline_every_1024_pivot_keys():
    xs = list(range(3000))
    m = CostMeter()
    m.deadline = time.monotonic() - 1
    # The first block of 1024 pivot keys: one probe each, and a one-step
    # seek for each but the first.  Its counts reach the meter before the check.
    with pytest.raises(TimeBudgetExceeded, match="after 2047 ops"):
        intersect([one_level(xs), one_level(xs)], m)
    assert (m.probes, m.advances) == (1024, 1023)
    assert intersect([one_level(xs[:1024]), one_level(xs)], m) == xs[:1024]  # one block: no check


def test_intersect_searches_only_inside_each_node_range():
    ix = build_trie(relation([A, B], [(0, 1), (0, 5), (0, 9), (1, 2), (1, 5), (2, 5), (2, 9)]))
    got = intersect([walk(ix, (0,)), walk(ix, (1,)), walk(ix, (2,))], CostMeter())
    assert got == [5]
    assert intersect([walk(ix, (0,)), walk(ix, (2,))], CostMeter()) == [5, 9]


def _prefixes(rows, n):
    return sorted({t[:n] for t in rows})


@given(rows4, st.permutations(range(4)))
def test_count_and_leaves_below_every_inner_node_match_the_oracle(rows, perm):
    r = relation([A, B, C, D], rows)
    order = tuple((A, B, C, D)[i] for i in perm)
    ix = build_trie(r, order)
    ordered = [tuple(t[i] for i in perm) for t in r.rows]
    for n in range(ix.depth):
        for p in _prefixes(ordered, n):
            node = walk(ix, p)
            below = [t[n:] for t in ordered if t[:n] == p]
            for d in range(ix.depth - n):
                assert count(node, d) == len({t[: d + 1] for t in below}), (p, d)
            assert list(iter_leaves(node, ix.depth - n)) == sorted(below), p


@st.composite
def leaf_row_cases(draw):
    """A relation of arity 1-4 with values past 2**64, and a trie order:
    the schema order itself, or a drawn permutation of it."""
    arity = draw(st.integers(1, 4))
    val = st.integers(0, 3) | st.integers(2**64, 2**64 + 3)
    rel = relation((A, B, C, D)[:arity], draw(st.lists(st.tuples(*[val] * arity), max_size=30)))
    order = rel.schema if draw(st.booleans()) else tuple(draw(st.permutations(rel.schema)))
    return rel, order


@given(leaf_row_cases())
def test_leaf_rows_are_the_column_walk_at_full_depth(case):
    """At every node of every depth, the slice of sorted rows below it holds
    the node's prefix and then exactly ``iter_leaves``'s suffixes; asked for
    fewer levels than the node has below it (a projection), there is no
    slice, and ``iter_leaves`` alone reads its leaves."""
    rel, order = case
    ix = build_trie(rel, order)
    ordered = sorted(tuple(t[rel.schema.index(a)] for a in order) for t in rel.rows)
    if order == rel.schema:
        assert leaf_rows(ix.root, ix.depth) == rel.rows  # the relation's own tuple, sliced whole
    for n in range(ix.depth):
        for p in _prefixes(ordered, n):
            node = walk(ix, p)
            rest = ix.depth - n
            rows = leaf_rows(node, rest)
            assert [t[:n] for t in rows] == [p] * len(rows)
            assert [t[n:] for t in rows] == list(iter_leaves(node, rest)) == [
                t[n:] for t in ordered if t[:n] == p]
            for k in range(1, rest):
                assert leaf_rows(node, k) is None
                assert list(iter_leaves(node, k)) == sorted({t[n:n + k] for t in rows})


HUGE = 2**64
huge_values = st.integers(0, 2) | st.integers(HUGE, HUGE + 2) | st.integers(2**80, 2**80 + 1)
huge_pairs = st.lists(st.tuples(huge_values, huge_values), max_size=12)


@given(huge_pairs, huge_pairs, huge_pairs)
def test_values_past_64_bits_build_walk_and_join(r_rows, s_rows, t_rows):
    r = relation([A, B], r_rows)
    ix = build_trie(r, (B, A))
    for a, b in r.rows:
        assert walk(ix, (b, a)) == descend(walk(ix, (b,)), (a,), CostMeter())
        assert walk(ix, (b, a)) is not None
    assert walk(ix, (HUGE + 3,)) is None
    assert list(iter_leaves(ix.root, 2)) == sorted((b, a) for a, b in r.rows)
    q = join_query([r, relation([B, C], s_rows), relation([A, C], t_rows)])
    want = oracle_join(q)
    for strat in (nprr_strategy(), leapfrog_strategy()):
        assert run_join(q, strat).output == want


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
