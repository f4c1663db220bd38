import hashlib
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import agmjoin
from agmjoin import (
    CostMeter,
    PlanError,
    PlanTree,
    TimeBudgetExceeded,
    agm_join_project_traced,
    execute_plan,
    gen_lw_bad,
    gen_triangle_bad,
    join,
    join_query,
    leaf,
    leapfrog_strategy,
    make_attrs,
    min_cover_lp,
    oracle_join,
    relation,
    run_join,
)
from agmjoin.cli import main
from agmjoin.formats import write_relation_file
from conftest import all_join_plans, is_simple, random_instance

A, B, C, D = make_attrs("A", "B", "C", "D")


def triangle_query(r_rows, s_rows, t_rows):
    return join_query(
        [relation([A, B], r_rows), relation([B, C], s_rows), relation([A, C], t_rows)]
    )


def random_triangle(seed):
    rng = random.Random(seed)
    mk = lambda: [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 15))]
    return triangle_query(mk(), mk(), mk())


def test_plan_node_is_leaf_xor_join():
    with pytest.raises(PlanError):
        PlanTree()
    with pytest.raises(PlanError):
        PlanTree(ref=0, left=leaf(1), right=leaf(2))
    with pytest.raises(PlanError):
        PlanTree(left=leaf(0))


def test_walk_leaf_refs_and_has_projection():
    inner = join(leaf(0), leaf(2))
    p = join(inner, leaf(1))
    assert list(p.walk()) == [leaf(0), leaf(2), inner, leaf(1), p]  # post-order
    assert p.leaf_refs() == [0, 2, 1]
    assert not p.has_projection()
    assert join(leaf(0), leaf(1), keep=[A]).has_projection()


def test_execute_single_leaf_is_identity():
    r = relation([A, B], [(0, 1), (2, 3)])
    out, trace = execute_plan(leaf(0), [r], CostMeter())
    assert out == r
    assert trace.intermediate_sizes == ()
    assert trace.intermediate_max == 0
    assert trace.total_work == 0


@pytest.mark.parametrize("seed", range(10))
def test_triangle_plans_match_the_oracle(seed):
    q = random_triangle(seed)
    want = oracle_join(q)
    for p in all_join_plans(3):
        out, trace = execute_plan(p, q.relations, CostMeter())
        assert out == want
        assert len(trace.intermediate_sizes) == 2
        assert trace.intermediate_max >= len(want)


def test_trace_records_sizes_and_work():
    q = triangle_query([(0, 1), (0, 2)], [(1, 5), (2, 5)], [(0, 5)])
    out, trace = execute_plan(join(join(leaf(0), leaf(1)), leaf(2)), q.relations, CostMeter())
    assert set(out.rows) == {(0, 1, 5), (0, 2, 5)}
    # First join: R >< S has two matches; then 2 >< 1 -> 2.
    assert trace.intermediate_sizes == ((0, 2), (1, 2))
    assert trace.total_work == (2 + 2 + 2) + (2 + 1 + 2)


def test_all_join_plans_counts():
    assert len(all_join_plans(1)) == 1
    assert len(all_join_plans(2)) == 1
    assert len(all_join_plans(3)) == 3
    assert len(all_join_plans(4)) == 15
    with pytest.raises(PlanError):
        all_join_plans(0)


def test_all_join_plans_are_distinct_and_cover_all_atoms():
    plans = all_join_plans(4)
    assert len(set(plans)) == 15
    for p in plans:
        assert sorted(p.leaf_refs()) == [0, 1, 2, 3]


@pytest.mark.parametrize("seed", range(8))
def test_every_shape_of_plan_agrees(seed, monkeypatch):
    """Every plan answers as the oracle does, with the same trace at probe blocks of 1, 2 and 7 rows."""
    q = random_instance(seed, max_m=4, max_rows=8)
    want = oracle_join(q)
    plans = all_join_plans(len(q.relations))
    default = [execute_plan(p, q.relations, CostMeter()) for p in plans]
    for p, (out, _) in zip(plans, default):
        assert out == want, (seed, repr(p))
    for block in (1, 2, 7):
        monkeypatch.setattr(agmjoin.plans, "_BLOCK", block)
        for p, run in zip(plans, default):
            assert execute_plan(p, q.relations, CostMeter()) == run, (seed, block, repr(p))


def test_join_only_plans_must_not_repeat_atoms():
    q = random_triangle(0)
    with pytest.raises(PlanError):
        execute_plan(join(leaf(0), leaf(0)), q.relations, CostMeter())


def test_leaf_out_of_range():
    q = random_triangle(0)
    with pytest.raises(PlanError):
        execute_plan(join(leaf(0), leaf(7)), q.relations, CostMeter())


def test_projection_nodes_allow_repeats_and_shrink_schemas():
    r = relation([A, B], [(0, 1), (0, 2), (3, 1)])
    p = join(leaf(0, keep=[A]), leaf(0, keep=[B]))
    out, _ = execute_plan(p, [r], CostMeter())
    assert out.schema == (A, B)
    assert len(out) == 2 * 2  # pi_A x pi_B cross product


def test_projection_validation():
    r = relation([A, B], [(0, 1)])
    with pytest.raises(PlanError):
        execute_plan(leaf(0, keep=[C]), [r], CostMeter())
    with pytest.raises(PlanError):
        execute_plan(leaf(0, keep=[]), [r], CostMeter())


def test_relations_of_zero_attributes_join():
    """A relation of zero attributes holds the empty row or nothing: joined
    with R it gives R or the empty relation, and alone it answers itself."""
    r = relation([A, B], [(0, 1), (2, 3)])
    unit, none = relation([], [()]), relation([], [])
    cases = [
        (join(leaf(0), leaf(1)), [r, unit], r, [2]),
        (join(leaf(0), leaf(1)), [unit, r], r, [2]),
        (join(leaf(0), leaf(1)), [r, none], relation([A, B], []), [0]),
        (join(leaf(0), leaf(1)), [unit, unit], unit, [1]),
        (join(leaf(0), leaf(1)), [none, unit], none, [0]),
        (leaf(0), [unit], unit, []),
        (leaf(0), [none], none, []),
    ]
    for p, bindings, want, sizes in cases:
        out, trace = execute_plan(p, bindings, CostMeter())
        assert out == want, (repr(p), bindings)
        assert [rec.size for rec in trace] == sizes


def test_cross_product_when_schemas_are_disjoint(monkeypatch):
    q = join_query([relation([A], [(0,), (1,)]), relation([B], [(5,), (6,), (7,)])])
    empty = relation([C], [])
    for block in (1, 2, 7, 1 << 16):
        monkeypatch.setattr(agmjoin.plans, "_BLOCK", block)
        out, trace = execute_plan(join(leaf(0), leaf(1)), q.relations, CostMeter())
        assert out == oracle_join(q)
        assert trace.intermediate_max == 6
        # An empty side, either way round, gives an empty product and a zero-size record.
        for p in (join(leaf(0), leaf(1)), join(leaf(1), leaf(0))):
            out, trace = execute_plan(p, [empty, q.relations[1]], CostMeter())
            assert out == relation([B, C], [])
            assert trace.intermediate_sizes == ((0, 0),)


def test_key_space_overflow_guard(monkeypatch):
    """Where one more radix would take a packed key past ``_MAX_KEY``, the
    partial key is re-ranked against the right side's distinct ones, and
    a left key the right side lacks matches nothing."""
    big = 1 << 40
    cases = [[relation([A, B], [(big, big)])] * 2,
             [relation([A, B, C], [(0, 0, 0), (0, 1, 2), (1, 1, 1), (2, 0, 1), (big, 1, big)]),
              relation([A, B, C], [(0, 1, 2), (1, 0, 1), (2, 0, 1), (2, 2, 2), (big, 1, big)]),
              relation([C, D], [(1, 0), (2, 5), (big, 1)])]]
    cases += [random_instance(seed, max_m=4, max_rows=8).relations for seed in range(20)]
    runs = []
    for bindings in cases:
        want = oracle_join(join_query(bindings))
        for p in all_join_plans(len(bindings)):
            runs.append((p, bindings, want, execute_plan(p, bindings, CostMeter())[1]))
    keys = agmjoin.plans._keys
    for max_key in (0, 3, 40):
        monkeypatch.setattr(agmjoin.plans, "_MAX_KEY", max_key)
        tables = []  # each join's re-rank tables, filled by its right side's keys
        monkeypatch.setattr(agmjoin.plans, "_keys", lambda *a: tables.append(a[3]) or keys(*a))
        for p, bindings, want, trace in runs:
            assert execute_plan(p, bindings, CostMeter()) == (want, trace), (max_key, repr(p))
        assert any(tables), max_key


@pytest.mark.parametrize("v", [2**62 - 1, 2**62, 2**63 - 1, 2**63, 2**64])
def test_one_shared_attribute_up_to_the_largest_int64_joins(v):
    """The packed key of one shared attribute is the value's rank, so a
    value joins under both plans whether or not it fits in 63 bits."""
    q = join_query([relation([A, B], [(0, v)]), relation([B, C], [(v, 1)])])
    want = oracle_join(q)
    assert want.rows == ((0, v, 1),)
    assert execute_plan(join(leaf(0), leaf(1)), q.relations, CostMeter())[0] == want
    assert agm_join_project_traced(q, CostMeter())[0] == want


def test_shared_attributes_that_are_all_zero_leave_the_key():
    """A shared attribute of one value has a radix of 1 and is left out
    of the packed key."""
    v = 2**63 - 1
    q = join_query([relation([A, B], [(0, v)]), relation([A, B], [(0, v)])])
    want = oracle_join(q)
    assert want.rows == ((0, v),)
    assert execute_plan(join(leaf(0), leaf(1)), q.relations, CostMeter())[0] == want
    assert agm_join_project_traced(q, CostMeter())[0] == want


def test_an_expired_deadline_stops_a_plan_after_a_join_with_an_empty_side():
    """A join with an empty side returns before its probe loop, so the
    deadline is also checked after each join: an expired budget stops the
    plan at its first join rather than running every later one."""
    bindings = [relation([A, B], []), relation([B, C], [(5, 6)]), relation([A, C], [(0, 6)])]
    m = CostMeter()
    m.start_deadline(0)
    time.sleep(0.01)
    with pytest.raises(TimeBudgetExceeded):
        execute_plan(join(join(leaf(0), leaf(1)), leaf(2)), bindings, m)


def test_an_expired_deadline_stops_a_join_after_its_first_probe_block(monkeypatch):
    # Ten left rows in blocks of two: the deadline is seen after the
    # first block has been keyed, before any further block is.
    monkeypatch.setattr(agmjoin.plans, "_BLOCK", 2)
    packed = []

    def keys(*args):
        key = pack(*args)
        packed.append(len(key))
        return key

    pack = agmjoin.plans._keys
    monkeypatch.setattr(agmjoin.plans, "_keys", keys)
    r = relation([A, B], [(i, i % 3) for i in range(10)])
    s = relation([B, C], [(0, 0), (1, 1), (2, 2)])
    m = CostMeter()
    m.start_deadline(0)
    time.sleep(0.01)
    with pytest.raises(TimeBudgetExceeded):
        execute_plan(join(leaf(0), leaf(1)), [r, s], m)
    assert packed == [3, 2]  # the right side's keys, then one block's


def test_an_expired_deadline_stops_a_left_spine_before_its_second_join(monkeypatch):
    """A left-deep plan builds each join of its spine before any row
    streams through them; an expired budget is seen before the second
    join is built, not after the whole spine is."""
    built = []

    class Join(agmjoin.plans._Join):
        def __init__(self, *args):
            built.append(args[-1])
            super().__init__(*args)

    monkeypatch.setattr(agmjoin.plans, "_Join", Join)
    xs = make_attrs(*(f"X{i}" for i in range(6)))
    rels = [relation((xs[i], xs[i + 1]), [(0, 0), (1, 1)]) for i in range(5)]
    spine = leaf(0)
    for i in range(1, 5):
        spine = join(spine, leaf(i))
    out, trace = execute_plan(spine, rels, CostMeter())
    assert len(out) == 2 and built == [0, 1, 2, 3]
    built.clear()
    m = CostMeter()
    m.start_deadline(0)
    time.sleep(0.01)
    with pytest.raises(TimeBudgetExceeded):
        execute_plan(spine, rels, m)
    assert built == [0]


def test_an_expired_deadline_stops_a_join_after_its_first_output_chunk(monkeypatch):
    """One left row matches ten right rows.  In chunks of two rows, an
    expired deadline is seen after the first output chunk, before the
    rest of that row's run is gathered."""
    monkeypatch.setattr(agmjoin.plans, "_BLOCK", 2)
    gathered = []

    def gather(*args):
        idx = gather_index(*args)
        gathered.append(len(idx))
        return idx

    gather_index = agmjoin.plans._gather_index
    monkeypatch.setattr(agmjoin.plans, "_gather_index", gather)
    r = relation([A, B], [(0, 0)])
    s = relation([B, C], [(0, c) for c in range(10)])
    out, trace = execute_plan(join(leaf(0), leaf(1)), [r, s], CostMeter())
    assert len(out) == 10 and gathered == [2] * 5
    gathered.clear()
    m = CostMeter()
    m.start_deadline(0)
    time.sleep(0.01)
    with pytest.raises(TimeBudgetExceeded):
        execute_plan(join(leaf(0), leaf(1)), [r, s], m)
    assert gathered == [2]


def test_a_suspended_join_holds_only_what_its_next_output_chunk_needs(monkeypatch):
    """While a join's output chunk moves on up the spine, its suspended
    probe holds no array if that chunk was all of its output, and only
    the left rows that matched if more chunks are to come; so a deep
    spine does not hold a chunk at every join."""
    execute_plan(leaf(0), [relation([A], [(0,)])], CostMeter())  # loads numpy
    np = agmjoin.plans.np
    u8 = np.uint8
    right = ((B, C), (np.array([0, 0, 1], u8), np.array([0, 1, 2], u8)), 3)
    # Left rows (0,0), (1,1), (2,2), (3,0): the third matches nothing.
    left = (np.array([0, 1, 2, 3], u8), np.array([0, 1, 2, 0], u8))

    def arrays(probe):
        held = []
        for v in probe.gi_frame.f_locals.values():
            held += [x for x in (v if isinstance(v, (list, tuple)) else [v])
                     if isinstance(x, np.ndarray)]
        return held

    def join_left():
        return agmjoin.plans._Join((A, B), [u8, u8], right, {A: 4, B: 3, C: 3}, 0)

    probe = join_left().probe(left, 4)
    cols, w = next(probe)
    assert w == 5 and arrays(probe) == []
    assert next(probe, None) is None
    monkeypatch.setattr(agmjoin.plans, "_BLOCK", 2)
    probe = join_left().probe(left, 4)
    chunks = [next(probe)]
    assert max(len(a) for a in arrays(probe)) == 3  # the three left rows that matched
    chunks += list(probe)
    assert [w for _, w in chunks] == [2, 2, 1]
    assert [c.tolist() for c in np.concatenate([c for c, _ in chunks], axis=1)] == \
        [c.tolist() for c in cols]


def test_plan_memory_peaks_near_the_largest_intermediate():
    """On triangle-bad m=1000 both plans compute a 1,003,001-row
    intermediate of three columns, 24 MB if it were held as int64
    columns; it streams through the last join in chunks and is never held
    whole, and the traced peak of a whole run stays within half of that."""
    q = gen_triangle_bad(1000).query
    runs = [lambda: agm_join_project_traced(q, CostMeter()),
            lambda: execute_plan(join(join(leaf(0), leaf(1)), leaf(2)), q.relations, CostMeter())]
    for run in runs:
        run()
        tracemalloc.start()
        try:
            _, trace = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.intermediate_max == 1_003_001
        assert peak <= 0.5 * 1_003_001 * 3 * 8


def traced_peak(run):
    """The tracemalloc peak of ``run()`` after one untraced warm-up run,
    and the run's result."""
    run()
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def record_joins(monkeypatch):
    """Every ``plans._Join`` built from now on, in order of construction."""
    joins = []

    class Join(agmjoin.plans._Join):
        def __init__(self, *args):
            super().__init__(*args)
            joins.append(self)

    monkeypatch.setattr(agmjoin.plans, "_Join", Join)
    return joins


def test_plan_memory_does_not_grow_with_the_intermediate():
    """Both plans stream the triangle-bad intermediate through the last
    join, so their traced peak at m=3000 (a 9,009,001-row intermediate)
    stays within 1.5 times the peak at m=1000 (1,003,001 rows), which
    stays within 4 MiB."""
    peaks = {}
    for m in (1000, 3000):
        q = gen_triangle_bad(m).query
        runs = [lambda: agm_join_project_traced(q, CostMeter()),
                lambda: execute_plan(join(join(leaf(0), leaf(1)), leaf(2)), q.relations,
                                     CostMeter())]
        for k, run in enumerate(runs):
            peaks[m, k], (out, trace) = traced_peak(run)
            assert trace.intermediate_max == (m + 1) ** 2 + m
            assert len(out) == 3 * m + 1
    for k in range(2):
        assert peaks[1000, k] <= 4 * 2**20, peaks
        assert peaks[3000, k] <= 1.5 * peaks[1000, k], peaks


def test_a_slot_table_just_under_its_cap_keeps_the_plan_memory_bound(monkeypatch):
    """On triangle-bad m=1022 the last join's (A, C) key spans 1023^2 =
    1,046,529 values, whose uint16 slot table is just under its 2 MiB cap:
    each plan builds it, and a whole run still peaks within 4 MiB."""
    q = gen_triangle_bad(1022).query
    joins = record_joins(monkeypatch)
    runs = [lambda: agm_join_project_traced(q, CostMeter()),
            lambda: execute_plan(join(join(leaf(0), leaf(1)), leaf(2)), q.relations, CostMeter())]
    for run in runs:
        joins.clear()
        peak, (out, trace) = traced_peak(run)
        assert trace.intermediate_max == 1023**2 + 1022 and len(out) == 3 * 1022 + 1
        last = joins[-1]
        assert last.span == 1_046_529 and last.slots.nbytes == 2 * 1_046_529
        assert last.slots.nbytes <= agmjoin.plans._table_cap() == 2 * 2**20
        assert peak <= 4 * 2**20, peak


def test_a_small_left_side_builds_no_slot_table(monkeypatch):
    """Two left rows against a key span of 1,000,000, whose slot table
    (2 MB of uint16) is within its cap: the join binary-searches, as two
    rows are far below span / 256, holds no table and peaks far below
    one table's bytes."""
    xs = list(range(1000))
    bindings = [relation([A, B], [(0, 0), (999, 999)]), relation([A, B], zip(xs, xs))]
    joins = record_joins(monkeypatch)
    peak, (out, trace) = traced_peak(
        lambda: execute_plan(join(leaf(0), leaf(1)), bindings, CostMeter()))
    assert out == bindings[0] and trace.intermediate_max == 2
    j = joins[-1]
    assert j.span == 1000**2 and j.left_size == 2 and j.slots is None
    assert peak < 2 * 1000**2 / 8, peak


@pytest.mark.parametrize("d, dtype", [(255, "uint8"), (256, "uint8"), (257, "uint16"),
                                      (65_535, "uint16"), (65_536, "uint16"),
                                      (65_537, "uint32")])
def test_rank_dtypes_switch_at_their_boundaries(monkeypatch, d, dtype):
    """Domains of d distinct values, three of them at or past 2^63, on
    either side of the uint8, uint16 and uint32 switch points: both plans
    answer as leapfrog does, with the same trace at probe blocks of 1, 2
    and 7 rows."""
    vals = [*range(d - 3), 2**63, 2**63 + 1, 2**64]
    r = relation([A, B], [(v, vals[i % 3 - 3]) for i, v in enumerate(vals)])
    s = relation([A, B], [r.rows[0], r.rows[d // 2], r.rows[-1], (2**64, 5)])
    t = relation([B, C], [(vals[i % 4 - 4], v) for i, v in enumerate(vals)])
    q = join_query([s, r, t])
    want = run_join(q, leapfrog_strategy()).output
    assert len(want) > d // 2
    plan = join(join(leaf(0), leaf(1)), leaf(2))
    runs = [lambda: execute_plan(plan, q.relations, CostMeter()),
            lambda: agm_join_project_traced(q, CostMeter())]
    default = [run() for run in runs]
    assert [out for out, _ in default] == [want, want]
    leaves, _ = agmjoin.plans._encode(q.relations)
    dtypes = [str(c.dtype) for _, cols, _ in leaves for c in cols]
    assert dtypes == [dtype, "uint8", dtype, "uint8", "uint8", dtype]  # S(A,B), R(A,B), T(B,C)
    for block in (1, 2, 7):
        monkeypatch.setattr(agmjoin.plans, "_BLOCK", block)
        assert [run() for run in runs] == default, block


@pytest.mark.parametrize("nr, dtype", [(255, "uint8"), (256, "uint8"), (257, "uint16"),
                                       (65_535, "uint16"), (65_536, "uint16"),
                                       (65_537, "uint32")])
def test_gather_index_dtypes_switch_at_their_boundaries(monkeypatch, nr, dtype):
    """A right side of ``nr`` rows is gathered through an index in the
    narrowest unsigned dtype that holds its row count.  Left rows that
    match its first, middle and last runs, in an order whose index steps
    back and wraps around, answer as leapfrog does, with the same trace
    at chunks of 1, 2 and 7 rows."""
    last = (nr - 1) // 2
    r = relation([A, B], [(0, last), (1, 0), (2, last // 2), (3, last), (4, last + 1)])
    s = relation([B, C], [(i // 2, i) for i in range(nr)])
    q = join_query([r, s])
    want = run_join(q, leapfrog_strategy()).output
    assert len(want) == 8 - 2 * (nr % 2)
    dtypes = set()

    def gather(lo, counts, dtype):
        dtypes.add(dtype.__name__)
        return gather_index(lo, counts, dtype)

    gather_index = agmjoin.plans._gather_index
    monkeypatch.setattr(agmjoin.plans, "_gather_index", gather)
    pairwise = lambda: execute_plan(join(leaf(0), leaf(1)), q.relations, CostMeter())  # noqa: E731
    runs = [pairwise, lambda: agm_join_project_traced(q, CostMeter())]
    default = [run() for run in runs]
    assert [out for out, _ in default] == [want, want]
    for block in (1, 2, 7):
        monkeypatch.setattr(agmjoin.plans, "_BLOCK", block)
        assert [run() for run in runs] == default, block
    dtypes.clear()
    pairwise()
    assert dtypes == {dtype}


def probe_cases():
    """(name, bindings, max key): one-column and composite keys, keys
    that need re-rank tables (under a max key of 3), an empty right side,
    a cross product and random instances."""
    r = relation([A, B], [(i, i % 3) for i in range(9)])
    s = relation([B, C], [(0, 0), (1, 1), (1, 2), (2, 2), (4, 4)])
    t = relation([A, B, C], [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 0, 1), (4, 1, 1)])
    u = relation([A, B, D], [(0, 0, 5), (1, 1, 6), (1, 1, 7), (3, 0, 5), (8, 2, 5)])
    v = relation([C, D], [(c, d) for c in range(3) for d in range(5, 8)])
    cases = [("one column", [r, s], None), ("composite", [t, u, v], None),
             ("re-ranked", [t, u, v], 3), ("empty right side", [r, relation([B, C], [])], None),
             ("cross product", [relation([A], [(0,), (1,)]), v], None)]
    cases += [(f"random {seed}", random_instance(seed, max_m=4, max_rows=10).relations, None)
              for seed in range(6)]
    return cases


@pytest.mark.parametrize("name, bindings, max_key", probe_cases(),
                         ids=[c[0] for c in probe_cases()])
def test_direct_address_and_binary_search_probes_agree(monkeypatch, name, bindings, max_key):
    """With the slot table's cap at 0 every key is binary-searched; with
    it unbounded a join builds its table once it has probed span / 256
    rows, unless its key needed a re-rank table.  At chunks of 1, 2 and
    7 rows, every plan and the join-project plan answer as leapfrog
    does under both, with identical traces."""
    if max_key is not None:
        monkeypatch.setattr(agmjoin.plans, "_MAX_KEY", max_key)
    q = join_query(bindings)
    want = run_join(q, leapfrog_strategy()).output
    runs = [lambda p=p: execute_plan(p, q.relations, CostMeter())
            for p in all_join_plans(len(q.relations))]
    runs.append(lambda: agm_join_project_traced(q, CostMeter()))
    joins = record_joins(monkeypatch)
    for block in (1, 2, 7):
        monkeypatch.setattr(agmjoin.plans, "_BLOCK", block)
        traces = {}
        for cap in (0, 1 << 62):
            monkeypatch.setattr(agmjoin.plans, "_table_cap", lambda cap=cap: cap)
            joins.clear()
            for k, run in enumerate(runs):
                out, trace = run()
                assert out == want, (name, block, cap, k)
                assert traces.setdefault(k, trace) == trace, (name, block, cap, k)
            for j in joins:
                if not cap or not j.right_size or j.tables:
                    assert j.span is None and j.slots is None
                else:
                    assert (j.slots is not None) == (256 * j.left_size >= j.span), (name, block)
            if all(q.relations):  # so the join-project plan's first join probes
                assert any(j.slots is not None for j in joins) == bool(cap), (name, block)
        if max_key is not None:
            assert any(j.tables for j in joins), name
        if name == "cross product":
            assert joins[0].span == 1 and joins[0].slots is not None


@pytest.mark.parametrize("seed", range(12))
def test_join_project_chain_matches_the_oracle(seed):
    q = random_instance(seed, max_rows=10)
    assert agm_join_project_traced(q, CostMeter())[0] == oracle_join(q)


def test_join_project_with_empty_relation():
    q = triangle_query([], [(0, 0)], [(0, 0)])
    out, records = agm_join_project_traced(q, CostMeter())
    assert len(out) == 0
    assert records == ()


def run_below_a_recursion_limit_of_200(code, *args):
    """Run ``code`` in a new interpreter after ``sys.setrecursionlimit(200)``."""
    path = [str(Path(agmjoin.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    script = "import sys; sys.setrecursionlimit(200)\n" + code
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, timeout=120)


def test_plans_deeper_than_the_recursion_limit_match_the_oracle():
    code = """
from agmjoin import CostMeter, execute_plan, join, join_query, leaf, make_attrs, oracle_join, relation
xs = make_attrs(*(f"X{i}" for i in range(251)))
q = join_query([relation((xs[i], xs[i + 1]), [(0, 0)]) for i in range(250)])
left, right = leaf(0), leaf(249)
for i in range(1, 250):
    left, right = join(left, leaf(i)), join(leaf(249 - i), right)
want = oracle_join(q)
for p in (left, right):
    assert execute_plan(p, q.relations, CostMeter())[0] == want
"""
    proc = run_below_a_recursion_limit_of_200(code)
    assert proc.returncode == 0, proc.stderr.decode()


def test_join_project_runs_a_left_spine_deeper_than_the_recursion_limit():
    # A 101-atom chain: Σ arity − 1 = 201 joins on the plan's left spine.
    code = """
from agmjoin import CostMeter, agm_join_project_traced, join_query, make_attrs, relation
xs = make_attrs(*(f"X{i:03d}" for i in range(102)))
q = join_query([relation((xs[i], xs[i + 1]), [(0, 0), (1, 1)]) for i in range(101)])
out, records = agm_join_project_traced(q, CostMeter())
assert out.rows == ((0,) * 102, (1,) * 102)
assert len(records) == 201 == sum(r.arity for r in q.relations) - 1
"""
    proc = run_below_a_recursion_limit_of_200(code)
    assert proc.returncode == 0, proc.stderr.decode()


def write_path(d, n, rows):
    """The query file d/q.txt of an n-atom path R_i(X_i, X_i+1), each
    table holding ``rows``."""
    for i in range(n):
        write_relation_file(d / f"R{i}.rel", f"R{i}", [f"X{i}", f"X{i + 1}"], rows)
    head = ",".join(f"X{i}" for i in range(n + 1))
    body = ", ".join(f"R{i}(X{i},X{i + 1})" for i in range(n))
    (d / "q.txt").write_text(f"Q({head}) :- {body}.\n")


@pytest.mark.parametrize("algo, code", [
    pytest.param("pairwise:" + "-".join(map(str, range(250))), 0, id="pairwise"),
    pytest.param("leapfrog", 3, id="leapfrog"),
])
def test_run_a_pairwise_plan_deeper_than_the_recursion_limit(tmp_path, algo, code):
    """`agmjoin run` answers a 250-atom path under a pairwise plan with the
    oracle's bytes, while leapfrog's plan nests too deep and exits 3."""
    write_path(tmp_path, 250, [(0, 0)])
    cli = "from agmjoin.cli import main; sys.exit(main(sys.argv[1:]))"
    run = lambda a: run_below_a_recursion_limit_of_200(  # noqa: E731
        cli, "run", str(tmp_path / "q.txt"), str(tmp_path), "--algo", a, "--out", "-")
    proc = run(algo)
    assert proc.returncode == code, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    if code:
        assert b"a query of 251 attributes nests deeper than Python's recursion limit" in proc.stderr
    else:
        assert proc.stdout == run("oracle").stdout
        assert proc.stdout.endswith(b",".join([b"0"] * 251) + b"\n")


def test_agm_plan_answers_a_400_atom_path_within_its_budget(tmp_path, capsys):
    """The join-project plan over a 400-atom path makes 799 joins, one per
    attribute incidence less one, so `run --algo agm-plan --timeout 10`
    answers with leapfrog's bytes."""
    write_path(tmp_path, 400, [(0, 0), (1, 1)])
    outs = {}
    for algo in ("agm-plan", "leapfrog"):
        code = main(["run", str(tmp_path / "q.txt"), str(tmp_path), "--algo", algo,
                     "--timeout", "10"])
        assert code == 0, (algo, capsys.readouterr().err)
        outs[algo] = capsys.readouterr().out
    assert outs["agm-plan"] == outs["leapfrog"]
    assert outs["agm-plan"].endswith(",".join(["1"] * 401) + "\n")


def test_a_left_deep_plan_over_a_wide_chain_answers_in_time():
    # The left input's schema grows to 601 attributes; scanning it per
    # column made the 600 joins cubic in the attribute count (15 s).
    xs = make_attrs(*(f"X{i}" for i in range(601)))
    q = join_query([relation((xs[i], xs[i + 1]), [(0, 0), (1, 1)]) for i in range(600)])
    plan = leaf(0)
    for i in range(1, 600):
        plan = join(plan, leaf(i))
    m = CostMeter()
    m.start_deadline(5)
    out, trace = execute_plan(plan, q.relations, m)
    assert out.rows == ((0,) * 601, (1,) * 601)
    assert trace.intermediate_max == 2


def width(rec):
    return len(set(rec.left_attrs) | set(rec.right_attrs))


def level_end_records(records):
    """The record finishing each level: a join-project record's output is
    exactly the first w attributes, w its width, so level k ends at its
    last record of width k."""
    return list({width(rec): rec for rec in records}.values())


@pytest.mark.parametrize("seed", range(12))
def test_join_project_level_results_respect_the_size_bound(seed):
    q = random_instance(seed, max_rows=10)
    if any(len(r) == 0 for r in q.relations) or len(q.attrs) < 2:
        return
    bound = float(min_cover_lp(q.hypergraph, q.sizes).bound)
    _, records = agm_join_project_traced(q, CostMeter())
    assert [width(rec) for rec in level_end_records(records)][-1] == len(q.attrs)
    for rec in level_end_records(records):
        assert rec.size <= math.ceil(bound) + 1e-9, (seed, rec)


def test_join_project_levels_stay_bounded_where_pairwise_plans_blow_up():
    # The skewed triangle at m=4: every two-way plan's first join makes
    # (m+1)^2 + m = 29 rows, above the size bound 27, while the
    # join-project chain's level results stay at or below it.
    q = gen_triangle_bad(4).query
    bound = float(min_cover_lp(q.hypergraph, q.sizes).bound)
    assert abs(bound - 27.0) < 1e-9
    for p in all_join_plans(3):
        _, trace = execute_plan(p, q.relations, CostMeter())
        assert trace.intermediate_sizes[0][1] == 29
    out, records = agm_join_project_traced(q, CostMeter())
    assert len(out) == 13
    assert [width(rec) for rec in level_end_records(records)] == [1, 2, 3]
    for rec in level_end_records(records):
        assert rec.size <= 27


def pin_corpus():
    """c01's 200 queries, triangle-bad m in {16, 64, 256}, lw-bad n in {3, 4}, d in {16, 64}."""
    qs = [random_instance(seed, max_rows=30) for seed in range(200)]
    qs += [gen_triangle_bad(m).query for m in (16, 64, 256)]
    qs += [gen_lw_bad(n, (n - 1) * d + 1).query for n in (3, 4) for d in (16, 64)]
    return qs


def names(attrs):
    return tuple(a.name for a in attrs)


# sha256 over repr((output rows, intermediate_sizes, total_work)) of every
# all_join_plans(m) run over pin_corpus(), or repr(("PlanError", message)).
PLAN_DIGEST = "7f136a2c1259e329be2db4a491a2b62122e7cafaca815f408ccfc1a968efdc07"

# sha256 over repr((output schema, output rows, record tuples)) of every
# agm_join_project_traced run over pin_corpus().
AGM_DIGEST = "9beeac257f9426ada93903a54f0596593c10fd68a01f2364378040a0ec4f6c44"


def test_plan_traces_are_pinned():
    digest = hashlib.sha256()
    for q in pin_corpus():
        for p in all_join_plans(len(q.relations)):
            try:
                out, trace = execute_plan(p, q.relations, CostMeter())
                item = (out.rows, trace.intermediate_sizes, trace.total_work)
            except PlanError as e:
                item = ("PlanError", str(e))
            digest.update(repr(item).encode())
    assert digest.hexdigest() == PLAN_DIGEST


def test_agm_records_are_pinned():
    digest = hashlib.sha256()
    for q in pin_corpus():
        out, records = agm_join_project_traced(q, CostMeter())
        recs = tuple((names(r.left_attrs), names(r.right_attrs), r.left_size, r.right_size,
                      r.size) for r in records)
        digest.update(repr((names(out.schema), out.rows, recs)).encode())
    assert digest.hexdigest() == AGM_DIGEST


def test_join_project_runs_one_join_per_attribute_incidence():
    """Σ arity − 1 joins, each of whose outputs is a prefix of the attributes."""
    for q in pin_corpus():
        _, records = agm_join_project_traced(q, CostMeter())
        if any(len(r) == 0 for r in q.relations):
            assert records == ()
            continue
        assert len(records) == sum(r.arity for r in q.relations) - 1
        for rec in records:
            assert set(rec.left_attrs) | set(rec.right_attrs) == set(q.attrs[:width(rec)])


def test_is_simple():
    assert is_simple(relation([A, B], [(0, 0), (0, 1), (1, 0)]))
    assert is_simple(gen_triangle_bad(5).query.relations[0])
    assert not is_simple(relation([A, B], [(0, 1), (1, 0)]))  # missing (0, 0)
    assert not is_simple(relation([A, B], [(0, 0), (1, 1)]))
    assert not is_simple(relation([A, B], []))
    assert is_simple(relation([A], [(0,), (1,), (2,)]))
