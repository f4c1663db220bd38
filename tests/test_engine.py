import hashlib
import math
import random
import time
from bisect import bisect_left
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agmjoin import (
    CostMeter,
    FractionalCover,
    Hypergraph,
    InfeasibleCoverError,
    InvalidPartitionError,
    JoinQuery,
    Relation,
    TimeBudgetExceeded,
    agm_join_project_traced,
    attrs_sorted,
    build_trie,
    cover,
    execute_plan,
    fixed_sequence_strategy,
    gen_chase_witness,
    gen_clique_query,
    gen_lw_bad,
    gen_lw_query,
    gen_triangle_bad,
    iter_leaves,
    join,
    join_query,
    leaf,
    leapfrog_strategy,
    make_attrs,
    min_cover_lp,
    normalize,
    nprr_strategy,
    oracle_join,
    project_to_head,
    relation,
    run_join,
)
from agmjoin import engine
from agmjoin.engine import _filter, _seat
from agmjoin.trie import leaf_rows
from conftest import decomposition_check, random_feasible_cover, random_instance, walk

A, B, C, D = make_attrs("A", "B", "C", "D")


def triangle_query(r_rows, s_rows, t_rows):
    return join_query(
        [relation([A, B], r_rows), relation([B, C], s_rows), relation([A, C], t_rows)]
    )


def random_partition(attrs, rng):
    attrs = list(attrs)
    rng.shuffle(attrs)
    blocks, i = [], 0
    while i < len(attrs):
        j = i + rng.randint(1, len(attrs) - i)
        blocks.append(attrs[i:j])
        i = j
    return blocks


def _check_group_inequality(plan, nodes):
    """``decomposition_check`` at one split, on the relations that its
    trie nodes hold (``plan.args`` as the ``_splits`` spy keeps them:
    the subproblem's attributes, relations and I as bit masks).  A
    subproblem's attributes are in global order, and so is each
    relation's node below its bound prefix."""
    ctx, v, rels, _, _, i, _, scale = plan.args
    attrs = [a for p, a in enumerate(ctx.attrs) if v >> p & 1]
    i_attrs = [a for p, a in enumerate(ctx.attrs) if i >> p & 1]
    edges, rels_in, ws = [], [], []
    for edge in range(len(nodes)):
        if rels >> edge & 1:
            act = attrs_sorted(set(ctx.q.hypergraph.edges[edge]) & set(attrs))
            edges.append(act)
            rels_in.append(Relation(act, tuple(iter_leaves(nodes[edge], len(act)))))
            ws.append(ctx.weights[edge] * scale)
    sub = JoinQuery(Hypergraph(tuple(attrs), tuple(edges)), tuple(rels_in))
    side = decomposition_check(sub, FractionalCover(tuple(ws)), i_attrs)
    assert side.holds(1e-9), f"group inequality violated at I={i_attrs}: {side}"


def _check_every_split(monkeypatch):
    """Check the group inequality at each split that ``_run`` executes
    from here on.  Returns the splits compiled and a count
    ``[splits run, splits checked]``; the caller resets both per run."""
    splits = _splits(monkeypatch)
    counts = [0, 0]
    run = engine._run

    def checked_run(ctx, plan, nodes, keep):
        if isinstance(plan, engine._Split):
            counts[0] += 1
            _check_group_inequality(plan, nodes)
            counts[1] += 1
        return run(ctx, plan, nodes, keep)

    monkeypatch.setattr(engine, "_run", checked_run)
    return splits, counts


def _run_checked(q, strat, splits, counts, **kw):
    """``run_join`` with every split checked; each compiled split runs at
    least once, and the two fixed-order strategies split any query of two
    or more attributes (nprr runs only a two-choices tail when its
    heaviest edge holds every attribute)."""
    splits.clear()
    counts[:] = [0, 0]
    run = run_join(q, strat, **kw)
    assert counts[1] == counts[0] >= len(splits), (strat.kind, counts, len(splits))
    assert counts[0] > 0 or (strat.kind == "nprr" and not splits), strat.kind
    return run


@pytest.mark.parametrize("seed", range(30))
def test_every_strategy_matches_the_oracle(monkeypatch, seed):
    q = random_instance(seed)
    want = oracle_join(q)
    rng = random.Random(seed)
    strategies = [
        nprr_strategy(),
        leapfrog_strategy(),
        fixed_sequence_strategy(random_partition(q.attrs, rng)),
    ]
    splits, counts = _check_every_split(monkeypatch)
    for strat in strategies:
        run = _run_checked(q, strat, splits, counts)
        assert run.output == want, (seed, strat.kind)
        assert run.meter.emits == len(run.output)
    # leapfrog is the one-block sequence, down to every counted operation
    one_block = run_join(q, fixed_sequence_strategy([q.attrs])).meter
    assert run_join(q, leapfrog_strategy()).meter == one_block


@pytest.mark.parametrize("seed", range(12))
def test_strategies_accept_any_feasible_cover(monkeypatch, seed):
    q = random_instance(seed, max_rows=8)
    want = oracle_join(q)
    rng = random.Random(seed * 31 + 1)
    x = random_feasible_cover(q, rng)
    splits, counts = _check_every_split(monkeypatch)
    for strat in (nprr_strategy(), leapfrog_strategy()):
        assert _run_checked(q, strat, splits, counts, cover=x).output == want


def test_default_cover_is_the_lp_optimum():
    q = random_instance(3)
    sizes = tuple(max(1, s) for s in q.sizes)
    run = run_join(q)
    assert run.cover == min_cover_lp(q.hypergraph, sizes).cover


def test_infeasible_cover_is_rejected():
    q = triangle_query([(0, 0)], [(0, 0)], [(0, 0)])
    with pytest.raises(InfeasibleCoverError):
        run_join(q, cover=cover(1, 0, 0))


def test_unknown_strategy_kind_is_rejected():
    from agmjoin import PartitionStrategy

    with pytest.raises(InvalidPartitionError):
        PartitionStrategy("zigzag")


def test_fixed_sequence_must_partition_the_attributes():
    q = triangle_query([(0, 1)], [(1, 2)], [(0, 2)])
    for blocks in ([[A, B]], [[A, B], [B, C]], [[A], [B], [C], []]):
        with pytest.raises(InvalidPartitionError):
            run_join(q, fixed_sequence_strategy(blocks))


def test_single_relation_query():
    q = join_query([relation([A, B], [(0, 1), (2, 3)])])
    for strat in (nprr_strategy(), leapfrog_strategy()):
        run = run_join(q, strat)
        assert run.output.rows == ((0, 1), (2, 3))


def test_empty_relation_empties_the_join():
    q = triangle_query([], [(0, 0)], [(0, 0)])
    run = run_join(q)
    assert len(run.output) == 0
    assert run.meter.emits == 0


def test_leapfrog_compiles_a_wide_query_in_linear_passes():
    # One one-row relation of 600 attributes: leapfrog compiles one split per
    # level, and a scan of the attributes per attribute made that cubic (15 s).
    xs = make_attrs(*(f"X{i:03d}" for i in range(600)))
    q = join_query([relation(xs, [tuple(range(600))])])
    m = CostMeter()
    m.start_deadline(5)
    assert run_join(q, leapfrog_strategy(), meter=m).output.rows == (tuple(range(600)),)
    assert m.total_ops == 1799


def _path(n):
    """R{i}(X{i}, X{i+1}) for i < n, each of rows (0, 0) and (1, 1)."""
    xs = make_attrs(*(f"X{i}" for i in range(n + 1)))
    return join_query([relation((xs[i], xs[i + 1]), [(0, 0), (1, 1)]) for i in range(n)])


@pytest.mark.parametrize("strat", [nprr_strategy(), leapfrog_strategy()], ids=["nprr", "leapfrog"])
def test_a_long_path_compiles_in_time(strat):
    # A split that visited every relation left in its subproblem made a path's
    # compile and run quadratic: 0.41 s for nprr and 0.79 s for leapfrog at
    # n = 600, 4.0x and 5.6x their n = 300 times, in process on a 2-core Xeon.
    # A split now touches only the relations its attributes meet (0.031 and
    # 0.025 s, 2.5x and 2.4x); the rest is C-level work on rows n wide.
    best = {}
    for n in (300, 600):
        q = _path(n)
        x = min_cover_lp(q.hypergraph, q.sizes).cover
        times = []
        for _ in range(3):
            m = CostMeter()
            m.start_deadline(5)
            start = time.perf_counter()
            run = run_join(q, strat, cover=x, meter=m)
            times.append(time.perf_counter() - start)
            assert run.output.rows == ((0,) * (n + 1), (1,) * (n + 1))
        best[n] = min(times)
    assert best[600] <= 3 * best[300], best


def test_a_long_path_stores_linearly_many_entries(monkeypatch):
    # The relation entries that a path's compiled leapfrog splits store (the
    # total length of their lists) grow by the same amount per atom.  When each
    # split listed every relation left in its subproblem, the 600-atom path's
    # splits stored 180,300 extenders alone.
    split = engine._Split
    splits = _splits(monkeypatch)
    got = {}
    for n in (150, 300, 600):
        splits.clear()
        run_join(_path(n), leapfrog_strategy(), cover=cover(*[1] * n))
        lists = [getattr(s, a) for s in splits for a in split.__slots__]
        got[n] = sum(len(x) for x in lists if isinstance(x, list))
    assert got[600] - got[300] == 2 * (got[300] - got[150]), got
    assert got[600] <= 3 * 600, got


def test_meter_is_shared_when_passed_in():
    q = triangle_query([(0, 1)], [(1, 2)], [(0, 2)])
    m = CostMeter()
    run = run_join(q, meter=m)
    assert run.meter is m
    assert m.total_ops > 0


def test_time_budget_fires_on_a_grinding_instance():
    q = gen_clique_query(3, 4096, seed=1).query
    m = CostMeter()
    m.start_deadline(1e-4)
    with pytest.raises(TimeBudgetExceeded):
        run_join(q, meter=m)


def subquery_fixture():
    """All attributes live inside edge 0; edge 1 filters on B."""
    r = relation([A, B], [(i, j) for i in range(6) for j in range(6)])
    s = relation([B], [(0,), (2,), (4,)])
    return join_query([r, s])


def test_nprr_subquery_scan_branch_matches_oracle():
    q = subquery_fixture()
    want = oracle_join(q)
    out = run_join(q, nprr_strategy(), cover=cover(1, 0)).output
    assert out == want


def probe_fixture():
    """Two relations over the same pair of attributes, so x_J may drop
    below 1.  Under equal weights the 36-row edge 0 wins the tie as J;
    log2(36) beats the rescaled estimate for the 3-row side, so the
    solver joins the others and probes into J."""
    r = relation([A, B], [(i, j) for i in range(6) for j in range(6)])
    s = relation([A, B], [(0, 2), (4, 4), (7, 7)])
    return join_query([r, s])


def test_nprr_subquery_probe_branch_matches_oracle():
    q = probe_fixture()
    want = oracle_join(q)
    meter = CostMeter()
    out = run_join(q, nprr_strategy(), cover=cover("1/2", "1/2"), meter=meter).output
    assert out == want
    assert set(out.rows) == {(0, 2), (4, 4)}
    # probing never reads all 36 leaves of J the way a scan would
    assert meter.probes < len(q.relations[0])


@pytest.mark.parametrize("seed", range(15))
def test_triangle_specializations_match_the_oracle(seed):
    """On a triangle nprr is the per-vertex scan-or-probe solver and
    leapfrog the nested-intersection one; dense small domains."""
    rng = random.Random(seed)
    mk = lambda: [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(0, 18))]
    q = triangle_query(mk(), mk(), mk())
    want = oracle_join(q)
    for strat in (nprr_strategy(), leapfrog_strategy()):
        assert run_join(q, strat).output == want


def test_triangle_specializations_on_the_skew_family():
    """Both triangle solvers on the family that is quadratic for pairwise plans."""
    q = gen_triangle_bad(16).query
    want = oracle_join(q)
    assert len(want) == 3 * 16 + 1
    for strat in (nprr_strategy(), leapfrog_strategy()):
        assert run_join(q, strat).output == want


@pytest.mark.parametrize("seed", range(20))
def test_work_is_within_a_constant_of_the_certificate(seed):
    """total_ops <= C * n * m * AGM * (1 + log2 max|R|) under the LP cover."""
    q = random_instance(seed)
    sizes = tuple(max(1, s) for s in q.sizes)
    rep = min_cover_lp(q.hypergraph, sizes)
    budgetless = float(rep.bound) * len(q.attrs) * len(q.relations)
    allowance = 64.0 * budgetless * (1 + math.log2(max(sizes)))
    for strat in (nprr_strategy(), leapfrog_strategy()):
        run = run_join(q, strat)
        assert run.meter.total_ops <= allowance, (seed, strat.kind, run.meter)


def _pinned_runs():
    yield "scan-branch", subquery_fixture(), nprr_strategy(), cover(1, 0)
    yield "probe-branch", probe_fixture(), nprr_strategy(), cover("1/2", "1/2")
    families = {
        "triangle-bad-16": gen_triangle_bad(16),
        "lw-bad-4-13": gen_lw_bad(4, 13),
        "clique4-40": gen_clique_query(4, 40, 2),  # LP picks the perfect-matching cover
    }
    for name, bundle in families.items():
        q = bundle.query
        fixed = fixed_sequence_strategy([q.attrs[1::2], q.attrs[0::2]])
        for strat in (nprr_strategy(), leapfrog_strategy(), fixed):
            yield f"{name}/{strat.kind}", q, strat, None


# (output size, probes, advances, emits, recursions), exactly.  A change
# that only restructures the engine leaves every entry as it is; one
# that changes the cost model updates them here, in the same change.
PINNED_METERS = {
    "scan-branch": (18, 72, 0, 18, 1),
    "probe-branch": (2, 9, 0, 2, 2),
    "triangle-bad-16/nprr": (49, 216, 16, 49, 67),
    "triangle-bad-16/leapfrog": (49, 166, 48, 49, 69),
    "triangle-bad-16/fixed-sequence": (49, 166, 48, 49, 69),
    "lw-bad-4-13/nprr": (17, 171, 8, 17, 31),
    "lw-bad-4-13/leapfrog": (17, 156, 32, 17, 43),
    "lw-bad-4-13/fixed-sequence": (17, 178, 32, 17, 39),
    "clique4-40/nprr": (0, 309, 0, 0, 4),
    "clique4-40/leapfrog": (0, 103, 139, 0, 32),
    "clique4-40/fixed-sequence": (0, 176, 274, 0, 44),
}


def test_meters_are_pinned():
    got = {}
    for name, q, strat, x in _pinned_runs():
        run = run_join(q, strat, cover=x)
        m = run.meter
        got[name] = (len(run.output), m.probes, m.advances, m.emits, m.recursions)
        if name == "clique4-40/nprr":
            assert run.cover == cover(0, 0, 1, 1, 0, 0)
    assert got == PINNED_METERS


# build_trie calls per pinned run, the schema-order tries included.  A
# re-ordered trie is built only when a subproblem that needs it is
# entered, so a planner that builds ahead of the run, or twice, changes
# these.
PINNED_TRIE_BUILDS = {
    "scan-branch": 2,
    "probe-branch": 2,
    "triangle-bad-16/nprr": 5,
    "triangle-bad-16/leapfrog": 3,
    "triangle-bad-16/fixed-sequence": 4,
    "lw-bad-4-13/nprr": 4,
    "lw-bad-4-13/leapfrog": 4,
    "lw-bad-4-13/fixed-sequence": 8,
    "clique4-40/nprr": 8,
    "clique4-40/leapfrog": 6,
    "clique4-40/fixed-sequence": 9,
    "c01-42/fixed-sequence": 2,
    "c01-81/nprr/random-cover": 6,
}


def _build_pinned_runs():
    yield from _pinned_runs()
    # Two c01 runs with a subproblem they never enter that would need a
    # re-ordered trie: a J subproblem no group survives to, and the probe
    # side of a tail that always scans.  Planning either ahead of the run
    # builds one trie more.
    q = random_instance(42, max_rows=30)
    fixed = fixed_sequence_strategy(random_partition(q.attrs, random.Random(42)))
    yield "c01-42/fixed-sequence", q, fixed, None
    q = random_instance(81, max_rows=30)
    x = random_feasible_cover(q, random.Random(81 * 31 + 1))
    yield "c01-81/nprr/random-cover", q, nprr_strategy(), x


def test_trie_builds_are_pinned(monkeypatch):
    from agmjoin import engine

    calls = []
    build = engine.build_trie

    def counted(r, order=None):
        calls.append(order)
        return build(r, order)

    monkeypatch.setattr(engine, "build_trie", counted)
    got = {}
    for name, q, strat, x in _build_pinned_runs():
        calls.clear()
        run_join(q, strat, cover=x)
        got[name] = len(calls)
    assert got == PINNED_TRIE_BUILDS


# sha256 over repr((output rows, probes, advances, emits, recursions)) of
# every run in test_c01_instances_are_pinned, in loop order.  The runs reuse
# a J side 840 times, each charged one probe in place of the work it skips.
C01_DIGEST = "2b0a03f37422eb169389a871e141a8bca5fa0defc47d98c58ad649429cad46ed"


def test_c01_instances_are_pinned():
    """c01's 200 instances, each by nprr, leapfrog and a seeded fixed
    sequence under the LP cover and a random feasible one."""
    h = hashlib.sha256()
    for seed in range(200):
        q = random_instance(seed, max_rows=30)
        covers = (None, random_feasible_cover(q, random.Random(seed * 31 + 1)))
        fixed = fixed_sequence_strategy(random_partition(q.attrs, random.Random(seed)))
        for x in covers:
            for strat in (nprr_strategy(), leapfrog_strategy(), fixed):
                run = run_join(q, strat, cover=x)
                m = run.meter
                h.update(repr((run.output.rows, m.probes, m.advances, m.emits, m.recursions)).encode())
    assert h.hexdigest() == C01_DIGEST


def test_time_budget_is_checked_after_each_trie_build():
    q = gen_clique_query(3, 500, seed=1).query
    m = CostMeter()
    m.start_deadline(0)
    with pytest.raises(TimeBudgetExceeded):
        run_join(q, meter=m)
    assert m.recursions == 0  # raised by the first build, before the recursion starts


# ---------------------------------------------------------------- reused J sides


def chase_witness_query(n):
    b = gen_chase_witness(n)
    return project_to_head(normalize(b.query)).bind(b.relations)


def test_chase_witness_reuses_one_j_side_per_x():
    # nprr joins I = {X, Y} into 300 groups (0, y); J = {W} meets R(W,X) and
    # R(W,W) but not Y, so every group after the first reuses the first's
    # intersection of R[X=0].W with R(W,W).W (135,902 ops without the memo).
    q = chase_witness_query(300)
    run = run_join(q, nprr_strategy())
    assert run.output == oracle_join(q)
    m = run.meter
    assert m.reuses == 299
    assert (m.probes, m.advances, m.emits, m.recursions) == (1349, 149, 45000, 3)
    assert m.total_ops == 46501


def _splits(monkeypatch):
    """Every ``_Split`` compiled from here on, in compile order, each with
    the arguments it was compiled from as ``args``."""
    splits = []

    class Spy(engine._Split):
        __slots__ = ("args",)

        def __init__(self, *args):
            super().__init__(*args)
            self.args = args
            splits.append(self)

    monkeypatch.setattr(engine, "_Split", Spy)
    return splits


@pytest.mark.parametrize("bundle", [gen_clique_query(3, 200, 1), gen_clique_query(4, 40, 2),
                                    gen_lw_query(4, 200, 1)], ids=["triangle", "clique4", "lw4"])
def test_leapfrog_keeps_no_memo_where_each_group_reaches_its_own_nodes(monkeypatch, bundle):
    # Each level's bound attributes and I all meet a relation of its J side,
    # so no two groups reach the same J nodes: no split keys a memo.
    splits = _splits(monkeypatch)
    run = run_join(bundle.query, leapfrog_strategy())
    assert splits and all(s.reuse is None for s in splits)
    assert run.meter.reuses == 0
    assert run.output == oracle_join(bundle.query)


def test_the_three_reuse_modes_are_compiled_where_they_can_hit(monkeypatch):
    splits = _splits(monkeypatch)
    q = join_query([relation([A], [(a,) for a in range(5)]), relation([B], [(1,), (2,)])])
    run = run_join(q, leapfrog_strategy())  # no I attribute meets S(B): once per call
    assert [s.reuse for s in splits] == [engine._ONCE]
    assert run.meter.reuses == 4 and len(run.output) == 10
    splits.clear()
    run_join(chase_witness_query(8), nprr_strategy())  # Y meets no J relation: a memo
    assert [type(s.reuse) for s in splits] == [dict]


@pytest.mark.parametrize("strat, q", [
    (leapfrog_strategy(), join_query([relation([A], [(a,) for a in range(50)]),
                                      relation([B], [(b,) for b in range(50)])])),
    (nprr_strategy(), chase_witness_query(300)),
], ids=["once", "memo"])
def test_an_expired_deadline_stops_a_run_whose_groups_reuse(strat, q):
    class ExpiresOnReuse(CostMeter):
        def check_deadline(self):
            if self.reuses:
                raise TimeBudgetExceeded("deadline")

    m = ExpiresOnReuse()
    with pytest.raises(TimeBudgetExceeded):
        run_join(q, strat, meter=m)
    assert m.reuses == 1  # the group after the first reuse checks the deadline


def test_permuted_rows_reach_relation_sorted(monkeypatch):
    # nprr emits chase-witness rows as (X, Y) groups plus W, so a perm
    # reorders them; run_join sorts them before storing them unchecked.
    seen = []
    make = Relation._sorted

    def spy(schema, rows):
        seen.append(all(a < b for a, b in zip(rows, rows[1:])))
        return make(schema, rows)

    monkeypatch.setattr(Relation, "_sorted", spy)
    q = chase_witness_query(40)
    assert run_join(q, nprr_strategy()).output == oracle_join(q)
    assert seen == [True]


def test_answers_are_built_without_a_row_walk(monkeypatch):
    # Engines and plans build answers from checked relations, strictly
    # increasing, so no answer passes through Relation.__post_init__.
    cases = []
    for q in (chase_witness_query(40), gen_triangle_bad(8).query):
        tree = leaf(0)
        for i in range(1, len(q.relations)):
            tree = join(tree, leaf(i))
        cases.append((q, tree, oracle_join(q)))
    calls = []
    check = Relation.__post_init__

    def spy(self):
        calls.append(self.schema)
        check(self)

    monkeypatch.setattr(Relation, "__post_init__", spy)
    for q, tree, want in cases:
        reversed_blocks = fixed_sequence_strategy([(a,) for a in reversed(q.attrs)])
        for strat in (nprr_strategy(), leapfrog_strategy(), reversed_blocks):
            assert run_join(q, strat).output == want, strat
        assert execute_plan(tree, q.relations, CostMeter())[0] == want
        assert agm_join_project_traced(q, CostMeter())[0] == want
    assert calls == []


def _product_cases():
    w, x, y = make_attrs("W", "X", "Y")
    return {
        # As in chase-witness, nprr's cover puts 1 on T(W) and S(X, Y), so it joins
        # I = {X, Y} and extends each group by the W values of R(W, X) and T(W):
        # every group reaches the one R node of X = 0, so the split is a product,
        # its J attribute first, laid out J-major with no sort
        "product": [relation([w, x], [(1, 0), (2, 0), (3, 9)]), relation([w], [(1,), (2,)]),
                    relation([x, y], [(0, 5), (0, 6)])],
        # the group of X = 1 reaches other W values: the pairs kept so far become rows
        "spilled": [relation([w, x], [(1, 0), (2, 0), (1, 1), (3, 1), (4, 9), (5, 9)]),
                    relation([w], [(1,), (2,), (3,)]),
                    relation([x, y], [(0, 5), (0, 6), (1, 7)])],
        # J = {W, Y} on both sides of I = {X}: a product, but not in J-major order
        "interleaved": [relation([w, y], [(1, 5), (2, 6), (2, 7)]), relation([x], [(0,), (3,)])],
    }


@pytest.mark.parametrize("case", ["product", "spilled", "interleaved"])
@pytest.mark.parametrize("strat", [nprr_strategy(), leapfrog_strategy()], ids=["nprr", "leapfrog"])
def test_products_and_their_fallbacks_match_the_oracle(case, strat):
    from agmjoin.engine import run_join_factorised
    from agmjoin.formats import format_relation

    q = join_query(_product_cases()[case])
    want = oracle_join(q)
    assert run_join(q, strat).output == want
    ans = run_join_factorised(q, strat).output
    assert len(ans) == len(want)
    assert format_relation("Q", "WXY", ans) == format_relation("Q", "WXY", want)
    if strat.kind == "nprr":  # the shapes described above: a product is one block of J rows
        assert (len(ans.blocks) == 1 and len(ans.blocks[0][0]) > 1) == (case == "product")


# ---------------------------------------------------------------- the two-choices filter


def _reference_filter(meter, rows, plans):
    """The row-at-a-time filter: each row walks the plans up to its first miss."""
    out = []
    for t in rows:
        ok = True
        for (level, lo, hi), idxs in plans:
            for i in idxs:
                meter.probes += 1
                keys, offs, level = level
                v = t[i]
                lo = bisect_left(keys, v, lo, hi)
                if lo == hi or keys[lo] != v:
                    ok = False
                    break
                if offs is not None:
                    lo, hi = offs[lo], offs[lo + 1]
            if not ok:
                break
        if ok:
            out.append(t)
    return out


def _filter_both(rows, plans):
    """(kept rows, probes) from the engine's filter and from the reference."""
    m, ref = CostMeter(), CostMeter()
    got = _filter(SimpleNamespace(meter=m), iter(rows), len(rows), plans)
    want = _reference_filter(ref, rows, plans)
    return (got, m.probes), (want, ref.probes)


def test_filter_set_and_bisect_branches_match_the_reference():
    ix = build_trie(relation([A], [(1,), (3,), (5,), (7,)]))
    plans = [(ix.root, (1,))]
    few = [(0, 3), (0, 4), (0, 7)]  # fewer rows than keys: bisect per row
    many = [(0, v) for v in range(9)]  # more rows than keys: a set of the keys
    for rows in (few, many, few[:0]):
        got, want = _filter_both(rows, plans)
        assert got == want
    assert _filter_both(few, plans)[0] == ([(0, 3), (0, 7)], 3)
    assert _filter_both(many, plans)[0] == ([(0, 1), (0, 3), (0, 5), (0, 7)], 9)


def test_filter_misses_at_every_level_of_every_plan():
    two = build_trie(relation([A, B], [(1, 1), (1, 2), (2, 1)]))
    one = build_trie(relation([C], [(0,), (9,)]))
    plans = [(two.root, (0, 1)), (one.root, (2,))]
    rows = [
        (0, 1, 0),  # misses the first plan's first level: 1 probe
        (1, 3, 0),  # misses its second level: 2 probes
        (2, 1, 5),  # misses the second plan: 3 probes
        (1, 2, 9),  # kept: 3 probes
        (1, 1, 0),  # kept: 3 probes
    ]
    got, want = _filter_both(rows, plans)
    assert got == want == ([(1, 2, 9), (1, 1, 0)], 12)


@st.composite
def filter_cases(draw):
    """Rows of one width and one to three plans over tries of arity 1-3,
    each plan at the root or at an inner node reached by a drawn prefix."""
    width = draw(st.integers(1, 3))
    val = st.integers(0, 5)
    rows = draw(st.lists(st.tuples(*[val] * width), max_size=40))
    plans = []
    for _ in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(1, 3))
        stored = draw(st.lists(st.tuples(*[val] * arity), max_size=30))
        ix = build_trie(relation((A, B, C, D)[:arity], stored))
        node, depth = ix.root, arity
        if stored and arity > 1:
            cut = draw(st.integers(0, arity - 1))
            node, depth = walk(ix, draw(st.sampled_from(stored))[:cut]), arity - cut
        idxs = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=depth))
        plans.append((node, tuple(idxs)))
    return rows, plans


@given(filter_cases())
def test_filter_matches_the_row_at_a_time_reference(case):
    got, want = _filter_both(*case)
    assert got == want


def test_filter_checks_the_deadline_over_scanned_rows():
    ix = build_trie(relation([A], [(v,) for v in range(0, 8192, 2)]))
    rows = [(v,) for v in range(2048)]
    m = CostMeter()
    m.deadline = time.monotonic() - 1
    with pytest.raises(TimeBudgetExceeded):
        _filter(SimpleNamespace(meter=m), rows, len(rows), [(ix.root, (0,))])


class _DeadlineAt(CostMeter):
    """A meter whose deadline passes at its ``calls``-th check."""

    def __init__(self, calls):
        super().__init__()
        self.calls = calls

    def check_deadline(self):
        self.calls -= 1
        if self.calls == 0:
            raise TimeBudgetExceeded("deadline")


@pytest.mark.parametrize("keys", [range(8), range(0, 16384, 2)], ids=["set", "bisect"])
def test_filter_checks_the_deadline_part_way_through_a_scan(keys):
    ix = build_trie(relation([A], [(v,) for v in keys]))
    read = []
    rows = (read.append(v) or (v,) for v in range(4096))
    with pytest.raises(TimeBudgetExceeded):
        _filter(SimpleNamespace(meter=_DeadlineAt(2)), rows, 4096, [(ix.root, (0,))])
    assert len(read) <= 1024  # the check before the plan, then one within its first 1024 rows


def _checked_scans(monkeypatch):
    """Wrap the two-choices step so that every forced scan (no sizing, so
    its only work is the scan) is checked against the row-at-a-time
    reference over ``iter_leaves``'s leaves: the same rows, and one probe
    per leaf read plus the reference's probes.  Returns a list that
    collects (bound-prefix length, leaves read, read as a slice) per scan."""
    seen = []
    tail = engine._nprr_tail

    def checked(ctx, plan, nodes):
        before = ctx.meter.probes
        got = tail(ctx, plan, nodes)
        if plan.sizing is None:
            nj = nodes[plan.j]
            leaves = list(iter_leaves(nj, plan.k))
            ref = CostMeter()
            want = _reference_filter(ref, leaves, [(nodes[s], pos) for s, pos in plan.scan])
            assert got == want
            assert ctx.meter.probes - before == len(leaves) + ref.probes
            seen.append((plan.d, len(leaves), leaf_rows(nj, plan.k) is not None))
        return got

    monkeypatch.setattr(engine, "_nprr_tail", checked)
    return seen


def test_scans_at_every_depth_match_the_row_at_a_time_reference(monkeypatch):
    """c01's instances by nprr: their forced scans read slices at the root
    and below it, and projection nodes through ``iter_leaves``."""
    seen = _checked_scans(monkeypatch)
    for seed in range(200):
        q = random_instance(seed, max_rows=30)
        for x in (None, random_feasible_cover(q, random.Random(seed * 31 + 1))):
            assert run_join(q, nprr_strategy(), cover=x).output == oracle_join(q), seed
    kinds = {(d > 0, sliced) for d, _, sliced in seen}
    assert kinds == {(False, True), (True, True), (False, False)}


@pytest.mark.parametrize("x_keys", [5, 3000], ids=["set", "bisect"])
def test_a_scan_below_the_root_reads_a_slice_of_more_than_1024_rows(monkeypatch, x_keys):
    """R(A,B) is J at the top and probes into S(A,B,C); below the bound C
    the probe side is a forced scan of S's (A,B) slice, 1,800 rows for
    C=0, filtered by X(B) on the set path or row by row."""
    seen = _checked_scans(monkeypatch)
    r = relation([A, B], [(a, b) for a in range(50) for b in range(42)])
    s = relation([A, B, C], [(a, b, c) for c in range(2)
                             for a in range(0, 60, 1 + c) for b in range(30 - 10 * c)])
    u = relation([C], [(0,), (1,), (5,)])
    x = relation([B], [(b,) for b in range(0, 2 * x_keys, 2)])
    q = join_query([r, s, u, x])
    got = run_join(q, nprr_strategy(), cover=cover("1/2", "1/2", "1/2", 0)).output
    assert got == oracle_join(q)
    assert seen == [(1, 1800, True), (1, 600, True)]


@pytest.mark.parametrize("keys", [range(8), range(0, 16384, 2)], ids=["set", "bisect"])
def test_filter_checks_the_deadline_part_way_through_a_slice(keys):
    ix = build_trie(relation([A, B], [(0, v) for v in range(4096)]))
    rows = leaf_rows(ix.root, 2)[100:]  # 3,996 rows of a tuple, as a scan reads them
    assert type(rows) is tuple
    plans = [(build_trie(relation([A], [(v,) for v in keys])).root, (1,))]
    m, ref = CostMeter(), CostMeter()
    got = _filter(SimpleNamespace(meter=m), rows, len(rows), plans)
    assert (got, m.probes) == (_reference_filter(ref, rows, plans), ref.probes)
    with pytest.raises(TimeBudgetExceeded):  # the check before the plan, then three of the rows'
        _filter(SimpleNamespace(meter=_DeadlineAt(4)), rows, len(rows), plans)


@st.composite
def reseat_cases(draw):
    """A relation of arity 3-4 with values past 2**64, a trie order, a
    depth with at least two attributes after it, and a second order that
    keeps the first ``depth`` attributes and permutes the rest."""
    arity = draw(st.integers(3, 4))
    val = st.integers(0, 2**64 + 3) | st.integers(0, 3)
    rows = draw(st.lists(st.tuples(*[val] * arity), min_size=1, max_size=30))
    rel = relation((A, B, C, D)[:arity], rows)
    order = tuple(draw(st.permutations(rel.schema)))
    depth = draw(st.integers(0, arity - 2))
    rest = draw(st.permutations(order[depth:]).filter(lambda p: tuple(p) != order[depth:]))
    return rel, order, depth, order[:depth] + tuple(rest)


@given(reseat_cases())
def test_reseat_by_prefix_index_matches_a_descent_of_the_prefix(case):
    """The engine's re-seat of a node from the old trie onto the new one
    is the node that descending the bound prefix from the new root reaches."""
    rel, order, depth, new_order = case
    old, new = build_trie(rel, order), build_trie(rel, new_order)
    old_offs, new_offs, level = _seat(old, new, depth)
    cols = [rel.schema.index(a) for a in order[:depth]]
    for prefix in {tuple(t[c] for c in cols) for t in rel.rows}:
        node = walk(old, prefix)
        i = bisect_left(old_offs, node[1])
        got = (level, new_offs[i], new_offs[i + 1])
        want = walk(new, prefix)  # the reference: a descent from the new root
        assert got[0] is want[0] and got[1:] == want[1:]
