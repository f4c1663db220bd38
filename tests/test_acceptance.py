"""End-to-end checks for the whole toolkit, one test per claim.

``pytest tests/test_acceptance.py -v`` prints one pass/fail line per
criterion.  Where a claim is asymptotic (scaling exponents, linear-time
behavior) it is checked through deterministic operation counts rather
than wall-clock time; test_c09 pins why that substitution is sound.
"""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache

from hypothesis import example, given
from hypothesis import strategies as st

from agmjoin import (
    CostMeter,
    Hypergraph,
    agm_bound,
    agm_join_project_traced,
    cover,
    cq_bound,
    evaluate_cq,
    execute_plan,
    gen_chase_witness,
    gen_clique_query,
    gen_lw_bad,
    gen_lw_query,
    gen_triangle_bad,
    join_query,
    leapfrog_strategy,
    make_attrs,
    min_cover_lp,
    nprr_strategy,
    oracle_join,
    relation,
    run_join,
)
from agmjoin.cli import fit_exponent
from conftest import (
    all_join_plans,
    decomposition_check,
    is_simple,
    oracle_join_by_candidate,
    random_feasible_cover,
    random_instance,
)
from test_rewrite import (
    key_chain_query,
    loop_endpoints_query,
    repeated_symbol_query,
    star_query,
)

A, B, C = make_attrs("A", "B", "C")
TRIANGLE = Hypergraph((A, B, C), ((A, B), (B, C), (A, C)))


@lru_cache(maxsize=None)
def solved(seed: int):
    """One seeded instance (n <= 4, m <= 4, |R| <= 30) plus its true output."""
    q = random_instance(seed, max_rows=30)
    return q, oracle_join(q)


def test_c01_all_engines_agree_with_the_oracle_on_200_instances():
    t0 = time.perf_counter()
    for seed in range(200):
        q, want = solved(seed)
        assert run_join(q, nprr_strategy()).output == want, seed
        assert run_join(q, leapfrog_strategy()).output == want, seed
        assert agm_join_project_traced(q, CostMeter())[0] == want, seed
        for plan in all_join_plans(len(q.relations)):
            got, _ = execute_plan(plan, q.relations, CostMeter())
            assert got == want, (seed, repr(plan))
    assert time.perf_counter() - t0 < 30.0


# small values, some around 2^33 (two shared ones of those once passed 63
# bits in the numpy plans' packed join key, which now packs ranks), and
# some on either side of 2^63 and at 2^64, past int64 and uint64
ADVERSARIAL_VALUES = st.one_of(st.integers(0, 3), st.integers(2**33 - 1, 2**33 + 2),
                               st.integers(2**63 - 3, 2**63 + 1), st.just(2**64))


@st.composite
def adversarial_queries(draw):
    """Up to 4 relations over up to 4 attributes: empty, unary or repeated
    schemas, with values drawn from a few adversarial ones per query."""
    attrs = make_attrs(*"ABCD"[:draw(st.integers(1, 4))])
    pool = draw(st.lists(ADVERSARIAL_VALUES, min_size=1, max_size=4, unique=True))
    rels = []
    for _ in range(draw(st.integers(1, 4))):
        schema = sorted(draw(st.sets(st.sampled_from(attrs), min_size=1)))
        row = st.tuples(*[st.sampled_from(pool)] * len(schema))
        rels.append(relation(schema, draw(st.lists(row, max_size=8))))
    return join_query(rels)


_BIG = 2**33
_AB = make_attrs("A", "B")


@given(adversarial_queries())
@example(join_query([relation(_AB, [(_BIG, _BIG + 1)])] * 2))  # two shared values near 2^33
@example(join_query([relation(_AB[:1], [(2**63 - 1,)]), relation(_AB[1:], [])]))
def test_c01_engines_answer_or_refuse_on_adversarial_values_and_shapes(q):
    """Every engine, the numpy plans included, returns the oracle's answer."""
    want = oracle_join(q)
    assert run_join(q, nprr_strategy()).output == want
    assert run_join(q, leapfrog_strategy()).output == want
    runs = [("agm-plan", lambda: agm_join_project_traced(q, CostMeter())[0])]
    runs += [(repr(p), lambda p=p: execute_plan(p, q.relations, CostMeter())[0])
             for p in all_join_plans(len(q.relations))]
    for name, run in runs:
        assert run() == want, name


def test_oracle_matches_the_candidate_at_a_time_loop_on_c01_instances():
    for seed in range(200):
        q, got = solved(seed)
        assert got == oracle_join_by_candidate(q), seed


@given(adversarial_queries())
@example(join_query([  # 8,000 candidates: a chunk of 4,096 and a partial one
    relation((A, B), [(i, j) for i in range(20) for j in range(20)]),
    relation((B, C), [(j, k) for j in range(20) for k in range(20) if (j + k) % 3 == 0]),
    relation((A, C), [(i, k) for i in range(20) for k in range(20) if i != k])]))
def test_oracle_matches_the_candidate_at_a_time_loop_on_adversarial_instances(q):
    assert oracle_join(q) == oracle_join_by_candidate(q)


def test_c02_pinned_bound_values():
    # equal triangle, all-half cover: (N^3)^(1/2) = 512 at N = 64
    rep = agm_bound(TRIANGLE, (64, 64, 64), cover("1/2", "1/2", "1/2"))
    assert abs(float(rep.log2_bound) - 9.0) <= 1e-9
    assert rep.bound == 512.0

    # two unit-size tables let the optimum ignore the big middle one
    rep = min_cover_lp(TRIANGLE, (1, 64, 1))
    assert abs(float(rep.log2_bound)) <= 1e-9
    assert rep.bound == 1.0

    # 4-clique of binary tables at N = 16: N^(4/2) = 256
    k4 = gen_clique_query(4, 16).query
    rep = min_cover_lp(k4.hypergraph, tuple(len(r) for r in k4.relations))
    assert abs(float(rep.log2_bound) - 8.0) <= 1e-9
    assert rep.bound == 256.0

    # 4-table each-misses-one-attribute query at N = 8: N^(1 + 1/3) = 16
    lw4 = gen_lw_query(4, 8).query
    rep = min_cover_lp(lw4.hypergraph, tuple(len(r) for r in lw4.relations))
    assert abs(float(rep.log2_bound) - 4.0) <= 1e-9
    assert rep.bound == 16.0


def test_c03_no_output_ever_exceeds_the_optimal_bound():
    for seed in range(200):
        q, want = solved(seed)
        sizes = tuple(max(1, len(r)) for r in q.relations)
        rep = min_cover_lp(q.hypergraph, sizes)
        assert len(want) <= math.ceil(rep.bound), seed


def test_c04_group_decomposition_inequality_holds_everywhere():
    for seed in range(100):
        q, _ = solved(seed)
        x = random_feasible_cover(q, random.Random(seed))
        for a in q.attrs:
            rep = decomposition_check(q, x, (a,))
            assert rep.holds(rel_tol=1e-9), (seed, a, rep)


def test_c05_triangle_family_separates_wcoj_from_every_pairwise_plan():
    t0 = time.perf_counter()
    ms = [2**e for e in range(4, 13)]
    wcoj_ops = {"nprr": [], "leapfrog": []}
    plan_work = {0: [], 1: [], 2: []}
    for m in ms:
        q = gen_triangle_bad(m).query
        for name, strat in (("nprr", nprr_strategy()), ("leapfrog", leapfrog_strategy())):
            run = run_join(q, strat)
            assert len(run.output) == 3 * m + 1, (name, m)
            wcoj_ops[name].append(run.meter.total_ops)
        for i, plan in enumerate(all_join_plans(3)):
            _, trace = execute_plan(plan, q.relations, CostMeter())
            assert trace.intermediate_max >= m * m, (i, m)
            plan_work[i].append(trace.total_work)
    for name, ops in wcoj_ops.items():
        exponent, _ = fit_exponent(ms, ops)
        assert exponent <= 1.15, (name, exponent)  # measured 0.9993 / 0.9992
    for i, work in plan_work.items():
        exponent, _ = fit_exponent(ms, work)
        assert exponent >= 1.85, (i, exponent)  # measured 1.9906
    assert time.perf_counter() - t0 < 60.0


def test_c06_wcoj_op_counts_scale_subquadratically_on_random_triangles():
    t0 = time.perf_counter()
    ns = [2**e for e in range(6, 13)]
    wcoj_ops = {"nprr": [], "leapfrog": []}
    for n in ns:
        q = gen_clique_query(3, n, seed=n).query
        assert all(len(r) == n for r in q.relations)
        for name, strat in (("nprr", nprr_strategy()), ("leapfrog", leapfrog_strategy())):
            wcoj_ops[name].append(run_join(q, strat).meter.total_ops)
    for name, ops in wcoj_ops.items():
        exponent, _ = fit_exponent(ns, ops)
        assert exponent <= 1.6, (name, exponent)  # measured 0.98 / 1.06
    assert time.perf_counter() - t0 < 120.0


def _join_nodes_postorder(node, out):
    """Join nodes in the order execute_plan records them."""
    if node.is_leaf:
        return
    _join_nodes_postorder(node.left, out)
    _join_nodes_postorder(node.right, out)
    out.append(node)


def test_c07_simple_relation_family_is_linear_for_wcoj_quadratic_pairwise():
    for n in (3, 4, 5):
        for d in (64, 128, 256):
            big_n = d * (n - 1) + 1
            q = gen_lw_bad(n, big_n).query
            assert all(len(r) == big_n for r in q.relations), (n, d)

            run = run_join(q)
            assert len(run.output) == big_n + d, (n, d)
            # linear data complexity; worst measured ratio is 1.17
            assert run.meter.total_ops <= 2 * n * n * big_n, (n, d)

            # every first join a pairwise plan can make blows up to at
            # least (1 + d)^2 rows, whichever pair of tables it picks
            for plan in all_join_plans(n):
                _, trace = execute_plan(plan, q.relations, CostMeter())
                nodes = []
                _join_nodes_postorder(plan, nodes)
                sizes = dict(trace.intermediate_sizes)
                for i, node in enumerate(nodes):
                    if not (node.left.is_leaf and node.right.is_leaf):
                        continue
                    left = q.relations[node.left.ref]
                    right = q.relations[node.right.ref]
                    assert is_simple(left) and is_simple(right)
                    ls, rs = set(left.schema), set(right.schema)
                    assert not (ls <= rs or rs <= ls)
                    assert sizes[i] >= (1 + d) ** 2, (n, d, i)


def test_c08_rewrite_bounds_and_the_chase_witness():
    n = 16
    log_n = Fraction(4)

    sizes = {"R": n, "S": n, "T": n}
    assert cq_bound(star_query(), sizes).log2_bound == log_n
    assert cq_bound(loop_endpoints_query(), sizes).log2_bound == log_n

    # a repeated symbol without its key costs a square; the key wins it back
    assert cq_bound(repeated_symbol_query(with_fd=False), sizes).log2_bound == 2 * log_n
    assert cq_bound(repeated_symbol_query(with_fd=True), sizes).log2_bound == log_n

    sizes = {f"R{i}": n for i in (1, 2, 3)} | {"S": n}
    assert cq_bound(key_chain_query(with_fds=False), sizes).log2_bound == 3 * log_n
    assert cq_bound(key_chain_query(with_fds=True), sizes).log2_bound == log_n

    # and the square bound is nearly attained by real data when the
    # repeated symbol genuinely has no key
    witness = gen_chase_witness(64)
    out = evaluate_cq(witness.query, witness.relations)
    assert len(out) >= 64 * 64 // 2
    assert len(out) == witness.expected_size


def test_c09_op_counts_are_a_faithful_stand_in_for_run_time():
    # Every scaling claim above is accepted through operation-count
    # exponents, not stopwatch readings: op counts are exact, identical
    # across runs and machines, and track the same loops a timer would.
    # The substitution is only sound if the meters are deterministic --
    # pin that, and pin that the fitted exponents are reproducible.
    q = gen_clique_query(3, 512, seed=7).query
    for strat in (nprr_strategy(), leapfrog_strategy()):
        first = run_join(q, strat).meter
        second = run_join(q, strat).meter
        assert (first.probes, first.advances, first.emits, first.recursions) == (
            second.probes,
            second.advances,
            second.emits,
            second.recursions,
        )
        assert first.total_ops == second.total_ops > 0

    ms = [16, 32, 64, 128]
    series = [run_join(gen_triangle_bad(m).query).meter.total_ops for m in ms]
    again = [run_join(gen_triangle_bad(m).query).meter.total_ops for m in ms]
    assert series == again
    exponent, residual = fit_exponent(ms, series)
    assert math.isfinite(exponent) and math.isfinite(residual)


def test_c10_leapfrog_is_linear_on_a_dangling_path():
    # R(A,B) = {(a,0)}, S(B,C) = {(0,2c)}, T(C,D) = {(2d+1,d)}: S's and T's C
    # values interleave and nothing joins.  The subproblem below B meets R
    # only through B, so every A value reaches the same S and T nodes: one
    # intersection of S[B=0].C with T.C, reused, where repeating it for each
    # A costs Theta(n^2) (322,402 ops at n = 400, now 3,202).
    a, b, c, d = make_attrs("A", "B", "C", "D")
    ns = [100, 200, 400, 800]
    ops = []
    for n in ns:
        q = join_query([
            relation([a, b], [(i, 0) for i in range(n)]),
            relation([b, c], [(0, 2 * i) for i in range(n)]),
            relation([c, d], [(2 * i + 1, i) for i in range(n)]),
        ])
        run = run_join(q, leapfrog_strategy())
        assert len(run.output) == 0
        assert run.meter.reuses == n - 1
        ops.append(run.meter.total_ops)
    exponent, _ = fit_exponent(ns, ops)
    assert exponent <= 1.1, exponent  # measured 0.9995
