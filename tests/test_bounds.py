import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from agmjoin import (
    FractionalCover,
    Hypergraph,
    MalformedCoverError,
    SchemaError,
    agm_bound,
    cover,
    decomposition_check,
    edge_subset,
    is_cover,
    join_query,
    log2_fraction,
    make_attrs,
    min_cover_lp,
    oracle_join,
    relation,
)
from agmjoin import simplex
from conftest import random_instance

A, B, C, D = make_attrs("A", "B", "C", "D")
TRIANGLE = Hypergraph((A, B, C), ((A, B), (B, C), (A, C)))


def test_cover_coerces_to_fractions():
    x = cover(0.5, "1/3", 1)
    assert x.weights == (Fraction(1, 2), Fraction(1, 3), Fraction(1))
    assert x[0] == Fraction(1, 2)
    assert len(x) == 3


def test_negative_weights_never_cover():
    x = cover(-1, 1, 1)  # representable, but never feasible
    assert not is_cover(TRIANGLE, x)
    from agmjoin import InfeasibleCoverError

    with pytest.raises(InfeasibleCoverError):
        agm_bound(TRIANGLE, (4, 4, 4), x)


def test_min_cover_lp_solves_through_simplex_minimize(monkeypatch):
    # looked up at call time, so a wrapper around simplex.minimize counts every solve
    solves = []
    solve = simplex.minimize
    monkeypatch.setattr(simplex, "minimize", lambda lp: solves.append(lp) or solve(lp))
    rep = min_cover_lp(TRIANGLE, (4, 4, 4))
    assert len(solves) == 1
    assert rep.log2_bound == 3


def test_is_cover_triangle():
    assert is_cover(TRIANGLE, cover("1/2", "1/2", "1/2"))
    assert is_cover(TRIANGLE, cover(1, 0, 1))
    assert not is_cover(TRIANGLE, cover("1/2", "1/2", "1/3"))
    assert not is_cover(TRIANGLE, cover(1, 0, 0))


def test_is_cover_rejects_wrong_arity():
    with pytest.raises(MalformedCoverError):
        is_cover(TRIANGLE, cover(1, 1))


def test_agm_bound_triangle_is_exact_in_log_space():
    rep = agm_bound(TRIANGLE, (16, 16, 16), cover("1/2", "1/2", "1/2"))
    assert rep.log2_bound == Fraction(6)
    assert rep.bound == 64.0


def test_agm_bound_infeasible_cover():
    from agmjoin import InfeasibleCoverError

    with pytest.raises(InfeasibleCoverError):
        agm_bound(TRIANGLE, (16, 16, 16), cover(1, 0, 0))


def test_agm_bound_rejects_nonpositive_sizes():
    # Sizes enter through log2; callers clamp empty relations to 1
    # (the join is empty anyway), so a zero here is a usage error.
    with pytest.raises(MalformedCoverError):
        agm_bound(TRIANGLE, (0, 16, 16), cover(1, 1, 0))


@pytest.mark.parametrize("sizes", [(0, 4, 4), (4, -1, 4), (4, 4, 0)])
def test_min_cover_lp_rejects_sizes_below_one(sizes):
    with pytest.raises(MalformedCoverError):
        min_cover_lp(TRIANGLE, sizes)


def test_numpy_integer_sizes_give_the_int_report():
    sizes = (np.int64(8), np.int64(10), np.int32(3))
    assert min_cover_lp(TRIANGLE, sizes) == min_cover_lp(TRIANGLE, (8, 10, 3))
    x = cover(1, 0, 1)
    assert agm_bound(TRIANGLE, sizes, x) == agm_bound(TRIANGLE, (8, 10, 3), x)


@pytest.mark.parametrize("sizes", [(4.0, 4, 4), (4, 4.5, 4), (4, 4, Fraction(4)), ("4", 4, 4)])
def test_non_integer_sizes_raise_malformed_cover_error(sizes):
    with pytest.raises(MalformedCoverError):
        min_cover_lp(TRIANGLE, sizes)
    with pytest.raises(MalformedCoverError):
        agm_bound(TRIANGLE, sizes, cover(1, 0, 1))


def test_is_cover_sums_mixed_denominators_exactly():
    h = Hypergraph((A,), ((A,), (A,), (A,)))
    assert is_cover(h, cover("1/3", "1/6", "1/2"))
    assert not is_cover(h, cover("1/3", "1/6", Fraction(1, 2) - Fraction(1, 10**30)))


def test_log2_fraction_exact_on_powers_of_two():
    for k in range(0, 40):
        assert log2_fraction(2**k) == Fraction(k)


@given(st.integers(1, 10**9))
def test_log2_fraction_close_to_float_log(n):
    assert abs(float(log2_fraction(n)) - math.log2(n)) < 1e-12


def test_min_cover_lp_triangle_equal_sizes():
    rep = min_cover_lp(TRIANGLE, (64, 64, 64))
    assert rep.cover.weights == (Fraction(1, 2),) * 3
    assert rep.log2_bound == Fraction(9)
    assert rep.bound == 512.0


def test_min_cover_lp_skewed_sizes_shift_weight_off_the_big_edge():
    # With S huge, weight moves onto R and T, which jointly cover B.
    rep = min_cover_lp(TRIANGLE, (2, 1 << 20, 2))
    assert rep.cover.weights == (Fraction(1), Fraction(0), Fraction(1))
    assert rep.log2_bound == Fraction(2)


def test_min_cover_lp_lexmin_tie_break_is_deterministic():
    # Equal sizes everywhere: many optima; lexicographically smallest wins.
    rep1 = min_cover_lp(TRIANGLE, (8, 8, 8))
    rep2 = min_cover_lp(TRIANGLE, (8, 8, 8))
    assert rep1.cover == rep2.cover


def test_min_cover_lp_single_edge():
    h = Hypergraph((A, B), ((A, B),))
    rep = min_cover_lp(h, (37,))
    assert rep.cover.weights == (Fraction(1),)
    # 37 is not a power of two, so its log is a 45-digit approximation.
    assert abs(rep.bound - 37.0) < 1e-9


def test_min_cover_lp_path_query():
    h = Hypergraph((A, B, C, D), ((A, B), (B, C), (C, D)))
    rep = min_cover_lp(h, (4, 1 << 30, 4))
    # Ends must be covered: x_0 = x_2 = 1 suffices and covers B, C too.
    assert rep.cover.weights == (Fraction(1), Fraction(0), Fraction(1))
    assert rep.log2_bound == Fraction(4)


def test_bound_report_overflow_guard():
    h = Hypergraph((A,), ((A,),))
    rep = agm_bound(h, (1 << 1100,), cover(1))
    assert rep.bound == float("inf")
    assert rep.log2_bound == Fraction(1100)


@pytest.mark.parametrize("seed", range(40))
def test_min_cover_lp_matches_floating_point_solver(seed):
    """Dual route: the exact simplex against scipy's LP on the same program.

    min sum x_e * log2(size_e)  s.t.  for each vertex v: sum_{e in v} x_e >= 1.
    """
    q = random_instance(seed, max_rows=12)
    sizes = tuple(max(1, s) for s in q.sizes)
    rep = min_cover_lp(q.hypergraph, sizes)

    edges = q.hypergraph.edges
    verts = q.hypergraph.vertices
    c = [math.log2(s) for s in sizes]
    a_ub = [[-1.0 if v in e else 0.0 for e in edges] for v in verts]
    b_ub = [-1.0] * len(verts)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * len(edges))
    assert res.success
    assert abs(float(rep.log2_bound) - res.fun) <= 1e-9 * max(1.0, abs(res.fun))
    # The returned point must itself be feasible.
    assert is_cover(q.hypergraph, rep.cover)


LP_SIZES = (1, 2, 3, 4, 8, 16, 17, 100, 1000, 2**20, 12345, 10**12 + 7, 2**41 + 3)


def _random_cover_instance(rng: random.Random) -> tuple[Hypergraph, list[int]]:
    """1-6 vertices, 1-8 edges, every vertex in some edge; many equal sizes."""
    nv = rng.randint(1, 6)
    vs = make_attrs(*(f"V{i}" for i in range(nv)))
    edges = [set(rng.sample(range(nv), rng.randint(1, nv))) for _ in range(rng.randint(1, 8))]
    for v in range(nv):
        if not any(v in e for e in edges):
            rng.choice(edges).add(v)
    sizes = [rng.choice(LP_SIZES) if rng.random() < 0.5 else rng.randint(1, 64) for _ in edges]
    return Hypergraph(vs, tuple(tuple(vs[v] for v in sorted(e)) for e in edges)), sizes


def _clique(k: int) -> Hypergraph:
    vs = make_attrs(*(f"K{i}" for i in range(k)))
    return Hypergraph(vs, tuple(itertools.combinations(vs, 2)))


# sha256 over repr((cover.weights, log2_bound)) of every report in
# test_min_cover_lp_reports_are_pinned, in loop order.
LP_DIGEST = "e1407f1841ea6378a1a712ea56aac7bc770ec8d06a6b929aec5238b5ae6b4110"


def test_min_cover_lp_reports_are_pinned():
    """c01's 200 queries, 900 seeded random hypergraphs, and K4-K6 with
    all sizes 1 and all sizes equal: the lex-least optimum is unique, so
    any correct solver returns these exact reports."""
    programs = []
    for seed in range(200):
        q = random_instance(seed, max_rows=30)
        programs.append((q.hypergraph, [max(1, s) for s in q.sizes]))
    rng = random.Random(0x1E8)
    programs += [_random_cover_instance(rng) for _ in range(900)]
    for k in (4, 5, 6):
        h = _clique(k)
        programs += [(h, [1] * len(h.edges)), (h, [1000] * len(h.edges))]
    digest = hashlib.sha256()
    for h, sizes in programs:
        rep = min_cover_lp(h, sizes)
        digest.update(repr((rep.cover.weights, rep.log2_bound)).encode())
    assert digest.hexdigest() == LP_DIGEST


@pytest.mark.parametrize("seed", range(25))
def test_lp_bound_dominates_true_output(seed):
    q = random_instance(seed, max_rows=10)
    sizes = tuple(max(1, s) for s in q.sizes)
    rep = min_cover_lp(q.hypergraph, sizes)
    out = oracle_join(q)
    assert len(out) <= math.ceil(rep.bound) or rep.bound == float("inf")


def test_edge_subset_lists_edges_meeting_the_set():
    assert edge_subset(TRIANGLE, (A,)) == (0, 2)
    assert edge_subset(TRIANGLE, (B,)) == (0, 1)
    assert edge_subset(TRIANGLE, (A, B)) == (0, 1, 2)
    assert edge_subset(TRIANGLE, ()) == ()
    with pytest.raises(SchemaError):
        edge_subset(TRIANGLE, (D,))


def triangle_query(n):
    rows = [(i, j) for i in range(n) for j in range(n)]
    return join_query(
        [relation([A, B], rows), relation([B, C], rows), relation([A, C], rows)]
    )


def test_decomposition_check_example():
    q = triangle_query(3)
    rep = decomposition_check(q, cover("1/2", "1/2", "1/2"), (A,))
    assert rep.holds()
    assert rep.lhs <= rep.rhs * (1 + 1e-9)


def test_decomposition_check_rejects_malformed_weights():
    q = triangle_query(2)
    with pytest.raises(MalformedCoverError):
        decomposition_check(q, cover(1, 1), (A,))


@pytest.mark.parametrize("seed", range(20))
def test_decomposition_holds_on_random_instances_with_lp_cover(seed):
    q = random_instance(seed, max_rows=8)
    sizes = tuple(max(1, s) for s in q.sizes)
    x = min_cover_lp(q.hypergraph, sizes).cover
    for a in q.attrs:
        rep = decomposition_check(q, x, (a,))
        assert rep.lhs <= rep.rhs * (1 + 1e-9), (seed, a, rep)
