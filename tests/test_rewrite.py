import math
import random
from fractions import Fraction

import pytest

from agmjoin import (
    Atom,
    ConjunctiveQuery,
    MalformedCoverError,
    SchemaError,
    SimpleFD,
    chase,
    cq_bound,
    drop_repeated_vars,
    evaluate_cq,
    fd_extend,
    normalize,
    project_to_head,
)
from agmjoin.formats import parse_query_text
from agmjoin.rewrite import BaseView, ExtendView, FilterView, KeepView


def cq(head_sym, head_vars, body, fds=()):
    return ConjunctiveQuery(
        Atom(head_sym, tuple(head_vars)),
        tuple(Atom(s, tuple(vs)) for s, vs in body),
        tuple(fds),
    )


# The four reference queries the bound machinery is exercised on.

def star_query():
    # Q(W) <- R(W,X), S(W,Y), T(W,Z): output is at most one table's size.
    return cq("Q", "W", [("R", "WX"), ("S", "WY"), ("T", "WZ")])


def loop_endpoints_query():
    # Q(W,Y) <- R(W,W), S(W,Y), T(Y,Y)
    return cq("Q", "WY", [("R", "WW"), ("S", "WY"), ("T", "YY")])


def repeated_symbol_query(with_fd):
    # Q(W,X,Y) <- R(W,X), R(W,W), S(X,Y)
    fds = [SimpleFD("R", 1, 2)] if with_fd else []
    return cq("Q", "WXY", [("R", "WX"), ("R", "WW"), ("S", "XY")], fds)


def key_chain_query(with_fds):
    # Q(X,Y1,Y2,Y3,Z) <- R1(X,Y1), R2(X,Y2), R3(X,Y3), S(Y1,Z)
    fds = (
        [SimpleFD(f"R{i}", 1, 2) for i in (1, 2, 3)] + [SimpleFD("S", 1, 2)]
        if with_fds
        else []
    )
    return cq(
        "Q",
        ("X", "Y1", "Y2", "Y3", "Z"),
        [("R1", ("X", "Y1")), ("R2", ("X", "Y2")), ("R3", ("X", "Y3")), ("S", ("Y1", "Z"))],
        fds,
    )


def test_atom_and_fd_display():
    assert str(Atom("R", ("A", "B"))) == "R(A,B)"
    assert str(SimpleFD("R", 1, 2)) == "R: 1 -> 2"


def test_simple_fd_validation():
    with pytest.raises(SchemaError):
        SimpleFD("R", 0, 2)
    with pytest.raises(SchemaError):
        SimpleFD("R", 1, 0)
    with pytest.raises(SchemaError):
        SimpleFD("R", 2, 2)


def test_query_validation():
    with pytest.raises(SchemaError):
        cq("Q", "Z", [("R", "AB")])  # head var not in body
    with pytest.raises(SchemaError):
        cq("Q", "A", [("R", "AB"), ("R", "A")])  # inconsistent arity
    with pytest.raises(SchemaError):
        cq("Q", "A", [("R", "AB")], [SimpleFD("R", 1, 3)])  # fd beyond arity


def test_variables_in_first_appearance_order():
    c = cq("Q", "YX", [("R", "XY"), ("S", "YZ")])
    assert c.variables == ("Y", "X", "Z")


# ---------------------------------------------------------------- chase

def test_chase_without_dependencies_is_identity():
    c = repeated_symbol_query(with_fd=False)
    assert chase(c) == c


def test_chase_unifies_through_a_key():
    c = cq("Q", "BC", [("R", "AB"), ("R", "AC")], [SimpleFD("R", 1, 2)])
    out = chase(c)
    # B and C name the same value; the smaller name survives and the
    # two atoms collapse into one.
    assert out.body == (Atom("R", ("A", "B")),)
    assert out.head == Atom("Q", ("B", "B"))


def test_chase_keeps_head_multiplicity():
    c = repeated_symbol_query(with_fd=True)
    out = chase(c)
    assert out.body == (Atom("R", ("W", "W")), Atom("S", ("W", "Y")))
    assert out.head == Atom("Q", ("W", "W", "Y"))


def test_chase_reaches_a_fixed_point():
    # A cascade: unifying through R enables a unification through S.
    c = cq(
        "Q",
        "A",
        [("R", "AB"), ("R", "AC"), ("S", "BD"), ("S", "CE")],
        [SimpleFD("R", 1, 2), SimpleFD("S", 1, 2)],
    )
    out = chase(c)
    assert out.body == (Atom("R", ("A", "B")), Atom("S", ("B", "D")))
    assert chase(out) == out  # idempotent


def test_chase_is_order_insensitive_here():
    # The same constraints stated in either order give the same result.
    body = [("R", "AB"), ("R", "AC")]
    c1 = cq("Q", "A", body, [SimpleFD("R", 1, 2)])
    c2 = cq("Q", "A", list(reversed(body)), [SimpleFD("R", 1, 2)])
    assert chase(c1).body == chase(c2).body == (Atom("R", ("A", "B")),)


# ------------------------------------------------------------- fd_extend

def test_fd_extend_identity_without_dependencies():
    c = star_query()
    assert fd_extend(c) == c


def test_fd_extend_widens_atoms_missing_a_determined_variable():
    c = cq("Q", "XYZ", [("R", "XY"), ("T", "XZ")], [SimpleFD("R", 1, 2)])
    out = fd_extend(c)
    assert out.body == (Atom("R", ("X", "Y")), Atom("T+Y", ("X", "Z", "Y")))
    assert out.view_of("T+Y") == ExtendView(BaseView("T", 2), 0, BaseView("R", 2), 0, 1)


def test_fd_extend_view_rows_do_the_lookup():
    c = cq("Q", "XYZ", [("R", "XY"), ("T", "XZ")], [SimpleFD("R", 1, 2)])
    out = fd_extend(c)
    data = {"R": {(1, 10), (2, 20)}, "T": {(1, 7), (2, 8), (3, 9)}}
    rows = out.view_of("T+Y").rows(data)
    assert set(rows) == {(1, 7, 10), (2, 8, 20)}  # x=3 has no key row, drops out


def test_fd_extend_composes_chained_keys():
    # Z determines A (through R), A determines B (through S).  U(Z) must
    # end up carrying both A and B; B arrives through a composed lookup.
    c = cq(
        "Q",
        "ZAB",
        [("R", "ZA"), ("S", "AB"), ("U", "Z")],
        [SimpleFD("R", 1, 2), SimpleFD("S", 1, 2)],
    )
    out = fd_extend(c)
    by_symbol = {a.symbol: a for a in out.body}
    assert by_symbol["R+B"].vars == ("Z", "A", "B")
    assert by_symbol["U+A+B"].vars == ("Z", "A", "B")
    data = {"R": {(1, 5), (2, 6)}, "S": {(5, 50), (6, 60)}, "U": {(1,), (2,), (3,)}}
    assert set(out.view_of("U+A+B").rows(data)) == {(1, 5, 50), (2, 6, 60)}


def test_fd_extend_key_chain_builds_the_wide_relation():
    out = fd_extend(key_chain_query(with_fds=True))
    widest = max(out.body, key=lambda a: len(a.vars))
    assert set(widest.vars) == {"X", "Y1", "Y2", "Y3", "Z"}
    assert out.view_of(widest.symbol).root == "R1"


# ------------------------------------------------------ drop_repeated_vars

def test_drop_repeated_vars_filters_and_narrows():
    c = cq("Q", "X", [("R", "XX")])
    out = drop_repeated_vars(c)
    assert out.body == (Atom("R=", ("X",)),)
    view = out.view_of("R=")
    assert view == KeepView(FilterView(BaseView("R", 2), 0, 1), (0,))
    assert set(view.rows({"R": {(1, 1), (1, 2), (3, 3)}})) == {(1,), (3,)}


def test_drop_repeated_vars_handles_multiple_repeats():
    c = cq("Q", ("X", "Y"), [("R", ("X", "X", "Y", "X"))])
    out = drop_repeated_vars(c)
    (atom,) = out.body
    assert atom.vars == ("X", "Y")
    view = out.view_of(atom.symbol)
    data = {"R": {(1, 1, 9, 1), (1, 2, 9, 1), (2, 2, 7, 2)}}
    assert set(view.rows(data)) == {(1, 9), (2, 7)}


def test_drop_repeated_vars_no_op_on_distinct_vars():
    c = star_query()
    assert drop_repeated_vars(c) == c


# -------------------------------------------------------- project_to_head

def test_project_to_head_drops_headless_atoms_and_projects():
    c = cq("Q", "A", [("R", "AB"), ("S", "B")])
    hj = project_to_head(c)
    assert len(hj.hypergraph.edges) == 1  # S shares no head variable
    assert hj.roots == ("R",)
    q = hj.bind({"R": {(1, 2), (3, 4)}, "S": {(2,)}})
    assert set(q.relations[0].rows) == {(1,), (3,)}


@pytest.mark.parametrize("rows", [{(1, 2, 3)}, {(2,)}], ids=["wider", "narrower"])
def test_bind_and_evaluate_reject_rows_of_the_wrong_width(rows):
    # Q(Y) :- R(X,Y), S(Y) projects R to its second column, so a 3-column
    # R would silently lose a column and a 1-column R would be indexed out
    # of range; both are schema errors where the stored rows enter.
    c = cq("Q", "Y", [("R", "XY"), ("S", "Y")])
    data = {"R": rows, "S": {(2,)}}
    with pytest.raises(SchemaError, match="'R'"):
        project_to_head(normalize(c)).bind(data)
    with pytest.raises(SchemaError, match="'R'"):
        evaluate_cq(c, data)


def test_project_to_head_empty_head_is_a_boolean_query():
    c = cq("Q", "", [("R", "AB")])
    assert project_to_head(c) is None


def test_project_to_head_rejects_repeated_vars_in_atoms():
    c = cq("Q", "X", [("R", "XX")])
    with pytest.raises(SchemaError):
        project_to_head(c)


def test_projected_join_contains_the_head_tuples():
    rng = random.Random(5)
    c = cq("Q", "AC", [("R", "AB"), ("S", "BC"), ("T", "AC")])
    data = {
        s: {(rng.randrange(4), rng.randrange(4)) for _ in range(8)}
        for s in ("R", "S", "T")
    }
    want = evaluate_cq(c, data)
    from agmjoin import oracle_join

    hj = project_to_head(c)
    got = {t for t in oracle_join(hj.bind(data)).rows}
    assert want <= got


# ----------------------------------------------------------- cq_bound

N = 16
LOG_N = Fraction(4)


def test_bound_star_query():
    rep = cq_bound(star_query(), {"R": N, "S": N, "T": N})
    assert rep.log2_bound == LOG_N


def test_bound_loop_endpoints_query():
    rep = cq_bound(loop_endpoints_query(), {"R": N, "S": N, "T": N})
    assert rep.log2_bound == LOG_N


def test_bound_repeated_symbol_query_with_and_without_the_key():
    sizes = {"R": N, "S": N}
    assert cq_bound(repeated_symbol_query(False), sizes).log2_bound == 2 * LOG_N
    assert cq_bound(repeated_symbol_query(True), sizes).log2_bound == LOG_N


def test_cq_bound_rejects_an_empty_table_size():
    q = parse_query_text("Q(A,B,C) :- R0(A,B), R1(B,C), R2(A,C).")
    with pytest.raises(MalformedCoverError):
        cq_bound(q, {"R0": 0, "R1": 4, "R2": 4})


def test_bound_key_chain_with_and_without_keys():
    sizes = {f"R{i}": N for i in (1, 2, 3)} | {"S": N}
    assert cq_bound(key_chain_query(False), sizes).log2_bound == 3 * LOG_N
    assert cq_bound(key_chain_query(True), sizes).log2_bound == LOG_N


def test_bound_empty_head_is_one():
    rep = cq_bound(cq("Q", "", [("R", "AB")]), {"R": 100})
    assert rep.log2_bound == Fraction(0)
    assert rep.bound == 1.0


def test_bound_missing_size_is_a_schema_error():
    with pytest.raises(SchemaError):
        cq_bound(star_query(), {"R": N, "S": N})


# --------------------------------------------------------- evaluate_cq

def test_evaluate_honors_repeated_variables():
    c = cq("Q", "X", [("R", "XX")])
    assert evaluate_cq(c, {"R": {(1, 1), (1, 2)}}) == {(1,)}


def test_evaluate_empty_head():
    c = cq("Q", "", [("R", "A")])
    assert evaluate_cq(c, {"R": {(1,)}}) == {()}
    assert evaluate_cq(c, {"R": set()}) == frozenset()


def test_evaluate_rejects_arity_mismatch():
    c = cq("Q", "A", [("R", "AB")])
    with pytest.raises(SchemaError):
        evaluate_cq(c, {"R": {(1, 2, 3)}})


def test_evaluate_repeats_head_variables():
    c = cq("Q", "AA", [("R", "AB")])
    assert evaluate_cq(c, {"R": {(1, 2)}}) == {(1, 1)}


# ------------------------------------------- the pipeline as a whole

def key_respecting_rows(rng, arity, positions, n, domain):
    """Random rows satisfying source->target at the given 0-based positions."""
    maps = {p: {} for p in positions}
    rows = set()
    for _ in range(n):
        t = [rng.randrange(domain) for _ in range(arity)]
        for (s, d), table in maps.items():
            t[d] = table.setdefault(t[s], t[d])
        rows.add(tuple(t))
    return rows


PIPELINE_QUERIES = [
    star_query(),
    loop_endpoints_query(),
    repeated_symbol_query(False),
    repeated_symbol_query(True),
    key_chain_query(False),
    key_chain_query(True),
    cq("Q", "ZAB", [("R", "ZA"), ("S", "AB"), ("U", "Z")],
       [SimpleFD("R", 1, 2), SimpleFD("S", 1, 2)]),
    cq("Q", "", [("R", "AB"), ("S", "BC")]),
]


def dataset_for(c, rng):
    arities = {a.symbol: len(a.vars) for a in c.body}
    by_symbol = {}
    for fd in c.fds:
        by_symbol.setdefault(fd.symbol, []).append((fd.source - 1, fd.target - 1))
    return {
        sym: key_respecting_rows(rng, ar, by_symbol.get(sym, []), rng.randint(0, 12), 5)
        for sym, ar in arities.items()
    }


@pytest.mark.parametrize("qi", range(len(PIPELINE_QUERIES)))
def test_each_stage_preserves_the_output(qi):
    c = PIPELINE_QUERIES[qi]
    rng = random.Random(qi * 977 + 3)
    for _ in range(25):
        data = dataset_for(c, rng)
        want = evaluate_cq(c, data)
        stage = c
        for f in (chase, fd_extend, drop_repeated_vars):
            stage = f(stage)
            assert evaluate_cq(stage, data) == want, f.__name__
        hj = project_to_head(stage)
        if hj is None:
            continue
        from agmjoin import oracle_join

        joined = oracle_join(hj.bind(data))
        pos = {a.name: i for i, a in enumerate(joined.schema)}
        # Read off the stage's head: chase may have renamed variables
        # (consistently in head and body, so the tuples line up).
        head = {tuple(t[pos[v]] for v in stage.head.vars) for t in joined.rows}
        assert want <= head  # the projection stage only relaxes


@pytest.mark.parametrize("qi", range(len(PIPELINE_QUERIES)))
def test_output_never_exceeds_the_bound(qi):
    c = PIPELINE_QUERIES[qi]
    rng = random.Random(qi * 31 + 7)
    for _ in range(15):
        data = dataset_for(c, rng)
        sizes = {sym: max(1, len(rows)) for sym, rows in data.items()}
        rep = cq_bound(c, sizes)
        assert len(evaluate_cq(c, data)) <= math.ceil(float(rep.bound)) + 1e-9
