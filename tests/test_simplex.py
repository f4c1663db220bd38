"""The exact simplex: typed failures, equalities as row pairs, and the lex-least optimum.

An earlier implementation is kept here as the reference.
``fraction_minimize`` is the dual simplex on a tableau of
``fractions.Fraction`` entries, its ratio ties kept by the lowest
column.  ``lexmin_minimize`` re-solves the program with
``fraction_minimize`` from scratch once per coordinate, each time
pinning one more optimal value as an equality (a pair of >= rows).  It
is slow but plainly correct, and ``agmjoin.simplex.minimize``, one dual
simplex with the lexicographic ratio test over an integer tableau, must
return exactly what it returns.  ``HYPOTHESIS_PROFILE=deep`` runs each
property on 2,000 programs.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from agmjoin.bounds import log2_fraction
from agmjoin.simplex import (
    InfeasibleProgramError,
    LinearProgram,
    Vector,
    minimize,
)

F = Fraction


def _eq_rows(a: Vector, b: Fraction) -> tuple[tuple[Vector, Fraction], ...]:
    """The equality a.x == b as the two rows a.x >= b and -a.x >= -b."""
    return ((tuple(a), b), (tuple(-v for v in a), -b))


def _with_eq(lp: LinearProgram, a: Vector, b: Fraction) -> LinearProgram:
    """``lp`` with the equality a.x == b appended."""
    return LinearProgram(lp.c, lp.ge_rows + _eq_rows(a, b))


def _pivot(rows: list[list[Fraction]], obj: list[Fraction], basis: list[int], r: int, col: int) -> None:
    piv = rows[r][col]
    if piv != 1:
        rows[r] = [v / piv if v else v for v in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[col]:
            f = row[col]
            rows[i] = [v - f * w if w else v for v, w in zip(row, prow)]
    if obj[col]:
        f = obj[col]
        obj[:] = [v - f * w if w else v for v, w in zip(obj, prow)]
    basis[r] = col


def _solve(lp: LinearProgram) -> tuple[list[list[Fraction]], list[int], list[Fraction]]:
    """Dual simplex from the surplus basis on a Fraction tableau, Bland's rule."""
    n = len(lp.c)
    m = len(lp.ge_rows)
    rows = [[F(-v) for v in a] + [F(j == k) for j in range(m)] + [F(-b)]
            for k, (a, b) in enumerate(lp.ge_rows)]
    basis = [n + k for k in range(m)]
    obj = [F(cj) for cj in lp.c] + [F(0)] * (m + 1)
    while True:
        infeasible = [i for i, row in enumerate(rows) if row[-1] < 0]
        if not infeasible:
            return rows, basis, obj
        r = min(infeasible, key=basis.__getitem__)
        row = rows[r]
        cols = [j for j in range(n + m) if row[j] < 0]
        if not cols:
            raise InfeasibleProgramError(f"row {r} has a negative right-hand side and no negative entry")
        _pivot(rows, obj, basis, r, min(cols, key=lambda j: obj[j] / -row[j]))


def fraction_minimize(lp: LinearProgram) -> tuple[Fraction, Vector]:
    """(optimal value, basic optimal point) from the Fraction tableau."""
    n = len(lp.c)
    rows, basis, obj = _solve(lp)
    x = [F(0)] * (n + len(lp.ge_rows))
    for i, row in enumerate(rows):
        x[basis[i]] = row[-1]
    return -obj[-1], tuple(x[:n])


def lexmin_minimize(lp: LinearProgram) -> tuple[Fraction, Vector]:
    """Optimal value plus the lexicographically smallest optimal point.

    Refines coordinate by coordinate: pin the optimal value, minimize
    x0, pin it, minimize x1, and so on.  The final point is the unique
    lex-least optimum, which is always a vertex.
    """
    n = len(lp.c)
    zero = Fraction(0)
    value, _ = fraction_minimize(lp)
    cur = _with_eq(lp, lp.c, value)
    pins: list[Fraction] = []
    for i in range(n):
        e = tuple(Fraction(1) if j == i else zero for j in range(n))
        cur_lp = LinearProgram(e, cur.ge_rows)
        vi, _ = fraction_minimize(cur_lp)
        pins.append(vi)
        cur = _with_eq(cur, e, vi)
    return value, tuple(pins)


def _vec(*vs) -> Vector:
    return tuple(F(v) for v in vs)


def _cover_lp(nv: int, edges, sizes) -> LinearProgram:
    """The program min_cover_lp solves: every vertex gathers weight >= 1."""
    c = tuple(log2_fraction(n) for n in sizes)
    ge = tuple((tuple(F(v in e) for e in edges), F(1)) for v in range(nv))
    return LinearProgram(c, ge)


# ------------------------------------------------------------ minimize


def test_minimize_raises_on_an_infeasible_program():
    # x0 >= 2 and -x0 >= -1
    lp = LinearProgram(_vec(1), ((_vec(1), F(2)), (_vec(-1), F(-1))))
    with pytest.raises(InfeasibleProgramError):
        minimize(lp)


def test_linear_program_rejects_a_negative_cost():
    # with c >= 0 no program is unbounded, and the surplus basis is dual feasible
    with pytest.raises(ValueError):
        LinearProgram(_vec(-1, 0), ((_vec(1, 1), F(1)),))


def test_minimize_solves_equality_rows():
    # x0 + 2 x1 == 4, x0 - x1 == 1  ->  x = (2, 1)
    lp = LinearProgram(_vec(1, 1), _eq_rows(_vec(1, 2), F(4)) + _eq_rows(_vec(1, -1), F(1)))
    assert minimize(lp) == (F(3), _vec(2, 1))


def test_minimize_flips_a_negative_right_hand_side():
    # -x0 - x1 == -3, x0 >= 1, minimize 2 x0 + x1  ->  x = (1, 2)
    lp = LinearProgram(_vec(2, 1), ((_vec(1, 0), F(1)),) + _eq_rows(_vec(-1, -1), F(-3)))
    assert minimize(lp) == (F(4), _vec(1, 2))


def test_minimize_drops_a_redundant_equality_row():
    lp = LinearProgram(_vec(1, 2), _eq_rows(_vec(1, 1), F(2)) + _eq_rows(_vec(2, 2), F(4)))
    assert minimize(lp) == (F(2), _vec(2, 0))


def test_minimize_rejects_a_row_of_the_wrong_width():
    with pytest.raises(ValueError):
        LinearProgram(_vec(1, 1), ((_vec(1), F(1)),))


# ----------------------------------------------------- lex-least optimum


def test_lexmin_breaks_a_zero_cost_tie_lexicographically():
    # the triangle with every size 1: every cover is optimal (value 0);
    # x0 = 0 forces x1 = 1 (for B) and then x2 = 1 (for A)
    lp = _cover_lp(3, [(0, 1), (1, 2), (0, 2)], [1, 1, 1])
    assert minimize(lp) == (F(0), _vec(0, 1, 1))


def test_lexmin_picks_the_least_of_two_optimal_vertices():
    # equal sizes on the 4-cycle: (1,0,1,0) and (0,1,0,1) both cost 2 log N
    lp = _cover_lp(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [8, 8, 8, 8])
    assert minimize(lp) == (F(6), _vec(0, 1, 0, 1))


def test_lexmin_keeps_the_minimize_value():
    lp = _cover_lp(3, [(0, 1), (1, 2), (0, 2)], [12345, 17, 10**12 + 7])
    value, x = minimize(lp)
    assert value == fraction_minimize(lp)[0]
    assert value == sum(ci * xi for ci, xi in zip(lp.c, x))


SIZES = st.one_of(
    st.sampled_from([1, 2, 3, 4, 8, 16, 17, 100, 1000, 2**20, 12345, 10**12 + 7, 2**41 + 3]),
    st.integers(1, 64),
    st.integers(2**40, 2**50),
)


@st.composite
def cover_programs(draw):
    nv = draw(st.integers(1, 6))
    ne = draw(st.integers(1, 8))
    vertex_sets = st.sets(st.integers(0, nv - 1), min_size=1)
    edges = draw(st.lists(vertex_sets, min_size=ne, max_size=ne))
    for v in range(nv):  # every vertex in some edge, or there is no cover
        if not any(v in e for e in edges):
            edges[draw(st.integers(0, ne - 1))].add(v)
    sizes = draw(st.lists(SIZES, min_size=ne, max_size=ne))
    return _cover_lp(nv, edges, sizes)


# the most degenerate programs, with more edges than the strategy draws:
# K6 with every size 1 (every cost 0, so every dual ratio ties), one edge
# three times over, and the 6-cycle with equal sizes
@given(cover_programs())
@example(_cover_lp(6, [(u, v) for u in range(6) for v in range(u + 1, 6)], [1] * 15))
@example(_cover_lp(2, [(0, 1)] * 3, [8, 8, 8]))
@example(_cover_lp(6, [(v, (v + 1) % 6) for v in range(6)], [1000] * 6))
def test_lexmin_matches_the_reference_on_cover_programs(lp):
    assert minimize(lp) == lexmin_minimize(lp)


SMALL = st.integers(-3, 3).map(F)
COST = st.integers(0, 3).map(F)


@st.composite
def general_programs(draw):
    n = draw(st.integers(1, 4))
    row = st.tuples(st.tuples(*[SMALL] * n), SMALL)
    c = draw(st.tuples(*[COST] * n))
    ge = draw(st.lists(row, min_size=0, max_size=3))
    eq = draw(st.lists(row, min_size=0, max_size=2))
    return LinearProgram(c, tuple(ge) + sum((_eq_rows(a, b) for a, b in eq), ()))


def _outcome(solve, lp):
    try:
        return solve(lp)
    except InfeasibleProgramError:
        return InfeasibleProgramError


@given(general_programs())
def test_lexmin_matches_the_reference_on_general_programs(lp):
    """Zero costs, negative right-hand sides, equalities, infeasibility."""
    assert _outcome(minimize, lp) == _outcome(lexmin_minimize, lp)


# denominators 1-6 make the integer tableau scale its rows; ints ride along
FRACTION = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
ENTRY = st.one_of(st.integers(-3, 3), FRACTION)
COST_ENTRY = st.one_of(st.integers(0, 3), st.builds(F, st.integers(0, 6), st.integers(1, 6)))


@st.composite
def fractional_programs(draw):
    n = draw(st.integers(1, 4))
    row = st.tuples(st.tuples(*[ENTRY] * n), ENTRY)
    c = draw(st.tuples(*[COST_ENTRY] * n))
    ge = draw(st.lists(row, min_size=0, max_size=4))
    eq = draw(st.lists(row, min_size=0, max_size=2))
    return LinearProgram(c, tuple(ge) + sum((_eq_rows(a, b) for a, b in eq), ()))


def _is_exact(outcome) -> bool:
    """An InfeasibleProgramError, or a value and point made of Fractions only."""
    if outcome is InfeasibleProgramError:
        return True
    value, x = outcome
    return all(type(v) is F for v in (value, *x))


# x0/2 + x1/3 >= 5/6 and x0/3 + x1/2 >= 5/6 with x0 - x1 == -1/6: the
# optimum (14/15, 11/10) has the first row tight; x0/4 >= 1/3 against
# -x0/6 >= -1/6 (x0 <= 1) is infeasible
@given(fractional_programs())
@example(LinearProgram((F(1, 6), F(5, 6)), (((F(1, 2), F(1, 3)), F(5, 6)),
                                           ((F(1, 3), F(1, 2)), F(5, 6)))
                       + _eq_rows((F(1), F(-1)), F(-1, 6))))
@example(LinearProgram((F(1),), (((F(1, 4),), F(1, 3)), ((F(-1, 6),), F(-1, 6)))))
def test_integer_tableau_matches_the_fraction_tableau(lp):
    """Same optimal value and lex-least point as the Fraction tableau's
    reference, or both infeasible."""
    got = _outcome(minimize, lp)
    assert _is_exact(got)
    assert got == _outcome(lexmin_minimize, lp)


@pytest.mark.parametrize("lp_args", [
    ((0.5,), (((1,), 1),)),  # a float cost
    ((1,), (((1.0,), 1),)),  # a float row entry
    ((1,), (((1,), 0.5),)),  # a float right-hand side
    ((1,), ((("1",), 1),)),  # not a number
])
def test_linear_program_rejects_entries_that_are_not_int_or_fraction(lp_args):
    # the solver is exact; a float has already been rounded
    with pytest.raises(ValueError):
        LinearProgram(*lp_args)
