"""Exact dual simplex over a fraction-free integer tableau, sized for tiny cover programs.

Feasibility and optimality are decided exactly, never by epsilon, yet
the pivot loop works on Python ints only (Edmonds, J. Res. NBS 1967;
Bareiss, Math. Comp. 1968).  Each constraint row is first scaled by the
lcm of its own denominators, giving an integer matrix.  Every tableau
entry is then stored as ``den`` times its rational value, where ``den``
is |det| of the current basis in that matrix; the objective row carries
one more constant factor, the lcm of the cost denominators.  A pivot on
entry p updates every other row entry v to (p*v - f*w) // den, with f
that row's entry in the pivot column and w the pivot row's entry; the
division is exact by Bareiss's identity, and p becomes the new ``den``
(the pivot row is negated when p < 0, so ``den`` stays positive).
Fractions are made only for the result.

Because ``den`` > 0, every sign test reads the integer's own sign, and
every ratio test compares two quotients by cross-multiplication, so
the tableau takes exactly the pivots of the rational tableau it stands
for.  Bland's smallest-index rule keeps the pivoting finite (Bland,
Math. Oper. Res. 1977).  The cover programs this package solves have a
handful of variables, so a dense tableau is the right tool.

Costs are never negative, so the basis of all surplus columns is dual
feasible from the start: the dual simplex needs no phase 1 and no
artificial columns.  The lex-least optimum is refined on the optimal
tableau it leaves: one warm-started primal pass per coordinate, each
over the previous stage's optimal face (the columns whose reduced cost
is zero).  No row is ever appended, so the 45-digit cost coefficients
stay in the objective row and never enter the constraint rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .errors import AgmJoinError

Vector = tuple[Fraction, ...]


class InfeasibleProgramError(AgmJoinError):
    """No point satisfies the constraints."""


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  s.t.  ge_rows: a.x >= b,  x >= 0, with every cost c_j >= 0.

    Every entry is an ``int`` or a ``Fraction``: the solver is exact, so
    a float, whose value is already rounded, is refused.
    """

    c: Vector
    ge_rows: tuple[tuple[Vector, Fraction], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.c)
        entries = [*self.c, *(v for a, b in self.ge_rows for v in (*a, b))]
        if not all(issubclass(t, (int, Fraction)) for t in set(map(type, entries))):
            raise ValueError("every entry must be an int or a Fraction")
        if any(cj.numerator < 0 for cj in self.c):
            raise ValueError("costs must be non-negative")
        for a, _ in self.ge_rows:
            if len(a) != n:
                raise ValueError(f"row width {len(a)} != {n} variables")


def _pivot(rows: list[list[int]], obj: list[int], basis: list[int], r: int, col: int, den: int) -> int:
    """Pivot on rows[r][col]; returns the new denominator, |rows[r][col]|."""
    prow = rows[r]
    p = prow[col]
    if p < 0:
        prow = rows[r] = [-w for w in prow]
        p = -p
    for i, row in enumerate(rows):
        if i != r:
            rows[i] = _eliminate(row, prow, p, col, den)
    obj[:] = _eliminate(obj, prow, p, col, den)
    basis[r] = col
    return p


def _eliminate(row: list[int], prow: list[int], p: int, col: int, den: int) -> list[int]:
    """``row`` with its ``col`` entry cleared by the pivot row, over the new denominator p."""
    f = row[col]
    if f:
        return [(p * v - f * w) // den for v, w in zip(row, prow)]
    if p == den:
        return row
    return [p * v // den for v in row]


def _run_simplex(rows: list[list[int]], obj: list[int], basis: list[int], ncols: int, den: int) -> int:
    """Primal simplex, Bland's rule: enter lowest negative-reduced-cost column.

    Returns the final denominator.  Only unit costs are minimised here,
    and they are bounded below by 0, so some row always limits the step.
    """
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return den
        # least ratio rhs / entry over positive entries, then the lowest basic column
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0 and (leave < 0 or (row[-1] * rows[leave][enter], basis[i])
                          < (rows[leave][-1] * a, basis[leave])):
                leave = i
        den = _pivot(rows, obj, basis, leave, enter, den)


def _solve(lp: LinearProgram) -> tuple[list[list[int]], list[int], list[int], int, Fraction]:
    """Dual simplex from the surplus basis: an optimal tableau and the optimal value.

    Returns (rows, basis, objective row, den, value).  Columns are the n
    variables, then one surplus per row, then the right-hand side; every
    row has one basic column.  Row k starts as -a_k.x + s_k = -b_k with
    s_k basic and the objective row is c, which is dual feasible because
    c >= 0.  Each pivot keeps every reduced cost >= 0; the tableau is
    optimal once no right-hand side is negative.
    """
    n = len(lp.c)
    m = len(lp.ge_rows)
    # each entry v becomes the int v * den (den is a multiple of v's denominator)
    den = prod(lcm(b.denominator, *(v.denominator for v in a)) for a, b in lp.ge_rows)
    rows = [[-v.numerator * (den // v.denominator) for v in a] + [den if j == k else 0 for j in range(m)]
            + [-b.numerator * (den // b.denominator)]
            for k, (a, b) in enumerate(lp.ge_rows)]
    basis = [n + k for k in range(m)]
    cs = lcm(*(cj.denominator for cj in lp.c))
    obj = [cj.numerator * (cs // cj.denominator) * den for cj in lp.c] + [0] * (m + 1)
    while True:
        # Bland: of the rows with a negative right-hand side, the lowest basic column leaves
        infeasible = [i for i, row in enumerate(rows) if row[-1] < 0]
        if not infeasible:
            return rows, basis, obj, den, Fraction(-obj[-1], den * cs)
        r = min(infeasible, key=basis.__getitem__)
        row = rows[r]
        # the least ratio obj[j] / -row[j] keeps every reduced cost >= 0; ties keep the lowest j
        enter = -1
        for j in range(n + m):
            a = row[j]
            if a < 0 and (enter < 0 or obj[j] * row[enter] > obj[enter] * a):
                enter = j
        if enter < 0:  # no entry < 0, so over x, s >= 0 the row cannot sum to its rhs < 0
            raise InfeasibleProgramError(f"row {r} has a negative right-hand side and no negative entry")
        den = _pivot(rows, obj, basis, r, enter, den)


def minimize(lp: LinearProgram) -> tuple[Fraction, Vector]:
    """Solve the program, returning (optimal value, a basic optimal point)."""
    n = len(lp.c)
    rows, basis, _, den, value = _solve(lp)
    x = [Fraction(0)] * (n + len(lp.ge_rows))
    for i, row in enumerate(rows):
        x[basis[i]] = Fraction(row[-1], den)
    return value, tuple(x[:n])


def lexmin_minimize(lp: LinearProgram) -> tuple[Fraction, Vector]:
    """Optimal value plus the lexicographically smallest optimal point.

    The dual simplex on ``c``; then, for each coordinate i in turn, the
    primal simplex on the objective x_i, warm-started from the basis the
    previous stage ended in.  Between stages every column with a
    strictly positive reduced cost is deleted: by complementary
    slackness that variable is 0 on every optimum of the stage, and the
    remaining columns span exactly the stage's optimal face.  The final
    basic point is the unique lex-least optimum.
    """
    n = len(lp.c)
    rows, basis, obj, den, value = _solve(lp)
    cols = list(range(n + len(lp.ge_rows)))  # the variable behind each column
    for i in range(n):
        # reduced costs are >= 0 here; a positive one pins its variable to 0
        keep = [j for j in range(len(cols)) if obj[j] == 0]
        if len(keep) < len(cols):
            at = {j: k for k, j in enumerate(keep)}
            rows = [[row[j] for j in keep] + [row[-1]] for row in rows]
            basis = [at[j] for j in basis]
            cols = [cols[j] for j in keep]
        # the objective x_i, priced: den * e_i minus the row where x_i is basic
        obj = [den if v == i else 0 for v in cols] + [0]
        for r, j in enumerate(basis):
            if cols[j] == i:
                obj = [u - w for u, w in zip(obj, rows[r])]
        den = _run_simplex(rows, obj, basis, len(cols), den)
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if cols[j] < n:
            x[cols[j]] = Fraction(rows[r][-1], den)
    return value, tuple(x)
