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
for.  The cover programs this package solves have a handful of
variables, so a dense tableau is the right tool.  Costs are never
negative, so the all-surplus basis is dual feasible: no phase 1.

``minimize`` returns the lex-least optimum, by the lexicographic ratio
rule (Dantzig, Orden and Wolfe, Pacific J. Math. 1955): columns that
tie on c's ratio are compared on their ratios for the cost x_0, then
x_1, and so on.  That is the dual simplex on c + eps e_0 + eps^2 e_1 +
... for an infinitesimal eps > 0, for which the surplus basis is dual
feasible too.  Bland's smallest-index rule picks the leaving row and
breaks the ties left after x_(n-1) (surplus columns only), so the loop
is finite (Bland, Math. Oper. Res. 1977, over the ordered field of
polynomials in eps).  It ends optimal for c at the point that
minimizes x_0 among c's optima, then x_1, and so on, which is unique.
x_i's reduced cost at column j is read off the tableau, as ``den`` at
j == i less the entry at j of the row where x_i is basic, and only on
a tie: rows kept for it would cost every pivot.
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


def _lex_costs(rows: list[list[int]], where: dict[int, int], den: int, n: int, j: int, f: int) -> list[int]:
    """f * den * the reduced costs of x_0 .. x_(n-1) at column j; ``where`` maps basic columns to rows."""
    return [((den if j == i else 0) - (rows[where[i]][j] if i in where else 0)) * f for i in range(n)]


def minimize(lp: LinearProgram) -> tuple[Fraction, Vector]:
    """Dual simplex from the surplus basis: (optimal value, lex-least optimal point).

    Columns are the n variables, then one surplus per row, then the
    right-hand side; every row has one basic column.  Row k starts as
    -a_k.x + s_k = -b_k with s_k basic and the objective row is c, which
    is dual feasible because c >= 0.  Each pivot keeps every reduced
    cost >= 0; the tableau is optimal once no right-hand side is
    negative.  Ratio ties go by the lexicographic rule of the module
    docstring, so the point is the lex-least optimum, a basic one.
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
    while infeasible := [i for i, row in enumerate(rows) if row[-1] < 0]:
        # Bland: of the rows with a negative right-hand side, the lowest basic column leaves
        r = min(infeasible, key=basis.__getitem__)
        row = rows[r]
        # the least ratio obj[j] / -row[j] keeps every reduced cost >= 0; a tie
        # goes to the least ratios for x_0, x_1, ...
        enter = -1
        where = None  # basic column -> row, built at this pivot's first tie
        for j in range(n + m):
            a = row[j]
            if a >= 0:
                continue
            if enter >= 0:
                e = row[enter]
                u, v = obj[j] * e, obj[enter] * a
                if u == v:
                    where = where or {b: i for i, b in enumerate(basis)}
                    u, v = _lex_costs(rows, where, den, n, j, e), _lex_costs(rows, where, den, n, enter, a)
                if u <= v:
                    continue
            enter = j
        if enter < 0:  # no entry < 0, so over x, s >= 0 the row cannot sum to its rhs < 0
            raise InfeasibleProgramError(f"row {r} has a negative right-hand side and no negative entry")
        den = _pivot(rows, obj, basis, r, enter, den)
    x = [Fraction(0)] * n
    for row, j in zip(rows, basis):
        if j < n:
            x[j] = Fraction(row[-1], den)
    return Fraction(-obj[-1], den * cs), tuple(x)
