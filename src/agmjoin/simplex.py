"""Exact dual simplex over rationals, sized for tiny cover programs.

Everything is a ``fractions.Fraction``: feasibility and optimality are
decided exactly, never by epsilon.  Bland's smallest-index rule keeps
the pivoting finite (Bland, Math. Oper. Res. 1977).  The cover programs
this package solves have a handful of variables, so a dense tableau is
the right tool.

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
from typing import Sequence

from .errors import AgmJoinError

Vector = tuple[Fraction, ...]


class InfeasibleProgramError(AgmJoinError):
    """No point satisfies the constraints."""


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  s.t.  ge_rows: a.x >= b,  x >= 0, with every cost c_j >= 0."""

    c: Vector
    ge_rows: tuple[tuple[Vector, Fraction], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.c)
        if any(cj < 0 for cj in self.c):
            raise ValueError("costs must be non-negative")
        for a, _ in self.ge_rows:
            if len(a) != n:
                raise ValueError(f"row width {len(a)} != {n} variables")


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


def _run_simplex(rows: list[list[Fraction]], obj: list[Fraction], basis: list[int], ncols: int) -> None:
    """Primal simplex, Bland's rule: enter lowest negative-reduced-cost column.

    Only unit costs are minimised here, and they are bounded below by 0,
    so some row always limits the step.
    """
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return
        leave = min((i for i, row in enumerate(rows) if row[enter] > 0),
                    key=lambda i: (rows[i][-1] / rows[i][enter], basis[i]))
        _pivot(rows, obj, basis, leave, enter)


def _price(rows: list[list[Fraction]], basis: list[int], cost: Sequence[Fraction]) -> list[Fraction]:
    """The objective row of ``cost`` (one entry per column) for this basis."""
    obj = list(cost) + [Fraction(0)]
    for i, row in enumerate(rows):
        cb = cost[basis[i]]
        if cb:
            obj = [v - cb * w if w else v for v, w in zip(obj, row)]
    return obj


def _solve(lp: LinearProgram) -> tuple[list[list[Fraction]], list[int], list[Fraction]]:
    """Dual simplex from the surplus basis: an optimal tableau (rows, basis, objective row).

    Columns are the n variables, then one surplus per row, then the
    right-hand side; every row has one basic column.  Row k starts as
    -a_k.x + s_k = -b_k with s_k basic and the objective row is c, which
    is dual feasible because c >= 0.  Each pivot keeps every reduced cost
    >= 0; the tableau is optimal once no right-hand side is negative.
    """
    n = len(lp.c)
    m = len(lp.ge_rows)
    rows = [[-v for v in a] + [Fraction(j == k) for j in range(m)] + [-b]
            for k, (a, b) in enumerate(lp.ge_rows)]
    basis = [n + k for k in range(m)]
    obj = list(lp.c) + [Fraction(0)] * (m + 1)
    while True:
        # Bland: of the rows with a negative right-hand side, the lowest basic column leaves
        infeasible = [i for i, row in enumerate(rows) if row[-1] < 0]
        if not infeasible:
            return rows, basis, obj
        r = min(infeasible, key=basis.__getitem__)
        row = rows[r]
        cols = [j for j in range(n + m) if row[j] < 0]
        if not cols:  # no entry < 0, so over x, s >= 0 the row cannot sum to its rhs < 0
            raise InfeasibleProgramError(f"row {r} has a negative right-hand side and no negative entry")
        # the least ratio keeps every reduced cost >= 0; min() takes the lowest j on ties
        _pivot(rows, obj, basis, r, min(cols, key=lambda j: obj[j] / -row[j]))


def minimize(lp: LinearProgram) -> tuple[Fraction, Vector]:
    """Solve the program, returning (optimal value, a basic optimal point)."""
    n = len(lp.c)
    rows, basis, obj = _solve(lp)
    x = [Fraction(0)] * (n + len(lp.ge_rows))
    for i, row in enumerate(rows):
        x[basis[i]] = row[-1]
    return -obj[-1], tuple(x[:n])


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
    zero = Fraction(0)
    rows, basis, obj = _solve(lp)
    value = -obj[-1]
    cols = list(range(n + len(lp.ge_rows)))  # the variable behind each column
    for i in range(n):
        # reduced costs are >= 0 here; a positive one pins its variable to 0
        keep = [j for j in range(len(cols)) if obj[j] == 0]
        if len(keep) < len(cols):
            at = {j: k for k, j in enumerate(keep)}
            rows = [[row[j] for j in keep] + [row[-1]] for row in rows]
            basis = [at[j] for j in basis]
            cols = [cols[j] for j in keep]
        obj = _price(rows, basis, [Fraction(1) if v == i else zero for v in cols])
        _run_simplex(rows, obj, basis, len(cols))
    x = [zero] * n
    for r, j in enumerate(basis):
        if cols[j] < n:
            x[cols[j]] = rows[r][-1]
    return value, tuple(x)
