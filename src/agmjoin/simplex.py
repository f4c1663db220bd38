"""Exact two-phase simplex over rationals, sized for tiny programs.

Everything is a ``fractions.Fraction``: feasibility and optimality are
decided exactly, never by epsilon.  Bland's rule keeps the pivoting
finite.  The cover programs this package solves have a handful of
variables, so a dense tableau is the right tool.

``minimize`` and ``lexmin_minimize`` share one phase 1.  The lex-least
optimum is refined on that one tableau: phase 2 on the cost vector,
then one warm-started phase-2 pass per coordinate, each over the
previous stage's optimal face (the columns whose reduced cost is zero).
No row is ever appended, so the 45-digit cost coefficients stay in the
objective row and never enter the constraint rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import AgmJoinError

Vector = tuple[Fraction, ...]


class InfeasibleProgramError(AgmJoinError):
    """No point satisfies the constraints."""


class UnboundedProgramError(AgmJoinError):
    """The objective can be pushed below any bound."""


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  s.t.  ge_rows: a.x >= b,  eq_rows: a.x == b,  x >= 0."""

    c: Vector
    ge_rows: tuple[tuple[Vector, Fraction], ...] = ()
    eq_rows: tuple[tuple[Vector, Fraction], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.c)
        for a, _ in self.ge_rows + self.eq_rows:
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
    """Bland's rule: enter lowest negative-reduced-cost column."""
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return
        leave = -1
        best: Fraction | None = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise UnboundedProgramError("no leaving row")
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
    """Phase 1, then phase 2 on ``c``: an optimal tableau (rows, basis, objective row).

    Columns are the n variables, then one surplus per >= row, then the
    right-hand side; every row has one basic column.  Rows that phase 1
    proves redundant are dropped.
    """
    n = len(lp.c)
    nge = len(lp.ge_rows)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    zero = Fraction(0)
    for k, (a, b) in enumerate(lp.ge_rows + lp.eq_rows):
        surplus = [zero] * nge
        if k < nge:
            surplus[k] = Fraction(-1)
        row = list(a) + surplus
        if b < 0:
            row = [-v for v in row]
            b = -b
        rows.append(row)
        rhs.append(b)
    m = len(rows)
    width = n + nge
    # one artificial per row gives the identity starting basis
    for i, row in enumerate(rows):
        row.extend(Fraction(1) if j == i else zero for j in range(m))
        row.append(rhs[i])
    basis = [width + i for i in range(m)]

    # phase 1: minimize the artificial mass
    obj = [zero] * (width + m + 1)
    for i, row in enumerate(rows):
        for j in range(width + m + 1):
            obj[j] -= row[j]
    for i in range(m):
        obj[width + i] += Fraction(1)
    _run_simplex(rows, obj, basis, width + m)
    if -obj[-1] != 0:
        raise InfeasibleProgramError("artificial mass stays positive")
    # drive surviving artificials out of the degenerate basis
    for i in range(m):
        if basis[i] >= width:
            col = next((j for j in range(width) if rows[i][j] != 0), None)
            if col is not None:
                _pivot(rows, obj, basis, i, col)
    live = [i for i in range(m) if basis[i] < width]
    rows = [rows[i][:width] + [rows[i][-1]] for i in live]
    basis = [basis[i] for i in live]

    # phase 2: the real objective, artificial columns gone
    obj = _price(rows, basis, tuple(lp.c) + (zero,) * nge)
    _run_simplex(rows, obj, basis, width)
    return rows, basis, obj


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

    One phase 1, then phase 2 on ``c``; then, for each coordinate i in
    turn, phase 2 on the objective x_i, warm-started from the basis the
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
