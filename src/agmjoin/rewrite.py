"""Conjunctive queries with key-style dependencies, normalized to joins.

A conjunctive query may repeat relation symbols, repeat variables inside
an atom, and project its head down to a subset of the variables — three
things the natural-join machinery in the rest of the package cannot see.
This module rewrites such a query, stage by stage, into a plain natural
join over derived relations:

    chase              unify variables forced equal by the dependencies
    fd_extend          widen atoms with columns determined through a key
    drop_repeated_vars filter + narrow atoms that repeat a variable
    project_to_head    keep only head variables, yielding a join query

Each derived symbol carries a :class:`View`: a small recipe that
materializes its rows from the base tables.  Views are how a "fictitious"
wide relation exists without copying data — an extension step is a lookup
through the atom that defines the dependency, so the derived relation
can never hold more rows than the relation it started from.  That is
also why the LP sizing of a derived symbol is its root base table's size.

Each occurrence of a repeated symbol is its own hyperedge with its own
view, so repeated symbols need no stage of their own.

The first three stages preserve the query's output exactly (on instances
that satisfy the declared dependencies).  The final projection stage is
a relaxation: the join of the projected atoms contains the head tuples,
so its bound — :func:`cq_bound` — is a sound output-size bound for the
original query.  Projected onto every body variable instead, the last
stage relaxes nothing: its :class:`HeadJoin` is the full join that
``agmjoin run`` binds to file data and evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

from .bounds import BoundReport, FractionalCover, min_cover_lp
from .errors import SchemaError
from .relational import Hypergraph, JoinQuery, Relation, Row, _columns, make_attrs


class Atom(NamedTuple):
    """One body conjunct: a relation symbol applied to variables."""

    symbol: str
    vars: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.symbol}({','.join(self.vars)})"


@dataclass(frozen=True)
class SimpleFD:
    """Position ``source`` of ``symbol`` determines position ``target`` (1-based)."""

    symbol: str
    source: int
    target: int

    def __post_init__(self) -> None:
        if self.source < 1 or self.target < 1:
            raise SchemaError(f"dependency positions are 1-based: {self}")
        if self.source == self.target:
            raise SchemaError(f"dependency {self} maps a position to itself")

    def __str__(self) -> str:
        return f"{self.symbol}: {self.source} -> {self.target}"


# --------------------------------------------------------------------------
# views: positional row recipes for derived symbols


@dataclass(frozen=True)
class BaseView:
    """Rows of a stored table, as-is.

    Stored rows enter every view chain here, so this is the one place
    their width is checked against the query's ``arity`` for the symbol.
    """

    symbol: str
    arity: int

    @property
    def root(self) -> str:
        return self.symbol

    def rows(self, data: Mapping[str, Iterable[Row]]) -> tuple[Row, ...]:
        if self.symbol not in data:
            raise SchemaError(f"no data bound for symbol {self.symbol!r}")
        rows = tuple(data[self.symbol])
        if set(map(len, rows)) - {self.arity}:
            bad = next(t for t in rows if len(t) != self.arity)
            raise SchemaError(
                f"table {self.symbol!r} holds {len(bad)}-tuples, its atoms want {self.arity}")
        return rows


class _Derived:
    """A view computed from ``inner``, sized by the table ``inner`` starts from."""

    @property
    def root(self) -> str:
        return self.inner.root


@dataclass(frozen=True)
class FilterView(_Derived):
    """Keep rows whose ``left`` and ``right`` columns are equal."""

    inner: "View"
    left: int
    right: int

    def rows(self, data: Mapping[str, Iterable[Row]]) -> tuple[Row, ...]:
        return tuple(t for t in self.inner.rows(data) if t[self.left] == t[self.right])


@dataclass(frozen=True)
class KeepView(_Derived):
    """Project to the given columns, in the given order."""

    inner: "View"
    positions: tuple[int, ...]

    def rows(self, data: Mapping[str, Iterable[Row]]) -> tuple[Row, ...]:
        return tuple(_columns(self.inner.rows(data), self.positions))


@dataclass(frozen=True)
class ExtendView(_Derived):
    """Append one column, looked up through a dependency-defining table.

    For each inner row, the value at column ``source`` is matched against
    column ``table_source`` of ``table``; the corresponding
    ``table_target`` values are appended.  When the data satisfies the
    dependency the lookup is single-valued, so the result has at most as
    many rows as ``inner`` — the derived relation stays small, which is
    what licenses sizing it by ``root`` in the LP.
    """

    inner: "View"
    source: int
    table: "View"
    table_source: int
    table_target: int

    def rows(self, data: Mapping[str, Iterable[Row]]) -> tuple[Row, ...]:
        lookup: dict[int, set[int]] = {}
        for u in self.table.rows(data):
            lookup.setdefault(u[self.table_source], set()).add(u[self.table_target])
        return tuple(
            t + (z,) for t in self.inner.rows(data) for z in lookup.get(t[self.source], ())
        )


View = Union[BaseView, FilterView, KeepView, ExtendView]


# --------------------------------------------------------------------------
# the query type


@dataclass(frozen=True)
class ConjunctiveQuery:
    """head <- conjunction of body atoms, under simple dependencies.

    ``views`` maps derived body symbols to their row recipes; symbols
    not present are stored base tables.  The body is a sequence (the
    same symbol may occur several times), and variables may repeat
    within one atom.
    """

    head: Atom
    body: tuple[Atom, ...]
    fds: tuple[SimpleFD, ...] = ()
    views: Mapping[str, View] = field(default_factory=dict)

    def __post_init__(self) -> None:
        body_vars = {v for a in self.body for v in a.vars}
        missing = [v for v in self.head.vars if v not in body_vars]
        if missing:
            raise SchemaError(f"head variables {missing} never occur in the body")
        arities: dict[str, int] = {}
        for a in self.body:
            seen = arities.setdefault(a.symbol, len(a.vars))
            if seen != len(a.vars):
                raise SchemaError(
                    f"symbol {a.symbol!r} used with arities {seen} and {len(a.vars)}"
                )
        for fd in self.fds:
            arity = arities.get(fd.symbol)
            if arity is not None and max(fd.source, fd.target) > arity:
                raise SchemaError(f"dependency {fd} exceeds arity {arity}")

    def view_of(self, symbol: str) -> View:
        if symbol in self.views:
            return self.views[symbol]
        arity = next((len(a.vars) for a in self.body if a.symbol == symbol), None)
        if arity is None:
            raise SchemaError(f"symbol {symbol!r} does not occur in the body")
        return BaseView(symbol, arity)

    @property
    def variables(self) -> tuple[str, ...]:
        """All variables, in order of first appearance (head first)."""
        out: dict[str, None] = {}
        for v in self.head.vars:
            out[v] = None
        for a in self.body:
            for v in a.vars:
                out[v] = None
        return tuple(out)


def _fresh(base: str, used: set[str]) -> str:
    name = base
    k = 1
    while name in used:
        k += 1
        name = f"{base}{k}"
    used.add(name)
    return name


def _substitute(c: ConjunctiveQuery, old: str, new: str) -> ConjunctiveQuery:
    """Replace variable ``old`` by ``new`` everywhere, collapsing duplicate atoms."""

    def fix(atom: Atom) -> Atom:
        return Atom(atom.symbol, tuple(new if v == old else v for v in atom.vars))

    body = tuple(dict.fromkeys(fix(a) for a in c.body))
    return ConjunctiveQuery(fix(c.head), body, c.fds, c.views)


# --------------------------------------------------------------------------
# stage 1: chase


def chase(c: ConjunctiveQuery) -> ConjunctiveQuery:
    """Unify variables until the dependencies force nothing further.

    Whenever two body atoms over the same symbol share the variable at a
    dependency's source position, their target-position variables name
    the same value and are unified (the lexicographically smaller name
    survives).  One pass over the body finds the next such pair
    (``_next_forced``), so a body no dependency reaches is read once.
    Each step removes a variable, so this terminates; the result is a
    fixed point, the same whichever forced pair goes first.
    """
    fds_by_symbol: dict[str, list[tuple[int, int, int]]] = {}
    for k, fd in enumerate(c.fds):
        fds_by_symbol.setdefault(fd.symbol, []).append((k, fd.source - 1, fd.target - 1))
    while pair := _next_forced(c.body, fds_by_symbol):
        keep, drop = pair
        c = _substitute(c, drop, keep)
    return c


def _next_forced(body: tuple[Atom, ...], fds_by_symbol: Mapping[str, list[tuple[int, int, int]]]
                 ) -> list[str] | None:
    """The first forced pair of distinct variables, sorted, or None: each
    atom files its target variable under (dependency, source variable)."""
    filed: dict[tuple[int, str], str] = {}
    for a in body:
        for k, s, t in fds_by_symbol.get(a.symbol, ()):
            y = filed.setdefault((k, a.vars[s]), a.vars[t])
            if y != a.vars[t]:
                return sorted((y, a.vars[t]))
    return None


# --------------------------------------------------------------------------
# stage 2: widen through dependencies


class _VarFD(NamedTuple):
    """A dependency lifted to variables, with the table that witnesses it."""

    table: View
    width: int
    src_pos: int
    dst_pos: int


def fd_extend(c: ConjunctiveQuery) -> ConjunctiveQuery:
    """Saturate the body: any atom seeing a determining variable also
    carries the determined one.

    Dependencies are first lifted to variables: an atom R(..X..Y..) under
    R: i -> j yields X -> Y.  Variable dependencies are then processed in
    sorted (source, target) order; processing X -> Y widens every atom
    that contains X but not Y by a lookup column (an :class:`ExtendView`
    through the witnessing table), composes pending K -> X into K -> Y,
    and retires X -> Y.  Pairs are never processed twice, so the loop is
    quadratic in the number of variables.
    """
    pending: dict[tuple[str, str], _VarFD] = {}
    for a in c.body:
        for fd in c.fds:
            if fd.symbol != a.symbol:
                continue
            src, dst = a.vars[fd.source - 1], a.vars[fd.target - 1]
            if src != dst:
                pending.setdefault(
                    (src, dst),
                    _VarFD(c.view_of(a.symbol), len(a.vars), fd.source - 1, fd.target - 1),
                )

    body = list(c.body)
    views = dict(c.views)
    used = {a.symbol for a in body} | set(views)
    done: set[tuple[str, str]] = set()

    while pending:
        key = min(pending)
        wit = pending.pop(key)
        src, dst = key
        done.add(key)
        for i, a in enumerate(body):
            if src in a.vars and dst not in a.vars:
                name = _fresh(f"{a.symbol}+{dst}", used)
                views[name] = ExtendView(
                    views.get(a.symbol) or c.view_of(a.symbol),
                    a.vars.index(src),
                    wit.table,
                    wit.src_pos,
                    wit.dst_pos,
                )
                body[i] = Atom(name, a.vars + (dst,))
        for k, s in list(pending):
            if s == src and k != dst and (k, dst) not in done and (k, dst) not in pending:
                prior = pending[(k, s)]
                pending[(k, dst)] = _VarFD(
                    ExtendView(prior.table, prior.dst_pos, wit.table, wit.src_pos, wit.dst_pos),
                    prior.width + 1,
                    prior.src_pos,
                    prior.width,
                )
    return ConjunctiveQuery(c.head, tuple(body), c.fds, views)


# --------------------------------------------------------------------------
# stage 3: distinct variables within every atom


def drop_repeated_vars(c: ConjunctiveQuery) -> ConjunctiveQuery:
    """Replace atoms that repeat a variable by filtered, narrowed views.

    R(X,X) becomes a fresh unary symbol whose view keeps the rows of R
    with equal columns and then drops the duplicate column.
    """
    body = list(c.body)
    views = dict(c.views)
    used = {a.symbol for a in body} | set(views)
    for i, a in enumerate(body):
        if len(set(a.vars)) == len(a.vars):
            continue
        firsts: dict[str, int] = {}
        view = c.view_of(a.symbol)
        for pos, v in enumerate(a.vars):
            if v in firsts:
                view = FilterView(view, firsts[v], pos)
            else:
                firsts[v] = pos
        view = KeepView(view, tuple(firsts.values()))
        name = _fresh(f"{a.symbol}=", used)
        views[name] = view
        body[i] = Atom(name, tuple(firsts))
    return ConjunctiveQuery(c.head, tuple(body), c.fds, views)


# --------------------------------------------------------------------------
# stage 4: restrict to the head


@dataclass(frozen=True)
class HeadJoin:
    """The natural join over head variables that bounds a query's output.

    One edge per contributing body atom, each backed by a view that
    produces exactly that edge's columns (in edge order).  ``roots``
    names, per edge, the stored table whose size bounds the view's
    cardinality — that is the size the LP should use, and ``edge_sizes``
    looks it up.  ``bind`` attaches concrete data, yielding an executable
    :class:`JoinQuery`.

    Taken over every body variable, the same object is the query's full
    join: ``agmjoin run`` binds it and projects the answer to the head.
    """

    hypergraph: Hypergraph
    views: tuple[View, ...]
    roots: tuple[str, ...]

    def edge_sizes(self, sizes: Mapping[str, int]) -> tuple[int, ...]:
        """Each edge's LP size: the size of its root table in ``sizes``."""
        try:
            return tuple(sizes[r] for r in self.roots)
        except KeyError as e:
            raise SchemaError(f"no size given for table {e.args[0]!r}") from None

    def bind(self, data: Mapping[str, Iterable[Row]]) -> JoinQuery:
        """One relation per edge, its view's rows as computed: ``Relation``
        is the one place they are sorted, deduplicated and checked, and a
        row it refuses is reported under the edge's root table."""
        rels = []
        for edge, view, root in zip(self.hypergraph.edges, self.views, self.roots):
            rows = view.rows(data)
            try:
                rels.append(Relation(edge, rows))
            except SchemaError as e:
                raise SchemaError(f"table {root!r}: {e}") from None
        return JoinQuery(self.hypergraph, tuple(rels))


def project_to_head(c: ConjunctiveQuery) -> HeadJoin | None:
    """Project every atom onto the head variables it contains.

    The join of the projections contains the query's head tuples, so its
    size bounds the output.  Atoms sharing no head variable can only
    shrink the output and are dropped.  A query with an empty head is a
    pure emptiness test; there is no join to build and the output size
    is at most one, so ``None`` is returned and callers report 0/1.

    With every body variable in the head nothing is projected away and
    no atom is dropped: the result is the body's full join, which is how
    ``agmjoin run`` binds its data.

    Atoms are expected to carry distinct variables (run the earlier
    stages first); a repeated variable here is an error.
    """
    if not c.head.vars:
        return None
    head_vars = sorted(set(c.head.vars))
    attrs = dict(zip(head_vars, make_attrs(*head_vars)))
    edges = []
    views = []
    roots = []
    for a in c.body:
        if len(set(a.vars)) != len(a.vars):
            raise SchemaError(f"atom {a} repeats a variable; normalize first")
        shared = sorted(v for v in a.vars if v in attrs)
        if not shared:
            continue
        view = c.view_of(a.symbol)
        positions = tuple(a.vars.index(v) for v in shared)
        if positions != tuple(range(len(a.vars))):
            view = KeepView(view, positions)
        edges.append(tuple(attrs[v] for v in shared))
        views.append(view)
        roots.append(view.root)
    hg = Hypergraph(tuple(attrs[v] for v in head_vars), tuple(edges))
    return HeadJoin(hg, tuple(views), tuple(roots))


# --------------------------------------------------------------------------
# the pipeline, end to end


def normalize(c: ConjunctiveQuery) -> ConjunctiveQuery:
    """chase -> fd_extend -> drop_repeated_vars.

    A repeated symbol needs no stage of its own: each body occurrence is
    already its own hyperedge with its own view, and ``fd_extend`` lifts
    every dependency per occurrence.
    """
    return drop_repeated_vars(fd_extend(chase(c)))


def cq_bound(c: ConjunctiveQuery, sizes: Mapping[str, int]) -> BoundReport:
    """Tightest output-size bound for a conjunctive query.

    ``sizes`` maps the stored table symbols to their cardinalities.
    Derived symbols are sized by the table their view chain starts from.
    An empty-head query outputs at most one (empty) tuple, reported as
    an exact bound of 1 with an empty cover.
    """
    hj = project_to_head(normalize(c))
    if hj is None:
        return BoundReport(FractionalCover(()), (), Fraction(0))
    return min_cover_lp(hj.hypergraph, hj.edge_sizes(sizes))


def evaluate_cq(
    c: ConjunctiveQuery, data: Mapping[str, Iterable[Row]]
) -> frozenset[tuple[int, ...]]:
    """Reference evaluation by backtracking over the body atoms.

    Honors repeated variables within atoms and materializes derived
    symbols through their views, so it can check any pipeline stage.
    Returns the set of head tuples; an empty-head query returns
    ``{()}`` when some assignment satisfies the body and ``{}``
    otherwise.

    Nothing in the package calls it.  It stays public as the rewrites'
    reference check, what ``oracle_join`` is to the engines: a caller
    who rewrites a query with ``chase``, ``fd_extend`` or
    ``project_to_head`` can evaluate both forms on the same tables.
    """
    bindings: list[dict[str, int]] = [{}]
    for a in c.body:
        rows = c.view_of(a.symbol).rows(data)
        grown: list[dict[str, int]] = []
        for b in bindings:
            for t in rows:
                new = dict(b)
                for v, x in zip(a.vars, t):
                    if new.setdefault(v, x) != x:
                        break
                else:
                    grown.append(new)
        bindings = grown
        if not bindings:
            break
    return frozenset(tuple(b[v] for v in c.head.vars) for b in bindings)
