"""Set-semantics relations over dictionary-encoded integer values.

Every query fixes a single global attribute order: ascending ``id``.
``make_attrs`` numbers attributes in the order given, and a parsed
query's variables are numbered in sorted-name order (``project_to_head``),
so X10 comes before X2.  Schemas and tuple layouts follow that order
everywhere, so tuples can be compared positionally and output ordering
is plain lexicographic sorting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, islice, product
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import SchemaError

if TYPE_CHECKING:  # trie imports this module
    from .trie import CostMeter

Row = tuple[int, ...]


@dataclass(frozen=True, order=True)
class Attribute:
    """A query variable.  Identity and ordering live in ``id``."""

    id: int
    name: str = field(compare=False)

    def __repr__(self) -> str:  # keep test output readable
        return f"{self.name}#{self.id}"


def make_attrs(*names: str, start: int = 0) -> tuple[Attribute, ...]:
    """Mint attributes with consecutive ids, in the order given."""
    return tuple(Attribute(start + i, n) for i, n in enumerate(names))


def attrs_sorted(attrs: Iterable[Attribute]) -> tuple[Attribute, ...]:
    return tuple(sorted(set(attrs)))


@dataclass(frozen=True)
class Relation:
    """An immutable, duplicate-free relation.

    ``schema`` must already be in global attribute order and ``rows``
    are stored sorted lexicographically, so equality of relations is
    plain structural equality.

    ``Relation(schema, rows)`` walks the rows once: it checks each row's
    width and values (non-negative ints, no bools), and sorts and
    deduplicates them unless they already increase strictly.  Every row
    from outside the package comes in this way.  ``Relation._sorted``
    stores rows without that walk; its caller guarantees that they
    increase strictly and hold values of relations already checked.
    """

    schema: tuple[Attribute, ...]
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        _check_schema(self.schema)
        arity = len(self.schema)
        rows = self.rows
        ordered = True  # strictly increasing, hence sorted and distinct
        prev = None
        for t in rows:
            if len(t) != arity:
                raise SchemaError(f"row {t} does not match arity {arity}")
            for v in t:
                # A bool is an int but is written as True/False, which no parser
                # reads back; a plain int costs one type test before its sign.
                if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)) or v < 0:
                    raise SchemaError(f"row {t} has a non-encodable value")
            if ordered and prev is not None and prev >= t:
                ordered = False
            prev = t
        if not ordered:
            object.__setattr__(self, "rows", tuple(sorted(set(rows))))

    @classmethod
    def _sorted(cls, schema: tuple[Attribute, ...], rows: tuple[Row, ...]) -> Relation:
        """A relation over rows the caller built strictly increasing, each
        of ``len(schema)`` values taken from relations already checked.
        Only the schema is checked; the rows are stored as given."""
        _check_schema(schema)
        r = object.__new__(cls)
        object.__setattr__(r, "schema", schema)
        object.__setattr__(r, "rows", rows)
        return r

    @cached_property
    def _rowset(self) -> frozenset[Row]:
        return frozenset(self.rows)

    @property
    def arity(self) -> int:
        return len(self.schema)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, t: Row) -> bool:
        return t in self._rowset

    def position(self, a: Attribute) -> int:
        try:
            return self.schema.index(a)
        except ValueError:
            raise SchemaError(f"attribute {a} not in schema {self.schema}") from None

    def column(self, a: Attribute) -> tuple[int, ...]:
        """Distinct values of one column, sorted."""
        i = self.position(a)
        return tuple(sorted({t[i] for t in self.rows}))


@dataclass(frozen=True, eq=False)
class Factorised:
    """A join answer that is not flattened: its rows, sorted and distinct,
    as ``blocks`` ``(lefts, rights)``, each the rows ``l + r`` for each l
    in lefts, then each r in rights, one block after another.  A rights
    list that several blocks hold is one object, so a writer renders its
    text once.  ``engine.run_join_factorised`` builds it from values of
    relations already checked; ``size`` is its row count."""

    schema: tuple[Attribute, ...]
    blocks: list[tuple[list[Row], list[Row]]]
    size: int

    @property
    def arity(self) -> int:
        return len(self.schema)

    def __len__(self) -> int:
        return self.size


def _check_schema(schema: tuple[Attribute, ...]) -> None:
    if len(set(schema)) != len(schema):
        raise SchemaError(f"duplicate attribute in schema {schema}")
    if any(schema[i] >= schema[i + 1] for i in range(len(schema) - 1)):
        raise SchemaError(f"schema not in global attribute order: {schema}")


def relation(schema: Sequence[Attribute], rows: Iterable[Sequence[int]]) -> Relation:
    """Build a Relation, permuting columns into global attribute order."""
    schema = tuple(schema)
    order = sorted(range(len(schema)), key=lambda i: schema[i])
    fixed = tuple(schema[i] for i in order)
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)  # walked twice below
    if set(map(len, rows)) - {len(schema)}:
        bad = next(r for r in rows if len(r) != len(schema))
        raise SchemaError(f"row {tuple(bad)} does not match arity {len(schema)}")
    return Relation(fixed, tuple(_columns(rows, order)))


def _columns(rows: Sequence[Sequence[int]], idx: Sequence[int]) -> Iterable[Row]:
    """``tuple(t[i] for i in idx)`` for each row ``t``, built at C level."""
    if len(idx) > 1:
        return map(itemgetter(*idx), rows)
    if idx:
        return zip(map(itemgetter(idx[0]), rows))  # itemgetter(i) alone gives no tuple
    return [()] * len(rows)


@dataclass(frozen=True)
class Hypergraph:
    """Query shape: vertices are attributes, edges are relation schemas."""

    vertices: tuple[Attribute, ...]
    edges: tuple[tuple[Attribute, ...], ...]

    def __post_init__(self) -> None:
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise SchemaError("duplicate vertex")
        covered: set[Attribute] = set()
        for e in self.edges:
            if not e:
                raise SchemaError("empty hyperedge")
            if not set(e) <= vs:
                raise SchemaError(f"edge {e} uses unknown vertices")
            if tuple(sorted(set(e))) != e:
                raise SchemaError(f"edge {e} not sorted in global order")
            covered |= set(e)
        if covered != vs:
            raise SchemaError(f"isolated vertices: {vs - covered}")

    @cached_property
    def _incidence(self) -> dict[Attribute, tuple[int, ...]]:
        """Each vertex's edge indices, ascending, computed once per hypergraph
        in one pass over the edges."""
        incidence: dict[Attribute, list[int]] = {a: [] for a in self.vertices}
        for i, e in enumerate(self.edges):
            for a in e:
                incidence[a].append(i)
        return {a: tuple(ix) for a, ix in incidence.items()}

    def edges_with(self, a: Attribute) -> tuple[int, ...]:
        return self._incidence.get(a, ())


@dataclass(frozen=True)
class JoinQuery:
    """A natural join: one relation bound to each hyperedge."""

    hypergraph: Hypergraph
    relations: tuple[Relation, ...]

    def __post_init__(self) -> None:
        if not self.relations:
            raise SchemaError("a join query needs at least one relation")
        if len(self.relations) != len(self.hypergraph.edges):
            raise SchemaError("one relation per edge required")
        for e, r in zip(self.hypergraph.edges, self.relations):
            if r.schema != e:
                raise SchemaError(f"relation schema {r.schema} does not match edge {e}")

    @property
    def attrs(self) -> tuple[Attribute, ...]:
        return tuple(sorted(self.hypergraph.vertices))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.relations)


def join_query(relations: Sequence[Relation]) -> JoinQuery:
    """Assemble a JoinQuery whose hypergraph is read off the schemas."""
    verts = attrs_sorted(a for r in relations for a in r.schema)
    edges = tuple(r.schema for r in relations)
    return JoinQuery(Hypergraph(verts, edges), tuple(relations))


def active_domains(q: JoinQuery) -> list[set[int]]:
    """Per attribute of ``q.attrs``: the values present in every relation covering it."""
    out = []
    for a in q.attrs:
        cols = [set(r.column(a)) for r in q.relations if a in r.schema]
        out.append(set.intersection(*cols) if cols else set())
    return out


def oracle_join(q: JoinQuery, meter: CostMeter | None = None) -> Relation:
    """Reference join: brute force over the active-domain cross product.

    Deliberately naive so it stays an independent yardstick for every
    other evaluator in the package.  Candidate values for an attribute
    are those present in all relations covering it.  The candidates are
    taken in lexicographic order, 4096 at a time, and each relation in
    turn keeps the candidates whose projection onto its schema is one of
    its rows.  Only ``meter``'s deadline is used: it is checked after
    every 4096 candidates.
    """
    attrs = q.attrs
    domains = [sorted(dom) for dom in active_domains(q)]
    checks = [([attrs.index(a) for a in r.schema], r._rowset.__contains__)
              for r in q.relations]
    out: list[Row] = []
    cands = product(*domains)
    for _ in range(0, math.prod(map(len, domains)), 4096):
        chunk = list(islice(cands, 4096))
        for idx, has in checks:
            chunk = list(compress(chunk, map(has, _columns(chunk, idx))))
        out += chunk
        if meter is not None:
            meter.check_deadline()
    return Relation(attrs, tuple(out))
