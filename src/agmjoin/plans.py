"""Classical two-way join plans, with intermediate-size accounting.

These are the comparison baselines: binary join trees over the query's
atoms (optionally with projections), evaluated by one post-order loop
(``PlanTree.walk``) on columns.  A run first rank-encodes its bindings:
each attribute gets one sorted active domain, and each column holds its
values' ranks in the narrowest of uint8, uint16 and uint32 that holds
them (int64 past that), so any non-negative integer joins, 2^63 and up
included.  Ranks keep value order, so only the final result is decoded
back to values.  Every intermediate is a tuple of contiguous rank
columns, one per attribute, but a join's left input is never held
whole: it streams through the join in chunks of at most ``_BLOCK``
rows, and the join's output streams on, in chunks of at most ``_BLOCK``
rows, into the next join up the left spine (the pipelining of a
left-deep tree in a Volcano-style engine).  Only a join's right side, a
projection's input and the result are drained to whole columns.  Each
join sorts and keys its right side once.  A left key finds its run of
matches by binary search over the right side's distinct keys, or, once
the join has probed span / 256 rows where its key span fits a slot
table of at most 2 MiB, by direct address: one gather from a table of
key → 1 + run rank, built on demand, so a small left side never builds
one.  On triangle-bad with m=1000 a whole plan run peaks at about 3.1
MiB under tracemalloc, 2 MB of it the last join's slot table, and at
m=3000, whose intermediate is nine times larger, no higher.  What a
spine holds at once is every join's prepared right side (its sorted
right-only columns, distinct keys, run bounds and slot table, if
built), plus, at each join whose output for one input chunk overflows
a chunk, that input chunk's matching rows: a 99-join spine of
65,536-row joins peaks at about 126 MB under tracemalloc, 25 MB of it
the joins' 256 KB slot tables.  So a ``JoinRecord``
counts the rows a join
computed, not rows held at once.  The point of the accounting is the
quantity a plan cannot avoid computing — the cardinality of each
intermediate result — so a run returns a ``PlanTrace``, the tuple of
its ``JoinRecord``s, which reads off each join's output size and the
summed row footprint, not wall-clock time.

``agm_join_project_traced`` runs the one join-project plan that bounds its
intermediates by construction: for k = 1..n, join each relation holding
the k-th attribute, projected onto the first k, left-deep, by the
pairwise plans' executor.  Each level's completed result stays within
the fractional-cover size bound of the full query, at the price of
re-touching each relation once per attribute it holds.  The partial
joins inside a level are not bounded: on triangle-bad with m=1000 one
of them computes 1,003,001 rows against a bound of about 89,500.

numpy is imported by the first plan run, not with the module: the
package imports this module, and a process that runs no plan (the
engines, the oracle, the bounds, ``agmjoin gen``) never pays numpy's
import time or memory.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import PlanError
from .relational import Attribute, JoinQuery, Relation
from .trie import CostMeter

np = None  # bound to numpy by ``_evaluate``, the one import site

_MAX_KEY = 2**63 - 1  # the largest int64
_BLOCK = 1 << 16  # rows per chunk that streams into or out of a join


@dataclass(frozen=True)
class PlanTree:
    """A binary join tree; leaves name query atoms by index.

    Exactly one of ``ref`` (leaf) or ``left``/``right`` (join) is set.
    ``keep`` optionally projects the node's result onto an attribute
    subset before it flows upward.
    """

    ref: int | None = None
    left: "PlanTree | None" = None
    right: "PlanTree | None" = None
    keep: tuple[Attribute, ...] | None = None

    def __post_init__(self) -> None:
        if (self.ref is None) == (self.left is None or self.right is None):
            raise PlanError("a plan node is either a leaf or a binary join")

    @property
    def is_leaf(self) -> bool:
        return self.ref is not None

    def walk(self) -> Iterator[PlanTree]:
        """Every node in post-order: each join after its left and then its
        right subtree.  By loop, as a plan can outgrow the recursion limit."""
        order, todo = [], [self]
        while todo:
            node = todo.pop()
            order.append(node)
            if not node.is_leaf:
                todo += (node.left, node.right)
        return reversed(order)

    def leaf_refs(self) -> list[int]:
        return [n.ref for n in self.walk() if n.is_leaf]

    def has_projection(self) -> bool:
        return any(n.keep is not None for n in self.walk())


def leaf(ref: int, keep: Iterable[Attribute] | None = None) -> PlanTree:
    return PlanTree(ref=ref, keep=None if keep is None else tuple(sorted(set(keep))))


def join(left: PlanTree, right: PlanTree, keep: Iterable[Attribute] | None = None) -> PlanTree:
    return PlanTree(
        left=left, right=right, keep=None if keep is None else tuple(sorted(set(keep)))
    )


class PlanTrace(tuple):
    """What a plan execution touched: its ``JoinRecord``s in execution order."""

    __slots__ = ()

    @property
    def intermediate_sizes(self) -> tuple[tuple[int, int], ...]:
        """(join index, cardinality) of every join."""
        return tuple(enumerate(rec.size for rec in self))

    @property
    def intermediate_max(self) -> int:
        return max((rec.size for rec in self), default=0)

    @property
    def total_work(self) -> int:
        """The sum over joins of |left| + |right| + |output|."""
        return sum(rec.left_size + rec.right_size + rec.size for rec in self)


class JoinRecord(NamedTuple):
    """One executed two-way join, for size assertions on plan families."""

    left_attrs: tuple[Attribute, ...]
    right_attrs: tuple[Attribute, ...]
    left_size: int
    right_size: int
    size: int


def _rank_dtype(d: int):
    """The narrowest unsigned dtype that holds ranks 0..d-1, else int64."""
    for t in (np.uint8, np.uint16, np.uint32):
        if d <= np.iinfo(t).max + 1:
            return t
    return np.int64


def _values(col: tuple[int, ...]) -> np.ndarray:
    """One column's values as int64, or as Python ints where one passes 2^63."""
    try:
        return np.array(col, dtype=np.int64)
    except OverflowError:
        return np.array(col, dtype=object)


def _encode(bindings: Sequence[Relation]):
    """Every binding as (schema, rank columns, row count), and each
    attribute's sorted active domain over all of them.

    A value's rank is its position in its attribute's domain, so ranks
    keep value order; every leaf that holds an attribute shares its
    domain.  The row count is carried because a relation of zero
    attributes has no column to read it from."""
    columns: dict[Attribute, list[np.ndarray]] = {}
    for r in bindings:
        for a, c in zip(r.schema, list(zip(*r.rows)) or [()] * r.arity):
            columns.setdefault(a, []).append(_values(c))
    domains, ranks = {}, {}
    for a, cols in columns.items():
        domains[a], rank = np.unique(np.concatenate(cols), return_inverse=True)
        rank = rank.astype(_rank_dtype(len(domains[a])))
        # Each binding's share of the ranks, taken in binding order below.
        ranks[a] = iter(np.split(rank, np.cumsum([len(c) for c in cols[:-1]])))
    leaves = [(r.schema, tuple(next(ranks[a]) for a in r.schema), len(r)) for r in bindings]
    return leaves, domains


def _project(schema, cols, n: int, keep: tuple[Attribute, ...]):
    if not set(keep) <= set(schema):
        raise PlanError(f"projection {keep} is not within schema {schema}")
    if not keep:
        raise PlanError("projection to zero attributes is not part of any plan here")
    sub = [cols[schema.index(a)] for a in keep]
    if n:
        # Sort the rows, then keep each that differs from its predecessor.
        order = np.lexsort(sub[::-1])
        sub = [c[order] for c in sub]
        new = np.zeros(n, dtype=bool)
        new[0] = True
        for c in sub:
            new[1:] |= c[1:] != c[:-1]
        sub = [c[new] for c in sub]
    return keep, tuple(sub), len(sub[0])


def _keys(cols: Sequence[np.ndarray], radices: Sequence[int], n: int,
          tables: dict[int, np.ndarray]) -> np.ndarray:
    """Pack ``cols`` into one int64 key per row; a lone column is its own key.

    Where one more radix would take the key space past ``_MAX_KEY``, the
    partial key is re-ranked first.  The right side's call, which comes
    first, ranks it among its own distinct partial keys and stores them
    in ``tables``; a left chunk's call ranks it against those, and a
    partial key the right side lacks, which can match nothing, takes the
    one rank past them.  Keys stay int64: numpy widens uint64 mixed with
    int64 to float64.
    """
    if not cols:
        return np.zeros(n, dtype=np.int64)
    if len(cols) == 1:
        return cols[0]
    key, span = cols[0].astype(np.int64), radices[0]
    for i in range(1, len(cols)):
        if span * radices[i] - 1 > _MAX_KEY:
            if i not in tables:
                tables[i], key = np.unique(key, return_inverse=True)
            else:
                table = tables[i]
                pos = np.searchsorted(table, key)
                np.minimum(pos, len(table) - 1, out=pos)
                pos[table[pos] != key] = len(table)
                key = pos
            span = len(tables[i]) + 1
        key *= radices[i]
        key += cols[i]
        span *= radices[i]
    return key


def _table_cap() -> int:
    """The most bytes a join's slot table may take: what one chunk's
    binary search allocates, 8 bytes a row each for its packed keys, its
    positions, the keys they read and its hit list."""
    return 32 * _BLOCK


def _gather_index(lo, counts, dtype) -> np.ndarray:
    """The sorted right row behind each output row of one chunk.

    Run j's matches are the ``counts[j]`` rows from ``lo[j]`` on, so
    output row k of run j reads row lo[j] - first[j] + k, first[j] the
    run's first output row: one repeat of each run's offset, plus 0, 1,
    2, ..., summed in place.  ``dtype`` is the narrowest of uint8, uint16
    and uint32 that holds the right side's row indices (int64 past
    that); a negative offset wraps, and the sum wraps back exactly, as
    every index is below the right side's row count.
    """
    first = np.cumsum(counts) - counts
    idx = np.repeat((lo - first).astype(dtype), counts)
    idx += np.arange(len(idx), dtype=dtype)
    return idx


class _Join:
    """One two-way join, through which its left input streams in chunks.

    Built once from the left side's schema and dtypes and the whole right
    side, a (schema, rank columns, row count) triple; ``radix`` holds
    each attribute's domain size.  Every schema is sorted, so the output
    schema merges the right-only attributes into the left schema, each
    at its bisection point, and no per-attribute work spans the left
    side's width.  The right side's composite join keys are sorted once,
    with its right-only columns in the same order, and its distinct keys
    mark the runs of equal keys.  A left key finds its run by binary
    search, or by one gather from a slot table, built once the join has
    probed span / 256 rows, if the key needed no re-rank table and its
    span (the product of its radices) times the table's item size is
    within ``_table_cap()``.  With no shared attribute every key is 0
    and the span 1, so the cross product is the same code.  Every output column keeps its
    input's dtype, and the run bounds take the narrowest dtype that
    holds the right side's row count, as a pipeline holds every join's
    state at once.  ``left_size`` and ``size`` count the rows that
    stream in and out, and ``record`` is the join's slot in the plan's
    records.
    """

    def __init__(self, lschema, ldtypes, right, radix: dict[Attribute, int], record: int):
        rsch, rcols, nr = right
        self.left_attrs, self.right_attrs, self.right_size = lschema, rsch, nr
        self.left_size = self.size = 0
        self.record = record
        # Each right attribute's position in the left schema, or where it goes in.
        at = [bisect_left(lschema, a) for a in rsch]
        shared = [i < len(lschema) and lschema[i] == a for i, a in zip(at, rsch)]
        # An attribute of one value adds nothing to the key.
        keyed = [k for k, a in enumerate(rsch) if shared[k] and radix[a] > 1]
        self.keyed = [at[k] for k in keyed]
        self.radices = [radix[rsch[k]] for k in keyed]
        self.tables = {}
        rkey = _keys([rcols[k] for k in keyed], self.radices, nr, self.tables)
        order = np.argsort(rkey, kind="stable")
        rkey = rkey[order]
        # Each right-only column, sorted, at its output position: the left
        # columns before it plus the right-only columns before it.
        only = [k for k in range(len(rsch)) if not shared[k]]
        self.inserts = [(at[k] + j, rcols[k][order]) for j, k in enumerate(only)]
        schema, self.dtypes = list(lschema), list(ldtypes)
        for (p, col), k in zip(self.inserts, only):
            schema.insert(p, rsch[k])
            self.dtypes.insert(p, col.dtype)
        self.schema = tuple(schema)
        self.span = self.slots = None  # the slot table's length, and the table once built
        if not nr:
            return  # ``probe`` reads nothing more
        self.index_dtype = _rank_dtype(nr)
        # Each distinct right key, and where its run of sorted right rows
        # starts; the run ends where the next one starts, the last at nr.
        starts = np.flatnonzero(np.concatenate(([True], rkey[1:] != rkey[:-1])))
        self.ukeys = rkey[starts]
        self.bounds = np.append(starts, nr).astype(_rank_dtype(nr + 1))
        self.slot_dtype = _rank_dtype(len(starts) + 1)
        # A key with no re-rank table spans the product of its radices.
        span = prod(self.radices)
        if not self.tables and span * np.dtype(self.slot_dtype).itemsize <= _table_cap():
            self.span = span

    def probe(self, cols, n: int):
        """Yield this join's output for one left chunk of ``n`` rows, as
        (columns, row count) chunks of at most ``_BLOCK`` rows each.

        Only the left rows that hit a run are kept.  A run may be cut
        between output chunks, so one left row's matches can fill many of
        them; while those go up the spine, this frame holds the hit rows
        and their runs.  Where the output fits in one chunk, the frame
        keeps nothing once it has yielded it, so a deep spine holds a
        chunk only at the joins whose output for one input chunk
        overflows a chunk.
        """
        self.left_size += n
        if not self.right_size:
            return
        key = _keys([cols[i] for i in self.keyed], self.radices, n, self.tables)
        if self.slots is None and self.span is not None and 256 * self.left_size >= self.span:
            # Each key's slot: 1 + the rank of its run, or 0 where it has none.
            self.slots = np.zeros(self.span, dtype=self.slot_dtype)
            self.slots[self.ukeys] = np.arange(1, len(self.ukeys) + 1, dtype=self.slot_dtype)
        if self.slots is not None:
            run = self.slots[key]
            hit = np.flatnonzero(run)
            run = run[hit] - 1
        else:
            run = np.searchsorted(self.ukeys, key)
            np.minimum(run, len(self.ukeys) - 1, out=run)
            hit = np.flatnonzero(self.ukeys[run] == key)
            run = run[hit]
        lo = self.bounds[run]
        counts = self.bounds[1:][run] - lo
        if len(hit) < n:
            cols = [c[hit] for c in cols]
        del key, run, hit
        ends = np.cumsum(counts)  # one past each hit's last output row
        total = int(ends[-1]) if len(ends) else 0
        if total <= _BLOCK:
            if total:
                out = [(self._rows(cols, lo, counts, total), total)]
                del cols, lo, counts, ends  # the suspended frame keeps none of these,
                yield out.pop()  # nor, once popped, the output
            return
        for o in range(0, total, _BLOCK):
            e = min(o + _BLOCK, total)
            # The hits whose runs meet output rows o..e-1, cut to them.
            i, j = int(np.searchsorted(ends, o, "right")), int(np.searchsorted(ends, e)) + 1
            part_lo, part_counts = lo[i:j].copy(), counts[i:j].copy()
            skip = o - (ends[i] - counts[i])
            part_lo[0] += skip
            part_counts[0] -= skip
            part_counts[-1] -= ends[j - 1] - e
            yield self._rows([c[i:j] for c in cols], part_lo, part_counts, e - o), e - o

    def _rows(self, cols, lo, counts, w: int):
        """The ``w`` output rows of the hit left rows ``cols``, each
        matching the ``counts`` right rows from ``lo`` on."""
        self.size += w
        if w == len(counts):  # each hit matches one right row, the one at ``lo``
            out, idx = list(cols), lo
        else:
            out = [np.repeat(c, counts) for c in cols]
            idx = _gather_index(lo, counts, self.index_dtype) if self.inserts else None
        for p, col in self.inserts:
            out.insert(p, col[idx])  # casts idx piecewise, where np.take copies it whole to intp
        return tuple(out)


def _drain(pipe, records: list, meter: CostMeter):
    """Run a pipeline, (source triple, joins), to one (schema, rank
    columns, row count) triple, and write each join's ``JoinRecord``.

    The source's chunks of ``_BLOCK`` rows pass through the joins depth
    first, on one explicit stack of chunk iterators, so a chunk reaches
    the end before the next is made and no intermediate is held whole.
    ``meter``'s deadline is checked after each chunk a join yields,
    after each chunk it finishes and at the end.
    """
    source, joins = pipe
    if not joins:
        return source
    _, cols, n = source
    pieces = [[] for _ in joins[-1].schema]
    todo = [((tuple(c[b:b + _BLOCK] for c in cols), min(_BLOCK, n - b))
             for b in range(0, n, _BLOCK))]
    while todo:
        depth = len(todo)
        chunk = next(todo[-1], None)
        if chunk is None:
            todo.pop()
        elif depth <= len(joins):
            todo.append(joins[depth - 1].probe(*chunk))
        else:
            for p, c in zip(pieces, chunk[0]):
                p.append(c)
        if depth > 1 or chunk is None:
            meter.check_deadline()
    for j in joins:
        records[j.record] = JoinRecord(j.left_attrs, j.right_attrs, j.left_size, j.right_size, j.size)
    last = joins[-1]
    cols = []
    for p, t in zip(pieces, last.dtypes):
        cols.append(np.empty(0, dtype=t) if not p else p[0] if len(p) == 1 else np.concatenate(p))
    return last.schema, tuple(cols), last.size


def _add_join(stack: list, radix: dict[Attribute, int], records: list, meter: CostMeter):
    """Drain the pipeline on top of ``stack``, a join's right side, and
    add the join to the left spine below it, in the join's record slot.

    ``meter``'s deadline is checked before a join that extends a spine,
    so an expired budget stops a long spine before it builds the rest
    of its joins.  A function of its own, so that no local of the
    caller's keeps a spine's joins or a right side alive."""
    right = _drain(stack.pop(), records, meter)
    (schema, cols, _), joins = stack[-1]
    if joins:
        meter.check_deadline()
        head = joins[-1].schema, joins[-1].dtypes
    else:
        head = schema, [c.dtype for c in cols]
    joins.append(_Join(*head, right, radix, len(records)))
    records.append(None)


def _evaluate(p: PlanTree, bindings: Sequence[Relation], meter: CostMeter
              ) -> tuple[Relation, PlanTrace]:
    """Run ``p``'s walk on a stack of pipelines, each a source (schema,
    rank columns, row count) triple and the joins its rows stream
    through, and decode the result back to values.

    A join's right side, a projection and the result are drained to a
    triple; a left side only gains a join.  Each join's record takes the
    join's post-order slot, filled when its pipeline drains."""
    global np
    import numpy as np

    leaves, domains = _encode(bindings)
    radix = {a: len(dom) for a, dom in domains.items()}
    stack, records = [], []
    for node in p.walk():
        if node.is_leaf:
            if not 0 <= node.ref < len(leaves):
                raise PlanError(f"plan leaf #{node.ref} names no atom")
            stack.append((leaves[node.ref], []))
        else:
            _add_join(stack, radix, records, meter)
        if node.keep is not None:
            stack[-1] = (_project(*_drain(stack[-1], records, meter), node.keep), [])
    schema, cols, n = _drain(stack.pop(), records, meter)
    values = [domains[a][c].tolist() for a, c in zip(schema, cols)]
    # Distinct by construction: joins of sets, deduplicating projections,
    # none to zero attributes, and a zero-attribute leaf holds at most ().
    rows = tuple(sorted(zip(*values))) if cols else ((),) * n
    return Relation._sorted(schema, rows), PlanTrace(records)


def execute_plan(p: PlanTree, bindings: Sequence[Relation],
                 meter: CostMeter) -> tuple[Relation, PlanTrace]:
    """Evaluate a join tree bottom-up and record every intermediate size.

    Join-only plans (no projections anywhere) must reference distinct
    atoms; join-project plans may revisit them.  ``meter``'s deadline is
    checked after each chunk that a join yields or finishes and before
    each join that extends a left spine; numpy cannot be interrupted
    inside a chunk or a sort, so the plan can overrun its budget by one
    chunk of at most ``_BLOCK`` output rows, or by one sort of a join's
    right side or of a projection's input, or one slot-table build of at
    most 2 MiB.
    """
    if not p.has_projection():
        refs = p.leaf_refs()
        if len(refs) != len(set(refs)):
            raise PlanError(f"join-only plan repeats atoms: {refs}")
    return _evaluate(p, bindings, meter)


def _agm_plan(q: JoinQuery) -> PlanTree:
    """Left-deep: for each attribute a in order, each relation holding a,
    projected onto its attributes up to a: Σ arity − 1 joins."""
    tree = None
    for a in q.attrs:
        for i in q.hypergraph.edges_with(a):
            schema = q.relations[i].schema
            node = leaf(i, schema[: schema.index(a) + 1])
            tree = node if tree is None else join(tree, node)
    return tree


def agm_join_project_traced(q: JoinQuery, meter: CostMeter) -> tuple[Relation, PlanTrace]:
    """Size-bounded join-project evaluation, returning the joins it ran.

    Runs ``_agm_plan(q)``.  Level k joins each relation holding the k-th
    attribute, projected onto the first k; a relation without it would
    add what an earlier level joined.  Each join outputs exactly the
    first w attributes, w its width, so level k ends at its last record
    of width k.  That result never escapes the size bound of the full
    query; the partial joins inside a level carry no such bound.
    ``meter``'s deadline is checked as in ``execute_plan``.
    """
    if any(len(r) == 0 for r in q.relations):
        return Relation._sorted(q.attrs, ()), PlanTrace()
    return _evaluate(_agm_plan(q), q.relations, meter)
