"""Classical two-way join plans, with intermediate-size accounting.

These are the comparison baselines: binary join trees over the query's
atoms (optionally with projections), evaluated by one post-order loop
(``PlanTree.walk``) on columns.  A run first rank-encodes its bindings:
each attribute gets one sorted active domain, and each column holds its
values' ranks in the narrowest of uint8, uint16 and uint32 that holds
them (int64 past that), so any non-negative integer joins, 2^63 and up
included.  Ranks keep value order, so only the final result is decoded
back to values.  Every result is a tuple of contiguous rank columns, one
per attribute, and one binary-search join probes its left input in
blocks of ``_BLOCK`` rows, repeating each left column and gathering each
right-only column once, with no row array or stacked copy.  On
triangle-bad with m=1000 a whole plan run peaks at about 10 MB under
tracemalloc, 0.42 times the bytes its 1,003,001-row intermediate would
take as int64 columns (1.1 times with int64 columns, 2.7 with row
arrays); the int64 gather index of the block that makes it is most of
that.  The point of the accounting is the quantity a
plan cannot avoid — the cardinality of each intermediate result — so a
run returns a ``PlanTrace``, the tuple of its ``JoinRecord``s, which
reads off each join's output size and the summed row footprint, not
wall-clock time.

``agm_join_project_traced`` runs the one join-project plan that bounds its
intermediates by construction: for k = 1..n, join each relation holding
the k-th attribute, projected onto the first k, left-deep, by the
pairwise plans' executor.  Each level's completed result stays within
the fractional-cover size bound of the full query, at the price of
re-touching each relation once per attribute it holds.  The partial
joins inside a level are not bounded: on triangle-bad with m=1000 one
of them holds 1,003,001 rows against a bound of about 89,500.

numpy is imported by the first plan run, not with the module: the
package imports this module, and a process that runs no plan (the
engines, the oracle, the bounds, ``agmjoin gen``) never pays numpy's
import time or memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import PlanError
from .relational import Attribute, JoinQuery, Relation
from .trie import CostMeter

np = None  # bound to numpy by ``_evaluate``, the one import site

_MAX_KEY = 2**63 - 1  # the largest int64
_BLOCK = 1 << 16  # left rows per probe block of a two-way join


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
    in ``tables``; a left block's call ranks it against those, and a
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


def _gather_index(starts, pos, counts) -> np.ndarray:
    """The sorted right row behind each output row of one probe block.

    Left row i's matches are the ``counts[i]`` rows from ``starts[pos[i]]``
    on, so the index is a run of +1 steps with a jump where each left
    row's matches begin: one int64 array of ones, the jumps written at
    each run's first output row, then summed in place.
    """
    hit = np.flatnonzero(counts)
    lo, n = starts[pos[hit]], counts[hit]
    jump = lo.copy()
    jump[1:] -= lo[:-1] + n[:-1] - 1  # from the previous run's last row
    ridx = np.ones(int(n.sum()), dtype=np.int64)
    ridx[np.cumsum(n) - n] = jump
    return np.cumsum(ridx, out=ridx)


def _merge_join(left, right, radix: dict[Attribute, int], meter: CostMeter):
    """Natural join of two deduplicated (schema, rank columns, row count)
    triples; every call is a recorded join.

    ``radix`` holds each attribute's domain size.  The right side's
    composite join keys are sorted once, with its right-only columns in
    the same order, and its distinct keys mark the runs of equal keys.
    The left side is probed in blocks of ``_BLOCK`` rows: one binary
    search over the distinct keys gives each left row its run of
    matching right rows (or none), ``np.repeat`` expands the left
    columns, and one index array gathers the right-only columns.
    ``meter``'s deadline is checked after each block.  With no shared
    attribute every key is 0, so the cross product is the same code.
    Every output column keeps its input's dtype.
    """
    (lsch, lcols, nl), (rsch, rcols, nr) = left, right
    lpos = {a: i for i, a in enumerate(lsch)}
    rpos = {a: i for i, a in enumerate(rsch)}
    out_schema = tuple(sorted(lpos.keys() | rpos.keys()))
    if nl == 0 or nr == 0:
        return out_schema, tuple((lcols[lpos[a]] if a in lpos else rcols[rpos[a]])[:0]
                                 for a in out_schema), 0
    # An attribute of one value adds nothing to the key.
    shared = [a for a in lsch if a in rpos and radix[a] > 1]
    lkeyed = [lcols[lpos[a]] for a in shared]
    radices = [radix[a] for a in shared]
    tables = {}
    rkey = _keys([rcols[rpos[a]] for a in shared], radices, nr, tables)
    order = np.argsort(rkey, kind="stable")
    rkey = rkey[order]
    right_only = {a: rcols[rpos[a]][order] for a in out_schema if a not in lpos}
    # Each distinct right key, where its run of sorted right rows starts, and its length.
    starts = np.flatnonzero(np.concatenate(([True], rkey[1:] != rkey[:-1])))
    ukeys = rkey[starts]
    runs = np.diff(starts, append=nr)
    pieces, size = {a: [] for a in out_schema}, 0
    for b in range(0, nl, _BLOCK):
        block = slice(b, min(b + _BLOCK, nl))
        lkey = _keys([lc[block] for lc in lkeyed], radices, block.stop - b, tables)
        pos = np.searchsorted(ukeys, lkey)
        np.minimum(pos, len(ukeys) - 1, out=pos)
        counts = runs[pos]
        counts[ukeys[pos] != lkey] = 0
        ridx = _gather_index(starts, pos, counts)
        size += len(ridx)
        for a, col in right_only.items():
            pieces[a].append(col[ridx])
        del ridx  # before the left columns grow, so the peak stays one column over
        for a, i in lpos.items():
            pieces[a].append(np.repeat(lcols[i][block], counts))
        meter.check_deadline()
    cols = []
    for a in out_schema:
        p = pieces.pop(a)
        cols.append(p[0] if len(p) == 1 else np.concatenate(p))
    return out_schema, tuple(cols), size


def _evaluate(p: PlanTree, bindings: Sequence[Relation], meter: CostMeter
              ) -> tuple[Relation, PlanTrace]:
    """Run ``p``'s walk on a stack of (schema, rank columns, row count)
    results, and decode the last one back to values.

    ``meter``'s deadline is checked after each join as well as inside it,
    so a join that returns early on an empty side is no escape."""
    global np
    import numpy as np

    leaves, domains = _encode(bindings)
    radix = {a: len(dom) for a, dom in domains.items()}
    stack, records = [], []
    for node in p.walk():
        if node.is_leaf:
            if not 0 <= node.ref < len(leaves):
                raise PlanError(f"plan leaf #{node.ref} names no atom")
            stack.append(leaves[node.ref])
        else:
            right = stack.pop()
            left = stack.pop()
            out = _merge_join(left, right, radix, meter)
            records.append(JoinRecord(left[0], right[0], left[2], right[2], out[2]))
            stack.append(out)
            meter.check_deadline()
        if node.keep is not None:
            stack[-1] = _project(*stack[-1], node.keep)
    schema, cols, n = stack.pop()
    values = [domains[a][c].tolist() for a, c in zip(schema, cols)]
    rows = tuple(zip(*values)) if cols else ((),) * n
    return Relation(schema, rows), PlanTrace(records)


def execute_plan(p: PlanTree, bindings: Sequence[Relation],
                 meter: CostMeter) -> tuple[Relation, PlanTrace]:
    """Evaluate a join tree bottom-up and record every intermediate size.

    Join-only plans (no projections anywhere) must reference distinct
    atoms; join-project plans may revisit them.  ``meter``'s deadline is
    checked after each probe block of ``_BLOCK`` left rows and after
    each join; numpy cannot be interrupted inside a block, so the plan
    can overrun its budget by at most one block of one two-way join,
    whose own output can still be large (one left row may match every
    right row).
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
        return Relation(q.attrs, ()), PlanTrace()
    return _evaluate(_agm_plan(q), q.relations, meter)
