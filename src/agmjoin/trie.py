"""Sorted tries over relations, plus the operation-count meter.

A trie stores one relation under one attribute order.  Tries are never
mutated after building; an engine that needs a second attribute order
builds a second trie.

Layout
------
A trie is a chain of levels, one per attribute.  A level is a tuple
``(keys, offs, next_level)`` of plain lists: ``keys`` holds the last
value of each distinct prefix of that length, in prefix order, and
``offs[i]:offs[i+1]`` is key i's child range in ``next_level``.  The
last level has no offsets and keeps, in place of a next level, the
sorted rows the trie was built from: its key i is row i's last value.
For the schema order those rows are the relation's own tuple, so
nothing is copied.  A node is ``(level, lo, hi)``, the sorted siblings
``keys[lo:hi]``; ``LEAF`` is the node below the last level.  Lookups
bisect inside ``[lo, hi)``, ``count(node, d)`` composes offsets to
count the (d+1)-level prefixes below a node, and no object is made per
prefix.  The leaves of a node whose remaining depth is d are the rows
``rows[lo:hi]`` that the same composition reaches on the last level
(``leaf_rows``).  Values are Python ints of any size.

Cost model
----------
``probes`` counts membership tests: one per trie level ``descend``
examines and one per direct pointer comparison inside ``intersect``.
``advances`` counts binary-search steps inside ``intersect``.  A seek
for the next candidate is one bisect of the rest of the node, metered
as the gallop (doubling windows from the current pointer, then a bisect
of the last window) that lands on the same index, and at no more than
one binary search of the remaining suffix, so every call satisfies

    advances_added <= k * min_len * ceil(log2(max_len))

for k input nodes of min_len to max_len keys.  A lone node and a
one-key pivot take short paths that add exactly what the general loop
would.  ``emits`` counts produced output tuples and ``recursions``
counts join subproblems entered.

The engine runs a one-attribute level inside its parent split, and
opens a child range at the index ``intersect`` reported instead of
descending to it.  It meters both as the steps they replace: an inlined
base level adds the one recursion of the subproblem it skips, and an
opened child the one probe of the one-level descent it skips.  So every
count is that of one subproblem per level and one descent per child.
Reading a node's leaves is metered by its caller, at one probe per leaf,
whether they come as a slice of the rows or from a descent.

A split whose groups reach the same J nodes computes J on the first and
reuses it: once per call when no J relation has an I attribute, or
through a per-run memo keyed by the J nodes' offsets when some attribute
bound above or in I is in no J relation.  A reuse is charged one probe,
since its lookup is a membership test, so every group still costs at
least one op.  ``reuses`` counts them; they are already in ``probes``,
and ``total_ops`` does not add them again.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import SchemaError, TimeBudgetExceeded
from .relational import Attribute, Relation, Row

Level = tuple[list[int], "list[int] | None", "Level | Sequence[Row] | None"]
Node = tuple[Level, int, int]


@dataclass
class CostMeter:
    """Mutable operation counters shared across one join run."""

    probes: int = 0
    advances: int = 0
    emits: int = 0
    recursions: int = 0
    reuses: int = 0  # J results reused, each also counted as one probe
    deadline: float | None = field(default=None, compare=False)

    @property
    def total_ops(self) -> int:
        return self.probes + self.advances + self.emits + self.recursions

    def start_deadline(self, seconds: float | None) -> None:
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeBudgetExceeded(f"exceeded time budget after {self.total_ops} ops")


LEAF: Node = (((), None, None), 0, 0)


@dataclass(frozen=True)
class TrieIndex:
    """An immutable trie over ``relation`` in attribute order ``order``."""

    order: tuple[Attribute, ...]
    root: Node

    def __len__(self) -> int:
        return count(self.root, len(self.order) - 1)

    @property
    def depth(self) -> int:
        return len(self.order)


def _build(rows: Sequence[Row], arity: int) -> Node:
    """Lay out sorted, distinct ``rows`` in one pass: a row appends its values
    from the first column where it differs from the row before."""
    last = arity - 1
    ks: list[list[int]] = [[] for _ in range(arity)]
    offs: list[list[int]] = [[] for _ in range(last)]
    prev: Sequence = (None,) * arity
    for t in rows:
        d = 0
        while t[d] == prev[d]:  # rows are distinct: stops before the last column
            d += 1
        for c in range(d, last):
            offs[c].append(len(ks[c + 1]))
            ks[c].append(t[c])
        ks[last].append(t[last])
        prev = t
    level: Level = (ks[last], None, rows)
    for c in range(last - 1, -1, -1):
        offs[c].append(len(ks[c + 1]))
        level = (ks[c], offs[c], level)
    return (level, 0, len(level[0]))


def build_trie(r: Relation, order: Sequence[Attribute] | None = None) -> TrieIndex:
    """Index ``r`` under ``order`` (default: its own schema order).

    ``order`` must be a permutation of the relation's nonempty schema.
    Building is preprocessing and is deliberately unmetered.
    """
    order = tuple(order) if order is not None else r.schema
    if not order or sorted(order) != sorted(r.schema) or len(set(order)) != len(order):
        raise SchemaError(f"order {order} is not a nonempty permutation of schema {r.schema}")
    if order == r.schema:
        rows: Sequence[Row] = r.rows
    else:  # a different permutation has at least two columns: the getter returns tuples
        rows = sorted(map(itemgetter(*(r.schema.index(a) for a in order)), r.rows))
    return TrieIndex(order, _build(rows, len(order)))


def count(node: Node, d: int) -> int:
    """The number of distinct (d+1)-level prefixes below ``node``."""
    level, lo, hi = node
    for _ in range(d):
        _, offs, level = level
        lo, hi = offs[lo], offs[hi]
    return hi - lo


def descend(node: Node, vals: Iterable[int], meter: CostMeter) -> Node | None:
    """Follow ``vals`` down from ``node``; None when the path is absent.

    Metered at one probe per level examined, so a miss stops the count
    at the level where the path ends.
    """
    for v in vals:
        meter.probes += 1
        (ks, offs, nxt), lo, hi = node
        i = bisect_left(ks, v, lo, hi)
        if i == hi or ks[i] != v:
            return None
        node = LEAF if offs is None else (nxt, offs[i], offs[i + 1])
    return node


def children(level: Level, at: Iterable[int]) -> Iterator[Node]:
    """The child range of the key at each index in ``at`` of ``level``:
    the trie iterator's ``open``, with no second search."""
    _, offs, nxt = level
    return ((nxt, offs[i], offs[i + 1]) for i in at)


def leaf_rows(node: Node, depth: int) -> Sequence[Row] | None:
    """The rows whose leaves lie ``depth`` >= 1 levels below ``node``, as one
    slice of the rows the trie was built from, when that reaches the last
    level; None for a projection node, whose trie has levels below.

    A row holds the values of the node's prefix before its suffix, so its
    last ``depth`` values are the ``iter_leaves(node, depth)`` tuple.
    """
    level, lo, hi = node
    for _ in range(depth - 1):
        _, offs, level = level
        lo, hi = offs[lo], offs[hi]
    _, offs, rows = level
    return None if offs is not None else rows[lo:hi]


def iter_leaves(node: Node, depth: int) -> Iterator[Row]:
    """Enumerate the suffix tuples below ``node`` in lexicographic order.

    A plain descent: each key of the node, then the leaves of its child
    range; a lone level is one slice of its keys.  This is the one way
    to read a projection node's leaves; at full depth ``leaf_rows``
    gives the same tuples' rows as a slice.
    """
    if depth == 0:
        return iter(((),))
    (ks, offs, nxt), lo, hi = node
    if depth == 1:
        return zip(ks[lo:hi])
    return ((ks[i],) + t for i in range(lo, hi)
            for t in iter_leaves((nxt, offs[i], offs[i + 1]), depth - 1))


def _gallop(p: int, q: int, end: int) -> int:
    """The advances of a gallop from pointer p that lands on index q < ``end``
    (q == ``end`` for a seek off the end): g = ceil(log2(q - p)) doublings
    and a bisect of the last doubling's window, capped at one binary
    search of the suffix ``(p, end)``."""
    g = (q - p - 1).bit_length()
    step = 1 << g
    top = p + step + 1
    if top > end:
        top = end
    cost = g + (top - p - (step >> 1) - 1).bit_length()
    cap = (end - p - 1).bit_length()
    return cost if cost < cap else cap


def _answer(out: list[int], hits: list[tuple[int, ...]], k: int, positions: bool):
    """``out``, or with ``positions`` the values and each of the k nodes'
    match indices, from one tuple of indices per match."""
    if not positions:
        return out
    return out, (list(zip(*hits)) if hits else [()] * k)


def intersect(nodes: Sequence[Node], meter: CostMeter, positions: bool = False
              ) -> list[int] | tuple[list[int], list[Sequence[int]]]:
    """Sorted k-way intersection of the nodes' keys, driven by the first
    smallest node; the others are searched in input order.

    With ``positions`` it returns ``(values, at)`` instead, where
    ``at[k][g]`` is the index of match g in node k's key list: the index
    at which a trie iterator opens that match's child range.

    A lone node answers with a slice of its keys, and a one-key pivot
    with one seek per other node, at the meters of the general loop.  A
    seek from pointer p is one bisect of ``(p, end)`` that lands on
    index q, metered as the gallop that lands there (``_gallop``).
    Probes and advances collect in locals and reach the meter on
    whichever return, and before each deadline check, one per 1024
    pivot keys.
    """
    if not nodes:
        raise SchemaError("intersect needs at least one node")
    k = len(nodes)
    if k == 1:
        (ks, _, _), lo, hi = nodes[0]
        return (ks[lo:hi], [range(lo, hi)]) if positions else ks[lo:hi]
    pivot_i = 0
    _, lo, hi = nodes[0]
    least = hi - lo
    for j in range(1, k):
        _, lo, hi = nodes[j]
        if hi - lo < least:
            pivot_i, least = j, hi - lo
    out: list[int] = []
    hits: list[tuple[int, ...]] = []
    if least == 1:
        # Most calls have a one-key pivot (55,571 of 59,603 in one wcoj-large
        # pass); one seek per other node spares them the loop's set-up.
        (ks, _, _), lo, _ = nodes[pivot_i]
        v = ks[lo]
        at = []
        probes = advances = 0
        for j, ((arr, _, _), p, end) in enumerate(nodes):
            if j != pivot_i:
                probes += 1
                if arr[p] < v:
                    q = bisect_left(arr, v, p + 1, end)
                    advances += _gallop(p, q, end)
                    if q == end:
                        break
                    p = q
                if arr[p] != v:
                    break
            at.append(p)
        else:
            out.append(v)
            hits.append(tuple(at))
        meter.probes += probes
        meter.advances += advances
        return _answer(out, hits, k, positions)
    (ks, _, _), lo, hi = nodes[pivot_i]
    others = [(j, n[0][0], n[2]) for j, n in enumerate(nodes) if j != pivot_i]
    pos = [n[1] for n in nodes]
    probes = advances = 0
    try:
        for start in range(lo, hi, 1024):
            if start != lo:
                meter.probes += probes
                meter.advances += advances
                probes = advances = 0
                meter.check_deadline()
            for i in range(start, min(start + 1024, hi)):
                v = ks[i]
                for j, arr, end in others:
                    p = pos[j]
                    probes += 1
                    x = arr[p]
                    if x < v:
                        q = bisect_left(arr, v, p + 1, end)
                        advances += _gallop(p, q, end)
                        pos[j] = q
                        if q == end:
                            return _answer(out, hits, k, positions)
                        x = arr[q]
                    if x != v:
                        break
                else:
                    out.append(v)
                    if positions:
                        pos[pivot_i] = i
                        hits.append(tuple(pos))
        return _answer(out, hits, k, positions)
    finally:
        meter.probes += probes
        meter.advances += advances
