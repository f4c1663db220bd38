"""Sorted tries over relations, plus the operation-count meter.

A trie stores one relation under one attribute order.  Tries are never
mutated after building; an engine that needs a second attribute order
builds a second trie.

Layout
------
A trie is a chain of levels, one per attribute.  A level is a tuple
``(keys, offs, next_level)`` of plain lists: ``keys`` holds the last
value of each distinct prefix of that length, in prefix order, and
``offs[i]:offs[i+1]`` is key i's child range in ``next_level`` (both
None on the last level).  A node is ``(level, lo, hi)``, the sorted
siblings ``keys[lo:hi]``; ``LEAF`` is the node below the last level.
Lookups bisect inside ``[lo, hi)``, ``count(node, d)`` composes
offsets to count the (d+1)-level prefixes below a node, and no object
is made per prefix.  Values are Python ints of any size.

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

for k input nodes of min_len to max_len keys.  ``emits`` counts
produced output tuples and ``recursions`` counts join subproblems
entered.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter, sub
from typing import Iterable, Iterator, Sequence

from .errors import SchemaError, TimeBudgetExceeded
from .relational import Attribute, Relation, Row

Level = tuple[list[int], "list[int] | None", "Level | None"]
Node = tuple[Level, int, int]


@dataclass
class CostMeter:
    """Mutable operation counters shared across one join run."""

    probes: int = 0
    advances: int = 0
    emits: int = 0
    recursions: int = 0
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
    level: Level = (ks[last], None, None)
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


def keys(node: Node) -> tuple[int, ...]:
    """The sorted child values of ``node``."""
    level, lo, hi = node
    return tuple(level[0][lo:hi])


def count(node: Node, d: int) -> int:
    """The number of distinct (d+1)-level prefixes below ``node``."""
    level, lo, hi = node
    for _ in range(d):
        _, offs, level = level
        lo, hi = offs[lo], offs[hi]
    return hi - lo


def descend(node: Node, vals: Iterable[int], meter: CostMeter | None = None) -> Node | None:
    """Follow ``vals`` down from ``node``; None when the path is absent.

    Metered at one probe per level examined, so a miss stops the count
    at the level where the path ends.
    """
    for v in vals:
        if meter is not None:
            meter.probes += 1
        (ks, offs, nxt), lo, hi = node
        i = bisect_left(ks, v, lo, hi)
        if i == hi or ks[i] != v:
            return None
        node = LEAF if offs is None else (nxt, offs[i], offs[i + 1])
    return node


def walk(ix: TrieIndex, prefix: Sequence[int], meter: CostMeter | None = None) -> Node | None:
    """Descend ``prefix`` values from the root; None when the path is absent."""
    if len(prefix) > ix.depth:
        raise SchemaError(f"prefix {prefix} longer than trie depth {ix.depth}")
    return descend(ix.root, prefix, meter)


def iter_leaves(node: Node, depth: int) -> Iterator[Row]:
    """Enumerate the suffix tuples below ``node`` in lexicographic order.

    Each level's column repeats a key once per leaf below it: the
    difference of its leaf bounds, the next level's read at its offsets.
    """
    if depth == 0:
        return iter(((),))
    level, lo, hi = node
    path = []
    for _ in range(depth - 1):
        path.append((level, lo, hi))
        level, lo, hi = level[2], level[1][lo], level[1][hi]
    cols = [level[0][lo:hi]]
    bounds, base = None, lo  # the last level's keys are one leaf each
    for level, lo, hi in reversed(path):
        offs = level[1][lo : hi + 1]
        bounds = offs if bounds is None else [bounds[j - base] for j in offs]
        base = lo
        cols.append(chain.from_iterable(map(repeat, level[0][lo:hi], map(sub, bounds[1:], bounds))))
    return zip(*reversed(cols))


def intersect(nodes: Sequence[Node], meter: CostMeter | None = None) -> list[int]:
    """Sorted k-way intersection of the nodes' keys, driven by the first
    smallest node; the others are searched in input order.

    A seek from pointer p is one bisect of ``(p, end)`` that lands on
    index q.  The gallop that lands there doubles g = ceil(log2(q - p))
    times and then bisects the last doubling's window, and that is what
    it is metered as.  Probes and advances collect in locals and reach
    the meter once, on whichever return.
    """
    if not nodes:
        raise SchemaError("intersect needs at least one node")
    lens = [hi - lo for _, lo, hi in nodes]
    if 0 in lens:
        return []
    pivot_i = lens.index(min(lens))
    level, lo, hi = nodes[pivot_i]
    others = [(n[0][0], n[2]) for n in nodes]
    pos = [n[1] for n in nodes]
    del others[pivot_i], pos[pivot_i]
    out: list[int] = []
    probes = advances = 0
    try:
        for v in level[0][lo:hi]:
            for j, (arr, end) in enumerate(others):
                p = pos[j]
                if p == end:
                    return out
                probes += 1
                x = arr[p]
                if x < v:
                    q = bisect_left(arr, v, p + 1, end)
                    g = (q - p - 1).bit_length()
                    step = 1 << g
                    top = p + step + 1
                    if top > end:
                        top = end
                    cost = g + (top - p - (step >> 1) - 1).bit_length()
                    cap = (end - p - 1).bit_length()
                    advances += cost if cost < cap else cap
                    pos[j] = q
                    if q == end:
                        return out
                    x = arr[q]
                if x != v:
                    break
            else:
                out.append(v)
        return out
    finally:
        if meter is not None:
            meter.probes += probes
            meter.advances += advances
