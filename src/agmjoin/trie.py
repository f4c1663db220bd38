"""Sorted tries over relations, plus the operation-count meter.

A trie stores one relation under one attribute order.  Each node keeps
its children values in a sorted tuple, so enumeration is ordered and
lookups are binary searches.  Tries are never mutated after building;
an engine that needs a second attribute order builds a second trie.

Cost model
----------
``probes`` counts membership tests: one per trie level ``descend``
examines and one per direct pointer comparison inside ``intersect``.
``advances`` counts binary-search steps inside ``intersect``.  A search
for the next candidate first gallops (doubling windows) from the
current pointer and is metered at no more than the cost of a single
binary search of the remaining suffix, so every call satisfies

    advances_added <= k * min_len * ceil(log2(max_len))

for k input lists.  ``emits`` counts produced output tuples and
``recursions`` counts join subproblems entered.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import SchemaError, TimeBudgetExceeded
from .relational import Attribute, Relation, Row


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


class TrieNode:
    """One trie level: sorted child values, parallel child nodes.

    ``pcounts[d]`` is the number of distinct (d+1)-level prefixes below
    this node, so ``pcounts[0] == len(keys)`` and ``pcounts[-1]`` is the
    leaf count ``size``.  Engines read these to size projections of the
    subtree in O(1).
    """

    __slots__ = ("keys", "kids", "size", "pcounts")

    def __init__(
        self,
        keys: tuple[int, ...],
        kids: tuple["TrieNode", ...] | None,
        size: int,
        pcounts: tuple[int, ...],
    ):
        self.keys = keys
        self.kids = kids
        self.size = size
        self.pcounts = pcounts

    def child(self, value: int) -> "TrieNode | None":
        i = bisect_left(self.keys, value)
        if i == len(self.keys) or self.keys[i] != value:
            return None
        return self.kids[i] if self.kids is not None else _LEAF


_LEAF = TrieNode((), None, 1, ())


@dataclass(frozen=True)
class TrieIndex:
    """An immutable trie over ``relation`` in attribute order ``order``."""

    order: tuple[Attribute, ...]
    root: TrieNode

    def __len__(self) -> int:
        return self.root.size

    @property
    def depth(self) -> int:
        return len(self.order)


def _build(rows: Sequence[Row], col: int, arity: int) -> TrieNode:
    if not rows:
        levels = arity - col
        return TrieNode((), None if levels == 1 else (), 0, (0,) * levels)
    keys: list[int] = []
    if col == arity - 1:
        for t in rows:
            keys.append(t[col])
        return TrieNode(tuple(keys), None, len(keys), (len(keys),))
    kids: list[TrieNode] = []
    lo = 0
    n = len(rows)
    while lo < n:
        v = rows[lo][col]
        hi = lo
        while hi < n and rows[hi][col] == v:
            hi += 1
        keys.append(v)
        kids.append(_build(rows[lo:hi], col + 1, arity))
        lo = hi
    pcounts = [len(keys)]
    for d in range(arity - col - 1):
        pcounts.append(sum(kid.pcounts[d] for kid in kids))
    return TrieNode(tuple(keys), tuple(kids), pcounts[-1], tuple(pcounts))


def build_trie(r: Relation, order: Sequence[Attribute] | None = None) -> TrieIndex:
    """Index ``r`` under ``order`` (default: its own schema order).

    ``order`` must be a permutation of the relation's schema.  Building
    is preprocessing and is deliberately unmetered.
    """
    order = tuple(order) if order is not None else r.schema
    if sorted(order) != sorted(r.schema) or len(set(order)) != len(order):
        raise SchemaError(f"order {order} is not a permutation of schema {r.schema}")
    if order == r.schema:
        rows: Sequence[Row] = r.rows
    else:
        perm = tuple(r.schema.index(a) for a in order)
        rows = sorted(tuple(t[i] for i in perm) for t in r.rows)
    return TrieIndex(order, _build(rows, 0, len(order)))


def descend(node: TrieNode, vals: Iterable[int], meter: CostMeter | None = None) -> TrieNode | None:
    """Follow ``vals`` down from ``node``; None when the path is absent.

    Metered at one probe per level examined, so a miss stops the count
    at the level where the path ends.
    """
    for v in vals:
        if meter is not None:
            meter.probes += 1
        node = node.child(v)
        if node is None:
            return None
    return node


def walk(ix: TrieIndex, prefix: Sequence[int], meter: CostMeter | None = None) -> TrieNode | None:
    """Descend ``prefix`` values from the root; None when the path is absent."""
    if len(prefix) > ix.depth:
        raise SchemaError(f"prefix {prefix} longer than trie depth {ix.depth}")
    return descend(ix.root, prefix, meter)


def iter_leaves(node: TrieNode, depth: int) -> Iterable[Row]:
    """Enumerate the suffix tuples below ``node`` in lexicographic order."""
    if depth == 0:
        yield ()
        return
    if node.kids is None:
        for v in node.keys:
            yield (v,)
        return
    for v, kid in zip(node.keys, node.kids):
        for rest in iter_leaves(kid, depth - 1):
            yield (v,) + rest


def _seek(arr: Sequence[int], pos: int, v: int, meter: CostMeter) -> int:
    """First index >= pos whose value is >= v, by galloping then bisecting.

    Metered ``advances`` are capped at the cost of one binary search of
    the suffix, which keeps the intersect contract provable while still
    crediting short hops for adjacent matches.
    """
    n = len(arr)
    step = 1
    galloped = 0
    while pos + step < n and arr[pos + step] < v:
        step <<= 1
        galloped += 1
    lo = pos + (step >> 1) + 1 if step > 1 else pos + 1
    hi = min(pos + step + 1, n)
    out = bisect_left(arr, v, lo, hi)
    suffix_cost = (n - pos - 1).bit_length()
    meter.advances += min(galloped + (hi - lo).bit_length(), suffix_cost)
    return out


def intersect(lists: Sequence[Sequence[int]], meter: CostMeter | None = None) -> list[int]:
    """Sorted k-way intersection driven by the smallest input list."""
    if not lists:
        raise SchemaError("intersect needs at least one list")
    if any(len(xs) == 0 for xs in lists):
        return []
    if meter is None:
        meter = CostMeter()
    pivot_i = min(range(len(lists)), key=lambda i: len(lists[i]))
    pivot = lists[pivot_i]
    others = [lists[i] for i in range(len(lists)) if i != pivot_i]
    pos = [0] * len(others)
    out: list[int] = []
    for v in pivot:
        ok = True
        for j, arr in enumerate(others):
            p = pos[j]
            if p == len(arr):
                return out
            meter.probes += 1
            if arr[p] < v:
                p = _seek(arr, p, v, meter)
                pos[j] = p
                if p == len(arr):
                    return out
            if arr[p] != v:
                ok = False
                break
        if ok:
            out.append(v)
    return out
