"""Worst-case-optimal join engines over sorted tries.

The shared recursion splits the attribute set V of a subproblem into I
and the rest J, joins the I-projections of the relations touching I
into a list L of partial tuples, then extends each one over J against
the relations narrowed by that partial tuple.  Narrowing is a trie
prefix descent; relations are never copied.  A strategy is one of two
things:

* ``nprr`` picks the edge J with the heaviest cover weight, recurses on
  I = V minus J, and finishes each group with a two-choices step: scan
  the J-relation when it is no bigger than the estimated join of the
  remaining relations, otherwise join those and probe into J.
* ``fixed-sequence`` consumes caller-given attribute blocks in order,
  peeling single attributes inside a block, so every level inside a
  block is one sorted k-way intersection of trie child lists.
  ``leapfrog`` is the one-block case: the whole attribute set in the
  global order.

Cover weights travel with the recursion: restricting to the edges that
meet a subproblem keeps a cover feasible, and the two-choices rescale
by 1/(1 - x_J) does too.  That is what ties the measured operation
counts to the fractional-cover size bound instead of to intermediate
result sizes.

The outer loop over partial tuples reads only immutable tries, so it
could run in parallel with per-worker meters merged by summation;
execution here is single-threaded and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .bounds import FractionalCover, is_cover, min_cover_lp
from .errors import InfeasibleCoverError, InvalidPartitionError
from .relational import Attribute, JoinQuery, Relation, Row
from .trie import CostMeter, TrieIndex, TrieNode, build_trie, descend, intersect, iter_leaves


@dataclass(frozen=True)
class PartitionStrategy:
    """How the recursion picks the group attributes I at each level."""

    kind: str  # "nprr" | "leapfrog" | "fixed-sequence"
    sequence: tuple[tuple[Attribute, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("nprr", "leapfrog", "fixed-sequence"):
            raise InvalidPartitionError(f"unknown strategy kind {self.kind!r}")


def nprr_strategy() -> PartitionStrategy:
    """Edge-driven splits with the two-choices group solver."""
    return PartitionStrategy("nprr")


def leapfrog_strategy() -> PartitionStrategy:
    """Peel one attribute per level in the global order (one block of all attributes)."""
    return PartitionStrategy("leapfrog")


def fixed_sequence_strategy(blocks: Iterable[Iterable[Attribute]]) -> PartitionStrategy:
    """Consume the given attribute blocks left to right as the I sets."""
    seq = tuple(tuple(sorted(set(b))) for b in blocks)
    return PartitionStrategy("fixed-sequence", seq)


@dataclass(frozen=True)
class JoinRun:
    """One join execution: its output plus the accounting that produced it."""

    output: Relation
    meter: CostMeter
    strategy: PartitionStrategy
    cover: FractionalCover


class _View:
    """A relation narrowed by a bound prefix, positioned inside a trie.

    ``node`` is reached from the root by ``path``, the values bound to
    the first ``len(path)`` attributes of ``trie.order``.  The next
    ``len(edge-attrs ∩ subproblem-attrs)`` attributes of that order are
    the ones this view contributes to the current subproblem, and
    enumerating prefixes at that depth realizes the projection.
    """

    __slots__ = ("edge", "trie", "node", "path")

    def __init__(self, edge, trie, node, path):
        self.edge = edge
        self.trie = trie
        self.node = node
        self.path = path


class _Ctx:
    """Per-invocation state: the query, the meter, and the trie cache."""

    __slots__ = ("q", "meter", "edge_sets", "tries", "audit")

    def __init__(self, q: JoinQuery, meter: CostMeter, audit: bool = False):
        self.q = q
        self.meter = meter
        self.edge_sets = [frozenset(e) for e in q.hypergraph.edges]
        self.tries: dict[tuple[int, tuple[Attribute, ...]], TrieIndex] = {}
        self.audit = audit

    def trie_for(self, edge: int, order: tuple[Attribute, ...]) -> TrieIndex:
        got = self.tries.get((edge, order))
        if got is None:
            got = build_trie(self.q.relations[edge], order)
            self.tries[(edge, order)] = got
        return got

    def initial_views(self) -> list[_View]:
        out = []
        for e, r in enumerate(self.q.relations):
            trie = self.trie_for(e, r.schema)
            out.append(_View(e, trie, trie.root, ()))
        return out


def _ensure_front(ctx: _Ctx, v: _View, front: tuple[Attribute, ...]) -> _View:
    """Reorder ``v`` so ``front`` leads its unbound attributes.

    Rebuilding under a new order and re-seating the already-bound path
    is index preparation, kept out of the operation counts like the
    initial build; the per-tuple descents that narrow a view stay
    metered.
    """
    bound, rest = v.trie.order[: len(v.path)], v.trie.order[len(v.path) :]
    if rest[: len(front)] == front:
        return v
    fs = set(front)
    trie = ctx.trie_for(v.edge, bound + front + tuple(a for a in rest if a not in fs))
    node = descend(trie.root, v.path)
    assert node is not None
    return _View(v.edge, trie, node, v.path)


def _active(ctx: _Ctx, v: _View, attrs: Sequence[Attribute]) -> list[Attribute]:
    es = ctx.edge_sets[v.edge]
    return [a for a in attrs if a in es]


def _audit_split(ctx, views, attrs, weights, i_attrs) -> None:
    """Debug-mode check of the per-level group inequality."""
    from .bounds import decomposition_check
    from .relational import Hypergraph

    edges = []
    rels = []
    ws = []
    for v in views:
        act = tuple(_active(ctx, v, attrs))
        edges.append(act)
        rels.append(Relation(act, tuple(iter_leaves(v.node, len(act)))))
        ws.append(weights[v.edge])
    sub = JoinQuery(Hypergraph(tuple(attrs), tuple(edges)), tuple(rels))
    side = decomposition_check(sub, FractionalCover(tuple(ws)), i_attrs)
    if not side.holds(1e-9):
        raise AssertionError(
            f"group inequality violated at I={i_attrs}: lhs={side.lhs} rhs={side.rhs}"
        )


def _recurse(
    ctx: _Ctx,
    views: list[_View],
    attrs: tuple[Attribute, ...],
    blocks: tuple[tuple[Attribute, ...], ...] | None,
    weights: Sequence[Fraction] | Mapping[int, Fraction],
) -> list[Row]:
    """Join ``views`` over ``attrs``; ``blocks`` is None for nprr, else the
    remaining block sequence.  ``weights[e]`` is the cover weight of the
    edge of every view in scope."""
    meter = ctx.meter
    meter.recursions += 1
    meter.check_deadline()

    if len(attrs) == 1:
        return [(v,) for v in intersect([w.node.keys for w in views], meter)]

    if blocks is None:
        j_edge = max((v.edge for v in views), key=lambda e: (weights[e], -e))
        jset = ctx.edge_sets[j_edge]
        i_attrs = tuple(a for a in attrs if a not in jset)
        if not i_attrs:
            return _nprr_tail(ctx, views, attrs, j_edge, weights)
        i_blocks = j_blocks = None
    elif len(blocks) == 1:
        i_attrs = attrs[:1]
        i_blocks, j_blocks = (i_attrs,), (attrs[1:],)
    else:
        i_attrs = blocks[0]
        i_blocks, j_blocks = (i_attrs,), blocks[1:]

    i_set = set(i_attrs)
    j_attrs = tuple(a for a in attrs if a not in i_set)

    if ctx.audit:
        _audit_split(ctx, views, attrs, weights, i_attrs)

    # Arrange each view so its I attributes lead, then its J attributes.
    iviews: list[_View] = []
    extenders: list[tuple[_View, list[int]]] = []  # J-joining views + their I positions
    ipos = {a: k for k, a in enumerate(i_attrs)}
    for v in views:
        act = _active(ctx, v, attrs)
        fi = [a for a in act if a in i_set]
        fj = [a for a in act if a not in i_set]
        if fi:
            v = _ensure_front(ctx, v, tuple(fi + fj))
            iviews.append(v)
        if fj:
            extenders.append((v, [ipos[a] for a in fi]))

    groups = _recurse(ctx, iviews, i_attrs, i_blocks, weights)

    picks = []  # rebuild output rows over attrs from the (I-part, J-part) pair
    jpos = {a: k for k, a in enumerate(j_attrs)}
    for a in attrs:
        picks.append((0, ipos[a]) if a in i_set else (1, jpos[a]))

    out: list[Row] = []
    for t in groups:
        meter.check_deadline()
        jviews: list[_View] = []
        alive = True
        for v, idxs in extenders:
            if idxs:
                vals = tuple(t[i] for i in idxs)
                node = descend(v.node, vals, meter)
                if node is None:
                    alive = False
                    break
                v = _View(v.edge, v.trie, node, v.path + vals)
            jviews.append(v)
        if not alive:
            continue
        for r in _recurse(ctx, jviews, j_attrs, j_blocks, weights):
            parts = (t, r)
            out.append(tuple(parts[s][i] for s, i in picks))
    return out


def _nprr_tail(
    ctx: _Ctx,
    views: list[_View],
    attrs: tuple[Attribute, ...],
    j_edge: int,
    weights: Sequence[Fraction] | Mapping[int, Fraction],
) -> list[Row]:
    """Two-choices solver for a subproblem lying entirely inside edge J.

    Either scan the J view and filter each tuple against the others, or
    join the others and probe each result into J — whichever side the
    p-versus-q estimate says is smaller.
    """
    meter = ctx.meter
    vj = next(v for v in views if v.edge == j_edge)
    others = [v for v in views if v.edge != j_edge]
    x_j = weights[j_edge]
    k = len(attrs)

    scan = True
    if others and x_j < 1:
        p = len(ctx.q.relations[j_edge])
        if p == 0:
            return []
        log_q = 0.0
        rescale = 1 / (1 - x_j)
        for v in others:
            width = len(_active(ctx, v, attrs))
            factor = v.node.pcounts[width - 1]
            meter.probes += 1  # sizing lookup for the branch choice
            if factor == 0:
                return []
            log_q += float(weights[v.edge] * rescale) * math.log2(factor)
        scan = math.log2(p) <= log_q + 1e-9

    if scan:
        pos = {a: i for i, a in enumerate(attrs)}
        meter.probes += vj.node.pcounts[k - 1]  # one leaf read per scanned tuple
        plans = [(v.node, [pos[a] for a in _active(ctx, v, attrs)]) for v in others]
        return _filter(ctx, iter_leaves(vj.node, k), plans)
    rescaled = {v.edge: weights[v.edge] * rescale for v in others}
    return _filter(ctx, _recurse(ctx, others, attrs, None, rescaled), [(vj.node, range(k))])


def _filter(ctx: _Ctx, rows: Iterable[Row], plans: list[tuple[TrieNode, Sequence[int]]]) -> list[Row]:
    """Keep the rows whose values at each plan's positions descend from its node.

    The child walk is written out here rather than calling ``descend``
    per plan: this is the hottest loop of the two-choices step, and the
    extra call per plan costs measurably.
    """
    meter = ctx.meter
    out: list[Row] = []
    for seen, t in enumerate(rows, 1):
        if seen & 0x3FF == 0:
            meter.check_deadline()
        ok = True
        for node, idxs in plans:
            for i in idxs:
                meter.probes += 1
                node = node.child(t[i])
                if node is None:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(t)
    return out


def run_join(
    q: JoinQuery,
    strat: PartitionStrategy | None = None,
    cover: FractionalCover | None = None,
    meter: CostMeter | None = None,
    time_budget: float | None = None,
    *,
    audit: bool = False,
) -> JoinRun:
    """Join all relations of ``q`` exactly, metering the work done.

    The base case (one attribute) is a k-way intersection; otherwise
    the strategy picks I, the I-projections are joined recursively into
    groups, and each group tuple is extended over the rest.  The cover
    defaults to the tightest one from the size-bound linear program.
    Returns the output with the meter, strategy and cover that produced it.
    """
    strat = strat if strat is not None else nprr_strategy()
    if cover is None:
        # Empty relations would put log2(0) in the LP objective; any
        # positive stand-in keeps the cover valid (the join is empty
        # regardless), and 1 zeroes the term out.
        sizes = tuple(max(1, s) for s in q.sizes)
        cover = min_cover_lp(q.hypergraph, sizes).cover
    elif not isinstance(cover, FractionalCover):
        cover = FractionalCover(tuple(cover))
    if not is_cover(q.hypergraph, cover):
        raise InfeasibleCoverError(f"weights {cover.weights} do not cover the query")
    meter = meter if meter is not None else CostMeter()
    if time_budget is not None:
        meter.start_deadline(time_budget)

    attrs = q.attrs
    blocks = None  # nprr
    if strat.kind != "nprr":
        blocks = strat.sequence if strat.kind == "fixed-sequence" else (attrs,)
        flat = [a for b in blocks for a in b]
        if sorted(flat) != list(attrs) or any(not b for b in blocks):
            raise InvalidPartitionError(
                f"blocks {blocks} do not partition the attributes {attrs}"
            )
    ctx = _Ctx(q, meter, audit=audit)
    rows = _recurse(ctx, ctx.initial_views(), attrs, blocks, cover.weights)
    out = Relation(attrs, tuple(rows))
    meter.emits += len(out)
    return JoinRun(out, meter, strat, cover)


def generic_join(
    q: JoinQuery,
    strat: PartitionStrategy | None = None,
    cover: FractionalCover | None = None,
    meter: CostMeter | None = None,
    *,
    audit: bool = False,
) -> Relation:
    """The output of ``run_join`` without its run record."""
    return run_join(q, strat, cover, meter, audit=audit).output
