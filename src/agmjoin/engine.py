"""Worst-case-optimal join engines over sorted tries.

The shared recursion splits the attribute set V of a subproblem into I
and the rest J, joins the I-projections of the relations touching I
into a list L of partial tuples, then extends each one over J against
the relations narrowed by that partial tuple.  Narrowing is a trie
prefix descent to a key range; nothing is copied.  A strategy is one of
two things:

* ``nprr`` picks the edge J with the heaviest cover weight, recurses on
  I = V minus J, and finishes each group with a two-choices step: scan
  the J-relation when it is no bigger than the estimated join of the
  remaining relations, otherwise join those and probe into J.
* ``fixed-sequence`` consumes caller-given attribute blocks in order,
  peeling single attributes inside a block, so every level inside a
  block is one sorted k-way intersection of trie key ranges.
  ``leapfrog`` is the one-block case: the whole attribute set in the
  global order.

Cover weights travel with the recursion: restricting to the edges that
meet a subproblem keeps a cover feasible, and the two-choices rescale
by 1/(1 - x_J) does too.  That is what ties the measured operation
counts to the fractional-cover size bound instead of to intermediate
result sizes.

A run is planned once and then executed.  Everything but the groups
and the scan-or-probe test follows from the query, the strategy and
the cover, so ``_compile`` works it out once per subproblem: the split,
each relation's trie order and re-seat, the group-tuple positions each
extender descends by, the output permutation, and the two-choices
weights as floats.  ``_run`` executes a plan node on trie nodes (key
ranges ``(level, lo, hi)``) alone, as a trie iterator is a position
and nothing more; it descends, intersects and filters, and meters
exactly that.  The exact ``Fraction`` weights and the ``Attribute``
objects exist only at compile time.  A split's I side is compiled with
it; J and probe sides on first use, so a run builds a re-ordered trie
only when a subproblem that needs it is entered.

The outer loop over partial tuples reads only immutable tries, so it
could run in parallel with per-worker meters merged by summation;
execution here is single-threaded and deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .bounds import FractionalCover, is_cover, min_cover_lp
from .errors import InfeasibleCoverError, InvalidPartitionError
from .relational import Attribute, JoinQuery, Relation, Row
from .trie import CostMeter, Level, Node, TrieIndex, build_trie, count, descend, intersect, iter_leaves


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


# A slot is one relation inside a subproblem: (edge, trie, depth).  The
# first ``depth`` attributes of ``trie.order`` are bound by the enclosing
# groups, so the slot's node sits on level ``depth`` of that trie, and the
# subproblem's attributes of that edge come next, in global order.
_Slot = tuple[int, TrieIndex, int]
_Weights = Sequence[Fraction] | Mapping[int, Fraction]


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
            self.meter.check_deadline()  # a build is long and unmetered
        return got


_BASE = object()  # one attribute left: a k-way intersection of the slots' child lists


class _Split:
    """A subproblem split into I and J.

    ``seats`` lists the slots whose trie must be swapped for one that
    leads with their I then J attributes, as (slot, old offsets, new
    offsets, new level); see ``_seat``.  ``extenders`` are the slots
    meeting J, each with the getter of its I values from a group tuple
    (None when it meets no I attribute).  ``perm`` maps a group tuple
    plus a J row to an output row, None when that is plain
    concatenation.  The I sub-plan is compiled here; the J sub-plan on
    first use, from ``j_args``.  ``active`` (each slot's edge and its
    attributes here), ``attrs``, ``i_attrs`` and ``weights`` are kept
    for the audit.
    """

    __slots__ = ("active", "attrs", "i_attrs", "weights", "seats", "i_slots", "extenders",
                 "perm", "i_plan", "j_plan", "j_args")

    def __init__(self, ctx: _Ctx, slots: list[_Slot], attrs: tuple[Attribute, ...],
                 i_attrs: tuple[Attribute, ...], i_blocks, j_blocks, weights: _Weights):
        i_set = set(i_attrs)
        j_attrs = tuple(a for a in attrs if a not in i_set)
        ipos = {a: k for k, a in enumerate(i_attrs)}
        active, seats, i_slots, i_sub, extenders, j_sub = [], [], [], [], [], []
        for k, (edge, trie, depth) in enumerate(slots):
            es = ctx.edge_sets[edge]
            act = tuple(a for a in attrs if a in es)
            active.append((edge, act))
            fi = tuple(a for a in act if a in i_set)
            fj = tuple(a for a in act if a not in i_set)
            if fi:
                front = fi + fj
                rest = trie.order[depth:]
                if rest[: len(front)] != front:
                    order = trie.order[:depth] + front + tuple(a for a in rest if a not in front)
                    new = ctx.trie_for(edge, order)
                    seats.append((k, *_seat(trie, new, depth)))
                    trie = new
                i_slots.append(k)
                i_sub.append((edge, trie, depth))
            if fj:
                extenders.append((k, _getter([ipos[a] for a in fi]) if fi else None))
                j_sub.append((edge, trie, depth + len(fi)))
        perm = [ipos[a] if a in i_set else len(i_attrs) + j_attrs.index(a) for a in attrs]
        self.active, self.attrs, self.i_attrs, self.weights = active, attrs, i_attrs, weights
        self.seats, self.i_slots, self.extenders = seats, i_slots, extenders
        self.perm = None if perm == list(range(len(perm))) else itemgetter(*perm)
        self.i_plan = _compile(ctx, i_sub, i_attrs, i_blocks, weights)
        self.j_plan = None
        self.j_args = (j_sub, j_attrs, j_blocks, weights)


def _seat(old: TrieIndex, new: TrieIndex, depth: int) -> tuple[list[int], list[int], Level]:
    """The old and new offsets above level ``depth`` (the root range
    ``[0, n]`` at depth 0) and the new level ``depth``, for two tries of
    one relation whose orders share their first ``depth`` attributes.
    Their levels above hold the same prefixes in the same order, so a
    bound prefix has one index in both."""
    (old_level, _, n_old), (level, _, n) = old.root, new.root
    old_offs, offs = [0, n_old], [0, n]
    for _ in range(depth):
        _, old_offs, old_level = old_level
        _, offs, level = level
    return old_offs, offs, level


def _getter(idxs: list[int]):
    """A function from a group tuple to its values at ``idxs``, as a tuple."""
    if len(idxs) == 1:  # itemgetter of one index would return the bare value
        return itemgetter(slice(idxs[0], idxs[0] + 1))
    return itemgetter(*idxs)


class _Tail:
    """The nprr two-choices step for a subproblem inside edge J.

    ``sizing`` is None when the scan is forced (no other relation, or
    x_J = 1); otherwise it holds, per other slot, (slot, width, weight)
    with the weight x_F / (1 - x_J) as a float, and ``log_p`` is
    log2 |R_J| (None for an empty R_J).  ``scan`` holds each other
    slot's positions in a J leaf; ``probe`` is the sub-plan joining the
    other slots, compiled on first use from ``probe_args``.
    """

    __slots__ = ("j", "k", "log_p", "sizing", "scan", "others", "probe", "probe_args")

    def __init__(self, ctx: _Ctx, slots: list[_Slot], attrs: tuple[Attribute, ...],
                 j_edge: int, weights: _Weights):
        self.j = next(k for k, s in enumerate(slots) if s[0] == j_edge)
        self.k = len(attrs)
        self.others = [k for k, s in enumerate(slots) if s[0] != j_edge]
        pos = {a: i for i, a in enumerate(attrs)}
        es = ctx.edge_sets
        self.scan = [(k, [pos[a] for a in attrs if a in es[slots[k][0]]]) for k in self.others]
        self.sizing = self.log_p = self.probe = self.probe_args = None
        x_j = weights[j_edge]
        if self.others and x_j < 1:
            p = len(ctx.q.relations[j_edge])
            self.log_p = math.log2(p) if p else None
            rescale = 1 / (1 - x_j)
            rescaled = {slots[k][0]: weights[slots[k][0]] * rescale for k in self.others}
            self.sizing = [(k, len(pos), float(rescaled[slots[k][0]])) for k, pos in self.scan]
            self.probe_args = ([slots[k] for k in self.others], attrs, None, rescaled)


def _compile(ctx: _Ctx, slots: list[_Slot], attrs: tuple[Attribute, ...],
             blocks: tuple[tuple[Attribute, ...], ...] | None, weights: _Weights):
    """Plan the join of ``slots`` over ``attrs``; ``blocks`` is None for
    nprr, else the remaining block sequence.  ``weights[e]`` is the cover
    weight of every slot's edge."""
    if len(attrs) == 1:
        return _BASE
    if blocks is None:
        j_edge = max((s[0] for s in slots), key=lambda e: (weights[e], -e))
        jset = ctx.edge_sets[j_edge]
        i_attrs = tuple(a for a in attrs if a not in jset)
        if not i_attrs:
            return _Tail(ctx, slots, attrs, j_edge, weights)
        i_blocks = j_blocks = None
    elif len(blocks) == 1:
        i_attrs = attrs[:1]
        i_blocks, j_blocks = (i_attrs,), (attrs[1:],)
    else:
        i_attrs = blocks[0]
        i_blocks, j_blocks = (i_attrs,), blocks[1:]
    return _Split(ctx, slots, attrs, i_attrs, i_blocks, j_blocks, weights)


def _audit_split(plan: _Split, nodes: list[Node]) -> None:
    """Debug-mode check of the per-level group inequality."""
    from .bounds import decomposition_check
    from .relational import Hypergraph

    edges = []
    rels = []
    ws = []
    for (edge, act), node in zip(plan.active, nodes):
        edges.append(act)
        rels.append(Relation(act, tuple(iter_leaves(node, len(act)))))
        ws.append(plan.weights[edge])
    sub = JoinQuery(Hypergraph(plan.attrs, tuple(edges)), tuple(rels))
    side = decomposition_check(sub, FractionalCover(tuple(ws)), plan.i_attrs)
    if not side.holds(1e-9):
        raise AssertionError(
            f"group inequality violated at I={plan.i_attrs}: lhs={side.lhs} rhs={side.rhs}"
        )


def _run(ctx: _Ctx, plan, nodes: list[Node]) -> list[Row]:
    """Execute ``plan`` on the slots' current trie nodes, ``nodes[k]``
    sitting on level ``depth`` of slot k's trie."""
    meter = ctx.meter
    meter.recursions += 1
    meter.check_deadline()

    if plan is _BASE:
        return list(zip(intersect(nodes, meter)))
    if type(plan) is _Tail:
        return _nprr_tail(ctx, plan, nodes)

    if ctx.audit:
        _audit_split(plan, nodes)
    if plan.seats:  # index preparation, unmetered like the trie builds
        nodes = list(nodes)
        for k, old, new, level in plan.seats:
            # The root's lo is old[0] = 0; a node below it is a descended key's
            # child range, never empty, so its lo is its prefix's offset alone.
            i = bisect_left(old, nodes[k][1])
            nodes[k] = (level, new[i], new[i + 1])

    groups = _run(ctx, plan.i_plan, [nodes[k] for k in plan.i_slots])

    extenders = [(nodes[k], get) for k, get in plan.extenders]
    perm = plan.perm
    j_plan = plan.j_plan
    out: list[Row] = []
    for t in groups:
        meter.check_deadline()
        j_nodes = []
        for node, get in extenders:
            if get is not None:
                node = descend(node, get(t), meter)
                if node is None:
                    break
            j_nodes.append(node)
        else:
            if j_plan is None:
                j_plan = plan.j_plan = _compile(ctx, *plan.j_args)
            rows = _run(ctx, j_plan, j_nodes)
            if perm is None:
                out += [t + r for r in rows]
            else:
                out += [perm(t + r) for r in rows]
    return out


def _nprr_tail(ctx: _Ctx, plan: _Tail, nodes: list[Node]) -> list[Row]:
    """Two-choices solver for a subproblem lying entirely inside edge J.

    Either scan the J slot and filter each tuple against the others, or
    join the others and probe each result into J — whichever side the
    p-versus-q estimate says is smaller.  The scan side is sized by the
    unnarrowed log2 |R_J|, precomputed once per plan node, while the
    scan reads the narrowed J node.  The survey sizes it by the group's
    |R_J[t_I]|; the whole-relation figure is kept because the pinned
    operation counts depend on every branch choice.  The scan streams
    J's leaves through ``_filter``, one plan (other slot) at a time; the
    probe side's rows go through it against J as one multi-position plan.
    """
    meter = ctx.meter
    nj = nodes[plan.j]
    k = plan.k
    if plan.sizing is not None:
        if plan.log_p is None:  # R_J is empty
            return []
        log_q = 0.0
        for s, width, w in plan.sizing:
            factor = count(nodes[s], width - 1)
            meter.probes += 1  # sizing lookup for the branch choice
            if factor == 0:
                return []
            log_q += w * math.log2(factor)
        if plan.log_p > log_q + 1e-9:
            probe = plan.probe
            if probe is None:
                probe = plan.probe = _compile(ctx, *plan.probe_args)
            rows = _run(ctx, probe, [nodes[s] for s in plan.others])
            return _filter(ctx, rows, len(rows), [(nj, range(k))])
    n = count(nj, k - 1)
    meter.probes += n  # one leaf read per scanned tuple
    return _filter(ctx, iter_leaves(nj, k), n, [(nodes[s], pos) for s, pos in plan.scan])


def _filter(ctx: _Ctx, rows: Iterable[Row], n: int,
            plans: list[tuple[Node, Sequence[int]]]) -> list[Row]:
    """Keep the rows whose values at each plan's positions descend from its node.

    ``n`` is the number of ``rows``.  Plan by plan: each plan reads, in
    one pass, the rows every earlier plan kept, and adds one probe per
    position it tests, so the kept rows, their order and the probe total
    are those of a row-at-a-time walk that stops at a row's first miss.
    The first plan streams ``rows``.  A one-position plan whose node has
    no more keys than there are rows tests membership in a set of the
    keys, which costs no more to build than the rows cost to read; any
    other plan descends row by row, written out with the node's level
    and bounds in locals.  The deadline is checked per plan and every
    1024 rows.
    """
    meter = ctx.meter
    for (level, lo, hi), idxs in plans:
        meter.check_deadline()
        kept: list[Row] = []
        if len(idxs) == 1 and hi - lo <= n:
            i = idxs[0]
            ks = set(level[0][lo:hi])
            it = iter(rows)
            for _ in range(0, n, 1024):
                kept += [t for t in islice(it, 1024) if t[i] in ks]
                meter.check_deadline()
            meter.probes += n
        else:
            probes = 0
            for seen, t in enumerate(rows, 1):
                if seen & 0x3FF == 0:
                    meter.check_deadline()
                lv, klo, khi = level, lo, hi
                for i in idxs:
                    probes += 1
                    keys, offs, lv = lv
                    v = t[i]
                    klo = bisect_left(keys, v, klo, khi)
                    if klo == khi or keys[klo] != v:
                        break
                    if offs is not None:
                        klo, khi = offs[klo], offs[klo + 1]
                else:
                    kept.append(t)
            meter.probes += probes
        rows, n = kept, len(kept)
    return rows if isinstance(rows, list) else list(rows)


def run_join(
    q: JoinQuery,
    strat: PartitionStrategy | None = None,
    cover: FractionalCover | None = None,
    meter: CostMeter | None = None,
    *,
    audit: bool = False,
) -> JoinRun:
    """Join all relations of ``q`` exactly, metering the work done.

    The base case (one attribute) is a k-way intersection; otherwise
    the strategy picks I, the I-projections are joined recursively into
    groups, and each group tuple is extended over the rest.  The cover
    defaults to the tightest one from the size-bound linear program.
    A deadline started on ``meter`` is the run's time budget.
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
    slots = [(e, ctx.trie_for(e, r.schema), 0) for e, r in enumerate(q.relations)]
    plan = _compile(ctx, slots, attrs, blocks, cover.weights)
    rows = _run(ctx, plan, [s[1].root for s in slots])
    out = Relation(attrs, tuple(rows))
    meter.emits += len(out)
    return JoinRun(out, meter, strat, cover)

