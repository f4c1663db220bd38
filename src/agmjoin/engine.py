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
the cover, so ``_compile`` works it out once per subproblem, on first
use: the split, each relation's trie order and re-seat, how each
relation reaches its narrowed node, the output permutation, and the
two-choices weights as floats.  Attribute and relation sets are bit
masks, and the run keeps one trie node (a key range ``(level, lo,
hi)``) and one trie per relation, as Leapfrog Triejoin keeps one
iterator per relation.  A split sets and restores only the relations
meeting both its sides, which it finds through the side with fewer
attributes; the others pass down inside a mask.  So a path of n atoms
compiles and runs in O(n) Python steps.  ``_run`` descends, intersects
and filters, and meters exactly that.  The exact ``Fraction`` weights
and the ``Attribute`` objects exist only at compile time, and a run
builds a re-ordered trie only when a subproblem that needs it is
entered.

A one-attribute level runs inside its parent split, as the nested
intersections of generic join and Leapfrog Triejoin do.  A one-attribute
I side is the intersection itself, and it reports where it found each
key, so a group opens each relation's child range at that index (the
trie iterator's ``open``) instead of searching for it again.  A
one-attribute J side extends each group by the values its intersection
yields.  Each step is metered as the step it replaces: an inlined base
level adds the recursion it skips, and an opened child the one probe of
the descent it skips, so the counts are those of a subproblem per level.

Two groups that reach the same J nodes get the same J result, so a split
computes it once and reuses it, as Minesweeper and trie-join caching
avoid re-solving a subproblem.  The compile knows the attributes bound
above each subproblem and gives each split one of three modes: once per
call, when no J relation has an I attribute, so every group of a call
reaches the call's own J nodes; a memo for the run keyed by the node
offsets of the J relations that meet a bound or I attribute, when some
bound or I attribute is in no J relation, so groups that differ only
there meet; otherwise none, and no key is built.  A reuse is charged
one probe, the membership test of its lookup, and counted in
``CostMeter.reuses``.  The memo holds only lists that metered misses
built, so it needs no cap, and it goes with the plan when the run ends.

``run_join`` builds every answer row at the level that finds it and
sorts them only when a split permutes.  ``run_join_factorised`` keeps
the answer factorised where a J answer is shared, a d-representation
(Olteanu and Závodný, TODS 2015): a split keeps (group, J answer) pairs
where the memo or ``_ONCE`` hands several groups one J answer of more
than one row, or where a J answer nests, and a permuting split keeps
its pairs while every group reaches one shared J answer, a product.
Its output, a ``relational.Factorised``, lists the sorted rows as
blocks, so a writer renders a shared J answer once for all the groups
that reach it, and lays out a product whose J attributes come first
J-major, with no sort.

The outer loop over partial tuples reads only immutable tries, so it
could run in parallel with per-worker meters merged by summation;
execution here is single-threaded and deterministic.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .bounds import FractionalCover, is_cover, min_cover_lp
from .errors import InfeasibleCoverError, InvalidPartitionError, SchemaError
from .relational import Attribute, Factorised, JoinQuery, Relation, Row
from .trie import (
    CostMeter,
    Level,
    Node,
    TrieIndex,
    build_trie,
    children,
    count,
    descend,
    intersect,
    iter_leaves,
    leaf_rows,
)


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

    output: Relation | Factorised
    meter: CostMeter
    strategy: PartitionStrategy
    cover: FractionalCover


_ONCE = object()  # every group of a call reaches the same J nodes


def _bits(m: int) -> Iterator[int]:
    """The positions of the set bits of ``m``, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _rank(m: int, p: int) -> int:
    """The index of bit ``p`` among the set bits of ``m``."""
    return (m & ((1 << p) - 1)).bit_count()


class _Ctx:
    """Per-run state: the query, the meter, the cover, the trie cache,
    each relation's current trie, and the query's shape as bit masks.
    Attribute p is the p-th of the global order; ``masks[e]`` holds edge
    e's attributes and ``meets[p]`` the edges holding p.  ``ranks`` holds
    nprr's edge classes, heaviest cover weight first: rescaling by one
    positive factor keeps that order in every probe sub-plan."""

    __slots__ = ("q", "meter", "weights", "attrs", "at", "masks", "meets", "ranks", "tries",
                 "trie_of", "permuted")

    def __init__(self, q: JoinQuery, attrs: tuple[Attribute, ...], meter: CostMeter,
                 weights: Sequence[Fraction]):
        self.q, self.attrs, self.meter, self.weights = q, attrs, meter, weights
        self.at = {a: p for p, a in enumerate(self.attrs)}
        self.masks = [self.mask(e) for e in q.hypergraph.edges]
        self.meets = [0] * len(self.attrs)
        classes: dict[Fraction, int] = {}
        for e, m in enumerate(self.masks):
            for p in _bits(m):
                self.meets[p] |= 1 << e
            classes[weights[e]] = classes.get(weights[e], 0) | 1 << e
        self.ranks = [classes[w] for w in sorted(classes, reverse=True)]
        self.tries: dict[tuple[int, tuple[Attribute, ...]], TrieIndex] = {}
        self.trie_of = [self.trie_for(e, r.schema) for e, r in enumerate(q.relations)]
        self.permuted = False  # some split compiled so far has a perm

    def mask(self, attrs: Iterable[Attribute]) -> int:
        return sum(1 << self.at[a] for a in attrs)

    def trie_for(self, edge: int, order: tuple[Attribute, ...]) -> TrieIndex:
        got = self.tries.get((edge, order))
        if got is None:
            got = build_trie(self.q.relations[edge], order)
            self.tries[(edge, order)] = got
            self.meter.check_deadline()  # a build is long and unmetered
        return got


class _Split:
    """A subproblem split into I and J.

    The compile's arguments describe the subproblem as bit masks: ``v``
    its attributes and ``bound`` those bound above; ``rels`` its
    relations and ``nar`` the relations narrowed by a bound attribute.
    Relation e's node sits on level ``depth`` (its bound attribute count)
    of ``ctx.trie_of[e]``, with its attributes of ``v`` next, in global
    order.  ``both`` lists the relations meeting I and J, whose nodes the
    split alone sets.  Below a one-attribute I a group opens each at the
    index where I's intersection found its key, and ``both`` holds the
    edge and its place among I's nodes; below a multi-attribute I a
    group descends its values, and ``both`` holds the edge and the
    values' group-tuple positions.  ``seats`` lists those of ``both``
    whose trie must be swapped for one that leads with their I then J
    attributes, as (edge, old trie, new trie, old offsets, new offsets,
    new level); see ``_seat``.  ``perm`` maps a group tuple plus a J row
    to an output row, None when I is a prefix of ``v``.  The sub-plans
    are compiled on first use, from ``i_args`` and ``j_args``.

    ``reuse`` says where two groups can reach the same J nodes, and so
    the same J result.  Only ``keyed``, the J relations meeting I or a
    bound attribute, have nodes that can differ between groups; the
    others sit on their roots.  ``_ONCE`` when no J relation meets I:
    every group of a call reaches the call's own nodes.  Else a dict, the
    run's memo of J results keyed by the ``keyed`` nodes' offsets, when
    some bound or I attribute is in no J relation, so groups that differ
    only there meet.  A relation's level is fixed per plan node, and a
    level's nodes are disjoint, nonempty child ranges (or one root), so
    ``lo`` names the node.  Else None: each group reaches nodes of its own.
    """

    __slots__ = ("both", "seats", "keyed", "reuse", "perm", "i_plan", "i_args", "j_plan",
                 "j_args")

    def __init__(self, ctx: _Ctx, v: int, rels: int, nar: int, bound: int, i: int,
                 blocks: tuple[int, ...] | None, scale: Fraction):
        masks, j = ctx.masks, v ^ i
        by_i = i.bit_count() <= j.bit_count()
        near = 0  # the relations meeting the side with fewer attributes
        for p in _bits(i if by_i else j):
            near |= ctx.meets[p]
        near &= rels
        cross, self.both, self.seats = 0, [], []  # cross: the mask of both
        for x, e in enumerate(_bits(near)):
            m = masks[e]
            fi, fj = m & i, m & j
            if not (fi and fj):
                continue
            cross |= 1 << e
            if (fj & -fj) < fi:  # a J attribute comes first: lead with the I ones
                trie, depth = ctx.trie_of[e], (m & bound).bit_count()
                lead = tuple(ctx.attrs[p] for p in chain(_bits(fi), _bits(fj)))
                new = ctx.trie_for(e, trie.order[:depth] + lead + trie.order[depth + len(lead):])
                self.seats.append((e, trie, new, *_seat(trie, new, depth)))
            # by_i holds when I is one attribute, so x is e's place among I's nodes
            self.both.append((e, [_rank(i, p) for p in _bits(fi)] if i & (i - 1) else x))
        only = near ^ cross  # the relations meeting the smaller side alone
        i_rels, j_rels = (near, rels ^ only) if by_i else (rels ^ only, near)
        self.keyed = list(_bits(j_rels & (nar | cross)))
        met = 0  # the bound and I attributes in some J relation
        for e in self.keyed:
            met |= masks[e]
        self.reuse = _ONCE if not cross else {} if (bound | i) & ~met else None
        self.perm = None
        if (j & -j) < i:  # a J attribute precedes an I one: a group plus a J row is out of order
            # The larger side's places in t + row keep their order; put the smaller's among them.
            n_i = i.bit_count()
            idx = list(range(n_i, v.bit_count())) if by_i else list(range(n_i))
            for x, p in enumerate(_bits(i if by_i else j), 0 if by_i else n_i):
                idx.insert(_rank(v, p), x)
            self.perm = itemgetter(*idx)
            ctx.permuted = True
        self.i_plan = self.j_plan = None
        self.i_args = (i, i_rels, nar, bound, None if blocks is None else (), scale)
        self.j_args = (j, j_rels, nar | cross, bound | i, blocks, scale)


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


class _Tail:
    """The nprr two-choices step for a subproblem inside edge J.

    ``sizing`` is None when the scan is forced (no other relation, or
    x_J = 1); otherwise it holds, per other relation, (edge, width,
    weight) with the weight x_F / (1 - x_J) as a float, and ``log_p`` is
    log2 |R_J| (None for an empty R_J).  ``scan`` holds each other
    relation's positions in a J leaf, and ``row_scan`` the same positions
    in a row of J's trie, which holds the ``d`` bound values first.
    ``probe`` is the sub-plan joining the other relations, compiled on
    first use from ``probe_args``, whose cover is rescaled by 1 / (1 - x_J).
    """

    __slots__ = ("j", "k", "d", "log_p", "sizing", "scan", "row_scan", "probe", "probe_args")

    def __init__(self, ctx: _Ctx, v: int, rels: int, nar: int, bound: int, j_edge: int,
                 scale: Fraction):
        masks, weights = ctx.masks, ctx.weights
        self.j, self.k = j_edge, v.bit_count()
        self.d = d = (masks[j_edge] & bound).bit_count()
        others = rels ^ (1 << j_edge)
        self.scan = [(e, [_rank(v, p) for p in _bits(masks[e] & v)]) for e in _bits(others)]
        self.row_scan = [(e, [i + d for i in idxs]) for e, idxs in self.scan]
        self.sizing = self.log_p = self.probe = self.probe_args = None
        x_j = weights[j_edge] * scale
        if others and x_j < 1:
            p = len(ctx.q.relations[j_edge])
            self.log_p = math.log2(p) if p else None
            scale /= 1 - x_j
            self.sizing = [(e, len(idxs), float(weights[e] * scale)) for e, idxs in self.scan]
            self.probe_args = (v, others, nar, bound, None, scale)


class _Part:
    """A split call's answer, factorised.  ``pairs`` lists (group, J
    answer) in group order, and the group's rows are ``t + r`` for each
    row r of its J answer, reordered by ``split.perm``.  A J answer is a
    list of rows or a ``_Part``, and one that the memo or ``_ONCE`` hands
    to several groups is one shared object.  A pair is kept where the J
    answer nests, or is shared and has more than one row; rows of the
    groups between are built at once and stored as one pair ``((),
    rows)``.  A split that permutes keeps its pairs only when all its
    groups share the one J answer.  ``n`` counts the rows."""

    __slots__ = ("split", "pairs", "n")

    def __init__(self, split: _Split, pairs: list[tuple[Row, list[Row] | _Part]], n: int):
        self.split, self.pairs, self.n = split, pairs, n


def _compile(ctx: _Ctx, v: int, rels: int, nar: int, bound: int,
             blocks: tuple[int, ...] | None, scale: Fraction):
    """Plan the join of the relations in ``rels`` over the attributes in
    ``v`` (see ``_Split``).  ``blocks`` is None for nprr, else the masks
    of the remaining blocks but the last, which is peeled one attribute at
    a time.  ``scale`` multiplies every cover weight."""
    if not v & (v - 1):  # one attribute: a getter of the nodes whose keys to intersect
        edges = list(_bits(rels))  # a lone node comes as a one-node slice
        return itemgetter(*edges) if edges[1:] else itemgetter(slice(edges[0], edges[0] + 1))
    if blocks is None:  # nprr: J is the heaviest edge, the first of equals
        top = next(c for c in ctx.ranks if c & rels) & rels
        j_edge = (top & -top).bit_length() - 1
        i = v & ~ctx.masks[j_edge]
        if not i:
            return _Tail(ctx, v, rels, nar, bound, j_edge, scale)
    elif not blocks:  # the last block: peel its first attribute
        i = v & -v
    else:
        i, blocks = blocks[0], blocks[1:]
    return _Split(ctx, v, rels, nar, bound, i, blocks, scale)


def _run(ctx: _Ctx, plan, nodes: list[Node], keep: bool) -> list[Row] | _Part:
    """Execute ``plan`` on the run's one node per relation, ``nodes[e]``
    on level ``depth`` of ``ctx.trie_of[e]``, and return its answer: a
    list of rows, or, with ``keep``, maybe a split's ``_Part`` where a J
    answer is shared or a product, so a writer renders its text once.  A split
    sets the nodes of ``both`` for each group and restores them before
    it returns; a split that seats does so on a copy, and holds its
    seated tries in ``ctx.trie_of`` until it returns."""
    meter = ctx.meter
    meter.recursions += 1
    meter.check_deadline()

    if type(plan) is itemgetter:
        return list(zip(intersect(plan(nodes), meter)))
    if type(plan) is _Tail:
        return _nprr_tail(ctx, plan, nodes)  # a scan's or a probe's rows

    trie_of = ctx.trie_of
    if plan.seats:  # index preparation, unmetered like the builds
        nodes = nodes.copy()
        for e, _, trie, old, new, level in plan.seats:
            # The root's lo is old[0] = 0; a node below it is a descended key's
            # child range, never empty, so its lo is its prefix's offset alone.
            i = bisect_left(old, nodes[e][1])
            nodes[e] = (level, new[i], new[i + 1])
            trie_of[e] = trie

    i_plan = plan.i_plan
    if i_plan is None:
        i_plan = plan.i_plan = _compile(ctx, *plan.i_args)
    at = None
    if type(i_plan) is itemgetter:  # one attribute: the intersection, and where it found each key
        meter.recursions += 1
        vals, at = intersect(i_plan(nodes), meter, positions=True)
        groups = zip(vals)
    else:
        groups = vals = _run(ctx, i_plan, nodes, False)
    flat: list[Row] = []  # rows built since the last pair
    pairs: list[tuple[Row, list[Row] | _Part]] | None = None  # the first kept pair makes it
    if vals:  # else J is neither compiled nor run
        perm = plan.perm
        j_plan = plan.j_plan
        if j_plan is None:
            j_plan = plan.j_plan = _compile(ctx, *plan.j_args)
        base = type(j_plan) is itemgetter  # the last attribute: its values extend t
        memo = plan.reuse
        once = memo is _ONCE
        if once:  # one J answer for every group: with several groups, a product
            memo = {} if len(vals) > 1 else None  # one group has nothing to share
            once = memo is not None
        if at is None:  # each group descends its values from the relation's node
            moves = [(e, nodes[e], idxs) for e, idxs in plan.both]
        else:  # each yields the relation's node for each group in turn: the child range
            # opened where the intersect found the group's key
            moves = [(e, nodes[e], children(nodes[e][0], at[x])) for e, x in plan.both]
        n_open = 0 if at is None else len(moves)
        keyed = plan.keyed
        # Where the answer stays factorised: a split that permutes keeps its
        # pairs only for a product; one that does not keeps a pair where the J
        # answer nests or is shared, and every pair when all groups share it.
        product = keep and perm is not None and memo is not None
        pack = keep and perm is None
        for t in groups:
            meter.check_deadline()
            if at is None:  # never misses: the I side joined t from each node
                for e, node, idxs in moves:
                    nodes[e] = descend(node, [t[i] for i in idxs], meter)
            else:
                meter.probes += n_open  # an opened child costs the one probe of its descent
                for e, _, col in moves:
                    nodes[e] = next(col)
            hit = None
            if memo is None:  # no other group reaches this J answer
                if base:
                    meter.recursions += 1
                    js = intersect(j_plan(nodes), meter)
                    rows = map(t.__add__, zip(js))
                    flat += rows if perm is None else map(perm, rows)
                    continue
                js = _run(ctx, j_plan, nodes, keep)
            else:
                key = None if once else tuple([nodes[e][1] for e in keyed])
                js = hit = memo.get(key)
                if js is not None:  # a lookup is a membership test: one probe
                    meter.probes += 1
                    meter.reuses += 1
                elif base:
                    meter.recursions += 1
                    js = memo[key] = list(zip(intersect(j_plan(nodes), meter)))
                else:
                    js = memo[key] = _run(ctx, j_plan, nodes, keep)
                if not js:
                    continue
            if product and not flat:
                # Pairs while every group reaches one shared J answer; at the first
                # group that does not, the pairs so far become rows.
                if pairs is None:
                    pairs = [(t, js)]
                    continue
                if js is pairs[0][1]:
                    pairs.append((t, js))
                    continue
                for u, ks in pairs:
                    flat += map(perm, map(u.__add__, _rows(ks)))
                pairs = None
            elif pack and (once or type(js) is not list or hit is not None and js[1:]):
                # The pair, where the J answer nests or is shared and has rows to
                # share; else its rows.
                if pairs is None:
                    pairs = []
                if flat:
                    pairs.append(((), flat))
                    flat = []
                pairs.append((t, js))
                continue
            rows = map(t.__add__, js if type(js) is list else _rows(js))
            flat += rows if perm is None else map(perm, rows)
        for e, node, _ in moves:
            nodes[e] = node
    for e, trie, _, _, _, _ in plan.seats:
        trie_of[e] = trie
    if pairs is None:
        return flat
    if flat:
        pairs.append(((), flat))
    return _Part(plan, pairs, sum([len(js) if type(js) is list else js.n for _, js in pairs]))


def _blocks(out: list[tuple[list[Row], list[Row]]], part: _Part) -> None:
    """Append ``part``'s rows to ``out`` as blocks ``(lefts, rights)``,
    each the rows ``l + r`` for each l in lefts, then each r in rights.
    The walk keeps the groups of the parts above, outermost first, and
    joins them once per part, where a list of rows is reached, so a row
    is built once however deep it lies.  Groups in a row that reach one
    shared list make one block.  A part whose split permutes is built row
    by row in its own order and is one block."""
    pieces: list[Row] = []  # the group of each part on the stack but the first
    stack = [iter(part.pairs)]
    prefixes: list[Row | None] = [()]  # each part's pieces joined, once a list needs them
    while stack:
        for t, js in stack[-1]:
            if type(js) is not list and js.split.perm is None:
                pieces.append(t)
                stack.append(iter(js.pairs))
                prefixes.append(None)
                break
            prefix = prefixes[-1]
            if prefix is None:
                prefix = prefixes[-1] = tuple(chain.from_iterable(pieces))
            if type(js) is not list:
                out.append(([prefix + t], _rows(js)))
            elif out and out[-1][1] is js:
                out[-1][0].append(prefix + t)
            else:
                out.append(([prefix + t], js))
        else:
            stack.pop()
            prefixes.pop()
            if pieces:
                pieces.pop()


def _rows(ans: list[Row] | _Part) -> list[Row]:
    """An answer's rows, each built once, in the order the recursion
    found them: sorted unless a split permutes."""
    if type(ans) is list:
        return ans
    out: list[Row] = []
    if ans.split.perm is not None:  # it kept its pairs for a product
        for t, js in ans.pairs:
            out += map(t.__add__, _rows(js))
        return list(map(ans.split.perm, out))
    blocks: list[tuple[list[Row], list[Row]]] = []
    _blocks(blocks, ans)
    for lefts, rights in blocks:
        for left in lefts:
            out += map(left.__add__, rights)
    return out


def _nprr_tail(ctx: _Ctx, plan: _Tail, nodes: list[Node]) -> list[Row]:
    """Two-choices solver for a subproblem lying entirely inside edge J.

    Either scan the J relation and filter each tuple against the others, or
    join the others and probe each result into J — whichever side the
    p-versus-q estimate says is smaller.  The scan side is sized by the
    unnarrowed log2 |R_J|, precomputed once per plan node, while the
    scan reads the narrowed J node.  The survey sizes it by the group's
    |R_J[t_I]|; the whole-relation figure is kept because the pinned
    operation counts depend on every branch choice.  The scan reads J's
    leaves as one slice of its trie's sorted rows (``leaf_rows``), filters
    those rows with every position shifted past the bound prefix, and
    cuts the prefix off the rows that survive; a projection node, whose
    trie has levels below the subproblem, streams its leaves from
    ``iter_leaves`` instead.  Either way the scan adds one probe per leaf it
    reads, and ``_filter`` takes one plan (other relation) at a time.  The
    probe side's rows go through ``_filter`` against J as one
    multi-position plan.
    """
    meter = ctx.meter
    nj = nodes[plan.j]
    k = plan.k
    if plan.sizing is not None:
        if plan.log_p is None:  # R_J is empty
            return []
        log_q = 0.0
        for e, width, w in plan.sizing:
            factor = count(nodes[e], width - 1)
            meter.probes += 1  # sizing lookup for the branch choice
            if factor == 0:
                return []
            log_q += w * math.log2(factor)
        if plan.log_p > log_q + 1e-9:
            probe = plan.probe
            if probe is None:
                probe = plan.probe = _compile(ctx, *plan.probe_args)
            rows = _run(ctx, probe, nodes, False)
            return _filter(ctx, rows, len(rows), [(nj, range(k))])
    rows = leaf_rows(nj, k)
    if rows is None:  # a projection node
        n = count(nj, k - 1)
        meter.probes += n  # one leaf read per scanned tuple
        return _filter(ctx, iter_leaves(nj, k), n, [(nodes[e], pos) for e, pos in plan.scan])
    meter.probes += len(rows)  # one leaf read per scanned tuple
    kept = _filter(ctx, rows, len(rows), [(nodes[e], pos) for e, pos in plan.row_scan])
    d = plan.d
    return [t[d:] for t in kept] if d else kept


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


def _factorised(attrs: tuple[Attribute, ...], ans: list[Row] | _Part,
                permuted: bool) -> Factorised:
    """``ans``, which ``_run`` built with ``keep``, as sorted blocks.  With
    no split that permutes, the answer is in order as found.  Else a root
    split whose groups all share one J answer whose attributes all come
    first is one block, its sorted J rows as lefts and its sorted groups
    as rights; any other answer is flattened and sorted."""
    if type(ans) is list:
        return Factorised(attrs, [([()], sorted(ans) if permuted else ans)], len(ans))
    if not permuted:
        blocks: list[tuple[list[Row], list[Row]]] = []
        _blocks(blocks, ans)
        return Factorised(attrs, blocks, ans.n)
    (_, first), i, j = ans.pairs[0], ans.split.i_args[0], ans.split.j_args[0]
    if j < i & -i and all(js is first for _, js in ans.pairs):
        return Factorised(attrs, [(sorted(_rows(first)), sorted([t for t, _ in ans.pairs]))],
                          ans.n)
    return Factorised(attrs, [([()], sorted(_rows(ans)))], ans.n)


def run_join(
    q: JoinQuery,
    strat: PartitionStrategy | None = None,
    cover: FractionalCover | None = None,
    meter: CostMeter | None = None,
) -> JoinRun:
    """Join all relations of ``q`` exactly, metering the work done.

    The base case (one attribute) is a k-way intersection; otherwise
    the strategy picks I, the I-projections are joined recursively into
    groups, and each group tuple is extended over the rest.  The cover
    defaults to the tightest one from the size-bound linear program; a
    cover the caller gives is checked to be one.  A deadline started on
    ``meter`` is the run's time budget.
    Returns the output with the meter, strategy and cover that produced it.
    """
    return _join(q, strat, cover, meter, False)


def run_join_factorised(
    q: JoinQuery,
    strat: PartitionStrategy | None = None,
    cover: FractionalCover | None = None,
    meter: CostMeter | None = None,
) -> JoinRun:
    """``run_join`` whose ``output`` is a ``Factorised`` answer: a J answer
    that several groups share is held once, so a writer renders it once,
    and no row of a shared J answer is built per group."""
    return _join(q, strat, cover, meter, True)


def _join(q: JoinQuery, strat: PartitionStrategy | None, cover: FractionalCover | None,
          meter: CostMeter | None, keep: bool) -> JoinRun:
    """Run the join; its output is a ``Relation``, or with ``keep`` the
    ``Factorised`` answer."""
    strat = strat if strat is not None else nprr_strategy()
    if cover is None:
        # Empty relations would put log2(0) in the LP objective; any
        # positive stand-in keeps the cover valid (the join is empty
        # regardless), and 1 zeroes the term out.
        sizes = tuple(max(1, s) for s in q.sizes)
        cover = min_cover_lp(q.hypergraph, sizes).cover  # certified by the LP
    else:
        if not isinstance(cover, FractionalCover):
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
    ctx = _Ctx(q, attrs, meter, cover.weights)
    if blocks is not None:
        blocks = tuple(map(ctx.mask, blocks[:-1]))
    try:
        plan = _compile(ctx, (1 << len(attrs)) - 1, (1 << len(q.relations)) - 1, 0, 0, blocks,
                        Fraction(1))
        rows = _run(ctx, plan, [t.root for t in ctx.trie_of], keep)
        if keep:
            out = _factorised(attrs, rows, ctx.permuted)
    except RecursionError:  # the plan nests about one level per attribute
        raise SchemaError(f"a query of {len(attrs)} attributes nests deeper than "
                          f"Python's recursion limit ({sys.getrecursionlimit()})") from None
    if not keep:
        if ctx.permuted:  # rows leave each level sorted unless a perm reorders them
            rows.sort()
        # Distinct by construction, of values read from q's tries: no row walk.
        out = Relation._sorted(attrs, tuple(rows))
    meter.emits += len(out)
    return JoinRun(out, meter, strat, cover)
