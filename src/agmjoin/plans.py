"""Classical two-way join plans, with intermediate-size accounting.

These are the comparison baselines: binary join trees over the query's
atoms (optionally with projections), evaluated by one post-order loop
(``PlanTree.walk``) on numpy arrays with one binary-search join.  The
point of the accounting is the quantity a plan cannot avoid — the
cardinality of each intermediate result — so a run returns a
``PlanTrace``, the tuple of its ``JoinRecord``s, which reads off each
join's output size and the summed row footprint, not wall-clock time.

``agm_join_project_traced`` runs the one join-project plan that bounds its
intermediates by construction: for k = 1..n, join every relation
projected onto the first k attributes, left-deep.  It is a ``PlanTree``
run by the same executor as the pairwise plans.  Each level's completed
result stays within the fractional-cover size bound of the full query,
at the price of re-touching each relation once per level.  The partial
joins inside a level are not bounded: on triangle-bad with m=1000 one
of them holds 1,003,001 rows against a bound of about 89,500.

numpy is imported by the first plan run, not with the module: the
package imports this module, and a process that runs no plan (the
engines, the oracle, the bounds, ``agmjoin gen``) never pays numpy's
import time or memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import PlanError
from .relational import Attribute, JoinQuery, Relation
from .trie import CostMeter

np = None  # bound to numpy by ``_evaluate``, the one import site

_MAX_KEY = 2**63 - 1  # the largest int64


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


def _to_array(r: Relation) -> tuple[tuple[Attribute, ...], np.ndarray]:
    try:
        arr = np.array(r.rows, dtype=np.int64).reshape(len(r), r.arity)
    except OverflowError:
        names = ",".join(a.name for a in r.schema)
        raise PlanError(f"a value in ({names}) does not fit in 63 bits") from None
    return r.schema, arr


def _project(schema, arr, keep: tuple[Attribute, ...]):
    if not set(keep) <= set(schema):
        raise PlanError(f"projection {keep} is not within schema {schema}")
    cols = [schema.index(a) for a in keep]
    if not cols:
        raise PlanError("projection to zero attributes is not part of any plan here")
    sub = arr[:, cols]
    if len(sub):
        sub = np.unique(sub, axis=0)
    return keep, sub


def _keys(arr, cols: Sequence[int], radices: Sequence[int]) -> np.ndarray:
    key = np.zeros(len(arr), dtype=np.int64)
    for c, radix in zip(cols, radices):
        key = key * radix + arr[:, c]
    return key


def _merge_join(lsch, larr, rsch, rarr):
    """Natural join of two deduplicated arrays; every call is a recorded join.

    The right side's composite join keys are sorted once.  Two binary
    searches give each left row its run of matching right rows, and
    ``np.repeat`` expands the runs into row indices.  With no shared
    attribute every key is 0, so the cross product is the same code.
    """
    lpos = {a: i for i, a in enumerate(lsch)}
    rpos = {a: i for i, a in enumerate(rsch)}
    shared = [a for a in lsch if a in rpos]
    out_schema = tuple(sorted(lpos.keys() | rpos.keys()))
    if len(larr) == 0 or len(rarr) == 0:
        return out_schema, np.empty((0, len(out_schema)), dtype=np.int64)
    lcols, rcols = [lpos[a] for a in shared], [rpos[a] for a in shared]
    radices = [int(max(larr[:, lc].max(), rarr[:, rc].max())) + 1
               for lc, rc in zip(lcols, rcols)]
    if math.prod(radices) > _MAX_KEY // 2:
        raise PlanError("join key space exceeds 63 bits")
    rkey = _keys(rarr, rcols, radices)
    order = np.argsort(rkey, kind="stable")
    rkey = rkey[order]
    lkey = _keys(larr, lcols, radices)
    lo = np.searchsorted(rkey, lkey, side="left")
    counts = np.searchsorted(rkey, lkey, side="right") - lo
    lidx = np.repeat(np.arange(len(larr)), counts)
    # Left row i's run begins at output position cumsum(counts)[i] - counts[i].
    ridx = order[np.arange(len(lidx)) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    cols = [larr[lidx, lpos[a]] if a in lpos else rarr[ridx, rpos[a]] for a in out_schema]
    return out_schema, np.column_stack(cols)


def _evaluate(p: PlanTree, bindings: Sequence[Relation], meter: CostMeter
              ) -> tuple[Relation, PlanTrace]:
    """Run ``p``'s walk on a stack of (schema, array) results."""
    global np
    import numpy as np

    arrays = [_to_array(r) for r in bindings]
    stack, records = [], []
    for node in p.walk():
        if node.is_leaf:
            if not 0 <= node.ref < len(arrays):
                raise PlanError(f"plan leaf #{node.ref} names no atom")
            stack.append(arrays[node.ref])
        else:
            rsch, rarr = stack.pop()
            lsch, larr = stack.pop()
            schema, arr = _merge_join(lsch, larr, rsch, rarr)
            records.append(JoinRecord(lsch, rsch, len(larr), len(rarr), len(arr)))
            stack.append((schema, arr))
            meter.check_deadline()
        if node.keep is not None:
            stack[-1] = _project(*stack[-1], node.keep)
    schema, arr = stack.pop()
    return Relation(schema, tuple(map(tuple, arr.tolist()))), PlanTrace(records)


def execute_plan(p: PlanTree, bindings: Sequence[Relation],
                 meter: CostMeter) -> tuple[Relation, PlanTrace]:
    """Evaluate a join tree bottom-up and record every intermediate size.

    Join-only plans (no projections anywhere) must reference distinct
    atoms; join-project plans may revisit them.  ``meter``'s deadline is
    checked after each two-way join; a numpy join cannot be interrupted,
    so the plan can overrun its budget by at most one two-way join.
    """
    if not p.has_projection():
        refs = p.leaf_refs()
        if len(refs) != len(set(refs)):
            raise PlanError(f"join-only plan repeats atoms: {refs}")
    return _evaluate(p, bindings, meter)


def _agm_plan(q: JoinQuery) -> PlanTree:
    """Left-deep: for k = 1..n, each relation meeting the first k attributes, projected."""
    tree = None
    for k in range(1, len(q.attrs) + 1):
        for i, r in enumerate(q.relations):
            keep = set(q.attrs[:k]).intersection(r.schema)
            if keep:
                tree = leaf(i, keep) if tree is None else join(tree, leaf(i, keep))
    return tree


def agm_join_project_traced(q: JoinQuery, meter: CostMeter) -> tuple[Relation, PlanTrace]:
    """Size-bounded join-project evaluation, returning the joins it ran.

    Runs ``_agm_plan(q)``: level k joins the projections of every
    relation onto the first k attributes, left-deep, and level 1's joins
    of unary projections are recorded like every other.  Each level's
    completed output extends the previous one by one attribute and never
    escapes the size bound of the full query; the partial joins inside a
    level carry no such bound.  ``meter``'s deadline is checked as in
    ``execute_plan``.
    """
    if any(len(r) == 0 for r in q.relations):
        return Relation(q.attrs, ()), PlanTrace()
    return _evaluate(_agm_plan(q), q.relations, meter)

