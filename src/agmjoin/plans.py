"""Classical two-way join plans, with intermediate-size accounting.

These are the comparison baselines: binary join trees over the query's
atoms (optionally with projections), evaluated bottom-up by sort-merge
joins on numpy arrays.  The point of the accounting is the quantity a
plan cannot avoid — the cardinality of each intermediate result — so
``PlanTrace`` records every join node's output size and the summed
row footprint, not wall-clock time.

``agm_join_project`` is the one join-project plan that bounds its
intermediates by construction: recursively join all relations projected
onto the first n-1 attributes, then rejoin the originals left-deep.
Each level's completed result stays within the fractional-cover size
bound of the full query, at the price of re-touching each relation once
per level.  The partial joins inside a level are not bounded: on
triangle-bad with m=1000 one of them holds 1,003,001 rows against a
bound of about 89,500.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import PlanError
from .relational import Attribute, JoinQuery, Relation
from .trie import CostMeter

_MAX_KEY = np.iinfo(np.int64).max


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

    def leaf_refs(self) -> list[int]:
        if self.is_leaf:
            return [self.ref]
        return self.left.leaf_refs() + self.right.leaf_refs()

    def has_projection(self) -> bool:
        if self.keep is not None:
            return True
        if self.is_leaf:
            return False
        return self.left.has_projection() or self.right.has_projection()

    def describe(self, names: Sequence[str] | None = None) -> str:
        if self.is_leaf:
            body = names[self.ref] if names else f"#{self.ref}"
        else:
            body = f"({self.left.describe(names)} >< {self.right.describe(names)})"
        if self.keep is not None:
            body = f"pi[{','.join(a.name for a in self.keep)}]{body}"
        return body


def leaf(ref: int, keep: Iterable[Attribute] | None = None) -> PlanTree:
    return PlanTree(ref=ref, keep=None if keep is None else tuple(sorted(set(keep))))


def join(left: PlanTree, right: PlanTree, keep: Iterable[Attribute] | None = None) -> PlanTree:
    return PlanTree(
        left=left, right=right, keep=None if keep is None else tuple(sorted(set(keep)))
    )


class PlanTrace(NamedTuple):
    """What a plan execution touched: one size entry per join node."""

    intermediate_sizes: tuple[tuple[int, int], ...]  # (post-order node id, cardinality)
    total_work: int  # sum over joins of |left| + |right| + |output|

    @property
    def intermediate_max(self) -> int:
        return max((n for _, n in self.intermediate_sizes), default=0)

    @classmethod
    def of(cls, records: Sequence["JoinRecord"]) -> "PlanTrace":
        """The trace of the joins ``records`` lists, in execution order."""
        return cls(tuple((i, rec.size) for i, rec in enumerate(records)),
                   sum(rec.left_size + rec.right_size + rec.size for rec in records))


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


def _keys(schema, arr, shared: Sequence[Attribute], radices: Sequence[int]) -> np.ndarray:
    key = np.zeros(len(arr), dtype=np.int64)
    for a, radix in zip(shared, radices):
        key = key * radix + arr[:, schema.index(a)]
    return key


def _merge_join(lsch, larr, rsch, rarr):
    """Sort-merge natural join of two deduplicated arrays."""
    shared = [a for a in lsch if a in set(rsch)]
    out_schema = tuple(sorted(set(lsch) | set(rsch)))
    if len(larr) == 0 or len(rarr) == 0:
        return out_schema, np.empty((0, len(out_schema)), dtype=np.int64)
    if shared:
        radices = []
        span = 1
        for a in shared:
            hi = int(max(larr[:, lsch.index(a)].max(), rarr[:, rsch.index(a)].max())) + 1
            radices.append(hi)
            span *= hi
            if span > _MAX_KEY // 2:
                raise PlanError("join key space exceeds 63 bits")
        lkey = _keys(lsch, larr, shared, radices)
        rkey = _keys(rsch, rarr, shared, radices)
        lo = np.argsort(lkey, kind="stable")
        ro = np.argsort(rkey, kind="stable")
        larr, lkey = larr[lo], lkey[lo]
        rarr, rkey = rarr[ro], rkey[ro]
        lu, li, lc = np.unique(lkey, return_index=True, return_counts=True)
        ru, ri, rc = np.unique(rkey, return_index=True, return_counts=True)
        _, ia, ib = np.intersect1d(lu, ru, assume_unique=True, return_indices=True)
        lstart, lcnt = li[ia], lc[ia]
        rstart, rcnt = ri[ib], rc[ib]
        sizes = lcnt * rcnt
        total = int(sizes.sum())
        if total == 0:
            return out_schema, np.empty((0, len(out_schema)), dtype=np.int64)
        gid = np.repeat(np.arange(len(sizes)), sizes)
        offs = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        within = np.arange(total, dtype=np.int64) - offs[gid]
        lrows = larr[lstart[gid] + within // rcnt[gid]]
        rrows = rarr[rstart[gid] + within % rcnt[gid]]
    else:  # attribute-disjoint inputs: plain cross product
        lrows = np.repeat(larr, len(rarr), axis=0)
        rrows = np.tile(rarr, (len(larr), 1))
    cols = []
    for a in out_schema:
        if a in set(lsch):
            cols.append(lrows[:, lsch.index(a)])
        else:
            cols.append(rrows[:, rsch.index(a)])
    return out_schema, np.column_stack(cols)


def _run_node(node, arrays, sink, meter):
    if node.is_leaf:
        if not 0 <= node.ref < len(arrays):
            raise PlanError(f"plan leaf #{node.ref} names no atom")
        schema, arr = arrays[node.ref]
    else:
        lsch, larr = _run_node(node.left, arrays, sink, meter)
        rsch, rarr = _run_node(node.right, arrays, sink, meter)
        schema, arr = _merge_join(lsch, larr, rsch, rarr)
        sink.append(JoinRecord(lsch, rsch, len(larr), len(rarr), len(arr)))
        if meter is not None:
            meter.check_deadline()
    if node.keep is not None:
        schema, arr = _project(schema, arr, node.keep)
    return schema, arr


def execute_plan(p: PlanTree, bindings: Sequence[Relation],
                 meter: CostMeter | None = None) -> tuple[Relation, PlanTrace]:
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
    arrays = [_to_array(r) for r in bindings]
    records: list[JoinRecord] = []
    schema, arr = _run_node(p, arrays, records, meter)
    return Relation(schema, tuple(map(tuple, arr.tolist()))), PlanTrace.of(records)


def all_join_plans(m: int) -> list[PlanTree]:
    """Every unordered binary join tree over atoms 0..m-1 (join-only)."""
    if m < 1:
        raise PlanError("need at least one atom")

    def build(atoms: tuple[int, ...]) -> list[PlanTree]:
        if len(atoms) == 1:
            return [leaf(atoms[0])]
        out = []
        first, rest = atoms[0], atoms[1:]
        for mask in range(1 << len(rest)):
            left_atoms = (first,) + tuple(a for i, a in enumerate(rest) if mask >> i & 1)
            right_atoms = tuple(a for i, a in enumerate(rest) if not mask >> i & 1)
            if not right_atoms:
                continue
            for l in build(left_atoms):
                for r in build(right_atoms):
                    out.append(join(l, r))
        return out

    return build(tuple(range(m)))


def agm_join_project_traced(q: JoinQuery, meter: CostMeter | None = None
                            ) -> tuple[Relation, list[JoinRecord]]:
    """Size-bounded join-project evaluation, returning the joins it ran.

    Level k joins the projections of every relation onto the first k
    attributes; level 1 is an m-way intersection.  Each next level
    rejoins the full relations left-deep onto the previous level's
    result, so its completed output extends the previous level by one
    attribute and never escapes the size bound of the full query.  The
    partial joins inside a level carry no such bound.  ``meter``'s
    deadline is checked as in ``execute_plan``.
    """
    attrs = q.attrs
    records: list[JoinRecord] = []
    if any(len(r) == 0 for r in q.relations):
        return Relation(attrs, ()), records
    arrays = [_to_array(r) for r in q.relations]

    # Level 1: intersect everyone's values of the first attribute.
    vals = None
    for sch, arr in arrays:
        if attrs[0] in sch:
            col = np.unique(arr[:, sch.index(attrs[0])])
            vals = col if vals is None else np.intersect1d(vals, col, assume_unique=True)
    cur_schema: tuple[Attribute, ...] = (attrs[0],)
    cur = vals.reshape(-1, 1)

    for k in range(2, len(attrs) + 1):
        prefix = set(attrs[:k])
        for sch, arr in arrays:
            keep = tuple(a for a in sch if a in prefix)
            if not keep:
                continue
            psch, parr = _project(sch, arr, keep)
            nsch, narr = _merge_join(cur_schema, cur, psch, parr)
            records.append(JoinRecord(cur_schema, psch, len(cur), len(parr), len(narr)))
            cur_schema, cur = nsch, narr
            if meter is not None:
                meter.check_deadline()
    return Relation(cur_schema, tuple(map(tuple, cur.tolist()))), records


def agm_join_project(q: JoinQuery) -> Relation:
    """The join-project plan whose every completed level obeys the size bound.

    Only each level's finished result is bounded; a partial join inside
    a level can exceed the bound.
    """
    return agm_join_project_traced(q)[0]
