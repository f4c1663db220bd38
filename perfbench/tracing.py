"""Spans around the package's layer entry points, for the traced run.

The benchmark, never the package, installs the wrappers: each replaces
a module attribute (or ``Relation.__post_init__``) with a function that
records a span and calls the original.  A span is the list
``[name, start, end, parent index or -1, query id, info]``; ``info`` is
whatever the layer's counter extractor read off the call's arguments
and result.  Spans are recorded only inside a benchmark step, so answer
checks that call the same functions between steps stay out of the
trace.  They stay in memory until the run ends.

A layer's self time is its span's duration minus its child spans'
durations; execution is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

from agmjoin import bounds, cli, engine, simplex
from agmjoin.bounds import min_cover_lp  # the original, for bounds computed after the run
from agmjoin.relational import Relation, join_query

NAME, START, END, PARENT, QID, INFO = range(6)


class Tracer:
    """Records spans from the wrappers it installs; ``close`` removes them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._qid: str | None = None

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1], self._qid, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def step(self, label: str, qid: str, call, calibration: int):
        """Run one benchmark step under a root span named after it.

        The root's info is the index of the calibration sample taken just
        before the step, which normalises every span under it.
        """
        self._qid = qid
        rec = [label, 0.0, 0.0, -1, qid, calibration]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            return call()
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def close(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"span_fields": ["name", "start", "end", "parent", "query", "info"],
                       "spans": self.spans, **extra}, f, default=repr)


def _run_info(args, out):
    m = out.meter
    return (out.strategy.kind, m.probes, m.advances, m.emits, m.recursions, m.total_ops)


def _build_info(args, out):
    rel = args[0]
    return (len(rel), out.order != rel.schema)


def _plan_info(args, out):
    trace = out[1]
    q = join_query(args[1])
    return (trace.intermediate_max, trace.total_work, q.hypergraph, q.sizes)


def _agm_plan_info(args, out):
    records, q = out[1], args[0]
    return (max((r.size for r in records), default=0),
            sum(r.left_size + r.right_size + r.size for r in records), q.hypergraph, q.sizes)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the workloads reach."""
    lp_key = lambda a, out: (a[0], tuple(a[1]))  # noqa: E731
    for mod in (engine, cli):
        tracer.wrap(mod, "run_join", "engine.run_join", _run_info)
    for mod in (engine, bounds, cli):
        tracer.wrap(mod, "min_cover_lp", "bounds.min_cover_lp", lp_key)
    tracer.wrap(engine, "build_trie", "trie.build_trie", _build_info)
    tracer.wrap(engine, "intersect", "trie.intersect")
    tracer.wrap(simplex, "minimize", "simplex.minimize")
    tracer.wrap(Relation, "__post_init__", "relational.Relation", lambda a, out: len(a[0].rows))
    tracer.wrap(cli, "load_data_dir", "formats.load_data_dir",
                lambda a, out: sum(len(rows) for rows in out.values()))
    tracer.wrap(cli, "format_relation", "formats.format_relation",
                lambda a, out: out.count("\n") - 1)
    tracer.wrap(cli, "normalize", "rewrite.normalize")
    tracer.wrap(cli, "relation", "rewrite.bind")
    tracer.wrap(cli, "execute_plan", "plans.execute_plan", _plan_info)
    tracer.wrap(cli, "agm_join_project_traced", "plans.agm_join_project_traced", _agm_plan_info)
    tracer.wrap(cli, "main", "cli.main")


def _durations(spans: list[list], lo: int, hi: int, factor):
    """Normalised duration, self time and root step of each span in ``spans[lo:hi]``.

    ``factor(i)`` scales an interval that began after calibration sample i.
    """
    dur: dict[int, float] = {}
    root: dict[int, int] = {}
    scale: dict[int, float] = {}
    for k in range(lo, hi):
        parent = spans[k][PARENT]
        if parent < 0:
            root[k], scale[k] = k, factor(spans[k][INFO])
        else:
            root[k] = root[parent]
        dur[k] = (spans[k][END] - spans[k][START]) * scale[root[k]]
    own = dict(dur)
    for k in range(lo, hi):
        if spans[k][PARENT] >= 0:
            own[spans[k][PARENT]] -= dur[k]
    return dur, own, root


def layer_metrics(spans: list[list], lo: int, hi: int, factor) -> dict[str, float]:
    """Per-layer metrics of the spans ``spans[lo:hi]`` (one pass)."""
    dur, own, _ = _durations(spans, lo, hi, factor)

    def strategy_of(k: int) -> str | None:
        while k >= lo:
            if spans[k][NAME] == "engine.run_join":
                return spans[k][INFO][0] if spans[k][INFO] else None
            k = spans[k][PARENT]
        return None

    m: dict[str, float] = {}

    def add(key: str, v: float) -> None:
        m[key] = m.get(key, 0) + v

    lp_seen: set = set()
    for k in range(lo, hi):
        name, info = spans[k][NAME], spans[k][INFO]
        if name == "formats.load_data_dir":
            add("formats.load_s", own[k])
            add("formats.rows_parsed", info)
        elif name == "formats.format_relation":
            add("formats.write_s", own[k])
            add("formats.rows_written", info)
        elif name == "rewrite.normalize":
            add("rewrite.normalize_s", own[k])
        elif name == "rewrite.bind":
            add("rewrite.bind_s", own[k])
        elif name == "relational.Relation":
            add("relational.build_s", own[k])
            add("relational.rows_built", info)
        elif name == "bounds.min_cover_lp":
            add("bounds.lp_s", dur[k])
            add("bounds.lp_calls", 1)
            add("bounds.lp_repeats", info in lp_seen)
            lp_seen.add(info)
        elif name == "simplex.minimize":
            add("simplex.solves", 1)
        elif name == "trie.build_trie":
            kind = strategy_of(k)
            add("trie.build_s", own[k])
            add(f"trie.build_s.{kind}", own[k])
            add("trie.builds", 1)
            add("trie.reorder_builds", info[1])
            add("trie.rows_indexed", info[0])
        elif name == "trie.intersect":
            add("trie.intersect_s", own[k])
            add(f"trie.intersect_s.{strategy_of(k)}", own[k])
            add("trie.intersect_calls", 1)
        elif name == "engine.run_join" and info is not None:  # None: the call raised
            kind, probes, advances, emits, recursions, total = info
            add("engine.self_s", own[k])
            add(f"engine.self_s.{kind}", own[k])
            add("engine.probes", probes)
            add("engine.advances", advances)
            add("engine.emits", emits)
            add("engine.recursions", recursions)
            add("engine.total_ops", total)
            add(f"engine.total_ops.{kind}", total)
        elif name.startswith("plans.") and info is not None:
            inter, work, h, sizes = info
            add("plans.exec_s", own[k])
            m["plans.intermediate_max"] = max(m.get("plans.intermediate_max", 0), inter)
            add("plans.total_work", work)
            ratio = inter / min_cover_lp(h, [max(1, n) for n in sizes]).bound
            m["plans.inter_over_bound"] = max(m.get("plans.inter_over_bound", 0.0), ratio)
        elif name == "cli.main":
            add("cli.self_s", own[k])

    out = {}
    for key in LAYER_METRICS:
        out[key] = m.get(key, 0)
    out["bounds.lp_repeat_share"] = m.get("bounds.lp_repeats", 0) / max(1, m.get("bounds.lp_calls", 0))
    for suffix in ("", ".nprr", ".leapfrog"):
        ops = m.get("engine.total_ops" + suffix, 0)
        busy = m.get("engine.self_s" + suffix, 0) + m.get("trie.intersect_s" + suffix, 0)
        out["engine.ns_per_op" + suffix] = busy / ops * 1e9 if ops else 0.0
    ops = m.get("engine.total_ops", 0)
    out["engine.emit_share"] = m.get("engine.emits", 0) / ops if ops else 0.0
    return out


# Every per-layer metric but trace.overhead_s, which compares two runs.
LAYER_METRICS = (
    "formats.load_s", "formats.rows_parsed", "formats.write_s", "formats.rows_written",
    "rewrite.normalize_s", "rewrite.bind_s",
    "relational.build_s", "relational.rows_built",
    "bounds.lp_s", "bounds.lp_calls", "bounds.lp_repeat_share", "simplex.solves",
    "trie.build_s", "trie.builds", "trie.reorder_builds", "trie.rows_indexed",
    "trie.intersect_s", "trie.intersect_calls",
    "engine.self_s", "engine.probes", "engine.advances", "engine.recursions",
    "engine.emits", "engine.total_ops", "engine.ns_per_op", "engine.emit_share",
    "engine.self_s.nprr", "engine.self_s.leapfrog",
    "engine.total_ops.nprr", "engine.total_ops.leapfrog",
    "engine.ns_per_op.nprr", "engine.ns_per_op.leapfrog",
    "trie.build_s.nprr", "trie.build_s.leapfrog",
    "plans.exec_s", "plans.intermediate_max", "plans.total_work", "plans.inter_over_bound",
    "cli.self_s",
)


def step_breakdown(spans: list[list], lo: int, hi: int, factor) -> dict[str, dict[str, float]]:
    """Per step of one pass: trie build and LP seconds, engine busy seconds
    (run_join self plus intersect, as in ``engine.ns_per_op``) and ops."""
    dur, own, root = _durations(spans, lo, hi, factor)
    out: dict[str, dict[str, float]] = {}
    for k in range(lo, hi):
        name, _, _, parent, _, info = spans[k]
        if parent < 0:
            out[name] = {"build_s": 0.0, "lp_s": 0.0, "engine_s": 0.0, "ops": 0}
        cell = out[spans[root[k]][NAME]]
        if name == "trie.build_trie":
            cell["build_s"] += dur[k]
        elif name == "bounds.min_cover_lp":
            cell["lp_s"] += dur[k]
        elif name == "trie.intersect":
            cell["engine_s"] += dur[k]
        elif name == "engine.run_join":
            cell["engine_s"] += own[k]
            cell["ops"] += info[5] if info is not None else 0
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
