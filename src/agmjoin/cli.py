"""Command-line front end: run, bound, gen, and bench.

    agmjoin run QUERY DATA_DIR --algo leapfrog
    agmjoin bound QUERY --sizes R=16,S=16,T=16 [--fds]
    agmjoin gen --family triangle-bad --m 4 --out DIR
    agmjoin bench --suite triangle-bad --algos nprr,pairwise:0-2-1 --ns 16,32,64,128

Conventions, fixed so output is diffable:

* Result tuples go to --out (default stdout) in relation-file format;
  run statistics go to stderr as a two-line CSV with columns
  ``algorithm,rows,probes,advances,emits,recursions,intermediate_max,total_ops``.
* bench writes one CSV row per (instance, algorithm) cell with columns
  ``generator,param,algorithm,probes,advances,emits,intermediate_max,total_ops,status``
  and prints fitted exponents to stderr
  (``generator,algorithm,exponent,residual,points``).  The ``emits``
  column is the output cardinality for every algorithm, so agreement
  across algorithms can be checked directly from the CSV.
* Exit codes: 0 success; 2 parse failure (flags, or files that are
  missing, unreadable or malformed); 3 schema mismatch, including a
  table whose rows are wider or narrower than its atoms or hold a
  negative value, or a plan that cannot run; 4 generator parameter
  error; 1 timeout.
* ``AGMJOIN_TIMEOUT`` (seconds) sets the default time budget; --timeout
  overrides it.  Every algorithm stops on its deadline: run exits 1 and
  bench marks the cell "timeout" and leaves its probes, advances, emits,
  intermediate_max and total_ops empty, whatever the algorithm.  A numpy
  plan checks it after each chunk that a two-way join yields or
  finishes and before each join that extends a left spine, so it can
  overrun by one chunk of at most ``_BLOCK`` (65,536) output rows, or by
  one sort of a join's right side or of a projection's input, or one
  slot-table build of at most 2 MiB.  bench
  marks an oracle cell with an obviously hopeless candidate space
  "skipped".

The exponent fit is least squares of log(total_ops) against log(param)
over the largest half of the parameters (rounded up), which is where
the asymptotic behaviour lives at desk scale.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .engine import PartitionStrategy, leapfrog_strategy, nprr_strategy, run_join
from .errors import (
    GeneratorParameterError,
    PlanError,
    QueryFormatError,
    SchemaError,
    TimeBudgetExceeded,
)
from .formats import (
    format_relation,
    load_data_dir,
    read_query_file,
    write_query_file,
    write_relation_file,
)
from .instances import (
    InstanceBundle,
    gen_chase_witness,
    gen_clique_query,
    gen_lw_bad,
    gen_lw_query,
    gen_random,
    gen_triangle_bad,
)
from .bounds import min_cover_lp
from .plans import PlanTree, agm_join_project_traced, execute_plan, join, leaf
from .relational import JoinQuery, Relation, active_domains, oracle_join
from .relational import relation  # noqa: F401  uncalled since HeadJoin.bind; kept for perfbench/tracing.py's wrap
from .rewrite import Atom, ConjunctiveQuery, normalize, project_to_head
from .trie import CostMeter

STATS_COLUMNS = ("algorithm", "rows", "probes", "advances", "emits", "recursions",
                 "intermediate_max", "total_ops")
BENCH_COLUMNS = ("generator", "param", "algorithm", "probes", "advances", "emits",
                 "intermediate_max", "total_ops", "status")
FIT_COLUMNS = ("generator", "algorithm", "exponent", "residual", "points")

_ORACLE_CANDIDATE_CAP = 50_000_000


# --------------------------------------------------------------------------
# shared helpers


def fit_exponent(params: Sequence[float], ops: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of log(ops) vs log(param), largest half only.

    Returns (exponent, rms residual).  Needs at least four points so the
    retained half is a real line fit.
    """
    pairs = sorted(zip(params, ops))
    if len(pairs) < 4:
        raise ValueError(f"need at least 4 points, got {len(pairs)}")
    half = pairs[-((len(pairs) + 1) // 2):]
    xs = [math.log(p) for p, _ in half]
    ys = [math.log(max(1, o)) for _, o in half]
    n = len(half)
    mx, my = sum(xs) / n, sum(ys) / n
    denom = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
    intercept = my - slope * mx
    resid = math.sqrt(sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys)) / n)
    return slope, resid


@dataclass
class CellResult:
    """Uniform accounting for one algorithm run; what it did not measure is None."""

    status: str  # ok | timeout | skipped
    output: Relation | None = None
    probes: int | None = None
    advances: int | None = None
    emits: int | None = None
    recursions: int | None = None
    intermediate_max: int | None = None
    total_ops: int | None = None


def _parse_algo(spec: str) -> tuple[str, str, tuple[int, ...] | PartitionStrategy | None]:
    """Turn an --algo token into (name, kind, payload)."""
    if spec == "nprr":
        return spec, "wcoj", nprr_strategy()
    if spec == "leapfrog":
        return spec, "wcoj", leapfrog_strategy()
    if spec == "oracle":
        return spec, "oracle", None
    if spec == "agm-plan":
        return spec, "agm", None
    if spec.startswith("pairwise:"):
        body = spec[len("pairwise:"):]
        try:
            refs = tuple(int(p) for p in body.replace(",", "-").split("-") if p != "")
        except ValueError:
            raise QueryFormatError(f"bad pairwise plan {body!r}: expected atom indices") from None
        if len(refs) < 2:
            raise QueryFormatError(f"pairwise plan needs at least two atoms, got {body!r}")
        return spec, "pairwise", refs
    raise QueryFormatError(
        f"unknown algorithm {spec!r}: expected nprr, leapfrog, oracle, agm-plan "
        f"or pairwise:<i-j-...>"
    )


def _left_deep(refs: tuple[int, ...], m: int) -> PlanTree:
    if sorted(refs) != list(range(m)):
        raise QueryFormatError(
            f"pairwise plan {list(refs)} must list each of the {m} atoms exactly once"
        )
    tree = leaf(refs[0])
    for r in refs[1:]:
        tree = join(tree, leaf(r))
    return tree


def _oracle_candidates(q: JoinQuery) -> int:
    return math.prod(len(dom) for dom in active_domains(q))


def _run_algo(kind: str, payload, q: JoinQuery, budget: float | None,
              guard_oracle: bool = False) -> CellResult:
    if kind == "oracle" and guard_oracle and _oracle_candidates(q) > _ORACLE_CANDIDATE_CAP:
        return CellResult("skipped")
    meter = CostMeter()
    meter.start_deadline(budget)
    out = trace = None
    try:
        if kind == "wcoj":
            out = run_join(q, payload, meter=meter).output
        elif kind == "oracle":
            out = oracle_join(q, meter=meter)
        elif kind == "pairwise":
            out, trace = execute_plan(_left_deep(payload, len(q.relations)), q.relations,
                                      meter=meter)
        else:  # agm
            out, trace = agm_join_project_traced(q, meter=meter)
    except TimeBudgetExceeded:
        return CellResult("timeout")  # partial counts would read as a finished run's
    if kind == "wcoj":
        return CellResult("ok", output=out, probes=meter.probes, advances=meter.advances,
                          emits=meter.emits, recursions=meter.recursions,
                          total_ops=meter.total_ops)
    return CellResult("ok", output=out, emits=len(out),
                      intermediate_max=None if trace is None else trace.intermediate_max,
                      total_ops=None if trace is None else trace.total_work)


def _csv(columns: Sequence[str], rows: Iterable[Mapping]) -> str:
    """A header line, then one line per row; a None field prints empty."""
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join("" if r[c] is None else str(r[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _int_list(flag: str, spec: str) -> list[int]:
    try:
        out = [int(s) for s in spec.split(",") if s]
    except ValueError:
        out = []
    if not out:
        raise QueryFormatError(f"bad {flag} {spec!r}: expected a comma list of integers")
    return out


def _budget(args, default: float | None) -> float | None:
    if getattr(args, "timeout", None) is not None:
        return args.timeout if args.timeout > 0 else None
    env = os.environ.get("AGMJOIN_TIMEOUT")
    if env:
        try:
            v = float(env)
        except ValueError:
            raise QueryFormatError(f"AGMJOIN_TIMEOUT={env!r} is not a number") from None
        return v if v > 0 else None
    return default


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


# --------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    cq = read_query_file(args.query)
    data = load_data_dir(args.data, {a.symbol for a in cq.body})  # other tables: header only
    nq = normalize(dataclasses.replace(cq, fds=()))  # dependencies never change run semantics
    names = sorted({v for a in nq.body for v in a.vars})
    full = dataclasses.replace(nq, head=Atom(nq.head.symbol, tuple(names)))
    jq = project_to_head(full).bind(data)  # a head of every body variable: the full join
    _, kind, payload = _parse_algo(args.algo)
    res = _run_algo(kind, payload, jq, _budget(args, None))
    if res.status == "timeout":
        print(f"error: {args.algo} exceeded its time budget", file=sys.stderr)
        return 1

    head, rows = cq.head, res.output  # sorted, distinct, columns in `names` order
    if head.vars:
        if head.vars != tuple(names):  # permuted, repeated or projected: one C pass per column
            rows = sorted(set(zip(*[map(itemgetter(names.index(v)), rows.rows)
                                    for v in head.vars])))
        text, shown = format_relation(head.symbol, head.vars, rows), len(rows)
    else:
        shown = int(len(rows) > 0)
        text = f"# boolean query {head.symbol}: 1 = nonempty\n{shown}\n"
    _write_out(args.out, text)
    sys.stderr.write(_csv(STATS_COLUMNS, [{**vars(res), "algorithm": args.algo, "rows": shown}]))
    return 0


# --------------------------------------------------------------------------
# bound


def _parse_sizes(spec: str, symbols: Iterable[str]) -> dict[str, int]:
    spec = spec.strip()
    try:
        if "=" not in spec:
            n = int(spec)
            pairs = [(s, n) for s in symbols]
        else:
            pairs = [(k.strip(), int(v)) for k, _, v in (p.partition("=") for p in spec.split(","))]
    except ValueError:
        raise QueryFormatError(f"bad --sizes {spec!r}: expected N or R=N,S=M,...") from None
    out = dict(pairs)
    if "" in out or len(out) < len(pairs):
        raise QueryFormatError(f"bad --sizes {spec!r}: a table name is empty or repeated")
    if any(n < 1 for n in out.values()):
        raise QueryFormatError(f"bad --sizes {spec!r}: every size must be at least 1")
    return out


def cmd_bound(args) -> int:
    cq = read_query_file(args.query)
    if not args.fds:
        cq = dataclasses.replace(cq, fds=())
    sizes = _parse_sizes(args.sizes, {a.symbol for a in cq.body})
    hj = project_to_head(normalize(cq))
    if hj is None:
        print("cover: (boolean query, no edges)")
        print("log2-bound: 0")
        print("bound: 1")
        return 0
    rep = min_cover_lp(hj.hypergraph, hj.edge_sizes(sizes))
    for edge, root, w in zip(hj.hypergraph.edges, hj.roots, rep.cover.weights):
        attrs = ",".join(a.name for a in edge)
        print(f"cover {root}({attrs}): {w}")
    print(f"log2-bound: {rep.log2_bound}")
    if rep.log2_bound.denominator == 1:
        print(f"bound: {2 ** rep.log2_bound.numerator}")
    else:
        print(f"bound: {rep.bound}")
    return 0


# --------------------------------------------------------------------------
# gen


def _build_bundle(args) -> InstanceBundle:
    fam = args.family

    def need(*flags: str) -> None:
        missing = [f for f in flags if getattr(args, f.lstrip("-").replace("-", "_"), None) is None]
        if missing:
            raise GeneratorParameterError(f"family {fam!r} needs {', '.join(missing)}")

    if fam == "triangle-bad":
        need("--m")
        return gen_triangle_bad(args.m)
    if fam == "lw-bad":
        need("--n", "--N")
        return gen_lw_bad(args.n, args.N)
    if fam == "clique":
        need("--k", "--N")
        return gen_clique_query(args.k, args.N, args.seed)
    if fam == "lw":
        need("--k", "--N")
        return gen_lw_query(args.k, args.N, args.seed)
    if fam == "chase-witness":
        need("--N")
        return gen_chase_witness(args.N)
    if fam == "random":
        need("--n", "--m", "--sizes-list", "--domain")
        sizes = _int_list("--sizes-list", args.sizes_list)
        return gen_random(args.seed, args.n, args.m, sizes if len(sizes) > 1 else sizes[0], args.domain)
    raise GeneratorParameterError(f"unknown family {fam!r}")


def cmd_gen(args) -> int:
    bundle = _build_bundle(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    if isinstance(bundle.query, JoinQuery):
        names = [f"R{i}" for i in range(len(bundle.relations))]
        for name, rel in zip(names, bundle.relations):
            write_relation_file(out / f"{name}.rel", name, [a.name for a in rel.schema], rel)
            files[name] = f"{name}.rel"
        query = ConjunctiveQuery(
            Atom("Q", tuple(a.name for a in bundle.query.attrs)),
            tuple(Atom(n, tuple(a.name for a in r.schema))
                  for n, r in zip(names, bundle.relations)),
        )
    else:
        query = bundle.query
        for name, rows in sorted(bundle.relations.items()):
            width = len(next(iter(rows))) if rows else 0
            cols = [f"c{i}" for i in range(width)]
            write_relation_file(out / f"{name}.rel", name, cols, rows)
            files[name] = f"{name}.rel"
    write_query_file(out / "query.txt", query)
    manifest = {
        "family": bundle.name,
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in bundle.params.items()},
        "expected_size": bundle.expected_size,
        "relations": files,
        "query": "query.txt",
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                                       encoding="utf-8")
    print(f"wrote {len(files)} relation files to {out}", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# bench


@dataclass
class BenchReport:
    """All bench cells plus the per-algorithm exponent fits."""

    rows: list[dict]
    fits: list[dict]


def _suite_instance(suite: str, v: int, n: int, seed: int) -> InstanceBundle:
    if suite == "triangle-bad":
        return gen_triangle_bad(v)
    if suite == "lw-bad":
        return gen_lw_bad(n, (n - 1) * v + 1)  # v is the domain size d
    if suite == "random-equal":
        return gen_clique_query(3, v, seed)
    raise QueryFormatError(f"unknown suite {suite!r}")


def run_bench(suite: str, algos: Sequence[str], ns: Sequence[int], seed: int = 0,
              n: int = 3, budget: float | None = 60.0) -> BenchReport:
    parsed = [_parse_algo(a) for a in algos]
    rows = []
    series: dict[str, list[tuple[int, int]]] = {name: [] for name, _, _ in parsed}
    for v in sorted(set(ns)):
        bundle = _suite_instance(suite, v, n, seed)
        for name, kind, payload in parsed:
            res = _run_algo(kind, payload, bundle.query, budget, guard_oracle=True)
            cell = {**vars(res), "generator": suite, "param": v, "algorithm": name}
            rows.append({c: cell[c] for c in BENCH_COLUMNS})
            if res.status == "ok" and res.total_ops is not None:
                series[name].append((v, res.total_ops))
    fits = []
    for name, pts in series.items():
        if len(pts) >= 4:
            exp, resid = fit_exponent([p for p, _ in pts], [o for _, o in pts])
            fits.append({"generator": suite, "algorithm": name,
                         "exponent": f"{exp:.4f}", "residual": f"{resid:.4f}",
                         "points": len(pts)})
    return BenchReport(rows, fits)


def cmd_bench(args) -> int:
    ns = _int_list("--ns", args.ns)
    if len(set(ns)) < 4:
        raise QueryFormatError(f"--ns needs at least 4 distinct values, got {sorted(set(ns))}")
    algos = [a for a in args.algos.split(",") if a]
    if not algos:
        raise QueryFormatError("--algos needs at least one algorithm")
    # re-glue pairwise specs that were split on commas (e.g. pairwise:0,2,1)
    glued: list[str] = []
    for a in algos:
        if glued and glued[-1].startswith("pairwise:") and a.isdigit():
            glued[-1] += f"-{a}"
        else:
            glued.append(a)
    report = run_bench(args.suite, glued, ns, seed=args.seed, n=args.n,
                       budget=_budget(args, 60.0))
    _write_out(args.out, _csv(BENCH_COLUMNS, report.rows))
    sys.stderr.write(_csv(FIT_COLUMNS, report.fits))
    return 0


# --------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="agmjoin",
                                description="Join queries: evaluate, bound, generate, measure.")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="evaluate a query over a directory of relation files")
    r.add_argument("query", help="query file (one rule, optional fd lines)")
    r.add_argument("data", help="directory of .rel files")
    r.add_argument("--algo", default="leapfrog",
                   help="nprr | leapfrog | oracle | agm-plan | pairwise:<i-j-...>")
    r.add_argument("--out", default="-", help="output file ('-' = stdout)")
    r.add_argument("--timeout", type=float, default=None, help="time budget in seconds")
    r.set_defaults(func=cmd_run)

    b = sub.add_parser("bound", help="optimal fractional cover and output-size bound")
    b.add_argument("query")
    b.add_argument("--sizes", required=True, help="N for all tables, or R=N,S=M,...")
    b.add_argument("--fds", action="store_true",
                   help="apply the query file's dependency lines before bounding")
    b.set_defaults(func=cmd_bound)

    g = sub.add_parser("gen", help="write a generated instance to a directory")
    g.add_argument("--family", required=True,
                   choices=["triangle-bad", "lw-bad", "clique", "lw", "chase-witness", "random"])
    g.add_argument("--out", required=True)
    g.add_argument("--m", type=int, default=None, help="triangle-bad strength / random: #relations")
    g.add_argument("--n", type=int, default=None, help="lw-bad arity+1 / random: #attributes")
    g.add_argument("--N", type=int, default=None, help="rows per relation")
    g.add_argument("--k", type=int, default=None, help="clique/lw attribute count")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--sizes-list", default=None, help="random: rows per relation, comma list")
    g.add_argument("--domain", type=int, default=None, help="random: value domain size")
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("bench", help="scaling suite with operation-count exponent fits")
    c.add_argument("--suite", required=True, choices=["triangle-bad", "lw-bad", "random-equal"])
    c.add_argument("--algos", required=True,
                   help="comma list: nprr,leapfrog,oracle,agm-plan,pairwise:<i-j-...>")
    c.add_argument("--ns", required=True,
                   help="comma list of >= 4 instance parameters "
                        "(m for triangle-bad, domain d for lw-bad, N for random-equal)")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--n", type=int, default=3, help="lw-bad: number of attributes")
    c.add_argument("--timeout", type=float, default=None, help="per-cell budget in seconds")
    c.add_argument("--out", default="-", help="cells CSV destination ('-' = stdout)")
    c.set_defaults(func=cmd_bench)
    return p


# (exception type, exit code), first match wins; files that cannot be
# opened or decoded are parse failures like malformed ones.
_EXIT_CODES = ((QueryFormatError, 2), (SchemaError, 3), (PlanError, 3),
               (GeneratorParameterError, 4), (TimeBudgetExceeded, 1),
               (OSError, 2), (UnicodeDecodeError, 2))


_PARSER: argparse.ArgumentParser | None = None  # built by the first ``main`` call


def main(argv: Sequence[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for t, _ in _EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for t, code in _EXIT_CODES if isinstance(e, t))


if __name__ == "__main__":
    sys.exit(main())
