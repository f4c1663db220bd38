"""The benchmark's workloads: inputs, the timed steps of a pass, and checks.

Every workload is a closed loop with one client: a pass runs its steps
one after another, each a single call into the package's public entry
points, looked up on the module at call time so the traced run's
wrappers see it.  A step's ``kind`` names the latency it feeds: ``join``
(``run_join``, or ``agmjoin run``) or ``bound`` (``min_cover_lp``, or
``agmjoin bound``).  Inputs depend only on the seed.

Why these workloads:

* ``wcoj-large``: five large instances, each joined by nprr and by
  leapfrog, every join priced first.  Trie builds and the recursion do
  most of the work; the LP is under 5% of join time.  Uniform random data
  (cliques, Loomis-Whitney) sits next to the skewed adversarial families,
  and the random 4-clique holds nprr's perfect-matching-cover pathology.
* ``many-small``: a fixed grid of small random queries, each priced and
  then joined, with new queries every pass.  Per-query fixed costs
  dominate (the exact LP, tiny trie builds, ``Relation`` construction),
  and each query's LP is solved twice, once in each step: the repeat a
  cover cache would remove.  The grid fixes attribute count, relation
  count and size class per query, so the seed moves the data but not the
  mix; the domain shrinks with the attribute count to keep the
  brute-force reference affordable.
* ``cli-files``: ``agmjoin bound`` and ``agmjoin run`` in-process over
  directories ``agmjoin gen`` wrote at set-up, each run priced first.
  The only workload that parses and writes files and runs the rewrites
  and the numpy plans.

wcoj-large and cli-files repeat the same inputs every pass, so a cache
keyed on inputs would hit from the second pass on; many-small draws new
queries for every pass, so only the repeat inside a query can hit.

A step's check gets its result and the answers earlier steps of the same
pass left in ``seen``: joins of one query must agree with each other, a
join must use the cover its query's bound step returned, and no output
may exceed the size bound.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from agmjoin import bounds, cli, engine
from agmjoin.instances import (
    gen_clique_query,
    gen_lw_bad,
    gen_lw_query,
    gen_random,
    gen_triangle_bad,
)
from agmjoin.relational import JoinQuery, Relation, oracle_join

STRATEGIES = {"nprr": engine.nprr_strategy(), "leapfrog": engine.leapfrog_strategy()}


@dataclass(frozen=True)
class Step:
    label: str  # unique within a pass
    qid: str  # query id, shared by the steps of one query
    kind: str  # "join" | "bound"
    call: Callable[[], object]
    check: Callable[[object, dict], bool]  # (result, seen) -> answer is right


# --------------------------------------------------------------------------
# checks


def _within_bound(rows: int, bound: float) -> bool:
    return rows <= bound * (1 + 1e-9)


def _sound(q: JoinQuery, out: Relation) -> bool:
    """Every output row projects into every relation of the query."""
    if out.schema != q.attrs:
        return False
    for r in q.relations:
        idx = [q.attrs.index(a) for a in r.schema]
        if not all(tuple(t[i] for i in idx) in r for t in out.rows):
            return False
    return True


def check_bound(q: JoinQuery, qid: str, expected_size: int | None, rep, seen: dict) -> bool:
    """A feasible cover whose reported bound is its own and holds the output."""
    seen[("bound", qid)] = rep
    h = q.hypergraph
    return (bounds.is_cover(h, rep.cover)
            and bounds.agm_bound(h, q.sizes, rep.cover).log2_bound == rep.log2_bound
            and (expected_size is None or _within_bound(expected_size, rep.bound)))


def check_join(q: JoinQuery, qid: str, expected: Relation | int | None, run, seen: dict) -> bool:
    """Right rows (oracle, closed-form size or the other strategy), within the bound."""
    out = run.output
    first = seen.setdefault(("join", qid), out)
    rep = seen.get(("bound", qid))
    if isinstance(expected, Relation):
        right = out == expected
    else:
        right = _sound(q, out) and out == first and (expected is None or len(out) == expected)
    return (right
            and (rep is None or run.cover == rep.cover)
            and _within_bound(len(out), bounds.agm_bound(q.hypergraph, q.sizes, run.cover).bound))


def _bound(q: JoinQuery):
    return bounds.min_cover_lp(q.hypergraph, q.sizes)


def _join(q: JoinQuery, strategy: str):
    return engine.run_join(q, STRATEGIES[strategy])


def _query_steps(qid: str, q: JoinQuery, expected, strategies) -> list[Step]:
    """Each join of the query, priced first."""
    size = len(expected) if isinstance(expected, Relation) else expected
    steps = []
    for s in strategies:
        steps.append(Step(f"{qid}/bound@{s}", qid, "bound", partial(_bound, q),
                          partial(check_bound, q, qid, size)))
        steps.append(Step(f"{qid}/join:{s}", qid, "join", partial(_join, q, s),
                          partial(check_join, q, qid, expected)))
    return steps


# --------------------------------------------------------------------------
# wcoj-large

WCOJ_LARGE = (
    ("clique3-N5000", lambda seed: gen_clique_query(3, 5000, seed)),
    ("clique4-N1600", lambda seed: gen_clique_query(4, 1600, seed)),
    ("triangle-bad-m5000", lambda seed: gen_triangle_bad(5000)),
    ("lw-bad-n4-N7501", lambda seed: gen_lw_bad(4, 7501)),
    ("lw-k4-N5000", lambda seed: gen_lw_query(4, 5000, seed)),
)


def wcoj_large(seed: int, workdir: str) -> Callable[[int], list[Step]]:
    steps: list[Step] = []
    for qid, make in WCOJ_LARGE:
        b = make(seed)
        steps += _query_steps(qid, b.query, b.expected_size, ("nprr", "leapfrog"))
    return lambda p: steps


# --------------------------------------------------------------------------
# many-small

# Attribute count -> domain size; domain ** n bounds the oracle's candidates.
MANY_SMALL_DOMAIN = {3: 20, 4: 9, 5: 6}
MANY_SMALL_ROWS = ((20, 60), (60, 150), (150, 300))  # row-count classes


def _many_small_batch(seed: int, p: int) -> list[Step]:
    rng = random.Random(f"many-small:{seed}:{p}")
    steps: list[Step] = []
    i = 0
    for lo, hi in MANY_SMALL_ROWS:
        for n, domain in MANY_SMALL_DOMAIN.items():
            for m in range(2, 7):
                qseed = rng.randrange(2**31)
                # The shape depends on (seed, n, m) only, so sizes can be
                # capped at half of each relation's tuple space.
                shape = gen_random(qseed, n, m, 1, domain)
                sizes = [min(rng.randint(lo, hi), max(1, domain ** r.arity // 2))
                         for r in shape.relations]
                q = gen_random(qseed, n, m, sizes, domain).query
                strategy = ("nprr", "leapfrog")[i % 2]
                steps += _query_steps(f"p{p}-q{i:02d}-n{n}-m{m}", q, oracle_join(q), (strategy,))
                i += 1
    return steps


def many_small(seed: int, workdir: str) -> Callable[[int], list[Step]]:
    """Pass p gets its own queries, so no query recurs across passes.

    Only the first pass's queries are made at set-up and kept; later ones
    are made between passes and dropped after, so memory does not grow
    with the number of passes.
    """
    first = _many_small_batch(seed, 0)
    return lambda p: first if p == 0 else _many_small_batch(seed, p)


# --------------------------------------------------------------------------
# cli-files

CLI_FILES = (  # (directory, `agmjoin gen` flags, `agmjoin run` algorithms)
    ("chase-witness-N300", ("--family", "chase-witness", "--N", "300"), ("leapfrog", "nprr")),
    ("lw-k4-N5000", ("--family", "lw", "--k", "4", "--N", "5000"), ("leapfrog", "nprr")),
    ("triangle-bad-m1000", ("--family", "triangle-bad", "--m", "1000"),
     ("agm-plan", "pairwise:0-1-2", "leapfrog")),
)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _row_count(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip() and not line.startswith("#"))


def check_cli_bound(qid: str, expected_size: int | None, res, seen: dict) -> bool:
    rc, out, _ = res
    lines = [ln for ln in out.splitlines() if ln.startswith("bound: ")]
    if rc != 0 or len(lines) != 1:
        return False
    bound = float(lines[0].split()[1])
    seen[("bound", qid)] = bound
    return expected_size is None or _within_bound(expected_size, bound)


def check_cli_run(qid: str, expected_size: int | None, out_path: str, res, seen: dict) -> bool:
    """Exit 0 and the expected row count; strategies of one query agree."""
    if res[0] != 0:
        return False
    with open(out_path, "rb") as f:
        body = f.read()
    rows = body.count(b"\n") - 1  # one header line, one line per row
    digest = hashlib.sha256(body).hexdigest()
    first = seen.setdefault(("join", qid), digest)
    bound = seen.get(("bound", qid))
    return ((expected_size is None or rows == expected_size)
            and digest == first
            and (bound is None or _within_bound(rows, bound)))


def cli_files(seed: int, workdir: str) -> Callable[[int], list[Step]]:
    steps: list[Step] = []
    for qid, flags, algos in CLI_FILES:
        d = os.path.join(workdir, qid)
        rc, _, err = _cli(["gen", *flags, "--seed", str(seed), "--out", d])
        if rc != 0:
            raise RuntimeError(f"agmjoin gen {' '.join(flags)} failed: {err}")
        with open(os.path.join(d, "manifest.json"), encoding="utf-8") as f:
            manifest = json.load(f)
        expected = manifest["expected_size"]
        sizes = ",".join(f"{sym}={_row_count(os.path.join(d, name))}"
                         for sym, name in sorted(manifest["relations"].items()))
        query = os.path.join(d, manifest["query"])
        for algo in algos:
            steps.append(Step(f"{qid}/bound@{algo}", qid, "bound",
                              partial(_cli, ["bound", query, "--sizes", sizes]),
                              partial(check_cli_bound, qid, expected)))
            # outside the data directory, which `agmjoin run` reads whole
            out = os.path.join(workdir, f"{qid}-{algo.replace(':', '-')}.out")
            steps.append(Step(f"{qid}/join:{algo}", qid, "join",
                              partial(_cli, ["run", query, d, "--algo", algo, "--out", out]),
                              partial(check_cli_run, qid, expected, out)))
    return lambda p: steps


WORKLOADS = {"wcoj-large": wcoj_large, "many-small": many_small, "cli-files": cli_files}
