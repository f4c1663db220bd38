"""Self-test of the benchmark: the answer checks catch corrupted answers,
and every metric the benchmark prints is declared in BENCHMARK.json.

    python3 perfbench/selftest.py

Run it from the repository root.  It exits non-zero on the first failed
assertion.  The corruptions are made here, never in the package.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run

_, workloads = run._import_package()

from agmjoin.relational import Relation  # noqa: E402


def _drop_first_row(rel: Relation) -> Relation:
    return Relation(rel.schema, rel.rows[1:])


def test_join_checks_catch_corruption() -> None:
    steps = {s.label: s for s in workloads._query_steps(
        "t", workloads.gen_triangle_bad(20).query, 61, ("nprr", "leapfrog"))}
    seen: dict = {}
    rep = steps["t/bound@nprr"].call()
    assert steps["t/bound@nprr"].check(rep, seen)
    run_n = steps["t/join:nprr"].call()
    assert steps["t/join:nprr"].check(run_n, seen)
    run_l = steps["t/join:leapfrog"].call()
    assert steps["t/join:leapfrog"].check(run_l, dict(seen))

    short = dataclasses.replace(run_l, output=_drop_first_row(run_l.output))
    assert not steps["t/join:leapfrog"].check(short, dict(seen)), "missing row not flagged"
    # a wrong row that keeps the count: disagrees with nprr and is unsound
    rows = run_l.output.rows[:-1] + ((999, 999, 999),)
    swapped = dataclasses.replace(run_l, output=Relation(run_l.output.schema, rows))
    assert not steps["t/join:leapfrog"].check(swapped, dict(seen)), "wrong row not flagged"
    # a join that ran under another cover than its bound step returned
    other = dataclasses.replace(run_l, cover=workloads.bounds.cover(1, 1, 0))
    assert not steps["t/join:leapfrog"].check(other, dict(seen)), "cover mismatch not flagged"
    bad_cover = dataclasses.replace(rep, cover=workloads.bounds.cover(1, 0, 0))
    assert not steps["t/bound@nprr"].check(bad_cover, {}), "infeasible cover not flagged"


def test_oracle_check_catches_corruption() -> None:
    steps = workloads.many_small(1, "")(0)[:2]
    seen: dict = {}
    assert steps[0].check(steps[0].call(), seen)
    good = steps[1].call()
    assert steps[1].check(good, dict(seen))
    bad = dataclasses.replace(good, output=_drop_first_row(good.output))
    assert not steps[1].check(bad, dict(seen)), "oracle mismatch not flagged"


def test_cli_checks_catch_corruption(work: str) -> None:
    steps = [s for s in workloads.cli_files(1, work)(0) if s.qid.startswith("triangle-bad")]
    seen: dict = {}
    for s in steps:
        assert s.check(s.call(), seen), s.label
    last = steps[-1]
    res = last.call()
    out_path = last.check.args[-1]
    with open(out_path, encoding="utf-8") as f:
        lines = f.readlines()
    with open(out_path, "w", encoding="utf-8") as f:
        f.writelines(lines[:-1])
    assert not last.check(res, dict(seen)), "short output file not flagged"
    assert not last.check((3, "", ""), dict(seen)), "non-zero exit not flagged"


def test_failures_are_counted_and_the_pass_goes_on() -> None:
    def boom():
        raise RuntimeError("injected")

    steps = [workloads.Step("a", "a", "join", boom, lambda out, seen: True),
             workloads.Step("b", "b", "join", lambda: 1, lambda out, seen: out == 2),
             workloads.Step("c", "c", "join", lambda: 1, lambda out, seen: out == 1)]
    failures: list[str] = []
    done = run.run_pass(steps, run.Clock(), failures=failures)
    assert [ok for *_, ok in done] == [False, False, True]
    assert len(failures) == 2


def test_printed_metrics_match_benchmark_json() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", w["name"],
                                "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
                               capture_output=True, text=True, timeout=300)
            assert p.returncode == 0, p.stderr
            res = json.loads(p.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0, (w["name"], trace, p.stderr)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == declared[trace], (w["name"], trace, set(got) ^ set(declared[trace]))


def main() -> int:
    work = os.path.join(os.getcwd(), ".perfbench", f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        test_join_checks_catch_corruption()
        test_oracle_check_catches_corruption()
        test_cli_checks_catch_corruption(work)
        test_failures_are_counted_and_the_pass_goes_on()
        test_printed_metrics_match_benchmark_json()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
