import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fractions import Fraction

import agmjoin
from agmjoin import CostMeter, cq_bound, gen_chase_witness, gen_triangle_bad, run_join
from agmjoin.cli import (
    BENCH_COLUMNS,
    _oracle_candidates,
    _parse_algo,
    _run_algo,
    fit_exponent,
    main,
    run_bench,
)
from agmjoin.errors import QueryFormatError
from agmjoin.formats import read_query_file, write_query_file, write_relation_file
from agmjoin.rewrite import FilterView, KeepView, normalize
from test_rewrite import key_chain_query, loop_endpoints_query, repeated_symbol_query, star_query


@pytest.fixture(autouse=True)
def _no_ambient_timeout(monkeypatch):
    monkeypatch.delenv("AGMJOIN_TIMEOUT", raising=False)


# ------------------------------------------------------------ helpers


def test_fit_exponent_recovers_a_power_law():
    params = [2, 4, 8, 16, 32, 64]
    slope, resid = fit_exponent(params, [p**2 for p in params])
    assert abs(slope - 2.0) < 1e-9
    assert resid < 1e-9


def test_fit_exponent_ignores_the_small_params():
    params = [1, 2, 3, 4, 5, 6, 7, 8]
    ops = [10**6] + [p**2 for p in params[1:]]  # garbage at the small end
    slope, _ = fit_exponent(params, ops)
    assert abs(slope - 2.0) < 1e-9


def test_fit_exponent_needs_four_points():
    with pytest.raises(ValueError):
        fit_exponent([1, 2, 3], [1, 2, 3])


def test_parse_algo_accepts_the_documented_names():
    assert _parse_algo("nprr")[1] == "wcoj"
    assert _parse_algo("leapfrog")[1] == "wcoj"
    assert _parse_algo("oracle") == ("oracle", "oracle", None)
    assert _parse_algo("agm-plan") == ("agm-plan", "agm", None)
    assert _parse_algo("pairwise:0-2-1")[2] == (0, 2, 1)
    assert _parse_algo("pairwise:0,2,1")[2] == (0, 2, 1)
    with pytest.raises(QueryFormatError):
        _parse_algo("zigzag")
    with pytest.raises(QueryFormatError):
        _parse_algo("pairwise:a-b")
    with pytest.raises(QueryFormatError):
        _parse_algo("pairwise:0")


def test_oracle_guard_skips_hopeless_cells():
    q = gen_triangle_bad(4096).query  # ~4097^3 candidate tuples
    assert _oracle_candidates(q) > 50_000_000
    res = _run_algo("oracle", None, q, None, guard_oracle=True)
    assert res.status == "skipped"
    assert res.output is None


# ---------------------------------------------------------------- gen


def gen_dir(tmp_path, *argv):
    out = tmp_path / "inst"
    assert main(["gen", "--out", str(out), *argv]) == 0
    return out


def test_gen_writes_relations_query_and_manifest(tmp_path):
    out = gen_dir(tmp_path, "--family", "triangle-bad", "--m", "4")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["family"] == "triangle-bad"
    assert manifest["expected_size"] == 13
    assert manifest["relations"] == {"R0": "R0.rel", "R1": "R1.rel", "R2": "R2.rel"}
    assert (out / "query.txt").read_text() == "Q(A,B,C) :- R0(A,B), R1(B,C), R2(A,C).\n"
    assert (out / "R0.rel").read_text().startswith("# relation R0 schema A,B\n")


def test_gen_is_byte_identical_across_calls(tmp_path):
    a = gen_dir(tmp_path / "one", "--family", "clique", "--k", "3", "--N", "32", "--seed", "7")
    b = gen_dir(tmp_path / "two", "--family", "clique", "--k", "3", "--N", "32", "--seed", "7")
    for f in sorted(p.name for p in a.iterdir()):
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_gen_chase_witness_keeps_symbols_and_rule(tmp_path):
    out = gen_dir(tmp_path, "--family", "chase-witness", "--N", "8")
    q = (out / "query.txt").read_text()
    assert q == "Q(W,X,Y) :- R(W,X), R(W,W), S(X,Y).\n"
    assert (out / "R.rel").exists() and (out / "S.rel").exists()


def test_gen_random_family(tmp_path):
    out = gen_dir(tmp_path, "--family", "random", "--n", "3", "--m", "2",
                  "--sizes-list", "4,4", "--domain", "4")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["sizes"] == [4, 4]


def test_gen_missing_parameters_exit_4(tmp_path, capsys):
    assert main(["gen", "--family", "triangle-bad", "--out", str(tmp_path / "x")]) == 4
    assert "needs --m" in capsys.readouterr().err


def test_gen_bad_parameter_value_exit_4(tmp_path):
    assert main(["gen", "--family", "lw-bad", "--n", "3", "--N", "10",
                 "--out", str(tmp_path / "x")]) == 4


# ---------------------------------------------------------------- run


@pytest.fixture
def triangle_dir(tmp_path):
    return gen_dir(tmp_path, "--family", "triangle-bad", "--m", "4")


def run_cli(capsys, *argv):
    code = main(["run", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_leapfrog_matches_a_direct_engine_run(triangle_dir, capsys):
    code, out, err = run_cli(capsys, str(triangle_dir / "query.txt"), str(triangle_dir),
                             "--algo", "leapfrog")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# relation Q schema A,B,C"
    assert len(lines) == 1 + 13

    from agmjoin import leapfrog_strategy

    meter = CostMeter()
    direct = run_join(gen_triangle_bad(4).query, leapfrog_strategy(), meter=meter)
    assert {tuple(map(int, l.split(","))) for l in lines[1:]} == set(direct.output.rows)
    stats = dict(zip(err.splitlines()[0].split(","), err.splitlines()[1].split(",")))
    assert stats["algorithm"] == "leapfrog"
    assert stats["rows"] == "13"
    assert int(stats["probes"]) == meter.probes
    assert int(stats["advances"]) == meter.advances
    assert int(stats["total_ops"]) == meter.total_ops


def test_run_all_algorithms_agree_byte_for_byte(triangle_dir, capsys):
    outputs = set()
    for algo in ("nprr", "leapfrog", "oracle", "agm-plan", "pairwise:0-2-1"):
        code, out, _ = run_cli(capsys, str(triangle_dir / "query.txt"), str(triangle_dir),
                               "--algo", algo)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_run_writes_to_a_file(triangle_dir, tmp_path, capsys):
    dest = tmp_path / "result.rel"
    code, out, _ = run_cli(capsys, str(triangle_dir / "query.txt"), str(triangle_dir),
                           "--out", str(dest))
    assert code == 0
    assert out == ""
    assert dest.read_text().startswith("# relation Q schema A,B,C\n")


def test_run_chase_witness_round_trip(tmp_path, capsys):
    out = gen_dir(tmp_path, "--family", "chase-witness", "--N", "8")
    code, text, err = run_cli(capsys, str(out / "query.txt"), str(out))
    assert code == 0
    assert len(text.splitlines()) == 1 + 32  # header + N^2/2 tuples
    # The witness instance satisfies the key, so evaluating with the
    # dependency lines stripped changes nothing.
    data = dict(gen_chase_witness(8).relations)
    from agmjoin import evaluate_cq

    want = evaluate_cq(gen_chase_witness(8).query, data)
    got = {tuple(map(int, l.split(","))) for l in text.splitlines()[1:]}
    assert got == want


def test_run_boolean_query(tmp_path, capsys):
    inst = gen_dir(tmp_path, "--family", "triangle-bad", "--m", "2")
    (inst / "query.txt").write_text("Q() :- R0(A,B), R1(B,C), R2(A,C).\n")
    code, out, _ = run_cli(capsys, str(inst / "query.txt"), str(inst))
    assert code == 0
    assert out == "# boolean query Q: 1 = nonempty\n1\n"


def test_run_projecting_and_repeating_head(tmp_path, capsys):
    inst = gen_dir(tmp_path, "--family", "triangle-bad", "--m", "2")
    (inst / "query.txt").write_text("Q(B,B) :- R0(A,B), R1(B,C), R2(A,C).\n")
    code, out, _ = run_cli(capsys, str(inst / "query.txt"), str(inst))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# relation Q schema B,B"
    rows = {tuple(map(int, l.split(","))) for l in lines[1:]}
    assert rows == {(b, b) for b in range(3)}


def test_run_timeout_exits_1(tmp_path, capsys):
    """Every algorithm stops on the deadline; the oracle's candidate space here is ~121^3."""
    inst = gen_dir(tmp_path, "--family", "triangle-bad", "--m", "120")
    capsys.readouterr()  # drop what gen printed
    for algo in ("nprr", "leapfrog", "oracle", "agm-plan", "pairwise:0-1-2"):
        code, out, err = run_cli(capsys, str(inst / "query.txt"), str(inst),
                                 "--algo", algo, "--timeout", "1e-6")
        assert code == 1, algo
        assert err == f"error: {algo} exceeded its time budget\n"
        assert out == ""


def test_run_env_timeout_is_used(tmp_path, capsys, monkeypatch):
    inst = gen_dir(tmp_path, "--family", "clique", "--k", "3", "--N", "4096")
    monkeypatch.setenv("AGMJOIN_TIMEOUT", "1e-4")
    code, _, err = run_cli(capsys, str(inst / "query.txt"), str(inst), "--algo", "nprr")
    assert code == 1


def test_run_flag_overrides_env_timeout(triangle_dir, capsys, monkeypatch):
    monkeypatch.setenv("AGMJOIN_TIMEOUT", "1e-9")
    code, out, _ = run_cli(capsys, str(triangle_dir / "query.txt"), str(triangle_dir),
                           "--timeout", "60")
    assert code == 0


def test_run_bad_env_timeout_exits_2(triangle_dir, capsys, monkeypatch):
    monkeypatch.setenv("AGMJOIN_TIMEOUT", "soon")
    code, _, err = run_cli(capsys, str(triangle_dir / "query.txt"), str(triangle_dir))
    assert code == 2
    assert "not a number" in err


def test_run_parse_error_exits_2(tmp_path, triangle_dir, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("Q(A) <- R0(A,B).\n")
    code, _, err = run_cli(capsys, str(bad), str(triangle_dir))
    assert code == 2
    assert "line 1" in err


def test_run_unknown_algo_exits_2(triangle_dir, capsys):
    code, _, _ = run_cli(capsys, str(triangle_dir / "query.txt"), str(triangle_dir),
                         "--algo", "zigzag")
    assert code == 2


def test_run_missing_table_exits_3(tmp_path, triangle_dir, capsys):
    q = tmp_path / "q.txt"
    q.write_text("Q(A,B) :- R9(A,B).\n")
    code, _, err = run_cli(capsys, str(q), str(triangle_dir))
    assert code == 3
    assert "R9" in err


def test_run_arity_mismatch_exits_3(tmp_path, triangle_dir, capsys):
    q = tmp_path / "q.txt"
    q.write_text("Q(A) :- R0(A).\n")
    code, _, err = run_cli(capsys, str(q), str(triangle_dir))
    assert code == 3


@pytest.mark.parametrize("algo", ["agm-plan", "pairwise:0-1-2"])
def test_run_value_beyond_63_bits(tmp_path, capsys, algo):
    """The numpy plans answer a value >= 2^63 with nprr's bytes."""
    inst = gen_dir(tmp_path, "--family", "triangle-bad", "--m", "3")
    big = 2**63
    for name in ("R0", "R1", "R2"):
        with open(inst / f"{name}.rel", "a", encoding="utf-8") as f:
            f.write(f"{big},{big}\n")
    want = run_cli(capsys, str(inst / "query.txt"), str(inst), "--algo", "nprr")
    got = run_cli(capsys, str(inst / "query.txt"), str(inst), "--algo", algo)
    assert want[0] == got[0] == 0
    assert f"{big},{big},{big}\n" in want[1]
    assert got[1] == want[1]


def test_run_rows_narrower_than_the_atom_exit_3(tmp_path, triangle_dir, capsys):
    q = tmp_path / "q.txt"
    q.write_text("Q(A,B,C) :- R0(A,B,C).\n")
    code, _, err = run_cli(capsys, str(q), str(triangle_dir))
    assert code == 3
    assert "'R0' holds 2-tuples" in err


def test_run_missing_data_directory_exits_2(tmp_path, triangle_dir, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    code, _, err = run_cli(capsys, str(triangle_dir / "query.txt"), str(missing))
    assert code == 2
    assert str(missing) in err
    code, _, err = run_cli(capsys, str(triangle_dir / "query.txt"),
                           str(triangle_dir / "query.txt"))
    assert code == 2
    assert "query.txt" in err


def test_run_reads_only_the_tables_the_query_names(triangle_dir, capsys):
    query = str(triangle_dir / "query.txt")
    want = run_cli(capsys, query, str(triangle_dir), "--algo", "leapfrog", "--out", "-")
    (triangle_dir / "zz.rel").write_text("# relation Z schema A\nfoo\n", encoding="utf-8")
    got = run_cli(capsys, query, str(triangle_dir), "--algo", "leapfrog", "--out", "-")
    assert got == want
    assert got[0] == 0


def test_run_malformed_named_table_exits_2_naming_its_file(triangle_dir, capsys):
    with open(triangle_dir / "R1.rel", "a", encoding="utf-8") as f:
        f.write("foo,1\n")
    code, out, err = run_cli(capsys, str(triangle_dir / "query.txt"), str(triangle_dir))
    assert code == 2
    assert out == ""
    assert "R1.rel: line" in err
    assert "not an integer: 'foo'" in err


def test_values_past_pythons_digit_limit_exit_2(triangle_dir, tmp_path, capsys):
    with open(triangle_dir / "R1.rel", "a", encoding="utf-8") as f:
        f.write("1," + "9" * 5000 + "\n")
    code, out, err = run_cli(capsys, str(triangle_dir / "query.txt"), str(triangle_dir))
    assert (code, out) == (2, "")
    assert "R1.rel: line" in err and "value too long: 5000 digits" in err
    q = tmp_path / "q.txt"
    q.write_text("fd R: " + "2" * 5000 + " -> 1\nQ(A) :- R(A,B).\n")
    assert main(["bound", str(q), "--sizes", "16"]) == 2
    assert "line 1, column 7: value too long" in capsys.readouterr().err


@pytest.mark.parametrize("algo,code", [("leapfrog", 3), ("nprr", 0)])
def test_run_past_the_recursion_limit_exits_3(tmp_path, algo, code):
    """Leapfrog's plan nests about one level per attribute, so a wide query
    overflows the stack; that exits 3 naming the attribute count, while
    nprr answers.  The limit is lowered so 250 attributes are enough."""
    cols = ",".join(f"A{i}" for i in range(250))
    write_relation_file(tmp_path / "R.rel", "R", cols.split(","), [tuple(range(250))])
    (tmp_path / "q.txt").write_text(f"Q({cols}) :- R({cols}).\n")
    script = "import sys; sys.setrecursionlimit(200); from agmjoin.cli import main; sys.exit(main(sys.argv[1:]))"
    path = [str(Path(agmjoin.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", script, "run", str(tmp_path / "q.txt"), str(tmp_path),
                           "--algo", algo, "--out", "-"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert "a query of 250 attributes nests deeper than Python's recursion limit" in proc.stderr
    else:
        assert ",".join(map(str, range(250))) + "\n" in proc.stdout


def test_run_table_declared_twice_exits_2_even_when_unnamed(triangle_dir, capsys):
    (triangle_dir / "zz.rel").write_text("# relation Z schema A\n1\n", encoding="utf-8")
    (triangle_dir / "zzz.rel").write_text("# relation Z schema A\n2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, str(triangle_dir / "query.txt"), str(triangle_dir))
    assert code == 2
    assert "declared twice" in err


def test_run_pairwise_must_cover_all_atoms(triangle_dir, capsys):
    code, _, err = run_cli(capsys, str(triangle_dir / "query.txt"), str(triangle_dir),
                           "--algo", "pairwise:0-1")
    assert code == 2
    assert "exactly once" in err


def test_run_negative_value_exits_3(tmp_path, capsys):
    """The .rel parser reads a negative value; Relation refuses it."""
    inst = gen_dir(tmp_path, "--family", "triangle-bad", "--m", "2")
    with open(inst / "R0.rel", "a", encoding="utf-8") as f:
        f.write("-1,2\n")
    code, _, err = run_cli(capsys, str(inst / "query.txt"), str(inst))
    assert code == 3
    assert "non-encodable" in err


def test_run_value_error_names_its_table(tmp_path, capsys):
    inst = gen_dir(tmp_path, "--family", "triangle-bad", "--m", "2")
    with open(inst / "R0.rel", "a", encoding="utf-8") as f:
        f.write("-1,2\n")
    code, _, err = run_cli(capsys, str(inst / "query.txt"), str(inst))
    assert code == 3
    assert "error: table 'R0': row (-1, 2) has a non-encodable value" in err


# The first 16 hex digits of the sha256 of `run`'s stdout (per family) and
# of its stats CSV on stderr (per algorithm), recorded with the binder
# `run` used before it bound its data through HeadJoin.  agm-plan's stderr
# pins were re-recorded when its plan dropped no-op joins (a relation
# joined at a level whose attribute it lacks): total_ops fell, stdout held.
RUN_PINS = {
    "triangle-bad": (("--m", "30"), "7425d493c349e135", {
        "nprr": "2994c05959be8c62",
        "leapfrog": "cf268bc4518fc8e4",
        "oracle": "545f950e2a035c36",
        "agm-plan": "3c58bf78906cf49c",
        "pairwise:0-1-2": "95f0c1a349d3141d",
    }),
    "lw-bad": (("--n", "4", "--N", "31"), "1e7fad82bfee8795", {
        "nprr": "0caf0f85d1526b15",
        "leapfrog": "a89697f6b4949bb3",
        "oracle": "79fb89c6100b853f",
        "agm-plan": "739ec66902034e5a",
        "pairwise:0-1-2-3": "eff142324125a22c",
    }),
    "clique": (("--k", "4", "--N", "60"), "2cbe48806bab5567", {
        "nprr": "e06f41488fe54d31",
        "leapfrog": "df38dd35cfd34c5e",
        "oracle": "50b5c644d26d25a1",
        "agm-plan": "853b9adbeb7eafa8",
        "pairwise:0-1-2-3-4-5": "5f47d4efbf3e952b",
    }),
    "lw": (("--k", "4", "--N", "200"), "2cbe48806bab5567", {
        "nprr": "7510879b00a15241",
        "leapfrog": "c464c1049922f9c6",
        "oracle": "50b5c644d26d25a1",
        "agm-plan": "6c2d88cbc1c56a2e",
        "pairwise:0-1-2-3": "7e8d248de9153f25",
    }),
    # Both trie engines reuse a J side here (nprr 39 times, leapfrog 19), so
    # their stderr meters differ from runs that recompute it; stdout does not.
    "chase-witness": (("--N", "40"), "c0e985739b84ed98", {
        "nprr": "67769801ee726c89",
        "leapfrog": "b244a77c2155c013",
        "oracle": "9d6556a980233c57",
        "agm-plan": "eb0e5601bdf6c773",
        "pairwise:0-1-2": "5d54dc01f11dad1a",
    }),
    "random": (("--n", "4", "--m", "4", "--sizes-list", "30", "--domain", "6", "--seed", "3"),
               "3cbd93f0cff2a332", {
        "nprr": "a2252950d367c9e5",
        "leapfrog": "eb57815950ad852d",
        "oracle": "b4464fcbf85f59cb",
        "agm-plan": "c275b0fb337415f9",
        "pairwise:0-1-2-3": "71f6848974737da9",
    }),
}


@pytest.fixture(scope="module")
def pinned_dirs(tmp_path_factory):
    out = {}
    for family, (flags, _, _) in RUN_PINS.items():
        out[family] = tmp_path_factory.mktemp(family)
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["gen", "--family", family, "--out", str(out[family]), *flags]) == 0
    return out


def _sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("family,algo", [(f, a) for f, pin in RUN_PINS.items() for a in pin[2]])
def test_run_bytes_are_pinned(pinned_dirs, capsys, family, algo):
    d = pinned_dirs[family]
    code, out, err = run_cli(capsys, str(d / "query.txt"), str(d), "--algo", algo)
    assert code == 0
    assert (_sha16(out), _sha16(err)) == (RUN_PINS[family][1], RUN_PINS[family][2][algo])


def test_run_binds_permuted_filtered_and_repeated_atoms(tmp_path, capsys):
    """Atoms out of global order, a repeated symbol and a repeated variable:
    the body's views permute and filter columns on their way to the join."""
    (tmp_path / "query.txt").write_text("Q(A,B,C) :- R(B,A), R(A,C), S(C,C,B).\n")
    write_relation_file(tmp_path / "R.rel", "R", ["x", "y"], [(1, 0), (2, 1), (0, 2), (2, 0)])
    write_relation_file(tmp_path / "S.rel", "S", ["x", "y", "z"],
                        [(2, 2, 1), (0, 0, 2), (0, 1, 0), (1, 1, 3), (2, 2, 2)])
    views = normalize(read_query_file(tmp_path / "query.txt")).views.values()
    assert any(isinstance(v, KeepView) and isinstance(v.inner, FilterView) for v in views)
    for algo in ("nprr", "leapfrog", "oracle", "agm-plan", "pairwise:2-0-1"):
        code, out, _ = run_cli(capsys, str(tmp_path / "query.txt"), str(tmp_path),
                               "--algo", algo)
        assert code == 0, algo
        assert out == "# relation Q schema A,B,C\n0,1,2\n0,2,2\n1,2,0\n", algo


# Heads that are not the sorted body variables, so `run` projects the
# join's rows before it writes them; no `gen` family has such a head.
# The sha256 of stdout, recorded before `run` wrote its rows in one pass.
HEAD_PINS = {
    "permuted": ("Q(Y,X) :- R(X,Y).",
                 "3e28adfe4c7e4d66d66d20759ebc5ac8dc0c15d24599fcb555e32615c67ba94b"),
    "repeated": ("Q(X,X) :- R(X,Y).",
                 "73a3b44fe9e27a2b2450d130ef17de8c8116a86273c056b7fb5aa1b965813441"),
    "single": ("Q(Y) :- R(X,Y).",
               "622aa0ade105d7a22c73b9c3dfdc36fbd21c9f6b50edcc71347818e63ff9ffc5"),
    "projecting": ("Q(Z) :- R(X,Y), S(Y,Z).",
                   "47d44bf30f599aa2d061fd1478eae33791c573ccc6610c9d11f3a81d6afa90b4"),
    "projecting-permuted": ("Q(Z,X) :- R(X,Y), S(Y,Z).",
                            "17379dab3bf70cc6f0710e33ac5810812702811c41bb951d711a1186ed4c41c8"),
    "boolean": ("Q() :- R(X,Y), S(Y,Z).",
                "86b3c723a23e9e38cb131de4e6277d423265fc513a6c11205a1ec5a51b89f47c"),
}


@pytest.fixture(scope="module")
def head_dir(tmp_path_factory):
    """R(X,Y) and S(Y,Z), written unsorted, with values up to 10^12."""
    d = tmp_path_factory.mktemp("heads")
    r = [((i * 7) % 13, (i * 5) % 11 + (i % 3) * 10**12) for i in range(60, 0, -1)]
    s = [((i * 5) % 11 + (i % 2) * 10**12, (i * 3) % 17) for i in range(40)]
    for name, rows in (("R", r), ("S", s)):
        (d / f"{name}.rel").write_text(f"# relation {name} schema a,b\n"
                                       + "".join(f"{u},{v}\n" for u, v in rows))
    return d


@pytest.mark.parametrize("head,algo", [(h, a) for h in HEAD_PINS
                                       for a in ("nprr", "leapfrog", "oracle", "agm-plan")])
def test_run_head_bytes_are_pinned(head_dir, tmp_path, capsys, head, algo):
    query = tmp_path / "query.txt"
    query.write_text(HEAD_PINS[head][0] + "\n")
    code, out, err = run_cli(capsys, str(query), str(head_dir), "--algo", algo)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HEAD_PINS[head][1]
    if head != "boolean":  # the stats CSV counts the rows written
        assert err.splitlines()[1].split(",")[1] == str(out.count("\n") - 1)


# Run in a fresh interpreter: this test process may have loaded numpy already.
# Prints, after each step, the step and whether numpy is loaded.
_NUMPY_STEPS = r"""
import contextlib, io, json, sys

def step(name, out=None):
    print(json.dumps([name, "numpy" in sys.modules, out]))

import agmjoin
step("import agmjoin")
q = agmjoin.gen_triangle_bad(8).query
agmjoin.run_join(q)
step("run_join")
agmjoin.min_cover_lp(q.hypergraph, q.sizes)
step("min_cover_lp")
agmjoin.oracle_join(q)
step("oracle_join")

from agmjoin.cli import main

def cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, buf.getvalue()

d = sys.argv[1]
step("gen", cli("gen", "--family", "triangle-bad", "--m", "8", "--out", d))
step("bound", cli("bound", d + "/query.txt", "--sizes", "R0=17,R1=17,R2=17"))
for algo in ("leapfrog", "nprr", "oracle", "agm-plan"):
    step(algo, cli("run", d + "/query.txt", d, "--algo", algo, "--out", "-"))
"""


def test_numpy_loads_only_for_numpy_plans(tmp_path):
    path = [str(Path(agmjoin.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", _NUMPY_STEPS, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(ln) for ln in proc.stdout.splitlines()]
    assert [name for name, _, _ in steps] == [
        "import agmjoin", "run_join", "min_cover_lp", "oracle_join", "gen", "bound",
        "leapfrog", "nprr", "oracle", "agm-plan"]
    assert [name for name, loaded, _ in steps if loaded] == ["agm-plan"]
    outs = {name: out for name, _, out in steps if out is not None}
    assert all(code == 0 for code, _ in outs.values())
    assert outs["agm-plan"][1].count("\n") == 1 + 25  # the header and triangle-bad's 3m+1 rows
    assert outs["agm-plan"] == outs["leapfrog"]


# -------------------------------------------------------------- bound


def test_bound_triangle_equal_sizes(triangle_dir, capsys):
    code = main(["bound", str(triangle_dir / "query.txt"), "--sizes", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == (
        "cover R0(A,B): 1/2\n"
        "cover R1(B,C): 1/2\n"
        "cover R2(A,C): 1/2\n"
        "log2-bound: 6\n"
        "bound: 64\n"
    )


def test_bound_reports_exact_fractional_bounds(triangle_dir, capsys):
    code = main(["bound", str(triangle_dir / "query.txt"), "--sizes", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "log2-bound: 3/2\n" in out
    assert "bound: 2.8284271247461903\n" in out


def test_bound_per_table_sizes(triangle_dir, capsys):
    code = main(["bound", str(triangle_dir / "query.txt"),
                 "--sizes", "R0=2,R1=1048576,R2=2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cover R0(A,B): 1\n" in out
    assert "cover R1(B,C): 0\n" in out
    assert "bound: 4\n" in out


def test_bound_dependencies_only_count_when_asked(tmp_path, capsys):
    q = tmp_path / "q.txt"
    q.write_text("Q(W,X,Y) :- R(W,X), R(W,W), S(X,Y).\nfd R: 1 -> 2\n")
    assert main(["bound", str(q), "--sizes", "16"]) == 0
    assert "bound: 256\n" in capsys.readouterr().out
    assert main(["bound", str(q), "--sizes", "16", "--fds"]) == 0
    assert "bound: 16\n" in capsys.readouterr().out


def test_bound_boolean_query(tmp_path, capsys):
    q = tmp_path / "q.txt"
    q.write_text("Q() :- R(A,B).\n")
    assert main(["bound", str(q), "--sizes", "999"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("log2-bound: 0\nbound: 1\n")


def test_bound_missing_size_exits_3(triangle_dir, capsys):
    code = main(["bound", str(triangle_dir / "query.txt"), "--sizes", "R0=4,R1=4"])
    assert code == 3
    assert "R2" in capsys.readouterr().err


BOUND_QUERIES = {
    "star": star_query(),
    "loop-endpoints": loop_endpoints_query(),
    "repeated-symbol": repeated_symbol_query(False),
    "repeated-symbol-fd": repeated_symbol_query(True),
    "key-chain": key_chain_query(False),
    "key-chain-fds": key_chain_query(True),
}


@pytest.mark.parametrize("use_fds", [False, True], ids=["plain", "fds"])
@pytest.mark.parametrize("name", sorted(BOUND_QUERIES))
def test_bound_agrees_with_cq_bound(tmp_path, capsys, name, use_fds):
    c = BOUND_QUERIES[name]
    path = tmp_path / "q.txt"
    write_query_file(path, c)
    symbols = sorted({a.symbol for a in c.body})
    sizes = {s: 5 + 7 * i for i, s in enumerate(symbols)}  # distinct, not powers of two
    argv = ["bound", str(path), "--sizes", ",".join(f"{s}={n}" for s, n in sizes.items())]
    assert main(argv + ["--fds"] * use_fds) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("log2-bound: "))
    want = cq_bound(c if use_fds else dataclasses.replace(c, fds=()), sizes)
    assert Fraction(line[len("log2-bound: "):]) == want.log2_bound


def test_bound_bad_sizes_exit_2(triangle_dir, capsys):
    assert main(["bound", str(triangle_dir / "query.txt"), "--sizes", "lots"]) == 2


@pytest.mark.parametrize("sizes", ["R0=4,R0=9,R1=4,R2=4", "=4"])
def test_bound_ambiguous_sizes_exit_2(triangle_dir, capsys, sizes):
    assert main(["bound", str(triangle_dir / "query.txt"), "--sizes", sizes]) == 2
    assert "empty or repeated" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["R0=0,R1=4,R2=4", "-3", "0"])
def test_bound_non_positive_sizes_exit_2(triangle_dir, capsys, sizes):
    assert main(["bound", str(triangle_dir / "query.txt"), "--sizes", sizes]) == 2
    assert "at least 1" in capsys.readouterr().err


def test_one_parser_serves_every_call_in_a_process(triangle_dir, capsys, monkeypatch):
    """``main`` builds its parser once per process.  Alternating bound, run
    and a parse failure (exit 2) through it, each call prints and exits as
    it does through a freshly built parser."""
    q, d = str(triangle_dir / "query.txt"), str(triangle_dir)
    calls = [["bound", q, "--sizes", "16"], ["run", q, d, "--algo", "agm-plan"],
             ["run", q, "--algo", "nprr"], ["bound", q, "--sizes", "R0=2,R1=3,R2=5"],
             ["run", q, d], ["bound", q, "--sizes"]]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        return code, out, err

    builds = []
    build = agmjoin.cli.build_parser
    monkeypatch.setattr(agmjoin.cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(agmjoin.cli, "_PARSER", None)
    shared = [call(argv) for argv in calls]
    assert len(builds) == 1
    fresh = []
    for argv in calls:
        monkeypatch.setattr(agmjoin.cli, "_PARSER", None)
        fresh.append(call(argv))
    assert len(builds) == 1 + len(calls)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 2]
    assert "usage: agmjoin run" in shared[2][2]


# -------------------------------------------------------------- bench


def test_run_bench_cells_and_fits():
    report = run_bench("triangle-bad",
                       ["nprr", "leapfrog", "oracle", "agm-plan", "pairwise:0-1-2"],
                       [2, 4, 6, 8], budget=None)
    assert len(report.rows) == 4 * 5
    by_param = {}
    for row in report.rows:
        assert row["status"] == "ok"
        by_param.setdefault(row["param"], set()).add(row["emits"])
    # emits is output cardinality for every algorithm: all agree per param
    for v, emits in by_param.items():
        assert emits == {3 * v + 1}
    # the oracle is unmetered (no total_ops), so it gets no exponent fit
    assert {f["algorithm"] for f in report.fits} == {
        "nprr", "leapfrog", "agm-plan", "pairwise:0-1-2"
    }


def test_bench_csv_shape(tmp_path, capsys):
    dest = tmp_path / "cells.csv"
    code = main(["bench", "--suite", "triangle-bad", "--algos", "nprr,pairwise:0,2,1",
                 "--ns", "2,4,6,8", "--out", str(dest)])
    assert code == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 1 + 4 * 2
    # comma-separated pairwise atom lists are re-glued into one spec
    assert any(",pairwise:0-2-1," in l for l in lines[1:])
    fits = capsys.readouterr().err.splitlines()
    assert fits[0] == "generator,algorithm,exponent,residual,points"
    assert len(fits) == 1 + 2


def test_bench_lw_bad_suite_param_is_the_degree():
    report = run_bench("lw-bad", ["leapfrog"], [2, 4, 6, 8], n=3, budget=None)
    for row in report.rows:
        d = row["param"]
        assert row["emits"] == 3 * d + 1
        assert row["status"] == "ok"


def test_bench_marks_timeouts():
    report = run_bench("random-equal", ["nprr", "leapfrog", "pairwise:0-1-2"],
                       [512, 1024, 2048, 4096], budget=1e-5)
    assert {row["status"] for row in report.rows} == {"timeout"}
    assert {row["algorithm"] for row in report.rows} == {"nprr", "leapfrog", "pairwise:0-1-2"}
    counts = ("probes", "advances", "emits", "intermediate_max", "total_ops")
    for row in report.rows:  # an unfinished cell has no counts, whatever the algorithm
        assert [row[c] for c in counts] == [None] * len(counts), row
    assert report.fits == []  # nothing finished, nothing to fit


def test_bench_requires_four_distinct_params(capsys):
    code = main(["bench", "--suite", "triangle-bad", "--algos", "nprr",
                 "--ns", "2,4,4,2"])
    assert code == 2
    assert "4 distinct" in capsys.readouterr().err


def test_bench_runs_a_repeated_param_once(capsys):
    code = main(["bench", "--suite", "triangle-bad", "--algos", "nprr",
                 "--ns", "16,16,32,64,128"])
    assert code == 0
    out, err = capsys.readouterr()
    cells = [tuple(l.split(",")[1:3]) for l in out.splitlines()[1:]]
    assert sorted(cells) == [(v, "nprr") for v in ("128", "16", "32", "64")]
    fit = dict(zip(err.splitlines()[0].split(","), err.splitlines()[1].split(",")))
    assert fit["points"] == "4"


def _readme_bench(suite, algos, ns, n=3):
    report = run_bench(suite, algos, ns, n=n)
    assert {row["status"] for row in report.rows} == {"ok"}
    return report


def _column(report, algorithm, column):
    return [row[column] for row in report.rows if row["algorithm"] == algorithm]


@pytest.mark.parametrize("n, nprr_ops, pairwise_max", [
    (3, [348, 684, 1356, 2700], [305, 1121, 4289, 16769]),
    (4, [851, 1683, 3347, 6675], [321, 1153, 4353, 16897]),
])
def test_readme_lw_bad_numbers(n, nprr_ops, pairwise_max):
    pairwise = "pairwise:" + "-".join(map(str, range(n)))
    report = _readme_bench("lw-bad", ["nprr", pairwise], [16, 32, 64, 128], n=n)
    assert _column(report, "nprr", "total_ops") == nprr_ops
    assert _column(report, pairwise, "intermediate_max") == pairwise_max


def test_readme_triangle_bad_numbers():
    pairwise = ["pairwise:0-2-1", "pairwise:0-1-2", "pairwise:1-2-0"]
    report = _readme_bench("triangle-bad", ["nprr", "leapfrog", *pairwise],
                           [16, 32, 64, 128, 256, 512])
    exponents = {f["algorithm"]: f["exponent"] for f in report.fits}
    assert exponents == {"nprr": "0.9976", "leapfrog": "0.9975",
                         **{p: "1.9693" for p in pairwise}}
    for row in report.rows:
        if row["algorithm"] in pairwise:
            m = row["param"]
            assert row["intermediate_max"] == (m + 1) ** 2 + m, row


# ------------------------------------------------- failures reach no traceback


def _bad_utf8_dir(tmp_path):
    inst = gen_dir(tmp_path, "--family", "triangle-bad", "--m", "2")
    with open(inst / "R0.rel", "ab") as f:
        f.write(b"\xff\n")
    return inst


def _file_in_the_way(tmp_path):
    (tmp_path / "taken").write_text("")
    return tmp_path / "taken"


def _triangle_args(tmp_path):
    inst = gen_dir(tmp_path, "--family", "triangle-bad", "--m", "2")
    return [str(inst / "query.txt"), str(inst)]


BENCH = ["bench", "--suite", "triangle-bad", "--algos", "nprr"]

# (id, argv built from tmp_path, exit code); each of these used to escape
# main() as a raw Python exception.
FAILURES = [
    ("run-missing-query", lambda t: ["run", str(t / "nope.txt"), str(t)], 2),
    ("bound-query-is-a-directory", lambda t: ["bound", str(t), "--sizes", "3"], 2),
    ("run-out-in-missing-directory",
     lambda t: ["run", *_triangle_args(t), "--out", str(t / "missing" / "x")], 2),
    ("bench-out-in-missing-directory",
     lambda t: [*BENCH, "--ns", "2,4,6,8", "--out", str(t / "missing" / "x")], 2),
    ("run-non-utf8-relation-file",
     lambda t: ["run", str(_bad_utf8_dir(t) / "query.txt"), str(t / "inst")], 2),
    ("gen-out-is-a-file",
     lambda t: ["gen", "--family", "triangle-bad", "--m", "2", "--out", str(_file_in_the_way(t))], 2),
    ("bench-ns-not-integers", lambda t: [*BENCH, "--ns", "1,2,3,x"], 2),
    ("bench-algos-empty",
     lambda t: ["bench", "--suite", "triangle-bad", "--algos", ",", "--ns", "2,4,6,8"], 2),
    ("gen-sizes-list-not-integers",
     lambda t: ["gen", "--family", "random", "--n", "3", "--m", "2", "--sizes-list", "3,x",
                "--domain", "4", "--out", str(t / "r")], 2),
    ("gen-sizes-list-empty",
     lambda t: ["gen", "--family", "random", "--n", "3", "--m", "2", "--sizes-list", "",
                "--domain", "5", "--out", str(t / "r")], 2),
]


@pytest.mark.parametrize("argv,code", [f[1:] for f in FAILURES], ids=[f[0] for f in FAILURES])
def test_failures_exit_with_their_documented_code(tmp_path, capsys, argv, code):
    args = argv(tmp_path)
    capsys.readouterr()  # drop what set-up printed
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
