"""CLI behavior: outputs, exit codes, determinism, and the cache."""

import argparse
import functools
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from edgeideals import cache
from edgeideals.cache import ResultCache
from edgeideals.cli import _caps, build_parser, main
from edgeideals.enumeration import enumerate_graphs
from edgeideals.graph6 import graph_to_graph6
from edgeideals.graphs import Graph, cycle, path
from edgeideals.monomials import generated_in_single_degree
from edgeideals.resolutions import DEFAULT_CAPS
from edgeideals.verification import (
    _REGISTRY,
    CONJECTURES,
    FAIL,
    STATEMENTS,
    InvariantStore,
    VerificationReport,
    run_statement,
    statement_params,
)

from benchmark_runs import RUN as BENCHMARK_RUN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def test_betti_builder(capsys):
    code, out, _ = run_cli(capsys, "betti", "--builder", "cycle:4")
    assert code == 0
    doc = json.loads(out)
    assert doc["reg"] == 2 and doc["pd"] == 2
    assert {"i": 0, "j": 2, "beta": 4} in doc["entries"]


def test_betti_power_and_oracle(capsys):
    code, out, _ = run_cli(capsys, "betti", "--builder", "cycle:5", "--power", "2")
    assert code == 0
    assert json.loads(out)["reg"] == 4
    code, out, _ = run_cli(capsys, "betti", "--builder", "path:3", "--oracle", "--multi")
    assert code == 0
    doc = json.loads(out)
    assert doc["multi"]


@pytest.mark.parametrize("argv", [["--builder", "anticycle:5", "--power", "2"], ["--builder", "complete:6"]])
def test_betti_oracle_agrees_at_fifteen_generators(capsys, argv):
    # 15 generators, under the default Taylor cap of 16: the oracle finishes and agrees
    code, out, _ = run_cli(capsys, "betti", *argv)
    assert code == 0
    assert run_cli(capsys, "betti", *argv, "--oracle") == (0, out, "")


def test_betti_oracle_agrees_over_the_membership_table_cap(capsys):
    # the box below the top has 2001 * 3001 * 1501 * 901 (about 8e12) points, far over the
    # default membership_table_max, so default caps run the lattice grown atom by atom and
    # the membership stand-in; the stdout digest was taken from an earlier fallback engine
    ideal = '["x0^2000*x1","x1^3000*x2","x0*x2^1500","x3^900"]'
    code, out, err = run_cli(capsys, "betti", "--ideal", ideal, "--nvars", "4", "--oracle")
    assert (code, err) == (0, "")
    assert json.loads(out)["reg"] == 7397
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "79e9c25739b09a592f4ec1c43fbfbafd6cb3d7d94933bff22a4f15d759691873"
    )


def test_betti_graph6_and_ideal(capsys):
    g6 = graph_to_graph6(Graph(2, [(0, 1)]))
    code, out, _ = run_cli(capsys, "betti", "--graph6", g6)
    assert code == 0
    assert json.loads(out)["entries"] == [{"beta": 1, "i": 0, "j": 2}]
    code, out, _ = run_cli(
        capsys, "betti", "--ideal", '["x0^2","x0*x1","x1^2"]', "--nvars", "2"
    )
    assert code == 0
    assert json.loads(out)["reg"] == 2


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "betti", "--builder", "nope:3")
    assert code == 2 and "builder" in err
    code, _, err = run_cli(
        capsys, "betti", "--builder", "cycle:5", "--lattice-cap", "3"
    )
    assert code == 3 and "cap" in err
    code, _, _ = run_cli(capsys, "betti")
    assert code == 2
    # an ideal statement that hits a cap exits 3 with empty stdout, not with a skipped report
    code, out, err = run_cli(capsys, "verify", "--statement", "splitting", *SPLIT_ARGV, "--lattice-cap", "1")
    assert (code, out) == (3, "") and "cap" in err
    code, _, _ = run_cli(capsys, "verify", "--statement", "nonsense", "--builder", "cycle:4")
    assert code == 2
    # the interval oracle's face cap is a test-suite knob, not a CLI flag
    code, out, _ = run_cli(capsys, "betti", "--builder", "cycle:4", "--face-cap", "5")
    assert code == 2 and out == ""
    # an ideal is a JSON list of monomial strings; a bare string is not read letter by letter
    for ideal in ("[1]", '[["x0"]]', '"x0"', '{"x0": 1}'):
        code, out, err = run_cli(capsys, "betti", "--ideal", ideal, "--nvars", "2")
        assert (code, out) == (2, ""), ideal
        assert "list of monomial strings" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--statement", "bht", "--builder", "cycle:5", "--kmax", "0"], "--kmax"),
        (["verify", "--statement", "blemma", "--builder", "cycle:5", "--k", "-1"], "--k "),
        (["verify", "--statement", "keylemma", "--builder", "cycle:5", "--k", "-2"], "--k "),
        (["verify", "--statement", "bounds", "--max-n", "-1"], "--max-n"),
        (["verify", "--statement", "bounds", "--max-n", "0"], "--max-n"),
        (["scan", "--conjecture", "np", "--max-n", "3", "--kmax", "0"], "--kmax"),
        (["scan", "--conjecture", "np", "--max-n", "-1"], "--max-n"),
        (["scan", "--conjecture", "np", "--max-n", "4", "--kmax", "1"], "np scans need k_max >= 2"),
        (["verify", "--statement", "main2", "--builder", "cycle:4", "--kmax", "1"], "main2 needs k_max >= 2"),
        (
            ["scan", "--conjecture", "newconj2", "--max-n", "4", "--cg", "3", "--kmax", "2"],
            "newconj2 scans need k_max >= c_G",
        ),
        (
            ["scan", "--conjecture", "newconj2", "--max-n", "3", "--kmax", "2", "--cg", "0"],
            "newconj2 scans need k_max >= c_G >= 1",
        ),
        (
            ["scan", "--conjecture", "newconj2", "--max-n", "3", "--kmax", "2", "--cg", "-1"],
            "newconj2 scans need k_max >= c_G >= 1",
        ),
        (["verify", "--statement", "froberg", "--builder", "cycle:5", "--lattice-cap", "-3"], "--lattice-cap"),
        (["scan", "--conjecture", "np", "--max-n", "3", "--lattice-cap", "0"], "--lattice-cap"),
        (["verify", "--statement", "hhz", "--builder", "cycle:5", "--lq-cap", "0"], "--lq-cap"),
        (["verify", "--statement", "hhz", "--builder", "cycle:5", "--time-budget", "-1"], "--time-budget"),
        (["verify", "--statement", "hhz", "--builder", "cycle:5", "--time-budget", "0"], "--time-budget"),
        (["verify", "--statement", "hhz", "--builder", "cycle:5", "--time-budget", "nan"], "--time-budget"),
        (["verify", "--statement", "froberg", "--builder", "cycle:4", "--jobs", "-3"], "--jobs"),
        (["verify", "--statement", "froberg", "--builder", "cycle:4", "--jobs", "0"], "--jobs"),
        (["scan", "--conjecture", "np", "--graph6", "ZZZ"], "graph6"),
        (["verify", "--statement", "froberg", "--graph6", "A_", "--builder", "cycle:4"], "not allowed with"),
        (["scan", "--conjecture", "np", "--max-n", "3", "--builder", "cycle:4"], "not allowed with"),
    ],
    ids=[
        "bht-kmax-0", "blemma-k-neg", "keylemma-k-neg", "max-n-neg", "max-n-0", "scan-kmax-0",
        "scan-max-n-neg", "np-kmax-1", "main2-kmax-1", "newconj2-cg-above-kmax", "newconj2-cg-0",
        "newconj2-cg-neg",
        "lattice-cap-neg", "scan-lattice-cap-0", "lq-cap-0", "time-budget-neg", "time-budget-0",
        "time-budget-nan", "jobs-neg", "jobs-0", "scan-bad-graph6", "two-sources", "scan-two-sources",
    ],
)
def test_out_of_range_counts_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--no-cache")
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--statement", "nope", "--max-n", "3"],
        ["--statement", "np", "--max-n", "3"],
        ["--statement", "colon", "--ideal", '["x0"]', "--monomial", "x0"],
        ["--statement", "colon", "--ideal", '["x0"]', "--nvars", "1"],
        ["--statement", "splitting", "--ideal", '["x0","x1"]', "--part-j", '["x0"]', "--nvars", "2"],
        ["--statement", "abc", "--ideal", '["x0"]', "--nvars", "1"],
        ["--statement", "abc", "--ideal", "[x0", "--part-j", '["x0"]', "--nvars", "1"],
        [
            "--statement", "splitting", "--ideal", '["x0","x1"]', "--part-j", '["x0"]', "--part-k", '["x0"]',
            "--nvars", "2",
        ],
        ["--statement", "colon", "--ideal", "[]", "--monomial", "x0", "--nvars", "2"],
        ["--statement", "splitting", "--ideal", "[null]", "--part-j", '["x0"]', "--part-k", '["x1"]', "--nvars", "2"],
        ["--statement", "abc", "--ideal", '["x0"]', "--part-j", '"x0"', "--nvars", "1"],
        ["--statement", "splitting", "--ideal", '["x0","x1"]', "--part-j", '["x0"]', "--part-k", "[2]", "--nvars", "2"],
        ["--statement", "froberg"],
        ["--statement", "froberg", "--builder", "foo:3"],
        ["--statement", "froberg", "--graph6-file", "/nonexistent/graphs.g6"],
        # errors that the checks raise on the family's graphs, after its inputs were read
        ["--statement", "main2", "--max-n", "3", "--set", "0,1"],
        ["--statement", "keylemma", "--builder", "cycle:4", "--cover", "9"],
    ],
    ids=[
        "unknown", "scan-only", "no-nvars", "colon-no-monomial", "splitting-no-part-k", "abc-no-part-j",
        "bad-json", "splitting-not-a-partition", "colon-zero-ideal", "ideal-not-strings", "part-j-a-string",
        "part-k-not-strings", "no-graph", "bad-builder", "no-file", "set-not-independent",
        "cover-out-of-range",
    ],
)
def test_verify_input_errors_print_no_header(capsys, argv):
    # the ideal statements read no cache flag, so only graph statements get --no-cache
    no_cache = () if argv[1] in IDEAL_ARGV else ("--no-cache",)
    code, out, err = run_cli(capsys, "verify", *argv, *no_cache)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# flag -> (the statement parameter it gives, a value that cycle:4 accepts)
PARAM_FLAGS = {
    "--set": ("sets", "0"),
    "--cover": ("covers", "0,2"),
    "--k": ("k", "1"),
    "--kmax": ("k_max", "2"),
    "--reg-filter": ("reg_filter", "3"),
    "--cg": ("c_g", "2"),
}
IDEAL_FLAGS = {
    "--ideal": '["x0*x1"]',
    "--part-j": '["x0*x1"]',
    "--part-k": '["x1*x2"]',
    "--monomial": "x0",
    "--nvars": "3",
}
# --field and the cap flags of verify, each with a value that every statement's argv accepts
ENGINE_FLAGS = {"--field": "GF(2)", "--lattice-cap": "5000", "--lq-cap": "7", "--time-budget": "30"}
# the ideal statements of verify -> a valid argv, which gives exactly the ideal flags the statement reads
SPLIT_ARGV = ["--ideal", '["x0*x1","x1*x2"]', "--part-j", '["x0*x1"]', "--part-k", '["x1*x2"]', "--nvars", "3"]
IDEAL_ARGV = {
    "splitting": SPLIT_ARGV,
    "doublelinear": SPLIT_ARGV,
    "colon": ["--ideal", '["x0*x1","x1*x2"]', "--monomial", "x0", "--nvars", "3"],
    "abc": ["--ideal", '["x0","x1"]', "--part-j", '["x0*x1"]', "--nvars", "3"],
}


def _statement_runs():
    """(argv, statement, the flags its command has besides the graph source and cache flags)
    for every statement of verify and every conjecture of scan; only graph statements read
    --no-cache."""
    graph = ["--builder", "cycle:4", "--no-cache"]
    verify_flags = ("--set", "--cover", "--k", "--kmax", *IDEAL_FLAGS, *ENGINE_FLAGS)
    for st in STATEMENTS:
        yield ["verify", "--statement", st, *IDEAL_ARGV.get(st, graph)], st, verify_flags
    for c in CONJECTURES:
        yield ["scan", "--conjecture", c, *graph], c, ("--kmax", "--reg-filter", "--cg", "--field", "--lattice-cap")


def _declared_flags(entry) -> set:
    """The flags of a registry entry: its parameters, its ideal inputs and --nvars, and --field
    and the cap flags when it reads the field and caps."""
    flags = {flag for flag, (name, _) in PARAM_FLAGS.items() if name in entry.params}
    if entry.ideals:
        flags.update(["--" + name.replace("_", "-") for name in entry.ideals] + ["--nvars"])
    if entry.engine:
        flags.update(ENGINE_FLAGS)
    return flags


def test_each_statement_takes_only_the_flags_it_reads(capsys):
    values = {**{flag: value for flag, (_, value) in PARAM_FLAGS.items()}, **IDEAL_FLAGS, **ENGINE_FLAGS}
    read, rejected = [], set()
    for argv, statement, flags in _statement_runs():
        declared = _declared_flags(_REGISTRY[statement])
        # an ideal statement's argv gives exactly the ideal flags it declares
        assert declared & set(IDEAL_FLAGS) == set(argv) & set(IDEAL_FLAGS), statement
        base, _, _ = run_cli(capsys, *argv)
        for flag in flags:
            if flag in argv:
                continue
            code, out, err = run_cli(capsys, *argv, flag, values[flag])
            if flag in PARAM_FLAGS and flag in declared:
                # every parameter value here keeps cycle:4 a pass
                assert (code, err) == (0, ""), (statement, flag, err)
                assert out
                read.append((statement, flag))
            elif flag in declared:
                # --field and the caps change the header, not the verdict
                assert (code, err) == (base, ""), (statement, flag, err)
                assert out
            else:
                # an unread flag is an input error before any output, so it never reaches a cache key
                assert (code, out, err) == (2, "", f"error: {statement} does not read {flag}\n")
                rejected.add((statement, flag))
    assert len(read) == 17
    # the statements that compute no Betti table read neither the field nor a cap
    for statement in ("blemma", "keylemma"):
        assert {(statement, flag) for flag in ENGINE_FLAGS} <= rejected
    code, out, _ = run_cli(capsys, "verify", "--statement", "froberg", "--builder", "cycle:4", "--k", "3", "--set", "0")
    assert (code, out) == (2, "")
    # run_statement runs graph statements only
    for statement in IDEAL_ARGV:
        with pytest.raises(ValueError, match=f"{statement} reads ideals"):
            run_statement(statement, cycle(4))


# the graph-source, cache and worker flags, each with a value that would be valid for a graph statement
FAMILY_FLAGS = {
    "--max-n": ["9"],
    "--jobs": ["4"],
    "--builder": ["cycle:4"],
    "--graph6": ["C~"],
    "--graph6-file": ["graphs.g6"],
    "--cache-dir": ["cache"],
    "--no-cache": [],
}


def test_ideal_statements_reject_the_family_flags(capsys):
    for statement, argv in IDEAL_ARGV.items():
        for flag, value in FAMILY_FLAGS.items():
            code, out, err = run_cli(capsys, "verify", "--statement", statement, *argv, flag, *value)
            assert (code, out, err) == (2, "", f"error: {statement} does not read {flag}\n")
    colon = ["verify", "--statement", "colon", "--ideal", '["x0*x1"]', "--monomial", "x0", "--nvars", "2"]
    # an explicit --jobs 1 is a flag given, like any other value
    assert run_cli(capsys, *colon, "--jobs", "1") == (2, "", "error: colon does not read --jobs\n")
    # the first unread flag is named
    assert run_cli(capsys, *colon, "--max-n", "9", "--jobs", "4") == (2, "", "error: colon does not read --max-n\n")


def test_defaults_share_a_cache_entry_with_their_explicit_values(tmp_path, capsys, monkeypatch):
    puts = count_calls(monkeypatch, ResultCache, "put")
    args = ["verify", "--statement", "main2", "--builder", "anticycle:5", "--cache-dir", str(tmp_path)]
    _, default, _ = run_cli(capsys, *args)
    assert len(puts) == 1
    _, explicit, _ = run_cli(capsys, *args, "--kmax", "3")
    assert len(puts) == 1
    assert explicit == default


def test_a_statement_without_parameters_keeps_its_cache_key(tmp_path, capsys):
    # a statement that reads no parameter has empty params in its key, as when every flag
    # entered the key; the graph is a record of the log, not a part of its key
    run_cli(capsys, "verify", "--statement", "bounds", "--builder", "cycle:4", "--cache-dir", str(tmp_path))
    key = {
        "op": "verify",
        "statement": "bounds",
        "params": {},
        "field": "Q",
        "caps": DEFAULT_CAPS.to_json(),
    }
    assert [p.name for p in tmp_path.rglob("*.log")] == [ResultCache.key_of(key) + ".log"]


def test_blemma_reads_no_field(tmp_path, capsys):
    # blemma's reports depend on neither the field nor the caps, so an explicit --field or cap
    # flag is an unread flag
    argv = ["verify", "--statement", "blemma", "--builder", "cycle:5", "--k", "2"]
    for flag, value in (("--field", "Q"), ("--field", "GF(2)"), ("--lattice-cap", "3")):
        code, out, err = run_cli(capsys, *argv, flag, value, "--cache-dir", str(tmp_path))
        assert (code, out, err) == (2, "", f"error: blemma does not read {flag}\n")
    assert not any(tmp_path.iterdir())
    # the default run keeps its bytes, header field and caps included, and a key without either
    code, out, _ = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0 and json_lines(out)[0]["header"]["field"] == "Q"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "895399908b448f9fbc1844be046c5affcc4d42578b84f117b579952edde901fa"
    )
    key = {"op": "verify", "statement": "blemma", "params": {"k": 2}}
    assert [p.name for p in tmp_path.rglob("*.log")] == [ResultCache.key_of(key) + ".log"]
    code, out, _ = run_cli(capsys, "verify", "--statement", "blemma", "--max-n", "5", "--k", "2", "--no-cache")
    assert code == 0 and len(out.splitlines()) == 48
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "230b7d957320896354aee3a59bc02e321e59dab87ee41cafb8bb030e3776855b"
    )


def test_keylemma_reads_no_field(tmp_path, capsys):
    # keylemma compares colons with variable ideals and computes no Betti table, so its cache
    # key holds neither the field nor the caps
    argv = ["verify", "--statement", "keylemma", "--builder", "cycle:5"]
    for field in ("Q", "GF(2)"):
        code, out, err = run_cli(capsys, *argv, "--field", field, "--cache-dir", str(tmp_path))
        assert (code, out, err) == (2, "", "error: keylemma does not read --field\n")
    assert not any(tmp_path.iterdir())
    code, out, _ = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0 and json_lines(out)[0]["header"]["field"] == "Q"
    assert len(out.splitlines()) == 16
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "1085e257d4b156dbf38709bc0ca154f6e4cf74114a7b2ea80055090be12ac5a4"
    )
    key = {"op": "verify", "statement": "keylemma", "params": {"covers": None, "k": None}}
    assert [p.name for p in tmp_path.rglob("*.log")] == [ResultCache.key_of(key) + ".log"]


# each command has the cap flags of the caps it reads, and no others
COMMAND_CAP_FLAGS = {
    "betti": {"--lattice-cap", "--taylor-cap"},
    "suspend": {"--lattice-cap"},
    "extend": {"--lattice-cap"},
    "verify": {"--lattice-cap", "--lq-cap", "--time-budget"},
    "scan": {"--lattice-cap"},
}
MINIMAL_ARGV = {
    "betti": [],
    "suspend": [],
    "extend": [],
    "verify": ["--statement", "froberg"],
    "scan": ["--conjecture", "np"],
}


def test_each_command_has_only_the_cap_flags_it_reads(capsys):
    ap = build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(COMMAND_CAP_FLAGS)
    all_flags = set().union(*COMMAND_CAP_FLAGS.values())
    for command, parser in sub.choices.items():
        flags = {opt for a in parser._actions for opt in a.option_strings}
        assert flags & (all_flags | {"--face-cap"}) == COMMAND_CAP_FLAGS[command], command
        # with no cap flag given every cap is its default, so headers and cache keys keep their bytes
        assert _caps(ap.parse_args([command, *MINIMAL_ARGV[command]])) == DEFAULT_CAPS, command
    # a flag of a cap the command never reads is an input error before any output
    code, out, _ = run_cli(capsys, "scan", "--conjecture", "np", "--max-n", "3", "--taylor-cap", "3")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "betti", "--builder", "cycle:4", "--time-budget", "1")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "verify", "--statement", "hhz", "--builder", "cycle:5", "--lq-cap", "7")
    assert code == 0
    assert json_lines(out)[0]["header"]["caps"] == dict(DEFAULT_CAPS.to_json(), quotients_max_generators=7)


def test_explicit_power_indices_are_honoured(capsys):
    # 0 is a power index like any other, not a request for the statement's default
    code, out, _ = run_cli(capsys, "verify", "--statement", "blemma", "--builder", "cycle:5", "--k", "0")
    assert code == 0
    (rep,) = json_lines(out)[1:]
    assert rep["instance"].endswith(" n=0") and rep["data"] == {"generators": 1}
    code, out, _ = run_cli(capsys, "verify", "--statement", "bht", "--builder", "cycle:5", "--kmax", "1")
    assert code == 0
    (rep,) = json_lines(out)[1:]
    assert rep["data"]["power_regs"] == {"1": 3}
    code, _, err = run_cli(
        capsys, "verify", "--statement", "main1", "--builder", "cycle:4", "--set", "0,2", "--k", "0"
    )
    assert code == 2 and "k >= 1" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["betti", "--builder", "path:3", "--field", "GF(1000000000000000003)"], "p < 2^31"),
        (["extend", "--builder", "path:11"], "n <= 10"),
        (["extend", "--builder", "path:11", "--all"], "n <= 10"),
        (["extend", "--builder", "path:11", "--all", "--json"], "n <= 10"),
    ],
    ids=["huge-field", "extend-n-11", "extend-all-n-11", "extend-all-json-n-11"],
)
def test_oversized_inputs_exit_two_before_any_output(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_suspend(capsys):
    code, out, _ = run_cli(capsys, "suspend", "--builder", "path:3", "--set", "0,2")
    assert code == 0
    assert out.strip() == graph_to_graph6(Graph(4, [(0, 1), (1, 2), (1, 3)]))
    code, out, _ = run_cli(capsys, "suspend", "--builder", "cycle:4", "--all")
    assert code == 0
    assert len(out.splitlines()) == 7
    code, out, _ = run_cli(
        capsys, "suspend", "--builder", "path:3", "--set", "0,2", "--verify"
    )
    doc = json_lines(out)[0]
    assert doc["verdict"] == "pass" and doc["im_reg"]["reg"] == [2, 2]
    code, _, _ = run_cli(capsys, "suspend", "--builder", "cycle:4", "--set", "0,1")
    assert code == 2


def test_extend(capsys):
    code, out, _ = run_cli(capsys, "extend", "--builder", "path:3", "--all")
    assert code == 0
    assert len(out.splitlines()) == 7
    code, out, _ = run_cli(capsys, "extend", "--builder", "path:3", "--json")
    assert code == 0
    docs = json_lines(out)
    assert docs and all(d["invariant"] for d in docs)


# sha256 of stdout, taken when each graph was built twice
@pytest.mark.parametrize(
    "argv, name, builds, digest",
    [
        (["extend", "--builder", "anticycle:5", "--all", "--json"], "one_vertex_extensions", 1,
         "7520610f04a5192691df8abced63e2c4dd989ca28fa566122dcb65f88678391b"),
        # one suspension for each of the 11 independent sets of anticycle(5) but V
        (["suspend", "--builder", "anticycle:5", "--all", "--verify"], "s_suspension", 11,
         "d7024076d27efc1475550d42f007c1efe2f65c740bb71d4bdf52ba32069ff371"),
    ],
    ids=["extend", "suspend"],
)
def test_extend_and_suspend_build_each_graph_once(capsys, monkeypatch, argv, name, builds, digest):
    from edgeideals import cli, graphs, verification

    calls = []
    build = getattr(graphs, name)

    def counting(g, *args):
        calls.append(g)
        return build(g, *args)

    # the CLI and the checks each look the builder up in their own globals
    for module in (cli, verification):
        monkeypatch.setattr(module, name, counting)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert len(calls) == builds


def test_verify_family(capsys):
    code, out, _ = run_cli(capsys, "verify", "--statement", "froberg", "--max-n", "4")
    assert code == 0
    lines = json_lines(out)
    assert "header" in lines[0]
    assert lines[0]["header"]["caps"]["lattice_max"] > 0
    reports = lines[1:]
    assert reports and all(r["verdict"] == "pass" for r in reports)


def test_verify_statement_instances(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--statement", "main2",
        "--builder", "cycle:4", "--set", "0,2", "--kmax", "3",
    )
    assert code == 0
    assert json_lines(out)[1]["verdict"] == "pass"
    code, out, _ = run_cli(
        capsys, "verify", "--statement", "keylemma",
        "--builder", "cycle:5", "--cover", "0,1,3", "--k", "2",
    )
    assert code == 0
    assert json_lines(out)[1]["verdict"] == "pass"


def test_verify_splitting_negative_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--statement", "splitting",
        "--ideal", '["x0^2","x0*x1","x1^2"]',
        "--part-j", '["x0^2","x1^2"]',
        "--part-k", '["x0*x1"]',
        "--nvars", "2",
    )
    assert code == 1
    rep = json_lines(out)[1]
    assert rep["verdict"] == "fail"
    assert (rep["witness"]["i"], rep["witness"]["j"]) == (1, 4)


def test_a_family_run_with_a_fail_exits_one(capsys, monkeypatch):
    import edgeideals.cli as cli

    args = ("verify", "--statement", "froberg", "--max-n", "4", "--no-cache")
    _, passing, _ = run_cli(capsys, *args)

    def planted(statement, g, **kwargs):
        # the triangle's reports turn into fails; every other graph's stay as they are
        reports = run_statement(statement, g, **kwargs)
        if (g.n, len(g.edges)) != (3, 3):
            return reports
        return [VerificationReport(r.statement, r.instance, FAIL, witness={"planted": 1}) for r in reports]

    monkeypatch.setattr(cli, "run_statement", planted)
    code, out, err = run_cli(capsys, *args)
    assert code == 1, err
    header, *reports = json_lines(passing)
    for rep in reports:
        if rep["instance"] == "g6=Bw":
            del rep["data"]
            rep.update(verdict=FAIL, witness={"planted": 1})
    assert json_lines(out) == [header, *reports]
    assert sum(rep["verdict"] == FAIL for rep in reports) == 1


def test_verify_colon_statement(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--statement", "colon",
        "--ideal", '["x0*x1","x1*x2","x2*x3","x3*x4","x0*x4"]',
        "--monomial", "x0", "--nvars", "5",
    )
    assert code == 0
    assert json_lines(out)[1]["verdict"] == "pass"


def test_scan_np(capsys):
    code, out, _ = run_cli(capsys, "scan", "--conjecture", "np", "--max-n", "5", "--kmax", "2")
    assert code == 0
    lines = json_lines(out)
    assert len(lines) == 2
    assert lines[1]["verdict"] == "pass"


def test_scan_runs_the_statement_once_per_family_graph(capsys, monkeypatch):
    import edgeideals.cli as cli

    calls = count_calls(monkeypatch, cli, "run_statement")
    code, _, _ = run_cli(capsys, "scan", "--max-n", "4", "--conjecture", "newconj2", "--no-cache")
    assert code == 0
    family = enumerate_graphs(4, require_edge=True)
    assert [(name, graph_to_graph6(g)) for name, g in calls] == [("newconj2", g6) for g6 in family]


@pytest.mark.parametrize("conjecture, max_n", [("np", "6"), ("generalnp", "5"), ("newconj2", "4")])
def test_scan_reports_are_sorted_and_deterministic(capsys, conjecture, max_n):
    args = ["scan", "--conjecture", conjecture, "--max-n", max_n, "--kmax", "2", "--no-cache"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    keys = [(r["statement"], r["instance"]) for r in json_lines(first)[1:]]
    assert keys and keys == sorted(keys)


def test_scan_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.g6"
    src.write_text("")
    code, out, _ = run_cli(
        capsys, "scan", "--conjecture", "np", "--graph6-file", str(src), "--kmax", "2"
    )
    assert code == 0
    assert len(json_lines(out)) == 1  # header only


def test_scan_summary_csv(tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    code, out, _ = run_cli(
        capsys, "scan", "--conjecture", "np", "--max-n", "5", "--kmax", "2",
        "--summary", str(summary),
    )
    assert code == 0
    text = summary.read_text().splitlines()
    assert text[0] == "statement,instances,pass,fail,skipped"
    assert text[1] == "np,1,1,0,0"


def test_an_unwritable_summary_exits_two_before_any_output(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "summary.csv"
    code, out, err = run_cli(capsys, "scan", "--conjecture", "np", "--max-n", "5", "--no-cache", "--summary", str(missing))
    assert (code, out) == (2, "") and "no-such-dir" in err


def test_suspend_verify_exits_one_on_a_fail(capsys, monkeypatch):
    import edgeideals.cli as cli

    check = cli.check_s_suspension_invariance

    def failing(*args, **kwargs):
        # the check's own reports, each pass turned into a fail with the same data
        return [
            VerificationReport(r.statement, r.instance, FAIL, witness=r.data, data=r.data) for r in check(*args, **kwargs)
        ]

    argv = ("suspend", "--builder", "cycle:4", "--all", "--verify")
    code, passed, _ = run_cli(capsys, *argv)
    assert code == 0 and {r["verdict"] for r in json_lines(passed)} == {"pass"}
    monkeypatch.setattr(cli, "check_s_suspension_invariance", failing)
    code, failed, _ = run_cli(capsys, *argv)
    assert code == 1 and {r["verdict"] for r in json_lines(failed)} == {"fail"}
    assert len(json_lines(failed)) == len(json_lines(passed)) == 7


# one run of each command whose output can hold a verdict, and of each kind of statement
VERDICT_RUNS = {
    "verify-graph": ("verify", "--statement", "main2", "--builder", "cycle:4", "--kmax", "2", "--no-cache"),
    "verify-family": ("verify", "--statement", "froberg", "--max-n", "4", "--no-cache"),
    "verify-ideal": ("verify", "--statement", "colon", "--ideal", '["x0*x1","x1*x2"]', "--monomial", "x1", "--nvars", "3"),
    "scan": ("scan", "--conjecture", "np", "--max-n", "5", "--no-cache"),
    "suspend": ("suspend", "--builder", "cycle:4", "--all", "--verify"),
}


def test_every_command_that_prints_verdicts_is_in_the_verdict_table():
    import edgeideals.cli as cli

    # betti prints a table and extend graphs or their invariance, never a verdict
    assert {argv[0] for argv in VERDICT_RUNS.values()} | {"betti", "extend"} == set(cli._COMMANDS)


@pytest.mark.parametrize("inject", [False, True], ids=["as-is", "every-pass-fails"])
@pytest.mark.parametrize("argv", VERDICT_RUNS.values(), ids=VERDICT_RUNS.keys())
def test_the_exit_code_is_one_exactly_when_a_line_holds_a_fail(capsys, monkeypatch, argv, inject):
    from edgeideals import verification

    monkeypatch.delenv("EDGEIDEALS_CACHE", raising=False)
    if inject:
        monkeypatch.setattr(
            verification,
            "_passed",
            lambda statement, instance, data=None: verification._failed(statement, instance, {"injected": 1}, data),
        )
    code, out, err = run_cli(capsys, *argv)
    verdicts = [r["verdict"] for r in json_lines(out) if "verdict" in r]
    assert verdicts and ("fail" in verdicts) == inject, out
    assert code == (1 if "fail" in verdicts else 0), err


# every graph statement and scan, so that each shape of cache key a family run builds is used
FAMILY_RUNS = [("verify", "--statement", s) for s in STATEMENTS if not _REGISTRY[s].ideals]
FAMILY_RUNS += [("scan", "--conjecture", c) for c in CONJECTURES]
FAMILY_IDS = [f"{argv[0]}-{argv[2]}" for argv in FAMILY_RUNS]


@pytest.mark.parametrize("argv", FAMILY_RUNS, ids=FAMILY_IDS)
def test_cache_on_off_identical_bytes(tmp_path, capsys, monkeypatch, argv):
    import edgeideals.cli as cli

    cache_dir = tmp_path / "cache"
    args = [*argv, "--max-n", "4"]
    _, cold, _ = run_cli(capsys, *args, "--cache-dir", str(cache_dir))
    calls = count_calls(monkeypatch, cli, "run_statement")
    encodes, decodes = count_calls(monkeypatch, cli, "_encode"), count_calls(monkeypatch, cli, "_loads")
    _, warm, _ = run_cli(capsys, *args, "--cache-dir", str(cache_dir))
    assert calls == []  # every graph was a hit
    # the header is encoded and the family line decoded; no report is either
    assert (len(encodes), len(decodes)) == (1, 1)
    _, off, _ = run_cli(capsys, *args, "--no-cache")
    assert cold == warm == off
    assert any(cache_dir.rglob("*.log"))


def source_key(parts: dict) -> str:
    """The cache key of parts, computed here: the sha256 of the canonical JSON of parts and the
    source digest, a sha256 over the names and sha256s of the package's `*.py` files."""
    package = Path(cache.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    canon = json.dumps({**parts, "source": digest.hexdigest()}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


CAPS_JSON = DEFAULT_CAPS.to_json()
# (argv, the key parts of the files a cold run writes): the family entry and the run's report log;
# the source digest in each key leaves every entry an earlier build of the package wrote unread
CACHE_NAMES = [
    (
        ("verify", "--statement", "bounds", "--max-n", "5", "--field", "GF(2)"),
        [
            {"op": "family", "max_n": 5},
            {"op": "verify", "statement": "bounds", "params": {}, "field": "GF(2)", "caps": CAPS_JSON},
        ],
    ),
    (
        ("verify", "--statement", "main2", "--max-n", "4"),
        [
            {"op": "family", "max_n": 4},
            {"op": "verify", "statement": "main2", "params": {"k_max": 3, "sets": None}, "field": "Q", "caps": CAPS_JSON},
        ],
    ),
    (
        ("scan", "--conjecture", "np", "--max-n", "5"),
        [
            {"op": "family", "max_n": 5},
            {"op": "scan", "statement": "np", "params": {"k_max": 2, "reg_filter": None}, "field": "Q", "caps": CAPS_JSON},
        ],
    ),
]


@pytest.mark.parametrize("argv, parts", CACHE_NAMES, ids=["bounds-gf2", "main2", "np"])
def test_cache_file_names_are_pinned(tmp_path, capsys, argv, parts):
    code, _, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0, err
    paths = [p for p in tmp_path.rglob("*") if p.is_file()]
    # the entry of key k is root/k[:2]/k.log
    assert all(p.parent.parent == tmp_path and p.parent.name == p.name[:2] and p.suffix == ".log" for p in paths)
    assert sorted(p.name for p in paths) == sorted(source_key(key) + ".log" for key in parts)


@pytest.mark.parametrize("argv", FAMILY_RUNS, ids=FAMILY_IDS)
def test_a_per_run_key_is_the_key_of_the_whole_parts(tmp_path, capsys, argv):
    # a run logs its reports under the key of all its parts; the graph is not one, so every
    # graph of the run, and of any other run of the same statement, shares the log
    statement = argv[2]
    parts = {"op": argv[0], "statement": statement, "params": statement_params(statement, {})}
    if _REGISTRY[statement].engine:
        parts.update(field="Q", caps=DEFAULT_CAPS.to_json())
    for builder in ("cycle:4", "path:5"):
        code, _, err = run_cli(capsys, *argv, "--builder", builder, "--cache-dir", str(tmp_path))
        assert code in (0, 1), err
        (log,) = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert log.name == ResultCache.key_of(parts) + ".log"
    graphs = [graph_to_graph6(g).encode("ascii") for g in (cycle(4), path(5))]
    assert [line.partition(b"\t")[0] for line in log.read_bytes().splitlines()] == graphs


def test_a_run_without_the_cache_computes_no_key(tmp_path):
    # in a fresh interpreter, an uncached run never imports hashlib; with the cache on, the same
    # run needs it for its keys and seals
    script = (
        "import io, sys; from edgeideals.cli import main; sys.stdout = io.StringIO(); "
        "args = ['verify', '--statement', 'bounds', '--max-n', '4']; "
        "codes = [main(args + ['--no-cache']), 'hashlib' in sys.modules]; "
        f"codes += [main(args + ['--cache-dir', {str(tmp_path)!r}]), 'hashlib' in sys.modules]; "
        "sys.__stdout__.write(repr(codes))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cache.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert (done.stdout, done.stderr) == ("[0, False, 0, True]", "")


def test_verify_cache_roundtrip(tmp_path, capsys):
    cache_dir = tmp_path / "vcache"
    args = ["verify", "--statement", "bounds", "--max-n", "4", "--cache-dir", str(cache_dir)]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_scan_summary_bytes_do_not_depend_on_jobs(tmp_path, capsys):
    # the summary counts the sorted report lines, which --jobs gathers in another order
    runs = []
    for jobs in ("1", "2"):
        summary = tmp_path / f"summary-{jobs}.csv"
        args = ["scan", "--conjecture", "newconj2", "--max-n", "4", "--no-cache", "--summary", str(summary)]
        code, out, err = run_cli(capsys, *args, "--jobs", jobs)
        assert code == 0, err
        runs.append((out, summary.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][1] == b"statement,instances,pass,fail,skipped\r\nnewconj2,142,141,0,1\r\n"


def test_scan_summary_from_a_warm_cache_matches_the_cold_run(tmp_path, capsys, monkeypatch):
    import edgeideals.cli as cli

    # the counts come from the verdicts a record holds, and newconj2 over --max-n 4 skips a graph
    args = ["scan", "--conjecture", "newconj2", "--max-n", "4", "--cache-dir", str(tmp_path / "cache")]
    runs = []
    for run in ("cold", "warm"):
        summary = tmp_path / f"summary-{run}.csv"
        if run == "warm":
            calls = count_calls(monkeypatch, cli, "run_statement")
        code, out, err = run_cli(capsys, *args, "--summary", str(summary))
        assert (code, err) == (0, "")
        runs.append((out, summary.read_bytes()))
    assert calls == []
    assert runs[0] == runs[1]
    assert runs[1][1] == b"statement,instances,pass,fail,skipped\r\nnewconj2,142,141,0,1\r\n"


def test_parallel_jobs_match_serial(capsys):
    args = ["verify", "--statement", "froberg", "--max-n", "4", "--no-cache"]
    _, serial, _ = run_cli(capsys, *args)
    _, parallel, _ = run_cli(capsys, *args, "--jobs", "2")
    assert serial == parallel


START_METHODS = ("fork", "forkserver", "spawn")


def use_start_method(monkeypatch, method):
    """Make the CLI's pools use `method`; returns the list of pools it opened."""
    import multiprocessing

    ctx = multiprocessing.get_context(method)
    opened = []

    def pool(*args, **kwargs):
        opened.append(method)
        return ctx.Pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    return opened


@pytest.mark.parametrize("method", START_METHODS)
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--statement", "froberg", "--max-n", "4", "--no-cache"],
        ["scan", "--conjecture", "np", "--max-n", "5", "--no-cache"],
        # these read the InvariantStore, which each worker builds for itself
        ["verify", "--statement", "main2", "--max-n", "4", "--kmax", "3", "--no-cache"],
        ["scan", "--conjecture", "newconj2", "--max-n", "5", "--no-cache"],
    ],
)
def test_parallel_jobs_under_spawn_match_serial(capsys, monkeypatch, argv, method):
    # spawned and forkserver workers start from a fresh interpreter: they get
    # their context only through the pickled task and the pool initializer,
    # never from the parent's module state
    _, serial, _ = run_cli(capsys, *argv)
    opened = use_start_method(monkeypatch, method)
    code, parallel, err = run_cli(capsys, *argv, "--jobs", "2")
    assert code == 0, err
    assert opened == [method]
    assert serial == parallel


@pytest.mark.parametrize("method", START_METHODS)
def test_parallel_jobs_share_the_cache(tmp_path, capsys, monkeypatch, method):
    cache_dir = tmp_path / "cache"
    args = ["verify", "--statement", "froberg", "--max-n", "4"]
    _, uncached, _ = run_cli(capsys, *args, "--no-cache")
    opened = use_start_method(monkeypatch, method)
    code, parallel, err = run_cli(capsys, *args, "--cache-dir", str(cache_dir), "--jobs", "2")
    assert code == 0, err
    assert opened == [method]
    assert parallel == uncached
    # one report log holds every graph, next to the family entry
    assert len(list(cache_dir.rglob("*.log"))) == 2
    _, warm, _ = run_cli(capsys, *args, "--cache-dir", str(cache_dir), "--jobs", "1")
    assert warm == uncached
    assert opened == [method]


def record_cache_io(pids: Path, start=None) -> None:
    """Make each ResultCache.get and put of this process append its process id to the file pids,
    then call start: a picklable pool initializer, so that spawned workers record theirs too."""
    for name in ("get", "put"):
        real = getattr(ResultCache, name)

        def recorded(self, *args, _real=real):
            with open(pids, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
            return _real(self, *args)

        setattr(ResultCache, name, recorded)
    if start is not None:
        start()


@pytest.mark.parametrize("method", START_METHODS)
def test_parallel_workers_do_no_cache_io(tmp_path, capsys, monkeypatch, method):
    import multiprocessing

    ctx = multiprocessing.get_context(method)
    pids = tmp_path / "pids"
    opened = []

    def pool(processes, initializer):
        opened.append(method)
        return ctx.Pool(processes, functools.partial(record_cache_io, pids, initializer))

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    for name in ("get", "put"):
        # restored on return
        monkeypatch.setattr(ResultCache, name, getattr(ResultCache, name))
    record_cache_io(pids)
    args = ["verify", "--statement", "froberg", "--max-n", "4"]
    _, uncached, _ = run_cli(capsys, *args, "--no-cache")
    code, out, err = run_cli(capsys, *args, "--cache-dir", str(tmp_path / "cache"), "--jobs", "2")
    assert (code, out, err) == (0, uncached, "")
    assert opened == [method]
    assert set(pids.read_text(encoding="ascii").split()) == {str(os.getpid())}
    # one record per graph, in the family's order
    records = report_log(tmp_path / "cache", 4).read_bytes().splitlines()
    assert [r.partition(b"\t")[0].decode("ascii") for r in records] == enumerate_graphs(4, require_edge=True)


def test_a_worker_reads_one_store_for_all_its_items(monkeypatch):
    import edgeideals.cli as cli

    monkeypatch.setattr(cli, "_worker_store", None)
    cli._start_worker()
    stores = []
    for g6 in ("Bw", "BW"):
        cli._worker_item(lambda g6, store: stores.append(store), g6)
    assert isinstance(stores[0], InvariantStore) and stores[1] is stores[0]


@pytest.mark.parametrize(
    "argv, lines, expected",
    [
        (
            ("verify", "--statement", "main2", "--builder", "anticycle:5", "--kmax", "3"),
            12,
            "4a3d903601a8117a3458565215e1cacf2d880f0a5df16b47afbee5bc8953cdeb",
        ),
        (
            ("scan", "--conjecture", "newconj2", "--max-n", "5"),
            776,
            "72d47ea70753707890d807539ebf984c404f30feefea973d2efd50780d7e51a3",
        ),
        (
            ("verify", "--statement", "suspension", "--max-n", "5"),
            510,
            "ecfa5fbac23f281879c5061f1b55da874ec4e4ae587549f6084472707a557db6",
        ),
        (
            ("verify", "--statement", "deletion-probe", "--max-n", "5"),
            48,
            "144357ff6a06ad8eda9007d5c6adca24970f4ac17dc56dcd3be82f4725b2c8bb",
        ),
    ],
    ids=["main2", "newconj2", "suspension", "deletion-probe"],
)
def test_the_invariant_store_changes_no_stdout_byte(capsys, monkeypatch, argv, lines, expected):
    from edgeideals import resolutions, verification

    monkeypatch.delenv("EDGEIDEALS_CACHE", raising=False)
    # a power is shown linear by a Betti table or by the colon certificate: both are work that
    # a class shared through the store saves
    tables = count_calls(monkeypatch, resolutions, "lcm_lattice")
    certificates = count_calls(monkeypatch, verification, "_certified_linear")
    code, shared, err = run_cli(capsys, *argv, "--no-cache")
    assert code == 0, err
    shared_work = len(tables) + len(certificates)
    # each graph object its own key, rooted or not, which holds the graph so that its id is
    # not reused: no two graphs share a record and no two sets S of main2 a rooted class, so
    # every value is computed on its labelled graph
    monkeypatch.setattr(verification, "canonical_key", lambda g, root=None: (id(g), g))
    code, defeated, err = run_cli(capsys, *argv, "--no-cache")
    assert code == 0, err
    assert shared == defeated
    assert len(shared.splitlines()) == lines
    assert hashlib.sha256(shared.encode("utf-8")).hexdigest() == expected
    # and the store did share values between isomorphic graphs
    assert shared_work < len(tables) + len(certificates) - shared_work


def test_main2_reads_its_power_hypothesis_from_the_store(capsys, monkeypatch):
    # 35 of the 40 gap-free graphs with n <= 5 belong to classes met earlier as suspensions
    # G_S and known linear at k = 2, 3; their powers are built without Betti tables.  The
    # hypothesis resolves the squares and cubes of the other 5 (10 tables), and the colon
    # certificate shows each of the 260 powers I(G_S)^k of the first S of each rooted class
    # linear, so none of them needs a table
    from edgeideals import resolutions, verification

    monkeypatch.delenv("EDGEIDEALS_CACHE", raising=False)
    argv = ("verify", "--statement", "main2", "--max-n", "5", "--no-cache")
    tables = count_calls(monkeypatch, resolutions, "lcm_lattice")
    certificates = count_calls(monkeypatch, verification, "_certified_linear")
    code, shared, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert (len(tables), len(certificates)) == (10, 260)
    assert hashlib.sha256(shared.encode("utf-8")).hexdigest() == (
        "a5df9868a753de7cb3f9a7b946180339317b2aaa6dbf05f554f3ffc16a7b65ff"
    )
    # the hypothesis on a classless record resolves those 35 graphs' squares and cubes
    real = verification._power_hypothesis
    monkeypatch.setattr(
        verification,
        "_power_hypothesis",
        lambda g, k_max, field, caps, record: real(g, k_max, field, caps, verification._Record(g, {})),
    )
    tables.clear()
    certificates.clear()
    code, unread, err = run_cli(capsys, *argv)
    assert (code, unread, len(tables), len(certificates)) == (0, shared, 80, 260), err
    # and every graph object its own class: the same bytes
    monkeypatch.setattr(verification, "_power_hypothesis", real)
    monkeypatch.setattr(verification, "canonical_key", lambda g, root=None: (id(g), g))
    code, defeated, err = run_cli(capsys, *argv)
    assert (code, defeated) == (0, shared), err


def test_statements_without_a_store_never_key_a_graph(capsys, monkeypatch):
    # the statements that read no InvariantStore pay nothing for it: the power checks walk a
    # classless record, which computes no key
    from edgeideals import verification

    keys = count_calls(monkeypatch, verification, "canonical_key")
    runs = [("verify", "--statement", st) for st in ("froberg", "bounds", "banerjee", "hhz")]
    runs += [("scan", "--conjecture", st, "--kmax", "3") for st in ("np", "generalnp")]
    for argv in runs:
        code, _, err = run_cli(capsys, *argv, "--max-n", "4", "--no-cache")
        assert code == 0, err
    assert keys == []
    # main1 keys no graph either, only the rooted suspension (G_S, z) of each set S it checks,
    # for its own per-call classes; a graph that fails the hypothesis checks no S
    code, out, err = run_cli(capsys, "verify", "--statement", "main1", "--max-n", "4", "--no-cache")
    assert code == 0, err
    checked = [r for r in json_lines(out)[1:] if r["verdict"] != "skipped"]
    assert len(keys) == len(checked) > 0
    assert all(root == gs.n - 1 for gs, root in keys)


def test_newconj2_reads_the_base_reg_from_its_first_power(capsys, monkeypatch):
    # with c_G = 1 the table of I(G) that the base walk resolves at k = 1 fills reg(I(G)),
    # which the extensions are compared with, so reg(I(G)) is not resolved a second time: the
    # 174 tables are all of edge ideals, and the colon certificate shows the 262 powers
    # k = 2, 3 that the walks meet linear without a table
    from edgeideals import resolutions, verification

    monkeypatch.delenv("EDGEIDEALS_CACHE", raising=False)
    tables = count_calls(monkeypatch, resolutions, "lcm_lattice")
    certificates = count_calls(monkeypatch, verification, "_certified_linear")
    argv = ("scan", "--conjecture", "newconj2", "--max-n", "5", "--cg", "1", "--kmax", "3", "--no-cache")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert (len(tables), len(certificates)) == (174, 262)
    assert {generated_in_single_degree(ideal) for ideal, _ in tables} == {2}
    assert len(out.splitlines()) == 761
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "5f2f9c6612ce5b03f6cc56836d8e5590b9b44fbcd65f97c3fd04b8979882a85b"
    )


def test_newconj2_keys_each_graph_once(capsys, monkeypatch):
    # the base graph's record walks its powers and is compared with its extensions, and each
    # invariant extension's record walks its own: no graph is keyed twice
    from edgeideals import verification

    monkeypatch.delenv("EDGEIDEALS_CACHE", raising=False)
    keys = count_calls(monkeypatch, verification, "canonical_key")
    code, out, err = run_cli(capsys, "scan", "--conjecture", "newconj2", "--max-n", "5", "--no-cache")
    assert code == 0, err
    # the calls hold their graphs, so no id is reused while they are counted
    assert len(keys) == len({id(g) for (g,) in keys}) == 1036
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "72d47ea70753707890d807539ebf984c404f30feefea973d2efd50780d7e51a3"
    )


CORRUPT = {"dict": b'{"a": 1}', "int-list": b"[1]", "not-utf8": b"\xff\xfe"}
CORRUPT_FAMILY = {
    **CORRUPT,
    "not-graph6": b'["Bw", "not graph6"]',
    "edgeless": b'["Bw", "@"]',
    "too-many-vertices": b'["Bw", "D~{"]',
    # the --max-n 3 family is ["A_", "BG", "BW", "Bw"]
    "truncated": b'["Bw"]',
    "duplicate": b'["A_", "BG", "BW", "BW"]',
    "out-of-order": b'["A_", "BW", "BG", "Bw"]',
    # joins to the family's bytes, but is one string short
    "newline-inside": b'["A_\\nBG", "BW", "Bw"]',
    "not-ascii": b'["A_", "BG", "BW", "Bw\\u00e9"]',
}


@pytest.mark.parametrize(
    "max_n,payload",
    [(None, p) for p in CORRUPT.values()] + [(3, p) for p in CORRUPT_FAMILY.values()],
    ids=[*CORRUPT, *(f"family-{k}" for k in CORRUPT_FAMILY)],
)
def test_corrupt_cache_entry_is_a_miss(tmp_path, capsys, monkeypatch, max_n, payload):
    import edgeideals.cli as cli

    # max_n None: the report log of one graph; otherwise the --max-n family entry
    cache_dir = tmp_path / "cache"
    family = ["--max-n", str(max_n)] if max_n else ["--builder", "cycle:4"]
    args = ["verify", "--statement", "bounds", *family]
    _, uncached, _ = run_cli(capsys, *args, "--no-cache")
    run_cli(capsys, *args, "--cache-dir", str(cache_dir))
    (entry,) = [family_entry(cache_dir, max_n)] if max_n else cache_dir.rglob("*.log")
    entry.write_bytes(payload)
    code, out, err = run_cli(capsys, *args, "--cache-dir", str(cache_dir))
    assert code == 0, err
    assert out == uncached
    # the entry was recomputed and appended, so the next run is a full hit
    statements = count_calls(monkeypatch, cli, "run_statement")
    enumerations = count_calls(monkeypatch, cli, "enumerate_graphs")
    assert run_cli(capsys, *args, "--cache-dir", str(cache_dir)) == (0, uncached, "")
    assert statements == enumerations == []


# the index of the damaged record in the log of bounds over the --max-n 4 family, of 14 graphs
K = 3


def sealed(text: bytes) -> bytes:
    """The report log line of a record's text: its seal is the first 16 hex digits of the text's
    sha256."""
    return text + b"\t" + hashlib.sha256(text).hexdigest()[:16].encode("ascii") + b"\n"


def unsealed(record: bytes) -> bytes:
    """The text of a report log line, without its seal."""
    return record[: record.rindex(b"\t")]


def flipped(record: bytes) -> bytes:
    """record with the lowest bit of its middle byte, inside its report text, flipped."""
    mid = len(record) // 2
    return record[:mid] + bytes([record[mid] ^ 1]) + record[mid + 1 :]


def old_layout(record: bytes) -> bytes:
    """record in the layout of an earlier build: `<graph6> <JSON report list>`."""
    g6, *fields = unsealed(record).split(b"\t")
    return g6 + b" [" + b", ".join(fields[2::4]) + b"]\n"


# damage(records, family graph6) -> (damaged records, the graphs the next run computes again)
LOG_DAMAGE = {
    # a line that is not UTF-8 in place of a record
    "garbage": lambda recs, fam: (recs[:K] + [b"\xff{garbage\n"] + recs[K + 1 :], [fam[K]]),
    # a write cut short: the last record loses its second half and its newline; the rerun
    # appends the record again, and the third run finds it
    "torn-tail": lambda recs, fam: (recs[:-1] + [recs[-1][: len(recs[-1]) // 2]], [fam[-1]]),
    # a record of K5, which is outside the family
    "other-graph": lambda recs, fam: ([b"D~{\t" + recs[0].partition(b"\t")[2], *recs], []),
    # a record nested deeper than a JSON decoder's recursion limit, which no run decodes
    "deep": lambda recs, fam: (recs[:K] + [fam[K] + b"\t" + b"[" * 100_000 + b"\n"] + recs[K + 1 :], [fam[K]]),
    # a sealed record whose fields are not whole reports
    "wrong-shape": lambda recs, fam: (recs[:K] + [sealed(fam[K] + b"\tbounds\tmaybe")] + recs[K + 1 :], [fam[K]]),
    # a later record of a graph with every verdict turned to fail: the first record wins
    "duplicate": lambda recs, fam: ([*recs, recs[K].replace(b'"verdict": "pass"', b'"verdict": "fail"')], []),
    # one flipped byte inside a record's report text breaks its seal
    "flipped-byte": lambda recs, fam: (recs[:K] + [flipped(recs[K])] + recs[K + 1 :], [fam[K]]),
    # a record whose verdict was edited from pass to fail and sealed again: a cached fail is
    # recomputed, so the run prints the pass and exits 0
    "resealed-fail": lambda recs, fam: (recs[:K] + [sealed(unsealed(recs[K]).replace(b"pass", b"fail"))] + recs[K + 1 :], [fam[K]]),
    # a log that an earlier build wrote: every record is a miss
    "old-layout": lambda recs, fam: ([old_layout(r) for r in recs], fam),
}


@pytest.mark.parametrize("damage", LOG_DAMAGE.values(), ids=LOG_DAMAGE)
def test_a_damaged_record_is_a_miss_for_its_graph_only(tmp_path, capsys, monkeypatch, damage):
    import edgeideals.cli as cli

    args = ["verify", "--statement", "bounds", "--max-n", "4", "--cache-dir", str(tmp_path)]
    _, uncached, _ = run_cli(capsys, *args[:-2], "--no-cache")
    run_cli(capsys, *args)
    log = report_log(tmp_path, 4)
    family = [g6.encode("ascii") for g6 in enumerate_graphs(4, require_edge=True)]
    records = log.read_bytes().splitlines(keepends=True)
    assert [r.partition(b"\t")[0] for r in records] == family and b"pass" in records[K]
    assert [sealed(unsealed(r)) for r in records] == records
    damaged, missed = damage(records, family)
    assert damaged != records
    log.write_bytes(b"".join(damaged))
    calls = count_calls(monkeypatch, cli, "run_statement")
    for expected in (missed, []):
        assert run_cli(capsys, *args) == (0, uncached, "")
        assert [graph_to_graph6(g).encode("ascii") for _, g in calls] == expected
        calls.clear()


def test_a_smaller_family_reads_the_log_of_a_larger_one(tmp_path, capsys, monkeypatch):
    import edgeideals.cli as cli

    # the log is keyed without max_n: the records of the graphs with n = 5 are skipped
    args = ["verify", "--statement", "bounds", "--max-n"]
    run_cli(capsys, *args, "5", "--cache-dir", str(tmp_path))
    _, uncached, _ = run_cli(capsys, *args, "4", "--no-cache")
    calls = count_calls(monkeypatch, cli, "run_statement")
    assert run_cli(capsys, *args, "4", "--cache-dir", str(tmp_path)) == (0, uncached, "")
    assert calls == []


def test_a_run_cut_short_keeps_the_graphs_it_finished(tmp_path, capsys, monkeypatch):
    import edgeideals.cli as cli

    args = ["verify", "--statement", "bounds", "--max-n", "4", "--cache-dir", str(tmp_path)]
    family = enumerate_graphs(4, require_edge=True)
    k = 6
    tried = []

    def stopping(statement, g, **kwargs):
        tried.append(graph_to_graph6(g))
        if len(tried) == k:
            raise RuntimeError("stopped")
        return run_statement(statement, g, **kwargs)

    monkeypatch.setattr(cli, "run_statement", stopping)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (5, "") and "stopped" in err
    assert tried == family[:k]
    monkeypatch.setattr(cli, "run_statement", run_statement)
    calls = count_calls(monkeypatch, cli, "run_statement")
    _, uncached, _ = run_cli(capsys, *args[:-2], "--no-cache")
    calls.clear()
    assert run_cli(capsys, *args) == (0, uncached, "")
    # the k-th graph and every later one, none of which was logged
    assert [graph_to_graph6(g) for _, g in calls] == family[k - 1 :]


def other_source(monkeypatch) -> None:
    """Make the cache keys of this process those of a package with other source files."""
    monkeypatch.setattr(cache, "source_digest", lambda: hashlib.sha256(b"other source").hexdigest())


def test_cache_key_carries_the_source_digest(tmp_path, capsys, monkeypatch):
    import edgeideals.cli as cli

    cache_dir = tmp_path / "cache"
    args = ["verify", "--statement", "bounds", "--builder", "cycle:4", "--cache-dir", str(cache_dir)]
    calls = count_calls(monkeypatch, cli, "run_statement")
    _, first, _ = run_cli(capsys, *args)
    _, hit, _ = run_cli(capsys, *args)
    assert len(calls) == 1
    # a log keyed by another source digest is a miss
    other_source(monkeypatch)
    _, recomputed, _ = run_cli(capsys, *args)
    assert len(calls) == 2
    assert first == hit == recomputed
    assert len(list(cache_dir.rglob("*.log"))) == 2


def family_entry(cache_dir, max_n) -> Path:
    key = ResultCache.key_of({"op": "family", "max_n": max_n})
    path = Path(ResultCache(cache_dir)._path(key))
    assert path.exists()
    return path


def report_log(cache_dir, max_n) -> Path:
    """The report log of a cached --max-n max_n run of one statement: the entry next to the family's."""
    (log,) = [p for p in Path(cache_dir).rglob("*.log") if p != family_entry(cache_dir, max_n)]
    return log


def count_calls(monkeypatch, module, name) -> list:
    original = getattr(module, name)
    calls = []

    def counted(*a, **kw):
        calls.append(a)
        return original(*a, **kw)

    monkeypatch.setattr(module, name, counted)
    return calls


def refuse_to_enumerate(monkeypatch):
    import edgeideals.cli as cli

    def refused(*a, **kw):
        raise AssertionError("a cached family was enumerated again")

    monkeypatch.setattr(cli, "enumerate_graphs", refused)


def test_warm_family_run_does_not_enumerate(tmp_path, capsys, monkeypatch):
    args = ["verify", "--statement", "bounds", "--max-n", "5"]
    _, uncached, _ = run_cli(capsys, *args, "--no-cache")
    run_cli(capsys, *args, "--cache-dir", str(tmp_path))
    refuse_to_enumerate(monkeypatch)
    code, warm, err = run_cli(capsys, *args, "--cache-dir", str(tmp_path))
    assert code == 0, err
    assert warm == uncached


def test_scan_reuses_the_family_entry_of_verify(tmp_path, capsys, monkeypatch):
    scan = ["scan", "--conjecture", "np", "--max-n", "5"]
    _, uncached, _ = run_cli(capsys, *scan, "--no-cache")
    run_cli(capsys, "verify", "--statement", "bounds", "--max-n", "5", "--cache-dir", str(tmp_path))
    refuse_to_enumerate(monkeypatch)
    code, out, err = run_cli(capsys, *scan, "--cache-dir", str(tmp_path))
    assert code == 0, err
    assert out == uncached


def test_family_entry_key_carries_the_source_digest(tmp_path, capsys, monkeypatch):
    import edgeideals.cli as cli

    args = ["verify", "--statement", "bounds", "--max-n", "3", "--cache-dir", str(tmp_path)]
    calls = count_calls(monkeypatch, cli, "enumerate_graphs")
    _, first, _ = run_cli(capsys, *args)
    _, hit, _ = run_cli(capsys, *args)
    assert len(calls) == 1
    other_source(monkeypatch)
    _, recomputed, _ = run_cli(capsys, *args)
    assert len(calls) == 2
    assert first == hit == recomputed
    family_entry(tmp_path, 3)
    assert len(list(tmp_path.rglob("*.log"))) == 4


def test_internal_error_exit_code(capsys, monkeypatch):
    import edgeideals.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("engine invariant violated")

    monkeypatch.setattr(cli, "run_statement", broken)
    code, out, err = run_cli(capsys, "verify", "--statement", "froberg", "--builder", "cycle:4")
    assert code == cli.EXIT_INTERNAL == 5
    assert err.count("\n") == 1 and "engine invariant violated" in err
    assert "fail" not in out


@pytest.mark.parametrize(
    "workload, argv",
    [
        ("powers-main2", ("verify", "--statement", "main2", "--builder", "anticycle:5", "--kmax", "3")),
        ("squarefree-n7", ("verify", "--statement", "froberg", "--max-n", "7")),
        ("bounds-gf2", ("verify", "--statement", "bounds", "--max-n", "7", "--field", "GF(2)")),
    ],
    ids=["powers-main2", "squarefree-n7", "bounds-gf2"],
)
def test_stdout_bytes_match_the_benchmark_reference(benchmark_run, workload, argv):
    # pins the CLI bytes that perfbench checks, so a refactor that changes them fails here;
    # the argv runs once per session without a cache, and test_benchmark_calls reads that run too
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text(encoding="utf-8"))[workload]["stdout_sha256"]
    assert BENCHMARK_RUN.WORKLOADS[workload].argv == argv
    run = benchmark_run(workload)
    [code], [out] = run.codes, run.outs
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


def test_bounds_gf2_stdout_bytes_are_pinned(capsys, monkeypatch):
    # the bounds-gf2 benchmark argv on n <= 6; both matching numbers feed every report
    monkeypatch.delenv("EDGEIDEALS_CACHE", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--statement", "bounds", "--max-n", "6", "--field", "GF(2)")
    assert code == 0
    assert len(out.splitlines()) == 1 + 202
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "f68ba0a8df748c275dba1d0d11146f9d962c5e04097027afb62098e3b5293499"


def test_bounds_gf3_stdout_bytes_are_pinned(capsys, monkeypatch):
    # rank over an odd prime, on both Alexander-dual sides of the membership complexes
    monkeypatch.delenv("EDGEIDEALS_CACHE", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--statement", "bounds", "--max-n", "6", "--field", "GF(3)")
    assert code == 0
    assert len(out.splitlines()) == 1 + 202
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "b489da0178ea1e9a1125a37c704ea02e4da4073b292f459b724a821f1b581eb1"


# stands for a file of G6_LINES: C5 as DqK (not canonical), an edgeless graph, C5 as its
# canonical DUW, a triangle, and DqK again
G6_FILE = "<graph6-file>"
G6_LINES = "DqK\nA?\nDUW\nBw\nDqK\n"
# G6_LINES with the format header, alone and as a prefix, blank lines, blanks around a line
# and every padding bit set: DqN, A^, DUZ and B~ set the bits that DqK, A?, DUW and Bw leave 0
G6_MESSY = ">>graph6<<\n\n>>graph6<<DqN\n  A^ \n\nDUZ\r\nB~\nDqK\n\n"


@pytest.mark.parametrize(
    "argv, lines, expected",
    [
        (
            ("verify", "--statement", "main1", "--max-n", "4"),
            100,
            "d9b7b5e0cc6f22042019572933350de84fd0d593c7fb9305f40626e13863ce07",
        ),
        (
            ("verify", "--statement", "main1", "--max-n", "5"),
            510,
            "4c4bacd5ece51ab1055ada2a2fd9a869a56ca3305bb6d167d8a2cd40278d99c8",
        ),
        (
            # the hypothesis walks I^2 and I^3, and the left part reuses the table of I^3
            ("verify", "--statement", "main1", "--max-n", "4", "--k", "3"),
            100,
            "7f01ae5d64e8e1b12de7fe28153370c5ce0fa91812b60312011de9c184cbdbbc",
        ),
        (
            ("verify", "--statement", "main2", "--max-n", "4", "--kmax", "3"),
            100,
            "7060dcbbe25d146f316c5861d96d104ed436fa4aa1fdfff2f6bc964dfd8cfca2",
        ),
        (
            ("verify", "--statement", "suspension", "--max-n", "5"),
            510,
            "ecfa5fbac23f281879c5061f1b55da874ec4e4ae587549f6084472707a557db6",
        ),
        (
            ("scan", "--conjecture", "newconj2", "--max-n", "4", "--kmax", "3"),
            143,
            "0e44e7fcbd16827610b6dfa91e1b8e33c4a1235f4ffca9fdf8fbc7bfc92ad025",
        ),
        (
            ("extend", "--builder", "anticycle:5", "--all", "--json"),
            31,
            "7520610f04a5192691df8abced63e2c4dd989ca28fa566122dcb65f88678391b",
        ),
        (
            ("suspend", "--builder", "anticycle:5", "--all", "--verify"),
            11,
            "d7024076d27efc1475550d42f007c1efe2f65c740bb71d4bdf52ba32069ff371",
        ),
        (
            (
                "verify", "--statement", "doublelinear", "--ideal", '["x0*x1","x0*x2","x3*x4"]',
                "--part-j", '["x0*x1","x0*x2"]', "--part-k", '["x3*x4"]', "--nvars", "5",
            ),
            2,
            "9709af7fa476cef3f75eb610e415296df00a4eb73970e2ec15ec3c93c841d793",
        ),
        (
            ("scan", "--conjecture", "np", "--max-n", "6", "--kmax", "3"),
            8,
            "c8c5d48085eb84c4f369a8db93692183533d867f2baa5bc90fae80a0a41c8ad0",
        ),
        (
            ("scan", "--conjecture", "generalnp", "--max-n", "5", "--kmax", "3"),
            41,
            "76574a1877a801dcee7d7857838a3d223836410fcfabc08a4bc6b1188966ef69",
        ),
        (
            ("scan", "--conjecture", "generalnp", "--max-n", "5", "--kmax", "3", "--reg-filter", "2"),
            40,
            "8c7e60999dc500760eb43ac579c7ac51fdc6255fb8e9c48713ee23152cb70249",
        ),
        (
            ("scan", "--conjecture", "newconj2", "--max-n", "4", "--kmax", "2", "--cg", "1"),
            143,
            "0207ca9b11781ff57cfbc708adf2633fd08958d87e7dc123c4d6089e5c80ea18",
        ),
        (
            ("scan", "--conjecture", "np", "--builder", "anticycle:5", "--kmax", "3"),
            2,
            "ea80ae7619336d461c265449fa75bcad7bec83a7202289b7708bffa58ae87198",
        ),
        (
            ("scan", "--conjecture", "np", "--graph6-file", G6_FILE, "--kmax", "3"),
            4,
            "9208b176746ea985f2642eb427cf86caa9f49752e1fea7925d29f215fa96b429",
        ),
        (
            ("scan", "--conjecture", "np", "--graph6-file", G6_FILE, "--kmax", "3", "--lattice-cap", "3"),
            5,
            "1368366c68dac927192db68f14b145db3f5fa12464c875ac60e9213506eb0a78",
        ),
        (
            ("scan", "--conjecture", "generalnp", "--graph6-file", G6_FILE, "--kmax", "3"),
            5,
            "d568387a4a4e7e6f9af911157af8cfabb734745c1b80f19d8f22a1bc0dca891a",
        ),
        (
            ("scan", "--conjecture", "generalnp", "--graph6-file", G6_FILE, "--kmax", "3", "--lattice-cap", "3"),
            5,
            "2642e23c583b15c1fadb74599776038927213ff57d4165d6901aa19e9c6f4820",
        ),
        (
            ("scan", "--conjecture", "newconj2", "--graph6-file", G6_FILE, "--kmax", "2"),
            56,
            "4e75eea0903cad8bb8b922e6a88b51e365a0966a6ee6af2b0bf418f097263f2c",
        ),
        (
            ("scan", "--conjecture", "newconj2", "--graph6-file", G6_FILE, "--kmax", "2", "--lattice-cap", "3"),
            5,
            "4b081b18c5d92753e9c9c514c024110569a8c16550fb89d415245ff3be559a68",
        ),
        (
            ("verify", "--statement", "banerjee", "--max-n", "5"),
            48,
            "791736fc4a63f61f76930ad62d6e38ab928aeac826f57980097a2d57d4ad35f3",
        ),
        (
            ("verify", "--statement", "hhz", "--max-n", "5"),
            48,
            "324d65e846c0ca4636f75c091aa9bc66da5de6f9cd9803c1485796638248fcf0",
        ),
    ],
    ids=[
        "main1", "main1-n5", "main1-k3", "main2", "suspension", "newconj2", "extend", "suspend", "doublelinear",
        "np", "generalnp", "generalnp-reg-2", "newconj2-cg-1", "np-anticycle",
        "np-file", "np-file-cap", "generalnp-file", "generalnp-file-cap", "newconj2-file",
        "newconj2-file-cap", "banerjee", "hhz",
    ],
)
def test_per_graph_check_stdout_bytes_are_pinned(tmp_path, capsys, monkeypatch, argv, lines, expected):
    # the checks that share one graph's tables across its S sets, extensions or parts,
    # the power checks banerjee and hhz, and the conjecture scans
    monkeypatch.delenv("EDGEIDEALS_CACHE", raising=False)
    if G6_FILE in argv:
        (tmp_path / "scan.g6").write_text(G6_LINES, encoding="ascii")
        argv = tuple(str(tmp_path / "scan.g6") if a == G6_FILE else a for a in argv)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


C5_IDEAL = '["x0*x1","x1*x2","x2*x3","x3*x4","x0*x4"]'
# the 15 generators of I(C5)^2
C5_SQUARE = json.dumps([
    "x0^2*x1^2", "x0*x1^2*x2", "x1^2*x2^2", "x0*x1*x2*x3", "x1*x2^2*x3", "x2^2*x3^2", "x0^2*x1*x4",
    "x0*x1*x3*x4", "x0*x2*x3*x4", "x2*x3^2*x4", "x3^2*x4^2", "x0^2*x4^2", "x0*x1*x2*x4", "x1*x2*x3*x4",
    "x0*x3*x4^2",
])


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (
            ("verify", "--statement", "colon", "--ideal", C5_IDEAL, "--monomial", "x0", "--nvars", "5"),
            0,
            "db533938728d5b1a8785c5dc869a7e2bf992da62125d681f3b0a7227445cdee1",
        ),
        (
            ("verify", "--statement", "colon", "--ideal", C5_IDEAL, "--monomial", "x0^2*x2", "--nvars", "5"),
            0,
            "adaeb2838a6524e73cb35610755c33dbbc56ad87309a31a49eaf926e3330470b",
        ),
        (
            ("verify", "--statement", "abc", "--ideal", C5_IDEAL, "--part-j", C5_SQUARE, "--nvars", "5"),
            0,
            "8557b24e441d5858fffb5c4ff8d58162ec05c47a9f3b7a4b042a4e5d5714771c",
        ),
        (
            (
                "verify", "--statement", "splitting", "--ideal", '["x0*x1","x1*x2","x2*x3"]',
                "--part-j", '["x0*x1"]', "--part-k", '["x1*x2","x2*x3"]', "--nvars", "4",
            ),
            0,
            "89225c5237836c76f83c6d373f7a93040b16eed91f80b156bcce54b6eb698d21",
        ),
        (
            (
                "verify", "--statement", "splitting", "--ideal", '["x0^2","x0*x1","x1^2"]',
                "--part-j", '["x0^2","x1^2"]', "--part-k", '["x0*x1"]', "--nvars", "2",
            ),
            1,
            "cc23a9e3c469cbee15a8276ceca43943ba1fb5f331d10620f5a18ebb0bbc474a",
        ),
        (
            ("betti", "--builder", "cycle:5", "--power", "2", "--multi"),
            0,
            "6389c9fd9d39b458e3ef199c2437158f8d9242d86ffd0c2b45d6481315c7c7f5",
        ),
    ],
    ids=["colon", "colon-x0^2*x2", "abc", "splitting-pass", "splitting-fail", "betti-multi"],
)
def test_monomial_strings_keep_their_bytes(capsys, argv, code, expected):
    # instances, witnesses and multidegrees print through monomials.monomial_str; a splitting
    # fail of a true table is graded, and test_verification pins a multidegree witness
    got, out, _ = run_cli(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


@pytest.mark.parametrize(
    "statement, expected",
    [
        ("main1", "4c4bacd5ece51ab1055ada2a2fd9a869a56ca3305bb6d167d8a2cd40278d99c8"),
        ("main2", "a5df9868a753de7cb3f9a7b946180339317b2aaa6dbf05f554f3ffc16a7b65ff"),
    ],
)
def test_per_orbit_checks_print_the_pinned_bytes_under_two_jobs(capsys, monkeypatch, statement, expected):
    # main1 and main2 check one set S per rooted class (G_S, z) of each graph; these digests
    # were taken while every labelled S was checked, and pinned above under --jobs 1
    monkeypatch.delenv("EDGEIDEALS_CACHE", raising=False)
    argv = ("verify", "--statement", statement, "--max-n", "5", "--no-cache", "--jobs", "2")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--conjecture", "np", "--kmax", "3"),
        ("scan", "--conjecture", "generalnp", "--kmax", "3"),
        ("scan", "--conjecture", "newconj2", "--kmax", "2"),
    ],
    ids=["np", "generalnp", "newconj2"],
)
def test_a_graph6_file_is_normalised_line_by_line(tmp_path, capsys, monkeypatch, argv):
    # each line is decoded and re-encoded, so header, blank lines and padding bits leave no trace
    monkeypatch.delenv("EDGEIDEALS_CACHE", raising=False)
    outs = []
    for name, text in (("clean.g6", G6_LINES), ("messy.g6", G6_MESSY)):
        (tmp_path / name).write_text(text, encoding="ascii", newline="")
        code, out, err = run_cli(capsys, *argv, "--graph6-file", str(tmp_path / name), "--no-cache")
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    instances = " ".join(rep["instance"] for rep in json_lines(outs[1])[1:])
    assert instances and not any(g6 in instances for g6 in ("DqN", "A^", "DUZ", "B~"))


def _readme_examples() -> list:
    """The argv of each `edgeideals verify` or `edgeideals scan` line of the README's shell
    examples, with its continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = readme.replace("\\\n", " ").splitlines()
    return [
        shlex.split(line, comments=True)[1:]
        for line in commands
        if line.startswith(("edgeideals verify ", "edgeideals scan "))
    ]


def test_the_readme_verify_and_scan_examples_run(tmp_path, capsys, monkeypatch):
    # the examples document the flags each statement reads, so each must run as written;
    # the one that reads family.g6 needs a file the README does not give
    examples = [argv for argv in _readme_examples() if "family.g6" not in argv]
    assert len(examples) >= 7 and any("--summary" in argv for argv in examples)
    monkeypatch.delenv("EDGEIDEALS_CACHE", raising=False)
    # relative paths, such as the --summary file, land in tmp_path
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1) and out and err == "", (argv, err)
    assert (tmp_path / "summary.csv").exists()


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "envcache"
    monkeypatch.setenv("EDGEIDEALS_CACHE", str(cache_dir))
    code, out, _ = run_cli(capsys, "verify", "--statement", "bounds", "--builder", "cycle:4")
    assert code == 0
    assert any(cache_dir.rglob("*.log"))
    monkeypatch.delenv("EDGEIDEALS_CACHE")
    _, out2, _ = run_cli(capsys, "verify", "--statement", "bounds", "--builder", "cycle:4")
    assert out == out2


def test_scan_newconj2_builder(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--conjecture", "newconj2",
        "--builder", "cycle:5", "--cg", "2", "--kmax", "2",
    )
    assert code == 0
    reports = json_lines(out)[1:]
    assert reports
    assert all(r["verdict"] == "pass" for r in reports)


def test_verify_deletion_probe(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--statement", "deletion-probe", "--builder", "cycle:5"
    )
    assert code == 0
    rep = json_lines(out)[1]
    assert rep["data"]["deleted_vertex_reg"] == {str(v): 2 for v in range(5)}


def test_betti_gf2(capsys):
    code, out, _ = run_cli(capsys, "betti", "--builder", "cycle:5", "--field", "gf2")
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "GF(2)" and doc["reg"] == 3
