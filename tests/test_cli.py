"""CLI behavior: outputs, exit codes, determinism, and the cache."""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from edgeideals import __version__
from edgeideals.cache import ResultCache
from edgeideals.cli import _caps, build_parser, main
from edgeideals.enumeration import enumerate_graphs
from edgeideals.graph6 import graph_to_graph6
from edgeideals.graphs import Graph, cycle, path
from edgeideals.resolutions import DEFAULT_CAPS
from edgeideals.verification import CONJECTURES, STATEMENTS, statement_params


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
# the ideal statements of verify -> a valid argv, which gives exactly the ideal flags the statement reads
SPLIT_ARGV = ["--ideal", '["x0*x1","x1*x2"]', "--part-j", '["x0*x1"]', "--part-k", '["x1*x2"]', "--nvars", "3"]
IDEAL_ARGV = {
    "splitting": SPLIT_ARGV,
    "doublelinear": SPLIT_ARGV,
    "colon": ["--ideal", '["x0*x1","x1*x2"]', "--monomial", "x0", "--nvars", "3"],
    "abc": ["--ideal", '["x0","x1"]', "--part-j", '["x0*x1"]', "--nvars", "3"],
}


def _statement_runs():
    """(argv, statement, parameter flags of its command, ideal flags it reads) for every
    statement of verify and every conjecture of scan; only graph statements read --no-cache."""
    verify_flags = ("--set", "--cover", "--k", "--kmax")
    graph = ["--builder", "cycle:4", "--no-cache"]
    for st in STATEMENTS:
        yield ["verify", "--statement", st, *graph], st, verify_flags, set()
    for st, argv in IDEAL_ARGV.items():
        yield ["verify", "--statement", st, *argv], st, verify_flags, set(argv[::2])
    for c in CONJECTURES:
        yield ["scan", "--conjecture", c, *graph], c, ("--kmax", "--reg-filter", "--cg"), set()


def test_each_statement_takes_only_the_flags_it_reads(capsys):
    read = []
    for argv, statement, flags, ideal_reads in _statement_runs():
        params = {} if statement in IDEAL_ARGV else statement_params(statement, {})
        for flag in flags:
            name, value = PARAM_FLAGS[flag]
            code, out, err = run_cli(capsys, *argv, flag, value)
            if name in params:
                read.append((statement, flag))
                assert code == 0, (statement, flag, err)
            else:
                # an unread flag is an input error before any output, so it never reaches a cache key
                assert (code, out, err) == (2, "", f"error: {statement} does not read {flag}\n")
        if argv[0] == "scan":
            continue
        for flag, value in IDEAL_FLAGS.items():
            if flag not in ideal_reads:
                code, out, err = run_cli(capsys, *argv, flag, value)
                assert (code, out, err) == (2, "", f"error: {statement} does not read {flag}\n")
    assert len(read) == 17
    code, out, _ = run_cli(capsys, "verify", "--statement", "froberg", "--builder", "cycle:4", "--k", "3", "--set", "0")
    assert (code, out) == (2, "")


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
    # the key of a statement that reads no parameter is what it was when every flag entered the
    # key, so a cache filled before keeps its hits
    run_cli(capsys, "verify", "--statement", "bounds", "--builder", "cycle:4", "--cache-dir", str(tmp_path))
    key = {
        "op": "verify",
        "statement": "bounds",
        "params": {},
        "field": "Q",
        "caps": DEFAULT_CAPS.to_json(),
        "graph6": graph_to_graph6(cycle(4)),
        "version": __version__,
    }
    assert [p.name for p in tmp_path.rglob("*.json")] == [ResultCache(tmp_path)._path(key).name]


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
    family = [graph_to_graph6(g) for g in enumerate_graphs(4, require_edge=True)]
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


def test_cache_on_off_identical_bytes(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    args = ["scan", "--conjecture", "np", "--max-n", "4", "--kmax", "2"]
    _, cold, _ = run_cli(capsys, *args, "--cache-dir", str(cache_dir))
    _, warm, _ = run_cli(capsys, *args, "--cache-dir", str(cache_dir))
    _, off, _ = run_cli(capsys, *args)
    assert cold == warm == off
    assert any(cache_dir.rglob("*.json"))


def test_verify_cache_roundtrip(tmp_path, capsys):
    cache_dir = tmp_path / "vcache"
    args = ["verify", "--statement", "bounds", "--max-n", "4", "--cache-dir", str(cache_dir)]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


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
    ],
)
def test_parallel_jobs_under_spawn_match_serial(capsys, monkeypatch, argv, method):
    # spawned and forkserver workers start from a fresh interpreter: they get
    # their context only through the pickled task, never from the parent's
    # module state
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
    # the workers wrote one report entry per graph, next to the family entry
    assert len(list(cache_dir.rglob("*.json"))) == len(enumerate_graphs(4, require_edge=True)) + 1
    _, warm, _ = run_cli(capsys, *args, "--cache-dir", str(cache_dir), "--jobs", "1")
    assert warm == uncached
    assert opened == [method]


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
def test_corrupt_cache_entry_is_a_miss(tmp_path, capsys, max_n, payload):
    # max_n None: the report entry of one graph; otherwise the --max-n family entry
    cache_dir = tmp_path / "cache"
    family = ["--max-n", str(max_n)] if max_n else ["--builder", "cycle:4"]
    args = ["verify", "--statement", "bounds", *family]
    _, uncached, _ = run_cli(capsys, *args, "--no-cache")
    run_cli(capsys, *args, "--cache-dir", str(cache_dir))
    (entry,) = [family_entry(cache_dir, max_n)] if max_n else cache_dir.rglob("*.json")
    good = entry.read_bytes()
    entry.write_bytes(payload)
    code, out, err = run_cli(capsys, *args, "--cache-dir", str(cache_dir))
    assert code == 0, err
    assert out == uncached
    assert entry.read_bytes() == good  # recomputed and overwritten


def test_cache_key_carries_the_package_version(tmp_path, capsys, monkeypatch):
    import edgeideals.cli as cli

    cache_dir = tmp_path / "cache"
    args = ["verify", "--statement", "bounds", "--builder", "cycle:4", "--cache-dir", str(cache_dir)]
    calls = count_calls(monkeypatch, cli, "run_statement")
    _, first, _ = run_cli(capsys, *args)
    _, hit, _ = run_cli(capsys, *args)
    assert len(calls) == 1
    monkeypatch.setattr(cli, "__version__", cli.__version__ + "+next")
    _, recomputed, _ = run_cli(capsys, *args)
    assert len(calls) == 2
    assert first == hit == recomputed
    assert len(list(cache_dir.rglob("*.json"))) == 2


def family_entry(cache_dir, max_n, version=__version__) -> Path:
    path = ResultCache(cache_dir)._path({"op": "family", "max_n": max_n, "version": version})
    assert path.exists()
    return path


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


def test_family_entry_key_carries_the_package_version(tmp_path, capsys, monkeypatch):
    import edgeideals.cli as cli

    args = ["verify", "--statement", "bounds", "--max-n", "3", "--cache-dir", str(tmp_path)]
    calls = count_calls(monkeypatch, cli, "enumerate_graphs")
    _, first, _ = run_cli(capsys, *args)
    _, hit, _ = run_cli(capsys, *args)
    assert len(calls) == 1
    monkeypatch.setattr(cli, "__version__", cli.__version__ + "+next")
    _, recomputed, _ = run_cli(capsys, *args)
    assert len(calls) == 2
    assert first == hit == recomputed
    family_entry(tmp_path, 3, cli.__version__)


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
def test_stdout_bytes_match_the_benchmark_reference(capsys, monkeypatch, workload, argv):
    # pins the CLI bytes that perfbench checks, so a refactor that changes them fails here
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text(encoding="utf-8"))[workload]["stdout_sha256"]
    monkeypatch.delenv("EDGEIDEALS_CACHE", raising=False)
    code, out, _ = run_cli(capsys, *argv, "--no-cache")
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


# stands for a file of G6_LINES: C5 as DqK (not canonical), an edgeless graph, C5 as its
# canonical DUW, a triangle, and DqK again
G6_FILE = "<graph6-file>"
G6_LINES = "DqK\nA?\nDUW\nBw\nDqK\n"


@pytest.mark.parametrize(
    "argv, lines, expected",
    [
        (
            ("verify", "--statement", "main1", "--max-n", "4"),
            100,
            "d9b7b5e0cc6f22042019572933350de84fd0d593c7fb9305f40626e13863ce07",
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
        "main1", "main2", "suspension", "newconj2", "extend", "suspend", "doublelinear",
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


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "envcache"
    monkeypatch.setenv("EDGEIDEALS_CACHE", str(cache_dir))
    code, out, _ = run_cli(capsys, "verify", "--statement", "bounds", "--builder", "cycle:4")
    assert code == 0
    assert any(cache_dir.rglob("*.json"))
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
