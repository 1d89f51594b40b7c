"""Statement verifiers: known instances, hypothesis handling, and scan behavior."""

import functools
import json

import pytest

from edgeideals.enumeration import enumerate_graphs
from edgeideals.graphs import (
    Graph,
    anticycle,
    cricket,
    cycle,
    one_vertex_extensions,
    path,
    s_suspension,
)
from edgeideals.linalg import GF2, RATIONALS
from edgeideals.monomials import (
    Monomial,
    MonomialIdeal,
    edge_ideal,
    embed,
    generated_in_single_degree,
    ideal_power,
    ideal_product,
    intersect,
    minimalize,
    parse_ideal,
    parse_monomial,
    principal_ideal,
    variable_ideal,
)
from edgeideals.resolutions import taylor_betti_oracle
from edgeideals.verification import (
    CONJECTURES,
    STATEMENTS,
    VerificationReport,
    check_abc_bound,
    check_banerjee,
    check_betti_splitting,
    check_bht_lower_bound,
    check_blemma_colon_structure,
    check_colon_reg_bound,
    check_doublelinear,
    check_froberg,
    check_hhz,
    check_keylemma,
    check_main1,
    check_main2,
    check_reg_bounds,
    check_s_suspension_invariance,
    enumerate_im_reg_extensions,
    is_im_reg_invariant_extension,
    probe_vertex_deletions,
    run_statement,
    statement_params,
    summarize_reports,
)

TWO_K2 = Graph(4, [(0, 1), (2, 3)])


def test_report_invariants():
    with pytest.raises(ValueError):
        VerificationReport("x", "inst", "fail")
    with pytest.raises(ValueError):
        VerificationReport("x", "inst", "maybe")
    r = VerificationReport("x", "inst", "fail", witness={"i": 1})
    assert r.to_json()["witness"] == {"i": 1}


# -- splitting -------------------------------------------------------------------


def test_betti_splitting_positive():
    whole = parse_ideal(["x0*x1", "x2*x3"], 4)
    left = parse_ideal(["x0*x1"], 4)
    right = parse_ideal(["x2*x3"], 4)
    rep = check_betti_splitting(whole, left, right)
    assert rep.verdict == "pass"
    assert rep.data == {"reg": 3, "pd": 1}


def test_betti_splitting_negative_control():
    whole = parse_ideal(["x0^2", "x0*x1", "x1^2"], 2)
    left = parse_ideal(["x0^2", "x1^2"], 2)
    right = parse_ideal(["x0*x1"], 2)
    rep = check_betti_splitting(whole, left, right)
    assert rep.verdict == "fail"
    assert (rep.witness["i"], rep.witness["j"]) == (1, 4)
    assert rep.witness["lhs"] == 0 and rep.witness["rhs"] == 1


def test_failed_witness_rechecks_in_isolation():
    whole = parse_ideal(["x0^2", "x0*x1", "x1^2"], 2)
    left = parse_ideal(["x0^2", "x1^2"], 2)
    right = parse_ideal(["x0*x1"], 2)
    rep = check_betti_splitting(whole, left, right)
    i, j = rep.witness["i"], rep.witness["j"]
    from edgeideals.monomials import intersect
    from edgeideals.resolutions import betti_table

    lhs = betti_table(whole).beta(i, j)
    rhs = (
        betti_table(left).beta(i, j)
        + betti_table(right).beta(i, j)
        + betti_table(intersect(left, right)).beta(i - 1, j)
    )
    assert lhs == rep.witness["lhs"] and rhs == rep.witness["rhs"]
    assert lhs != rhs


def test_betti_splitting_partition_validation():
    whole = parse_ideal(["x0*x1", "x2*x3"], 4)
    bad = parse_ideal(["x0*x1"], 4)
    with pytest.raises(ValueError):
        check_betti_splitting(whole, bad, bad)


def test_betti_splitting_fails_on_a_moved_multigraded_count(monkeypatch, capsys):
    from edgeideals import verification
    from edgeideals.cli import main
    from edgeideals.resolutions import DEFAULT_CAPS, BettiTable

    gens = ["x0*x1", "x1*x2", "x2*x3"]
    whole, left, right = (parse_ideal(p, 4) for p in (gens, gens[:1], gens[1:]))
    assert check_betti_splitting(whole, left, right).verdict == "pass"
    # beta_{1,x0x1x2} of I(P4) moves to x0^3, of the same degree, so the graded identity holds
    moved, to = (1, (1, 1, 1, 0)), (1, (3, 0, 0, 0))
    table = verification.betti_table

    def shifted(ideal, field, caps):
        t = table(ideal, field, caps)
        if ideal != whole:
            return t
        multi = dict(t.multi)
        multi[to] = multi.pop(moved)
        return BettiTable(t.field_token, multi)

    monkeypatch.setattr(verification, "betti_table", shifted)
    tw, tl, tr, tm = (
        shifted(x, RATIONALS, DEFAULT_CAPS) for x in (whole, left, right, intersect(left, right))
    )
    assert tw.entries == table(whole, RATIONALS, DEFAULT_CAPS).entries
    rep = check_betti_splitting(whole, left, right)
    assert rep.verdict == "fail", rep
    assert set(rep.witness) == {"i", "multidegree", "lhs", "rhs"}
    i, m = rep.witness["i"], rep.witness["multidegree"]
    assert (i, m) in {(1, "x0*x1*x2"), (1, "x0^3")}
    e = parse_monomial(m, 4).exps
    assert rep.witness["lhs"] == tw.beta_multi(i, e)
    assert rep.witness["rhs"] == tl.beta_multi(i, e) + tr.beta_multi(i, e) + tm.beta_multi(i - 1, e)
    assert rep.witness["lhs"] != rep.witness["rhs"]
    argv = ["verify", "--statement", "splitting", "--nvars", "4", "--ideal", json.dumps(gens)]
    argv += ["--part-j", json.dumps(gens[:1]), "--part-k", json.dumps(gens[1:])]
    assert main(argv) == 1
    capsys.readouterr()


def test_doublelinear():
    whole = parse_ideal(["x0*x1", "x2*x3"], 4)
    rep = check_doublelinear(
        whole, parse_ideal(["x0*x1"], 4), parse_ideal(["x2*x3"], 4)
    )
    assert rep.verdict == "pass"
    # one part without a linear resolution: hypothesis unmet
    whole2 = parse_ideal(["x0*x1", "x2*x3", "x4*x5"], 6)
    rep2 = check_doublelinear(
        whole2,
        parse_ideal(["x0*x1", "x2*x3"], 6),
        parse_ideal(["x4*x5"], 6),
    )
    assert rep2.verdict == "skipped"
    whole3 = parse_ideal(["x0*x1", "x0*x2", "x3*x4"], 5)
    rep3 = check_doublelinear(
        whole3,
        parse_ideal(["x0*x1", "x0*x2"], 5),
        parse_ideal(["x3*x4"], 5),
    )
    assert rep3.verdict == "pass"


# -- colon and abc bounds ----------------------------------------------------------


def test_colon_reg_bound_c5():
    rep = check_colon_reg_bound(edge_ideal(cycle(5)), Monomial.variable(5, 0))
    assert rep.verdict == "pass"
    assert rep.data["reg"] == 3
    assert rep.data["reg"] in (rep.data["colon_term"], rep.data["sum_term"])


def test_colon_reg_bound_principal():
    ideal = parse_ideal(["x0*x1"], 2)
    rep = check_colon_reg_bound(ideal, parse_monomial("x0", 2))
    assert rep.verdict == "pass"
    assert rep.data == {"reg": 2, "colon_term": 2, "sum_term": 1}


def test_colon_reg_bound_fresh_variable():
    ideal = parse_ideal(["x0*x1", "x1*x2"], 10)
    rep = check_colon_reg_bound(ideal, parse_monomial("x9", 10))
    assert rep.verdict == "pass"


def test_abc_bound_principal_instance():
    ambient = parse_ideal(["x0*x1"], 2)
    sub = parse_ideal(["x0^2*x1^2"], 2)
    rep = check_abc_bound(sub, ambient)
    assert rep.verdict == "pass"
    assert rep.data == {"A": 4, "B": [], "C": 2, "reg": 4}


def test_abc_bound_cover_instance():
    # the shape used for suspension powers: J = U * I inside I
    ideal = edge_ideal(cycle(5))
    uid = variable_ideal(5, (0, 1, 3))
    from edgeideals.monomials import ideal_product

    sub = ideal_product(uid, ideal)
    rep = check_abc_bound(sub, ideal)
    assert rep.verdict == "pass"
    assert rep.data["reg"] <= max([rep.data["A"], rep.data["C"]] + rep.data["B"])


def test_abc_bound_hypothesis_gate():
    ideal = edge_ideal(cycle(4))
    rep = check_abc_bound(ideal, ideal_power(ideal, 2))
    assert rep.verdict == "skipped"


# -- ordered colon structure ---------------------------------------------------------


def test_blemma_small_graphs():
    assert check_blemma_colon_structure(cycle(4), 1).verdict == "pass"
    assert check_blemma_colon_structure(cycle(5), 1).verdict == "pass"
    assert check_blemma_colon_structure(cycle(5), 2).verdict == "pass"
    rep = check_blemma_colon_structure(TWO_K2, 1)
    assert rep.verdict in ("pass", "skipped")
    assert rep.verdict == "pass"  # holds vacuously here; recorded either way


# -- cover colons -----------------------------------------------------------------------


def test_keylemma_instances():
    assert check_keylemma(cycle(5), (0, 1, 3), 1).verdict == "pass"
    assert check_keylemma(cycle(4), (0, 1, 2, 3), 2).verdict == "pass"
    assert check_keylemma(cycle(4), (0, 2), 0).verdict == "pass"
    rep = check_keylemma(cycle(4), (0,), 1)
    assert rep.verdict == "skipped"
    assert "cover" in rep.reason


# -- suspension statements -----------------------------------------------------------------


def test_suspension_invariance_instances():
    [rep] = check_s_suspension_invariance(path(3), [{0, 2}])
    assert rep.verdict == "pass" and rep.data == {"im": [1, 1], "reg": [2, 2]}
    [rep] = check_s_suspension_invariance(cycle(5), [frozenset()])
    assert rep.verdict == "pass"
    [rep] = check_s_suspension_invariance(TWO_K2, [{0, 2}])
    assert rep.verdict == "pass" and rep.data == {"im": [2, 2], "reg": [3, 3]}
    with pytest.raises(ValueError):
        check_s_suspension_invariance(cycle(4), [{0, 1}])


def test_main1_instances():
    [rep] = check_main1(cycle(4), [{0, 2}], 2)
    assert rep.verdict == "pass"
    [rep] = check_main1(TWO_K2, [{0, 2}], 2)
    assert rep.verdict == "skipped"
    assert "gap-free" in rep.reason


def test_main2_instances():
    [rep] = check_main2(cycle(4), [{0, 2}], 3)
    assert rep.verdict == "pass"
    assert rep.data["power_reg"] == {2: 4, 3: 6}
    [rep] = check_main2(anticycle(5), [{0}], 2)
    assert rep.verdict == "pass"
    assert rep.data["power_reg"] == {2: 4}


def test_main2_fails_on_a_broken_intersection_identity(monkeypatch):
    from edgeideals import verification

    def lossy(a, b):
        # the true intersection less its last generator
        meet = intersect(a, b)
        return MonomialIdeal(meet.nvars, meet.gens - {meet.sorted_gens()[-1]})

    monkeypatch.setattr(verification, "intersect", lossy)
    g = anticycle(5)
    [rep] = check_main2(g, [{0}], 2)
    assert rep.verdict == "fail"
    assert rep.witness["identity"] == "intersection" and rep.witness["k"] == 2
    z = principal_ideal(Monomial.variable(g.n + 1, g.n))
    rhs = ideal_product(z, ideal_power(embed(edge_ideal(g), g.n + 1), 2)).gen_strings()
    assert rep.witness["rhs"] == rhs
    assert rep.witness["lhs"] != rhs


def test_banerjee_instances():
    rep = check_banerjee(anticycle(5), 3)
    assert rep.verdict == "pass"
    assert rep.data["reg"] == 3
    assert rep.data["power_regs"] == {2: 4, 3: 6}
    rep = check_banerjee(cycle(4), 3)
    assert rep.verdict == "pass"
    assert rep.data["reg"] == 2
    assert check_banerjee(cricket(), 2).verdict == "skipped"
    assert check_banerjee(TWO_K2, 2).verdict == "skipped"


# -- per-graph bound statements ----------------------------------------------------------------


def test_froberg_bounds_bht_hhz_single_graphs():
    assert check_froberg(cycle(4)).verdict == "pass"
    assert check_froberg(cycle(5)).verdict == "pass"
    assert check_reg_bounds(TWO_K2).verdict == "pass"
    assert check_bht_lower_bound(cycle(5), 2).verdict == "pass"
    assert check_hhz(cycle(4), 2).verdict == "pass"
    rep = check_hhz(cycle(5), 2)
    assert rep.verdict == "skipped"


def test_main1_pass_implies_main2_linearity():
    # meta-property over a few instances: a passing splitting at k=2 comes
    # with linear suspended powers on the same instance
    for g, s in [(cycle(4), {0, 2}), (cycle(4), frozenset()), (anticycle(5), {0})]:
        [rep1] = check_main1(g, [s], 2)
        if rep1.verdict == "pass":
            assert check_main2(g, [s], 2)[0].verdict == "pass", (g, s)


def test_four_bound_checks_are_mutually_consistent():
    for g in enumerate_graphs(5, min_n=2, require_edge=True):
        froberg = check_froberg(g)
        bounds = check_reg_bounds(g)
        bht = check_bht_lower_bound(g, 2)
        hhz = check_hhz(g, 2)
        assert froberg.verdict == "pass" and bounds.verdict == "pass"
        assert bht.verdict == "pass"
        assert hhz.verdict in ("pass", "skipped")
        r = froberg.data["reg"]
        assert r == bounds.data["reg"]
        if hhz.verdict == "pass":
            # co-chordal: linear at k=1 forces reg 2 and a gap-free graph
            assert hhz.data["power_regs"][1] == 2 == r
            assert bounds.data["im"] == 1


# -- invariant extensions ------------------------------------------------------------------------


def test_is_im_reg_invariant_extension():
    p3 = path(3)
    for s in [frozenset(), {0}, {2}, {0, 2}]:
        assert is_im_reg_invariant_extension(p3, s_suspension(p3, s))
    ext = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_im_reg_invariant_extension(path(3), ext)  # P3 -> P4 keeps im=1, reg=2
    with pytest.raises(ValueError):
        is_im_reg_invariant_extension(p3, p3)


def test_enumerate_im_reg_extensions_contains_suspensions():
    p3 = path(3)
    exts = enumerate_im_reg_extensions(p3)
    from edgeideals.graphs import independent_sets

    for s in independent_sets(p3):
        if len(s) == p3.n:
            continue
        assert s_suspension(p3, s) in exts
    assert Graph(4, [(0, 1), (1, 2), (2, 3)]) in exts  # P3 -> P4 keeps im=1, reg=2
    k2 = Graph(2, [(0, 1)])
    extsk2 = enumerate_im_reg_extensions(k2)
    assert s_suspension(k2, frozenset()) in extsk2  # the triangle cone qualifies
    assert len(one_vertex_extensions(k2)) == 3


def test_probe_vertex_deletions():
    rep = probe_vertex_deletions(cycle(5))
    assert rep.verdict == "pass"
    assert rep.data["deleted_vertex_reg"] == {str(v): 2 for v in range(5)}


# -- scans ------------------------------------------------------------------------------------------


def scan(conjecture, graphs, **params) -> list:
    """The reports of one conjecture scan over graphs, one run_statement call per graph."""
    return [rep for g in graphs for rep in run_statement(conjecture, g, params)]


def test_np_scan_small():
    reports = scan("np", enumerate_graphs(5, require_edge=True), k_max=2)
    assert len(reports) == 1  # the 5-cycle is the only gap-free reg-3 class here
    assert reports[0].verdict == "pass"
    assert reports[0].data["reg"] == 3


def test_np_scan_empty_family():
    assert scan("np", [], k_max=2) == []


def test_scans_give_no_report_on_an_edgeless_graph():
    for conjecture in CONJECTURES:
        assert run_statement(conjecture, Graph(3, []), {"k_max": 3}) == []


def test_generalnp_scan_small():
    reports = scan("generalnp", enumerate_graphs(4, require_edge=True), k_max=2)
    assert reports
    assert all(r.verdict == "pass" for r in reports)


def test_newconj2_scan_on_c5():
    reports = scan("newconj2", [cycle(5)], k_max=2, c_g=2)
    assert reports
    assert all(r.verdict == "pass" for r in reports)
    rows = summarize_reports([r.to_json() for r in reports])
    assert rows[0]["statement"] == "newconj2"
    assert rows[0]["fail"] == 0 and rows[0]["skipped"] == 0


def test_newconj2_scan_skips_gapped_base():
    reports = scan("newconj2", [TWO_K2], k_max=2, c_g=2)
    assert len(reports) == 1 and reports[0].verdict == "skipped"


def test_scan_config_validation():
    with pytest.raises(ValueError, match="unknown statement"):
        run_statement("nope", cycle(5), {"k_max": 2})
    with pytest.raises(ValueError, match="np scans need k_max >= 2"):
        run_statement("np", cycle(5), {"k_max": 1})
    with pytest.raises(ValueError, match="newconj2 scans need k_max >= c_G"):
        run_statement("newconj2", cycle(5), {"k_max": 2, "c_g": 3})
    # the range is checked before the graph is looked at
    with pytest.raises(ValueError, match="np scans need k_max >= 2"):
        run_statement("np", Graph(3, []), {"k_max": 1})


def test_scan_reports_are_deterministic_and_canonical():
    family = enumerate_graphs(4, require_edge=True)
    a = [r.to_json() for r in scan("generalnp", family, k_max=2)]
    b = [r.to_json() for r in scan("generalnp", family, k_max=2)]
    assert a == b
    # np and generalnp report an isomorphic relabelling on the same canonical instance
    c5 = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])
    assert [r.to_json() for r in run_statement("np", c5, {"k_max": 2})] == [
        r.to_json() for r in run_statement("np", cycle(5), {"k_max": 2})
    ]


# -- statement dispatch --------------------------------------------------------------------------


def test_run_statement_dispatch():
    reports = run_statement("froberg", cycle(4))
    assert len(reports) == 1 and reports[0].verdict == "pass"
    reports = run_statement("keylemma", path(4), {"k": 1})
    assert len(reports) == 3  # three minimal covers
    assert all(r.verdict == "pass" for r in reports)
    reports = run_statement("suspension", path(3))
    assert len(reports) == 5  # every proper independent set
    assert all(r.verdict == "pass" for r in reports)
    with pytest.raises(ValueError):
        run_statement("nonsense", cycle(4))


def test_statement_params_fill_defaults_and_reject_unread_parameters():
    assert statement_params("froberg", {}) == {}
    assert statement_params("main2", {}) == {"sets": None, "k_max": 3}
    assert statement_params("newconj2", {"k_max": 3}) == {"k_max": 3, "c_g": 2}
    with pytest.raises(ValueError, match="froberg does not read the parameter 'k'"):
        run_statement("froberg", cycle(4), {"k": 3})
    with pytest.raises(ValueError, match="np does not read the parameter 'c_g'"):
        run_statement("np", cycle(5), {"c_g": 7})
    with pytest.raises(ValueError, match="main1 needs a power k >= 1, got 0"):
        run_statement("main1", cycle(4), {"k": 0})


def test_run_statement_gf2():
    reports = run_statement("froberg", cycle(5), field=GF2)
    assert reports[0].verdict == "pass"


# -- one table per distinct ideal ------------------------------------------------------------------


@pytest.fixture
def lattice_ideals(monkeypatch):
    """Every ideal whose lcm lattice is built, in order: one per Betti table computed."""
    from edgeideals import resolutions

    seen = []
    lattice = resolutions.lcm_lattice

    def recording(ideal, caps=resolutions.DEFAULT_CAPS):
        seen.append(ideal)
        return lattice(ideal, caps)

    monkeypatch.setattr(resolutions, "lcm_lattice", recording)
    return seen


def _table_sharing_calls(g):
    """(label, call) for every check and scan on g that must not compute a table twice."""
    calls = [(st, functools.partial(run_statement, st, g)) for st in STATEMENTS]
    for conjecture, params in (
        ("np", {"k_max": 3}),
        ("generalnp", {"k_max": 3}),
        ("newconj2", {"k_max": 3}),
        ("newconj2", {"k_max": 3, "c_g": 1}),
    ):
        calls.append((conjecture, functools.partial(run_statement, conjecture, g, params)))
    # split the edges at vertex 0
    whole = edge_ideal(g)
    at0 = [m for m in whole.gens if m.exps[0]]
    rest = [m for m in whole.gens if not m.exps[0]]
    if at0 and rest:
        parts = (whole, minimalize(g.n, at0), minimalize(g.n, rest))
        for check in (check_betti_splitting, check_doublelinear):
            calls.append((check.__name__, functools.partial(check, *parts)))
    return calls


def test_each_check_computes_each_table_once(lattice_ideals):
    for g in enumerate_graphs(4, require_edge=True) + [cycle(5), anticycle(5)]:
        for label, call in _table_sharing_calls(g):
            lattice_ideals.clear()
            call()
            # the same generators in more variables have the same table
            gens = [tuple(i.gen_strings()) for i in lattice_ideals]
            repeated = {str(i) for i, key in zip(lattice_ideals, gens) if gens.count(key) > 1}
            assert not repeated, (label, g, repeated)
    lattice_ideals.clear()
    run_statement("main2", anticycle(5), {"k_max": 3})
    # I^2 and I^3 for the hypotheses, then I(G_S)^2 and I(G_S)^3 for each of 11 sets S
    assert len(lattice_ideals) == 24
    lattice_ideals.clear()
    run_statement("main1", anticycle(5), {"k": 2})
    # I^2 for the hypothesis and the left part, I(G_S)^2 and the right part for each of
    # 11 sets S, and the intersection z * I^2 shared by all of them
    assert len(lattice_ideals) == 24


def test_scans_build_each_power_with_one_product(monkeypatch):
    from edgeideals import monomials, verification

    calls = []
    product = monomials.ideal_product

    def counting(a, b):
        calls.append((a, b))
        return product(a, b)

    # ideal_power reaches ideal_product through monomials, the scans through verification
    for module in (monomials, verification):
        monkeypatch.setattr(module, "ideal_product", counting)
    # I^2, I^3 and I^4 for np, each one product with the power before it; I^(k-1) of each
    # suspension once for main1, and I^(n+1) as I^n * I for blemma
    for statement, g, params, products in (
        ("np", anticycle(5), {"k_max": 4}, 3),
        ("newconj2", anticycle(5), {"k_max": 3}, 34),
        ("banerjee", anticycle(5), {"k_max": 3}, 2),
        ("hhz", cycle(4), {"k_max": 3}, 2),
        ("bht", anticycle(5), {"k_max": 3}, 2),
        ("main1", anticycle(5), {"k": 3}, 35),
        ("main2", anticycle(5), {"k_max": 3}, 48),
        ("blemma", anticycle(5), {"k": 2}, 2),
    ):
        calls.clear()
        run_statement(statement, g, params)
        assert len(calls) == products, statement


def inject_beta_1_7(monkeypatch, select):
    """Give verification.betti_table one extra multigraded entry beta_{1,x0^7} = 1, hence one
    extra graded entry beta_{1,7} = 1, in the table of every ideal that select accepts."""
    from edgeideals import verification
    from edgeideals.resolutions import BettiTable

    table = verification.betti_table

    def injected(ideal, field, caps):
        t = table(ideal, field, caps)
        if not select(ideal):
            return t
        x0_7 = (7,) + (0,) * (ideal.nvars - 1)
        return BettiTable(t.field_token, {**t.multi, (1, x0_7): 1})

    monkeypatch.setattr(verification, "betti_table", injected)


@pytest.fixture
def wrong_degree_four_tables(monkeypatch):
    """verification.betti_table with one extra entry beta_{1,7} = 1 in the table of every ideal
    generated in degree 4, such as the square of an edge ideal."""
    inject_beta_1_7(monkeypatch, lambda ideal: generated_in_single_degree(ideal) == 4)


def test_power_checks_fail_on_a_nonlinear_square(wrong_degree_four_tables, capsys):
    from edgeideals.cli import main

    for statement, g in (
        ("banerjee", anticycle(5)), ("hhz", cycle(4)), ("generalnp", anticycle(5)), ("np", anticycle(5))
    ):
        (rep,) = run_statement(statement, g, {"k_max": 3})
        assert rep.verdict == "fail", statement
        assert {k: rep.witness[k] for k in ("k", "reg", "expected")} == {"k": 2, "reg": 6, "expected": 4}
    assert {"i": 1, "j": 7, "beta": 1} in rep.witness["table"]["entries"]
    # the injected entry is the only fault: the Taylor oracle gives the true regularity of the
    # squares that banerjee, generalnp and np check, and of the one that hhz checks
    assert taylor_betti_oracle(ideal_power(edge_ideal(anticycle(5)), 2)).regularity() == 4
    assert taylor_betti_oracle(ideal_power(edge_ideal(cycle(4)), 2)).regularity() == 4
    assert main(["verify", "--statement", "banerjee", "--builder", "anticycle:5", "--no-cache"]) == 1
    argv = ["scan", "--conjecture", "generalnp", "--builder", "anticycle:5", "--kmax", "3", "--no-cache"]
    assert main(argv) == 1
    capsys.readouterr()


def _nonlinear_square_witness(rep):
    assert rep.verdict == "fail", rep
    assert {k: rep.witness[k] for k in ("k", "reg", "expected")} == {"k": 2, "reg": 6, "expected": 4}
    assert {"i": 1, "j": 7, "beta": 1} in rep.witness["table"]["entries"]


def test_newconj2_fails_on_a_nonlinear_extension_square(monkeypatch, capsys):
    from edgeideals.cli import main

    # only the squares of the extensions, in one variable more than P3, are hit; the base passes
    inject_beta_1_7(
        monkeypatch, lambda ideal: ideal.nvars == 4 and generated_in_single_degree(ideal) == 4
    )
    g = path(3)
    reports = run_statement("newconj2", g)
    exts = enumerate_im_reg_extensions(g)
    assert exts and len(reports) == len(exts)
    for rep, ext in zip(reports, exts):
        assert "z_neighborhood" in rep.instance
        _nonlinear_square_witness(rep)
        assert taylor_betti_oracle(ideal_power(edge_ideal(ext), 2)).regularity() == 4
    assert main(["scan", "--conjecture", "newconj2", "--builder", "path:3", "--no-cache"]) == 1
    capsys.readouterr()


def test_main1_fails_on_a_broken_splitting(monkeypatch, capsys):
    from edgeideals.cli import main

    # the whole I(G_S)^2 is the only part with generators both with and without z, so the
    # hypothesis and the tables of the right part and of the intersection stay true
    inject_beta_1_7(monkeypatch, lambda ideal: {bool(m.exps[-1]) for m in ideal.gens} == {True, False})
    g, s = path(3), (0, 2)
    [rep] = check_main1(g, [s], 2)
    assert rep.verdict == "fail", rep
    assert rep.witness == {"i": 1, "j": 7, "lhs": 1, "rhs": 0}
    # the true beta_{1,7} of the whole is the 0 that the other three tables give
    whole = ideal_power(edge_ideal(s_suspension(g, s)), 2)
    assert taylor_betti_oracle(whole).beta(1, 7) == 0
    assert main(["verify", "--statement", "main1", "--builder", "path:3", "--set", "0,2", "--no-cache"]) == 1
    capsys.readouterr()


def test_main2_fails_on_a_nonlinear_suspended_square(monkeypatch, capsys):
    from edgeideals.cli import main

    # only ideals with a generator divisible by z = x_n are hit, so the hypothesis on I(G)^j holds
    inject_beta_1_7(
        monkeypatch,
        lambda ideal: generated_in_single_degree(ideal) == 4 and any(m.exps[-1] for m in ideal.gens),
    )
    g, s = path(3), (0, 2)
    [rep] = check_main2(g, [s], 2)
    _nonlinear_square_witness(rep)
    assert taylor_betti_oracle(ideal_power(edge_ideal(s_suspension(g, s)), 2)).regularity() == 4
    argv = ["verify", "--statement", "main2", "--builder", "path:3", "--set", "0,2", "--kmax", "2"]
    assert main([*argv, "--no-cache"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "statement, g, builder",
    # cycle(4) has reg 2 and a chordal complement; path(3) has reg 2 = m(G) + 1
    [("froberg", cycle(4), "cycle:4"), ("bounds", path(3), "path:3")],
)
def test_regularity_checks_fail_on_a_shifted_regularity(monkeypatch, capsys, statement, g, builder):
    from edgeideals import verification
    from edgeideals.cli import main

    # froberg and bounds read reg(I(G)) from resolutions.regularity, which calls its own
    # betti_table, so the fault goes into verification.regularity: one too high on I(g) only
    regularity = verification.regularity
    ideal = edge_ideal(g)

    def shifted(i, field, caps):
        return regularity(i, field, caps) + (i == ideal)

    monkeypatch.setattr(verification, "regularity", shifted)
    (rep,) = run_statement(statement, g)
    assert rep.verdict == "fail" and rep.reason is None, rep
    assert rep.witness["reg"] == 3
    # the shift is the only fault: the Taylor oracle gives the true reg, which the statement allows
    true_reg = taylor_betti_oracle(ideal).regularity()
    assert true_reg == 2 != rep.witness["reg"]
    if statement == "froberg":
        assert rep.witness["complement_chordal"]
    else:
        assert rep.witness["im"] + 1 <= true_reg <= rep.witness["matching"] + 1 < rep.witness["reg"]
    assert main(["verify", "--statement", statement, "--builder", builder, "--no-cache"]) == 1
    capsys.readouterr()
