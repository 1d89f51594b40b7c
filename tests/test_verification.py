"""Statement verifiers: known instances, hypothesis handling, and scan behavior."""

import collections
import functools
import hashlib
import json
from itertools import combinations_with_replacement
from operator import add

import pytest

from edgeideals.complexes import CapExceeded
from edgeideals.graphs import (
    Graph,
    anticycle,
    canonical_key,
    cycle,
    independent_sets,
    is_gap_free,
    one_vertex_extensions,
    path,
    s_suspension,
)
from edgeideals.linalg import GF2, RATIONALS
from edgeideals.monomials import (
    MonomialIdeal,
    colon,
    edge_ideal,
    embed,
    generated_in_single_degree,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    minimalize,
    parse_ideal,
    parse_monomial,
    principal_ideal,
    variable,
    variable_ideal,
)
from edgeideals.resolutions import DEFAULT_CAPS, EngineCaps, betti_table, taylor_betti_oracle
from edgeideals.verification import (
    _REGISTRY,
    CONJECTURES,
    STATEMENTS,
    InvariantStore,
    VerificationReport,
    _certified_linear,
    _colon_quadrics,
    _Record,
    _suspension_parts,
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
    probe_vertex_deletions,
    run_statement,
    statement_params,
    summarize_reports,
)

from extension_reference import is_im_reg_invariant_extension
from families import graph_family
from pattern_reference import cricket

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
    e = parse_monomial(m, 4)
    assert rep.witness["lhs"] == tw.beta_multi(i, e)
    assert rep.witness["rhs"] == tl.beta_multi(i, e) + tr.beta_multi(i, e) + tm.beta_multi(i - 1, e)
    assert rep.witness["lhs"] != rep.witness["rhs"]
    argv = ["verify", "--statement", "splitting", "--nvars", "4", "--ideal", json.dumps(gens)]
    argv += ["--part-j", json.dumps(gens[:1]), "--part-k", json.dumps(gens[1:])]
    assert main(argv) == 1
    # the witness prints its multidegree as x0*x1*x2
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
        "3286e1ee2e9fd422a67e8b0026098097137b1d8ac2f6251fb2b369ba3f73d303"
    )


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
    rep = check_colon_reg_bound(edge_ideal(cycle(5)), variable(5, 0))
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
    z = principal_ideal(variable(g.n + 1, g.n))
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
    for g in graph_family(5, min_n=2, require_edge=True):
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
    with pytest.raises(ValueError):
        is_im_reg_invariant_extension(p3, Graph(4, [(0, 2), (1, 2), (2, 3)]))
    with pytest.raises(ValueError):
        is_im_reg_invariant_extension(Graph(3), Graph(4, [(0, 3)]))


@pytest.mark.parametrize("field", [RATIONALS, GF2], ids=["Q", "GF2"])
def test_enumerate_im_reg_extensions_matches_the_reference(field):
    for g in graph_family(4, require_edge=True) + [cycle(5), anticycle(5)]:
        want = [ext for ext in one_vertex_extensions(g) if is_im_reg_invariant_extension(g, ext, field)]
        assert enumerate_im_reg_extensions(g, field) == want, g


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
    reports = scan("np", graph_family(5, require_edge=True), k_max=2)
    assert len(reports) == 1  # the 5-cycle is the only gap-free reg-3 class here
    assert reports[0].verdict == "pass"
    assert reports[0].data["reg"] == 3


def test_np_scan_empty_family():
    assert scan("np", [], k_max=2) == []


def test_scans_give_no_report_on_an_edgeless_graph():
    for conjecture in CONJECTURES:
        assert run_statement(conjecture, Graph(3, []), {"k_max": 3}) == []


def test_generalnp_scan_small():
    reports = scan("generalnp", graph_family(4, require_edge=True), k_max=2)
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
    family = graph_family(4, require_edge=True)
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
    graph_statements = [st for st in STATEMENTS if not _REGISTRY[st].ideals]
    calls = [(st, functools.partial(run_statement, st, g)) for st in graph_statements]
    for conjecture, params in (
        ("np", {"k_max": 3}),
        ("generalnp", {"k_max": 3}),
        ("newconj2", {"k_max": 3}),
        ("newconj2", {"k_max": 3, "c_g": 1}),
    ):
        calls.append((conjecture, functools.partial(run_statement, conjecture, g, params)))
    # split the edges at vertex 0
    whole = edge_ideal(g)
    at0 = [e for e in whole.gens if e[0]]
    rest = [e for e in whole.gens if not e[0]]
    if at0 and rest:
        parts = (whole, minimalize(g.n, at0), minimalize(g.n, rest))
        for check in (check_betti_splitting, check_doublelinear):
            calls.append((check.__name__, functools.partial(check, *parts)))
    return calls


def test_each_check_computes_each_table_once(lattice_ideals, monkeypatch):
    from edgeideals import verification

    # every power that the colon certificate is asked about, in order
    certified = []
    certificate = verification._certified_linear
    monkeypatch.setattr(
        verification, "_certified_linear", lambda prev, power: certified.append(power) or certificate(prev, power)
    )
    for g in graph_family(4, require_edge=True) + [cycle(5), anticycle(5)]:
        for label, call in _table_sharing_calls(g):
            for seen in (lattice_ideals, certified):
                seen.clear()
            call()
            for seen in (lattice_ideals, certified):
                # the same generators in more variables have the same table
                gens = [tuple(i.gen_strings()) for i in seen]
                repeated = {str(i) for i, key in zip(seen, gens) if gens.count(key) > 1}
                assert not repeated, (label, g, repeated)
    lattice_ideals.clear()
    certified.clear()
    run_statement("main2", anticycle(5), {"k_max": 3})
    # I^2 and I^3 for the hypotheses, whose tables main1 reads and which are not offered to the
    # certificate; then I(G_S)^2 and I(G_S)^3 for the first set S of each of the 3 classes that
    # the 11 suspensions G_S fall into, all 6 shown linear by the certificate instead of a
    # table; linearity is a class invariant
    assert (len(lattice_ideals), len(certified)) == (2, 6)
    lattice_ideals.clear()
    certified.clear()
    run_statement("newconj2", anticycle(5), {"k_max": 3})
    # reg(I(G)), reg(I(H)) for each of the 4 classes among the 31 extensions H with im(H) =
    # im(G): 1 + 4 tables, where one table per labelled extension would be 1 + 16.  The
    # certificate shows I^2 and I^3 of the base linear, then I(H)^2 and I(H)^3 for each of the
    # 4 classes that the 16 invariant extensions fall into: 2 + 8, where one per labelled
    # extension would be 2 + 32
    assert (len(lattice_ideals), len(certified)) == (5, 10)
    lattice_ideals.clear()
    certified.clear()
    run_statement("main1", anticycle(5), {"k": 2})
    # I^2 for the hypothesis and the left part, I(G_S)^2 and the right part for the first set
    # S of each of the 3 rooted classes (G_S, z) of the 11 sets, and the intersection z * I^2
    # shared by all of them: 1 + 6 + 1, where one check per labelled S would be 1 + 22 + 1.
    # main1 reads every table, so nothing is certified
    assert (len(lattice_ideals), len(certified)) == (8, 0)


def test_the_store_keeps_one_record_per_class_and_no_cap_overrun():
    c5, relabelled = cycle(5), Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    store = InvariantStore()
    assert store.of(c5).values is store.of(relabelled).values
    # the lattice of I(C5) has more than 3 elements, in either labelling
    caps = EngineCaps(lattice_max=3)
    for g in (c5, relabelled):
        with pytest.raises(CapExceeded):
            store.of(g).reg(RATIONALS, caps)
        with pytest.raises(CapExceeded):
            store.of(g).nonlinear_power(range(1, 3), RATIONALS, caps)
    assert store.classes == {canonical_key(c5): {}}
    assert store.of(relabelled).im() == 1 and store.classes == {canonical_key(c5): {"im": 1}}


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
    # I^2, I^3 and I^4 for np, each one product with the power before it; for newconj2, I^2
    # and I^3 of the base and of one extension in each of the 4 classes of the 16 invariant
    # extensions; for main1 (k = 3) and main2, I^2 and I^3 of the base, then for the first set S
    # of each of the 3 rooted classes (G_S, z) of the 11 sets, main1 builds I(G_S)^2 and the
    # whole and right part at k = 3 (2 + 3 * 3), and main2, after z * I^2 and z * I^3, the whole
    # and right part at k = 2 and 3 (2 + 2 + 3 * 4); and I^(n+1) as I^n * I for blemma
    for statement, g, params, products in (
        ("np", anticycle(5), {"k_max": 4}, 3),
        ("newconj2", anticycle(5), {"k_max": 3}, 10),
        ("banerjee", anticycle(5), {"k_max": 3}, 2),
        ("hhz", cycle(4), {"k_max": 3}, 2),
        ("bht", anticycle(5), {"k_max": 3}, 2),
        ("main1", anticycle(5), {"k": 3}, 11),
        ("main2", anticycle(5), {"k_max": 3}, 16),
        ("blemma", anticycle(5), {"k": 2}, 2),
    ):
        calls.clear()
        run_statement(statement, g, params)
        assert len(calls) == products, statement


def inject_beta_1_7(monkeypatch, select):
    """Give verification.betti_table one extra multigraded entry beta_{1,x0^7} = 1, hence one
    extra graded entry beta_{1,7} = 1, in the table of every ideal that select accepts, and
    have the colon certificate refuse each power that select accepts."""
    from edgeideals import verification
    from edgeideals.resolutions import BettiTable

    table = verification.betti_table
    certificate = verification._certified_linear

    def injected(ideal, field, caps):
        t = table(ideal, field, caps)
        if not select(ideal):
            return t
        x0_7 = (7,) + (0,) * (ideal.nvars - 1)
        return BettiTable(t.field_token, {**t.multi, (1, x0_7): 1})

    monkeypatch.setattr(verification, "betti_table", injected)
    # a sound colon certificate refuses a power whose table is nonlinear, so the injected
    # table is reached and the fail carries it as its witness
    monkeypatch.setattr(
        verification, "_certified_linear", lambda prev, power: not select(power) and certificate(prev, power)
    )


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


def test_newconj2_fails_on_every_copy_of_one_nonlinear_extension_class(monkeypatch, capsys):
    from edgeideals.cli import main

    # the 15 invariant extensions H of C4 fall into 5 classes; the squares of the 4 labelled
    # copies of the class where z has one neighbour, and no other ideal, are hit
    g = cycle(4)
    exts = enumerate_im_reg_extensions(g)
    [target] = {canonical_key(ext) for ext in exts if len(ext.neighbors(g.n)) == 1}
    copies = [ext for ext in exts if canonical_key(ext) == target]
    squares = {ideal_power(edge_ideal(ext), 2) for ext in copies}
    resolved = set()

    def select(ideal):
        if ideal in squares:
            resolved.add(ideal)
        return ideal in squares

    inject_beta_1_7(monkeypatch, select)
    reports = run_statement("newconj2", g)
    assert len(reports) == len(exts) == 15 and len(copies) == 4
    for rep, ext in zip(reports, exts):
        neighbourhood = ",".join(str(v) for v in sorted(ext.neighbors(g.n)))
        assert rep.instance.endswith(f" z_neighborhood=[{neighbourhood}]"), rep
        if ext not in copies:
            assert rep.verdict == "pass", rep
            continue
        _nonlinear_square_witness(rep)
        # the injected entry is the only fault: the oracle gives this copy's square reg 4
        assert taylor_betti_oracle(ideal_power(edge_ideal(ext), 2)).regularity() == 4
    # a class the store marks nonlinear is resolved again on each labelled copy
    assert resolved == squares
    assert main(["scan", "--conjecture", "newconj2", "--builder", "cycle:4", "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert sum(json.loads(line).get("verdict") == "fail" for line in out.splitlines()) == 4


def test_main1_fails_on_a_broken_splitting(monkeypatch, capsys):
    from edgeideals.cli import main

    # the whole I(G_S)^2 is the only part with generators both with and without z, so the
    # hypothesis and the tables of the right part and of the intersection stay true
    inject_beta_1_7(monkeypatch, lambda ideal: {bool(e[-1]) for e in ideal.gens} == {True, False})
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
        lambda ideal: generated_in_single_degree(ideal) == 4 and any(e[-1] for e in ideal.gens),
    )
    g, s = path(3), (0, 2)
    [rep] = check_main2(g, [s], 2)
    _nonlinear_square_witness(rep)
    assert taylor_betti_oracle(ideal_power(edge_ideal(s_suspension(g, s)), 2)).regularity() == 4
    # the suspensions over (0,) and (2,) are isomorphic: each fails on its own square
    for s, rep in zip([(0,), (2,)], check_main2(g, [(0,), (2,)], 2)):
        _nonlinear_square_witness(rep)
        assert rep.instance.endswith(f"S=[{s[0]}] k_max=2"), rep
        assert taylor_betti_oracle(ideal_power(edge_ideal(s_suspension(g, s)), 2)).regularity() == 4
    argv = ["verify", "--statement", "main2", "--builder", "path:3", "--set", "0,2", "--kmax", "2"]
    assert main([*argv, "--no-cache"]) == 1
    capsys.readouterr()


# -- the colon certificate of linear powers ------------------------------------------------------


def certify_squares_and_cubes(graphs) -> collections.Counter:
    """How many of the powers I(g)^k, k = 2 and 3, of the graphs `_Record.power_table` shows
    linear by the colon certificate, by (certified, whether the Betti table is linear)."""
    out = collections.Counter()
    for g in graphs:
        record, prev = _Record(g, {}), edge_ideal(g)
        for k in (2, 3):
            power = ideal_product(prev, edge_ideal(g))
            table = record.power_table(k, power, RATIONALS, DEFAULT_CAPS, prev)
            certified = table is None
            out[certified, (betti_table(power) if certified else table).is_linear(2 * k)] += 1
            prev = power
    return out


def gap_free_suspensions(max_n: int) -> list:
    """The suspensions G_S over every proper independent set S of every gap-free graph with an
    edge and n <= max_n: the graphs whose powers main2 checks."""
    bases = [g for g in graph_family(max_n, require_edge=True) if is_gap_free(g)]
    return [s_suspension(g, s) for g in bases for s in independent_sets(g) if len(s) < g.n]


def test_the_colon_certificate_shows_only_linear_powers_linear():
    # at n <= 6 it shows every linear square and cube linear and refuses every nonlinear one
    assert certify_squares_and_cubes(graph_family(6, require_edge=True)) == {(True, True): 278, (False, False): 126}
    assert certify_squares_and_cubes(gap_free_suspensions(5)) == {(True, True): 842}


def test_a_certificate_without_the_chordality_test_shows_a_nonlinear_power_linear(monkeypatch):
    from edgeideals import verification

    monkeypatch.setattr(verification, "chordal_masks", lambda masks: True)
    counts = certify_squares_and_cubes(graph_family(5, require_edge=True))
    # 2K2 and every other graph with a gap has a nonlinear square
    assert counts[True, False] > 0 and not counts[False, False]


def reference_colon_quadrics(prev, power) -> list:
    """The quadric set of each colon power : M over the generators M of prev, as masks over the
    quadrics in lexicographic order, from the colon ideals themselves; each must be generated
    by quadrics."""
    index = {q: i for i, q in enumerate(combinations_with_replacement(range(power.nvars), 2))}
    sets = []
    for m in prev.gens:
        quotient = colon(power, m)
        assert {sum(e) for e in quotient.gens} == {2}, (power, m)
        sets.append(sum(1 << index[tuple(v for v, x in enumerate(e) for _ in range(x))] for e in quotient.gens))
    return sets


def test_the_colon_quadrics_are_those_of_the_colon_ideals():
    # each graph also with an isolated last vertex: a variable that no generator holds has top
    # 0 in the box, where a sum past the top would alias to the variable before it
    for g in graph_family(5, require_edge=True):
        for h in (g, Graph(g.n + 1, g.edges)):
            prev = edge_ideal(h)
            for _ in (2, 3):
                power = ideal_product(prev, edge_ideal(h))
                expected = reference_colon_quadrics(prev, power)
                assert sorted(_colon_quadrics(prev, power)) == sorted(set(expected)), h
                prev = power


def test_without_room_a_sum_past_the_top_aliases(monkeypatch):
    from edgeideals import box, verification

    class Unbounded(box._Box):
        """A box whose points may all move up along every axis, as if no top bounded them."""

        def __init__(self, top, size):
            super().__init__(top, size)
            self.below = [(1 << size) - 1] * len(top)

    # x2 divides no generator of I^2 for the edge x0*x1 and the isolated vertex 2, so
    # x0*x1 + x0*x2 aliases to x0*x1 + x0*x1 = x0^2*x1^2, a generator
    g = Graph(3, [(0, 1)])
    prev, power = edge_ideal(g), ideal_power(edge_ideal(g), 2)
    assert _colon_quadrics(prev, power) == reference_colon_quadrics(prev, power)
    monkeypatch.setattr(verification, "_Box", Unbounded)
    assert _colon_quadrics(prev, power) != reference_colon_quadrics(prev, power)


def test_a_power_past_the_box_limit_falls_back_to_its_table(monkeypatch):
    from edgeideals import verification

    g = anticycle(5)
    prev, power = edge_ideal(g), ideal_power(edge_ideal(g), 2)
    assert _certified_linear(prev, power)
    assert _Record(g, {}).power_table(2, power, RATIONALS, DEFAULT_CAPS, prev) is None
    # the box below top(I^2) = (2, 2, 2, 2, 2) has 243 points
    monkeypatch.setattr(verification, "BOX_MAX", 242)
    assert not _certified_linear(prev, power)
    record = _Record(g, {})
    table = record.power_table(2, power, RATIONALS, DEFAULT_CAPS, prev)
    assert table is not None and table.is_linear(4) and record.values == {2: True}


def test_a_certified_power_builds_no_lattice_and_so_meets_no_lattice_cap(monkeypatch):
    from edgeideals import verification

    # reg(I(C5)) needs a lattice of at most 40 points, its square and cube more
    caps = EngineCaps(lattice_max=40)
    (rep,) = run_statement("np", anticycle(5), {"k_max": 3}, caps=caps)
    assert rep.verdict == "pass" and rep.data == {"reg": 3, "k_checked": [2, 3]}
    monkeypatch.setattr(verification, "_certified_linear", lambda prev, power: False)
    (rep,) = run_statement("np", anticycle(5), {"k_max": 3}, caps=caps)
    assert rep.verdict == "skipped" and rep.reason.startswith("engine cap hit: cap lattice_max exceeded")


# -- one check per rooted class (G_S, z) ----------------------------------------------------------


def c5_sets_and_suspension_parts(monkeypatch):
    """The 11 sets S of anticycle(5), which is C5, and the list of the sets whose suspension
    `verification._suspension_parts` receives from now on, in order.  The sets fall into 3
    rooted classes (G_S, z): the empty set, the 5 single vertices and the 5 non-edges."""
    from edgeideals import verification

    g = anticycle(5)
    sets = [s for s in independent_sets(g) if len(s) < g.n]
    assert len(sets) == 11 and len({canonical_key(s_suspension(g, s), g.n) for s in sets}) == 3
    checked = []
    parts = verification._suspension_parts

    def recording(gs, ks):
        checked.append(tuple(v for v in range(g.n) if (v, g.n) not in gs.edges))
        return parts(gs, ks)

    monkeypatch.setattr(verification, "_suspension_parts", recording)
    return g, sets, checked


def test_main2_checks_the_next_set_of_an_orbit_after_a_fail(monkeypatch):
    from edgeideals import verification

    g, sets, checked = c5_sets_and_suspension_parts(monkeypatch)
    reports = check_main2(g, sets, 2)
    assert [r.verdict for r in reports] == ["pass"] * 11
    # one set per rooted class is checked; the other 8 get its pass
    assert checked == [(), (0,), (0, 1)]
    # the intersection at k = 2 loses its last generator on the right part of S = (0,) only
    [(_, _, target)] = _suspension_parts(s_suspension(g, (0,)), range(2, 3))
    meet_of = verification.intersect

    def lossy(a, b):
        meet = meet_of(a, b)
        if b != target:
            return meet
        return MonomialIdeal(meet.nvars, meet.gens - {meet.sorted_gens()[-1]})

    monkeypatch.setattr(verification, "intersect", lossy)
    checked.clear()
    faulty = check_main2(g, sets, 2)
    # S = (0,) fails with its own witness; the fail is not shared, so S = (1,) of its orbit is
    # checked and passes, and (2,), (3,), (4,) get that pass
    assert checked == [(), (0,), (1,), (0, 1)]
    assert [r.verdict for r in faulty] == ["pass", "fail"] + ["pass"] * 9
    assert faulty[1].instance.endswith("S=[0] k_max=2")
    assert faulty[1].witness["identity"] == "intersection" and faulty[1].witness["k"] == 2
    z = principal_ideal(variable(g.n + 1, g.n))
    rhs = ideal_product(z, ideal_power(embed(edge_ideal(g), g.n + 1), 2)).gen_strings()
    assert faulty[1].witness["rhs"] == rhs != faulty[1].witness["lhs"]
    assert [r.to_json() for r in faulty[2:]] == [r.to_json() for r in reports[2:]]


def test_main1_checks_the_next_set_of_an_orbit_after_a_fail(monkeypatch):
    from edgeideals import verification

    g, sets, checked = c5_sets_and_suspension_parts(monkeypatch)
    reports = check_main1(g, sets, 2)
    assert [r.verdict for r in reports] == ["pass"] * 11
    assert checked == [(), (0,), (0, 1)]
    # the table of the whole I(G_S)^2 of S = (0,), and of no other ideal, gets beta_{1,7} = 1
    wholes = {s: ideal_power(edge_ideal(s_suspension(g, s)), 2) for s in [(0,), (1,), (2,)]}
    inject_beta_1_7(monkeypatch, lambda ideal: ideal == wholes[(0,)])
    tables = []
    table = verification.betti_table

    def recording(ideal, field, caps):
        tables.append(ideal)
        return table(ideal, field, caps)

    monkeypatch.setattr(verification, "betti_table", recording)
    checked.clear()
    faulty = check_main1(g, sets, 2)
    assert checked == [(), (0,), (1,), (0, 1)]
    assert [r.verdict for r in faulty] == ["pass", "fail"] + ["pass"] * 9
    assert faulty[1].instance.endswith("S=[0] k=2")
    # the unhit run above passed S = (0,), so the injected entry is the only fault
    assert faulty[1].witness == {"i": 1, "j": 7, "lhs": 1, "rhs": 0}
    # S = (1,) of the failed orbit gets its own table of the whole; S = (2,) gets the pass of (1,)
    assert tables.count(wholes[(0,)]) == tables.count(wholes[(1,)]) == 1
    assert wholes[(2,)] not in tables
    assert [r.to_json() for r in faulty[2:]] == [r.to_json() for r in reports[2:]]


def shift_regularity(monkeypatch, target, by=1):
    """Make verification.regularity wrong by `by` on the ideal target and true on every other.

    The checks read reg from resolutions.regularity, which calls its own betti_table, so a
    fault in their regularity goes here and not into betti_table."""
    from edgeideals import verification

    regularity = verification.regularity

    def shifted(i, field, caps):
        return regularity(i, field, caps) + by * (i == target)

    monkeypatch.setattr(verification, "regularity", shifted)


@pytest.mark.parametrize(
    "statement, g, builder",
    # cycle(4) has reg 2 and a chordal complement; path(3) has reg 2 = m(G) + 1
    [("froberg", cycle(4), "cycle:4"), ("bounds", path(3), "path:3")],
)
def test_regularity_checks_fail_on_a_shifted_regularity(monkeypatch, capsys, statement, g, builder):
    from edgeideals.cli import main

    # one too high on reg(I(G)) only
    ideal = edge_ideal(g)
    shift_regularity(monkeypatch, ideal)
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


def test_suspension_fails_on_a_shifted_regularity(monkeypatch, capsys):
    from edgeideals.cli import main

    # one too high on reg(I(G_S)) only, so reg(I(G)) and both induced matching numbers stay true
    g, s = cycle(5), (0, 2)
    suspended = edge_ideal(s_suspension(g, s))
    shift_regularity(monkeypatch, suspended)
    [rep] = check_s_suspension_invariance(g, [s])
    assert rep.verdict == "fail" and rep.reason is None, rep
    assert rep.witness == {"im": [1, 1], "reg": [3, 4]}
    # the shift is the only fault: the Taylor oracle gives both graphs the same reg, 3
    assert taylor_betti_oracle(edge_ideal(g)).regularity() == 3
    assert taylor_betti_oracle(suspended).regularity() == 3
    argv = ["verify", "--statement", "suspension", "--builder", "cycle:5", "--set", "0,2", "--no-cache"]
    assert main(argv) == 1
    capsys.readouterr()


def test_bht_fails_on_a_shifted_induced_matching_number(monkeypatch, capsys):
    from edgeideals import verification
    from edgeideals.cli import main

    # im(P3) one too high, on P3 only; the bound 2k + im - 1 = 2k is tight on P3, so k = 1 fails
    g = path(3)
    im = verification.induced_matching_number
    monkeypatch.setattr(verification, "induced_matching_number", lambda h: im(h) + (h == g))
    rep = check_bht_lower_bound(g)
    assert rep.verdict == "fail" and rep.reason is None, rep
    assert rep.witness == {"k": 1, "reg": 2, "lower_bound": 3}
    # the shift is the only fault: the Taylor oracle gives the witness's reg, which the true
    # im allows with equality
    assert taylor_betti_oracle(edge_ideal(g)).regularity() == rep.witness["reg"] == 2 + im(g) - 1
    assert main(["verify", "--statement", "bht", "--builder", "path:3", "--no-cache"]) == 1
    capsys.readouterr()


def test_keylemma_fails_on_a_colon_with_a_squared_variable(monkeypatch, capsys):
    from edgeideals import verification
    from edgeideals.cli import main

    # the colon by the first generator L of I(C5) gets its last variable squared, which
    # shifts its regularity from 1 to 2; every other colon stays true
    g, cover, k = cycle(5), (0, 1, 3), 1
    first = ideal_power(edge_ideal(g), k).sorted_gens()[0]
    colon = verification.colon

    def squared(ideal, m):
        c = colon(ideal, m)
        if m != first:
            return c
        v = c.sorted_gens()[-1]
        return minimalize(c.nvars, (c.gens - {v}) | {tuple(map(add, v, v))})

    monkeypatch.setattr(verification, "colon", squared)
    rep = check_keylemma(g, cover, k)
    assert rep.verdict == "fail" and rep.reason is None, rep
    assert rep.witness == {"L": "x0*x1", "colon": ["x4^2", "x0", "x1", "x2", "x3"]}
    # the true colon (U * I : L) is generated by the variables of the witness, so its
    # resolution is linear of degree 1, where the witness's has reg 2
    true = colon(ideal_product(variable_ideal(g.n, cover), edge_ideal(g)), first)
    assert true == variable_ideal(g.n, range(g.n))
    assert taylor_betti_oracle(true).regularity() == 1
    assert taylor_betti_oracle(parse_ideal(rep.witness["colon"], g.n)).regularity() == 2
    argv = ["verify", "--statement", "keylemma", "--builder", "cycle:5", "--cover", "0,1,3", "--k", "1"]
    assert main([*argv, "--no-cache"]) == 1
    capsys.readouterr()


def test_blemma_fails_on_a_dropped_generator_of_the_next_power(monkeypatch, capsys):
    from edgeideals import verification
    from edgeideals.cli import main

    # I(C5)^2 loses x0*x2*x3*x4 = (L_2 : L_4) * L_4 with L_2 = x0*x4 and L_4 = x2*x3, and
    # no variable quotient (L_i : L_4), i <= 3, divides (L_2 : L_4) = x0*x4
    product = verification.ideal_product

    def faulty(a, b):
        p = product(a, b)
        return minimalize(p.nvars, p.gens - {parse_monomial("x0*x2*x3*x4", p.nvars)})

    monkeypatch.setattr(verification, "ideal_product", faulty)
    witness = {"j": 2, "k": 3, "quotient": "x0*x4"}
    g = cycle(5)
    rep = check_blemma_colon_structure(g, 1)
    assert rep.verdict == "fail" and rep.reason is None, rep
    assert rep.witness == witness and rep.data == {"violations": 1}
    # the drop is the only fault: the true I^2 holds the quotient times L_4
    l4 = edge_ideal(g).sorted_gens()[3]
    assert ideal_power(edge_ideal(g), 2).contains(tuple(map(add, parse_monomial(witness["quotient"], 5), l4)))
    assert main(["verify", "--statement", "blemma", "--builder", "cycle:5", "--k", "1", "--no-cache"]) == 1
    capsys.readouterr()
    # C5 and a disjoint edge is not gap-free: the same violation is recorded, not failed
    h = Graph(7, [*g.edges, (5, 6)])
    monkeypatch.setattr(verification, "ideal_product", product)
    assert check_blemma_colon_structure(h, 1).verdict == "pass"
    monkeypatch.setattr(verification, "ideal_product", faulty)
    rep = check_blemma_colon_structure(h, 1)
    assert rep.verdict == "skipped" and rep.witness == witness, rep


def verify_one(capsys, statement, *argv) -> tuple:
    """(exit code, report dict) of `verify --statement statement` on an ideal instance."""
    from edgeideals.cli import main

    code = main(["verify", "--statement", statement, *argv])
    _, report = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    return code, report


def oracle_reg(ideal) -> int:
    return taylor_betti_oracle(ideal).regularity()


C5_EDGES = '["x0*x1","x1*x2","x2*x3","x3*x4","x0*x4"]'


@pytest.mark.parametrize(
    "by, witness",
    # the terms are reg(I : x0) + 1 = 3 and reg(I + (x0)) = 2, and x0 divides a generator of I,
    # so reg(I) must equal one of them: 4 is over the bound, 1 under it equals neither
    [(1, {"reg": 4, "bound": 3}), (-2, {"reg": 1, "terms": [3, 2], "expected": "equality with one term"})],
    ids=["bound", "equality"],
)
def test_colon_fails_on_a_shifted_regularity(monkeypatch, capsys, by, witness):
    # reg(I(C5)) shifted only, so both terms stay true
    ideal, m = edge_ideal(cycle(5)), parse_monomial("x0", 5)
    shift_regularity(monkeypatch, ideal, by)
    code, rep = verify_one(capsys, "colon", "--ideal", C5_EDGES, "--monomial", "x0", "--nvars", "5")
    assert code == 1
    assert rep["verdict"] == "fail" and rep["witness"] == witness, rep
    # the shift is the only fault: the Taylor oracle gives the same terms, and a true reg(I)
    # that equals one of them
    terms = [oracle_reg(colon(ideal, m)) + sum(m), oracle_reg(ideal_sum(ideal, principal_ideal(m)))]
    assert witness.get("terms", terms) == terms and witness.get("bound", max(terms)) == max(terms)
    assert oracle_reg(ideal) == 3 == max(terms)


def test_abc_fails_on_a_shifted_regularity(monkeypatch, capsys):
    # J = I(C5) inside the maximal ideal I, so n1 = 1 < n2 = 2; one too high on reg(J) only
    sub, ambient = edge_ideal(cycle(5)), variable_ideal(5, range(5))
    shift_regularity(monkeypatch, sub)
    argv = ["--ideal", '["x0","x1","x2","x3","x4"]', "--part-j", C5_EDGES, "--nvars", "5"]
    code, rep = verify_one(capsys, "abc", *argv)
    assert code == 1
    assert rep["verdict"] == "fail" and rep["witness"] == {"reg": 4, "bound": 3}, rep
    # the shift is the only fault: the Taylor oracle gives every term of the bound, A = reg(J : L1)
    # + 1, B_l = reg((J, L1, ..., L_{l-1}) : L_l) + 1 and C = reg(I), and a true reg(J) within it
    order = ambient.sorted_gens()
    a = oracle_reg(colon(sub, order[0])) + 1
    b = [oracle_reg(colon(ideal_sum(sub, minimalize(5, order[:l])), order[l])) + 1 for l in range(1, 5)]
    c = oracle_reg(ambient)
    assert rep["data"] == {"A": a, "B": b, "C": c, "reg": 4}
    assert max(a, *b, c) == rep["witness"]["bound"]
    assert oracle_reg(sub) == 3 <= rep["witness"]["bound"]


def test_doublelinear_fails_on_an_off_diagonal_entry(monkeypatch, capsys):
    # one extra beta_{1,7} in the table of the whole only, so both parts stay linear
    gens = ["x0*x1", "x0*x2", "x3*x4"]
    whole, left, right = (parse_ideal(g, 5) for g in (gens, gens[:2], gens[2:]))
    inject_beta_1_7(monkeypatch, lambda ideal: ideal == whole)
    argv = ["--ideal", json.dumps(gens), "--part-j", json.dumps(gens[:2]), "--part-k", json.dumps(gens[2:])]
    code, rep = verify_one(capsys, "doublelinear", *argv, "--nvars", "5")
    assert code == 1
    assert rep["verdict"] == "fail" and rep["witness"] == {"i": 1, "j": 7, "lhs": 1, "rhs": 0}, rep
    # the injected entry is the only fault: the Taylor oracle gives beta_{1,7} = 0 on both sides
    assert taylor_betti_oracle(whole).beta(1, 7) == 0
    rhs = [taylor_betti_oracle(i).beta(j, 7) for i, j in ((left, 1), (right, 1), (intersect(left, right), 0))]
    assert rhs == [0, 0, 0]
