"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is exact; a
criterion passes only with zero exceptions at the stated family sizes.
"""

import random

import pytest

from edgeideals.graphs import (
    anticycle,
    complement,
    cycle,
    independent_sets,
    induced_matching_number,
    is_chordal,
    matching_number,
    minimal_vertex_covers,
    path,
)
from edgeideals.linalg import GF2, RATIONALS
from edgeideals.monomials import (
    colon,
    edge_ideal,
    ideal_power,
    ideal_product,
    is_generated_by_variables,
    minimalize,
    parse_ideal,
    variable_ideal,
)
from edgeideals.resolutions import (
    betti_table,
    linear_quotients_order,
    regularity,
    taylor_betti_oracle,
)
from edgeideals.verification import (
    check_betti_splitting,
    check_main1,
    check_main2,
    run_statement,
)
from families import graph_family


def _report(name: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"[{verdict}] {name}" + (f" ({len(failures)} exceptions)" if failures else ""))
    assert not failures, f"{name}: {failures[:5]}"


@pytest.fixture(scope="module")
def family7():
    return graph_family(7, min_n=2, require_edge=True)


@pytest.fixture(scope="module")
def family6():
    return graph_family(6, min_n=2, require_edge=True)


# Criteria 1 and 2 read the same reg(I), and criteria 3 and 4 the same
# reg(I^k): the fixtures compute each once, since the engine's memo keeps only
# the most recent tables.
@pytest.fixture(scope="module")
def reg7(family7):
    return [regularity(edge_ideal(g)) for g in family7]


@pytest.fixture(scope="module")
def power_regs6(family6):
    return [
        {k: regularity(ideal_power(edge_ideal(g), k)) for k in (1, 2, 3)} for g in family6
    ]


def test_criterion_1_froberg_exhaustive(family7, reg7):
    failures = []
    for g, r in zip(family7, reg7):
        linear = r == 2
        if linear != is_chordal(complement(g)):
            failures.append(g)
    _report("criterion 1: reg = 2 iff co-chordal, all graphs 2 <= n <= 7", failures)


def test_criterion_2_bound_suite(family7, reg7):
    failures = []
    for g, r in zip(family7, reg7):
        if not induced_matching_number(g) + 1 <= r <= matching_number(g) + 1:
            failures.append((g, r))
    _report("criterion 2: im+1 <= reg <= m+1, all graphs 2 <= n <= 7", failures)


def test_criterion_3_bht_lower_bound(family6, power_regs6):
    failures = []
    for g, regs in zip(family6, power_regs6):
        im = induced_matching_number(g)
        for k in (1, 2, 3):
            if regs[k] < 2 * k + im - 1:
                failures.append((g, k))
    _report("criterion 3: reg(I^k) >= 2k + im - 1, n <= 6, k <= 3", failures)


def test_criterion_4_hhz_co_chordal(family6, power_regs6):
    failures = []
    for g, regs in zip(family6, power_regs6):
        if not is_chordal(complement(g)):
            continue
        for k in (1, 2, 3):
            if regs[k] != 2 * k:
                failures.append((g, k))
        if linear_quotients_order(edge_ideal(g)).status != "found":
            failures.append((g, "quotients"))
    _report("criterion 4: co-chordal powers linear + linear quotients, n <= 6", failures)


def test_criterion_5_banerjee_instance():
    ideal = edge_ideal(anticycle(5))
    got = (
        regularity(ideal),
        regularity(ideal_power(ideal, 2)),
        regularity(ideal_power(ideal, 3)),
    )
    failures = [] if got == (3, 4, 6) else [got]
    _report("criterion 5: anticycle(5) has reg(I)=3, reg(I^2)=4, reg(I^3)=6", failures)


def test_criterion_6_oracle_equivalence():
    rnd = random.Random(20250811)
    failures = []
    trials = 0
    while trials < 200:
        nvars = rnd.randint(1, 5)
        gens = []
        for _ in range(rnd.randint(1, 5)):
            exps = tuple(rnd.randint(0, 2) for _ in range(nvars))
            if any(exps):
                gens.append(exps)
        if not gens:
            continue
        ideal = minimalize(nvars, gens)
        trials += 1
        for field in (RATIONALS, GF2):
            if betti_table(ideal, field) != taylor_betti_oracle(ideal, field):
                failures.append((ideal, field.token()))
    _report("criterion 6: lattice engine = Taylor oracle on 200 random ideals, Q and GF(2)", failures)


def test_criterion_7_suspension_splitting_and_linearity():
    failures = []
    for g in (cycle(4), anticycle(5)):
        sets = [s for s in independent_sets(g) if len(s) < g.n]
        reports = zip(sets, check_main1(g, sets, 2), check_main2(g, sets, 3), strict=True)
        for s, rep1, rep2 in reports:
            if rep1.verdict != "pass":
                failures.append((g, s, "splitting", rep1.verdict, rep1.witness or rep1.reason))
            if rep2.verdict != "pass":
                failures.append((g, s, "linearity", rep2.verdict, rep2.witness or rep2.reason))
    _report("criterion 7: suspension splitting (k=2) + linear powers k in {2,3} + identity", failures)


def test_criterion_8_cover_colon_lemma():
    failures = []
    for g in (cycle(4), cycle(5), path(4)):
        ideal = edge_ideal(g)
        for cover in minimal_vertex_covers(g):
            u = variable_ideal(g.n, cover)
            for k in (0, 1, 2):
                power = ideal_power(ideal, k)
                up = ideal_product(u, power)
                for gen in power.sorted_gens():
                    if not is_generated_by_variables(colon(up, gen)):
                        failures.append((g, cover, k, gen))
    _report("criterion 8: (U*I^k : L) variable-generated, G in {C4, C5, P4}, k <= 2", failures)


def test_criterion_9_splitting_negative_control():
    rep = check_betti_splitting(
        parse_ideal(["x0^2", "x0*x1", "x1^2"], 2),
        parse_ideal(["x0^2", "x1^2"], 2),
        parse_ideal(["x0*x1"], 2),
    )
    ok = rep.verdict == "fail" and (rep.witness["i"], rep.witness["j"]) == (1, 4)
    _report("criterion 9: (x^2,xy,y^2) splitting rejected with witness (1,4)", [] if ok else [rep.to_json()])


def test_criterion_10_np_scan_smoke(family6):
    reports = [rep for g in family6 for rep in run_statement("np", g, {"k_max": 2})]
    failures = [r.to_json() for r in reports if r.verdict != "pass"]
    if not reports:
        failures.append("scan produced no family members")
    _report(
        f"criterion 10: np scan over gap-free reg-3 graphs n <= 6 "
        f"({len(reports)} instances, 0 skipped, 0 counterexamples)",
        failures,
    )
