"""Betti engines against each other and against frozen hand computations."""

import hashlib
import json
import random
from functools import reduce
from itertools import combinations
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edgeideals.complexes import CapExceeded
from edgeideals.graphs import (
    Graph,
    anticycle,
    complement,
    cycle,
    induced_matching_number,
    is_chordal,
    matching_number,
    path,
    s_suspension,
)
from edgeideals.enumeration import enumerate_graphs
from edgeideals.linalg import GF2, RATIONALS, Field
from edgeideals.monomials import (
    Monomial,
    MonomialIdeal,
    edge_ideal,
    generated_in_single_degree,
    ideal_power,
    minimalize,
    parse_ideal,
    variable_ideal,
)
from edgeideals.resolutions import (
    DEFAULT_CAPS,
    EngineCaps,
    _COMPLEX_MEMO,
    _Box,
    _cones,
    _membership_table,
    betti_table,
    has_linear_resolution,
    lcm_lattice,
    linear_quotients_order,
    projective_dimension,
    regularity,
    taylor_betti_oracle,
)
from dense_homology import dense_taylor_betti_oracle
from interval_oracle import interval_betti_oracle

TWO_K2 = Graph(4, [(0, 1), (2, 3)])


def mono(*exps):
    return Monomial(tuple(exps))


def entries_of(table):
    return {(i, j): b for (i, j), b in table.entries.items()}


# -- lcm lattice -----------------------------------------------------------------


def test_lattice_examples():
    lat = lcm_lattice(minimalize(2, [mono(1, 0), mono(0, 1)]))
    assert lat == [(0, 1), (1, 0), (1, 1)]
    principal = lcm_lattice(minimalize(2, [mono(1, 1)]))
    assert len(principal) == 1
    triangle = lcm_lattice(edge_ideal(cycle(3)))
    assert len(triangle) == 4  # three atoms and the top; no bottom element
    assert triangle[-1] == (1, 1, 1)


def test_lattice_cap():
    # the default box cap reads the lattice off the exponent box, a one-point
    # box cap grows it atom by atom over exponent tuples
    for table_max in (DEFAULT_CAPS.membership_table_max, 1):
        caps = EngineCaps(lattice_max=3, membership_table_max=table_max)
        with pytest.raises(CapExceeded) as exc:
            lcm_lattice(edge_ideal(cycle(5)), caps)
        assert (exc.value.cap, exc.value.limit, exc.value.size) == ("lattice_max", 3, 4)


def test_lattice_guards():
    with pytest.raises(ValueError):
        lcm_lattice(MonomialIdeal.zero(2))
    with pytest.raises(ValueError):
        lcm_lattice(MonomialIdeal.unit(2))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=6)
    )
)
@example([(1, 0), (0, 1)])
@example([(2, 0, 1), (0, 3, 0), (1, 1, 1)])
def test_lattice_order_extends_divisibility(exps):
    gens = [Monomial(e) for e in exps if any(e)]
    if not gens:
        return
    ideal = minimalize(len(exps[0]), gens)
    lat = lcm_lattice(ideal)
    assert lat == sorted(lat)
    elems = [Monomial(e) for e in lat]
    for i, m in enumerate(elems):
        assert not any(later.divides(m) for later in elems[i + 1 :])
    assert elems[-1] == reduce(Monomial.lcm, ideal.gens)
    # the bitset lattice over the box and the one grown atom by atom agree element for element
    assert lat == lcm_lattice(ideal, EngineCaps(membership_table_max=1))


# -- frozen tables ----------------------------------------------------------------


def test_koszul_two_variables():
    t = betti_table(minimalize(2, [mono(1, 0), mono(0, 1)]))
    assert entries_of(t) == {(0, 1): 2, (1, 2): 1}


def test_edge_ideal_tables():
    assert entries_of(betti_table(edge_ideal(Graph(2, [(0, 1)])))) == {(0, 2): 1}
    assert entries_of(betti_table(edge_ideal(TWO_K2))) == {(0, 2): 2, (1, 4): 1}
    assert entries_of(betti_table(edge_ideal(path(3)))) == {(0, 2): 2, (1, 3): 1}
    c5 = entries_of(betti_table(edge_ideal(cycle(5))))
    assert c5 == {(0, 2): 5, (1, 3): 5, (2, 5): 1}
    c4 = entries_of(betti_table(edge_ideal(cycle(4))))
    assert c4 == {(0, 2): 4, (1, 3): 4, (2, 4): 1}


def test_taylor_oracle_examples():
    t = taylor_betti_oracle(edge_ideal(path(3)))
    assert entries_of(t) == {(0, 2): 2, (1, 3): 1}
    xy = minimalize(2, [mono(1, 0), mono(0, 1)])
    assert taylor_betti_oracle(xy) == betti_table(xy)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=7)
    ),
    st.sampled_from([RATIONALS, GF2, Field(3)]),
)
@example([(1, 1, 0), (0, 1, 1), (1, 0, 1)], Field(3))
@example([(2, 0), (1, 1), (0, 2)], GF2)
def test_taylor_oracle_matches_the_dense_strand_reference(exps, field):
    gens = [Monomial(e) for e in exps if any(e)]
    assume(gens)
    ideal = minimalize(len(exps[0]), gens)
    assert taylor_betti_oracle(ideal, field) == dense_taylor_betti_oracle(ideal, field)


def test_taylor_generator_cap():
    caps = EngineCaps(taylor_max_generators=3)
    with pytest.raises(CapExceeded):
        taylor_betti_oracle(edge_ideal(cycle(5)), caps=caps)


def test_reg_pd_examples():
    k2 = edge_ideal(Graph(2, [(0, 1)]))
    assert regularity(k2) == 2
    assert projective_dimension(k2) == 0
    assert regularity(edge_ideal(TWO_K2)) == 3
    assert regularity(edge_ideal(cycle(5))) == 3
    assert induced_matching_number(TWO_K2) + 1 == 3


def test_reg_pd_guards():
    with pytest.raises(ValueError):
        regularity(MonomialIdeal.zero(2))
    with pytest.raises(ValueError):
        regularity(MonomialIdeal.unit(2))
    with pytest.raises(ValueError):
        betti_table(MonomialIdeal.zero(2))


def test_beta_zero_counts_generators_by_degree():
    rnd = random.Random(4)
    for _ in range(20):
        gens = [
            Monomial(tuple(rnd.randint(0, 2) for _ in range(4)))
            for _ in range(rnd.randint(1, 5))
        ]
        gens = [g for g in gens if not g.is_unit] or [mono(1, 0, 0, 0)]
        ideal = minimalize(4, gens)
        t = betti_table(ideal)
        by_degree = {}
        for g in ideal.gens:
            by_degree[g.degree] = by_degree.get(g.degree, 0) + 1
        assert {j: b for (i, j), b in t.entries.items() if i == 0} == by_degree


# -- three-engine agreement -----------------------------------------------------------


def _agree_all_engines(ideal):
    for field in (RATIONALS, GF2):
        primary = betti_table(ideal, field)
        assert taylor_betti_oracle(ideal, field) == primary
        assert interval_betti_oracle(ideal, field) == primary


def test_engines_agree_on_all_edge_ideals_n4():
    pairs = list(combinations(range(4), 2))
    for mask in range(1, 1 << 6):
        g = Graph(4, (pairs[i] for i in range(6) if (mask >> i) & 1))
        _agree_all_engines(edge_ideal(g))


def test_engines_agree_on_powers_and_mixed_ideals():
    _agree_all_engines(ideal_power(edge_ideal(path(3)), 2))
    _agree_all_engines(ideal_power(edge_ideal(cycle(4)), 2))
    _agree_all_engines(parse_ideal(["x0^2", "x0*x1", "x1^2"], 2))
    _agree_all_engines(parse_ideal(["x0^2", "x1^2", "x0*x2"], 3))
    _agree_all_engines(parse_ideal(["x0", "x1^2*x2", "x2^2"], 3))


def test_engines_agree_on_random_ideals():
    rnd = random.Random(123)
    for _ in range(40):
        nvars = rnd.randint(1, 4)
        gens = []
        for _ in range(rnd.randint(1, 4)):
            exps = tuple(rnd.randint(0, 2) for _ in range(nvars))
            if any(exps):
                gens.append(Monomial(exps))
        if not gens:
            continue
        _agree_all_engines(minimalize(nvars, gens))


def test_engines_agree_with_larger_exponents():
    rnd = random.Random(321)
    for _ in range(15):
        nvars = rnd.randint(2, 4)
        gens = [
            Monomial(tuple(rnd.randint(0, 4) for _ in range(nvars)))
            for _ in range(rnd.randint(2, 4))
        ]
        gens = [g for g in gens if not g.is_unit and g.degree]
        if not gens:
            continue
        _agree_all_engines(minimalize(nvars, gens))


def _fallback_and_bitset_tables(ideal, field, fallback_caps):
    # compute both tables afresh rather than read them from the complex memo
    _COMPLEX_MEMO.clear()
    fallback = betti_table(ideal, field, fallback_caps)
    _COMPLEX_MEMO.clear()
    return fallback, betti_table(ideal, field)


def _exps(ideal):
    return sorted(g.exps for g in ideal.gens)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=7)
    ),
    st.sampled_from([RATIONALS, GF2]),
)
@example(_exps(ideal_power(edge_ideal(cycle(4)), 2)), RATIONALS)
@example(_exps(parse_ideal(["x0^2", "x0*x1", "x1^2"], 2)), RATIONALS)
@example(_exps(edge_ideal(cycle(5))), RATIONALS)
# largest exponents 3 and 4
@example(_exps(ideal_power(edge_ideal(path(3)), 3)), RATIONALS)
@example(_exps(parse_ideal(["x0^3*x1", "x1^2*x2^3", "x0*x2^2", "x2^4"], 3)), RATIONALS)
# six variables
@example(_exps(ideal_power(edge_ideal(s_suspension(anticycle(5), {0, 1})), 2)), RATIONALS)
# a cone whose apex x2 sits on an axis with top exponent 1, at (3, 2, 1)
@example([(3, 0, 1), (1, 2, 0), (3, 1, 0)], RATIONALS)
@example(_exps(ideal_power(edge_ideal(anticycle(5)), 3)), GF2)
def test_membership_fallback_path_matches_table_path(exps, field):
    # a one-point membership table cap forces the threshold-bitset stand-in, which
    # skips no cone, so this also checks the cone skip of the bitset path
    gens = [Monomial(e) for e in exps if any(e)]
    assume(gens)
    ideal = minimalize(len(exps[0]), gens)
    fallback, bitset = _fallback_and_bitset_tables(ideal, field, EngineCaps(membership_table_max=1))
    assert fallback == bitset


def _flagged_lattice(ideal) -> tuple:
    """The lattice of ideal and the set of its points that `_cones` flags."""
    lattice = lcm_lattice(ideal)
    box = _Box.fitting(lattice[-1], DEFAULT_CAPS)
    gens = [g.exps for g in ideal.gens]
    cones = _cones(box, box.up(box.points(gens), range(ideal.nvars)))
    return lattice, {m for m in lattice if cones >> sum(map(mul, m, box.strides)) & 1}


def _is_cone_by_definition(gens, m) -> bool:
    """Whether the membership complex at m has an apex: a support variable that joins every
    face to a face.  The faces are the support subsets f with m - e_f in I, by divisibility."""
    support = [i for i, e in enumerate(m) if e]
    faces = set()
    for f in range(1 << len(support)):
        lower = list(m)
        for k, i in enumerate(support):
            lower[i] -= f >> k & 1
        if any(all(a <= b for a, b in zip(g, lower)) for g in gens):
            faces.add(f)
    return any(all(f | 1 << v in faces for f in faces) for v in range(len(support)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=7)
    )
)
@example([(3, 0, 1), (1, 2, 0), (3, 1, 0)])
@example(_exps(ideal_power(edge_ideal(cycle(4)), 2)))
def test_cones_are_the_lattice_points_with_an_apex(exps):
    gens = [Monomial(e) for e in exps if any(e)]
    assume(gens)
    ideal = minimalize(len(exps[0]), gens)
    gens = [g.exps for g in ideal.gens]
    lattice, flagged = _flagged_lattice(ideal)
    for m in lattice:
        assert (m in flagged) == _is_cone_by_definition(gens, m), m
    # a minimal generator's complex is {empty face}, which is no cone
    assert not flagged.intersection(gens)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=8)
    )
)
@example(_exps(edge_ideal(cycle(5))))
def test_squarefree_lattices_have_no_cone(exps):
    gens = [Monomial(e) for e in exps if any(e)]
    assume(gens)
    ideal = minimalize(len(exps[0]), gens)
    lattice, flagged = _flagged_lattice(ideal)
    assert not flagged
    # so the search is skipped on squarefree boxes
    assert _membership_table(ideal, lattice[-1], DEFAULT_CAPS)[1] is None


def test_cone_skip_keeps_the_lattice_cap():
    ideal = ideal_power(edge_ideal(anticycle(5)), 2)
    lattice, flagged = _flagged_lattice(ideal)
    assert flagged
    # the cap counts the whole lattice, cones included
    size = len(lattice)
    with pytest.raises(CapExceeded) as exc:
        betti_table(ideal, RATIONALS, EngineCaps(lattice_max=size - 1))
    assert (exc.value.cap, exc.value.limit, exc.value.size) == ("lattice_max", size - 1, size)
    assert betti_table(ideal, RATIONALS, EngineCaps(lattice_max=size)) == betti_table(ideal)


def test_membership_table_cap_is_inclusive():
    # a box of exactly membership_table_max points takes the bitset path, a bigger one falls back
    ideal = parse_ideal(["x0^3*x1", "x1^2*x2^3", "x0*x2^2", "x2^4"], 3)
    top = lcm_lattice(ideal)[-1]
    size = 4 * 3 * 5
    assert top == (3, 2, 4)
    assert _Box.fitting(top, EngineCaps(membership_table_max=size)) is not None
    assert _Box.fitting(top, EngineCaps(membership_table_max=size - 1)) is None
    for field in (RATIONALS, GF2):
        at_cap, bitset = _fallback_and_bitset_tables(ideal, field, EngineCaps(membership_table_max=size))
        below_cap, _ = _fallback_and_bitset_tables(ideal, field, EngineCaps(membership_table_max=size - 1))
        assert at_cap == below_cap == bitset


# sha256 of json.dumps(table.to_json(include_multi=True), sort_keys=True), taken
# from an earlier engine that grew every lattice atom by atom; the last entry runs
# the membership stand-in for boxes over the table cap
PINNED_TABLES = [
    ("anticycle5-square", lambda: ideal_power(edge_ideal(anticycle(5)), 2), DEFAULT_CAPS,
     "566c32a8916c36c2c00f227c3ae1c02121d4377f736f5de26715f2b6f46301e4"),
    ("anticycle5-cube", lambda: ideal_power(edge_ideal(anticycle(5)), 3), DEFAULT_CAPS,
     "8efafc719d2152835cb5476d4331cebfd75b070fd1fd6b7dde32a26da21c7df2"),
    ("mixed-exponents",
     lambda: parse_ideal(["x0^3*x1", "x1^2*x2^2", "x0*x2^3", "x3^2", "x1*x3"], 4), DEFAULT_CAPS,
     "4b50f886bebdb29a9820fb6b61b87da57328b309e945441f442f1df429846a57"),
    ("cycle5-square-fallback", lambda: ideal_power(edge_ideal(cycle(5)), 2),
     EngineCaps(membership_table_max=1),
     "f8dfe8498af60750ff78dd46e567bdeea532bc541a31505a52a6bec1e5ebe3ab"),
]


@pytest.mark.parametrize("name, build, caps, digest", PINNED_TABLES, ids=[p[0] for p in PINNED_TABLES])
def test_multigraded_tables_match_their_pinned_digests(name, build, caps, digest):
    table = betti_table(build(), RATIONALS, caps)
    text = json.dumps(table.to_json(include_multi=True), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_betti_table_invariant_under_ambient_embedding():
    from edgeideals.monomials import embed

    i = edge_ideal(cycle(5))
    wide = embed(i, 9)
    assert betti_table(wide).entries == betti_table(i).entries
    assert regularity(wide) == regularity(i)


# -- linearity ---------------------------------------------------------------------------


def test_linear_resolution_examples():
    assert has_linear_resolution(edge_ideal(cycle(4)))
    assert not has_linear_resolution(edge_ideal(cycle(5)))
    assert has_linear_resolution(edge_ideal(Graph(2, [(0, 1)])))
    with pytest.raises(ValueError):
        has_linear_resolution(parse_ideal(["x0", "x1^2"], 2))


def test_froberg_small_exhaustive():
    for g in enumerate_graphs(5, min_n=2, require_edge=True):
        assert (regularity(edge_ideal(g)) == 2) == is_chordal(complement(g)), g


def test_reg_bounds_small_exhaustive():
    for g in enumerate_graphs(5, min_n=2, require_edge=True):
        r = regularity(edge_ideal(g))
        assert induced_matching_number(g) + 1 <= r <= matching_number(g) + 1, g


def test_power_lower_bound_smoke():
    for g in enumerate_graphs(4, min_n=2, require_edge=True):
        im = induced_matching_number(g)
        ideal = edge_ideal(g)
        for k in (1, 2):
            assert regularity(ideal_power(ideal, k)) >= 2 * k + im - 1, (g, k)


# -- linear quotients ----------------------------------------------------------------------


def _order_is_valid(ideal, order):
    from edgeideals.monomials import colon, is_generated_by_variables

    for l in range(1, len(order)):
        prefix = minimalize(ideal.nvars, order[:l])
        if not is_generated_by_variables(colon(prefix, order[l])):
            return False
    return set(order) == set(ideal.gens)


def test_linear_quotients_examples():
    res = linear_quotients_order(edge_ideal(path(3)))
    assert res.found and _order_is_valid(edge_ideal(path(3)), list(res.order))
    assert linear_quotients_order(edge_ideal(TWO_K2)).status == "none"
    res = linear_quotients_order(minimalize(2, [mono(1, 1)]))
    assert res.found and len(res.order) == 1


def test_linear_quotients_generator_cap_is_unknown():
    caps = EngineCaps(quotients_max_generators=2)
    res = linear_quotients_order(edge_ideal(cycle(5)), caps)
    assert res.status == "unknown"
    assert "cap" in res.reason


def test_linear_quotients_imply_linear_resolution_n6():
    for g in enumerate_graphs(6, min_n=2, require_edge=True):
        ideal = edge_ideal(g)
        res = linear_quotients_order(ideal)
        assert res.status in ("found", "none")
        if res.found:
            assert _order_is_valid(ideal, list(res.order))
            assert generated_in_single_degree(ideal) == 2
            assert has_linear_resolution(ideal), g


def test_cycle_and_path_regularity_formulas():
    # known closed forms: for cycles reg = floor(n/3) + 1, plus 1 more when
    # n = 2 mod 3; for paths reg = floor((n+1)/3) + 1
    for n in range(3, 10):
        expect = n // 3 + (2 if n % 3 == 2 else 1)
        assert regularity(edge_ideal(cycle(n))) == expect, n
    for n in range(2, 9):
        assert regularity(edge_ideal(path(n))) == (n + 1) // 3 + 1, n


def test_power_regularity_formulas_for_cycles_and_paths():
    # known closed form reg(I^k) = 2k + im - 1: for forests at every k >= 1,
    # for cycles at every k >= 2
    for n in (5, 6, 7):
        g = cycle(n)
        im = induced_matching_number(g)
        assert regularity(ideal_power(edge_ideal(g), 2)) == 4 + im - 1, n
    for n in (4, 5, 6):
        g = path(n)
        im = induced_matching_number(g)
        for k in (1, 2):
            assert regularity(ideal_power(edge_ideal(g), k)) == 2 * k + im - 1, (n, k)
    assert regularity(ideal_power(edge_ideal(path(4)), 3)) == 6
    assert regularity(ideal_power(edge_ideal(cycle(5)), 3)) == 6


def test_variable_ideal_is_koszul():
    t = betti_table(variable_ideal(4, range(4)))
    assert entries_of(t) == {(0, 1): 4, (1, 2): 6, (2, 3): 4, (3, 4): 1}
    assert t.regularity() == 1
    assert t.projective_dimension() == 3


# -- colon regularity bound (numeric) ---------------------------------------------------------


def test_colon_reg_bound_numerically():
    rnd = random.Random(31)
    for g in enumerate_graphs(5, min_n=2, require_edge=True)[::3]:
        ideal = edge_ideal(g)
        r = regularity(ideal)
        for _ in range(3):
            exps = tuple(rnd.randint(0, 1) for _ in range(g.n))
            if not any(exps):
                continue
            m = Monomial(exps)
            from edgeideals.monomials import colon, ideal_sum, principal_ideal

            q = colon(ideal, m)
            s = ideal_sum(ideal, principal_ideal(m))
            terms = []
            terms.append((0 if q.is_unit else regularity(q)) + m.degree)
            if not s.is_unit:
                terms.append(regularity(s))
            assert r <= max(terms), (g, m)


def test_colon_reg_equality_for_variables():
    from edgeideals.monomials import colon, ideal_sum, principal_ideal

    for g in enumerate_graphs(4, min_n=2, require_edge=True):
        ideal = edge_ideal(g)
        r = regularity(ideal)
        for v in range(g.n):
            if not any(gen.exps[v] for gen in ideal.gens):
                continue
            m = Monomial.variable(g.n, v)
            q = colon(ideal, m)
            s = ideal_sum(ideal, principal_ideal(m))
            terms = [(0 if q.is_unit else regularity(q)) + 1]
            if not s.is_unit:
                terms.append(regularity(s))
            assert r in terms, (g, v)


# -- serialization ------------------------------------------------------------------------------


def test_table_json_shape():
    t = betti_table(edge_ideal(TWO_K2))
    j = t.to_json()
    assert j["field"] == "Q"
    assert j["reg"] == 3 and j["pd"] == 1
    assert {"i": 1, "j": 4, "beta": 1} in j["entries"]
    jm = t.to_json(include_multi=True)
    assert any(e["i"] == 1 and e["beta"] == 1 for e in jm["multi"])


def test_multigraded_entries_sum_to_graded():
    t = betti_table(ideal_power(edge_ideal(cycle(4)), 2))
    sums = {}
    for (i, e), b in t.multi.items():
        sums[(i, sum(e))] = sums.get((i, sum(e)), 0) + b
    assert sums == t.entries


def test_betti_table_is_read_only():
    ideal = edge_ideal(anticycle(5))
    t = betti_table(ideal)
    with pytest.raises(TypeError):
        t.entries[(0, 9)] = 1
    with pytest.raises(TypeError):
        t.multi[(0, (1, 1, 0, 0, 0))] = 1
    assert regularity(ideal) == 3
