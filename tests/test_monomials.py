"""Monomial ideal arithmetic: frozen examples plus membership-based oracles."""

import math
import random
from itertools import combinations, product
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeideals.box import BOX_MAX, BOX_PER_PAIR
from edgeideals.graphs import Graph, complete, cycle, path, s_suspension
from edgeideals.monomials import (
    MonomialIdeal,
    colon,
    edge_ideal,
    embed,
    generated_in_single_degree,
    grlex_key,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    is_generated_by_variables,
    minimalize,
    monomial_str,
    parse_ideal,
    parse_monomial,
    variable,
    variable_ideal,
)
from minimalize_reference import reference_minimalize


def ideal(nvars, *gens):
    return parse_ideal(gens, nvars)


def random_ideal(rnd, nvars=4, max_gens=4, max_exp=2):
    gens = []
    for _ in range(rnd.randint(1, max_gens)):
        exps = tuple(rnd.randint(0, max_exp) for _ in range(nvars))
        if any(exps):
            gens.append(exps)
    if not gens:
        gens = [variable(nvars, 0)]
    return minimalize(nvars, gens)


# -- monomials ---------------------------------------------------------------------


def test_monomial_basics():
    assert [monomial_str(e) for e in [(0, 0, 0, 0), (0, 0, 0, 1), (2, 0, 0, 1), ()]] == ["1", "x3", "x0^2*x3", "1"]
    assert monomial_str((0, 10**30)) == "x1^1" + "0" * 30
    assert variable(4, 3) == (0, 0, 0, 1)
    for i in (-1, 4):
        with pytest.raises(ValueError):
            variable(4, i)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**30), max_size=8))
def test_a_monomial_string_parses_back_to_its_exponents(exps):
    e = tuple(exps)
    assert parse_monomial(monomial_str(e), len(e)) == e


def test_parse_and_format_round_trip():
    for text in ["1", "x0", "x1^3", "x0^2*x1", "x0*x1*x3^2"]:
        m = parse_monomial(text, 4)
        assert type(m) is tuple and monomial_str(m) == text
    assert parse_monomial("x0*x0", 2) == (2, 0)
    with pytest.raises(ValueError):
        parse_monomial("y0", 2)
    with pytest.raises(ValueError):
        parse_monomial("x5", 2)


def test_grlex_order():
    gens = ideal(2, "x0^2", "x0*x1", "x1^2").sorted_gens()
    assert gens == [(2, 0), (1, 1), (0, 2)]
    # the key orders exponent tuples, the format of the generators
    assert sorted([(0, 2), (2, 0), (1, 1), (1, 0)], key=grlex_key) == [(1, 0), (0, 2), (1, 1), (2, 0)]


# -- minimalization ------------------------------------------------------------------


def test_minimalize_examples():
    assert minimalize(2, [(1, 0), (1, 1)]).gens == frozenset([(1, 0)])
    i = minimalize(2, [(2, 0), (1, 1), (2, 1)])
    assert i.gens == frozenset([(2, 0), (1, 1)])
    z = minimalize(2, [])
    assert z.is_zero and not z.is_unit
    u = minimalize(2, [(0, 0), (1, 0)])
    assert u.is_unit


def test_exponents_must_be_integral():
    # minimalize reads every exponent tuple that enters an ideal; bools are ints, as
    # everywhere in Python
    for exps in [(1.5, 0), (1.0, 2), (True, 2.9), ("1", 0)]:
        with pytest.raises(TypeError):
            minimalize(2, [exps])
    with pytest.raises(ValueError, match="nonnegative"):
        minimalize(2, [(1, -1)])
    [e] = minimalize(2, [(True, 2)]).gens
    assert e == (1, 2) and type(e[0]) is int


def test_a_monomial_in_the_wrong_ambient_is_refused():
    i = edge_ideal(path(3))
    for call in (lambda: minimalize(2, [(1, 0, 0)]), lambda: colon(i, (1, 0)), lambda: i.contains((1, 1, 0, 0))):
        with pytest.raises(ValueError, match="ambient"):
            call()


def test_ideal_constructor_checks_its_exponent_tuples():
    assert MonomialIdeal(2, frozenset([(1, 0), (0, 3)])).gens == frozenset([(1, 0), (0, 3)])
    assert MonomialIdeal(0, frozenset([()])).is_unit
    for gens in ([(1, 0), (1, 0, 0)], [(1,)], [(0, 1), (2, -1)], [(-1, 0)]):
        with pytest.raises(ValueError):
            MonomialIdeal(2, frozenset(gens))


@st.composite
def minimalize_inputs(draw):
    """(nvars, candidates): up to 40 exponent tuples with repeats."""
    nvars = draw(st.integers(1, 6))
    drawn = draw(st.lists(st.tuples(*[st.integers(0, 4)] * nvars), max_size=30))
    if drawn:
        drawn += draw(st.lists(st.sampled_from(drawn), max_size=10))
    return nvars, drawn


@settings(max_examples=300, deadline=None)
@given(minimalize_inputs())
@example((2, []))
@example((3, [(1, 0, 2), (0, 0, 0), (0, 1, 0)]))
@example((2, [(0, 0)]))
@example((3, [(10**12, 1, 0), (10**12 + 1, 1, 3), (0, 10**30, 0), (0, 2, 10**30)]))
def test_minimalize_matches_the_reference_loop(case):
    nvars, candidates = case
    got, want = minimalize(nvars, candidates), reference_minimalize(nvars, candidates)
    assert got.gens == want.gens
    assert got.sorted_gens() == want.sorted_gens()


def test_edge_ideal_examples():
    assert edge_ideal(Graph(2, [(0, 1)])).gens == frozenset([(1, 1)])
    assert len(edge_ideal(cycle(4)).gens) == 4
    assert edge_ideal(path(3)).gens == frozenset([(1, 1, 0), (0, 1, 1)])
    with pytest.raises(ValueError):
        edge_ideal(Graph(3))


def test_edge_ideal_ignores_isolated_vertices():
    # the isolated vertex contributes an unused ambient variable and nothing else
    from edgeideals.resolutions import regularity

    lonely = Graph(3, [(0, 1)])
    i = edge_ideal(lonely)
    assert i.nvars == 3 and i.gens == frozenset([(1, 1, 0)])
    assert regularity(i) == 2


# -- arithmetic -------------------------------------------------------------------------


def test_power_examples():
    k2 = edge_ideal(Graph(2, [(0, 1)]))
    assert ideal_power(k2, 2).gens == frozenset([(2, 2)])
    xy = minimalize(2, [(1, 0), (0, 1)])
    assert ideal_power(xy, 2).gens == frozenset([(2, 0), (1, 1), (0, 2)])
    p3sq = ideal_power(edge_ideal(path(3)), 2)
    assert p3sq.gens == frozenset([(2, 2, 0), (1, 2, 1), (0, 2, 2)])
    assert ideal_power(xy, 0).is_unit


def test_colon_examples():
    i = edge_ideal(path(3))
    assert colon(i, (0, 1, 0)).gens == frozenset([(1, 0, 0), (0, 0, 1)])
    principal = minimalize(2, [(1, 1)])
    assert colon(principal, (1, 1)).is_unit
    assert colon(minimalize(3, [(1, 1, 0)]), (0, 1, 1)).gens == frozenset([(1, 0, 0)])


def test_intersection_examples():
    a = minimalize(2, [(1, 0)])
    b = minimalize(2, [(0, 1)])
    assert intersect(a, b).gens == frozenset([(1, 1)])
    c = minimalize(2, [(2, 0)])
    d = minimalize(2, [(1, 1), (0, 2)])
    assert intersect(c, d).gens == frozenset([(2, 1)])
    i = edge_ideal(cycle(4))
    assert intersect(i, MonomialIdeal.unit(4)) == i
    with pytest.raises(ValueError):
        intersect(a, minimalize(3, [(1, 0, 0)]))


def test_variable_ideal_and_predicate():
    v = variable_ideal(3, [0, 2])
    assert is_generated_by_variables(v)
    assert not is_generated_by_variables(edge_ideal(Graph(2, [(0, 1)])))
    assert not is_generated_by_variables(MonomialIdeal.unit(2))
    assert not is_generated_by_variables(MonomialIdeal.zero(2))


def test_generated_in_single_degree():
    assert generated_in_single_degree(edge_ideal(cycle(4))) == 2
    assert generated_in_single_degree(ideal_power(edge_ideal(cycle(4)), 3)) == 6
    assert generated_in_single_degree(ideal(2, "x0", "x1^2")) is None
    assert generated_in_single_degree(MonomialIdeal.unit(2)) == 0
    with pytest.raises(ValueError):
        generated_in_single_degree(MonomialIdeal.zero(2))


def test_embed():
    i = edge_ideal(path(3))
    e = embed(i, 5)
    assert e.nvars == 5
    assert e.gens == frozenset([(1, 1, 0, 0, 0), (0, 1, 1, 0, 0)])
    with pytest.raises(ValueError):
        embed(i, 2)


def test_sum_product_unit_zero_rules():
    i = edge_ideal(cycle(4))
    assert ideal_product(i, MonomialIdeal.unit(4)) == i
    assert ideal_product(i, MonomialIdeal.zero(4)).is_zero
    assert ideal_sum(i, MonomialIdeal.zero(4)) == i
    assert ideal_sum(i, MonomialIdeal.unit(4)).is_unit


# -- properties -----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**10 - 1), st.integers(0, 2), st.integers(0, 2))
def test_power_additivity(mask, a, b):
    pairs = list(combinations(range(5), 2))
    edges = [pairs[i] for i in range(10) if (mask >> i) & 1]
    if not edges:
        return
    i = edge_ideal(Graph(5, edges))
    lhs = ideal_power(i, a + b)
    rhs = ideal_product(ideal_power(i, a), ideal_power(i, b))
    assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_colon_times_monomial_inside_ideal(rnd):
    i = random_ideal(rnd)
    m = tuple(rnd.randint(0, 2) for _ in range(4))
    for q in colon(i, m).sorted_gens():
        assert i.contains(tuple(map(add, q, m)))


def test_intersection_against_membership_oracle():
    rnd = random.Random(2024)
    for _ in range(30):
        a = random_ideal(rnd)
        b = random_ideal(rnd)
        meet = intersect(a, b)
        for exps in product(range(5), repeat=4):
            if sum(exps) > 8:
                continue
            assert meet.contains(exps) == (a.contains(exps) and b.contains(exps))


def _pairwise_intersect(a, b):
    """a ∩ b as the minimal lcms of all generator pairs, the path of boxes over BOX_MAX."""
    if a.is_zero or b.is_zero:
        return MonomialIdeal.zero(a.nvars)
    return minimalize(a.nvars, {tuple(map(max, u, v)) for u in a.gens for v in b.gens})


@st.composite
def ideal_pairs(draw):
    """Two ideals in one ambient of up to 5 variables, each of 0 to 6 drawn generators (0
    gives the zero ideal, an all-zero one the unit ideal), with a per-variable exponent bound
    of 1, 2, 5 or 12."""
    nvars = draw(st.integers(0, 5))
    bounds = draw(st.lists(st.sampled_from([1, 2, 5, 12]), min_size=nvars, max_size=nvars))
    exps = st.tuples(*[st.integers(0, b) for b in bounds])
    a, b = (minimalize(nvars, draw(st.lists(exps, max_size=6))) for _ in range(2))
    return a, b


@settings(max_examples=300, deadline=None)
@given(ideal_pairs())
@example((MonomialIdeal.zero(3), ideal(3, "x0", "x1^2")))
@example((ideal(3, "x0*x2"), MonomialIdeal.zero(3)))
@example((MonomialIdeal.unit(3), ideal(3, "x0^2*x1", "x2^5")))
@example((MonomialIdeal.unit(2), MonomialIdeal.unit(2)))
@example((MonomialIdeal.unit(0), MonomialIdeal.unit(0)))
@example((ideal(3, "x0^3*x1"), ideal(3, "x1^2*x2")))
@example((ideal(2, "x0^12"), ideal(2, "x0^5*x1^12")))
@example((ideal(4, "x0*x1", "x2^12*x3"), ideal(4, "x1^2*x3^5", "x0^5")))
@example((ideal(2, "x0^1000000000000*x1"), ideal(2, "x1^3", "x0^7")))  # far over BOX_MAX
def test_box_intersection_matches_the_pairwise_lcms(pair):
    a, b = pair
    meet = intersect(a, b)
    assert meet == _pairwise_intersect(a, b) == intersect(b, a)
    assert meet.sorted_gens() == _pairwise_intersect(a, b).sorted_gens()


def _pairwise_product(a, b):
    """a * b as the minimal sums of all generator pairs, the path of boxes that `box.BOX_PER_PAIR`
    or `box.BOX_MAX` turns away."""
    if a.is_zero or b.is_zero:
        return MonomialIdeal.zero(a.nvars)
    return minimalize(a.nvars, {tuple(map(add, u, v)) for u in a.gens for v in b.gens})


@settings(max_examples=300, deadline=None)
@given(ideal_pairs())
@example((MonomialIdeal.zero(3), ideal(3, "x0", "x1^2")))
@example((ideal(3, "x0*x2"), MonomialIdeal.zero(3)))
@example((MonomialIdeal.unit(3), ideal(3, "x0^2*x1", "x2^5")))
@example((MonomialIdeal.unit(2), MonomialIdeal.unit(2)))
@example((MonomialIdeal.unit(0), MonomialIdeal.unit(0)))
@example((MonomialIdeal.zero(0), MonomialIdeal.unit(0)))
@example((ideal(2, "x0", "x1"), ideal(2, "x0", "x1^3")))
@example((ideal(3, "x0^3*x1", "x2^2"), ideal(3, "x1^2*x2", "x0^12")))
@example((ideal(2, "x0^1000000000000*x1"), ideal(2, "x1^3", "x0^7")))  # far over BOX_MAX
def test_box_product_matches_the_pairwise_sums(pair):
    a, b = pair
    result = ideal_product(a, b)
    assert result == _pairwise_product(a, b) == ideal_product(b, a)
    assert result.sorted_gens() == _pairwise_product(a, b).sorted_gens()
    assert all(type(g) is tuple and all(type(e) is int for e in g) for g in result.gens)


@pytest.mark.parametrize("name", ["C5", "C5 suspended over {0, 2}", "K4"])
def test_powers_are_repeated_pairwise_products(name):
    g = {"C5": cycle(5), "C5 suspended over {0, 2}": s_suspension(cycle(5), (0, 2)), "K4": complete(4)}[name]
    i = edge_ideal(g)
    want = MonomialIdeal.unit(g.n)
    for k in range(5):
        assert ideal_power(i, k) == want
        want = _pairwise_product(want, i)


def _minimalize_calls(monkeypatch) -> list:
    """The ambients of every `minimalize` call that `monomials` makes from now on: the
    pairwise path makes one, the box path none."""
    from edgeideals import monomials

    calls, real = [], monomials.minimalize
    monkeypatch.setattr(monomials, "minimalize", lambda nvars, cands: calls.append(nvars) or real(nvars, cands))
    return calls


def test_intersect_takes_the_box_path_up_to_the_box_size_limit(monkeypatch):
    from edgeideals import box

    # 21 squarefree variables make a box of exactly BOX_MAX points; the tops of the second
    # pair make one of BOX_MAX + 1.  With no bound on points per pair, only BOX_MAX decides
    at_limit = (edge_ideal(cycle(21)), edge_ideal(Graph(21, [(i, (i + 3) % 21) for i in range(21)])))
    over = (ideal(4, "x0^2*x3", "x1^2"), ideal(4, "x2^42", "x1*x3^5418", "x0*x2"))
    assert math.prod(t + 1 for t in map(max, *(g for i in over for g in i.gens))) == BOX_MAX + 1
    expected = [_pairwise_intersect(*pair) for pair in (at_limit, over)]
    monkeypatch.setattr(box, "BOX_PER_PAIR", BOX_MAX)
    calls = _minimalize_calls(monkeypatch)
    assert intersect(*at_limit) == expected[0]
    assert calls == []  # the box path builds the ideal with no minimalize pass
    assert intersect(*over) == expected[1]
    assert calls == [4]


def _points_per_pair(op, a, b) -> int:
    """Points of the box that op(a, b) would take, per pair of generators, rounded down."""
    ea, eb = list(a.gens), list(b.gens)
    if op is ideal_product:
        top = tuple(map(add, map(max, zip(*ea)), map(max, zip(*eb))))
    else:
        top = tuple(map(max, *ea, *eb))
    return math.prod(t + 1 for t in top) // (len(ea) * len(eb))


def test_box_or_pairwise_goes_by_points_per_generator_pair(monkeypatch):
    c10 = edge_ideal(cycle(10))
    suspended = edge_ideal(s_suspension(cycle(7), (0,)))
    # (op, a, b, points per pair, takes the box)
    cases = [
        # the two intersections once reported slower in the box, and I(C10)^2 * I(C10)
        (intersect, edge_ideal(cycle(21)), edge_ideal(Graph(21, [(i, (i + 3) % 21) for i in range(21)])), 4755, False),
        (intersect, ideal(3, "x0^60*x1^60*x2^60"), ideal(3, "x0*x1^70", "x2^90"), 197060, False),
        (ideal_product, ideal_power(c10, 2), c10, 1906, False),
        # I(C10) * I(C10), and the fourth and fifth powers of a suspended C7
        (ideal_product, c10, c10, 590, True),
        (ideal_product, ideal_power(suspended, 3), suspended, 77, True),
        (ideal_product, ideal_power(suspended, 4), suspended, 96, True),
    ]
    expected = [_pairwise_product(a, b) if op is ideal_product else _pairwise_intersect(a, b) for op, a, b, *_ in cases]
    calls = _minimalize_calls(monkeypatch)
    for (op, a, b, per_pair, boxed), want in zip(cases, expected):
        assert _points_per_pair(op, a, b) == per_pair
        assert (per_pair <= BOX_PER_PAIR) == boxed
        calls.clear()
        assert op(a, b) == want
        assert calls == ([] if boxed else [a.nvars])


def test_colon_generators_recheck_membership():
    for g, k in [(path(3), 2), (cycle(4), 2), (cycle(5), 1)]:
        p = ideal_power(edge_ideal(g), k)
        for gen in p.sorted_gens():
            c = colon(p, gen)
            for q in c.sorted_gens():
                assert p.contains(tuple(map(add, q, gen)))


def test_cover_colon_is_variable_generated_small():
    # vertex cover times a power, colon by any generator of the power
    cases = [(path(3), (1,)), (cycle(4), (0, 1, 2, 3)), (cycle(4), (0, 2))]
    for g, cover in cases:
        i = edge_ideal(g)
        u = variable_ideal(g.n, cover)
        for k in (0, 1, 2):
            p = ideal_power(i, k)
            up = ideal_product(u, p)
            for gen in p.sorted_gens():
                assert is_generated_by_variables(colon(up, gen)), (g, cover, k, gen)
