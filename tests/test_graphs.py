"""Graph invariants against brute-force oracles and frozen small cases."""

import gc
import random
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edgeideals.graph6 import graph_from_graph6
from edgeideals.graphs import (
    Graph,
    anticycle,
    canonical_graph,
    canonical_key,
    complement,
    complete,
    cycle,
    graph_from_key,
    has_induced_cricket,
    independent_sets,
    induced_matching_number,
    induced_subgraph,
    is_chordal,
    is_gap_free,
    is_independent_set,
    is_vertex_cover,
    matching_number,
    minimal_vertex_covers,
    one_vertex_extensions,
    path,
    s_suspension,
)
from canonical_reference import reference_canonical_key, reference_rooted_form
from families import graph_family
from pattern_reference import claw, cricket, has_induced_subgraph

TWO_K2 = Graph(4, [(0, 1), (2, 3)])


def graph_from_mask(n, mask):
    pairs = list(combinations(range(n), 2))
    return Graph(n, (pairs[i] for i in range(len(pairs)) if (mask >> i) & 1))


def random_graph(rnd, n, p=0.5):
    return Graph(n, (e for e in combinations(range(n), 2) if rnd.random() < p))


# -- brute-force oracles -------------------------------------------------------


def brute_matching(g):
    edges = sorted(g.edges)
    best = 0
    for r in range(len(edges), 0, -1):
        for sub in combinations(edges, r):
            seen = set()
            ok = True
            for e in sub:
                if e[0] in seen or e[1] in seen:
                    ok = False
                    break
                seen.update(e)
            if ok:
                return r
    return best


def brute_induced_matching(g):
    edges = sorted(g.edges)
    best = 0
    for r in range(len(edges), 0, -1):
        for sub in combinations(edges, r):
            seen = set()
            ok = True
            for e in sub:
                if e[0] in seen or e[1] in seen:
                    ok = False
                    break
                seen.update(e)
            if not ok:
                continue
            if any(
                set(e) & set(a) and set(e) & set(b)
                for e in edges
                for a, b in combinations(sub, 2)
            ):
                continue
            return r
    return best


def brute_independent_sets(g):
    # by size, then lexicographically, as combinations yields them
    return [
        sub
        for size in range(g.n + 1)
        for sub in combinations(range(g.n), size)
        if is_independent_set(g, sub)
    ]


def brute_minimal_vertex_covers(g):
    covers = [
        sub
        for size in range(g.n + 1)
        for sub in combinations(range(g.n), size)
        if is_vertex_cover(g, sub)
    ]
    return sorted(
        c for c in covers if not any(is_vertex_cover(g, set(c) - {v}) for v in c)
    )


def _induces_cycle(g, sub):
    h = induced_subgraph(g, sub)
    if any(len(h.neighbors(v)) != 2 for v in range(h.n)):
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in h.neighbors(v):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == h.n


def brute_chordal(g):
    for size in range(4, g.n + 1):
        for sub in combinations(range(g.n), size):
            if _induces_cycle(g, sub):
                return False
    return True


def has_gap_pair(g):
    edges = sorted(g.edges)
    for e1, e2 in combinations(edges, 2):
        if set(e1) & set(e2):
            continue
        if not any(set(e) & set(e1) and set(e) & set(e2) for e in edges):
            return True
    return False


# -- construction and elementary views ----------------------------------------


def test_graph_rejects_loops_and_bad_indices():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_complement_examples():
    assert canonical_key(complement(cycle(5))) == canonical_key(cycle(5))
    assert complement(Graph(2, [(0, 1)])).edges == frozenset()
    assert complement(cycle(4)) == Graph(4, [(0, 2), (1, 3)])


def test_complement_involution():
    rnd = random.Random(7)
    for _ in range(25):
        g = random_graph(rnd, rnd.randint(1, 7))
        assert complement(complement(g)) == g


def test_induced_subgraph_examples():
    assert canonical_key(induced_subgraph(cycle(5), [0, 1, 2, 3])) == canonical_key(path(4))
    g = random_graph(random.Random(1), 6)
    assert induced_subgraph(g, range(6)) == g
    assert induced_subgraph(cycle(4), [0, 2]).edges == frozenset()
    with pytest.raises(ValueError):
        induced_subgraph(cycle(4), [0, 5])
    with pytest.raises(ValueError):
        induced_subgraph(cycle(4), [0, 0, 1])


def test_neighborhood_and_degree():
    star = claw()
    assert star.neighbors(0) == frozenset({1, 2, 3})
    assert cycle(5).neighbors(0) == frozenset({1, 4})
    assert Graph(1).neighbors(0) == frozenset()
    assert Graph(3, [(0, 1)]).neighbors(2) == frozenset()


def test_chordal_examples():
    assert is_chordal(cycle(3))
    assert not is_chordal(cycle(4))
    assert not is_chordal(complement(cycle(5)))
    assert is_chordal(complete(6))
    assert is_chordal(path(6))


def test_chordal_against_brute_force_small():
    for n in range(1, 6):
        pairs = n * (n - 1) // 2
        for mask in range(1 << pairs):
            g = graph_from_mask(n, mask)
            assert is_chordal(g) == brute_chordal(g), g


def test_chordal_against_brute_force_random_n7():
    rnd = random.Random(42)
    for _ in range(200):
        g = random_graph(rnd, 7, rnd.choice([0.2, 0.5, 0.8]))
        assert is_chordal(g) == brute_chordal(g), g


def test_chordal_against_brute_force_all_classes_n7():
    # chordality is isomorphism invariant, so classes cover all graphs n <= 7
    for g in graph_family(7):
        assert is_chordal(g) == brute_chordal(g), g


def test_matching_examples():
    assert matching_number(Graph(2, [(0, 1)])) == 1
    assert matching_number(cycle(4)) == 2
    assert matching_number(cycle(5)) == brute_matching(cycle(5)) == 2


def test_induced_matching_examples():
    assert induced_matching_number(TWO_K2) == 2
    assert induced_matching_number(cycle(5)) == brute_induced_matching(cycle(5)) == 1
    assert induced_matching_number(path(5)) == brute_induced_matching(path(5)) == 2
    with pytest.raises(ValueError):
        induced_matching_number(Graph(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 15) - 1))
def test_matching_invariants_exhaustive_oracle(mask):
    g = graph_from_mask(6, mask)
    m = matching_number(g)
    assert m == brute_matching(g)
    if g.edges:
        im = induced_matching_number(g)
        assert im == brute_induced_matching(g)
        assert im <= m


def test_invariants_against_brute_force_on_every_class_n6():
    for g in graph_family(6, min_n=0):
        assert matching_number(g) == brute_matching(g), g
        if g.edges:
            assert induced_matching_number(g) == brute_induced_matching(g), g
        assert independent_sets(g) == brute_independent_sets(g), g
        assert minimal_vertex_covers(g) == brute_minimal_vertex_covers(g), g


def test_gap_free_examples():
    assert not is_gap_free(TWO_K2)
    assert is_gap_free(cycle(4))
    assert is_gap_free(anticycle(5))


def test_gap_free_matches_direct_pair_search():
    for n in range(2, 6):
        pairs = n * (n - 1) // 2
        for mask in range(1, 1 << pairs):
            g = graph_from_mask(n, mask)
            if not g.edges:
                continue
            assert is_gap_free(g) == (not has_gap_pair(g)), g


# The claw and the generic induced-subgraph search of `pattern_reference` are cross-checks of
# has_induced_cricket, which the banerjee verifier runs on neighbour masks.


def has_induced_claw(g: Graph) -> bool:
    """True when some 4 vertices induce a star with 3 leaves."""
    return has_induced_subgraph(g, claw())


def test_claw_and_cricket_patterns():
    assert has_induced_claw(cricket())
    assert has_induced_cricket(cricket())
    assert not has_induced_cricket(anticycle(5))
    assert has_induced_claw(claw())
    assert not has_induced_claw(cycle(5))


def test_generic_induced_subgraph_search():
    assert has_induced_subgraph(cycle(6), path(4))
    assert has_induced_subgraph(cricket(), claw())
    assert not has_induced_subgraph(complete(5), TWO_K2)
    assert has_induced_subgraph(anticycle(6), anticycle(6))
    assert not has_induced_subgraph(anticycle(6), anticycle(5))


def test_every_cricket_bearing_graph_has_a_claw():
    rnd = random.Random(3)
    hits = 0
    for _ in range(300):
        g = random_graph(rnd, rnd.randint(5, 7), rnd.choice([0.3, 0.5]))
        if has_induced_cricket(g):
            hits += 1
            assert has_induced_claw(g)
    assert hits > 0


def test_cricket_test_matches_the_canonical_search_on_every_class_n7():
    # the cricket is an isomorphism invariant pattern, so the classes cover all graphs n <= 7
    found = 0
    for g in graph_family(7, min_n=0):
        expected = has_induced_subgraph(g, cricket())
        assert has_induced_cricket(g) == expected, g
        found += expected
    assert found > 0


def test_independent_and_cover_examples():
    c4 = cycle(4)
    assert is_independent_set(c4, {0, 2})
    assert not is_independent_set(c4, {0, 1})
    assert not is_vertex_cover(c4, {0, 1})
    assert is_vertex_cover(c4, range(4))
    with pytest.raises(ValueError):
        is_independent_set(c4, {9})


def test_s_suspension_examples():
    star = s_suspension(path(3), {0, 2})
    assert star == Graph(4, [(0, 1), (1, 2), (1, 3)])
    cone = s_suspension(cycle(5), frozenset())
    assert cone.neighbors(5) == frozenset(range(5))
    with pytest.raises(ValueError):
        s_suspension(cycle(4), {0, 1})
    with pytest.raises(ValueError):
        s_suspension(Graph(2), {0, 1})


def test_s_suspension_restricts_to_original():
    rnd = random.Random(11)
    for _ in range(40):
        g = random_graph(rnd, rnd.randint(2, 6))
        sets = [s for s in independent_sets(g) if len(s) < g.n]
        s = rnd.choice(sets)
        assert induced_subgraph(s_suspension(g, s), range(g.n)) == g


def test_one_vertex_extensions():
    k2 = Graph(2, [(0, 1)])
    exts = one_vertex_extensions(k2)
    assert len(exts) == 3
    exts3 = one_vertex_extensions(path(3))
    assert len(exts3) == 7
    # 2^11 - 1 graphs are past desk scale; none is built
    with pytest.raises(ValueError, match="n <= 10"):
        one_vertex_extensions(path(11))
    for ext in exts3:
        assert induced_subgraph(ext, range(3)) == path(3)
        assert ext.neighbors(3)


def test_builders():
    assert len(cycle(4).edges) == 4
    assert canonical_key(anticycle(5)) == canonical_key(cycle(5))
    assert anticycle(4) == Graph(4, [(0, 2), (1, 3)])
    assert len(path(1).edges) == 0
    assert len(complete(4).edges) == 6
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        anticycle(2)


def test_minimal_vertex_covers():
    assert minimal_vertex_covers(cycle(4)) == [(0, 2), (1, 3)]
    assert minimal_vertex_covers(path(4)) == [(0, 2), (1, 2), (1, 3)]
    for cover in minimal_vertex_covers(cycle(5)):
        assert is_vertex_cover(cycle(5), cover)
        assert len(cover) == 3


# -- canonical forms -------------------------------------------------------------


# Two labelings of one graph on 8 vertices.  A branch-and-bound that let every
# leaf below a smaller prefix overwrite the best rows, without a compare, gave
# them different keys, and the relabeling's key did not round-trip.
WITNESS = ("GQqaxw", "GQq`yw")
WITNESS_PERM = (0, 6, 7, 1, 4, 2, 3, 5)


def relabel(g, perm):
    return Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def test_canonical_key_witness_on_eight_vertices():
    g, h = (graph_from_graph6(s) for s in WITNESS)
    key = canonical_key(g)
    assert key == (8, (0, 0, 1, 2, 3, 5, 58, 60))
    assert canonical_key(h) == key
    assert canonical_key(relabel(g, WITNESS_PERM)) == key
    assert canonical_key(graph_from_key(key)) == key


@st.composite
def relabeled_graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    g = graph_from_mask(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    return g, draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(relabeled_graphs())
@example((graph_from_graph6(WITNESS[0]), WITNESS_PERM))
def test_canonical_key_is_isomorphism_invariant(pair):
    g, perm = pair
    key = canonical_key(g)
    assert canonical_key(relabel(g, perm)) == key
    assert canonical_key(graph_from_key(key)) == key


PETERSEN = "IheA@GUAo"


@st.composite
def graphs_up_to_ten(draw):
    n = draw(st.integers(1, 10))
    g = graph_from_mask(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    # every one of the n! orders ties on the empty and the complete graph, so
    # from nine vertices on each reference search takes seconds
    assume(n < 9 or 0 < len(g.edges) < n * (n - 1) // 2)
    return g


@settings(max_examples=200, deadline=None)
@given(graphs_up_to_ten())
@example(graph_from_graph6(WITNESS[0]))
@example(graph_from_graph6(PETERSEN))
@example(cycle(10))
def test_canonical_key_matches_the_reference_search(g):
    assert canonical_key(g) == reference_canonical_key(g)


def _assert_rooted_keys_match_the_brute_force(pairs):
    # equal rooted keys iff equal brute-force forms: key -> form is a bijection
    keys = {(canonical_key(g, root), reference_rooted_form(g, root)) for g, root in pairs}
    assert len(keys) == len({k for k, _ in keys}) == len({f for _, f in keys})
    # the representative of a rooted key has the root at vertex 0
    for key, _ in keys:
        assert canonical_key(graph_from_key(key), 0) == key


def test_rooted_keys_match_a_brute_force_on_every_graph_up_to_five_vertices():
    for n in range(1, 6):
        graphs = [graph_from_mask(n, mask) for mask in range(1 << (n * (n - 1) // 2))]
        _assert_rooted_keys_match_the_brute_force([(g, root) for g in graphs for root in range(n)])
        # the unrooted key is the former one, bit for bit
        assert all(canonical_key(g) == canonical_key(g, None) == reference_canonical_key(g) for g in graphs)


def test_rooted_keys_match_a_brute_force_on_six_vertex_graphs():
    rnd = random.Random(28)
    graphs = [random_graph(rnd, 6) for _ in range(300)]
    _assert_rooted_keys_match_the_brute_force([(g, root) for g in graphs for root in range(6)])


def test_rooted_keys_separate_the_orbits_of_the_root():
    # P3's end vertices form one orbit, its middle vertex another
    p3 = path(3)
    assert canonical_key(p3, 0) == canonical_key(p3, 2) != canonical_key(p3, 1)
    assert canonical_key(p3) == canonical_key(Graph(3, [(0, 2), (1, 2)]))
    for bad in (3, -1, "0"):
        with pytest.raises(ValueError):
            canonical_key(p3, bad)


def circulant_jump_sets(m, d):
    # the jump sets S within 1..m/2 whose circulant graph on m vertices is d-regular
    half = range(1, m // 2 + 1)
    return [
        jumps
        for r in range(len(half) + 1)
        for jumps in combinations(half, r)
        if sum(1 if 2 * s == m else 2 for s in jumps) == d
    ]


@st.composite
def equal_degree_unions(draw, max_n):
    # a disjoint union of circulant graphs that all have one degree d
    d = draw(st.integers(0, 3))
    edges, start = [], 0
    while not start or draw(st.booleans()):
        parts = [(m, j) for m in range(d + 1, max_n - start + 1) for j in circulant_jump_sets(m, d)]
        if not parts:
            break
        m, jumps = draw(st.sampled_from(parts))
        edges += [(start + i, start + (i + s) % m) for i in range(m) for s in jumps]
        start += m
    return Graph(start, edges)


@st.composite
def twin_rich_graphs(draw, max_n=8):
    # a blow-up: each vertex of a base graph becomes a clique or an independent
    # set of twins.  The base is any graph on at most 4 vertices, or a union of
    # equal-degree circulants blown up evenly, so that the result is regular and
    # its refinement colours tie on vertices that are not twins.  Drawn with a
    # few relabellings, since a wrong prune shows only for some vertex orders.
    if draw(st.booleans()):
        k = draw(st.integers(1, 4))
        base = graph_from_mask(k, draw(st.integers(0, (1 << (k * (k - 1) // 2)) - 1)))
        sizes, start = [], 0
        for i in range(k):
            sizes.append(draw(st.integers(1, max_n - start - (k - 1 - i))))
            start += sizes[-1]
        cliques = [draw(st.booleans()) for _ in range(k)]
    else:
        base = draw(equal_degree_unions(max_n))
        k = base.n
        sizes = [draw(st.integers(1, max_n // k))] * k
        cliques = [draw(st.booleans())] * k
    parts, start = [], 0
    for size in sizes:
        parts.append(range(start, start + size))
        start += size
    edges = [
        (u, v)
        for i, j in combinations(range(k), 2)
        if (i, j) in base.edges
        for u in parts[i]
        for v in parts[j]
    ]
    for part, clique in zip(parts, cliques):
        if clique:
            edges += combinations(part, 2)
    perms = draw(st.lists(st.permutations(range(start)), min_size=1, max_size=4))
    return Graph(start, edges), perms


# C4 + K3 is 2-regular, so all its refinement colours tie, but a C4 vertex and
# a K3 vertex are not twins
C4_K3 = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (4, 6), (5, 6)])


@settings(max_examples=150, deadline=None)
@given(twin_rich_graphs())
@example((complete(8), [range(8)]))
@example((Graph(8), [range(8)]))
@example((C4_K3, [range(7)]))
def test_twin_pruned_keys_match_the_reference_search(pair):
    g, perms = pair
    key = reference_canonical_key(g)
    for perm in perms:
        assert canonical_key(relabel(g, perm)) == key


def test_canonical_graph_is_a_fixed_point():
    rnd = random.Random(6)
    for _ in range(30):
        g = random_graph(rnd, rnd.randint(1, 7))
        cg = canonical_graph(g)
        assert canonical_graph(cg) == cg
        assert canonical_key(g) == canonical_key(cg)


def test_non_isomorphic_graphs_have_distinct_keys():
    assert canonical_key(cycle(6)) != canonical_key(path(6))
    assert canonical_key(TWO_K2) != canonical_key(path(4))
    assert canonical_key(cycle(6)) != canonical_key(complete(6))


def test_canonical_keys_leave_nothing_for_the_cyclic_collector():
    # the backtracking search passes its state down instead of closing over itself, so
    # every object a call makes is freed by reference counting when the call returns
    graphs = [cycle(7), anticycle(7), path(7), complete(5), Graph(4)]
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            for g in graphs:
                canonical_key(g)
                canonical_key(g, root=0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_matching_numbers_leave_nothing_for_the_cyclic_collector():
    # the branch and bound passes its masks down, as the canonical search passes its state
    graphs = [cycle(7), anticycle(7), path(7), complete(5)]
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            for g in graphs:
                matching_number(g)
                induced_matching_number(g)
        assert gc.collect() == 0
    finally:
        gc.enable()
