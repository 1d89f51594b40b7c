"""Homology conventions, order complexes, field dependence and the complex memo."""

import contextlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_homology import dense_mask_homology_ranks
from edgeideals import linalg, resolutions
from edgeideals.complexes import CapExceeded, mask_homology_ranks
from edgeideals.linalg import GF2, RATIONALS, Field
from edgeideals.graphs import cycle
from edgeideals.monomials import edge_ideal
from edgeideals.resolutions import COMPLEX_MEMO_SIZE, _complex_ranks, betti_table
from interval_oracle import order_complex

RP2_FACETS = (
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
)
RP2 = tuple(sum(1 << (v - 1) for v in facet) for facet in RP2_FACETS)
CONE = (0b0111, 0b1011, 0b1101)  # vertex 0 joined to the hollow triangle 1, 2, 3
TWO_POINTS = (0b01, 0b10)


def closure(facets) -> list:
    """Every face of the complex with these facet bitmasks, the empty face included."""
    faces = set()
    for facet in facets:
        sub = facet
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & facet
    return sorted(faces)


# mask_homology_ranks keys ranks by face cardinality c, i.e. dimension c - 1


def test_void_and_empty_conventions():
    assert mask_homology_ranks([], RATIONALS) == {}
    assert mask_homology_ranks([0], RATIONALS) == {0: 1}


def test_two_points_and_hollow_triangle():
    two_points = closure(TWO_POINTS)
    assert mask_homology_ranks(two_points, RATIONALS) == {1: 1}
    hollow = closure((0b011, 0b110, 0b101))
    assert mask_homology_ranks(hollow, RATIONALS) == {2: 1}
    solid = closure((0b111,))
    assert mask_homology_ranks(solid, RATIONALS) == {}


def test_circle_and_sphere():
    square = closure((0b0011, 0b0110, 0b1100, 0b1001))
    assert mask_homology_ranks(square, RATIONALS) == {2: 1}
    sphere = closure((0b0111, 0b1011, 0b1101, 0b1110))
    assert mask_homology_ranks(sphere, RATIONALS) == {3: 1}
    assert mask_homology_ranks(sphere, GF2) == {3: 1}


def test_projective_plane_depends_on_the_field():
    rp2 = closure(RP2)
    assert mask_homology_ranks(rp2, RATIONALS) == {}
    assert mask_homology_ranks(rp2, GF2) == {2: 1, 3: 1}


def test_edge_and_point():
    # disjoint union of an edge and a point
    faces = [0b000, 0b001, 0b010, 0b011, 0b100]
    assert mask_homology_ranks(faces, RATIONALS) == {1: 1}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, (1 << 7) - 1), min_size=1, max_size=9))
@example(RP2)
@example(CONE)
@example(TWO_POINTS)
def test_sparse_reduction_matches_dense_reference(facets):
    faces = closure(facets)
    for field in (RATIONALS, GF2, Field(3)):
        assert mask_homology_ranks(faces, field) == dense_mask_homology_ranks(faces, field)


def test_reduction_examples(monkeypatch):
    shapes = []
    bareiss = linalg.bareiss_rank

    def recording(rows):
        shapes.append((len(rows), len(rows[0]) if rows else 0))
        return bareiss(rows)

    monkeypatch.setattr(linalg, "bareiss_rank", recording)
    # RP2 has 2-torsion: over Q the reduction meets a non-unit pivot
    assert mask_homology_ranks(closure(RP2), RATIONALS) == {}
    assert any(rows for rows, _ in shapes)
    assert mask_homology_ranks(closure(RP2), GF2) == {2: 1, 3: 1}
    assert mask_homology_ranks(closure(RP2), Field(3)) == {}
    assert mask_homology_ranks(closure(CONE), RATIONALS) == {}
    assert mask_homology_ranks(closure(TWO_POINTS), RATIONALS) == {1: 1}
    # one rank call per boundary map, even with no remainder
    shapes.clear()
    mask_homology_ranks(closure(TWO_POINTS), RATIONALS)
    assert shapes == [(0, 0)]


def test_order_complex_of_divisor_poset():
    items = [2, 3, 4, 6]
    chains = order_complex(items, lambda a, b: b % a == 0 and a != b, 1000)
    # chains: {}, four singletons, {2,4}, {2,6}, {3,6}
    assert chains == [0b0000, 0b0001, 0b0010, 0b0100, 0b0101, 0b1000, 0b1001, 0b1010]
    assert mask_homology_ranks(chains, RATIONALS) == {}


def test_order_complex_antichain():
    chains = order_complex(["a", "b", "c"], lambda a, b: False, 1000)
    assert mask_homology_ranks(chains, RATIONALS) == {1: 2}


def test_order_complex_face_cap():
    items = list(range(8))
    with pytest.raises(CapExceeded) as err:
        order_complex(items, lambda a, b: a < b, 10)
    assert (err.value.cap, err.value.limit, err.value.size) == ("order_faces_max", 10, 11)


# -- the memo of membership-complex homology, keyed by face bitmap and field


def bitmap_of(faces) -> int:
    return sum(1 << f for f in faces)


@pytest.fixture
def empty_memo():
    resolutions._COMPLEX_MEMO.clear()
    yield
    resolutions._COMPLEX_MEMO.clear()


def memo_size() -> int:
    return sum(map(len, resolutions._COMPLEX_MEMO.values()))


# (n, facets): a complex on n vertices, ranked on either Alexander-dual side
complexes_on_n_vertices = st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=9))
)


@settings(max_examples=200, deadline=None)
@given(complexes_on_n_vertices)
@example((6, list(RP2)))
@example((4, list(CONE)))
@example((7, []))
@example((3, [0b111]))
@example((3, [0]))
def test_memoised_ranks_match_direct_ranks(case):
    n, facets = case
    faces = closure(facets)
    for field in (RATIONALS, GF2, Field(3)):
        direct = mask_homology_ranks(faces, field)
        # the first lookup may compute, the second reads the memo
        assert dict(_complex_ranks(bitmap_of(faces), field, 1 << n)) == direct
        assert dict(_complex_ranks(bitmap_of(faces), field, 1 << n)) == direct


def test_memo_key_carries_the_field(empty_memo):
    rp2 = bitmap_of(closure(RP2))
    assert dict(_complex_ranks(rp2, RATIONALS, 1 << 6)) == {}
    assert dict(_complex_ranks(rp2, GF2, 1 << 6)) == {2: 1, 3: 1}
    assert dict(_complex_ranks(rp2, RATIONALS, 1 << 6)) == {}


def test_memo_never_exceeds_its_bound(empty_memo, monkeypatch):
    computed = []

    def stub(faces, field):
        computed.append(len(faces))
        return {}

    monkeypatch.setattr(resolutions, "mask_homology_ranks", stub)
    # every bitmap below 2^16 is a complex on 4 vertices
    for bitmap in range(1, COMPLEX_MEMO_SIZE + 20):
        _complex_ranks(bitmap, RATIONALS if bitmap % 3 else GF2, 1 << 4)
        assert memo_size() <= COMPLEX_MEMO_SIZE
    assert len(computed) == COMPLEX_MEMO_SIZE + 19
    # a bitmap looked up since the memo was last emptied is not computed again
    _complex_ranks(COMPLEX_MEMO_SIZE + 19, RATIONALS, 1 << 4)
    assert len(computed) == COMPLEX_MEMO_SIZE + 19


def test_changing_a_result_does_not_change_the_memo(empty_memo):
    hollow = bitmap_of(closure((0b011, 0b110, 0b101)))
    ranks = _complex_ranks(hollow, RATIONALS, 1 << 3)
    with contextlib.suppress(TypeError):
        ranks[2] = 7
    with contextlib.suppress(AttributeError):
        ranks.clear()
    assert dict(_complex_ranks(hollow, RATIONALS, 1 << 3)) == {2: 1}


def test_gather_cache_empties_with_the_complex_memo(empty_memo, monkeypatch):
    ideal = edge_ideal(cycle(5))
    expected = betti_table(ideal)
    assert resolutions._GATHERS
    monkeypatch.setattr(resolutions, "COMPLEX_MEMO_SIZE", memo_size())
    gathers = [*resolutions._GATHERS.values()]
    _complex_ranks(bitmap_of(closure(RP2)), RATIONALS, 1 << 6)
    assert memo_size() == 1
    assert not resolutions._GATHERS and not any(gathers)
    # a table whose complexes overflow the memo while it runs keeps its numbers
    monkeypatch.setattr(resolutions, "COMPLEX_MEMO_SIZE", 2)
    resolutions._COMPLEX_MEMO.clear()
    assert betti_table(ideal) == expected
    assert memo_size() <= 2


# (faces, the fewest vertices they are a complex on); each is ranked on V of that many
# vertices and more, so on the smaller of its two Alexander-dual sides in turn
RP2_DUAL_ON_7 = sorted(set(range(1 << 7)) - {0b1111111 ^ f for f in closure(RP2)})
COMPLEXES = {
    "void": ([], 0),
    "empty-face": ([0], 0),
    "full-simplex": (closure((0b111,)), 3),
    "cone": (closure(CONE), 4),
    "rp2": (closure(RP2), 6),
    "rp2-dual": (RP2_DUAL_ON_7, 7),
}


@pytest.mark.parametrize("field", [RATIONALS, GF2, Field(3)], ids=["Q", "GF2", "GF3"])
@pytest.mark.parametrize("name", COMPLEXES)
def test_complex_ranks_of_edge_cases_at_several_widths(empty_memo, name, field):
    faces, least = COMPLEXES[name]
    direct = mask_homology_ranks(faces, field)
    for n in range(least, least + 3):
        assert dict(_complex_ranks(bitmap_of(faces), field, 1 << n)) == direct, n
        resolutions._COMPLEX_MEMO.clear()


def test_edge_cases_take_the_side_they_should(empty_memo, monkeypatch):
    ranked = []

    def recording(faces, field):
        ranked.append(sorted(faces))
        return mask_homology_ranks(faces, field)

    monkeypatch.setattr(resolutions, "mask_homology_ranks", recording)
    # {empty face} on no vertex is the whole simplex there and is ranked as it is; the
    # full simplex on 3 vertices has the void dual and the cone on 4 the dual {empty, {0}};
    # the 6-vertex RP^2 is half of its 64 subsets and is ranked as it is
    for faces, n, side in (
        ([0], 0, [0]),
        (closure((0b111,)), 3, []),
        (closure(CONE), 4, [0, 0b0001]),
        (closure(RP2), 6, closure(RP2)),
    ):
        ranked.clear()
        ranks = _complex_ranks(bitmap_of(faces), RATIONALS, 1 << n)
        assert dict(ranks) == mask_homology_ranks(faces, RATIONALS)
        assert ranked == [side]


@settings(max_examples=200, deadline=None)
@given(complexes_on_n_vertices)
@example((6, list(RP2)))
@example((4, list(CONE)))
@example((3, [0b111]))
@example((3, [0]))
@example((3, []))
def test_alexander_dual_ranks_match_primal_ranks(case):
    # H~_i(K) = H~_{|V|-i-3}(K^v), with K^v = {V - f : f not in K}: cardinality c of the
    # dual stands for |V| - c - 1
    n, facets = case
    faces = set(closure(facets))
    full = (1 << n) - 1
    dual = [full ^ f for f in range(1 << n) if f not in faces]
    for field in (RATIONALS, GF2, Field(3)):
        dual_ranks = mask_homology_ranks(dual, field)
        assert {n - c - 1: r for c, r in dual_ranks.items()} == mask_homology_ranks(faces, field)
