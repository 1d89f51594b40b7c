"""Homology conventions, order complexes, and field dependence."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_homology import dense_mask_homology_ranks
from edgeideals import linalg
from edgeideals.complexes import (
    CapExceeded,
    SimplicialComplex,
    mask_homology_ranks,
    order_complex,
    reduced_homology_ranks,
)
from edgeideals.linalg import GF2, RATIONALS, Field


def test_void_and_empty_conventions():
    assert reduced_homology_ranks(SimplicialComplex.void(), RATIONALS) == {}
    assert reduced_homology_ranks(SimplicialComplex.empty(), RATIONALS) == {-1: 1}
    assert SimplicialComplex.void().is_void
    assert SimplicialComplex.empty().is_empty_complex
    assert SimplicialComplex.void().dim is None
    assert SimplicialComplex.empty().dim == -1


def test_two_points_and_hollow_triangle():
    two_points = SimplicialComplex.from_facets([[0], [1]])
    assert reduced_homology_ranks(two_points, RATIONALS) == {0: 1}
    hollow = SimplicialComplex.from_facets([[0, 1], [1, 2], [0, 2]])
    assert reduced_homology_ranks(hollow, RATIONALS) == {1: 1}
    solid = SimplicialComplex.from_facets([[0, 1, 2]])
    assert reduced_homology_ranks(solid, RATIONALS) == {}


def test_circle_and_sphere():
    square = SimplicialComplex.from_facets([[0, 1], [1, 2], [2, 3], [0, 3]])
    assert reduced_homology_ranks(square, RATIONALS) == {1: 1}
    sphere = SimplicialComplex.from_facets(
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    )
    assert reduced_homology_ranks(sphere, RATIONALS) == {2: 1}
    assert reduced_homology_ranks(sphere, GF2) == {2: 1}


def test_projective_plane_depends_on_the_field():
    facets = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    rp2 = SimplicialComplex.from_facets(facets)
    assert reduced_homology_ranks(rp2, RATIONALS) == {}
    assert reduced_homology_ranks(rp2, GF2) == {1: 1, 2: 1}


def test_closure_validation():
    with pytest.raises(ValueError):
        SimplicialComplex([frozenset({0, 1})])
    ok = SimplicialComplex([frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})])
    assert ok.dim == 1


def test_mask_engine_agrees_with_set_engine():
    # disjoint union of an edge and a point
    faces = [0b000, 0b001, 0b010, 0b011, 0b100]
    by_card = mask_homology_ranks(faces, RATIONALS)
    cx = SimplicialComplex.from_facets([[0, 1], [2]])
    by_dim = reduced_homology_ranks(cx, RATIONALS)
    assert {c - 1: r for c, r in by_card.items()} == by_dim == {0: 1}


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
    cx = order_complex(items, lambda a, b: b % a == 0 and a != b, 1000)
    # chains: {}, four singletons, {2,4}, {2,6}, {3,6}
    assert len(cx.faces) == 8
    assert reduced_homology_ranks(cx, RATIONALS) == {}


def test_order_complex_antichain():
    cx = order_complex(["a", "b", "c"], lambda a, b: False, 1000)
    assert reduced_homology_ranks(cx, RATIONALS) == {0: 2}


def test_order_complex_face_cap():
    items = list(range(8))
    with pytest.raises(CapExceeded):
        order_complex(items, lambda a, b: a < b, 10)
