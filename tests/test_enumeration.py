"""Exhaustive family generation: counts and canonicality."""

import hashlib
import random
from itertools import combinations

import pytest

import edgeideals.enumeration as enumeration
from edgeideals.enumeration import CLASS_COUNTS, enumerate_graphs, graphs_on
from edgeideals.graph6 import graph_to_graph6
from edgeideals.graphs import Graph, canonical_key, graph_from_key

# isomorphism class counts for simple graphs on n labeled-free vertices
COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def test_class_counts():
    for n, count in COUNTS.items():
        assert len(graphs_on(n)) == count == CLASS_COUNTS[n], n


def test_eight_vertex_bytes_are_pinned():
    g6 = [graph_to_graph6(g) for g in graphs_on(8)]
    assert len(g6) == 12346
    digest = hashlib.sha256("\n".join(g6).encode("ascii")).hexdigest()
    assert digest == "e07b51ee5e5f52ce7f5cb048a3ddad2a05b2221a820b072e05c1d7c50510439f"


def test_representatives_are_canonical_and_distinct():
    for n in range(1, 6):
        reps = graphs_on(n)
        keys = {canonical_key(g) for g in reps}
        assert len(keys) == len(reps)
        for g in reps:
            assert g.n == n


def test_keys_round_trip_through_their_representatives():
    for n in range(0, 8):
        for g in graphs_on(n):
            key = canonical_key(g)
            assert canonical_key(graph_from_key(key)) == key


def test_every_labeled_graph_has_a_representative():
    pairs = list(combinations(range(4), 2))
    keys = {canonical_key(g) for g in graphs_on(4)}
    for mask in range(1 << 6):
        g = Graph(4, (pairs[i] for i in range(6) if (mask >> i) & 1))
        assert canonical_key(g) in keys


def test_enumerate_graphs_filters():
    fam = enumerate_graphs(4, min_n=2, require_edge=True)
    assert all(g.edges for g in fam)
    assert all(2 <= g.n <= 4 for g in fam)
    assert len(fam) == (2 - 1) + (4 - 1) + (11 - 1)


def test_family_bytes_are_pinned():
    # the list a --max-n 7 family cache entry stores; canonical forms and their
    # order decide it, so a change to either shows here
    family = [graph_to_graph6(g) for g in enumerate_graphs(7, require_edge=True)]
    assert len(family) == 1245
    digest = hashlib.sha256("\n".join(family).encode("ascii")).hexdigest()
    assert digest == "4759b9e23562d9f1509cc41fde92e6456d40050c813f609a1918fc25a9a18fe4"


def test_family_digest_table_matches_enumeration():
    # a cached --max-n family is trusted only when it hashes to this table
    assert len(enumeration.FAMILY_SHA256) == len(CLASS_COUNTS)
    for n in range(len(CLASS_COUNTS)):
        family = [graph_to_graph6(g) for g in enumerate_graphs(n, require_edge=True)]
        digest = hashlib.sha256("\n".join(family).encode("ascii")).hexdigest()
        assert enumeration.FAMILY_SHA256[n] == digest, n


def test_enumeration_cap():
    with pytest.raises(ValueError):
        graphs_on(9)


def test_only_max_degree_augmentations_are_canonicalised(monkeypatch):
    # canonicalising every augmentation takes 11,291 row searches for n <= 7
    search = enumeration._canonical_rows
    calls = []

    def counted(n, masks):
        calls.append(n)
        return search(n, masks)

    monkeypatch.setattr(enumeration, "_canonical_rows", counted)
    graphs_on.cache_clear()
    assert len(graphs_on(7)) == COUNTS[7]
    assert len(calls) <= 3132
