"""Exhaustive family generation: counts, canonicality and the bytes a family stores."""

import hashlib
from itertools import combinations

import pytest

import edgeideals.enumeration as enumeration
from edgeideals.enumeration import CLASS_COUNTS, enumerate_graphs
from edgeideals.graph6 import graph_from_graph6, graph_to_graph6
from edgeideals.graphs import Graph, canonical_graph, canonical_key, graph_from_key
from families import graph_family

# isomorphism class counts for simple graphs on n labeled-free vertices
COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def _sha256(family) -> str:
    return hashlib.sha256("\n".join(family).encode("ascii")).hexdigest()


def _order(g6: str) -> int:
    return ord(g6[0]) - 63


def test_class_counts(classes8):
    for n, count in COUNTS.items():
        assert sum(1 for s in classes8 if _order(s) == n) == count == CLASS_COUNTS[n], n
    # by n, then within one n in the order of the canonical rows
    assert [_order(s) for s in classes8] == sorted(_order(s) for s in classes8)


def test_eight_vertex_bytes_are_pinned(classes8):
    g6 = [s for s in classes8 if _order(s) == 8]
    assert len(g6) == 12346
    assert _sha256(g6) == "e07b51ee5e5f52ce7f5cb048a3ddad2a05b2221a820b072e05c1d7c50510439f"


def test_representatives_are_canonical_and_distinct():
    reps = graph_family(5)
    for n in range(1, 6):
        keys = {canonical_key(g) for g in reps if g.n == n}
        assert len(keys) == CLASS_COUNTS[n]


def test_keys_round_trip_through_their_representatives():
    for s in enumerate_graphs(7, min_n=0):
        g = graph_from_graph6(s)
        key = canonical_key(g)
        assert canonical_key(graph_from_key(key)) == key
        # each string is already the graph6 of its class's canonical representative
        assert graph_to_graph6(canonical_graph(g)) == s


def test_every_labeled_graph_has_a_representative():
    pairs = list(combinations(range(4), 2))
    keys = {canonical_key(g) for g in graph_family(4, min_n=4)}
    for mask in range(1 << 6):
        g = Graph(4, (pairs[i] for i in range(6) if (mask >> i) & 1))
        assert canonical_key(g) in keys


def test_enumerate_graphs_filters():
    fam = enumerate_graphs(4, min_n=2, require_edge=True)
    assert all(isinstance(s, str) for s in fam)
    graphs = [graph_from_graph6(s) for s in fam]
    assert all(g.edges for g in graphs)
    assert all(2 <= g.n <= 4 for g in graphs)
    assert len(fam) == (2 - 1) + (4 - 1) + (11 - 1)


def test_family_bytes_are_pinned():
    # the list a --max-n 7 family cache entry stores; canonical forms and their
    # order decide it, so a change to either shows here
    family = enumerate_graphs(7, require_edge=True)
    assert len(family) == 1245
    assert _sha256(family) == "4759b9e23562d9f1509cc41fde92e6456d40050c813f609a1918fc25a9a18fe4"


def test_family_digest_table_matches_enumeration(classes8):
    # a cached --max-n family is trusted only when it hashes to this table
    assert len(enumeration.FAMILY_SHA256) == len(CLASS_COUNTS)
    for n in range(len(CLASS_COUNTS) - 1):
        assert enumeration.FAMILY_SHA256[n] == _sha256(enumerate_graphs(n, require_edge=True)), n
    # n = 8 from the session's one enumeration, with edgeless and empty graphs dropped
    family8 = [s for s in classes8 if _order(s) >= 1 and s[1:].strip("?")]
    assert enumeration.FAMILY_SHA256[8] == _sha256(family8)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_graphs(9)


def test_only_max_degree_augmentations_are_canonicalised(monkeypatch):
    # canonicalising every augmentation takes 11,291 row searches for n <= 7
    search = enumeration._canonical_rows
    calls = []

    def counted(n, masks):
        calls.append(n)
        return search(n, masks)

    monkeypatch.setattr(enumeration, "_canonical_rows", counted)
    assert len(enumerate_graphs(7, min_n=7)) == COUNTS[7]
    assert len(calls) <= 3132


def test_enumeration_builds_no_graph(monkeypatch):
    # a family is enumerated on canonical rows and returned as graph6, so the
    # list the cache stores never passes through a Graph
    init = Graph.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    family = enumerate_graphs(7, require_edge=True)
    assert built == []
    assert isinstance(family, list) and len(family) == 1245
    assert all(type(s) is str for s in family)
    # the count sees a Graph when one is built
    Graph(2, [(0, 1)])
    assert built == [(2, [(0, 1)])]
