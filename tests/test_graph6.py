"""graph6 codec against networkx and against itself (round trips)."""

import random
from itertools import combinations

import networkx as nx
import pytest

from edgeideals.graph6 import graph_from_graph6, graph_to_graph6, iter_graph6
from edgeideals.graphs import Graph, complete, cycle, path


def random_graph(rnd, n, p=0.4):
    return Graph(n, (e for e in combinations(range(n), 2) if rnd.random() < p))


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_known_small_strings_match_networkx():
    for g in [Graph(2, [(0, 1)]), cycle(4), cycle(5), path(3), complete(5), Graph(3)]:
        expect = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert graph_to_graph6(g) == expect


def test_round_trip_small_exhaustive():
    pairs = list(combinations(range(4), 2))
    for mask in range(1 << 6):
        g = Graph(4, (pairs[i] for i in range(6) if (mask >> i) & 1))
        assert graph_from_graph6(graph_to_graph6(g)) == g


def test_round_trip_random_up_to_62():
    rnd = random.Random(99)
    for n in [1, 2, 7, 13, 30, 62]:
        g = random_graph(rnd, n, 0.2)
        s = graph_to_graph6(g)
        assert graph_from_graph6(s) == g
        back = nx.from_graph6_bytes(s.encode())
        assert set(map(frozenset, back.edges())) == set(map(frozenset, g.edges))


def test_header_and_stream_handling():
    g = cycle(5)
    s = graph_to_graph6(g)
    assert graph_from_graph6(">>graph6<<" + s) == g
    graphs = iter_graph6([">>graph6<<", "", s, graph_to_graph6(path(3))])
    assert list(graphs) == [g, path(3)]
    # lines are decoded one at a time, as they are read
    lines = iter([s, "not graph6"])
    graphs = iter_graph6(lines)
    assert next(graphs) == g and next(lines) == "not graph6"


def test_invalid_inputs():
    with pytest.raises(ValueError):
        graph_from_graph6("")
    with pytest.raises(ValueError):
        graph_from_graph6("D")  # truncated data
    with pytest.raises(ValueError):
        graph_to_graph6(Graph(63))
