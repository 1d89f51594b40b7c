"""Small pattern graphs and a reference search for induced patterns: the canonical key of
every induced subgraph of the pattern's size, compared with the pattern's."""

from itertools import combinations

from edgeideals.graphs import Graph, canonical_key, induced_subgraph


def cricket() -> Graph:
    """Vertex 0 joined to 1, 2, 3, 4 plus the extra edge {3, 4}."""
    return Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)])


def claw() -> Graph:
    """Star with center 0 and leaves 1, 2, 3."""
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


def has_induced_subgraph(g: Graph, pattern: Graph) -> bool:
    """True when some vertex subset of g induces a graph isomorphic to the pattern."""
    key = canonical_key(pattern)
    return any(
        canonical_key(induced_subgraph(g, sub)) == key for sub in combinations(range(g.n), pattern.n)
    )
