"""Exhaustive graph-family generation up to isomorphism, desk scale (n <= 8).

Graphs are grown one vertex at a time: every isomorphism class on n vertices
arises from some class on n-1 vertices by attaching a new vertex with an
arbitrary (possibly empty) neighborhood, so augmenting all classes with all
2^(n-1) neighborhoods and deduplicating by canonical key is exhaustive.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, canonical_key, graph_from_key


@lru_cache(maxsize=None)
def graphs_on(n: int) -> tuple:
    """All isomorphism classes on exactly n vertices, as canonical representatives."""
    if n > 8:
        raise ValueError("exhaustive enumeration is desk scale only (n <= 8)")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n == 0:
        return (Graph(0),)
    keys = set()
    for base in graphs_on(n - 1):
        edges = set(base.edges)
        for mask in range(1 << (n - 1)):
            extra = [(v, n - 1) for v in range(n - 1) if (mask >> v) & 1]
            keys.add(canonical_key(Graph(n, edges | set(extra))))
    return tuple(graph_from_key(k) for k in sorted(keys))


def enumerate_graphs(max_n: int, min_n: int = 1, require_edge: bool = False) -> list:
    """Isomorphism classes with min_n <= n <= max_n, optionally edgeless excluded."""
    out = []
    for n in range(min_n, max_n + 1):
        for g in graphs_on(n):
            if require_edge and not g.edges:
                continue
            out.append(g)
    return out
