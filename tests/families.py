"""Graph families for the tests, as `Graph`s decoded from the graph6 strings of `enumerate_graphs`.

The package enumerates families as graph6 and keeps no `Graph` of them; each call here
enumerates again, so a test module that reads a family often holds it in a fixture."""

from edgeideals.enumeration import enumerate_graphs
from edgeideals.graph6 import graph_from_graph6


def graph_family(max_n: int, min_n: int = 1, require_edge: bool = False) -> list:
    """The classes of `enumerate_graphs(max_n, min_n, require_edge)`, in its order, as `Graph`s."""
    return [graph_from_graph6(s) for s in enumerate_graphs(max_n, min_n, require_edge)]
