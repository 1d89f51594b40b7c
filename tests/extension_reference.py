"""Reference for `verification.enumerate_im_reg_extensions`: the im/reg invariance of one
one-vertex extension, computed on the two labelled graphs with no store and no class keys."""

from edgeideals.graphs import Graph, induced_matching_number, induced_subgraph
from edgeideals.linalg import RATIONALS, Field
from edgeideals.monomials import edge_ideal
from edgeideals.resolutions import DEFAULT_CAPS, EngineCaps, regularity


def is_im_reg_invariant_extension(
    g: Graph,
    ext: Graph,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> bool:
    """True when ext adds one vertex to g preserving both im and regularity."""
    if ext.n != g.n + 1:
        raise ValueError("extension must have exactly one more vertex")
    if induced_subgraph(ext, range(g.n)) != g:
        raise ValueError("extension does not restrict to the original graph")
    if not g.edges:
        raise ValueError("needs a graph with at least one edge")
    if induced_matching_number(ext) != induced_matching_number(g):
        return False
    return regularity(edge_ideal(ext), field, caps) == regularity(edge_ideal(g), field, caps)
