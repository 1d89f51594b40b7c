"""Finite simple graphs: invariants, recognizers and one-vertex constructions.

Vertices are dense integers 0..n-1, and vertex or edge sets are bitmasks.
Graphs are immutable values and every operation returns a fresh Graph.  The
exponential invariants are exact and meant for desk-scale inputs, roughly
n <= 10: both matching numbers run one branch and bound over edge masks,
independent sets and minimal vertex covers one enumeration of independent
vertex masks, and canonical forms a search over vertex orders.  Storage and
the graph6 codec go up to n = 62.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_


class Graph:
    """Immutable simple graph on vertex set {0, ..., n-1}."""

    __slots__ = ("n", "edges", "_masks")

    def __init__(self, n: int, edges=()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {tuple(e)!r} out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(norm)
        masks = [0] * n
        for u, v in norm:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._masks = tuple(masks)

    # -- basic views ------------------------------------------------------

    def neighbors(self, v: int) -> frozenset:
        """Neighborhood of v as a frozenset of vertices."""
        self._check_vertex(v)
        m = self._masks[v]
        return frozenset(u for u in range(self.n) if (m >> u) & 1)

    def _check_vertex(self, v) -> None:
        if not (isinstance(v, int) and 0 <= v < self.n):
            raise ValueError(f"invalid vertex {v!r} for n={self.n}")

    # -- value semantics --------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph({self.n}, {sorted(self.edges)})"


# -- builders ---------------------------------------------------------------


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def anticycle(n: int) -> Graph:
    """Complement of the cycle on n >= 3 vertices."""
    return complement(cycle(n))


def path(n: int) -> Graph:
    """Path on n >= 1 vertices (n - 1 edges)."""
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    """Complete graph on n >= 1 vertices."""
    if n < 1:
        raise ValueError("a complete graph needs at least 1 vertex")
    return Graph(n, combinations(range(n), 2))


def cricket() -> Graph:
    """Vertex 0 joined to 1, 2, 3, 4 plus the extra edge {3, 4}."""
    return Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)])


# -- elementary operations ----------------------------------------------------


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of g."""
    return Graph(
        g.n,
        (e for e in combinations(range(g.n), 2) if e not in g.edges),
    )


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph on the given vertex subset, re-indexed to 0..|W|-1.

    Vertices are relabeled in increasing order of their original index.
    """
    w = sorted(vertices)
    if len(w) != len(set(w)):
        raise ValueError("vertex subset contains duplicates")
    for v in w:
        g._check_vertex(v)
    pos = {v: i for i, v in enumerate(w)}
    keep = set(w)
    return Graph(
        len(w),
        ((pos[u], pos[v]) for u, v in g.edges if u in keep and v in keep),
    )


def is_independent_set(g: Graph, s) -> bool:
    """True when no edge of g has both endpoints in s."""
    ss = set(s)
    for v in ss:
        g._check_vertex(v)
    return not any(u in ss and v in ss for u, v in g.edges)


def is_vertex_cover(g: Graph, u) -> bool:
    """True when every edge of g meets u."""
    us = set(u)
    for v in us:
        g._check_vertex(v)
    return all(a in us or b in us for a, b in g.edges)


# -- matchings ---------------------------------------------------------------


def _largest_matching(g: Graph, induced: bool) -> int:
    """Most edges of g, pairwise without conflict (exact branch and bound).

    Chosen edges may not share a vertex; with `induced`, no edge may join two.
    Available edges touching t vertices add at most t // 2; that bound prunes.
    """
    edges = sorted(g.edges)
    # at[v]: the edges at vertex v, as a mask over positions in `edges`
    at = [0] * g.n
    for i, (u, v) in enumerate(edges):
        at[u] |= 1 << i
        at[v] |= 1 << i
    near = at
    if induced:
        # near[v]: the edges that meet a neighbour of v
        near = [reduce(or_, (at[w] for w in range(g.n) if (m >> w) & 1), 0) for m in g._masks]
    conflicts = [near[u] | near[v] for u, v in edges]
    return _most_edges(at, conflicts, (1 << len(edges)) - 1, 0, 0)


def _most_edges(at, conflicts, avail, size, best):
    """best, or more: size plus the most edges of the mask avail without conflict.  The masks
    of `_largest_matching` are passed down, not closed over, so no call leaves a reference cycle."""
    best = max(best, size)
    if size + sum(1 for m in at if m & avail) // 2 <= best:
        return best
    low = avail & -avail
    best = _most_edges(at, conflicts, avail & ~conflicts[low.bit_length() - 1], size + 1, best)
    return _most_edges(at, conflicts, avail ^ low, size, best)


def matching_number(g: Graph) -> int:
    """Maximum size of a set of pairwise disjoint edges."""
    return _largest_matching(g, induced=False)


def induced_matching_number(g: Graph) -> int:
    """Maximum size of an induced matching; raises on edgeless graphs."""
    if not g.edges:
        raise ValueError("induced matching number is undefined for an edgeless graph")
    return _largest_matching(g, induced=True)


def is_gap_free(g: Graph) -> bool:
    """True when the induced matching number equals 1."""
    return induced_matching_number(g) == 1


# -- chordality ----------------------------------------------------------------


def is_chordal(g: Graph) -> bool:
    """Chordality via maximum-cardinality search plus elimination-ordering check."""
    n = g.n
    if n <= 2:
        return True
    weights = [0] * n
    numbered = [False] * n
    order = []
    for _ in range(n):
        v = max(
            (w for w in range(n) if not numbered[w]),
            key=lambda w: (weights[w], -w),
        )
        numbered[v] = True
        order.append(v)
        for u in range(n):
            if not numbered[u] and (g._masks[v] >> u) & 1:
                weights[u] += 1
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # reversed MCS order is a perfect elimination ordering iff g is chordal:
    # for each v, its earlier-numbered neighbors must form a clique
    for v in range(n):
        earlier = [u for u in range(n) if (g._masks[v] >> u) & 1 and pos[u] < pos[v]]
        for a, b in combinations(earlier, 2):
            if not (g._masks[a] >> b) & 1:
                return False
    return True


# -- small induced patterns ------------------------------------------------------


def _wl_colors(nbrs: list, root=None):
    # iterated neighborhood-multiset refinement; invariant under isomorphism.  A root starts
    # in colour -1, the unique smallest, and so stays alone in the smallest colour
    color = [len(nb) for nb in nbrs]
    if root is not None:
        color[root] = -1
    while True:
        at = color.__getitem__
        sig = [(c, tuple(sorted(map(at, nb)))) for c, nb in zip(color, nbrs)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == color:
            return color
        color = new


def _canonical_rows(n: int, masks, root=None):
    """Lexicographically smallest adjacency-row encoding over color-respecting orders.

    The graph has vertices 0..n-1, and masks[v] is the neighbour mask of v.  A root, when
    given, has a colour of its own that sorts first, so every order places it at position 0.
    """
    if n == 0:
        return ()
    nbrs = [[u for u in range(n) if (m >> u) & 1] for m in masks]
    colors = _wl_colors(nbrs, root)
    # twin[v]: the least u with the same neighbours as v apart from u and v;
    # twinship is an equivalence relation, so twin[] names its classes
    twin = list(range(n))
    for v in range(n):
        for u in range(v):
            if masks[u] & ~(1 << v) == masks[v] & ~(1 << u):
                twin[v] = u
                break
    pools = {}
    for v in range(n):
        pools.setdefault(colors[v], []).append(v)
    # levels[p]: the vertices that may sit at position p, those of its colour
    levels = [pools[c] for c in sorted(colors)]
    # row[v] has bit k set when v is adjacent to the vertex placed at position k;
    # placing a vertex at p sets bit p in its neighbours' rows, backtracking clears it
    row = [0] * n
    rows = [0] * n
    used = [False] * n

    # greedy first completion gives the initial bound
    for p, level in enumerate(levels):
        cand = None
        for v in level:
            if not used[v] and (cand is None or row[v] < row[cand]):
                cand = v
        used[cand] = True
        rows[p] = row[cand]
        for u in nbrs[cand]:
            row[u] |= 1 << p
    best = rows[:]
    state = (levels, nbrs, twin, [0] * n, rows, [False] * n)
    return tuple(_least_rows(state, 0, True, best))


def _least_rows(state, p, equal_prefix, best):
    """best, or a new list holding the least completion of rows[:p] below it.  equal_prefix:
    rows[:p] equals best[:p], else it is smaller.  state, (levels, nbrs, twin, row, rows, used)
    of `_canonical_rows`, is passed down, not closed over, so no call leaves a reference cycle."""
    levels, nbrs, twin, row, rows, used = state
    if p == len(levels):
        return best if equal_prefix else rows[:]
    bit = 1 << p
    tried = 0
    for v in levels[p]:
        if used[v]:
            continue
        # swapping v with a twin already tried here is an automorphism that
        # fixes every placed vertex, so v's subtree repeats the twin's leaves
        if (tried >> twin[v]) & 1:
            continue
        tried |= 1 << twin[v]
        r = row[v]
        if equal_prefix:
            if r > best[p]:
                continue
            child_equal = r == best[p]
        else:
            child_equal = False
        used[v] = True
        rows[p] = r
        for u in nbrs[v]:
            row[u] |= bit
        found = _least_rows(state, p + 1, child_equal, best)
        for u in nbrs[v]:
            row[u] ^= bit
        used[v] = False
        if found is not best:
            # a leaf below replaced best, and it shares rows[:p]
            best = found
            equal_prefix = True
    return best


def canonical_key(g: Graph, root=None):
    """Hashable isomorphism invariant: equal keys iff isomorphic graphs.

    With a root vertex r, the key is one of the rooted graph (g, r): equal keys iff some
    isomorphism maps one root onto the other.  Its representative `graph_from_key` has the
    root at vertex 0."""
    if root is not None:
        g._check_vertex(root)
    return (g.n, _canonical_rows(g.n, g._masks, root))


def canonical_graph(g: Graph) -> Graph:
    """Canonical representative of the isomorphism class of g."""
    return graph_from_key(canonical_key(g))


def graph_from_key(key) -> Graph:
    """The canonical representative whose `canonical_key` is key."""
    n, rows = key
    edges = []
    for p in range(n):
        r = rows[p]
        for k in range(p):
            if (r >> k) & 1:
                edges.append((k, p))
    return Graph(n, edges)


_CRICKET_KEY = canonical_key(cricket())


def _has_induced(g: Graph, size: int, key) -> bool:
    if g.n < size:
        return False
    return any(
        canonical_key(induced_subgraph(g, sub)) == key
        for sub in combinations(range(g.n), size)
    )


def has_induced_cricket(g: Graph) -> bool:
    """True when some 5 vertices induce the cricket pattern."""
    return _has_induced(g, 5, _CRICKET_KEY)


# -- constructions -----------------------------------------------------------------


def s_suspension(g: Graph, s) -> Graph:
    """Add one vertex z = n adjacent to every vertex outside the independent set s."""
    ss = frozenset(s)
    if not is_independent_set(g, ss):
        raise ValueError("suspension set must be independent")
    if len(ss) == g.n:
        raise ValueError("suspension over the whole vertex set would isolate the new vertex")
    z = g.n
    new_edges = set(g.edges)
    new_edges.update((v, z) for v in range(g.n) if v not in ss)
    return Graph(g.n + 1, new_edges)


def one_vertex_extensions(g: Graph):
    """All 2^n - 1 graphs adding one vertex z = n with a nonempty neighborhood in g."""
    if g.n > 10:
        raise ValueError("extension enumeration is desk scale only (n <= 10)")
    out = []
    for mask in range(1, 1 << g.n):
        extra = [(v, g.n) for v in range(g.n) if (mask >> v) & 1]
        out.append(Graph(g.n + 1, set(g.edges) | set(extra)))
    return out


def _independent_masks(g: Graph) -> list:
    """Vertex masks of all independent sets of g, built up one vertex at a time."""
    if g.n > 20:
        raise ValueError("independent-set enumeration is desk scale only (n <= 20)")
    out = [0]
    for v in range(g.n):
        # the sets so far lie below v: doubling adds v to those it is free to join
        out += [s | (1 << v) for s in out if not s & g._masks[v]]
    return out


def independent_sets(g: Graph):
    """All independent sets of g as sorted tuples, by size and then lexicographically."""
    sets = [tuple(v for v in range(g.n) if (s >> v) & 1) for s in _independent_masks(g)]
    return sorted(sets, key=lambda t: (len(t), t))


def minimal_vertex_covers(g: Graph):
    """All minimal vertex covers (complements of the maximal independent sets)."""
    n, masks = g.n, g._masks
    # an independent set is maximal when every vertex outside it has a neighbour inside
    maximal = [s for s in _independent_masks(g) if all((s >> v) & 1 or masks[v] & s for v in range(n))]
    return sorted(tuple(v for v in range(n) if not (s >> v) & 1) for s in maximal)
