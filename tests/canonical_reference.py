"""Reference canonical forms: the engine's former WL refinement and row search,
and a brute-force form of rooted graphs.

`graphs._wl_colors` and `graphs._canonical_rows` now keep neighbour lists and
candidate rows incrementally; these are the versions they replaced, which
recompute every degree and row from the adjacency masks.  Both must give
bit-identical keys, because enumeration order, cache keys and graph6 output
follow from them.  `reference_rooted_form` tries every vertex order that puts
the root first, so two rooted graphs have the same form iff some isomorphism
maps one root onto the other.
"""

from itertools import permutations

from edgeideals.graphs import Graph


def _wl_colors(g: Graph):
    # iterated neighborhood-multiset refinement; invariant under isomorphism
    n = g.n
    color = [len(g.neighbors(v)) for v in range(n)]
    while True:
        sig = [
            (color[v], tuple(sorted(color[u] for u in range(n) if (g._masks[v] >> u) & 1)))
            for v in range(n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[sig[v]] for v in range(n)]
        if new == color:
            return color
        color = new


def _canonical_rows(g: Graph):
    """Lexicographically smallest adjacency-row encoding over color-respecting orders."""
    n = g.n
    if n == 0:
        return ()
    colors = _wl_colors(g)
    slots = sorted(colors)
    pools = {}
    for v in range(n):
        pools.setdefault(colors[v], []).append(v)
    masks = g._masks
    placed = []
    rows = [0] * n
    used = [False] * n

    # greedy first completion gives the initial bound
    best = None
    for p in range(n):
        cand = None
        cand_r = None
        for v in pools[slots[p]]:
            if used[v]:
                continue
            m = masks[v]
            r = 0
            for k in range(p):
                if (m >> placed[k]) & 1:
                    r |= 1 << k
            if cand is None or r < cand_r:
                cand, cand_r = v, r
        used[cand] = True
        placed.append(cand)
        rows[p] = cand_r
    best = rows[:]
    for v in placed:
        used[v] = False
    placed.clear()

    # equal_prefix: rows[:p] equals best[:p]; otherwise rows[:p] is smaller
    def rec(p, equal_prefix):
        nonlocal best
        if p == n:
            if not equal_prefix:
                best = rows[:]
            return
        for v in pools[slots[p]]:
            if used[v]:
                continue
            m = masks[v]
            r = 0
            for k in range(p):
                if (m >> placed[k]) & 1:
                    r |= 1 << k
            if equal_prefix:
                if r > best[p]:
                    continue
                child_equal = r == best[p]
            else:
                child_equal = False
            used[v] = True
            placed.append(v)
            rows[p] = r
            before = best
            rec(p + 1, child_equal)
            placed.pop()
            used[v] = False
            if best is not before:
                # a leaf below replaced best, and it shares rows[:p]
                equal_prefix = True

    rec(0, True)
    return tuple(best)


def reference_canonical_key(g: Graph):
    return (g.n, _canonical_rows(g))


def reference_rooted_form(g: Graph, root: int):
    """The least sorted edge list of g over the vertex orders that place root first."""
    rest = [v for v in range(g.n) if v != root]
    best = None
    for order in permutations(rest):
        pos = dict(zip((root, *order), range(g.n)))
        form = sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges)
        if best is None or form < best:
            best = form
    return (g.n, tuple(best))
