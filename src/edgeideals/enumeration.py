"""Exhaustive graph-family generation up to isomorphism, desk scale (n <= 8).

Graphs are grown one vertex at a time, and only the deletion half of canonical
augmentation (McKay, Isomorph-free exhaustive generation, J. Algorithms 1998)
is used: attaching a new vertex with some neighbourhood to each class on n-1
vertices, canonicalise the child only when the new vertex has maximum degree
in it.  This is exhaustive.  A class H on n vertices has a vertex v of maximum
degree, and H - v is isomorphic to some class B on n-1 vertices; attaching to
B the image of N(v) gives a copy of H whose new vertex has maximum degree.
Deduplicating the children by canonical key then leaves each class once.

A level is the sorted canonical rows (`graphs._canonical_rows`) of its classes;
only level n-1 is kept to build level n, and no `Graph` is made.  Row j holds
the neighbours of j below j, the bits graph6 reads for column j.
"""

from __future__ import annotations

from .graph6 import graph6_from_rows
from .graphs import _canonical_rows

# isomorphism classes of simple graphs on n = 0..8 vertices (OEIS A000088)
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)

# FAMILY_SHA256[n]: sha256 of the newline-joined graph6 strings of
# enumerate_graphs(n, require_edge=True), the list a --max-n n family stores
FAMILY_SHA256 = (
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    "f6355334720d0b5c929066887e6d1cbe73584ebc31c88e4f53611bf270d9e50b",
    "054023c6cbb45e6a2069ca517263f613b6f0dc41999a943adbb41956e2a99eb9",
    "c87c250821ec5e3e917beee33c9a7cf1021188ad8f3976a39ac141672b6d0ff7",
    "127b1e94666c1b10f72d1e5ca7d8d7a8a20674ecbe7abef0c6b230d28d57fac2",
    "4759b9e23562d9f1509cc41fde92e6456d40050c813f609a1918fc25a9a18fe4",
    "314572e34170fb2a043b8b30ba9be7649e78ee00833c7ff7e4b79787791c2c2e",
)


def _next_level(n: int, level: list) -> list:
    """Sorted canonical rows of the classes on n vertices, from those on n - 1."""
    top = 1 << (n - 1)
    keys = set()
    for rows in level:
        # the base's neighbour masks: its neighbours below p, then those above
        masks = [r | sum(1 << q for q in range(p + 1, n - 1) if (rows[q] >> p) & 1) for p, r in enumerate(rows)]
        deg = [m.bit_count() for m in masks]
        max_deg = max(deg, default=0)
        # at_least[d]: the base vertices of degree at least d
        at_least = [sum(1 << v for v, dv in enumerate(deg) if dv >= d) for d in range(n)]
        for mask in range(top):
            # the new vertex has degree d; with d >= max_deg an old vertex
            # outdoes it only if it has degree d and is joined to it
            d = mask.bit_count()
            if d < max_deg or mask & at_least[d]:
                continue
            child = [m | top if (mask >> v) & 1 else m for v, m in enumerate(masks)]
            child.append(mask)
            keys.add(_canonical_rows(n, child))
    return sorted(keys)


def enumerate_graphs(max_n: int, min_n: int = 1, require_edge: bool = False) -> list:
    """graph6 strings of the isomorphism classes with min_n <= n <= max_n, optionally edgeless
    excluded: by n, and within one n in the order of their canonical rows."""
    if max_n >= len(CLASS_COUNTS):
        raise ValueError("exhaustive enumeration is desk scale only (n <= 8)")
    out = []
    level = [()]
    for n in range(max_n + 1):
        if n:
            level = _next_level(n, level)
        if n >= min_n:
            out.extend(graph6_from_rows(n, rows) for rows in level if any(rows) or not require_edge)
    return out
