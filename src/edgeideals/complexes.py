"""Exact reduced homology of simplicial complexes given as vertex bitmasks.

A complex is its set of faces, each face an int whose bit i marks vertex i.
Conventions: the void complex (no faces at all) has zero homology everywhere;
the empty complex (only the empty face, 0) has reduced homology of rank 1 in
dimension -1.  These two are distinct values.
"""

from __future__ import annotations

from .linalg import Field, unit_pivot_rank


class CapExceeded(RuntimeError):
    """An engine guardrail was hit; carries the cap name, its limit and the size reached."""

    def __init__(self, cap: str, limit: int, size: int):
        self.cap = cap
        self.limit = limit
        self.size = size
        super().__init__(f"cap {cap} exceeded (limit {limit}, reached {size})")


def mask_homology_ranks(face_masks, field: Field) -> dict:
    """Reduced homology ranks of a complex whose faces are vertex bitmasks.

    Returns {cardinality c: rank of reduced homology in dimension c-1},
    omitting zero ranks.
    """
    faces = set(face_masks)
    if not faces:
        return {}
    by_card = {}
    for f in faces:
        by_card.setdefault(bin(f).count("1"), []).append(f)
    cards = sorted(by_card)
    for lst in by_card.values():
        lst.sort()
    # rank of the boundary map from cardinality c to c-1, reduced from the top
    # down; a face that is a pivot row of the map above it is cleared, since
    # its column adds nothing to the rank (Chen-Kerber clearing)
    bd_rank = {}
    cleared = ()
    for c in reversed(cards):
        if c == 0 or (c - 1) not in by_card:
            bd_rank[c] = 0
            cleared = ()
            continue
        columns = []
        for f in by_card[c]:
            if f in cleared:
                continue
            col = {}
            sign = 1
            rest = f
            while rest:
                bit = rest & -rest
                rest ^= bit
                col[f ^ bit] = sign
                sign = -sign
            columns.append(col)
        bd_rank[c], cleared = unit_pivot_rank(columns, field)
    out = {}
    for c in cards:
        h = len(by_card[c]) - bd_rank.get(c, 0) - bd_rank.get(c + 1, 0)
        if h:
            out[c] = h
    return out
