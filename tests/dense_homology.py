"""Reference reduced homology: one dense boundary matrix per cardinality.

This is the engine's former rank loop, kept as the oracle for the sparse
unit-pivot reduction in `complexes.mask_homology_ranks`.  It has no cone
shortcut, so cones are checked against their matrices too.
"""

from edgeideals.linalg import Field


def dense_mask_homology_ranks(face_masks, field: Field) -> dict:
    """{cardinality c: rank of reduced homology in dimension c-1}, zero ranks omitted."""
    faces = set(face_masks)
    if not faces:
        return {}
    by_card = {}
    for f in faces:
        by_card.setdefault(bin(f).count("1"), []).append(f)
    for lst in by_card.values():
        lst.sort()
    cards = sorted(by_card)
    # rank of the boundary map from cardinality c to c-1
    bd_rank = {}
    for c in cards:
        if c == 0 or (c - 1) not in by_card:
            bd_rank[c] = 0
            continue
        rows_idx = {f: i for i, f in enumerate(by_card[c - 1])}
        cols = by_card[c]
        mat = [[0] * len(cols) for _ in rows_idx]
        for col, f in enumerate(cols):
            sign = 1
            rest = f
            while rest:
                bit = rest & -rest
                rest ^= bit
                mat[rows_idx[f ^ bit]][col] = sign
                sign = -sign
        bd_rank[c] = field.matrix_rank(mat)
    out = {}
    for c in cards:
        h = len(by_card[c]) - bd_rank.get(c, 0) - bd_rank.get(c + 1, 0)
        if h:
            out[c] = h
    return out
