"""Reference homology with one dense boundary matrix per cardinality.

`dense_mask_homology_ranks` is the engine's former rank loop, kept as the
reference for the sparse unit-pivot reduction in
`complexes.mask_homology_ranks`.  `dense_taylor_betti_oracle` is the former
Taylor oracle, kept as the reference for `resolutions.taylor_betti_oracle`.
"""

from edgeideals.complexes import CapExceeded
from edgeideals.linalg import RATIONALS, Field
from edgeideals.monomials import MonomialIdeal, grlex_key
from edgeideals.resolutions import DEFAULT_CAPS, BettiTable, EngineCaps, _guard_proper


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


def dense_taylor_betti_oracle(
    ideal: MonomialIdeal,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> BettiTable:
    """Reference Betti table: homology of each multigraded strand of the Taylor complex,
    one dense boundary matrix per strand and cardinality.

    The strand at m is the chain complex of the generator subsets whose lcm is m,
    ranked directly rather than through the lower complex that
    `taylor_betti_oracle` ranks.  Only usable on small ideals.
    """
    _guard_proper(ideal, "the Betti table")
    atoms = sorted(ideal.gens, key=grlex_key, reverse=True)
    g = len(atoms)
    if g > caps.taylor_max_generators:
        raise CapExceeded("taylor_max_generators", caps.taylor_max_generators, g)
    nmask = 1 << g
    lcms = [None] * nmask
    lcms[0] = (0,) * ideal.nvars
    for mask in range(1, nmask):
        low = mask & -mask
        rest = mask ^ low
        a = atoms[low.bit_length() - 1]
        lcms[mask] = a if not rest else tuple(map(max, lcms[rest], a))
    strands: dict = {}
    for mask in range(1, nmask):
        strands.setdefault(lcms[mask], {}).setdefault(bin(mask).count("1"), []).append(mask)
    multi: dict = {}
    for mexps, by_card in strands.items():
        for lst in by_card.values():
            lst.sort()
        # boundary within the strand: drop a generator only if the lcm is unchanged
        bd_rank = {}
        for c, cols in by_card.items():
            rows = by_card.get(c - 1)
            if not rows:
                bd_rank[c] = 0
                continue
            ridx = {f: i for i, f in enumerate(rows)}
            mat = [[0] * len(cols) for _ in rows]
            for col, mask in enumerate(cols):
                sign = 1
                rest = mask
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    child = mask ^ bit
                    if lcms[child] == mexps:
                        mat[ridx[child]][col] = sign
                    sign = -sign
            bd_rank[c] = field.matrix_rank(mat)
        for c, lst in by_card.items():
            h = len(lst) - bd_rank.get(c, 0) - bd_rank.get(c + 1, 0)
            if h:
                multi[(c - 1, mexps)] = h
    return BettiTable(field.token(), multi)
