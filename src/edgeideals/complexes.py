"""Simplicial complexes with exact reduced homology, and order complexes of posets.

Conventions: the void complex (no faces at all) has zero homology everywhere;
the empty complex (only the empty face) has reduced homology of rank 1 in
dimension -1.  These two are distinct values.
"""

from __future__ import annotations

from itertools import combinations

from .linalg import Field, unit_pivot_rank


class CapExceeded(RuntimeError):
    """An engine guardrail was hit; carries the cap name and the configured limit."""

    def __init__(self, cap: str, limit: int, size=None):
        self.cap = cap
        self.limit = limit
        self.size = size
        extra = f", reached {size}" if size is not None else ""
        super().__init__(f"cap {cap} exceeded (limit {limit}{extra})")


class SimplicialComplex:
    """Abstract simplicial complex stored as the full set of faces.

    Faces are frozensets of integer vertices.  A nonvoid complex always
    contains the empty face.
    """

    __slots__ = ("faces",)

    def __init__(self, faces, validate: bool = True):
        fs = frozenset(frozenset(f) for f in faces)
        if validate:
            for f in fs:
                for v in f:
                    if f - {v} not in fs:
                        raise ValueError(f"face set is not downward closed at {set(f)}")
        self.faces = fs

    @classmethod
    def void(cls) -> "SimplicialComplex":
        return cls((), validate=False)

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        return cls([frozenset()], validate=False)

    @classmethod
    def from_facets(cls, facets) -> "SimplicialComplex":
        faces = set()
        for facet in facets:
            fv = tuple(sorted(set(facet)))
            for size in range(len(fv) + 1):
                faces.update(frozenset(c) for c in combinations(fv, size))
        return cls(faces, validate=False)

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def is_empty_complex(self) -> bool:
        return self.faces == frozenset([frozenset()])

    @property
    def dim(self):
        if self.is_void:
            return None
        return max(len(f) for f in self.faces) - 1

    @property
    def vertices(self) -> frozenset:
        out = set()
        for f in self.faces:
            out.update(f)
        return frozenset(out)

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.faces == other.faces

    def __hash__(self):
        return hash(self.faces)

    def __repr__(self):
        return f"SimplicialComplex({len(self.faces)} faces, dim={self.dim})"


def order_complex(items, strictly_below, max_faces: int) -> SimplicialComplex:
    """Order complex of a finite poset: one vertex per item, faces are chains.

    `strictly_below(a, b)` must implement a strict partial order on the items.
    Raises CapExceeded when more than max_faces chains would be materialized.
    """
    k = len(items)
    above = [
        [j for j in range(k) if i != j and strictly_below(items[i], items[j])]
        for i in range(k)
    ]
    faces = {frozenset()}
    stack = [((i,), i) for i in range(k)]
    while stack:
        chain, last = stack.pop()
        faces.add(frozenset(chain))
        if len(faces) > max_faces:
            raise CapExceeded("order_complex_faces", max_faces)
        for j in above[last]:
            stack.append((chain + (j,), j))
    return SimplicialComplex(faces, validate=False)


def mask_homology_ranks(face_masks, field: Field) -> dict:
    """Reduced homology ranks of a complex whose faces are vertex bitmasks.

    Returns {cardinality c: rank of reduced homology in dimension c-1},
    omitting zero ranks.  Detects cones early (all ranks vanish).
    """
    faces = set(face_masks)
    if not faces:
        return {}
    support = 0
    for f in faces:
        support |= f
    # cone shortcut: an apex vertex contained in a coface of every face
    v = support
    while v:
        bit = v & -v
        v ^= bit
        if all((f | bit) in faces for f in faces):
            return {}
    by_card = {}
    for f in faces:
        by_card.setdefault(bin(f).count("1"), []).append(f)
    for lst in by_card.values():
        lst.sort()
    cards = sorted(by_card)
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


def reduced_homology_ranks(cx: SimplicialComplex, field: Field) -> dict:
    """Ranks of reduced simplicial homology, keyed by dimension.

    Void complex: {}.  Empty complex: {-1: 1}.
    """
    if cx.is_void:
        return {}
    verts = sorted(cx.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    masks = []
    for f in cx.faces:
        m = 0
        for v in f:
            m |= 1 << pos[v]
        masks.append(m)
    by_card = mask_homology_ranks(masks, field)
    return {c - 1: r for c, r in by_card.items()}
