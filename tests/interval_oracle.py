"""Reference Betti tables from order complexes of open lcm-lattice intervals.

The multigraded Betti number of the ideal at (i, m), with i = 0 for the
generators, is the rank of reduced homology in dimension i - 1 of the order
complex of the open interval (1, m) of the lcm lattice
(Gasharov-Peeva-Welker 1999).  The engine reads the same numbers off
membership complexes instead, so agreement between the two is a real check.
"""

from operator import le

from edgeideals.complexes import CapExceeded, mask_homology_ranks
from edgeideals.linalg import RATIONALS, Field
from edgeideals.monomials import MonomialIdeal
from edgeideals.resolutions import (
    DEFAULT_CAPS,
    BettiTable,
    EngineCaps,
    _guard_proper,
    lcm_lattice,
)


def order_complex(items, strictly_below, max_faces: int) -> list:
    """Order complex of a finite poset: every chain as a bitmask, bit i for items[i].

    `strictly_below(a, b)` must implement a strict partial order on the items.
    Raises CapExceeded when more than max_faces chains would be materialized.
    """
    k = len(items)
    above = [
        [j for j in range(k) if i != j and strictly_below(items[i], items[j])]
        for i in range(k)
    ]
    faces = {0}
    stack = [(1 << i, i) for i in range(k)]
    while stack:
        chain, last = stack.pop()
        faces.add(chain)
        if len(faces) > max_faces:
            raise CapExceeded("order_faces_max", max_faces, len(faces))
        for j in above[last]:
            stack.append((chain | (1 << j), j))
    return sorted(faces)


def interval_betti_oracle(
    ideal: MonomialIdeal,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> BettiTable:
    """Homology of the order complexes of open lcm-lattice intervals.

    Materializes every chain of each open interval, so it is only usable on
    small ideals; the face cap applies per interval.
    """
    _guard_proper(ideal, "the Betti table")
    multi: dict = {}
    elements = list(lcm_lattice(ideal, caps))

    def strictly_below(a, b):
        return a != b and all(map(le, a, b))

    for m in elements:
        interval = [p for p in elements if strictly_below(p, m)]
        chains = order_complex(interval, strictly_below, caps.order_faces_max)
        # a chain of c elements is a face of dimension c - 1: homological index c
        for i, r in mask_homology_ranks(chains, field).items():
            multi[(i, m)] = r
    return BettiTable(field.token(), multi)
