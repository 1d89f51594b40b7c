"""Reference face gather: the Betti face loop's former per-point index list.

`resolutions._face_bitmaps` reads each complex's faces through one cached
`itemgetter` per support shape, applied from the lowest corner of the point's
face cube; this is the loop it replaced, which builds the 2^s indices of every
lattice point by doubling from m itself and reverses them.  Both must give the
same face bitmaps, because every Betti number is read off them.  Like the engine,
it skips the minimal generators, whose complex is {empty face}, and the cones.
"""

from itertools import compress
from operator import itemgetter, mul

from edgeideals.resolutions import _SET, _membership_table, lcm_lattice


def doubling_face_bitmaps(ideal, caps) -> list:
    """(exponents of m, face bitmap) for each lattice point m that the engine does not skip
    as a minimal generator or a cone."""
    lattice = lcm_lattice(ideal, caps)
    table, cones, strides = _membership_table(ideal, lattice[-1], caps)
    down = [-s for s in strides]
    out = []
    for exps in lattice:
        # idx[f] lowers m by one in every support variable of the subset f
        idx = [sum(map(mul, exps, strides))]
        if exps in ideal.gens or (cones and cones[idx[0]] == _SET):
            continue
        for step in compress(down, exps):
            idx += [i + step for i in idx]
        idx.reverse()
        out.append((exps, int(bytes(itemgetter(*idx)(table)), 2)))
    return out
