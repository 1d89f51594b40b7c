"""The exponent box below a top, with its point sets as bitsets: shared by `monomials`
(products and intersections) and `resolutions` (lattice, membership table, cones), and
importing neither."""

import math
import re
from functools import reduce
from itertools import compress, product, repeat
from operator import floordiv, mod, mul, or_

# the one box-size limit: a caller with a box of more points takes a path without bitsets
BOX_MAX = 1 << 21
# A product or intersection of two ideals costs about its box size in bit operations on the
# box path and about its count of generator pairs in tuple operations on the pairwise path;
# the box is taken up to this many points per pair (the crossover measured in CHANGES.md)
BOX_PER_PAIR = 800
# decoding one set point costs about this many box points of a one-pass read-off, per axis
SPARSE_POINTS = 6
_SET = re.compile(b"1")


def _strides(top: tuple) -> list:
    """`_Box.strides` of the box below top, without building the box's bitsets."""
    return [math.prod(t + 1 for t in top[i + 1 :]) for i in range(len(top))]


class _Box:
    """The exponent box below top, whose subsets are bitsets in one Python int.

    Bit sum(e_i * strides[i]) stands for the exponent tuple e, x0 varying
    slowest, so increasing bit index is lexicographic order of exponent tuples:
    a linear extension of divisibility.
    """

    __slots__ = ("top", "size", "strides", "below")

    def __init__(self, top: tuple, size: int):
        self.top = top
        self.size = size
        self.strides = strides = _strides(top)
        # below[i]: the points whose exponent of x_i is below top[i], which can
        # still move up along axis i; one period of the pattern, doubled
        self.below = []
        for s, t in zip(strides, top):
            bits, width = (1 << (s * t)) - 1, s * (t + 1)
            while width < size:
                bits |= bits << width
                width *= 2
            self.below.append(bits & ((1 << size) - 1))

    @classmethod
    def fitting(cls, top: tuple, limit: int = BOX_MAX) -> "_Box | None":
        """The box below top, or None when it has more than limit points."""
        size = math.prod(t + 1 for t in top)
        return cls(top, size) if size <= limit else None

    @classmethod
    def for_pairs(cls, top: tuple, pairs: int) -> "_Box | None":
        """The box below top for a product or intersection of two ideals with pairs pairs of
        generators, or None when their pairwise path is the faster one (more than
        BOX_PER_PAIR points a pair) or the box has more than BOX_MAX points."""
        return cls.fitting(top, min(BOX_MAX, BOX_PER_PAIR * pairs))

    def points(self, exps) -> int:
        """The bitset of the given exponent tuples, set bit by bit in one buffer: a sum of
        single-bit ints would cost the box size per tuple."""
        buf, strides = bytearray((self.size + 7) >> 3), self.strides
        for e in exps:
            i = sum(map(mul, e, strides))
            buf[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buf, "little")

    def sums(self, exps, shifts) -> int:
        """The bitset of the sums u + v, u in exps and v in shifts, all of which lie in the box:
        point indices add, so it is the OR of the points of exps shifted by each v's index."""
        bits, strides = self.points(exps), self.strides
        return reduce(or_, (bits << sum(map(mul, v, strides)) for v in shifts), 0)

    def exponents(self, bits: int) -> list:
        """The exponent tuples of bits, in increasing point index (lexicographic) order.

        A sparse set (more than SPARSE_POINTS box points per set point and axis) is decoded
        point by point, a dense one or a box without axes read off in one pass over all the
        box's points."""
        flags = self.flags(bits)
        if self.top and bits.bit_count() * len(self.top) * SPARSE_POINTS < self.size:
            found = [m.start() for m in _SET.finditer(flags)]
            axes = zip(self.strides, self.top)
            return list(zip(*(map(mod, map(floordiv, found, repeat(s)), repeat(t + 1)) for s, t in axes)))
        points = product(*(range(t + 1) for t in self.top))
        return list(compress(points, flags.replace(b"0", b"\0")))

    def up(self, bits: int, axes) -> int:
        """The upward closure of bits along the given axes."""
        for i in axes:
            below, step = self.below[i], self.strides[i]
            for _ in range(self.top[i]):
                bits |= (bits & below) << step
        return bits

    def minimal(self, bits: int) -> int:
        """The points of bits with none of bits one step below along any axis (its minimal ones)."""
        lifted = ((bits & below) << step for below, step in zip(self.below, self.strides))
        return bits & ~reduce(or_, lifted, 0)

    def flags(self, bits: int) -> bytes:
        """ASCII b"0"/b"1" per point, indexed by point index."""
        return format(bits, f"0{self.size}b")[::-1].encode()


def _up_all_but_one(box: _Box, bits: int, axes: list) -> list:
    """(i, closure of bits along every axis but i) for each i in axes, by halving."""
    if len(axes) == 1:
        return [(axes[0], bits)]
    a, b = axes[: len(axes) // 2], axes[len(axes) // 2 :]
    return _up_all_but_one(box, box.up(bits, b), a) + _up_all_but_one(box, box.up(bits, a), b)
