"""The exponent box below a top, with its point sets as bitsets: shared by `monomials`
(intersections) and `resolutions` (lattice, membership table, cones), and importing neither."""

import math
from functools import reduce
from itertools import compress, product
from operator import mul, or_

# the one box-size limit: a caller with a box of more points takes a path without bitsets
BOX_MAX = 1 << 21


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

    def points(self, exps) -> int:
        """The bitset of the given exponent tuples."""
        return sum(1 << sum(map(mul, e, self.strides)) for e in exps)

    def exponents(self, bits: int) -> list:
        """The exponent tuples of bits, in increasing point index (lexicographic) order."""
        points = product(*(range(t + 1) for t in self.top))
        return list(compress(points, self.flags(bits).replace(b"0", b"\0")))

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
