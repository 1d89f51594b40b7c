"""Monomials and monomial ideals over a fixed ambient variable set x0..x_{d-1}.

A monomial is its exponent tuple, the one format that is parsed (`parse_monomial`),
printed (`monomial_str`) and computed on.  Ideals are stored by their minimal
generating set, a frozenset of exponent tuples.  The zero ideal has no
generators; the unit ideal is the singleton {(0, ..., 0)}.  All values are
immutable and all operations are pure.  `ideal_product` (and so
`ideal_power`) takes the minimal points of up(the sums of generators) in the
exponent box below top(a) + top(b), where each sum is the bitset of a's
generators shifted by the point index of one of b's; `intersect` those of
up(a) & up(b) in the box below both tops.  Both take the pairwise sums or lcms
instead when `box._Box.for_pairs` turns the box away: more than
`box.BOX_PER_PAIR` points per generator pair, or more than `box.BOX_MAX` points.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import reduce
from itertools import chain

from .box import _Box
from .graphs import Graph


def variable(nvars: int, i: int) -> tuple:
    """Exponent tuple of the variable x_i among nvars variables."""
    if not 0 <= i < nvars:
        raise ValueError(f"variable index {i} out of range for {nvars} variables")
    return tuple(1 if k == i else 0 for k in range(nvars))


def monomial_str(e: tuple) -> str:
    """The textual syntax of an exponent tuple, `x0^2*x3`; "1" for the unit."""
    return "*".join(f"x{i}" if v == 1 else f"x{i}^{v}" for i, v in enumerate(e) if v) or "1"


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_monomial(text: str, nvars: int) -> tuple:
    """Exponent tuple of the textual syntax `x0^2*x1`; "1" denotes the unit monomial."""
    s = text.replace(" ", "")
    if s == "1":
        return (0,) * nvars
    exps = [0] * nvars
    for factor in s.split("*"):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValueError(f"cannot parse monomial factor {factor!r}")
        i = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        if i >= nvars:
            raise ValueError(f"variable x{i} out of range for {nvars} variables")
        exps[i] += e
    return tuple(exps)


def grlex_key(e: tuple):
    """Sort key of an exponent tuple for the graded lexicographic order (descending when
    reversed)."""
    return (sum(e), e)


@dataclass(frozen=True, slots=True)
class MonomialIdeal:
    nvars: int
    gens: frozenset

    def __post_init__(self):
        # C-level passes: the box path builds ideals of many thousand generators
        if not {*map(len, self.gens)} <= {self.nvars}:
            raise ValueError("generator ambient does not match ideal ambient")
        if min(chain.from_iterable(self.gens), default=0) < 0:
            raise ValueError("exponents must be nonnegative")

    @classmethod
    def zero(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, frozenset())

    @classmethod
    def unit(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, frozenset([(0,) * nvars]))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return (0,) * self.nvars in self.gens

    def sorted_gens(self) -> list:
        """Minimal generators in descending graded lexicographic order."""
        return sorted(self.gens, key=grlex_key, reverse=True)

    def contains(self, m: tuple) -> bool:
        """Monomial membership: some minimal generator divides m."""
        if len(m) != self.nvars:
            raise ValueError("ambient mismatch between ideal and monomial")
        return any(all(map(operator.le, g, m)) for g in self.gens)

    def degrees(self) -> set:
        return set(map(sum, self.gens))

    def gen_strings(self) -> list:
        return [monomial_str(g) for g in self.sorted_gens()]

    def __repr__(self):
        if self.is_zero:
            return f"MonomialIdeal({self.nvars}, 0)"
        return f"MonomialIdeal({self.nvars}, ({', '.join(self.gen_strings())}))"


def minimalize(nvars: int, monomials) -> MonomialIdeal:
    """Ideal minimally generated by the given exponent tuples (drop divisible ones).

    Kept generator j is bit j of the per-variable threshold bitsets: for each exponent v of
    x_i among the candidates, le[i][v] holds the kept generators whose x_i exponent is at most
    v, so the AND over i of le[i][e_i] is the set of kept generators dividing e.  Candidates
    run in (degree, exponents) order, so a candidate is redundant iff that AND is nonzero.
    """
    pool = set()
    for m in monomials:
        e = tuple(map(operator.index, m))
        if e and min(e) < 0:
            raise ValueError("exponents must be nonnegative")
        if len(e) != nvars:
            raise ValueError("generator ambient does not match requested ambient")
        if not any(e):
            return MonomialIdeal.unit(nvars)
        pool.add(e)
    # keyed by the exponents that occur, so the bitsets stay few whatever the exponent size
    le = [dict.fromkeys(column, 0) for column in zip(*pool)]
    kept = []
    # sorting by exponents, then stably by degree, gives the (degree, exponents) order
    for e in sorted(sorted(pool), key=sum):
        if reduce(operator.and_, map(dict.__getitem__, le, e)):
            continue
        bit = 1 << len(kept)
        for row, v in zip(le, e):
            for w in row:
                if w >= v:
                    row[w] |= bit
        kept.append(e)
    return MonomialIdeal(nvars, frozenset(kept))


def parse_ideal(strings, nvars: int) -> MonomialIdeal:
    """The ideal generated by a list of monomial strings, such as a parsed JSON `--ideal`."""
    if not isinstance(strings, (list, tuple)) or not all(isinstance(s, str) for s in strings):
        raise ValueError(f"an ideal is a list of monomial strings, not {strings!r}")
    return minimalize(nvars, (parse_monomial(s, nvars) for s in strings))


def edge_ideal(g: Graph) -> MonomialIdeal:
    """Ideal generated by x_i*x_j over the edges of g; errors on edgeless graphs."""
    if not g.edges:
        raise ValueError("edge ideal of an edgeless graph is the zero ideal")
    gens = []
    for u, v in g.edges:
        exps = [0] * g.n
        exps[u] = exps[v] = 1
        gens.append(tuple(exps))
    return MonomialIdeal(g.n, frozenset(gens))


def variable_ideal(nvars: int, indices) -> MonomialIdeal:
    return minimalize(nvars, (variable(nvars, i) for i in indices))


def principal_ideal(m: tuple) -> MonomialIdeal:
    return minimalize(len(m), [m])


def _same_ambient(a: MonomialIdeal, b: MonomialIdeal) -> None:
    if a.nvars != b.nvars:
        raise ValueError(f"ambient mismatch: {a.nvars} vs {b.nvars} variables")


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _same_ambient(a, b)
    return minimalize(a.nvars, a.gens | b.gens)


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _same_ambient(a, b)
    if a.is_zero or b.is_zero:
        return MonomialIdeal.zero(a.nvars)
    ea, eb = list(a.gens), list(b.gens)
    if len(ea) < len(eb):  # the box path shifts a bitset once per generator of eb
        ea, eb = eb, ea
    top = tuple(map(operator.add, map(max, zip(*ea)), map(max, zip(*eb))))
    box = _Box.for_pairs(top, len(ea) * len(eb))
    if box is None:
        return minimalize(a.nvars, {tuple(map(operator.add, u, v)) for u in ea for v in eb})
    return _box_ideal(a.nvars, box, box.up(box.sums(ea, eb), range(a.nvars)))


def ideal_power(a: MonomialIdeal, k: int) -> MonomialIdeal:
    if k < 0:
        raise ValueError("negative powers are not defined")
    if k == 0:
        return MonomialIdeal.unit(a.nvars)
    out = a
    for _ in range(k - 1):
        out = ideal_product(out, a)
    return out


def colon(a: MonomialIdeal, m: tuple) -> MonomialIdeal:
    """Colon ideal (a : m); equals the unit ideal exactly when m lies in a."""
    if len(m) != a.nvars:
        raise ValueError("ambient mismatch between ideal and monomial")
    quots = (tuple(x - y if x > y else 0 for x, y in zip(g, m)) for g in a.gens)
    return minimalize(a.nvars, quots)


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _same_ambient(a, b)
    if a.is_zero or b.is_zero:
        return MonomialIdeal.zero(a.nvars)
    ea, eb = list(a.gens), list(b.gens)
    box = _Box.for_pairs(tuple(map(max, *ea, *eb)), len(ea) * len(eb))
    if box is None:
        return minimalize(a.nvars, {tuple(map(max, u, v)) for u in ea for v in eb})
    axes = range(a.nvars)
    return _box_ideal(a.nvars, box, box.up(box.points(ea), axes) & box.up(box.points(eb), axes))


def _box_ideal(nvars: int, box: _Box, upset: int) -> MonomialIdeal:
    """The ideal of the upward-closed point set upset of box, minimally generated by its
    minimal points."""
    return MonomialIdeal(nvars, frozenset(box.exponents(box.minimal(upset))))


def is_generated_by_variables(a: MonomialIdeal) -> bool:
    """True when every minimal generator has total degree 1 (zero/unit: False)."""
    if a.is_zero or a.is_unit:
        return False
    return a.degrees() == {1}


def generated_in_single_degree(a: MonomialIdeal):
    """Common degree of the minimal generators, or None when degrees are mixed."""
    if a.is_zero:
        raise ValueError("the zero ideal has no generation degree")
    ds = a.degrees()
    return ds.pop() if len(ds) == 1 else None


def embed(a: MonomialIdeal, nvars: int) -> MonomialIdeal:
    """Re-read the ideal in a larger ambient ring by appending zero exponents."""
    if nvars < a.nvars:
        raise ValueError("cannot embed into a smaller ambient ring")
    pad = (0,) * (nvars - a.nvars)
    return MonomialIdeal(nvars, frozenset(g + pad for g in a.gens))
