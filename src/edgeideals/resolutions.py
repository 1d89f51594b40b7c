"""Exact multigraded Betti tables of monomial ideals, regularity and linearity tests.

The primary engine enumerates the lcm lattice of the ideal and computes, at
each lattice multidegree m, the reduced homology of the membership complex of
m: the simplicial complex on the support of m whose faces are the squarefree
chunks S with m/x_S still inside the ideal.  Its rank in dimension i-1 is the
multigraded Betti number at (i, m).

All of this lives in the exponent box below the lcm of the generators, where a
multidegree is one point index, sum(e_i * strides[i]).  When the box has at most
`EngineCaps.membership_table_max` points (by default `box.BOX_MAX`), a set of
multidegrees is one Python int with a bit per point (`box._Box`, shared with
`monomials.intersect`, which also runs in the box): membership in the ideal and
the lcm lattice are upward closures and intersections of such bitsets, and one
box built per table serves both.  A bigger box keeps the same point indices: the
lattice is grown atom by atom over exponent tuples, and membership decodes an
index and ANDs per-variable threshold bitsets of the generators.  Either way
each face bitmap is read in one call: the faces of m sit at low + (the strides
of a support subset), with low = m minus every support stride, so one
`itemgetter` per support shape (`_gather`, cached by the sum of the support's
strides) reads them from a view of the table at low, or on a squarefree box, where
low is 0, cached by m itself from the whole table.  A minimal generator g has the
complex {empty face}, so `betti_table` counts beta_{0,g} = 1 with no gather.
Multidegrees leave the engine as exponent tuples, the package's one monomial
format: `BettiTable.multi` is keyed by them, the graded entries are summed from
it, and `BettiTable.to_json` prints them with `monomials.monomial_str`.

The membership complex at m is the upper Koszul simplicial complex K^m
(Miller-Sturmfels, Combinatorial Commutative Algebra, Thm. 1.34).  It is a
cone with apex i when m_i >= 1 and, for every F in supp(m) without i,
m - e_F in I implies m - e_F - e_i in I; a cone is acyclic over every field,
so its point adds no Betti number.  On the bitset path the cones of the whole
box are found with a few shifts per pair of axes (`_cones`), and the face loop
skips them before it gathers a face bitmap.  A box with every exponent at
most 1 skips the search: no squarefree lattice point is a cone, since a
generator g dividing m with g_i = 1 gives the face supp(m) - supp(g), and
adding i to it lands on g/x_i, outside I.  The fallback for bigger boxes
skips nothing.

The membership complex at m is determined by which support subsets are
faces, one bit each, so its homology is memoised by that face bitmap and the
field.  Ideals of one family share many complexes (for an edge ideal the
complex at x_S depends only on the labelled induced subgraph on S), and a
hit skips the reduction.  A miss ranks the smaller Alexander-dual side: when
more than half of the subsets of the support V are faces, the dual
{V - f : f not a face} is reduced instead, and its cardinality c read as
|V| - c - 1 (for an edge ideal, the dual at x_S is the independence complex
of the induced subgraph on S).  The memo and the gathers are emptied
together when the memo reaches COMPLEX_MEMO_SIZE complexes, so their memory
stays bounded.

An independent cross-check ships alongside and `betti --oracle` runs it: the
Taylor oracle reads the strand of the Taylor complex at m off the complex of
generator subsets whose lcm is strictly below m (capped by generator count),
with no lattice, membership table or memo.  The test
suite also keeps an order-complex oracle over open lcm-lattice intervals
(`tests/interval_oracle.py`) and enforces that all three engines agree.  All
three rank their complexes with `complexes.mask_homology_ranks`; only the
engine passes it dual sides, so the agreement also checks the duality.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import compress, filterfalse
from operator import itemgetter, mul
from types import MappingProxyType

from .box import BOX_MAX, _Box, _strides, _up_all_but_one
from .complexes import CapExceeded, mask_homology_ranks
from .linalg import RATIONALS, Field
from .monomials import MonomialIdeal, generated_in_single_degree, grlex_key, monomial_str


@dataclass(frozen=True, slots=True)
class EngineCaps:
    """Desk-scale guardrails; every report header prints these."""

    lattice_max: int = 65536
    order_faces_max: int = 1 << 22  # chains per interval, in the test suite's interval oracle
    taylor_max_generators: int = 16
    quotients_max_generators: int = 24
    quotients_time_budget: float = 10.0
    membership_table_max: int = BOX_MAX

    def to_json(self) -> dict:
        return asdict(self)


DEFAULT_CAPS = EngineCaps()


def _guard_proper(ideal: MonomialIdeal, what: str) -> None:
    if ideal.is_zero:
        raise ValueError(f"{what} is undefined for the zero ideal")
    if ideal.is_unit:
        raise ValueError(f"{what} is undefined for the unit ideal")


# -- multidegrees in the exponent box ------------------------------------------


def _cones(box: _Box, member: int) -> int:
    """The points whose membership complex is a cone, as a bitset over the box.

    member is the bitset of I.  Apex i fails at m exactly when m = q + e_F for some
    F without i and some q in I with q_i = m_i and q - e_i outside I.  Those q are
    D_i = member minus the points one step up along axis i from a member, and widening
    D_i by one step along each other axis in turn adds every such F.  The points with
    m_i >= 1 outside the widened D_i are the cones with apex i.
    """
    axes = [i for i, t in enumerate(box.top) if t]
    cones = 0
    for i in axes:
        below, step = box.below[i], box.strides[i]
        bad = member & ~((member & below) << step)
        for j in axes:
            if j != i:
                bad |= (bad & box.below[j]) << box.strides[j]
        cones |= (below << step) & ~bad
    return cones


def _box_lattice(box: _Box, gens: list, caps: EngineCaps) -> list:
    """The lattice as a bitset over the box, extracted in increasing order.

    m != 1 is an lcm of generators iff every m_i > 0 is the x_i-exponent of a
    generator dividing m (which also puts m in I).  Along axis i, the points
    that some generator g with g_i = m_i divides are the upward closure of the
    generator points along every other axis.
    """
    axes = [i for i, t in enumerate(box.top) if t]
    lattice = (1 << box.size) - 1
    for i, reach in _up_all_but_one(box, box.points(gens), axes):
        # the points with m_i = 0 are those no point of the box moves up to
        lattice &= ~(box.below[i] << box.strides[i]) | reach
    lattice &= ~1  # the origin is the formal bottom, not an lcm
    # counted before extraction; reported like the atom-by-atom path, which stops
    # one past the cap, so a skipped report reads the same on both paths
    if lattice.bit_count() > caps.lattice_max:
        raise CapExceeded("lattice_max", caps.lattice_max, caps.lattice_max + 1)
    return box.exponents(lattice)


class _ThresholdMembership:
    """m in I by box index, as ASCII b"0"/b"1" like `_Box.flags`, for a box too big to hold
    as a bitset.  Along each axis masks[k] holds the generators whose exponent is at most
    values[k - 1], so the AND over the axes of the masks that an index decodes to is the
    set of generators dividing m, as in `monomials.minimalize`.  Sliced from a point on,
    it is indexed from that point, as a memoryview of `_Box.flags` is."""

    __slots__ = ("axes", "low")

    def __init__(self, strides: list, gens: list):
        self.low = 0
        self.axes = []
        for stride, column in zip(strides, zip(*gens)):
            values = sorted(set(column))
            masks = [0] + [sum(1 << j for j, e in enumerate(column) if e <= v) for v in values]
            self.axes.append((stride, values, masks))

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = object.__new__(_ThresholdMembership)
            view.axes, view.low = self.axes, self.low + index.start
            return view
        index += self.low
        common = -1
        for stride, values, masks in self.axes:
            e, index = divmod(index, stride)
            common &= masks[bisect_right(values, e)]
        return b"01"[common != 0]


# -- lcm lattice ----------------------------------------------------------------


# top -> its box, for the last top only: the lcm lattice and the membership table of one
# Betti table share the box, and no more than one box is kept
_LAST_BOX: dict = {}


def _fitting_box(top: tuple, caps: EngineCaps) -> "_Box | None":
    """`_Box.fitting(top, caps.membership_table_max)`, built once for consecutive calls
    with the same top."""
    box = _LAST_BOX.get(top)
    if box is None:
        _LAST_BOX.clear()  # freed before the next box is built
        box = _LAST_BOX[top] = _Box.fitting(top, caps.membership_table_max)
    return box if box is not None and box.size <= caps.membership_table_max else None


def _joined_lattice(gens: list, caps: EngineCaps) -> list:
    """Adds the atoms one at a time, L_k = L_{k-1} + {b_k} + (L_{k-1} joined with b_k),
    joining column by column where b_k is nonzero."""
    elems: set = set()
    for b in gens:
        columns = list(zip(*elems)) or [()] * len(b)
        for i, v in enumerate(b):
            if v:
                columns[i] = [c if c > v else v for c in columns[i]]
        elems.update(zip(*columns))
        elems.add(b)
        if len(elems) > caps.lattice_max:
            raise CapExceeded("lattice_max", caps.lattice_max, caps.lattice_max + 1)
    return sorted(elems)


def lcm_lattice(ideal: MonomialIdeal, caps: EngineCaps = DEFAULT_CAPS) -> list:
    """The lcms of all nonempty generator subsets, as exponent tuples in increasing
    lexicographic order: a linear extension of divisibility, so every element comes
    before its multiples and the top comes last.

    They are read off bitsets over the exponent box below the top when the box has at
    most caps.membership_table_max points, else grown atom by atom.  Raises CapExceeded
    past caps.lattice_max elements."""
    _guard_proper(ideal, "the lcm lattice")
    gens = list(ideal.gens)
    box = _fitting_box(tuple(map(max, zip(*gens))), caps)
    if box is not None:
        return _box_lattice(box, gens, caps)
    return _joined_lattice(gens, caps)


def _membership_table(ideal: MonomialIdeal, top: tuple, caps: EngineCaps) -> tuple:
    """(membership, cones, strides): m in I and the cone points (`_cones`), each as
    ASCII b"0"/b"1" per point of the box below top (membership as a memoryview, to be
    sliced without a copy), and the strides that index both.

    cones is None for a squarefree box, whose lattice has no cone, and for a box too
    big, whose membership is a stand-in indexed the same way."""
    gens = list(ideal.gens)
    box = _fitting_box(top, caps)
    if box is None:
        strides = _strides(top)
        return _ThresholdMembership(strides, gens), None, strides
    member = box.up(box.points(gens), range(len(top)))
    cones = box.flags(_cones(box, member)) if max(top) > 1 else None
    return memoryview(box.flags(member)), cones, box.strides


# -- Betti tables ------------------------------------------------------------------


class BettiTable:
    """Graded Betti numbers of an ideal with the multigraded refinement.

    multi maps (homological index i, multidegree exponent tuple) to a positive
    count, and entries maps (i, total degree j) to the sum of the counts of
    degree j, summed once here.  Both are read-only views, because one check
    hands the same table to several consumers, such as a linearity test and
    then a splitting identity.
    """

    __slots__ = ("field_token", "entries", "multi")

    def __init__(self, field_token: str, multi: dict):
        self.field_token = field_token
        self.multi = MappingProxyType(dict(multi))
        entries: dict = {}
        for (i, e), b in self.multi.items():
            j = sum(e)
            entries[(i, j)] = entries.get((i, j), 0) + b
        self.entries = MappingProxyType(entries)

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def beta_multi(self, i: int, exps: tuple) -> int:
        return self.multi.get((i, exps), 0)

    def regularity(self) -> int:
        return max(j - i for i, j in self.entries)

    def projective_dimension(self) -> int:
        return max(i for i, _ in self.entries)

    def is_linear(self, d: int) -> bool:
        return all(j == i + d for i, j in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, BettiTable)
            and self.field_token == other.field_token
            and self.multi == other.multi
        )

    def to_json(self, include_multi: bool = False) -> dict:
        out = {
            "field": self.field_token,
            "entries": [
                {"i": i, "j": j, "beta": b}
                for (i, j), b in sorted(self.entries.items())
            ],
            "reg": self.regularity(),
            "pd": self.projective_dimension(),
        }
        if include_multi:
            # (i, degree, exponents) is grlex order within each homological index
            out["multi"] = [
                {"i": i, "m": monomial_str(e), "beta": self.multi[(i, e)]}
                for i, _, e in sorted((i, sum(e), e) for i, e in self.multi)
            ]
        return out

    def __repr__(self):
        cells = ", ".join(f"b({i},{j})={b}" for (i, j), b in sorted(self.entries.items()))
        return f"BettiTable[{self.field_token}]({cells})"


_SET = ord("1")  # a set point of `_Box.flags`

# Membership complexes whose homology is kept in memory, over all fields; the
# memo is emptied when it reaches this many.
COMPLEX_MEMO_SIZE = 1 << 14

# field -> {face bitmap: ranks}; _RANKS keeps one copy of each distinct ranks
# tuple, so that the many complexes with equal homology share it
_COMPLEX_MEMO: dict = {}
_RANKS: dict = {}
# (box strides, squarefree) -> {key: the support's face gather}, keyed on a squarefree box by
# the point itself and on any other by the sum of the support's strides: the strides of a box
# are superincreasing on its axes, so that sum names the support.  Emptied with _COMPLEX_MEMO.
_GATHERS: dict = {}


def _complex_ranks(bitmap: int, field: Field, width: int) -> tuple:
    """Nonzero reduced homology ranks, as (cardinality, rank) pairs, of the
    complex whose faces are the set bits of bitmap, on a ground set V of
    width = 2^|V| subsets.

    When more than half of those subsets are faces, the Alexander dual
    K^v = {V - f : f not in K} has fewer faces and is ranked instead:
    H~_i(K) = H~_{|V|-i-3}(K^v), so its cardinality c stands for |V| - c - 1
    (Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 5).  That
    needs V nonempty: on V empty, {empty face} is the whole simplex and its
    dual the void complex.

    Memoised by (bitmap, field): equal bitmaps are the same labelled complex,
    and ranks depend on the field.  Every caller shares the result, so it is a
    tuple that no caller can change.
    """
    memo = _COMPLEX_MEMO.setdefault(field, {})
    ranks = memo.get(bitmap)
    if ranks is None:
        if 2 * bitmap.bit_count() > width > 1:
            full = width - 1
            dual = [full ^ f for f in range(width) if not bitmap >> f & 1]
            last = width.bit_length() - 2  # |V| - 1
            dual_ranks = mask_homology_ranks(dual, field)
            # in increasing cardinality, as on the primal side
            ranks = tuple(sorted((last - c, r) for c, r in dual_ranks.items()))
        else:
            faces = [f for f in range(width) if bitmap >> f & 1]
            ranks = tuple(mask_homology_ranks(faces, field).items())
        if sum(map(len, _COMPLEX_MEMO.values())) >= COMPLEX_MEMO_SIZE:
            # emptied in place: a running betti_table holds its field's dict and its box's gathers
            for m in (*_COMPLEX_MEMO.values(), *_GATHERS.values()):
                m.clear()
            _RANKS.clear()
            _GATHERS.clear()
        memo[bitmap] = ranks = _RANKS.setdefault(ranks, ranks)
    return ranks


def _gather(support_strides) -> itemgetter:
    """The face gather of a support, given its strides in variable order.  Applied to the
    membership table from low = m minus every support stride on, it reads low plus the
    strides of subset p for p = 0, 1, ..., 2^s - 1: m - e_f with f the complement of p.
    Read as one binary number, first digit highest, digit p is bit f, set when m - e_f is
    in I, that is when f is a face."""
    offsets = [0]
    for step in support_strides:
        offsets += [o + step for o in offsets]
    # the support is nonempty, so two or more offsets and itemgetter gives a tuple
    return itemgetter(*offsets)


def _face_bitmaps(ideal: MonomialIdeal, caps: EngineCaps):
    """(exponents of m, face bitmap of its membership complex) for each lattice point m that
    is neither a minimal generator (counted by `betti_table`) nor a cone, in increasing order;
    bit f is set when the support subset f (bit k for the k-th support variable) is a face."""
    lattice = lcm_lattice(ideal, caps)
    top = lattice[-1]
    table, cones, strides = _membership_table(ideal, top, caps)
    # a squarefree box has low = 0 and m as its own support shape: its gathers are keyed by m and
    # read the whole table, apart from shape keys (tops (1, 1) and (5, 1) share strides (2, 1))
    squarefree = max(top) == 1
    gathers = _GATHERS.setdefault((tuple(strides), squarefree), {})
    for exps in filterfalse(ideal.gens.__contains__, lattice):
        if squarefree:
            key, view = exps, table
        else:
            at = sum(map(mul, exps, strides))
            if cones and cones[at] == _SET:  # a cone: acyclic, no Betti number at m
                continue
            key = sum(compress(strides, exps))
            view = table[at - key :]
        gather = gathers.get(key)
        if gather is None:
            gathers[key] = gather = _gather(compress(strides, exps))
        yield exps, int(bytes(gather(view)), 2)


def betti_table(
    ideal: MonomialIdeal,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> BettiTable:
    """Complete multigraded Betti table via lattice-supported membership complexes."""
    _guard_proper(ideal, "the Betti table")
    memo = _COMPLEX_MEMO.setdefault(field, {})
    multi = {(0, g): 1 for g in ideal.gens}
    for exps, bitmap in _face_bitmaps(ideal, caps):
        ranks = memo.get(bitmap)
        if ranks is None:  # a miss; hits skip the call
            ranks = _complex_ranks(bitmap, field, 1 << (len(exps) - exps.count(0)))
        for i, r in ranks:
            multi[(i, exps)] = r
    return BettiTable(field.token(), multi)


def taylor_betti_oracle(
    ideal: MonomialIdeal,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> BettiTable:
    """Independent oracle: homology of the multigraded strands of the Taylor complex.

    The strand of the Taylor complex at m is spanned by the generator subsets
    whose lcm is m.  It is the relative complex (Delta_m, Delta_<m), where
    Delta_m is the full simplex on the generators dividing m and Delta_<m its
    subsets whose lcm is not m.  Delta_m is contractible, so homology of the
    strand in homological index i is the reduced homology of Delta_<m in
    dimension i - 1:

        beta_{i,m} = rank H~_{i-1}(Delta_<m).

    Delta_<m is closed under subsets, a simplicial complex, so it is ranked by
    `mask_homology_ranks` like every other complex; the strand itself is not,
    and is never passed there.  The oracle uses no lcm lattice, membership
    table or memo.  It enumerates every generator subset, hence the cap.
    """
    _guard_proper(ideal, "the Betti table")
    atoms = sorted(ideal.gens, key=grlex_key, reverse=True)
    g = len(atoms)
    if g > caps.taylor_max_generators:
        raise CapExceeded("taylor_max_generators", caps.taylor_max_generators, g)
    nmask = 1 << g
    lcms = [None] * nmask
    lcms[0] = (0,) * ideal.nvars
    # the generators dividing m: the union of the subsets whose lcm is m
    divisors: dict = {}
    for mask in range(1, nmask):
        low = mask & -mask
        rest = mask ^ low
        a = atoms[low.bit_length() - 1]
        lcms[mask] = m = a if not rest else tuple(map(max, lcms[rest], a))
        divisors[m] = divisors.get(m, 0) | mask
    multi: dict = {}
    for mexps, full in divisors.items():
        # Delta_<m: the proper submasks of full, the empty set among them, whose lcm is not m
        lower = []
        sub = full
        while sub:
            sub = (sub - 1) & full
            if lcms[sub] != mexps:
                lower.append(sub)
        for i, r in mask_homology_ranks(lower, field).items():
            multi[(i, mexps)] = r
    return BettiTable(field.token(), multi)


# -- derived invariants ------------------------------------------------------------


def regularity(
    ideal: MonomialIdeal,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> int:
    """Largest j - i over the nonzero Betti entries."""
    return betti_table(ideal, field, caps).regularity()


def projective_dimension(
    ideal: MonomialIdeal,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> int:
    """Largest homological index with a nonzero Betti entry."""
    return betti_table(ideal, field, caps).projective_dimension()


def has_linear_resolution(
    ideal: MonomialIdeal,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> bool:
    """True when every Betti entry sits on the diagonal j = i + d."""
    _guard_proper(ideal, "linearity of the resolution")
    d = generated_in_single_degree(ideal)
    if d is None:
        raise ValueError("linear resolutions require generation in a single degree")
    return betti_table(ideal, field, caps).is_linear(d)


# -- linear quotients ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class QuotientsSearch:
    """Outcome of the linear-quotients search: found / none / unknown."""

    status: str
    order: "tuple | None" = None
    reason: "str | None" = None


class _BudgetExceeded(Exception):
    pass


def _colon_ok(exps, used, cand) -> bool:
    """True when the colon of the exps[i], i in used, by exps[cand] is generated by variables."""
    ce = exps[cand]
    quots = {tuple(max(a - b, 0) for a, b in zip(exps[i], ce)) for i in used}
    var_quots = [q for q in quots if sum(q) == 1]
    return bool(var_quots) and all(any(all(a <= b for a, b in zip(v, q)) for v in var_quots) for q in quots)


def _quotients_dfs(state, used: frozenset) -> bool:
    """True when the generators outside used can follow them in a linear-quotients order, which
    is then on path.  state, (exps, dead, path, deadline) of `linear_quotients_order`, is passed
    down, not closed over, so no call leaves a reference cycle."""
    exps, dead, path, deadline = state
    if len(used) == len(exps):
        return True
    if used in dead:
        return False
    if time.monotonic() > deadline:
        raise _BudgetExceeded
    for i in range(len(exps)):
        if i in used or (used and not _colon_ok(exps, used, i)):
            continue
        path.append(i)
        if _quotients_dfs(state, used | {i}):
            return True
        path.pop()
    dead.add(used)
    return False


def linear_quotients_order(
    ideal: MonomialIdeal,
    caps: EngineCaps = DEFAULT_CAPS,
) -> QuotientsSearch:
    """Search for a generator order whose successive colons are variable-generated.

    Backtracking over generator prefixes with memoized dead states; "unknown"
    is returned when the generator cap or the time budget is hit, which is a
    different outcome from a proven "none".
    """
    _guard_proper(ideal, "the linear-quotients search")
    exps = sorted(ideal.gens, key=grlex_key, reverse=True)
    g = len(exps)
    if g > caps.quotients_max_generators:
        return QuotientsSearch(
            "unknown", reason=f"generator cap {caps.quotients_max_generators} exceeded ({g})"
        )
    path: list = []
    state = (exps, set(), path, time.monotonic() + caps.quotients_time_budget)
    try:
        if _quotients_dfs(state, frozenset()):
            return QuotientsSearch("found", order=tuple(exps[i] for i in path))
        return QuotientsSearch("none")
    except _BudgetExceeded:
        return QuotientsSearch(
            "unknown", reason=f"time budget {caps.quotients_time_budget}s exceeded"
        )
