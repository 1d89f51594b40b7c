"""Instance verifiers for the regularity and splitting statements and the conjecture scans.

Every verifier returns a VerificationReport with verdict pass, fail or
skipped.  Failing reports always carry a witness that can be re-checked in
isolation; skipped reports name the unmet hypothesis or the engine cap that
was hit, so a scan never drops an instance silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations_with_replacement
from operator import add, le
from typing import Callable, NamedTuple

from .box import BOX_MAX, _Box
from .complexes import CapExceeded
from .graph6 import graph_to_graph6
from .graphs import (
    Graph,
    canonical_graph,
    canonical_key,
    chordal_masks,
    complement,
    has_induced_cricket,
    independent_sets,
    induced_matching_number,
    induced_subgraph,
    is_chordal,
    is_gap_free,
    is_independent_set,
    is_vertex_cover,
    matching_number,
    minimal_vertex_covers,
    one_vertex_extensions,
    s_suspension,
)
from .linalg import RATIONALS, Field
from .monomials import (
    MonomialIdeal,
    colon,
    edge_ideal,
    embed,
    generated_in_single_degree,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    is_generated_by_variables,
    minimalize,
    monomial_str,
    principal_ideal,
    variable,
    variable_ideal,
)
from .resolutions import (
    DEFAULT_CAPS,
    EngineCaps,
    betti_table,
    linear_quotients_order,
    regularity,
)

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass
class VerificationReport:
    """Structured outcome of one checked statement on one instance."""

    statement: str
    instance: str
    verdict: str
    reason: "str | None" = None
    witness: "dict | None" = None
    data: "dict | None" = None

    def __post_init__(self):
        if self.verdict not in (PASS, FAIL, SKIPPED):
            raise ValueError(f"invalid verdict {self.verdict!r}")
        if self.verdict == FAIL and self.witness is None:
            raise ValueError("fail verdicts must carry a witness")

    def to_json(self) -> dict:
        out = {
            "statement": self.statement,
            "instance": self.instance,
            "verdict": self.verdict,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = self.witness
        if self.data is not None:
            out["data"] = self.data
        return out


def _passed(statement, instance, data=None):
    return VerificationReport(statement, instance, PASS, data=data)


def _failed(statement, instance, witness, data=None):
    return VerificationReport(statement, instance, FAIL, witness=witness, data=data)


def _skipped(statement, instance, reason, witness=None):
    return VerificationReport(statement, instance, SKIPPED, reason=reason, witness=witness)


def _ginst(g: Graph, **params) -> str:
    parts = [f"g6={graph_to_graph6(g)}"]
    for k in sorted(params):
        v = params[k]
        if isinstance(v, (set, frozenset, tuple, list)):
            v = "[" + ",".join(str(x) for x in sorted(v)) + "]"
        parts.append(f"{k}={v}")
    return " ".join(parts)


def _ideal_inst(*ideals) -> str:
    return " ".join("(" + ",".join(i.gen_strings()) + ")" for i in ideals)


# -- Betti splitting ---------------------------------------------------------------


def _splitting_report(statement, inst, tw, tl, tr, tm):
    """Check the splitting identity of the tables of whole, left, right and their
    intersection at every (i, j) and multidegree.

    The reg/pd consequences need no check of their own.  `validate_partition` keeps both
    parts nonzero, so all four tables are nonempty, and once the graded identity holds at
    every (i, j) the nonzero entries of the whole are those of the parts and of the
    intersection shifted by one homological degree.  So reg = max(reg J, reg K,
    reg(J∩K) - 1) and pd = max(pd J, pd K, pd(J∩K) + 1) (Francisco-Hà-Van Tuyl,
    Splittings of monomial ideals, Proc. AMS 2009); a pass reports them from the whole."""
    keys = set(tw.entries)
    keys.update(tl.entries)
    keys.update(tr.entries)
    keys.update((i + 1, j) for i, j in tm.entries)
    for i, j in sorted(keys):
        lhs = tw.beta(i, j)
        rhs = tl.beta(i, j) + tr.beta(i, j) + tm.beta(i - 1, j)
        if lhs != rhs:
            return _failed(statement, inst, {"i": i, "j": j, "lhs": lhs, "rhs": rhs})
    mkeys = set(tw.multi)
    mkeys.update(tl.multi)
    mkeys.update(tr.multi)
    mkeys.update((i + 1, e) for i, e in tm.multi)
    for i, e in sorted(mkeys):
        lhs = tw.beta_multi(i, e)
        rhs = tl.beta_multi(i, e) + tr.beta_multi(i, e) + tm.beta_multi(i - 1, e)
        if lhs != rhs:
            mismatch = {"i": i, "multidegree": monomial_str(e), "lhs": lhs, "rhs": rhs}
            return _failed(statement, inst, mismatch)
    return _passed(statement, inst, data={"reg": tw.regularity(), "pd": tw.projective_dimension()})


def validate_partition(whole, left, right):
    """Raise ValueError unless left and right are nonzero and split the generators of whole."""
    if left.is_zero or right.is_zero:
        raise ValueError("both parts of a splitting must be nonzero")
    if left.nvars != whole.nvars or right.nvars != whole.nvars:
        raise ValueError("ambient mismatch in splitting parts")
    lg, rg, wg = set(left.gens), set(right.gens), set(whole.gens)
    if lg & rg or (lg | rg) != wg:
        raise ValueError("generators of the parts are not a disjoint partition of the whole")


def check_betti_splitting(
    whole: MonomialIdeal,
    left: MonomialIdeal,
    right: MonomialIdeal,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> VerificationReport:
    """Verify the additivity identity of a generator partition; its reg and pd follow from it."""
    validate_partition(whole, left, right)
    tables = [betti_table(i, field, caps) for i in (whole, left, right, intersect(left, right))]
    return _splitting_report("splitting", _ideal_inst(whole, left, right), *tables)


def _linear_table(ideal, field, caps):
    """The Betti table of ideal when its resolution is linear, else None."""
    d = generated_in_single_degree(ideal)
    if d is None:
        return None
    table = betti_table(ideal, field, caps)
    return table if table.is_linear(d) else None


def check_doublelinear(
    whole: MonomialIdeal,
    left: MonomialIdeal,
    right: MonomialIdeal,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> VerificationReport:
    """When both parts have linear resolutions the partition must be a splitting."""
    validate_partition(whole, left, right)
    inst = _ideal_inst(whole, left, right)
    tl = _linear_table(left, field, caps)
    tr = None if tl is None else _linear_table(right, field, caps)
    if tr is None:
        return _skipped("doublelinear", inst, "a part does not have a linear resolution")
    tw = betti_table(whole, field, caps)
    tm = betti_table(intersect(left, right), field, caps)
    return _splitting_report("doublelinear", inst, tw, tl, tr, tm)


# -- colon regularity bounds ----------------------------------------------------------


def check_colon_reg_bound(
    ideal: MonomialIdeal,
    m: tuple,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> VerificationReport:
    """reg(I) <= max(reg(I:m)+deg m, reg(I,m)); equality when m is a variable of I.

    Raises ValueError for a zero or unit ideal, where the bound is not defined."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("the bound needs a nonzero proper ideal")
    inst = _ideal_inst(ideal) + f" m={monomial_str(m)}"
    q = colon(ideal, m)
    s = ideal_sum(ideal, principal_ideal(m))
    if q.is_unit and s.is_unit:
        return _skipped("colon", inst, "degenerate: both the colon and the sum are the unit ideal")
    # colon equal to the whole ring contributes reg(R) = 0 to the bound
    term_colon = (0 if q.is_unit else regularity(q, field, caps)) + sum(m)
    term_sum = None if s.is_unit else regularity(s, field, caps)
    terms = [term_colon] + ([term_sum] if term_sum is not None else [])
    r = regularity(ideal, field, caps)
    data = {"reg": r, "colon_term": term_colon, "sum_term": term_sum}
    if r > max(terms):
        return _failed("colon", inst, {"reg": r, "bound": max(terms)}, data=data)
    appears = sum(m) == 1 and any(g[m.index(1)] for g in ideal.gens)
    if appears and r not in terms:
        return _failed(
            "colon", inst, {"reg": r, "terms": terms, "expected": "equality with one term"},
            data=data,
        )
    return _passed("colon", inst, data=data)


def check_abc_bound(
    sub: MonomialIdeal,
    ambient: MonomialIdeal,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> VerificationReport:
    """reg(J) <= max(A, B, C) for J inside I, both generated in single degrees n1 < n2."""
    inst = _ideal_inst(sub, ambient)
    if sub.is_zero or sub.is_unit or ambient.is_zero or ambient.is_unit:
        return _skipped("abc", inst, "needs nonzero proper ideals")
    n1 = generated_in_single_degree(ambient)
    n2 = generated_in_single_degree(sub)
    if n1 is None or n2 is None:
        return _skipped("abc", inst, "ideals are not generated in single degrees")
    if not n1 < n2:
        return _skipped("abc", inst, f"degree hypothesis fails: n1={n1}, n2={n2}")
    if not all(map(ambient.contains, sub.gens)):
        return _skipped("abc", inst, "sub-ideal is not contained in the ambient ideal")
    order = ambient.sorted_gens()
    a_term = regularity(colon(sub, order[0]), field, caps) + n1
    b_terms = []
    acc = sub
    for l in range(1, len(order)):
        acc = ideal_sum(acc, principal_ideal(order[l - 1]))
        b_terms.append(regularity(colon(acc, order[l]), field, caps) + n1)
    c_term = regularity(ambient, field, caps)
    bound = max([a_term, c_term] + b_terms)
    rj = regularity(sub, field, caps)
    data = {"A": a_term, "B": b_terms, "C": c_term, "reg": rj}
    if rj > bound:
        return _failed("abc", inst, {"reg": rj, "bound": bound}, data=data)
    return _passed("abc", inst, data=data)


# -- ordered colon structure of powers ---------------------------------------------------


def check_blemma_colon_structure(g: Graph, n: int = 1) -> VerificationReport:
    """Pairwise colon structure of the ordered generators of the n-th power.

    For generators L_1 > ... > L_m of I^n: whenever (L_j : L_{k+1}) is not
    inside (I^(n+1) : L_{k+1}), some i <= k must give a variable-generated
    (L_i : L_{k+1}) containing (L_j : L_{k+1}).  Recorded, not asserted, when
    the graph is not gap-free.
    """
    ideal = edge_ideal(g)
    power = ideal_power(ideal, n)
    gens = power.sorted_gens()
    inst = _ginst(g, n=n)
    next_power = ideal_product(power, ideal)
    violations = []
    for kk in range(1, len(gens)):
        last = gens[kk]
        # (L_i : L_{k+1}) is generated by L_i / gcd(L_i, L_{k+1})
        quots = [tuple(a - b if a > b else 0 for a, b in zip(gens[i], last)) for i in range(kk)]
        for j in range(kk):
            qj = quots[j]
            if next_power.contains(tuple(map(add, qj, last))):
                continue
            if not any(sum(q) == 1 and all(map(le, q, qj)) for q in quots):
                violations.append({"j": j + 1, "k": kk, "quotient": monomial_str(qj)})
    if not violations:
        return _passed("blemma", inst, data={"generators": len(gens)})
    witness = violations[0]
    if is_gap_free(g):
        return _failed("blemma", inst, witness, data={"violations": len(violations)})
    return _skipped(
        "blemma",
        inst,
        "recorded only: colon-structure violations on a graph that is not gap-free",
        witness=witness,
    )


# -- cover colon statement ---------------------------------------------------------------


def check_keylemma(g: Graph, cover, k: int) -> VerificationReport:
    """(U * I^k : L) is variable-generated for every minimal generator L of I^k."""
    inst = _ginst(g, U=cover, k=k)
    if not is_vertex_cover(g, cover):
        return _skipped("keylemma", inst, "the given set is not a vertex cover")
    ideal = edge_ideal(g)
    u_ideal = variable_ideal(g.n, cover)
    power = ideal_power(ideal, k)
    product = ideal_product(u_ideal, power)
    for gen in power.sorted_gens():
        c = colon(product, gen)
        if not is_generated_by_variables(c):
            return _failed(
                "keylemma",
                inst,
                {"L": monomial_str(gen), "colon": c.gen_strings()},
            )
    return _passed("keylemma", inst, data={"generators_checked": len(power.gens)})


# -- isomorphism-invariant values of one run ---------------------------------------------


class InvariantStore:
    """Exact isomorphism-invariant values of graphs for one run, one record per class.

    classes maps the `canonical_key` of each class seen to its record, a dict that holds
    "reg": reg(I(H)), "im": im(H) and, for each power k decided, k: whether I(H)^k is
    linear.  Field and caps are fixed for a run, so they are not part of the key.  A
    CapExceeded is never stored: lattice size is an isomorphism invariant, so a repeat
    raises the same way."""

    def __init__(self):
        self.classes = {}

    def of(self, h: Graph) -> "_Record":
        return _Record(h, self.classes.setdefault(canonical_key(h), {}))


class _Record(NamedTuple):
    """One graph and the record of its class, whose missing values are computed on the graph.

    A statement that reads no run-wide class walks the classless record _Record(g, {}), which
    computes no canonical key."""

    graph: Graph
    values: dict

    def im(self) -> int:
        if "im" not in self.values:
            self.values["im"] = induced_matching_number(self.graph)
        return self.values["im"]

    def reg(self, field: Field, caps: EngineCaps) -> int:
        if "reg" not in self.values:
            self.values["reg"] = regularity(edge_ideal(self.graph), field, caps)
        return self.values["reg"]

    def power_table(self, k: int, power: MonomialIdeal, field: Field, caps: EngineCaps, prev=None):
        """The Betti table of power, I(graph)^k or a copy of it in more variables (which has
        the same tables), or None when the class is known linear at k.  A resolved power
        records its linearity under k, and at k = 1 the regularity of I(graph).

        With prev, I(graph)^(k-1) in the variables of power, a power k >= 2 that
        `_certified_linear` shows linear is recorded linear without a table and gives None.
        The certificate needs reg(I^(k-1)) <= 2k: at k = 2 the recorded reg(I), or else
        reg(I) <= ν + 1 with ν the matching number (Hà-Van Tuyl 2008); at k >= 3 a record
        of I^(k-1) as linear."""
        if self.values.get(k):
            return None
        if prev is not None and k >= 2:
            if k == 2:
                reg = self.values.get("reg")
                bounded = (matching_number(self.graph) + 1 if reg is None else reg) <= 4
            else:
                bounded = self.values.get(k - 1, False)
            if bounded and _certified_linear(prev, power):
                self.values[k] = True
                return None
        table = betti_table(power, field, caps)
        self.values[k] = _nonlinear(k, table) is None
        if k == 1:
            self.values["reg"] = table.regularity()
        return table

    def linear_powers(self, ideal: MonomialIdeal, ks: range, field: Field, caps: EngineCaps) -> tuple:
        """(powers, witness) for ideal, I(graph) or a copy of it in more variables: powers maps
        each k of the consecutive range ks, up to the first nonlinear power, to (I^k, its
        `power_table`); witness is that power's `_nonlinear` witness, or None when every power
        in ks is linear."""
        powers = {}
        for k, _, power in _power_ideals(ideal, ks):
            table = self.power_table(k, power, field, caps)
            powers[k] = power, table
            witness = _nonlinear(k, table)
            if witness is not None:
                return powers, witness
        return powers, None

    def nonlinear_power(self, ks: range, field: Field, caps: EngineCaps) -> "dict | None":
        """The `_nonlinear` witness of the first nonlinear I(graph)^k over ks, or None.  The walk
        starts at the first k of ks where the class is not known linear, runs on graph, so a
        witness is its own, and offers each power with the one before it to `power_table`."""
        start = next((k for k in ks if not self.values.get(k)), ks.stop)
        for k, prev, power in _power_ideals(edge_ideal(self.graph), range(start, ks.stop)):
            witness = _nonlinear(k, self.power_table(k, power, field, caps, prev))
            if witness is not None:
                return witness
        return None


def _certified_linear(prev: MonomialIdeal, power: MonomialIdeal) -> bool:
    """True when every colon power : M, M a generator of prev, has regularity 2, where power
    is I^k and prev is I^(k-1) for an edge ideal I and k >= 2.  With reg(I^(k-1)) <= 2k this
    shows I^k linear, since reg(I^k) <= max(reg(I^k : M) + 2k - 2, reg(I^(k-1))) over those M
    (Banerjee, The regularity of powers of edge ideals, J. Algebraic Combin. 41 (2015),
    Thm 5.2).  Each colon is generated by quadrics (ibid., Sec. 6), and an ideal of quadrics
    has regularity 2 iff the graph of its polarization, where a square x_u^2 is an edge from
    u to a new vertex, has a chordal complement (Fröberg 1990).  False, with nothing tested,
    when the exponent box of power has more than `BOX_MAX` points."""
    sets = _colon_quadrics(prev, power)
    return sets is not None and all(_cochordal_polarization(power.nvars, qs) for qs in sets)


def _quadrics(nvars: int) -> tuple:
    """The quadrics x_u * x_v in nvars variables as pairs (u, v), u <= v, in lexicographic order."""
    return tuple(combinations_with_replacement(range(nvars), 2))


def _colon_quadrics(prev: MonomialIdeal, power: MonomialIdeal) -> "list | None":
    """The distinct quadric sets of the colons power : M over the generators M of prev, each a
    mask over `_quadrics`, where power = I^k and prev = I^(k-1) for an edge ideal I; None when
    the exponent box below top(I^k) has more than `BOX_MAX` points.

    qM lies in I^k only as a generator, since I^k is generated in degree 2k.  In the box, the
    generators M with M + q in I^k are one bitset per quadric q, and generators with equal
    quadric sets stay together, so each distinct set comes out once."""
    box = _Box.fitting(tuple(map(max, zip(*power.gens))), BOX_MAX)
    if box is None:
        return None
    have, strides, below = box.points(power.gens), box.strides, box.below
    # (a bitset of generators M, the mask of the quadrics q with M + q in I^k)
    classes = [(box.points(prev.gens), 0)]
    for i, (u, v) in enumerate(_quadrics(power.nvars)):
        # the points that stay in the box when q is added, so that no sum past the top aliases
        room = below[u] & (below[u] >> strides[u] if u == v else below[v])
        hits = have >> strides[u] + strides[v] & room
        split = (((ms & hits, qs | 1 << i), (ms & ~hits, qs)) for ms, qs in classes)
        classes = [(ms, qs) for pair in split for ms, qs in pair if ms]
    return [qs for _, qs in classes]


def _cochordal_polarization(nvars: int, qs: int) -> bool:
    """Whether the polarization of the quadrics of the mask qs over `_quadrics(nvars)` has a
    chordal complement."""
    adj = [0] * nvars
    for i, (u, v) in enumerate(_quadrics(nvars)):
        if qs >> i & 1:
            if u == v:
                v = len(adj)
                adj.append(0)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    full = (1 << len(adj)) - 1
    return chordal_masks([full & ~(a | 1 << w) for w, a in enumerate(adj)])


# -- suspension statements ------------------------------------------------------------


def check_s_suspension_invariance(
    g: Graph,
    sets,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
    suspensions=None,
    store: "InvariantStore | None" = None,
) -> list:
    """The one-vertex suspension preserves the induced matching number and regularity;
    one report per S in sets, in order.  A caller that has built s_suspension(g, S) for
    each S passes them, in the same order, as suspensions.  im and reg are read by class
    from store, a new one for this call when None."""
    if not g.edges:
        raise ValueError("the invariance check needs a graph with at least one edge")
    if store is None:
        store = InvariantStore()
    base = store.of(g)
    im_g = base.im()
    reg_g = base.reg(field, caps)
    if suspensions is None:
        suspensions = [s_suspension(g, s) for s in sets]
    reports = []
    for s, gs in zip(sets, suspensions):
        inst = _ginst(g, S=s)
        suspended = store.of(gs)
        im_gs = suspended.im()
        reg_gs = suspended.reg(field, caps)
        data = {"im": [im_g, im_gs], "reg": [reg_g, reg_gs]}
        if im_g != im_gs or reg_g != reg_gs:
            reports.append(_failed("suspension", inst, data, data=data))
        else:
            reports.append(_passed("suspension", inst, data=data))
    return reports


def _power_ideals(ideal: MonomialIdeal, ks: range):
    """(k, I^(k-1), I^k) for k in the consecutive range ks; each power after I is one product
    with the power before it."""
    power = None
    for k in ks:
        prev = ideal_power(ideal, k - 1) if power is None else power
        power = ideal if k == 1 else ideal_product(prev, ideal)
        yield k, prev, power


def _nonlinear(k: int, table) -> "dict | None":
    """The witness that I^k, whose Betti table is table, has no linear resolution, i.e.
    reg(I^k) != 2k for an edge ideal I; None when it has one or table is None."""
    if table is None:
        return None
    r = table.regularity()
    if r == 2 * k:
        return None
    return {"k": k, "reg": r, "expected": 2 * k, "table": table.to_json()}


def _power_hypothesis(g: Graph, k_max: int, field: Field, caps: EngineCaps, record: "_Record") -> tuple:
    """(unmet, base, powers): why g fails the hypotheses of main1 and main2 (gap-free,
    I^j linear for 2 <= j <= k_max), or None when it meets them.

    base is I(G) in n + 1 variables and powers maps each j >= 2 checked to (I(G)^j, its
    Betti table), also in n + 1 variables.  The extra variable divides no generator, so it
    changes no Betti number.  The powers are walked by record, a record of g: a power
    whose class is known linear comes without its table (None)."""
    base = embed(edge_ideal(g), g.n + 1)
    if not is_gap_free(g):
        return "hypothesis unmet: graph is not gap-free", base, {}
    powers, bad = record.linear_powers(base, range(2, k_max + 1), field, caps)
    if bad is not None:
        return f"hypothesis unmet: I^{bad['k']} has no linear resolution", base, powers
    return None, base, powers


def _suspension_parts(gs: Graph, ks: range):
    """(k, I(G_S)^k, star * I(G_S)^(k-1)) for k in the consecutive range ks, where G_S = gs
    is a suspension with new vertex z = x_n and star is the ideal of its edges z*x_v.  Then
    I(G_S)^k = I(G)^k + star * I(G_S)^(k-1), and each yielded ideal is one product."""
    igs = edge_ideal(gs)
    n, z = gs.n, gs.n - 1
    # z*x_v for each neighbour v < z of z, the last variable
    star = minimalize(n, ((*variable(z, v), 1) for v in gs.neighbors(z)))
    below = ideal_power(igs, ks.start - 1)
    for k in ks:
        whole = ideal_product(below, igs)
        yield k, whole, ideal_product(star, below)
        below = whole


def _per_rooted_class(statement: str, g: Graph, sets, params: dict, check) -> list:
    """One report per S in sets, in order: check(instance, G_S), or a copy of an earlier pass.

    An isomorphism of the rooted suspensions (G_S, z) and (G_S', z), z = n, restricts to an
    automorphism of G that maps S onto S'.  It maps each ideal of a main1 or main2 check onto
    its image, so the check holds for S iff it holds for S', with the same pass data.  So the
    first S of each rooted class that passes is checked and the later ones get its data under
    their own instance.  A fail is never shared: each S that fails was checked itself and has
    its own witness, and a later S of its class is checked again."""
    passes = {}
    reports = []
    for s in sets:
        inst = _ginst(g, S=s, **params)
        gs = s_suspension(g, s)
        key = canonical_key(gs, g.n)
        if key in passes:
            reports.append(_passed(statement, inst, data=passes[key]))
            continue
        rep = check(inst, gs)
        if rep.verdict == PASS:
            passes[key] = rep.data
        reports.append(rep)
    return reports


def check_main1(
    g: Graph,
    sets,
    k: int = 2,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> list:
    """The k-th power of a suspended edge ideal splits along the new vertex; one report
    per S in sets, in order.

    The S-independent I(G)^k and its table are computed once, and the tables of the whole
    I(G_S)^k, of its right part and of their intersection once per class of the rooted
    suspension (G_S, z) that passes (see `_per_rooted_class`): a later S of the class gets
    the pass {reg, pd} of the first."""
    if not g.edges:
        raise ValueError("needs a graph with at least one edge")
    unmet, base, powers = _power_hypothesis(g, k, field, caps, _Record(g, {}))
    if unmet is not None:
        return [_skipped("main1", _ginst(g, S=s, k=k), unmet) for s in sets]
    left, tl = powers[k] if k in powers else (base, betti_table(base, field, caps))
    # for k >= 2 the intersection is z * I(G)^k for every S, so its table is shared
    meets = {}

    def check(inst, gs):
        [(_, whole, right)] = _suspension_parts(gs, range(k, k + 1))
        if set(left.gens) & set(right.gens) or set(left.gens) | set(right.gens) != set(whole.gens):
            raise RuntimeError("internal error: construction is not a generator partition")
        tw = betti_table(whole, field, caps)
        tr = betti_table(right, field, caps)
        meet = intersect(left, right)
        if meet not in meets:
            meets[meet] = betti_table(meet, field, caps)
        return _splitting_report("main1", inst, tw, tl, tr, meets[meet])

    return _per_rooted_class("main1", g, sets, {"k": k}, check)


def check_main2(
    g: Graph,
    sets,
    k_max: int = 3,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
    store: "InvariantStore | None" = None,
) -> list:
    """Powers >= 2 of a suspended edge ideal stay linear, with the intersection identity;
    one report per S in sets, in order.

    The S-independent powers of I(G) are computed once, and the linearity of each I(G)^k
    is read by the class of G from store, a new one for this call when None.  The powers of
    I(G_S) and the intersections are computed once per class of the rooted suspension
    (G_S, z) that passes (see `_per_rooted_class`): a later S of the class gets the pass
    power_reg of the first."""
    if not g.edges:
        raise ValueError("needs a graph with at least one edge")
    if store is None:
        store = InvariantStore()
    unmet, _, powers = _power_hypothesis(g, k_max, field, caps, store.of(g))
    if unmet is not None:
        return [_skipped("main2", _ginst(g, S=s, k_max=k_max), unmet) for s in sets]
    z = principal_ideal(variable(g.n + 1, g.n))
    z_parts = {k: ideal_product(z, power) for k, (power, _) in powers.items()}
    check = partial(
        _check_main2_set, k_max=k_max, powers=powers, z_parts=z_parts, field=field, caps=caps, store=store
    )
    return _per_rooted_class("main2", g, sets, {"k_max": k_max}, check)


def _check_main2_set(inst, gs, k_max, powers, z_parts, field, caps, store):
    """The main2 report, under instance inst, of one suspension G_S = gs; powers maps k to
    (I(G)^k, its table or None), z_parts to z * I(G)^k.

    For each k in 2..k_max, I(G_S)^k is linear and I(G)^k ∩ star * I(G_S)^(k-1) is
    z * I(G)^k (see `_suspension_parts`).  The linearity of I(G_S)^k is read by the
    unrooted class of G_S from store: a power whose class is known linear is not resolved
    again, and one that is not is offered to the colon certificate with I(G_S)^(k-1), and
    else resolved on gs, so a fail has its own table.  The
    intersection identity is one of the pair (G, S), so it is checked for each S that
    reaches this call: the first of its rooted class, or one whose class has not passed."""
    suspended, prev = store.of(gs), edge_ideal(gs)
    for k, whole, right in _suspension_parts(gs, range(2, k_max + 1)):
        bad = _nonlinear(k, suspended.power_table(k, whole, field, caps, prev))
        if bad is not None:
            return _failed("main2", inst, bad)
        prev = whole
        meet = intersect(powers[k][0], right)
        if meet != z_parts[k]:
            rhs = z_parts[k].gen_strings()
            witness = {"k": k, "identity": "intersection", "lhs": meet.gen_strings(), "rhs": rhs}
            return _failed("main2", inst, witness)
    return _passed("main2", inst, data={"power_reg": {k: 2 * k for k in range(2, k_max + 1)}})


def check_banerjee(
    g: Graph,
    k_max: int = 3,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> VerificationReport:
    """Gap-free and cricket-free graphs: reg(I) <= 3 and reg(I^k) = 2k for k >= 2."""
    inst = _ginst(g, k_max=k_max)
    if not g.edges:
        raise ValueError("needs a graph with at least one edge")
    if not is_gap_free(g):
        return _skipped("banerjee", inst, "hypothesis unmet: graph is not gap-free")
    if has_induced_cricket(g):
        return _skipped("banerjee", inst, "hypothesis unmet: graph has an induced cricket")
    ideal = edge_ideal(g)
    r = regularity(ideal, field, caps)
    if r > 3:
        return _failed("banerjee", inst, {"reg": r, "bound": 3})
    powers, bad = _Record(g, {}).linear_powers(ideal, range(2, k_max + 1), field, caps)
    if bad is not None:
        return _failed("banerjee", inst, bad)
    return _passed("banerjee", inst, data={"reg": r, "power_regs": {k: 2 * k for k in powers}})


# -- per-graph bound statements ---------------------------------------------------------


def check_froberg(
    g: Graph, field: Field = RATIONALS, caps: EngineCaps = DEFAULT_CAPS
) -> VerificationReport:
    """reg(I(G)) = 2 exactly when the complement of G is chordal."""
    inst = _ginst(g)
    r = regularity(edge_ideal(g), field, caps)
    cc = is_chordal(complement(g))
    data = {"reg": r, "complement_chordal": cc}
    if (r == 2) != cc:
        return _failed("froberg", inst, data, data=data)
    return _passed("froberg", inst, data=data)


def check_reg_bounds(
    g: Graph, field: Field = RATIONALS, caps: EngineCaps = DEFAULT_CAPS
) -> VerificationReport:
    """im(G) + 1 <= reg(I(G)) <= m(G) + 1."""
    inst = _ginst(g)
    im = induced_matching_number(g)
    mn = matching_number(g)
    r = regularity(edge_ideal(g), field, caps)
    data = {"im": im, "matching": mn, "reg": r}
    if not (im + 1 <= r <= mn + 1):
        return _failed("bounds", inst, data, data=data)
    return _passed("bounds", inst, data=data)


def check_bht_lower_bound(
    g: Graph,
    k_max: int = 3,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> VerificationReport:
    """reg(I(G)^k) >= 2k + im(G) - 1 for 1 <= k <= k_max."""
    ks = range(1, k_max + 1)
    inst = _ginst(g, k=list(ks))
    im = induced_matching_number(g)
    regs = {}
    for k, _, power in _power_ideals(edge_ideal(g), ks):
        rk = regs[k] = betti_table(power, field, caps).regularity()
        if rk < 2 * k + im - 1:
            return _failed(
                "bht", inst, {"k": k, "reg": rk, "lower_bound": 2 * k + im - 1}
            )
    return _passed("bht", inst, data={"im": im, "power_regs": regs})


def check_hhz(
    g: Graph,
    k_max: int = 3,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> VerificationReport:
    """Co-chordal graphs: every power is linear and a linear quotient order exists."""
    inst = _ginst(g, k_max=k_max)
    if not is_chordal(complement(g)):
        return _skipped("hhz", inst, "hypothesis unmet: complement is not chordal")
    ideal = edge_ideal(g)
    powers, bad = _Record(g, {}).linear_powers(ideal, range(1, k_max + 1), field, caps)
    if bad is not None:
        return _failed("hhz", inst, bad)
    lq = linear_quotients_order(ideal, caps)
    if lq.status == "unknown":
        return _skipped("hhz", inst, f"linear-quotients search inconclusive: {lq.reason}")
    if lq.status != "found":
        return _failed("hhz", inst, {"linear_quotients": "none found"})
    order = [monomial_str(m) for m in lq.order]
    return _passed("hhz", inst, data={"power_regs": {k: 2 * k for k in powers}, "quotient_order": order})


# -- invariant one-vertex extensions ------------------------------------------------------


def enumerate_im_reg_extensions(
    g: Graph,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
    exts=None,
    store: "InvariantStore | None" = None,
) -> list:
    """All one-vertex extensions of g preserving im and regularity, in the order of
    `one_vertex_extensions`; a caller that has built that list passes it as exts.  im and reg
    are read by class from store, a new one for this call when None."""
    if exts is None:
        exts = one_vertex_extensions(g)
    if not exts:
        return []
    if not g.edges:
        raise ValueError("needs a graph with at least one edge")
    if store is None:
        store = InvariantStore()
    return [r.graph for r in _invariant_extensions(store.of(g), exts, field, caps, store)]


def _invariant_extensions(base: _Record, exts, field: Field, caps: EngineCaps, store: InvariantStore) -> list:
    """The records of the graphs of exts, one-vertex extensions of base.graph, with its im and
    reg; all of them read by class from store."""
    im_g, reg_g = base.im(), base.reg(field, caps)
    records = (store.of(ext) for ext in exts)
    return [r for r in records if r.im() == im_g and r.reg(field, caps) == reg_g]


def probe_vertex_deletions(
    g: Graph,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
    store: "InvariantStore | None" = None,
) -> VerificationReport:
    """Exploratory probe: regularity of every one-vertex-deleted induced subgraph, read by
    class from store, a new one for this call when None."""
    inst = _ginst(g)
    if store is None:
        store = InvariantStore()
    regs = {}
    for v in range(g.n):
        h = induced_subgraph(g, [u for u in range(g.n) if u != v])
        regs[str(v)] = store.of(h).reg(field, caps) if h.edges else None
    return _passed("deletion-probe", inst, data={"deleted_vertex_reg": regs})


# -- conjecture scans -------------------------------------------------------------------


def _scan_power_linearity(statement: str, g: Graph, p: dict, field: Field, caps: EngineCaps, *_) -> list:
    """np or generalnp on one graph, reported on its canonical form; no report for a
    graph outside the scan's hypotheses."""
    if not g.edges or not is_gap_free(g):
        return []
    cg = canonical_graph(g)
    inst = _ginst(cg)
    reg_filter = p["reg_filter"]
    try:
        record = _Record(cg, {})
        r = record.reg(field, caps)
        if statement == "np":
            if r != (3 if reg_filter is None else reg_filter):
                return []
            ks = range(2, p["k_max"] + 1)
        else:
            if reg_filter is not None and r != reg_filter:
                return []
            ks = range(max(1, r - 1), p["k_max"] + 1)
            if not ks:
                return [_skipped(statement, inst, f"empty k range for reg={r}")]
        # ks holds k = 1 only when reg(I) = 2, which already passes
        bad = record.nonlinear_power(range(max(2, ks.start), ks.stop), field, caps)
        if bad is not None:
            return [_failed(statement, inst, bad)]
        return [_passed(statement, inst, data={"reg": r, "k_checked": list(ks)})]
    except CapExceeded as e:
        return [_skipped(statement, inst, f"engine cap hit: {e}")]


def _scan_extensions(g: Graph, p: dict, field: Field, caps: EngineCaps, store: InvariantStore) -> list:
    """newconj2 on one graph: one report per im/reg-invariant one-vertex extension.  The
    linearity of each power is read by class from store."""
    statement = "newconj2"
    if not g.edges:
        return []
    base_inst = _ginst(g)
    ks = range(p["c_g"], p["k_max"] + 1)
    if not is_gap_free(g):
        return [_skipped(statement, base_inst, "hypothesis unmet: base graph is not gap-free")]
    base = store.of(g)
    bad = base.nonlinear_power(ks, field, caps)
    if bad is not None:
        reason = f"hypothesis unmet: base reg(I^{bad['k']}) = {bad['reg']} != {bad['expected']}"
        return [_skipped(statement, base_inst, reason)]
    # with k = 1 in ks the base check has shown reg(I) = 2, and recorded it, which each
    # invariant extension keeps, so k = 1 passes for every extension
    ext_ks = range(max(2, ks.start), ks.stop)
    out = []
    for ext in _invariant_extensions(base, one_vertex_extensions(g), field, caps, store):
        inst = _ginst(g, z_neighborhood=sorted(ext.graph.neighbors(g.n)), c_G=ks.start)
        bad = ext.nonlinear_power(ext_ks, field, caps)
        data = {"k_checked": list(ks)}
        out.append(_passed(statement, inst, data=data) if bad is None else _failed(statement, inst, bad))
    return out


def summarize_reports(reports) -> list:
    """Per-statement pass/fail/skip counts of report dicts (`to_json`) as sorted summary rows."""
    rows = {}
    for r in reports:
        st = r["statement"]
        row = rows.setdefault(
            st, {"statement": st, "instances": 0, "pass": 0, "fail": 0, "skipped": 0}
        )
        row["instances"] += 1
        row[r["verdict"]] += 1
    return [rows[k] for k in sorted(rows)]


# -- statement registry for the CLI ------------------------------------------------------


def _sets(g: Graph, p: dict):
    return [s for s in independent_sets(g) if len(s) < g.n] if p["sets"] is None else p["sets"]


def _keylemma(g: Graph, p: dict, *_) -> list:
    covers = minimal_vertex_covers(g) if p["covers"] is None else p["covers"]
    ks = [0, 1, 2] if p["k"] is None else [p["k"]]
    return [check_keylemma(g, c, k) for c in covers for k in ks]


class Statement(NamedTuple):
    """What one statement of `verify` or `scan` runs and reads.

    A graph statement (ideals empty) runs as run(g, params, field, caps, store), one report
    per sub-instance, with store the run's `InvariantStore`; if it lets CapExceeded out, g
    gets one skipped report.  An ideal statement runs as run(*inputs, field, caps), one
    report, with inputs named by ideals in that order.  params holds the parameters run
    reads, with their defaults; engine is False when the reports depend on neither the
    field nor the engine caps."""

    run: Callable
    params: dict
    ideals: tuple = ()
    engine: bool = True


_REGISTRY = {
    "froberg": Statement(lambda g, p, f, c, _: [check_froberg(g, f, c)], {}),
    "bounds": Statement(lambda g, p, f, c, _: [check_reg_bounds(g, f, c)], {}),
    "bht": Statement(lambda g, p, f, c, _: [check_bht_lower_bound(g, p["k_max"], f, c)], {"k_max": 3}),
    "hhz": Statement(lambda g, p, f, c, _: [check_hhz(g, p["k_max"], f, c)], {"k_max": 3}),
    "banerjee": Statement(lambda g, p, f, c, _: [check_banerjee(g, p["k_max"], f, c)], {"k_max": 3}),
    "suspension": Statement(
        lambda g, p, f, c, st: check_s_suspension_invariance(g, _sets(g, p), f, c, store=st), {"sets": None}
    ),
    "keylemma": Statement(_keylemma, {"covers": None, "k": None}, engine=False),
    "blemma": Statement(
        lambda g, p, *_: [check_blemma_colon_structure(g, p["k"])], {"k": 1}, engine=False
    ),
    "main1": Statement(lambda g, p, f, c, _: check_main1(g, _sets(g, p), p["k"], f, c), {"sets": None, "k": 2}),
    "main2": Statement(
        lambda g, p, f, c, st: check_main2(g, _sets(g, p), p["k_max"], f, c, st), {"sets": None, "k_max": 3}
    ),
    "deletion-probe": Statement(lambda g, p, f, c, st: [probe_vertex_deletions(g, f, c, st)], {}),
    "splitting": Statement(check_betti_splitting, {}, ("ideal", "part_j", "part_k")),
    "doublelinear": Statement(check_doublelinear, {}, ("ideal", "part_j", "part_k")),
    "colon": Statement(check_colon_reg_bound, {}, ("ideal", "monomial")),
    "abc": Statement(check_abc_bound, {}, ("part_j", "ideal")),
    "np": Statement(partial(_scan_power_linearity, "np"), {"k_max": 2, "reg_filter": None}),
    "generalnp": Statement(partial(_scan_power_linearity, "generalnp"), {"k_max": 2, "reg_filter": None}),
    "newconj2": Statement(_scan_extensions, {"k_max": 2, "c_g": 2}),
}

# the conjecture scans of `scan`
CONJECTURES = ("np", "generalnp", "newconj2")
# the statements of `verify`
STATEMENTS = tuple(st for st in _REGISTRY if st not in CONJECTURES)


def statement_params(statement: str, given: dict) -> dict:
    """The parameters of a statement: given over its defaults.  With given empty, the keys
    are exactly the parameters the statement reads.

    Raises ValueError for an unknown statement, a parameter it does not read, or a power
    range it cannot check."""
    if statement not in _REGISTRY:
        raise ValueError(f"unknown statement {statement!r}")
    defaults = _REGISTRY[statement].params
    for name in given:
        if name not in defaults:
            raise ValueError(f"{statement} does not read the parameter {name!r}")
    p = {**defaults, **given}
    if statement == "np" and p["k_max"] < 2:
        raise ValueError("np scans need k_max >= 2")
    if statement == "main2" and p["k_max"] < 2:
        raise ValueError("main2 needs k_max >= 2")
    if statement == "newconj2" and not p["k_max"] >= p["c_g"] >= 1:
        raise ValueError("newconj2 scans need k_max >= c_G >= 1")
    if statement == "main1" and p["k"] < 1:
        raise ValueError(f"main1 needs a power k >= 1, got {p['k']}")
    return p


def run_statement(
    statement: str,
    g: Graph,
    params: "dict | None" = None,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
    store: "InvariantStore | None" = None,
) -> list:
    """Run one named graph statement or conjecture scan on one graph; returns one report per
    sub-instance.  store is the run's `InvariantStore`, a new one for this call when None.
    Raises ValueError for an ideal statement."""
    p = statement_params(statement, params or {})
    entry = _REGISTRY[statement]
    if entry.ideals:
        raise ValueError(f"{statement} reads ideals, not a graph")
    try:
        return entry.run(g, p, field, caps, InvariantStore() if store is None else store)
    except CapExceeded as e:
        return [_skipped(statement, _ginst(g), f"engine cap hit: {e}")]
