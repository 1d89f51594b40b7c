"""Instance verifiers for the regularity and splitting statements and the conjecture scans.

Every verifier returns a VerificationReport with verdict pass, fail or
skipped.  Failing reports always carry a witness that can be re-checked in
isolation; skipped reports name the unmet hypothesis or the engine cap that
was hit, so a scan never drops an instance silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .complexes import CapExceeded
from .graph6 import graph_to_graph6
from .graphs import (
    Graph,
    canonical_graph,
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
    Monomial,
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
    principal_ideal,
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
    intersection at every (i, j) and multidegree, then its reg/pd consequences."""
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
            mismatch = {"i": i, "multidegree": str(Monomial(e)), "lhs": lhs, "rhs": rhs}
            return _failed(statement, inst, mismatch)
    reg_lhs = tw.regularity()
    reg_rhs = max(tl.regularity(), tr.regularity(), tm.regularity() - 1)
    pd_lhs = tw.projective_dimension()
    pd_rhs = max(tl.projective_dimension(), tr.projective_dimension(), tm.projective_dimension() + 1)
    if reg_lhs != reg_rhs:
        return _failed(statement, inst, {"consequence": "reg", "lhs": reg_lhs, "rhs": reg_rhs})
    if pd_lhs != pd_rhs:
        return _failed(statement, inst, {"consequence": "pd", "lhs": pd_lhs, "rhs": pd_rhs})
    return _passed(statement, inst, data={"reg": reg_lhs, "pd": pd_lhs})


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
    """Verify the additivity identity of a generator partition, plus its reg/pd consequences."""
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
    m: Monomial,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> VerificationReport:
    """reg(I) <= max(reg(I:m)+deg m, reg(I,m)); equality when m is a variable of I.

    Raises ValueError for a zero or unit ideal, where the bound is not defined."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("the bound needs a nonzero proper ideal")
    inst = _ideal_inst(ideal) + f" m={m}"
    q = colon(ideal, m)
    s = ideal_sum(ideal, principal_ideal(m))
    if q.is_unit and s.is_unit:
        return _skipped("colon", inst, "degenerate: both the colon and the sum are the unit ideal")
    # colon equal to the whole ring contributes reg(R) = 0 to the bound
    term_colon = (0 if q.is_unit else regularity(q, field, caps)) + m.degree
    term_sum = None if s.is_unit else regularity(s, field, caps)
    terms = [term_colon] + ([term_sum] if term_sum is not None else [])
    r = regularity(ideal, field, caps)
    data = {"reg": r, "colon_term": term_colon, "sum_term": term_sum}
    if r > max(terms):
        return _failed("colon", inst, {"reg": r, "bound": max(terms)}, data=data)
    appears = m.is_variable and any(
        g.exps[m.support()[0]] for g in ideal.gens
    )
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
    if not all(ambient.contains(g) for g in sub.gens):
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


def check_blemma_colon_structure(
    g: Graph,
    n: int = 1,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> VerificationReport:
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
        quots = [gens[i].colon_quotient(last) for i in range(kk)]
        for j in range(kk):
            qj = quots[j]
            if next_power.contains(qj * last):
                continue
            if not any(q.degree == 1 and q.divides(qj) for q in quots):
                violations.append({"j": j + 1, "k": kk, "quotient": str(qj)})
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


def check_keylemma(
    g: Graph,
    cover,
    k: int,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> VerificationReport:
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
                {"L": str(gen), "colon": [str(x) for x in c.sorted_gens()]},
            )
    return _passed("keylemma", inst, data={"generators_checked": len(power.gens)})


# -- suspension statements ------------------------------------------------------------


def check_s_suspension_invariance(
    g: Graph,
    sets,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
    suspensions=None,
) -> list:
    """The one-vertex suspension preserves the induced matching number and regularity;
    one report per S in sets, in order.  A caller that has built s_suspension(g, S) for
    each S passes them, in the same order, as suspensions."""
    if not g.edges:
        raise ValueError("the invariance check needs a graph with at least one edge")
    im_g = induced_matching_number(g)
    reg_g = regularity(edge_ideal(g), field, caps)
    if suspensions is None:
        suspensions = [s_suspension(g, s) for s in sets]
    reports = []
    for s, gs in zip(sets, suspensions):
        inst = _ginst(g, S=s)
        im_gs = induced_matching_number(gs)
        reg_gs = regularity(edge_ideal(gs), field, caps)
        data = {"im": [im_g, im_gs], "reg": [reg_g, reg_gs]}
        if im_g != im_gs or reg_g != reg_gs:
            reports.append(_failed("suspension", inst, data, data=data))
        else:
            reports.append(_passed("suspension", inst, data=data))
    return reports


def _powers(ideal: MonomialIdeal, ks: range, field: Field, caps: EngineCaps):
    """(k, I^k, Betti table of I^k) for k in the consecutive range ks; each power after the
    first is one product with the power before it."""
    power = None
    for k in ks:
        power = ideal_power(ideal, k) if power is None else ideal_product(power, ideal)
        yield k, power, betti_table(power, field, caps)


def _nonlinear(k: int, table) -> "dict | None":
    """The witness that I^k, whose Betti table is table, has no linear resolution, i.e.
    reg(I^k) != 2k for an edge ideal I; None when it has one."""
    r = table.regularity()
    if r == 2 * k:
        return None
    return {"k": k, "reg": r, "expected": 2 * k, "table": table.to_json()}


def _linear_powers(ideal: MonomialIdeal, ks: range, field: Field, caps: EngineCaps) -> tuple:
    """(powers, witness): powers maps each k of the consecutive range ks, up to the first
    nonlinear power, to (I^k, its Betti table); witness is that power's `_nonlinear` witness,
    or None when every power in ks is linear."""
    powers = {}
    for k, power, table in _powers(ideal, ks, field, caps):
        powers[k] = power, table
        witness = _nonlinear(k, table)
        if witness is not None:
            return powers, witness
    return powers, None


def _power_hypothesis(g: Graph, k_max: int, field: Field, caps: EngineCaps) -> tuple:
    """(unmet, base, powers): why g fails the hypotheses of main1 and main2 (gap-free,
    I^j linear for 2 <= j <= k_max), or None when it meets them.

    base is I(G) in n + 1 variables and powers maps each j >= 2 checked to (I(G)^j, its
    Betti table), also in n + 1 variables.  The extra variable divides no generator, so it
    changes no Betti number."""
    base = embed(edge_ideal(g), g.n + 1)
    if not is_gap_free(g):
        return "hypothesis unmet: graph is not gap-free", base, {}
    powers, bad = _linear_powers(base, range(2, k_max + 1), field, caps)
    if bad is not None:
        return f"hypothesis unmet: I^{bad['k']} has no linear resolution", base, powers
    return None, base, powers


def _suspension_parts(g: Graph, s, ks: range):
    """(k, I(G_S)^k, star * I(G_S)^(k-1)) for k in the consecutive range ks, where star is
    the ideal of the suspension's new edges z*x_v, v outside S, with z = x_n.  Then
    I(G_S)^k = I(G)^k + star * I(G_S)^(k-1), and each yielded ideal is one product."""
    igs = edge_ideal(s_suspension(g, s))
    z = Monomial.variable(g.n + 1, g.n)
    star = minimalize(
        g.n + 1, (z * Monomial.variable(g.n + 1, v) for v in range(g.n) if v not in s)
    )
    below = ideal_power(igs, ks.start - 1)
    for k in ks:
        whole = ideal_product(below, igs)
        yield k, whole, ideal_product(star, below)
        below = whole


def check_main1(
    g: Graph,
    sets,
    k: int = 2,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> list:
    """The k-th power of a suspended edge ideal splits along the new vertex; one report
    per S in sets, in order.  The S-independent I(G)^k and its table are computed once."""
    if not g.edges:
        raise ValueError("needs a graph with at least one edge")
    unmet, base, powers = _power_hypothesis(g, k, field, caps)
    if unmet is not None:
        return [_skipped("main1", _ginst(g, S=s, k=k), unmet) for s in sets]
    left, tl = powers[k] if k in powers else (base, betti_table(base, field, caps))
    # for k >= 2 the intersection is z * I(G)^k for every S, so its table is shared
    meets = {}
    reports = []
    for s in sets:
        [(_, whole, right)] = _suspension_parts(g, s, range(k, k + 1))
        if set(left.gens) & set(right.gens) or set(left.gens) | set(right.gens) != set(whole.gens):
            raise RuntimeError("internal error: construction is not a generator partition")
        tw = betti_table(whole, field, caps)
        tr = betti_table(right, field, caps)
        meet = intersect(left, right)
        if meet not in meets:
            meets[meet] = betti_table(meet, field, caps)
        reports.append(_splitting_report("main1", _ginst(g, S=s, k=k), tw, tl, tr, meets[meet]))
    return reports


def check_main2(
    g: Graph,
    sets,
    k_max: int = 3,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> list:
    """Powers >= 2 of a suspended edge ideal stay linear, with the intersection identity;
    one report per S in sets, in order.  The S-independent powers of I(G) are computed once."""
    if not g.edges:
        raise ValueError("needs a graph with at least one edge")
    unmet, _, powers = _power_hypothesis(g, k_max, field, caps)
    if unmet is not None:
        return [_skipped("main2", _ginst(g, S=s, k_max=k_max), unmet) for s in sets]
    z = principal_ideal(Monomial.variable(g.n + 1, g.n))
    z_parts = {k: ideal_product(z, power) for k, (power, _) in powers.items()}
    return [_check_main2_set(g, s, k_max, powers, z_parts, field, caps) for s in sets]


def _check_main2_set(g, s, k_max, powers, z_parts, field, caps):
    """The main2 report of one set S; powers maps k to (I(G)^k, its table), z_parts to z * I(G)^k."""
    inst = _ginst(g, S=s, k_max=k_max)
    for k, whole, right in _suspension_parts(g, s, range(2, k_max + 1)):
        bad = _nonlinear(k, betti_table(whole, field, caps))
        if bad is not None:
            return _failed("main2", inst, bad)
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
    powers, bad = _linear_powers(ideal, range(2, k_max + 1), field, caps)
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
    for k, _, table in _powers(edge_ideal(g), ks, field, caps):
        rk = regs[k] = table.regularity()
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
    powers, bad = _linear_powers(ideal, range(1, k_max + 1), field, caps)
    if bad is not None:
        return _failed("hhz", inst, bad)
    lq = linear_quotients_order(ideal, caps)
    if lq.status == "unknown":
        return _skipped("hhz", inst, f"linear-quotients search inconclusive: {lq.reason}")
    if lq.status != "found":
        return _failed("hhz", inst, {"linear_quotients": "none found"})
    order = [str(m) for m in lq.order]
    return _passed("hhz", inst, data={"power_regs": {k: 2 * k for k in powers}, "quotient_order": order})


# -- invariant one-vertex extensions ------------------------------------------------------


def is_im_reg_invariant_extension(
    g: Graph,
    ext: Graph,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
) -> bool:
    """True when ext adds one vertex to g preserving both im and regularity."""
    if ext.n != g.n + 1:
        raise ValueError("extension must have exactly one more vertex")
    if induced_subgraph(ext, range(g.n)) != g:
        raise ValueError("extension does not restrict to the original graph")
    if not g.edges:
        raise ValueError("needs a graph with at least one edge")
    if induced_matching_number(ext) != induced_matching_number(g):
        return False
    return regularity(edge_ideal(ext), field, caps) == regularity(edge_ideal(g), field, caps)


def _invariant_extensions(g: Graph, field: Field, caps: EngineCaps, reg_g=None, exts=None) -> list:
    """enumerate_im_reg_extensions, for a caller that may already know reg_g = reg(I(g))."""
    if exts is None:
        exts = one_vertex_extensions(g)
    if not exts:
        return []
    if not g.edges:
        raise ValueError("needs a graph with at least one edge")
    im_g = induced_matching_number(g)
    if reg_g is None:
        reg_g = regularity(edge_ideal(g), field, caps)
    return [
        ext
        for ext in exts
        if induced_matching_number(ext) == im_g
        and regularity(edge_ideal(ext), field, caps) == reg_g
    ]


def enumerate_im_reg_extensions(
    g: Graph,
    field: Field = RATIONALS,
    caps: EngineCaps = DEFAULT_CAPS,
    exts=None,
) -> list:
    """All one-vertex extensions of g preserving im and regularity, in the order of
    `one_vertex_extensions`; a caller that has built that list passes it as exts."""
    return _invariant_extensions(g, field, caps, exts=exts)


def probe_vertex_deletions(
    g: Graph, field: Field = RATIONALS, caps: EngineCaps = DEFAULT_CAPS
) -> VerificationReport:
    """Exploratory probe: regularity of every one-vertex-deleted induced subgraph."""
    inst = _ginst(g)
    # deleting vertices of one orbit leaves the same relabelled subgraph
    reg_of = {}
    regs = {}
    for v in range(g.n):
        h = induced_subgraph(g, [u for u in range(g.n) if u != v])
        if h.edges and h not in reg_of:
            reg_of[h] = regularity(edge_ideal(h), field, caps)
        regs[str(v)] = reg_of[h] if h.edges else None
    return _passed("deletion-probe", inst, data={"deleted_vertex_reg": regs})


# -- conjecture scans -------------------------------------------------------------------


def _scan_power_linearity(statement: str, g: Graph, p: dict, field: Field, caps: EngineCaps) -> list:
    """np or generalnp on one graph, reported on its canonical form; no report for a
    graph outside the scan's hypotheses."""
    if not g.edges or not is_gap_free(g):
        return []
    cg = canonical_graph(g)
    inst = _ginst(cg)
    reg_filter = p["reg_filter"]
    try:
        ideal = edge_ideal(cg)
        r = regularity(ideal, field, caps)
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
        _, bad = _linear_powers(ideal, range(max(2, ks.start), ks.stop), field, caps)
        if bad is not None:
            return [_failed(statement, inst, bad)]
        return [_passed(statement, inst, data={"reg": r, "k_checked": list(ks)})]
    except CapExceeded as e:
        return [_skipped(statement, inst, f"engine cap hit: {e}")]


def _scan_extensions(g: Graph, p: dict, field: Field, caps: EngineCaps) -> list:
    """newconj2 on one graph: one report per im/reg-invariant one-vertex extension."""
    statement = "newconj2"
    if not g.edges:
        return []
    base_inst = _ginst(g)
    ks = range(p["c_g"], p["k_max"] + 1)
    if not is_gap_free(g):
        return [_skipped(statement, base_inst, "hypothesis unmet: base graph is not gap-free")]
    _, bad = _linear_powers(edge_ideal(g), ks, field, caps)
    if bad is not None:
        reason = f"hypothesis unmet: base reg(I^{bad['k']}) = {bad['reg']} != {bad['expected']}"
        return [_skipped(statement, base_inst, reason)]
    # with k = 1 in ks the base check has shown reg(I) = 2, which each
    # invariant extension keeps, so k = 1 passes for every extension
    reg_g = 2 if ks.start == 1 else None
    ext_ks = range(max(2, ks.start), ks.stop)
    out = []
    for ext in _invariant_extensions(g, field, caps, reg_g):
        inst = _ginst(g, z_neighborhood=sorted(ext.neighbors(g.n)), c_G=ks.start)
        _, bad = _linear_powers(edge_ideal(ext), ext_ks, field, caps)
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


def _keylemma(g: Graph, p: dict, field: Field, caps: EngineCaps) -> list:
    covers = minimal_vertex_covers(g) if p["covers"] is None else p["covers"]
    ks = [0, 1, 2] if p["k"] is None else [p["k"]]
    return [check_keylemma(g, c, k, field, caps) for c in covers for k in ks]


# statement -> (handler(g, params, field, caps) giving one report per sub-instance, the
# parameters the handler reads with their defaults); a handler that lets CapExceeded out
# gets one skipped report on g for the whole graph
_REGISTRY = {
    "froberg": (lambda g, p, f, c: [check_froberg(g, f, c)], {}),
    "bounds": (lambda g, p, f, c: [check_reg_bounds(g, f, c)], {}),
    "bht": (lambda g, p, f, c: [check_bht_lower_bound(g, p["k_max"], f, c)], {"k_max": 3}),
    "hhz": (lambda g, p, f, c: [check_hhz(g, p["k_max"], f, c)], {"k_max": 3}),
    "banerjee": (lambda g, p, f, c: [check_banerjee(g, p["k_max"], f, c)], {"k_max": 3}),
    "suspension": (
        lambda g, p, f, c: check_s_suspension_invariance(g, _sets(g, p), f, c),
        {"sets": None},
    ),
    "keylemma": (_keylemma, {"covers": None, "k": None}),
    "blemma": (lambda g, p, f, c: [check_blemma_colon_structure(g, p["k"], f, c)], {"k": 1}),
    "main1": (lambda g, p, f, c: check_main1(g, _sets(g, p), p["k"], f, c), {"sets": None, "k": 2}),
    "main2": (
        lambda g, p, f, c: check_main2(g, _sets(g, p), p["k_max"], f, c),
        {"sets": None, "k_max": 3},
    ),
    "deletion-probe": (lambda g, p, f, c: [probe_vertex_deletions(g, f, c)], {}),
    "np": (partial(_scan_power_linearity, "np"), {"k_max": 2, "reg_filter": None}),
    "generalnp": (partial(_scan_power_linearity, "generalnp"), {"k_max": 2, "reg_filter": None}),
    "newconj2": (_scan_extensions, {"k_max": 2, "c_g": 2}),
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
    defaults = _REGISTRY[statement][1]
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
) -> list:
    """Run one named statement or conjecture scan on one graph; returns one report per
    sub-instance."""
    p = statement_params(statement, params or {})
    try:
        return _REGISTRY[statement][0](g, p, field, caps)
    except CapExceeded as e:
        return [_skipped(statement, _ginst(g), f"engine cap hit: {e}")]
