"""Reference minimalization: the engine's former quadratic divisibility loop.

`monomials.minimalize` now tests each candidate with per-variable threshold
bitsets; this is the version it replaced, which compares every candidate with
every kept generator.  Both must give the same generators, because Betti
tables, verdicts, witnesses and cache keys follow from them.
"""

from edgeideals.monomials import Monomial, MonomialIdeal, grlex_key


def reference_minimalize(nvars: int, monomials) -> MonomialIdeal:
    """Ideal minimally generated by the given monomials (drop divisible ones)."""
    pool = set()
    for m in monomials:
        if not isinstance(m, Monomial):
            m = Monomial(tuple(m))
        if m.nvars != nvars:
            raise ValueError("generator ambient does not match requested ambient")
        if m.is_unit:
            return MonomialIdeal.unit(nvars)
        pool.add(m.exps)
    # every ambient is checked above, so divisibility compares exponent tuples directly
    kept = []
    for e in sorted(pool, key=grlex_key):
        d = sum(e)
        if any(kd < d and all(map(int.__le__, ke, e)) for kd, ke in kept):
            continue
        kept.append((d, e))
    return MonomialIdeal(nvars, frozenset(e for _, e in kept))
