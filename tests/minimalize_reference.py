"""Reference minimalization: the engine's former quadratic divisibility loop.

`monomials.minimalize` now tests each candidate with per-variable threshold
bitsets; this is the version it replaced, which compares every candidate with
every kept generator.  Both must give the same generators, because Betti
tables, verdicts, witnesses and cache keys follow from them.
"""

from edgeideals.monomials import MonomialIdeal, grlex_key


def reference_minimalize(nvars: int, monomials) -> MonomialIdeal:
    """Ideal minimally generated by the given exponent tuples (drop divisible ones)."""
    pool = set()
    for m in monomials:
        e = tuple(m)
        if len(e) != nvars:
            raise ValueError("generator ambient does not match requested ambient")
        if not any(e):
            return MonomialIdeal.unit(nvars)
        pool.add(e)
    # every ambient is checked above, so divisibility compares exponent tuples directly
    kept = []
    for e in sorted(pool, key=grlex_key):
        d = sum(e)
        if any(kd < d and all(map(int.__le__, ke, e)) for kd, ke in kept):
            continue
        kept.append((d, e))
    return MonomialIdeal(nvars, frozenset(e for _, e in kept))
