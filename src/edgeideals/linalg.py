"""Exact rank computation over the rationals and over prime fields.

Dense rank runs one fraction-free elimination loop on Python integers: Bareiss
over Q, so integer matrices are handled exactly with no floating point
anywhere, and the same updates reduced mod p over GF(p).  Sparse boundary
matrices go through `unit_pivot_rank`, which eliminates with unit pivots only
and hands the rest to the dense kernels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isqrt


def _is_prime(k: int) -> bool:
    return k >= 2 and all(k % d for d in range(2, isqrt(k) + 1))


@dataclass(frozen=True, slots=True)
class Field:
    """Coefficient field: rationals when p is None, otherwise GF(p) for a prime p < 2^31."""

    p: "int | None" = None

    def __post_init__(self):
        # p < 2^31 keeps the trial division of _is_prime under 2^16 steps
        if self.p is not None and (self.p >= 1 << 31 or not _is_prime(self.p)):
            raise ValueError(f"GF(p) needs a prime p < 2^31, got {self.p}")

    def token(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"

    def matrix_rank(self, rows) -> int:
        """Rank of an integer matrix, given as a list of row lists."""
        if self.p is None:
            return bareiss_rank(rows)
        return mod_p_rank(rows, self.p)

    @staticmethod
    def from_token(text: str) -> "Field":
        s = text.strip()
        if s in ("Q", "q", "QQ"):
            return RATIONALS
        m = re.match(r"(?i)^gf\(?(\d+)\)?$", s)
        if m:
            return Field(int(m.group(1)))
        raise ValueError(f"unknown field {text!r} (use Q or GF(p))")


RATIONALS = Field()
GF2 = Field(2)


def bareiss_rank(rows) -> int:
    """Exact rank over Q of an integer matrix via fraction-free elimination."""
    return _fraction_free_rank([list(r) for r in rows], None)


def mod_p_rank(rows, p: int) -> int:
    """Rank over GF(p) of an integer matrix via fraction-free elimination mod p."""
    return _fraction_free_rank([[v % p for v in r] for r in rows], p)


def _fraction_free_rank(m: list, p) -> int:
    """Rank of the row lists m, eliminated in place: over Q when p is None, else over GF(p).

    Each update is row = row * pivot - f * pivot_row.  Over Q it ends with the
    exact division by the previous pivot (Bareiss): every intermediate entry is
    a minor of the input, so there is no coefficient blowup beyond determinant
    size.  Over GF(p) it ends with % p; the scaling by the nonzero pivot is a
    unit there, so it keeps the rank.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    for c in range(nc):
        if rank == nr:
            break
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        pv = pr[c]
        for i in range(rank + 1, nr):
            row = m[i]
            f = row[c]
            for j in range(c + 1, nc):
                v = row[j] * pv - f * pr[j]
                row[j] = v // prev if p is None else v % p
            row[c] = 0
        prev = pv
        rank += 1
    return rank


def unit_pivot_rank(columns, field: Field) -> tuple:
    """Rank over `field` of a sparse integer matrix, and the rows of its unit pivots.

    `columns` holds one dict {row: int} per column, every entry nonzero in
    `field` (the +-1 entries of a boundary matrix are); rows are ints and a
    column's lowest entry is the one on its largest row.  This is the
    standard lowest-pivot column reduction, except that a pivot is always a
    unit: +-1 over Q, any nonzero residue over GF(p).  Every update is then
    exact integer or mod-p arithmetic with no division.

    A column whose lowest entry is not a unit is set aside.  Once every pivot
    is known, each set-aside column is reduced until no entry sits on a pivot
    row, and `field.matrix_rank` ranks what is left on the other rows.  The
    pivot columns are independent and triangular on their pivot rows, so the
    rank is their count plus that remainder rank.  `field.matrix_rank` is
    called exactly once, on an empty matrix when nothing was set aside.

    The pivot rows are returned so that a caller reducing a chain complex can
    skip the columns of the next boundary map that they name (clearing).
    """
    p = field.p
    pivots = {}  # pivot row -> its reduced column, scaled to 1 on that row
    aside = []
    for col in columns:
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                break
            _subtract(col, col[low], piv, p)
        else:
            continue
        unit = col[low]
        if p is None:
            if unit == -1:
                col = {r: -v for r, v in col.items()}
            elif unit != 1:
                aside.append(col)
                continue
        elif unit % p != 1:
            inv = pow(unit, -1, p)
            col = {r: v * inv % p for r, v in col.items()}
        pivots[low] = col
    for col in aside:
        while True:
            hits = [r for r in col if r in pivots]
            if not hits:
                break
            r = max(hits)
            _subtract(col, col[r], pivots[r], p)
    rows = sorted({r for col in aside for r in col})
    rest = field.matrix_rank([[col.get(r, 0) for col in aside] for r in rows])
    return len(pivots) + rest, pivots.keys()


def _subtract(col: dict, f: int, piv: dict, p) -> None:
    """col -= f * piv in place (mod p unless p is None), dropping entries that vanish."""
    for r, v in piv.items():
        w = col.get(r, 0) - f * v
        if p is not None:
            w %= p
        if w:
            col[r] = w
        else:
            del col[r]
