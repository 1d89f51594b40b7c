"""Exact rank computation against independent oracle implementations."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from edgeideals.linalg import Field, GF2, RATIONALS, bareiss_rank, mod_p_rank, unit_pivot_rank


def fraction_rank(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(nr):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _det_mod_p(rows, p):
    n = len(rows)
    if n == 1:
        return rows[0][0] % p
    total = 0
    sign = 1
    for c in range(n):
        sub = [[rows[i][cc] for cc in range(n) if cc != c] for i in range(1, n)]
        total = (total + sign * rows[0][c] * _det_mod_p(sub, p)) % p
        sign = -sign
    return total % p


def minor_rank_mod_p(rows, p):
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    for k in range(min(nr, nc), 0, -1):
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                sub = [[rows[i][j] for j in cs] for i in rs]
                if _det_mod_p(sub, p):
                    return k
    return 0


def random_matrix(rnd, nr, nc, lo=-3, hi=3):
    return [[rnd.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def test_rank_over_q_against_fraction_elimination():
    rnd = random.Random(17)
    for _ in range(300):
        m = random_matrix(rnd, rnd.randint(1, 8), rnd.randint(1, 8))
        assert bareiss_rank(m) == fraction_rank(m)


def test_rank_over_q_structured_rank_deficient():
    rnd = random.Random(18)
    for _ in range(100):
        # build a matrix of known rank r as a product of thin factors
        nr, nc = rnd.randint(2, 7), rnd.randint(2, 7)
        r = rnd.randint(0, min(nr, nc))
        a = random_matrix(rnd, nr, r)
        b = random_matrix(rnd, r, nc)
        m = [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(nc)] for i in range(nr)]
        got = bareiss_rank(m)
        assert got == fraction_rank(m)
        assert got <= r


def test_rank_mod_p_against_minor_oracle():
    rnd = random.Random(19)
    for p in (2, 3, 5):
        for _ in range(60):
            m = random_matrix(rnd, rnd.randint(1, 4), rnd.randint(1, 5))
            assert mod_p_rank(m, p) == minor_rank_mod_p(m, p)


def test_rank_fields_can_differ():
    # 2x2 matrix with determinant 2: full rank over Q, rank 1 over GF(2)
    m = [[1, 1], [1, -1]]
    assert RATIONALS.matrix_rank(m) == 2
    assert GF2.matrix_rank(m) == 1


def test_boundary_like_sparse_matrices():
    rnd = random.Random(20)
    for _ in range(150):
        nr, nc = rnd.randint(1, 10), rnd.randint(1, 10)
        m = [
            [rnd.choice([0, 0, 0, 1, -1]) for _ in range(nc)]
            for _ in range(nr)
        ]
        assert bareiss_rank(m) == fraction_rank(m)


def test_unit_pivot_rank_matches_dense_ranks():
    # entries +-2 give non-unit pivots over Q, so the set-aside path runs too
    rnd = random.Random(21)
    for _ in range(300):
        nr, nc = rnd.randint(1, 9), rnd.randint(1, 9)
        m = [[rnd.choice([0, 0, 0, 1, -1, 2, -2]) for _ in range(nc)] for _ in range(nr)]
        for field in (RATIONALS, GF2, Field(3)):
            # the reducer takes only entries that are nonzero in the field
            p = field.p or 0
            columns = [
                {i: m[i][j] for i in range(nr) if (m[i][j] % p if p else m[i][j])}
                for j in range(nc)
            ]
            rank, pivots = unit_pivot_rank(columns, field)
            assert rank == field.matrix_rank(m)
            assert len(pivots) <= rank and set(pivots) <= set(range(nr))
            if field.p is None:
                assert rank == fraction_rank(m)


def test_field_tokens_and_validation():
    assert RATIONALS.token() == "Q"
    assert Field(7).token() == "GF(7)"
    assert Field.from_token("gf2") == GF2
    assert Field.from_token("GF(3)") == Field(3)
    assert Field.from_token("Q").p is None
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field.from_token("R")


def test_fields_refuse_a_prime_of_2_to_the_31_before_trial_division(monkeypatch):
    from edgeideals import linalg

    assert Field(2**31 - 1).token() == "GF(2147483647)"

    def refuse(k):
        raise AssertionError(f"trial division of {k}")

    monkeypatch.setattr(linalg, "_is_prime", refuse)
    for p in (2**31, 1000000000000000003):
        with pytest.raises(ValueError, match=r"p < 2\^31"):
            Field(p)


def test_empty_and_degenerate_matrices():
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[0, 0]]) == 0
    assert mod_p_rank([[0]], 5) == 0
