"""Direct checks of the exact linear algebra helpers."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclotoric.intlinalg import (
    dot,
    hnf,
    lattice_contains,
    primitive,
    solve_exact,
    vec_sub,
    vector_gcd,
    xgcd,
)

from _oracles import fraction_solve, nullspace

small_int = st.integers(-30, 30)


def square_matrices(n_max=4):
    return st.integers(1, n_max).flatmap(
        lambda n: st.lists(
            st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def fraction_det(m):
    """Reference determinant by rational Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return out


def hermite_index(m):
    """|det| of a square integer matrix as the product of its Hermite pivots, 0 if singular."""
    rows = hnf(m)
    return prod(row[i] for i, row in enumerate(rows)) if len(rows) == len(m) else 0


class TestDet:
    """|det| as the product of the Hermite pivots, against rational elimination."""

    @given(square_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_rational_elimination(self, m):
        assert Fraction(hermite_index(m)) == abs(fraction_det(m))

    def test_empty_and_singleton(self):
        assert hermite_index([]) == 1
        assert hermite_index([[7]]) == 7
        assert hermite_index([[-7]]) == 7

    def test_singular(self):
        assert hermite_index([[1, 2], [2, 4]]) == 0
        assert hermite_index([[0, 0], [0, 0]]) == 0


class TestPrimitive:
    def test_divides_out_gcd(self):
        assert primitive((4, -6, 8)) == (2, -3, 4)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            primitive((0, 0))

    def test_gcd_helper(self):
        assert vector_gcd((0, 0, 5, -10)) == 5
        assert vector_gcd(()) == 0


class TestXgcd:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_bezout(self, a, b):
        g, x, y = xgcd(a, b)
        import math

        assert g == math.gcd(a, b)
        assert x * a + y * b == g


class TestSolveExact:
    def test_unique_solution(self):
        sol = solve_exact([[1, 1], [1, -1], [2, 0]], [3, 1, 4])
        assert sol == (Fraction(2), Fraction(1))

    def test_inconsistent(self):
        assert solve_exact([[1, 0], [1, 0], [0, 1]], [1, 2, 0]) is None

    def test_rank_deficient_raises(self):
        with pytest.raises(ValueError):
            solve_exact([[1, 1], [2, 2]], [1, 2])

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.integers(n, n + 2).flatmap(
                    lambda m: st.lists(
                        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                        min_size=m,
                        max_size=m,
                    )
                ),
                st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                st.lists(st.integers(-3, 3), min_size=n + 2, max_size=n + 2),
                st.booleans(),
            )
        )
    )
    @example(([[1, 1], [2, 2]], [0, 0], [1, 2, 0, 0], False))  # rank deficient
    @example(([[1, 0], [1, 0], [0, 1]], [0, 0], [1, 2, 0, 0], False))  # inconsistent
    @example(([[2, 3], [4, -1], [6, 2]], [1, -2], [0, 0, 0, 0], True))  # consistent, m > n
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_elimination(self, system):
        # rhs is rows . c (consistent) or a free draw (often inconsistent when m > n)
        rows, c, free, consistent = system
        rhs = [dot(row, c) for row in rows] if consistent else free[: len(rows)]
        try:
            expected = fraction_solve(rows, rhs)
        except ValueError:
            with pytest.raises(ValueError, match="rank deficient"):
                solve_exact(rows, rhs)
            return
        assert solve_exact(rows, rhs) == expected
        if consistent:
            assert expected == tuple(map(Fraction, c))


class TestNullspace:
    @given(
        st.integers(1, 3).flatmap(
            lambda m: st.lists(
                st.lists(small_int, min_size=4, max_size=4), min_size=m, max_size=m
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_basis_annihilates(self, rows):
        basis = nullspace(rows)
        for v in basis:
            assert all(dot(row, v) == 0 for row in rows)
            assert vector_gcd(v) == 1
        # rank-nullity on the rational span
        rank = 4 - len(basis)
        assert 0 <= rank <= len(rows)


class TestHnf:
    @given(
        st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=5)
    )
    @settings(max_examples=150, deadline=None)
    def test_spans_same_lattice(self, rows):
        basis = hnf(rows)
        # echelon with positive pivots, reduced above
        pivots = []
        for r in basis:
            c = next(i for i, x in enumerate(r) if x)
            assert r[c] > 0
            pivots.append(c)
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for i, r in enumerate(basis):
            for j in range(i):
                c = next(k for k, x in enumerate(r) if x)
                assert 0 <= basis[j][c] < r[c]
        # mutual containment = same lattice
        for r in rows:
            assert lattice_contains(basis, r)
        rebuilt = hnf(list(basis) + list(rows))
        assert rebuilt == basis

    def test_membership(self):
        basis = hnf([[1, 0], [1, 2]])
        assert basis == [(1, 0), (0, 2)]
        assert lattice_contains(basis, (3, 4))
        assert not lattice_contains(basis, (3, 3))

    def test_empty(self):
        assert hnf([]) == []
        assert hnf([[0, 0]]) == []


def test_vec_sub_rejects_a_length_mismatch():
    assert vec_sub((3, 1, 4), (1, 1, 1)) == (2, 0, 3)
    with pytest.raises(ValueError):
        vec_sub((1, 2, 3), (1, 2))
