"""Direct checks of the exact linear algebra helpers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotoric.intlinalg import (
    cross_normal,
    det,
    dot,
    hnf,
    hyperplane_lattice_index,
    lattice_contains,
    mat_mul,
    primitive,
    solve_dot_one,
    solve_exact,
    unit_lower_inverse,
    vector_gcd,
    xgcd,
)

from _oracles import nullspace

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


class TestDet:
    @given(square_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_rational_elimination(self, m):
        assert Fraction(det(m)) == fraction_det(m)

    def test_empty_and_singleton(self):
        assert det([]) == 1
        assert det([[7]]) == 7

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0


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

    @given(st.lists(small_int, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_solve_dot_one(self, v):
        g = vector_gcd(v)
        if g == 0:
            return
        v = [x // g for x in v]
        w = solve_dot_one(v)
        assert dot(v, w) == 1

    def test_solve_dot_one_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            solve_dot_one((2, 4))


class TestSolveExact:
    def test_unique_solution(self):
        sol = solve_exact([[1, 1], [1, -1], [2, 0]], [3, 1, 4])
        assert sol == (Fraction(2), Fraction(1))

    def test_inconsistent(self):
        assert solve_exact([[1, 0], [1, 0], [0, 1]], [1, 2, 0]) is None

    def test_rank_deficient_raises(self):
        with pytest.raises(ValueError):
            solve_exact([[1, 1], [2, 2]], [1, 2])


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


class TestCrossNormal:
    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.lists(
                st.lists(small_int, min_size=d + 1, max_size=d + 1),
                min_size=d,
                max_size=d,
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_orthogonal_to_rows(self, rows):
        normal = cross_normal(rows)
        assert all(dot(row, normal) == 0 for row in rows)


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


class TestHyperplaneIndex:
    def test_full_slice(self):
        # plane x0 + x1 + x2 = 0 has basis (1,-1,0),(0,1,-1)
        assert hyperplane_lattice_index([(1, -1, 0), (0, 1, -1)], (1, 1, 1)) == 1

    def test_proper_sublattice(self):
        assert hyperplane_lattice_index([(2, -2, 0), (0, 1, -1)], (1, 1, 1)) == 2

    def test_rejects_off_plane_vectors(self):
        with pytest.raises(ValueError):
            hyperplane_lattice_index([(1, 0, 0)], (1, 1, 1))


class TestUnitLowerInverse:
    @given(st.integers(1, 5), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_inverse(self, n, rng):
        u = [[1 if i == j else (rng.randint(-9, 9) if j < i else 0) for j in range(n)] for i in range(n)]
        inv = unit_lower_inverse(u)
        prod = mat_mul(u, inv)
        assert prod == tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)
        )
