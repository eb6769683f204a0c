"""Divided-difference vectors: integrality, recursion, bases, value-1 points."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotoric.core import InvalidParameters, build_params, vertex
from cyclotoric.divdiff import (
    bvec,
    cone_coefficients,
    facet_chain_basis,
    facet_lattice_index,
    r1_witness,
    support_form,
)
from cyclotoric.faces import NotAFacet, facet_hyperplane, facets
from cyclotoric.intlinalg import det

from _oracles import basis_matrix, bvec_alternating, bvec_recursion_check
from _strategies import cyclo_params, params_with_subset


class TestBvec:
    def test_singleton_is_vertex(self):
        p = build_params(2, [0, 1, 3])
        assert bvec({1}, p) == vertex(p, 1)
        assert bvec({3}, p) == vertex(p, 3)

    def test_three_point_example(self):
        assert bvec({1, 2, 3}, build_params(2, [0, 1, 3])) == (0, 0, 1)

    def test_vanishes_beyond_rank(self):
        p = build_params(2, [0, 1, 3, 4, 7])
        assert bvec({1, 2, 3, 4}, p) == (0, 0, 0)
        assert bvec({1, 2, 3, 4, 5}, p) == (0, 0, 0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameters):
            bvec((), build_params(2, [0, 1, 3]))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParameters):
            bvec({4}, build_params(2, [0, 1, 3]))

    def test_order_independent(self):
        p = build_params(3, [0, 2, 3, 5])
        assert bvec((3, 1, 4), p) == bvec((1, 3, 4), p)

    @given(params_with_subset(max_d=5, max_n=8))
    @settings(max_examples=150, deadline=None)
    def test_integral_and_matches_alternating_form(self, case):
        p, s = case
        v = bvec(s, p)
        alt = bvec_alternating(s, p)
        assert all(Fraction(x) == y for x, y in zip(v, alt, strict=True))

    @given(params_with_subset(max_d=5, max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_zero_iff_set_too_large(self, case):
        p, s = case
        assert (bvec(s, p) == (0,) * (p.d + 1)) == (len(s) >= p.d + 2)


class TestRecursion:
    def test_three_point_case(self):
        assert bvec_recursion_check({1, 2, 3}, 1, 3, build_params(2, [0, 1, 3]))

    def test_two_point_case(self):
        assert bvec_recursion_check({1, 2}, 1, 2, build_params(2, [0, 1, 3]))

    def test_rejects_bad_pivots(self):
        p = build_params(2, [0, 1, 3])
        with pytest.raises(InvalidParameters):
            bvec_recursion_check({1, 2}, 1, 1, p)
        with pytest.raises(InvalidParameters):
            bvec_recursion_check({1, 2}, 1, 3, p)

    @given(params_with_subset(max_d=5, max_n=8), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_random_triples(self, case, rng):
        p, s = case
        if len(s) < 2:
            s = (1, 2)
        a, b = rng.sample(s, 2)
        assert bvec_recursion_check(s, a, b, p)


class TestBasisMatrix:
    def test_sorted_order(self):
        p = build_params(2, [0, 1, 3])
        m = basis_matrix((1, 2, 3), p)
        assert m[0] == (1, 0, 0)
        assert abs(det(m)) == 1

    def test_scrambled_order(self):
        assert abs(det(basis_matrix((3, 1, 2), build_params(2, [0, 1, 3])))) == 1

    def test_segment(self):
        assert abs(det(basis_matrix((1, 2), build_params(1, [0, 5])))) == 1

    def test_rejects_repeats_and_wrong_arity(self):
        p = build_params(2, [0, 1, 3])
        with pytest.raises(InvalidParameters):
            basis_matrix((1, 1, 2), p)
        with pytest.raises(InvalidParameters):
            basis_matrix((1, 2), p)

    @given(cyclo_params(max_d=5, max_n=8), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_always_unimodular(self, p, rng):
        idx = rng.sample(range(1, p.n + 1), p.d + 1)
        assert abs(det(basis_matrix(idx, p))) == 1


class TestSupportForm:
    def test_examples(self):
        p = build_params(2, [0, 1, 3])
        assert support_form((2, 3), p).normal == (3, -4, 1)
        assert support_form((1, 2), p).normal == (0, -1, 1)

    @given(cyclo_params(max_d=4, max_n=7, max_gap=3))
    @settings(max_examples=30, deadline=None)
    def test_vanishes_exactly_on_facet(self, p):
        for w in facets(p):
            sf = support_form(w, p)
            for i in range(1, p.n + 1):
                val = sf.value_on(vertex(p, i))
                assert (val == 0) == (i in w)
                assert val >= 0


class TestFacetChainBasis:
    def test_example_vectors(self):
        p = build_params(2, [0, 1, 3])
        assert facet_chain_basis((2, 3), p) == [(1, 2, 5), (1, 3, 9)]

    def test_last_vector_is_last_vertex(self):
        p = build_params(3, [0, 1, 3, 4, 6])
        for w in facets(p):
            assert facet_chain_basis(w, p)[-1] == vertex(p, max(w))

    def test_rejects_non_facet(self):
        with pytest.raises(NotAFacet):
            facet_chain_basis((1, 3), build_params(2, [0, 1, 2, 3]))

    @given(cyclo_params(max_d=4, max_n=6, max_gap=3))
    @settings(max_examples=30, deadline=None)
    def test_in_facet_with_nonnegative_coordinates(self, p):
        for w in facets(p):
            sf = support_form(w, p)
            vecs = facet_chain_basis(w, p)
            for c in vecs:
                assert sf.value_on(c) == 0
            if p.d >= 1:
                # exact coordinates over the facet vertices are >= 0
                from cyclotoric.intlinalg import solve_exact

                cols = [vertex(p, i) for i in w]
                rows = [[col[t] for col in cols] for t in range(p.d + 1)]
                for c in vecs:
                    sol = solve_exact(rows, list(c))
                    assert sol is not None and all(x >= 0 for x in sol)

    @given(cyclo_params(max_d=4, max_n=7, max_gap=3))
    @settings(max_examples=30, deadline=None)
    def test_lattice_index_one(self, p):
        for w in facets(p):
            assert facet_lattice_index(w, p) == 1


class TestR1Witness:
    def test_example_point(self):
        p = build_params(2, [0, 1, 3])
        x = r1_witness((2, 3), 1, p)
        assert x == (1, 1, 2)
        assert support_form((2, 3), p).value_on(x) == 1

    def test_other_facet(self):
        p = build_params(2, [0, 1, 3])
        x = r1_witness((1, 2), 3, p)
        assert support_form((1, 2), p).value_on(x) == 1
        coeffs = cone_coefficients(x, (1, 2, 3), p)
        assert all(c >= 0 for c in coeffs)

    def test_rejects_apex_in_facet(self):
        with pytest.raises(InvalidParameters):
            r1_witness((2, 3), 2, build_params(2, [0, 1, 3]))

    def test_rejects_apex_out_of_range(self):
        with pytest.raises(InvalidParameters):
            r1_witness((2, 3), 9, build_params(2, [0, 1, 3]))

    @given(cyclo_params(max_d=4, max_n=7, max_gap=3))
    @settings(max_examples=30, deadline=None)
    def test_value_one_and_cone_membership(self, p):
        hps = [facet_hyperplane(w, p) for w in facets(p)]
        for w in facets(p):
            sf = support_form(w, p)
            for k in range(1, p.n + 1):
                if k in w:
                    continue
                x = r1_witness(w, k, p)
                assert sf.value_on(x) == 1
                assert all(h.slack(x) >= 0 for h in hps)


class TestConeCoefficients:
    def test_exact_solution(self):
        p = build_params(2, [0, 1, 3])
        coeffs = cone_coefficients((1, 1, 2), (1, 2, 3), p)
        assert coeffs == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))
        combo = [
            sum(c * v for c, v in zip(coeffs, col))
            for col in zip(*[vertex(p, i) for i in (1, 2, 3)])
        ]
        assert combo == [1, 1, 2]

    def test_wrong_arity(self):
        with pytest.raises(InvalidParameters):
            cone_coefficients((1, 1, 2), (1, 2), build_params(2, [0, 1, 3]))
