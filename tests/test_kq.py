"""The vertex semigroup: lattice, principal relation, and normality routes."""

from math import comb

import pytest
from hypothesis import given, settings

from cyclotoric.core import InvalidParameters, build_params, moment_matrix, vertex
from cyclotoric.intlinalg import mat_vec
from cyclotoric.kq import (
    classify_kq,
    divisibility_test,
    generator_lattice,
    is_normal_kq_bruteforce,
    kernel_binomial,
)

from _oracles import leading_facet_heights, nonface_partitions
from _strategies import cyclo_params


class TestGeneratorLattice:
    def test_segment_index_two(self):
        gl = generator_lattice(build_params(1, [0, 2]))
        assert gl.hnf_basis == ((1, 0), (0, 2))
        assert gl.index_in_ambient == 2

    def test_coprime_gaps_fill_plane(self):
        gl = generator_lattice(build_params(1, [0, 1, 3]))
        assert gl.index_in_ambient == 1

    def test_simplex_index_is_difference_product(self):
        # square full-rank span: index equals the vertex determinant
        gl = generator_lattice(build_params(2, [0, 1, 2]))
        assert gl.index_in_ambient == 2
        gl = generator_lattice(build_params(2, [0, 1, 3]))
        assert gl.index_in_ambient == 6

    @given(cyclo_params(max_d=4, max_n=7, max_gap=3))
    @settings(max_examples=40, deadline=None)
    def test_contains_vertices_and_their_combinations(self, p):
        from cyclotoric.intlinalg import vec_add, vec_sub

        gl = generator_lattice(p)
        for i in range(1, p.n + 1):
            assert gl.contains(vertex(p, i))
        assert gl.contains(vec_sub(vertex(p, 1), vertex(p, p.n)))
        assert gl.contains(vec_add(vertex(p, 1), vertex(p, 2)))

    @given(cyclo_params(max_d=3, max_n=4, max_gap=3))
    @settings(max_examples=30, deadline=None)
    def test_simplex_index_matches_vandermonde(self, p):
        if p.n != p.d + 1:
            p = build_params(p.d, p.tau[: p.d + 1])
        from _oracles import vandermonde_product

        assert generator_lattice(p).index_in_ambient == vandermonde_product(p)


class TestKernelBinomial:
    def test_consecutive_quadrilateral(self):
        kb = kernel_binomial(build_params(2, [0, 1, 2, 3]))
        assert kb.c == (1, -3, 3, -1)
        assert kb.monomials() == ("x1*x3^3", "x2^3*x4")
        assert not kb.u_squarefree and not kb.v_squarefree
        assert kb.degree == 4

    def test_consecutive_dimension_three(self):
        kb = kernel_binomial(build_params(3, [0, 1, 2, 3, 4]))
        assert kb.c == (1, -4, 6, -4, 1)
        assert kb.monomials() == ("x1*x3^6*x5", "x2^4*x4^4")

    def test_uneven_gaps_still_alternate(self):
        p = build_params(2, [0, 1, 2, 4])
        kb = kernel_binomial(p)
        assert all(v == 0 for v in mat_vec(moment_matrix(p).entries, kb.c))
        assert kb.u_support == (1, 3) and kb.v_support == (2, 4)

    def test_requires_exactly_one_extra_vertex(self):
        with pytest.raises(InvalidParameters):
            kernel_binomial(build_params(2, [0, 1, 3]))
        with pytest.raises(InvalidParameters):
            kernel_binomial(build_params(2, [0, 1, 2, 3, 4]))

    def test_binomial_coefficient_pattern(self):
        for d in range(2, 7):
            kb = kernel_binomial(build_params(d, list(range(d + 2))))
            assert tuple(abs(x) for x in kb.c) == tuple(
                comb(d + 1, i) for i in range(d + 2)
            )

    def test_matches_generic_nullspace(self):
        from _oracles import nullspace

        for d, tau in [(2, [0, 2, 3, 7]), (3, [0, 1, 4, 5, 6]), (4, [0, 2, 3, 4, 6, 7])]:
            p = build_params(d, tau)
            kb = kernel_binomial(p)
            basis = nullspace(moment_matrix(p).entries)
            assert len(basis) == 1
            other = basis[0] if basis[0][0] > 0 else tuple(-x for x in basis[0])
            assert kb.c == other

    def test_curve_with_equal_gaps_has_one_square_side(self):
        for tau in ([0, 1, 2], [0, 2, 4], [0, 3, 6]):
            kb = kernel_binomial(build_params(1, tau))
            assert kb.u_squarefree != kb.v_squarefree

    @given(cyclo_params(max_d=5, max_n=7, max_gap=3, min_d=2))
    @settings(max_examples=40, deadline=None)
    def test_supports_match_the_nonface_partition(self, p):
        # cut the instance down to exactly one vertex beyond a simplex
        p = build_params(p.n - 2, p.tau) if p.n != p.d + 2 else p
        kb = kernel_binomial(p)
        assert nonface_partitions(p) == [(kb.u_support, kb.v_support)]
        assert sum(kb.u_exponents) == sum(kb.v_exponents)


class TestDivisibility:
    def test_firing_example(self):
        assert divisibility_test(build_params(2, [0, 2, 3, 4, 5])) == 4

    def test_silent_consecutive(self):
        assert divisibility_test(build_params(2, [0, 1, 2, 3, 4])) is None

    def test_unit_first_product_never_fires(self):
        assert divisibility_test(build_params(1, [0, 1, 2, 5])) is None

    def test_requires_wide_instance(self):
        with pytest.raises(InvalidParameters):
            divisibility_test(build_params(2, [0, 1, 2, 3]))

    def test_heights_diagnostic(self):
        vals, g = leading_facet_heights(build_params(2, [0, 2, 3, 4, 5]))
        assert vals == (3, 8, 15) and g == 1


class TestBruteforce:
    def test_curve_witness(self):
        verdict, witness = is_normal_kq_bruteforce(build_params(1, [0, 1, 3]))
        assert verdict == "not_normal" and witness == (1, 2)

    def test_principal_case_not_normal(self):
        verdict, witness = is_normal_kq_bruteforce(build_params(2, [0, 1, 2, 3]))
        assert verdict == "not_normal"
        assert witness is not None and witness[0] <= 2

    def test_simplices_normal(self):
        for d, tau in [(2, [0, 1, 3]), (3, [0, 2, 3, 7]), (2, [0, 4, 9])]:
            assert is_normal_kq_bruteforce(build_params(d, tau)) == ("normal", None)

    def test_budget_gives_inconclusive(self):
        verdict, witness = is_normal_kq_bruteforce(
            build_params(2, [0, 7, 20]), budget=5
        )
        assert verdict == "inconclusive" and witness is None

    def test_divisibility_hits_confirmed(self):
        p = build_params(2, [0, 2, 3, 4, 5])
        assert divisibility_test(p) is not None
        verdict, witness = is_normal_kq_bruteforce(p)
        assert verdict == "not_normal" and witness[0] <= 2


class TestClassify:
    def test_principal_case(self):
        r = classify_kq(build_params(2, [0, 1, 2, 3]))
        assert r.case == "principal_d2" and r.normal == "no"
        assert r.complete_intersection
        assert r.evidence["kind"] == "kernel_binomial"
        assert r.kernel == (1, -3, 3, -1)

    def test_equal_gap_curve(self):
        r = classify_kq(build_params(1, [0, 2, 4]))
        assert r.case == "curve_d1" and r.normal == "yes"
        assert r.evidence == {"kind": "equal_spacing", "equal": True}
        assert r.complete_intersection  # three vertices on a line

    def test_unequal_gap_curve(self):
        r = classify_kq(build_params(1, [0, 1, 3, 4]))
        assert r.case == "curve_d1" and r.normal == "no"

    def test_simplex(self):
        r = classify_kq(build_params(3, [0, 1, 5, 6]))
        assert r.case == "simplex_regular" and r.normal == "yes"
        assert not r.complete_intersection
        assert r.evidence == {"kind": "regularity"}

    def test_divisibility_evidence(self):
        r = classify_kq(build_params(2, [0, 2, 3, 4, 5]))
        assert r.case == "general" and r.normal == "no"
        assert r.evidence == {"kind": "divisibility_witness", "s": 4}

    def test_silent_without_bruteforce_is_unknown(self):
        r = classify_kq(build_params(2, [0, 1, 2, 3, 4]))
        assert r.case == "general" and r.normal == "unknown"
        assert r.evidence == {"kind": "none"}

    def test_silent_with_bruteforce_finds_witness(self):
        r = classify_kq(build_params(2, [0, 1, 2, 3, 4]), use_bruteforce=True)
        assert r.normal == "no"
        assert r.evidence["kind"] == "bruteforce_witness"
        assert r.evidence["witness"][0] <= 2

    def test_json_shape(self):
        d = classify_kq(build_params(2, [0, 1, 2, 3])).to_dict()
        assert set(d) == {"case", "normal", "complete_intersection", "evidence", "kernel"}

    @given(cyclo_params(max_d=4, max_n=6, max_gap=2))
    @settings(max_examples=25, deadline=None)
    def test_branch_invariants(self, p):
        r = classify_kq(p)
        assert r.complete_intersection == (p.n == p.d + 2)
        if r.case == "simplex_regular":
            assert r.normal == "yes"
        if r.case == "principal_d2":
            assert p.d >= 2 and r.normal == "no"
