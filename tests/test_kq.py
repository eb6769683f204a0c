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

from _oracles import gap_family, leading_facet_heights, nonface_partitions
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
        assert all(v == 0 for v in mat_vec(moment_matrix(p), kb.c))
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

        family = [(d, tau) for d, tau in gap_family(4, 6, 3) if len(tau) == d + 2]
        for d, tau in family + [(2, (0, 2, 3, 7)), (3, (-9, -4, -3, 0, 2))]:
            p = build_params(d, tau)
            kb = kernel_binomial(p)
            basis = nullspace(moment_matrix(p))
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

    def test_exhaustive_bruteforce_is_a_proof(self, monkeypatch):
        # no instance at hand is normal where divisibility is silent, so force
        # the search's verdict: only a search to the full bound proves "yes"
        import cyclotoric.kq as kq_mod
        from cyclotoric.cli import derive_findings

        p = build_params(2, [0, 1, 2, 3, 4])
        verdict = ["normal"]
        monkeypatch.setattr(
            kq_mod, "is_normal_kq_bruteforce", lambda p, md, budget=None: (verdict[0], None)
        )

        def outcome(**kw):
            r = classify_kq(p, use_bruteforce=True, **kw)
            return r.normal, r.evidence, [f["kind"] for f in derive_findings(p, None, r)]

        proven = ("yes", {"kind": "bruteforce_exhaustive"}, ["conjecture45_counterexample"])
        # at d = 2 degree 1 is the whole bound max(1, d-1)
        for max_degree in (1, 2, 3):
            assert outcome() == outcome(max_degree=max_degree) == proven, max_degree
        (finding,) = derive_findings(p, None, classify_kq(p, use_bruteforce=True))
        assert finding["details"] == (
            "vertex semigroup proven normal by exhaustive search to degree max(1, d-1) "
            "where the divisibility criterion is silent"
        )
        unknown = ["conjecture45_unknown_instance"]
        lowered = ("unknown", {"kind": "none", "bruteforce": "normal"}, unknown)
        assert outcome(max_degree=0) == lowered
        verdict[0] = "inconclusive"
        assert outcome() == ("unknown", {"kind": "none", "bruteforce": "inconclusive"}, unknown)
        r = classify_kq(p)
        assert (r.normal, r.evidence) == ("unknown", {"kind": "none"})

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


class TestWideFamilyD4:
    """The canonical d = 4, n = d+3..d+4, gap <= 3 family: the d = 4 part of a wide K[Q] scan."""

    @staticmethod
    def family():
        for d, tau in gap_family(max_d=4, max_n=8, max_gap=3, d_min=4):
            gaps = tuple(b - a for a, b in zip(tau, tau[1:]))
            if len(tau) >= 7 and gaps <= gaps[::-1]:  # the canonical ones
                yield build_params(d, tau)

    def test_every_verdict_settles_under_the_default_budget(self):
        # the divisibility criterion is silent on some of them; the search
        # that stops at its first gap settles those at degree 1
        from cyclotoric.faces import facet_hyperplane, facets
        from cyclotoric.intlinalg import dot, lattice_contains
        from cyclotoric.lattice import instance

        searched = 0
        for p in self.family():
            r = classify_kq(p, use_bruteforce=True)
            assert r.normal != "unknown", p
            if r.evidence["kind"] != "bruteforce_witness":
                continue
            searched += 1
            z = tuple(r.evidence["witness"])
            ctx = instance(p)
            assert all(dot(facet_hyperplane(w, p), z) >= 0 for w in facets(p)), (p, z)
            assert lattice_contains(ctx.lattice_rows, z), (p, z)
            assert z not in ctx.vertices, (p, z)
        assert searched > 0

    def test_the_stream_finds_the_reference_gap(self):
        # under a lifted budget, the first gap of the stream is the one the
        # point-by-point reference finds on whole slices
        from cyclotoric.kp import first_gap
        from cyclotoric.lattice import instance

        from _oracles import pointwise_first_gap

        for p in self.family():
            if divisibility_test(p) is not None:
                continue
            ctx = instance(p)
            gens = tuple((v[:-1], v[-1], v[-1]) for v in ctx.vertices)
            got = first_gap(ctx, gens, 1, vertex_lattice=True, budget=10**12)
            want = pointwise_first_gap(ctx, ctx.vertices, 1, vertex_lattice=True, budget=10**12)
            assert got == want and got is not None, p
