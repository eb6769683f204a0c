"""The Gale-evenness facet list, the faces read from it, and facet normals,
each checked against a hyperplane oracle; the triangularised half-spaces of
a simplex are pinned here as the reference for the Gorenstein witness slacks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotoric.core import (
    CycloParams,
    InvalidParameters,
    build_params,
    to_moment,
    transform,
    vertex,
)
from cyclotoric.faces import NotAFacet, facet_hyperplane, facet_normals, facets
from cyclotoric.intlinalg import dot, mat_mul, primitive, vector_gcd
from cyclotoric.kp import NoWitnessExpected, gorenstein_witnesses
from cyclotoric.lattice import Instance

from _oracles import brute_facets, gap_family, identity, minors_normal, nonface_partitions
from _strategies import cyclo_params


class TestIsFace:
    """A cyclic polytope is simplicial: its proper faces are the subsets of its facets."""

    def test_diagonal_is_not_edge(self):
        assert not any({1, 3} <= set(f) for f in facets(build_params(2, [0, 1, 2, 3])))

    def test_low_cardinality_face(self):
        assert any({2, 3} <= set(f) for f in facets(build_params(3, [0, 1, 2, 3, 4])))

    @given(cyclo_params(max_d=5, max_n=8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_small_subsets_are_faces(self, p, data):
        # cyclic polytopes are floor(d/2)-neighbourly
        size = data.draw(st.integers(0, p.d // 2))
        w = set(random.Random(0).sample(range(1, p.n + 1), size))
        assert any(w <= set(f) for f in facets(p))


class TestFacets:
    def test_square_like_polygon(self):
        assert facets(build_params(2, [0, 1, 2, 3])) == ((1, 2), (1, 4), (2, 3), (3, 4))

    def test_simplex_all_subsets(self):
        assert facets(build_params(2, [0, 1, 3])) == ((1, 2), (1, 3), (2, 3))

    def test_dimension_four_evenness(self):
        got = facets(build_params(4, [0, 1, 2, 3, 4, 5]))
        assert (1, 2, 3, 4) in got
        assert (1, 2, 3, 5) not in got

    def test_segment(self):
        assert facets(build_params(1, [0, 2, 5])) == ((1,), (3,))

    @given(cyclo_params(max_d=4, max_n=7, max_gap=3))
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce(self, p):
        assert facets(p) == brute_facets(p)

    def test_generated_sets_match_the_hyperplane_oracle_to_n_11(self):
        # the evenness generator, one instance per (d, n) up to d = 6, n = 11;
        # facets do not depend on the parameters, only on d and n
        rng = random.Random(20261019)
        for d in range(1, 7):
            for n in range(d + 1, 12):
                tau = [0]
                for _ in range(n - 1):
                    tau.append(tau[-1] + rng.randint(1, 2))
                p = build_params(d, tau)
                assert facets(p) == brute_facets(p), (d, tau)


class TestFacetHyperplane:
    def test_oriented_primitive_normal(self):
        p = build_params(2, [0, 1, 3])
        h = facet_hyperplane((2, 3), p)
        assert h == (3, -4, 1)
        assert dot(h, vertex(p, 1)) == 3

    def test_low_end_facet(self):
        h = facet_hyperplane((1, 2), build_params(2, [0, 1, 3]))
        assert h == (0, -1, 1)

    def test_segment_case(self):
        h = facet_hyperplane((1,), build_params(1, [0, 2]))
        assert h == (0, 1)

    def test_rejects_non_facet(self):
        with pytest.raises(NotAFacet):
            facet_hyperplane((1, 3), build_params(2, [0, 1, 2, 3]))

    @pytest.mark.parametrize(
        "d,tau,w",
        [(2, [0, 1, 3], (1, 2, 2)), (1, [0, 1], (1, 1)), (2, [0, 1, 3], (1,)), (2, [0, 1, 3], (0, 1)),
         (2, [0, 1, 3], (2, 4))],
    )
    def test_rejects_repeated_missing_or_out_of_range_indices(self, d, tau, w):
        # a facet is a key of the evenness list, so no normal of another length comes back
        with pytest.raises(NotAFacet):
            facet_hyperplane(w, build_params(d, tau))

    @given(cyclo_params(max_d=4, max_n=7, max_gap=3))
    @settings(max_examples=40, deadline=None)
    def test_zero_on_facet_positive_off(self, p):
        for w in facets(p):
            h = facet_hyperplane(w, p)
            assert vector_gcd(h) == 1
            for i in range(1, p.n + 1):
                val = dot(h, vertex(p, i))
                assert (val == 0) == (i in w)
                assert val >= 0

    def test_matches_minors_of_the_vertex_rows(self):
        for d, tau in list(gap_family(max_d=4, max_n=7, max_gap=3))[::2]:
            p = build_params(d, tau)
            for w in facets(p):
                m = primitive(minors_normal([vertex(p, i) for i in w]))
                off = next(i for i in range(1, p.n + 1) if i not in w)
                if dot(m, vertex(p, off)) < 0:
                    m = tuple(-x for x in m)
                assert facet_hyperplane(w, p) == m


class TestSimplexHalfspaces:
    """Transformed-frame normals of a simplex, reversed: normal i omits vertex i."""

    @staticmethod
    def halfspaces(p):
        # a transformed point z has moment coordinates L.z, so a.L is the normal;
        # column j of L is the moment image of the unit vector e_j
        cols = [to_moment(p, e) for e in identity(p.d + 1)]
        return mat_mul(facet_normals(p), tuple(zip(*cols)))[::-1]

    def test_dimension_two_exact(self):
        # homogeneous: the bound 3*x0 >= 3*x1 - x2 has its right-hand side in x0
        hps = self.halfspaces(build_params(2, [0, 1, 3]))
        assert hps == ((3, -3, 1), (0, 2, -1), (0, 0, 1))

    def test_dimension_three_third_row(self):
        p = build_params(3, [0, 2, 3, 7])
        h3 = self.halfspaces(p)[2]
        # lower bound tying coordinates 2 and 3 through the last gap
        assert h3 == (0, 0, 4, -1)

    def test_tail_entry_is_unit(self):
        for d, tau in [(2, [0, 1, 3]), (3, [0, 1, 2, 3]), (4, [0, 2, 3, 5, 8])]:
            for h in self.halfspaces(build_params(d, tau)):
                assert abs(next(x for x in reversed(h) if x)) == 1

    @given(cyclo_params(max_d=4, max_n=5, max_gap=3))
    @settings(max_examples=40, deadline=None)
    def test_vertices_satisfy_with_equality_pattern(self, p):
        if p.n != p.d + 1:
            p = build_params(p.d, p.tau[: p.d + 1])
        tm = transform(p)
        for omitted, h in enumerate(self.halfspaces(p), start=1):
            for i in range(1, p.n + 1):
                slack = dot(h, tm.column(i))
                assert slack >= 0
                assert (slack == 0) == (i != omitted)

    @given(cyclo_params(max_d=4, max_n=5, max_gap=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_transported_facet_normals(self, p):
        # a transformed point is U.z for the unimodular factor U, so a.U is the moment normal
        if p.n != p.d + 1:
            p = build_params(p.d, p.tau[: p.d + 1])
        u = transform(p).unimodular_factor
        for omitted, h in enumerate(self.halfspaces(p), start=1):
            w = tuple(i for i in range(1, p.n + 1) if i != omitted)
            assert mat_mul([h], u) == (facet_hyperplane(w, p),)

    def test_witness_slacks_match_the_halfspaces(self):
        # the witness check maps each point to moment coordinates; its slacks
        # must be the transformed half-spaces' on the point itself
        checked = 0
        for d, tau in gap_family(max_d=4, max_n=7, max_gap=3):
            try:
                rep = gorenstein_witnesses(build_params(d, tau))
            except NoWitnessExpected:
                continue
            hps = self.halfspaces(rep.params_used)
            assert rep.slacks == tuple(
                tuple(dot(h, pt) for h in hps) for pt in rep.points
            ), (d, tau)
            checked += bool(rep.points)
        assert checked > 0


class TestFrameNormals:
    @given(cyclo_params(max_d=4, max_n=7, max_gap=3))
    @settings(max_examples=40, deadline=None)
    def test_primitive_zero_on_the_facet_positive_off(self, p):
        # these three properties determine the normal of each facet
        ctx = Instance(p)
        for w, a in zip(facets(p), facet_normals(p), strict=True):
            assert vector_gcd(a) == 1, (p, w)
            for i, col in enumerate(ctx.vertices, start=1):
                assert (dot(a, col) == 0) == (i in w), (p, w, i)
                assert dot(a, col) >= 0, (p, w, i)
        # the shadow normals: the facets of C_t(tau) on the first t+1 coordinates
        assert ctx.shadows[-1] == facet_normals(p)
        for t, level in enumerate(ctx.shadows, start=1):
            shadow = CycloParams(t, p.tau)
            for w, a in zip(facets(shadow), level, strict=True):
                assert len(a) == t + 1 and a[-1] in (1, -1), (p, t, w)
                for i, col in enumerate(ctx.vertices, start=1):
                    assert (dot(a, col[: t + 1]) == 0) == (i in w), (p, t, w, i)
                    assert dot(a, col[: t + 1]) >= 0, (p, t, w, i)


class TestNonfacePartitions:
    @pytest.mark.parametrize(
        "d,tau",
        [(2, [0, 1, 2, 3]), (3, [0, 1, 2, 3, 4]), (4, [0, 2, 3, 5, 6, 9])],
    )
    def test_unique_odd_even_pair(self, d, tau):
        p = build_params(d, tau)
        odds = tuple(range(1, p.n + 1, 2))
        evens = tuple(range(2, p.n + 1, 2))
        assert nonface_partitions(p) == [(odds, evens)]

    def test_requires_one_extra_vertex(self):
        with pytest.raises(InvalidParameters):
            nonface_partitions(build_params(2, [0, 1, 3]))
