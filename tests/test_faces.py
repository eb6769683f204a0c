"""Subset decomposition, face predicates, facet normals, and half-spaces."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotoric.core import InvalidParameters, build_params, transform, vertex
from cyclotoric.faces import (
    MOMENT,
    TRANSFORMED,
    Hyperplane,
    NotAFacet,
    decompose,
    face_type,
    facet_hyperplane,
    facets,
    is_face,
    require_uniform_frame,
    simplex_halfspaces,
    transport_to_transformed,
)
from cyclotoric.intlinalg import dot, vector_gcd

from _oracles import brute_facets, brute_is_face, nonface_partitions
from _strategies import cyclo_params


class TestDecompose:
    def test_mixed_example(self):
        dec = decompose({1, 2, 5, 6, 7, 9}, 10)
        assert dec.y1 == (1, 2)
        assert dec.blocks == ((5, 6, 7), (9,))
        assert dec.y2 == ()

    def test_full_set_is_single_end_set(self):
        dec = decompose(range(1, 7), 6)
        assert dec.y1 == (1, 2, 3, 4, 5, 6) and dec.blocks == () and dec.y2 == ()

    def test_lone_interior_element(self):
        dec = decompose({3}, 5)
        assert dec.y1 == () and dec.blocks == ((3,),) and dec.y2 == ()

    def test_both_end_sets(self):
        dec = decompose({1, 4, 5}, 5)
        assert dec.y1 == (1,) and dec.blocks == () and dec.y2 == (4, 5)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameters):
            decompose({0, 1}, 4)
        with pytest.raises(InvalidParameters):
            decompose({5}, 4)

    def test_empty(self):
        dec = decompose((), 5)
        assert dec.y1 == () and dec.blocks == () and dec.y2 == ()

    @given(st.integers(2, 10), st.data())
    @settings(max_examples=80, deadline=None)
    def test_reassembly_is_identity(self, n, data):
        w = data.draw(st.sets(st.integers(1, n)))
        dec = decompose(w, n)
        flat = dec.y1 + tuple(x for b in dec.blocks for x in b) + dec.y2
        assert flat == tuple(sorted(w))
        assert decompose(flat, n) == dec
        for block in dec.blocks:
            assert 1 < block[0] and block[-1] < n
            assert list(block) == list(range(block[0], block[-1] + 1))


class TestFaceType:
    @pytest.mark.parametrize(
        "w,n,expected",
        [
            ({1, 2, 5, 6, 7, 9}, 10, (6, 2)),
            ({1, 2}, 4, (2, 0)),
            ({2, 4}, 4, (2, 1)),
            ((), 9, (0, 0)),
        ],
    )
    def test_examples(self, w, n, expected):
        ft = face_type(w, n)
        assert (ft.r, ft.s) == expected


class TestIsFace:
    def test_diagonal_is_not_edge(self):
        assert not is_face({1, 3}, build_params(2, [0, 1, 2, 3]))

    def test_low_cardinality_face(self):
        assert is_face({2, 3}, build_params(3, [0, 1, 2, 3, 4]))

    def test_empty_set(self):
        assert is_face((), build_params(2, [0, 1, 3]))

    @given(cyclo_params(max_d=5, max_n=8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_small_subsets_are_faces(self, p, data):
        size = data.draw(st.integers(0, p.d // 2))
        w = tuple(sorted(random.Random(0).sample(range(1, p.n + 1), size)))
        assert is_face(w, p)

    def test_against_hyperplane_oracle(self):
        rng = random.Random(20250501)
        for d in range(1, 6):
            for n in range(d + 1, 9):
                tau = [0]
                for _ in range(n - 1):
                    tau.append(tau[-1] + rng.randint(1, 3))
                p = build_params(d, tau)
                for mask in range(1 << n):
                    w = tuple(i + 1 for i in range(n) if mask >> i & 1)
                    assert is_face(w, p) == brute_is_face(w, p), (d, tau, w)


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


class TestFacetHyperplane:
    def test_oriented_primitive_normal(self):
        p = build_params(2, [0, 1, 3])
        h = facet_hyperplane((2, 3), p)
        assert h.normal == (3, -4, 1)
        assert h.rhs == 0 and h.sense == ">=" and h.frame == MOMENT
        assert dot(h.normal, vertex(p, 1)) == 3

    def test_low_end_facet(self):
        h = facet_hyperplane((1, 2), build_params(2, [0, 1, 3]))
        assert h.normal == (0, -1, 1)

    def test_segment_case(self):
        h = facet_hyperplane((1,), build_params(1, [0, 2]))
        assert h.normal == (0, 1) and h.rhs == 0

    def test_rejects_non_facet(self):
        with pytest.raises(NotAFacet):
            facet_hyperplane((1, 3), build_params(2, [0, 1, 2, 3]))

    @given(cyclo_params(max_d=4, max_n=7, max_gap=3))
    @settings(max_examples=40, deadline=None)
    def test_zero_on_facet_positive_off(self, p):
        for w in facets(p):
            h = facet_hyperplane(w, p)
            assert vector_gcd(h.normal) == 1
            for i in range(1, p.n + 1):
                val = dot(h.normal, vertex(p, i))
                assert (val == 0) == (i in w)
                assert val >= 0


class TestSimplexHalfspaces:
    def test_dimension_two_exact(self):
        hps = simplex_halfspaces(build_params(2, [0, 1, 3]))
        assert [(h.normal, h.rhs, h.sense) for h in hps] == [
            ((0, 3, -1), 3, "<="),
            ((0, 2, -1), 0, ">="),
            ((0, 0, 1), 0, ">="),
        ]
        assert all(h.frame == TRANSFORMED for h in hps)

    def test_dimension_three_third_row(self):
        p = build_params(3, [0, 2, 3, 7])
        h3 = simplex_halfspaces(p)[2]
        # lower bound tying coordinates 2 and 3 through the last gap
        assert h3.normal == (0, 0, 4, -1) and h3.rhs == 0 and h3.sense == ">="

    def test_tail_entry_is_unit(self):
        for d, tau in [(2, [0, 1, 3]), (3, [0, 1, 2, 3]), (4, [0, 2, 3, 5, 8])]:
            for h in simplex_halfspaces(build_params(d, tau)):
                assert abs(next(x for x in reversed(h.normal) if x)) == 1

    def test_requires_simplex(self):
        with pytest.raises(InvalidParameters):
            simplex_halfspaces(build_params(2, [0, 1, 2, 3]))

    @given(cyclo_params(max_d=4, max_n=5, max_gap=3))
    @settings(max_examples=40, deadline=None)
    def test_vertices_satisfy_with_equality_pattern(self, p):
        if p.n != p.d + 1:
            p = build_params(p.d, p.tau[: p.d + 1])
        tm = transform(p)
        for h in simplex_halfspaces(p):
            for i in range(1, p.n + 1):
                slack = h.slack(tm.column(i))
                assert slack >= 0
                assert (slack == 0) == (i in h.facet_indices)

    @given(cyclo_params(max_d=4, max_n=5, max_gap=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_transported_facet_normals(self, p):
        if p.n != p.d + 1:
            p = build_params(p.d, p.tau[: p.d + 1])
        for h in simplex_halfspaces(p):
            cone_normal = (
                tuple(
                    r - a for r, a in zip((h.rhs,) + (0,) * p.d, h.normal, strict=True)
                )
                if h.sense == "<="
                else h.normal
            )
            transported = transport_to_transformed(
                facet_hyperplane(h.facet_indices, p), p
            )
            assert cone_normal == transported.normal


class TestFrames:
    def test_mixed_frames_rejected(self):
        a = Hyperplane((0, 1), 0, ">=", None, MOMENT)
        b = Hyperplane((0, 1), 0, ">=", None, TRANSFORMED)
        with pytest.raises(ValueError, match="mixed"):
            require_uniform_frame([a, b])
        assert require_uniform_frame([a]) == MOMENT
        with pytest.raises(ValueError, match="mixed"):
            require_uniform_frame([a], TRANSFORMED)

    def test_transport_requires_moment_frame(self):
        p = build_params(2, [0, 1, 3])
        h = simplex_halfspaces(p)[1]
        with pytest.raises(ValueError):
            transport_to_transformed(h, p)


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
