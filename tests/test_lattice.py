"""Exact enumeration, dilation counts, and the generating-series numerator."""

from collections import Counter

import pytest
from hypothesis import given, settings

import cyclotoric.lattice as lattice_mod

from cyclotoric.core import InvalidParameters, build_params
from cyclotoric.lattice import (
    BUDGET_ENV_VAR,
    BudgetExceeded,
    HStarVector,
    ehrhart_counts,
    enumerate_points,
    h_star,
    interior_count,
    resolve_budget,
)

from _oracles import in_cone, polygon_pick_data, vandermonde_product
from _strategies import cyclo_params


class TestEnumeratePoints:
    def test_triangle_counts(self):
        p = build_params(2, [0, 1, 3])
        pts = enumerate_points(p, 1)
        assert len(pts) == 7
        assert enumerate_points(p, 1, True) == [(1, 1, 2)]

    def test_degree_zero(self):
        p = build_params(2, [0, 1, 3])
        assert enumerate_points(p, 0) == [(0, 0, 0)]
        assert enumerate_points(p, 0, True) == []

    def test_small_triangle(self):
        p = build_params(2, [0, 1, 2])
        assert len(enumerate_points(p, 1)) == 4
        assert interior_count(p, 1) == 0

    def test_negative_degree_rejected(self):
        with pytest.raises(InvalidParameters):
            enumerate_points(build_params(2, [0, 1, 3]), -1)

    def test_points_have_requested_degree_and_order(self):
        pts = enumerate_points(build_params(2, [0, 2, 5]), 2)
        assert all(z[0] == 2 for z in pts)
        assert pts == sorted(pts)

    @given(cyclo_params(max_d=3, max_n=5, max_gap=3))
    @settings(max_examples=30, deadline=None)
    def test_frames_agree(self, p):
        # moment-frame boxes grow like tau^d, so compare on the zero-based translate
        from cyclotoric.core import translate

        p = translate(p, -p.tau[0])
        for k in (1, 2):
            assert enumerate_points(p, k, frame="moment") == enumerate_points(
                p, k, frame="transformed"
            )

    def test_frames_agree_with_negative_parameters(self):
        p = build_params(2, [-3, -1, 0])
        for k in (1, 2):
            assert enumerate_points(p, k, frame="moment") == enumerate_points(
                p, k, frame="transformed"
            )

    @given(cyclo_params(max_d=3, max_n=5, max_gap=3))
    @settings(max_examples=30, deadline=None)
    def test_interior_boundary_partition(self, p):
        full = set(enumerate_points(p, 1))
        interior = set(enumerate_points(p, 1, True))
        assert interior <= full
        from cyclotoric.faces import facet_hyperplane, facets

        hps = [facet_hyperplane(w, p) for w in facets(p)]
        for z in full:
            strict = all(h.slack(z) > 0 for h in hps)
            assert strict == (z in interior)

    def test_vertices_always_enumerated(self):
        from cyclotoric.core import vertex

        p = build_params(3, [0, 2, 3, 7])
        pts = set(enumerate_points(p, 1))
        for i in range(1, p.n + 1):
            assert vertex(p, i) in pts


class TestAgainstNaiveBoxScan:
    @given(cyclo_params(max_d=3, max_n=5, max_gap=2))
    @settings(max_examples=25, deadline=None)
    def test_matches_unpruned_filter(self, p):
        # independent of the branch-and-bound path: filter the full moment-frame box
        from itertools import product as iproduct

        from cyclotoric.core import translate, vertex
        from cyclotoric.faces import facet_hyperplane, facets

        p = translate(p, -p.tau[0])
        hps = [facet_hyperplane(w, p) for w in facets(p)]
        verts = [vertex(p, i) for i in range(1, p.n + 1)]
        for k, interior in ((1, False), (1, True), (2, False)):
            ranges = [
                range(k * min(v[t] for v in verts), k * max(v[t] for v in verts) + 1)
                for t in range(1, p.d + 1)
            ]
            naive = sorted(
                (k,) + rest
                for rest in iproduct(*ranges)
                if all(h.slack((k,) + rest) >= (1 if interior else 0) for h in hps)
            )
            assert enumerate_points(p, k, interior) == naive


class TestPickConsistency:
    @given(cyclo_params(max_d=2, max_n=6, max_gap=4, min_d=2))
    @settings(max_examples=40, deadline=None)
    def test_counts_match_shoelace_data(self, p):
        twice_area, boundary, interior = polygon_pick_data(p)
        assert len(enumerate_points(p, 1)) == (twice_area + boundary + 2) // 2
        assert interior_count(p, 1) == interior


class TestEhrhartCounts:
    def test_quadratic_growth(self):
        assert ehrhart_counts(build_params(2, [0, 1, 3]), 3) == [1, 7, 19, 37]

    def test_unit_like_triangle(self):
        assert ehrhart_counts(build_params(2, [0, 1, 2]), 2) == [1, 4, 9]

    def test_segment(self):
        assert ehrhart_counts(build_params(1, [0, 3]), 4) == [1, 4, 7, 10, 13]


class TestHStar:
    def test_gorenstein_triangle(self):
        h = h_star(build_params(2, [0, 1, 3]))
        assert h.h == (1, 4, 1)
        assert h.normalized_volume == 6
        assert h.is_palindromic()

    def test_low_volume_triangle(self):
        h = h_star(build_params(2, [0, 1, 2]))
        assert h.h == (1, 1, 0)
        assert h.normalized_volume == 2
        assert h.is_palindromic()  # trailing zero dropped

    def test_unimodular_segment(self):
        assert h_star(build_params(1, [0, 1])).h == (1, 0)

    def test_palindromic_helper(self):
        assert HStarVector((1, 4, 1)).is_palindromic()
        assert not HStarVector((1, 10, 5)).is_palindromic()
        assert HStarVector((1, 0, 0)).is_palindromic()

    @given(cyclo_params(max_d=3, max_n=4, max_gap=3))
    @settings(max_examples=30, deadline=None)
    def test_simplex_volume_is_difference_product(self, p):
        if p.n != p.d + 1:
            p = build_params(p.d, p.tau[: p.d + 1])
        assert h_star(p).normalized_volume == vandermonde_product(p)

    @given(cyclo_params(max_d=2, max_n=6, max_gap=4, min_d=2))
    @settings(max_examples=30, deadline=None)
    def test_top_entry_counts_interior(self, p):
        assert h_star(p).h[2] == interior_count(p, 1)


class TestBudget:
    def test_refuses_oversized_box(self):
        with pytest.raises(BudgetExceeded):
            enumerate_points(build_params(2, [0, 1, 3]), 1, budget=5)

    def test_explicit_budget_allows(self):
        assert len(enumerate_points(build_params(2, [0, 1, 3]), 1, budget=100)) == 7

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "5")
        assert resolve_budget() == 5
        with pytest.raises(BudgetExceeded):
            enumerate_points(build_params(2, [0, 1, 3]), 1)
        monkeypatch.delenv(BUDGET_ENV_VAR)
        assert resolve_budget() == 10**8

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "5")
        assert resolve_budget(1000) == 1000

    def test_malformed_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "abc")
        with pytest.raises(InvalidParameters, match=BUDGET_ENV_VAR):
            resolve_budget()


class TestInstance:
    def test_each_slice_enumerated_once(self, monkeypatch):
        import cyclotoric.kp as kp_mod
        import cyclotoric.kq as kq_mod

        calls = Counter()
        original = lattice_mod.enumerate_points

        def counting(p, k, interior_only=False, **kw):
            calls[(k, interior_only)] += 1
            return original(p, k, interior_only, **kw)

        # also where a stage might hold its own reference to the primitive
        for mod in (lattice_mod, kp_mod, kq_mod):
            monkeypatch.setattr(mod, "enumerate_points", counting, raising=False)
        lattice_mod._instance.cache_clear()
        p = build_params(2, [0, 1, 2, 4, 6])
        assert p.n >= p.d + 3 and kq_mod.divisibility_test(p) is None
        budget = 10**6  # not the default, so a lookup without it would evict the context
        kp_mod.classify_kp(p, oracle=True, budget=budget)
        assert calls[(1, False)] == 1 and max(calls.values()) == 1
        report = kq_mod.classify_kq(p, use_bruteforce=True, budget=budget)
        assert report.evidence["kind"] == "bruteforce_witness"
        assert calls[(1, False)] == 1 and max(calls.values()) == 1

    def test_memo_never_outlives_its_budget(self):
        p = build_params(2, [0, 1, 3])
        assert h_star(p, budget=100).h == (1, 4, 1)
        assert interior_count(p, 1, budget=100) == 1
        with pytest.raises(BudgetExceeded):
            h_star(p, budget=5)
        with pytest.raises(BudgetExceeded):
            interior_count(p, 1, budget=5)

    def test_in_cone_matches_facet_slacks(self):
        p = build_params(3, [0, 1, 3, 4, 7])
        ctx = lattice_mod.instance(p)
        for z in ctx.slice(2) + [(1, -1, 0, 0), (2, 1, 1, 1)]:
            assert in_cone(ctx, z) == all(h.slack(z) >= 0 for h in ctx.hyperplanes)
