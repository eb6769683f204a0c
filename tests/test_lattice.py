"""Exact enumeration, dilation counts, and the generating-series numerator."""

import json
from collections import Counter
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclotoric.lattice as lattice_mod

from cyclotoric.core import CycloParams, InvalidParameters, build_params, translate
from cyclotoric.faces import facet_hyperplane, facets
from cyclotoric.intlinalg import dot
from cyclotoric.lattice import (
    BUDGET_ENV_VAR,
    BudgetExceeded,
    HStarVector,
    Slice,
    enumerate_points,
    h_star,
    interior_count,
    resolve_budget,
)

from _oracles import (
    ehrhart_counts,
    h_star_all_degrees,
    in_cone,
    polygon_pick_data,
    vandermonde_product,
)
from _strategies import cyclo_params

# the bounding-box volume the budget capped before it counted scan nodes:
# point-by-point checks select the slices whose box stays below it
BOX_CAP = 10**6
LIFTED = 10**12


def box_volume(p, k):
    """Candidates in the degree-k bounding box of the vertex columns."""
    from cyclotoric.core import vertex

    cols = [vertex(p, i) for i in range(1, p.n + 1)]
    return prod(
        k * (max(c[t] for c in cols) - min(c[t] for c in cols)) + 1 for t in range(1, p.d + 1)
    )


def shifted(z, m):
    """The moment coordinates of z once every parameter is shifted by m.

    Vertex (t^j)_j goes to ((t + m)^j)_j, the unit lower-triangular Pascal
    matrix with entries C(j, i) m^(j - i) applied to it.
    """
    return tuple(sum(comb(j, i) * m ** (j - i) * z[i] for i in range(j + 1)) for j in range(len(z)))


class TestEnumeratePoints:
    def test_triangle_counts(self):
        p = build_params(2, [0, 1, 3])
        pts = enumerate_points(p, 1)
        assert len(pts) == 7
        assert list(enumerate_points(p, 1, True)) == [(1, 1, 2)]

    def test_degree_zero(self):
        p = build_params(2, [0, 1, 3])
        assert list(enumerate_points(p, 0)) == [(0, 0, 0)]
        assert list(enumerate_points(p, 0, True)) == []

    def test_small_triangle(self):
        p = build_params(2, [0, 1, 2])
        assert len(enumerate_points(p, 1)) == 4
        assert interior_count(p, 1) == 0

    def test_negative_degree_rejected(self):
        with pytest.raises(InvalidParameters):
            enumerate_points(build_params(2, [0, 1, 3]), -1)

    def test_moment_is_the_only_frame(self):
        p = build_params(2, [0, 1, 3])
        assert enumerate_points(p, 1, frame="moment") == enumerate_points(p, 1)
        with pytest.raises(ValueError, match="unknown frame 'transformed'"):
            enumerate_points(p, 1, frame="transformed")

    def test_points_have_requested_degree_and_order(self):
        pts = list(enumerate_points(build_params(2, [0, 2, 5]), 2))
        assert all(z[0] == 2 for z in pts)
        assert pts == sorted(pts)

    @given(cyclo_params(max_d=3, max_n=5, max_gap=3))
    @settings(max_examples=25, deadline=None)
    def test_scan_order_is_strict_lex_order(self, p):
        # no sort runs after the scan: its own order must already be lexicographic
        from itertools import product as iproduct

        p = translate(p, -p.tau[0])  # boxes grow like tau^d
        for lattice, interior, k in iproduct((False, True), (False, True), (1, 2, 3)):
            if box_volume(p, k) > BOX_CAP or lattice and interior:
                continue
            pts = list(enumerate_points(p, k, interior, budget=LIFTED, vertex_lattice=lattice))
            assert all(a < b for a, b in zip(pts, pts[1:])), (p, lattice, interior, k)

    @given(cyclo_params(max_d=3, max_n=5, max_gap=3))
    @settings(max_examples=30, deadline=None)
    @example(CycloParams(4, (0, 1, 2, 3, 4)))
    def test_frames_agree(self, p):
        # a translate's moment coordinates are another frame: the Pascal map
        # carries each slice onto the translate's point for point, and, being
        # unit lower-triangular, each shadow onto its shadow, so the scans
        # visit equal nodes.  Boxes grow like tau^d: start zero-based
        p = translate(p, -p.tau[0])
        q = translate(p, 1)
        for k in (1, 2, 3):
            # interior slices are taken in the full lattice only
            for interior, lattice in ((False, False), (False, True), (True, False)):
                kw = dict(vertex_lattice=lattice, budget=LIFTED)
                here = enumerate_points(p, k, interior, **kw)
                there = enumerate_points(q, k, interior, **kw)
                where = (p, k, interior, lattice)
                assert sorted(shifted(z, 1) for z in here) == list(there), where
                assert here.nodes == there.nodes, where

    @given(cyclo_params(max_d=3, max_n=5, max_gap=3))
    @settings(max_examples=25, deadline=None)
    def test_fibers_expand_to_the_slice(self, p):
        # each slice is its fibers, which, stepped out, are its points in order
        import json
        from itertools import product as iproduct

        p = translate(p, -p.tau[0])  # boxes grow like tau^d
        ctx = lattice_mod.instance(p)
        for lattice, interior, k in iproduct((False, True), (False, True), (0, 1, 2, 3)):
            if box_volume(p, k) > BOX_CAP or lattice and interior:
                continue
            pts = enumerate_points(p, k, interior, budget=LIFTED, vertex_lattice=lattice)
            where = (p, lattice, interior, k)
            points = list(pts)
            assert json.loads(json.dumps(points)) == [list(z) for z in points], where
            assert len(pts) == len(points), where
            pivot = ctx.lattice_rows[-1][-1]
            assert pts.step == (pivot if lattice else 1), where
            heads = [head for head, _, _ in pts.fibers]
            assert all(a < b for a, b in zip(heads, heads[1:])), where
            expanded = [
                head + (x,)
                for head, first, last in pts.fibers
                for x in range(first, last + 1, pts.step)
            ]
            assert expanded == points, where
            assert all(first <= last for _, first, last in pts.fibers), where
            assert all((last - first) % pts.step == 0 for _, first, last in pts.fibers), where

    def test_frames_agree_with_negative_parameters(self):
        # the frame of the zero-based translate, carried back by the Pascal map
        p = build_params(2, [-3, -1, 0])
        for k in (1, 2):
            here = enumerate_points(p, k)
            there = enumerate_points(translate(p, 3), k)
            assert sorted(shifted(z, 3) for z in here) == list(there)
            assert here.nodes == there.nodes

    @given(cyclo_params(max_d=4, max_n=6, max_gap=3))
    @settings(max_examples=30, deadline=None)
    @example(CycloParams(4, (0, 1, 2, 3, 4)))
    def test_interior_boundary_partition(self, p):
        # the interior slice is the closed one filtered by strictly positive
        # slack on every facet, read off the same scan: equal nodes
        p = translate(p, -p.tau[0])  # boxes grow like tau^d
        hps = [facet_hyperplane(w, p) for w in facets(p)]
        for k in range(4):
            if box_volume(p, k) > BOX_CAP:
                continue
            full = enumerate_points(p, k, budget=LIFTED)
            interior = enumerate_points(p, k, True, budget=LIFTED)
            strict = [z for z in full if all(dot(h, z) > 0 for h in hps)]
            assert list(interior) == strict, (p, k)
            assert interior.nodes == full.nodes, (p, k)
        # on the vertex lattice a fiber steps by the pivot, so no interior slice is derived
        with pytest.raises(InvalidParameters, match="full lattice"):
            enumerate_points(p, 1, True, vertex_lattice=True)

    def test_vertices_always_enumerated(self):
        from cyclotoric.core import vertex

        p = build_params(3, [0, 2, 3, 7])
        pts = set(enumerate_points(p, 1))
        for i in range(1, p.n + 1):
            assert vertex(p, i) in pts


class TestAgainstNaiveBoxScan:
    @given(cyclo_params(max_d=3, max_n=5, max_gap=2))
    @settings(max_examples=25, deadline=None)
    @example(CycloParams(4, (0, 1, 2, 3, 4)))
    def test_matches_unpruned_filter(self, p):
        # independent of the branch-and-bound path: filter the full moment-frame
        # box.  At d = 4 the shadows bound three inner levels; its degree-2
        # box holds 2*10**7 candidates, so d = 4 checks degree 1 alone
        from itertools import product as iproduct

        from cyclotoric.core import vertex
        from cyclotoric.faces import facet_hyperplane, facets

        p = translate(p, -p.tau[0])
        hps = [facet_hyperplane(w, p) for w in facets(p)]
        verts = [vertex(p, i) for i in range(1, p.n + 1)]
        for k in (1, 2) if p.d < 4 else (1,):
            ranges = [
                range(k * min(v[t] for v in verts), k * max(v[t] for v in verts) + 1)
                for t in range(1, p.d + 1)
            ]
            closed = sorted(
                (k,) + rest
                for rest in iproduct(*ranges)
                if all(dot(h, (k,) + rest) >= 0 for h in hps)
            )
            assert list(enumerate_points(p, k)) == closed
            if k == 1:
                strict = [z for z in closed if all(dot(h, z) >= 1 for h in hps)]
                assert list(enumerate_points(p, k, True)) == strict


class TestVertexLatticeScan:
    """The residue-class scan must equal the full slice filtered by membership."""

    @staticmethod
    def check(p, budget=None, max_box=None):
        from cyclotoric.kq import generator_lattice

        lat = generator_lattice(p)
        for k in (1, 2):
            if max_box is not None and box_volume(p, k) > max_box:
                continue
            full = enumerate_points(p, k, budget=budget)
            got = enumerate_points(p, k, budget=budget, vertex_lattice=True)
            assert list(got) == [z for z in full if lat.contains(z)], (p, k)
            # at every level it tries a subset of the full scan's values
            assert got.nodes <= full.nodes, (p, k)

    @given(cyclo_params(max_d=3, max_n=6, max_gap=3))
    @settings(max_examples=25, deadline=None)
    def test_matches_filtered_slice(self, p):
        # boxes grow like tau^d
        self.check(translate(p, -p.tau[0]), budget=LIFTED, max_box=BOX_CAP)

    def test_index_240_instance(self):
        from cyclotoric.kq import generator_lattice

        p = build_params(3, [0, 1, 3, 5, 8, 11])
        assert generator_lattice(p).index_in_ambient == 240
        self.check(p)

    def test_d4_instance_under_the_default_budget(self):
        self.check(build_params(4, [0, 1, 2, 4, 5, 6]))

    @pytest.mark.parametrize(
        "d, tau, k, interior, vertex_lattice, nodes",
        [
            (4, (0, 1, 2, 4, 5, 6), 2, False, False, 1976),
            (4, (0, 1, 2, 4, 5, 6), 2, False, True, 200),
            (3, (0, 2, 4, 6, 8), 2, False, False, 355),
            (3, (0, 2, 4, 6, 8), 2, True, False, 355),
            (3, (0, 1, 3, 5, 8, 11), 1, False, True, 129),
        ],
    )
    def test_node_counts_are_pinned(self, d, tau, k, interior, vertex_lattice, nodes):
        # the nodes each scan visits, pinned: a scan that does more work fails here
        got = enumerate_points(build_params(d, tau), k, interior, vertex_lattice=vertex_lattice)
        assert got.nodes == nodes

    def test_budget_refuses_the_same_box(self):
        # the budget caps the nodes a scan visits, on either lattice: one node
        # fewer than a scan needs refuses it, and the refusal names the box
        p = build_params(3, [0, 1, 3, 5, 8, 11])
        volume = box_volume(p, 1)
        for vertex_lattice in (False, True):
            nodes = enumerate_points(p, 1, budget=LIFTED, vertex_lattice=vertex_lattice).nodes
            with pytest.raises(BudgetExceeded) as refused:
                enumerate_points(p, 1, budget=nodes - 1, vertex_lattice=vertex_lattice)
            message = str(refused.value)
            assert "degree 1 " in message and f" {nodes - 1} nodes" in message
            assert f"bounding box {volume} candidates" in message
            got = enumerate_points(p, 1, budget=nodes, vertex_lattice=vertex_lattice)
            assert got.nodes == nodes


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

    @given(
        st.one_of(
            cyclo_params(max_d=2, max_n=6, max_gap=4, min_d=2),
            cyclo_params(max_d=4, max_n=6, max_gap=3, min_d=3),
        )
    )
    @example(CycloParams(4, (0, 1, 2, 3, 4)))
    @settings(max_examples=30, deadline=None)
    def test_top_entry_counts_interior(self, p):
        # Ehrhart-Macdonald reciprocity: h*_d counts the interior lattice points;
        # the budget admits every polygon and the smaller instances of d = 3, 4
        budget = 2000
        try:
            h = h_star(p, budget=budget)
        except BudgetExceeded:
            return
        assert h.h[p.d] == interior_count(p, 1, budget=budget)

    @given(cyclo_params(max_d=4, max_n=6, max_gap=3))
    @example(CycloParams(4, (0, 1, 2, 3, 4)))
    @example(CycloParams(4, (-2, -1, 0, 2, 3)))
    @example(CycloParams(4, (0, 2, 3, 4, 5)))
    @settings(max_examples=40, deadline=None)
    def test_reciprocity_matches_the_all_degree_transform(self, p):
        # h* from full counts to degree ceil(d/2) and interior counts to
        # floor(d/2) equals the binomial transform of the counts of every
        # degree 0..d; the budget admits the smaller instances of d = 4
        budget = 2 * 10**4
        try:
            expected = h_star_all_degrees(p, budget=budget)
        except BudgetExceeded:
            return
        lattice_mod.instance.cache_clear()
        assert h_star(p, budget=budget).h == expected
        # the interior counts read the closed slices: none is scanned twice
        asked = sorted(lattice_mod.instance(p)._slices)
        assert asked == [(k, False) for k in range((p.d + 1) // 2 + 1)], asked

    def test_a_count_off_the_volume_raises(self, monkeypatch):
        # one interior point too many keeps h*_0 = 1 and h* >= 0, so only the
        # volume of the pulling triangulation from vertex 1 catches it
        p = build_params(2, [0, 1, 3])
        count = lattice_mod.interior_count
        monkeypatch.setattr(lattice_mod, "interior_count", lambda *a, **kw: count(*a, **kw) + 1)
        with pytest.raises(ArithmeticError, match="normalized volume 6"):
            h_star(p)


class TestBudget:
    def test_refuses_oversized_box(self):
        # the scan of this slice visits 5 nodes
        assert enumerate_points(build_params(2, [0, 1, 3]), 1, budget=5).nodes == 5
        with pytest.raises(BudgetExceeded):
            enumerate_points(build_params(2, [0, 1, 3]), 1, budget=4)

    def test_explicit_budget_allows(self):
        assert len(enumerate_points(build_params(2, [0, 1, 3]), 1, budget=100)) == 7

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "4")
        assert resolve_budget() == 4
        with pytest.raises(BudgetExceeded):
            enumerate_points(build_params(2, [0, 1, 3]), 1)
        monkeypatch.delenv(BUDGET_ENV_VAR)
        assert resolve_budget() == 10**6

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "5")
        assert resolve_budget(1000) == 1000

    def test_malformed_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "abc")
        with pytest.raises(InvalidParameters, match=BUDGET_ENV_VAR):
            resolve_budget()


class TestSlice:
    def test_equality_ignores_nodes(self):
        fibers = (((1, 0), 0, 2), ((1, 1), 1, 1))
        assert Slice(fibers, 1, 5) == Slice(fibers, 1, 9) == Slice(fibers, 1)
        assert Slice(fibers, 1) != Slice(fibers, 2)
        assert Slice(fibers, 1) != Slice(fibers[:1], 1)
        assert Slice(fibers, 1) != fibers

    def test_length_iteration_and_json_give_points(self):
        s = Slice((((1, 0), 0, 2), ((1, 1), 1, 1)), 2, 7)
        assert not isinstance(s, tuple)
        assert len(s) == s.count() == 3
        assert list(s) == [(1, 0, 0), (1, 0, 2), (1, 1, 1)]
        assert json.dumps(s, default=list) == "[[1, 0, 0], [1, 0, 2], [1, 1, 1]]"


class TestInstance:
    def test_each_slice_enumerated_once(self, monkeypatch):
        import cyclotoric.kp as kp_mod
        import cyclotoric.kq as kq_mod

        calls = Counter()
        original = lattice_mod.Instance.stream

        def counting(ctx, k, vertex_lattice, cap):
            calls[(k, vertex_lattice)] += 1
            return original(ctx, k, vertex_lattice, cap)

        # the scan primitive: whole slices and streamed ones both start here
        monkeypatch.setattr(lattice_mod.Instance, "stream", counting)
        lattice_mod.instance.cache_clear()
        p = build_params(2, [0, 1, 2, 4, 6])
        assert p.n >= p.d + 3 and kq_mod.divisibility_test(p) is None
        budget = 10**5  # not the default: each slice request carries it to the node check
        kp_report = kp_mod.classify_kp(p, oracle=True, budget=budget)
        assert calls[(1, False)] == 1 and max(calls.values()) == 1
        # stages with no budget of their own read the same context
        kp_mod.interior_generator_candidate(p)
        kq_mod.generator_lattice(p)
        report = kq_mod.classify_kq(p, use_bruteforce=True, budget=budget)
        assert report.evidence["kind"] == "bruteforce_witness"
        assert calls[(1, True)] == 1 and calls[(1, False)] == 1
        assert max(calls.values()) == 1
        # whole-slice reads after them return the memo entries themselves
        memo = lattice_mod.instance(p)._slices
        for (k, lattice), entry in list(memo.items()):
            got = enumerate_points(p, k, budget=budget, vertex_lattice=lattice)
            assert got is entry, (k, lattice)
        # and interior reads are taken from them, with no scan of their own
        assert interior_count(p, 1, budget=budget) == kp_report.interior_k1
        assert h_star(p, budget=budget) == kp_report.h_star
        assert max(calls.values()) == 1

    @pytest.mark.parametrize(
        "family, scans",
        [
            (("--d", "2..3", "--n", "d+1..d+2", "--max-gap", "2", "--ring", "both"), 66),
            (("--d", "3..4", "--n", "d+3..d+4", "--max-gap", "3", "--ring", "kq"), 171),
        ],
    )
    def test_each_scan_family_scans_each_slice_once(self, monkeypatch, tmp_path, family, scans):
        # the benchmark's scan families, serial: one stream per (instance, degree,
        # lattice), pinned, so a stage that scans a slice again fails here
        import contextlib
        import io

        from cyclotoric.cli import main

        calls = Counter()
        original = lattice_mod.Instance.stream

        def counting(ctx, k, vertex_lattice, cap):
            calls[(ctx.p, k, vertex_lattice)] += 1
            return original(ctx, k, vertex_lattice, cap)

        monkeypatch.setattr(lattice_mod.Instance, "stream", counting)
        lattice_mod.instance.cache_clear()
        argv = ["scan", *family, "--oracle", "--threads", "1", "--out", str(tmp_path / "out")]
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        assert (sum(calls.values()), len(calls)) == (scans, scans)

    def test_memo_never_outlives_its_budget(self):
        # one rule for every read: an entry is read back only within the
        # budget of the request, else the slice is scanned afresh
        p = build_params(2, [0, 1, 3])
        lattice_mod.instance.cache_clear()
        assert h_star(p, budget=100).h == (1, 4, 1)
        assert interior_count(p, 1, budget=100) == 1
        ctx = lattice_mod.instance(p)
        memo = ctx._slices[(1, False)]
        assert memo.nodes == 5  # each budget below refuses by one node
        assert enumerate_points(p, 1, True, budget=5).nodes == 5
        with pytest.raises(BudgetExceeded):
            h_star(p, budget=4)
        with pytest.raises(BudgetExceeded) as inner:
            interior_count(p, 1, budget=4)
        # a refused memo hit says what the scan primitive says under that
        # budget, whether the slice is read whole or streamed
        with pytest.raises(BudgetExceeded) as whole:
            enumerate_points(p, 1, budget=4)
        with pytest.raises(BudgetExceeded) as streamed:
            list(ctx.fibers(1, budget=4))
        with pytest.raises(BudgetExceeded) as fresh:
            list(ctx.stream(1, False, 4))
        # an interior read refuses where the closed scan does
        assert str(whole.value) == str(streamed.value) == str(fresh.value) == str(inner.value)
        # a refusal leaves the entry, and a budget that admits it reads it back
        assert ctx._slices[(1, False)] is memo
        assert enumerate_points(p, 1, budget=5) is memo
        assert list(ctx.fibers(1, budget=5)) == list(memo.fibers)

    def test_a_stream_left_early_leaves_no_entry(self):
        # only a stream read to its end is kept: one stopped at a gap or by
        # the budget is not, and a later request scans afresh
        p = build_params(3, [0, 1, 3, 5, 8, 11])
        key = (1, True)
        # a whole read is kept, so it is taken on a context of its own
        lattice_mod.instance.cache_clear()
        whole = enumerate_points(p, 1, vertex_lattice=True)
        assert lattice_mod.instance(p)._slices[key] is whole
        lattice_mod.instance.cache_clear()
        ctx = lattice_mod.instance(p)
        stream = ctx.fibers(1, vertex_lattice=True)
        first = next(stream)
        stream.close()
        assert key not in ctx._slices
        with pytest.raises(BudgetExceeded):
            list(ctx.fibers(1, vertex_lattice=True, budget=whole.nodes - 1))
        assert key not in ctx._slices
        assert list(ctx.fibers(1, vertex_lattice=True, budget=whole.nodes)) == list(whole.fibers)
        assert ctx._slices[key] == whole and whole.fibers[0] == first
        # a K[Q] search stops at its first gap in degree 1
        from cyclotoric.kq import is_normal_kq_bruteforce

        lattice_mod.instance.cache_clear()
        verdict, witness = is_normal_kq_bruteforce(p)
        assert verdict == "not_normal"
        assert key not in lattice_mod.instance(p)._slices

    def test_scan_data_built_once(self, monkeypatch):
        import cyclotoric.kp as kp_mod
        import cyclotoric.kq as kq_mod

        calls = Counter()

        def counting(name, fn):
            def wrapped(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)

            return wrapped

        monkeypatch.setattr(lattice_mod, "hnf", counting("hnf", lattice_mod.hnf))
        lattice_mod.instance.cache_clear()
        p = build_params(2, [0, 1, 2, 4, 6])
        kp_mod.classify_kp(p, oracle=True)
        report = kq_mod.classify_kq(p, use_bruteforce=True)
        assert report.evidence["kind"] == "bruteforce_witness"
        assert calls["hnf"] == 1

    def test_dropped_context_is_freed_at_once(self):
        # nothing a context holds refers back to it, so its slices go with it
        import gc
        import weakref

        p = build_params(3, [0, 1, 3, 4, 7])
        gc.disable()
        try:
            ctx = lattice_mod.instance(p)
            assert ctx.shadows[-1] and ctx.lattice_rows
            assert enumerate_points(p, 2) and enumerate_points(p, 1, vertex_lattice=True)
            ref = weakref.ref(ctx)
            del ctx
            lattice_mod.instance(build_params(2, [0, 1, 3]))
            assert ref() is None
        finally:
            gc.enable()

    def test_in_cone_matches_facet_slacks(self):
        p = build_params(3, [0, 1, 3, 4, 7])
        ctx = lattice_mod.instance(p)
        hps = [facet_hyperplane(w, p) for w in facets(p)]
        for z in list(enumerate_points(p, 2)) + [(1, -1, 0, 0), (2, 1, 1, 1)]:
            assert in_cone(ctx, z) == all(dot(h, z) >= 0 for h in hps)
