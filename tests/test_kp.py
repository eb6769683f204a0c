"""Normality, codimension-one regularity, and the two Gorenstein routes."""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings

from cyclotoric.core import InvalidParameters, build_params, reverse_negate, translate, vertex
from cyclotoric.faces import facet_hyperplane, facets
from cyclotoric.intlinalg import dot, vec_add, vec_sub
from cyclotoric.kp import (
    NoWitnessExpected,
    classify_kp,
    first_gap,
    gorenstein_oracle,
    gorenstein_theorem,
    gorenstein_witnesses,
    interior_generator_candidate,
    is_normal_kp,
    normality_bound,
    r1_issues,
)
from cyclotoric.kq import is_normal_kq_bruteforce
from cyclotoric.lattice import (
    BudgetExceeded,
    HStarVector,
    Slice,
    enumerate_points,
    h_star,
    instance,
)

from _oracles import (
    cone_probe_normal_kp,
    cone_probe_normal_kq,
    gap_family,
    member_kp,
    minors_normal,
    pointwise_first_gap,
    verify_r1,
)
from _strategies import cyclo_params


class TestMemberKp:
    def test_sum_of_vertices(self):
        p = build_params(2, [0, 1, 3])
        assert member_kp(vec_add(vertex(p, 1), vertex(p, 2)), p)

    def test_degree_zero(self):
        p = build_params(2, [0, 1, 3])
        assert member_kp((0, 0, 0), p)
        assert not member_kp((0, 1, 0), p)

    def test_every_generator(self):
        p = build_params(2, [0, 2, 5])
        for z in enumerate_points(p, 1):
            assert member_kp(z, p)

    def test_point_outside_cone(self):
        assert not member_kp((1, -1, 0), build_params(2, [0, 1, 3]))


class TestIsNormal:
    @given(cyclo_params(max_d=2, max_n=6, max_gap=4, min_d=2))
    @settings(max_examples=40, deadline=None)
    def test_polygons_always_normal(self, p):
        flag, witness = is_normal_kp(p)
        assert flag and witness is None

    def test_segments_normal(self):
        for tau in ([0, 5], [0, 1, 7], [0, 2, 3, 11]):
            assert is_normal_kp(build_params(1, tau)) == (True, None)

    def test_unit_gap_simplices_normal(self):
        for d in (2, 3):
            p = build_params(d, list(range(d + 1)))
            assert is_normal_kp(p) == (True, None)

    def test_agrees_with_membership_route(self):
        # same verdict as the memoized generator-subtraction search
        for tau in ([0, 1, 3], [0, 2, 4], [0, 1, 2, 5]):
            p = build_params(2, tau)
            flag, _ = is_normal_kp(p)
            exhaustive = all(
                member_kp(z, p) for k in (2,) for z in enumerate_points(p, k)
            )
            assert flag == exhaustive

    def test_steps_down_along_the_last_winning_generator_first(self, monkeypatch):
        # lex neighbours tend to step down along the same generator; trying
        # the last one that worked first keeps the lookups per point low
        import cyclotoric.kp as kp_mod

        calls = [0]

        def counted(u, v):
            calls[0] += 1
            return vec_sub(u, v)

        monkeypatch.setattr(kp_mod, "vec_sub", counted)
        p = build_params(3, [0, 2, 4, 6, 8])
        assert is_normal_kp(p) == (True, None)
        points = len(enumerate_points(p, 2))  # the default bound max(1, d-1) is 2
        assert calls[0] <= 8 * points, (calls[0], points)

    def test_a_negative_bound_is_refused(self):
        # a negative bound would scan no degree and report a normal ring
        p = build_params(2, [0, 1, 2, 4, 6])
        for check in (is_normal_kp, is_normal_kq_bruteforce):
            with pytest.raises(InvalidParameters):
                check(p, -1)

    def test_one_lookup_covers_a_run_of_points(self, monkeypatch):
        # a lookup covers an interval of a fiber, so the scan needs fewer
        # lookups than there are points to check
        import cyclotoric.kp as kp_mod

        calls = [0]

        def counted(u, v):
            calls[0] += 1
            return vec_sub(u, v)

        monkeypatch.setattr(kp_mod, "vec_sub", counted)
        p = build_params(3, [0, 2, 4, 6, 8])
        assert is_normal_kp(p) == (True, None)
        points = len(enumerate_points(p, 2))  # the default bound max(1, d-1) is 2
        assert calls[0] < points, (calls[0], points)

    def test_a_miss_walks_on_from_the_last_winner(self, monkeypatch):
        # after a miss the walk resumes past the generator that covered last
        # and wraps around; restarting from the first generator took 142 and
        # 44 lookups per fiber at degrees 1 and 2 here
        import cyclotoric.kp as kp_mod

        calls = [0]

        def counted(u, v):
            calls[0] += 1
            return vec_sub(u, v)

        monkeypatch.setattr(kp_mod, "vec_sub", counted)
        p = build_params(3, [0, 3, 6, 9, 12])
        lookups = []
        for bound in (1, 2):
            calls[0] = 0
            assert is_normal_kp(p, bound) == (True, None)
            lookups.append(calls[0])
        for k, made in ((1, lookups[0]), (2, lookups[1] - lookups[0])):
            fibers = len(enumerate_points(p, k).fibers)
            assert made <= 8 * fibers, (k, made, fibers)

    def test_fiber_scan_matches_the_pointwise_reference(self):
        # verdict and witness of both rings, against the scan point by point,
        # both at the default bound max(1, d-1), which also caps a higher
        # max_degree.  K[P] runs under budgets of 5 and 200 scan nodes; K[Q]
        # runs under 5, the default and 10**12, which admits them all.  Under
        # one budget the streamed scan refuses nothing the full-slice
        # reference finishes, and gives its answer; where only the stream
        # finishes, at a gap before the budget, it gives the answer of the
        # reference run under a lifted budget.  K[P] has no gap here, so both
        # routes read the same slices.  Where the budget admits degree d, the
        # default scan also equals the reference run to degree d: the d-1
        # theorem itself
        def outcome(scan, p, max_degree, budget):
            try:
                return scan(p, max_degree, budget=budget)
            except BudgetExceeded:
                return "budget"

        def reference_kp(p, bound, budget):
            ctx = instance(p)
            vert_set = set(ctx.vertices)
            slice1 = enumerate_points(p, 1, budget=budget)
            gens = ctx.vertices + tuple(g for g in slice1 if g not in vert_set)
            witness = pointwise_first_gap(ctx, gens, bound, budget=budget)
            return witness is None, witness

        def reference_kq(p, bound, budget):
            ctx = instance(p)
            try:
                witness = pointwise_first_gap(
                    ctx, ctx.vertices, bound, vertex_lattice=True, budget=budget
                )
            except BudgetExceeded:
                return "inconclusive", None
            return ("normal", None) if witness is None else ("not_normal", witness)

        seen, full_bound, early = set(), Counter(), 0
        for d, tau in gap_family(max_d=3, max_n=6, max_gap=3):
            p = build_params(d, tau)
            for max_degree in (None, 0, 1, 2):
                bound = normality_bound(p.d)
                if max_degree is not None:
                    bound = min(bound, max_degree)
                for budget in (5, 200):
                    kp = outcome(is_normal_kp, p, max_degree, budget)
                    assert kp == outcome(reference_kp, p, bound, budget), (p, max_degree)
                    seen.add(kp if kp == "budget" else kp[0])
                for budget in (5, None, 10**12):
                    kq = is_normal_kq_bruteforce(p, max_degree, budget=budget)
                    ref = reference_kq(p, bound, budget)
                    if ref[0] == "inconclusive" and kq[0] != "inconclusive":
                        ref = reference_kq(p, bound, 10**12)
                        early += 1
                    assert kq == ref, (p, max_degree, budget)
                    seen.add(kq[0])
            full = outcome(reference_kp, p, p.d, 200)
            if full != "budget":
                assert is_normal_kp(p, budget=200) == full, p
                full_bound["kp"] += 1
            full = reference_kq(p, p.d, 10**12)
            assert is_normal_kq_bruteforce(p, budget=10**12) == full, p
            full_bound[full[0]] += 1
        assert seen == {True, "budget", "normal", "not_normal", "inconclusive"}
        assert early > 0
        assert full_bound == {"kp": 734, "normal": 51, "not_normal": 1023}, full_bound

    def test_a_non_normal_polytope_gets_the_reference_witness(self):
        # no cyclic instance fails at degree >= 2, so a scan that covers too
        # much passes them all; the Reeve tetrahedron of height r >= 2 holds
        # only its vertices, and (2, 1, 1, 1) lies in 2P but is no sum of two
        for r in (1, 2, 3, 4):
            ctx = _BoxContext(((1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, r)))
            slice1 = Slice(ctx.fibers(1), 1)
            assert len(slice1) == 4
            expected = None if r == 1 else (2, 1, 1, 1)
            for bound in (1, 2, 3):
                want = expected if bound >= 2 else None
                assert pointwise_first_gap(ctx, tuple(slice1), bound) == want, (r, bound)
                assert first_gap(ctx, slice1.fibers, bound) == want, (r, bound)

    def test_both_rings_match_the_cone_probe_scans(self):
        # under budget 5 the cone-probe scans, which read whole slices to
        # degree d, refuse at least where the streamed scans do, and agree
        # with them where they finish
        def kp_outcome(check, p, **kw):
            try:
                return check(p, **kw)
            except BudgetExceeded:
                return "budget"

        curves = [  # the family of acceptance criterion 08
            (1, (0,) + rest) for n in range(2, 6) for rest in combinations(range(1, 9), n - 1)
        ]
        seen = set()
        for d, tau in list(gap_family(max_d=3, max_n=5, max_gap=2)) + curves:
            p = build_params(d, tau)
            for max_degree in (None, 0, 1, 2):
                kp = is_normal_kp(p, max_degree)
                assert kp == cone_probe_normal_kp(p, max_degree), (d, tau, max_degree)
                kq = is_normal_kq_bruteforce(p, max_degree)
                assert kq == cone_probe_normal_kq(p, max_degree), (d, tau, max_degree)
                seen.update((kp[0], kq[0]))
                if max_degree is None:
                    full_kp, full_kq = kp, kq
            kp = kp_outcome(is_normal_kp, p, budget=5)
            ref = kp_outcome(cone_probe_normal_kp, p, budget=5)
            assert kp == ref or (ref == "budget" and kp in ("budget", full_kp)), (d, tau)
            kq = is_normal_kq_bruteforce(p, budget=5)
            ref = cone_probe_normal_kq(p, budget=5)
            if ref[0] == "inconclusive":
                ref = kq if kq[0] == "inconclusive" else full_kq
            assert kq == ref, (d, tau)
            seen.update((kp if kp == "budget" else kp[0], kq[0]))
        # every K[P] in this family is normal; only K[Q] yields witnesses
        assert seen >= {True, "budget", "normal", "not_normal", "inconclusive"}


class _BoxContext:
    """A stand-in instance context for a lattice simplex given by its homogeneous vertices.

    A slice's fibers come from filtering the whole bounding box by the
    facet inequalities and grouping the points by their head.
    """

    def __init__(self, vertices):
        self.vertices = vertices
        self.normals = []
        for i, apex in enumerate(vertices):
            m = minors_normal(vertices[:i] + vertices[i + 1 :])
            self.normals.append(m if dot(m, apex) > 0 else [-x for x in m])

    def step(self, vertex_lattice=False):
        return 1

    def fibers(self, k, vertex_lattice=False, budget=None):
        from itertools import groupby
        from itertools import product as iproduct

        ranges = [
            range(k * min(v[t] for v in self.vertices), k * max(v[t] for v in self.vertices) + 1)
            for t in range(1, len(self.vertices[0]))
        ]
        pts = [
            (k,) + rest
            for rest in iproduct(*ranges)
            if all(dot(a, (k,) + rest) >= 0 for a in self.normals)
        ]
        return tuple(
            (head, run[0][-1], run[-1][-1])
            for head, run in ((h, list(g)) for h, g in groupby(pts, key=lambda z: z[:-1]))
        )


class TestR1:
    def test_reference_triangle(self):
        assert verify_r1(build_params(2, [0, 1, 3]))

    def test_dimension_three(self):
        assert verify_r1(build_params(3, [0, 1, 2, 3, 5]))

    @given(cyclo_params(max_d=3, max_n=6, max_gap=3))
    @settings(max_examples=25, deadline=None)
    def test_no_issues_on_family(self, p):
        assert r1_issues(p) == []


class TestGorensteinTheorem:
    @pytest.mark.parametrize(
        "d,tau,expected",
        [
            (2, [0, 1, 3], True),
            (2, [0, 2, 3], True),
            (2, [0, 1, 2], False),
            (2, [0, 2, 4], False),
            (3, [0, 1, 2, 3], False),
            (2, [0, 1, 3, 4], False),
            (1, [0, 2], False),
        ],
    )
    def test_predicate(self, d, tau, expected):
        assert gorenstein_theorem(build_params(d, tau)) == expected

    @given(cyclo_params())
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_equivalences(self, p):
        value = gorenstein_theorem(p)
        assert gorenstein_theorem(reverse_negate(p)) == value
        assert gorenstein_theorem(translate(p, 9)) == value


class TestGorensteinOracle:
    def test_positive_case_with_exact_generator(self):
        p = build_params(2, [0, 1, 3])
        rec = gorenstein_oracle(p, normal=True, h=h_star(p))
        assert rec.status == "gorenstein"
        assert rec.generator == (1, 1, 2)
        assert rec.h_star_palindromic is True

    def test_second_positive_case(self):
        p = build_params(2, [0, 2, 3])
        rec = gorenstein_oracle(p, normal=True)
        assert rec.status == "gorenstein"
        for w in facets(p):
            assert dot(facet_hyperplane(w, p), rec.generator) == 1

    def test_two_interior_points_forbid_generator(self):
        p = build_params(2, [0, 2, 4])
        assert interior_generator_candidate(p) is None
        assert gorenstein_oracle(p, normal=True).status == "not_gorenstein"

    def test_bare_assertion_case_is_recorded_not_assumed(self):
        # no expected value pinned here: only report-level consistency
        p = build_params(2, [0, 1, 2])
        report = classify_kp(p, oracle=True)
        assert report.gorenstein_oracle is not None
        mismatch = report.gorenstein_theorem != (
            report.gorenstein_oracle.status == "gorenstein"
        )
        assert mismatch == (
            report.discrepancy is not None
            and "theorem_oracle_discrepancy" in report.discrepancy
        )

    def test_generator_is_unique_interior_point_of_its_degree(self):
        p = build_params(2, [0, 1, 3])
        rec = gorenstein_oracle(p, normal=True)
        k = rec.generator[0]
        assert list(enumerate_points(p, k, True)) == [rec.generator]

    @given(cyclo_params(max_d=2, max_n=5, max_gap=3, min_d=2))
    @settings(max_examples=25, deadline=None)
    def test_status_matches_series_symmetry_when_normal(self, p):
        h = h_star(p)
        rec = gorenstein_oracle(p, normal=True, h=h)
        assert (rec.status == "gorenstein") == h.is_palindromic()


class TestGorensteinWitnesses:
    def test_two_by_two_gaps(self):
        rep = gorenstein_witnesses(build_params(2, [0, 2, 4]))
        assert rep.points == ((1, 1, 1), (1, 2, 2))
        assert rep.verified and not rep.oracle_needed
        assert all(s > 0 for row in rep.slacks for s in row)

    def test_wide_then_unit_gap(self):
        rep = gorenstein_witnesses(build_params(2, [0, 5, 6]))
        assert rep.points == ((1, 2, 1), (1, 3, 1))
        assert rep.verified

    def test_reversal_branch_dim2(self):
        rep = gorenstein_witnesses(build_params(2, [0, 1, 4]))
        assert rep.reversed_params
        assert rep.params_used.gaps == (3, 1)
        assert rep.verified

    def test_gorenstein_family_raises(self):
        with pytest.raises(NoWitnessExpected):
            gorenstein_witnesses(build_params(2, [0, 1, 3]))
        with pytest.raises(NoWitnessExpected):
            gorenstein_witnesses(build_params(2, [0, 2, 3]))

    def test_bare_assertion_families_defer_to_oracle(self):
        for d, tau in [(2, [0, 1, 2]), (2, [0, 1, 2, 3]), (3, [0, 1, 2, 3]), (1, [0, 4])]:
            rep = gorenstein_witnesses(build_params(d, tau))
            assert rep.oracle_needed and rep.points == ()

    def test_quadrilateral_recurses_on_sub_triangle(self):
        rep = gorenstein_witnesses(build_params(2, [0, 1, 2, 4]))
        assert rep.subset == (1, 3, 4)
        assert rep.params_used.tau == (0, 2, 4) or rep.reversed_params
        assert rep.verified

    def test_pentagon_uses_fixed_sub_triangle(self):
        rep = gorenstein_witnesses(build_params(2, [0, 1, 2, 3, 4]))
        assert rep.subset == (1, 4, 5)
        assert rep.verified

    def test_dim3_branches(self):
        # middle gap wide
        rep = gorenstein_witnesses(build_params(3, [0, 1, 3, 4]))
        assert rep.points[0][:3] == (1, 2, 4) and rep.verified
        # outer gaps wide
        rep = gorenstein_witnesses(build_params(3, [0, 2, 3, 5]))
        assert rep.points == ((1, 2, 2, 1), (1, 2, 2, 2)) and rep.verified
        # leading gap wide only
        rep = gorenstein_witnesses(build_params(3, [0, 2, 3, 4]))
        assert rep.points == ((1, 2, 2, 1), (1, 3, 4, 3)) and rep.verified
        # trailing gap wide only: reversal first
        rep = gorenstein_witnesses(build_params(3, [0, 1, 2, 4]))
        assert rep.reversed_params and rep.verified

    def test_dim3_five_vertices(self):
        rep = gorenstein_witnesses(build_params(3, [0, 1, 2, 3, 4]))
        assert rep.subset == (1, 3, 4, 5)
        assert rep.verified

    def test_even_high_dimension(self):
        rep = gorenstein_witnesses(build_params(4, [0, 1, 2, 3, 4]))
        assert rep.subset == (1, 2, 3, 4, 5)
        assert rep.points == ((1, 2, 3, 3, 1), (1, 2, 3, 3, 2))
        assert rep.verified

    def test_odd_high_dimension(self):
        rep = gorenstein_witnesses(build_params(5, [0, 1, 2, 3, 4, 5]))
        assert rep.points == ((1, 2, 3, 4, 5, 4), (1, 2, 3, 4, 5, 3))
        assert rep.verified

    def test_high_dimension_with_extra_vertices(self):
        rep = gorenstein_witnesses(build_params(4, [0, 1, 2, 3, 4, 6, 9]))
        assert rep.subset == (1, 2, 3, 4, 5)
        assert rep.verified


class TestClassify:
    def test_gorenstein_triangle(self):
        report = classify_kp(build_params(2, [0, 1, 3]))
        assert report.normal and report.cohen_macaulay and report.s2
        assert report.r1 and report.seminormal
        assert report.gorenstein_theorem
        assert report.gorenstein_oracle.status == "gorenstein"
        assert report.discrepancy is None
        assert report.h_star.h == (1, 4, 1)
        assert report.interior_k1 == 1

    def test_not_gorenstein_agreeing_routes(self):
        report = classify_kp(build_params(2, [0, 2, 4]))
        assert report.normal
        assert not report.gorenstein_theorem
        assert report.gorenstein_oracle.status == "not_gorenstein"
        assert report.discrepancy is None
        assert report.interior_k1 == 5

    def test_flag_equalities(self):
        for tau in ([0, 1, 2], [0, 1, 3], [0, 2, 4], [0, 1, 2, 5]):
            r = classify_kp(build_params(2, tau))
            assert r.cohen_macaulay == r.s2 == r.seminormal == r.normal
            assert r.r1

    def test_without_oracle(self):
        report = classify_kp(build_params(2, [0, 1, 3]), oracle=False)
        assert report.gorenstein_oracle is None
        assert report.discrepancy is None

    def test_nonnormal_report_wiring(self, monkeypatch):
        # no desk-scale instance fails normality, so force the verdict to
        # check the report assembly: depth flags follow and the exact route
        # returns not_gorenstein regardless of the candidate solve
        import cyclotoric.kp as kp_mod

        witness = (2, 1, 1)
        monkeypatch.setattr(kp_mod, "is_normal_kp", lambda p, **kw: (False, witness))
        report = classify_kp(build_params(2, [0, 1, 3]))
        assert not report.normal
        assert report.nonnormal_witness == witness
        assert not report.cohen_macaulay and not report.s2 and not report.seminormal
        assert report.gorenstein_oracle.status == "not_gorenstein"
        assert report.gorenstein_oracle.generator is None

    def test_a_lowered_bound_proves_no_normality(self, monkeypatch):
        # a scan that stops below degree d without a gap proves nothing, so
        # the flags normality drives are unknown; a witness still proves False
        import cyclotoric.kp as kp_mod

        p = build_params(3, [0, 2, 4, 6, 8])
        flags = ("normal", "cohen_macaulay", "s2", "seminormal")
        full = classify_kp(p)
        for max_degree in (None, 2, 3):
            report = classify_kp(p, max_degree=max_degree)
            assert [getattr(report, f) for f in flags] == [True] * 4, max_degree
        for max_degree in (0, 1):
            report = classify_kp(p, max_degree=max_degree)
            assert [getattr(report, f) for f in flags] == [None] * 4, max_degree
            assert report.nonnormal_witness is None
            # the exact Gorenstein route decides normality itself
            assert report.gorenstein_oracle == full.gorenstein_oracle
            assert report.to_dict()["normal"] is None
        witness = (2, 1, 1, 1)
        monkeypatch.setattr(kp_mod, "is_normal_kp", lambda p, **kw: (False, witness))
        report = classify_kp(p, max_degree=1)
        assert [getattr(report, f) for f in flags] == [False] * 4
        assert report.nonnormal_witness == witness

    def test_the_oracle_reports_the_full_scan_it_runs(self):
        # with an integer candidate generator the oracle scans every degree,
        # so a lowered bound there still reports the proven verdict
        flags = ("normal", "cohen_macaulay", "s2", "seminormal")
        p = build_params(2, [0, 1, 3])
        full = classify_kp(p)
        report = classify_kp(p, max_degree=0)
        assert [getattr(report, f) for f in flags] == [True] * 4
        assert report.notes == full.notes
        assert report.gorenstein_oracle == full.gorenstein_oracle
        report = classify_kp(p, oracle=False, max_degree=0)
        assert [getattr(report, f) for f in flags] == [None] * 4
        # at d = 2 degree 1 is the whole bound max(1, d-1), so it proves
        report = classify_kp(p, oracle=False, max_degree=1)
        assert [getattr(report, f) for f in flags] == [True] * 4
        assert classify_kp(build_params(3, [0, 2, 4, 6, 8]), max_degree=1).normal is None

    def test_memory_stays_small(self):
        # each slice is kept as its fibers: with the point lists kept too, this
        # classify peaked at 46 MiB of traced allocations
        import tracemalloc

        instance.cache_clear()
        tracemalloc.start()
        try:
            classify_kp(build_params(3, [0, 3, 6, 9, 12]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_hstar_route_reaches_the_findings(self, monkeypatch):
        # normal K[P] is Cohen-Macaulay, so Gorenstein iff h* is symmetric
        import cyclotoric.kp as kp_mod
        from cyclotoric.cli import derive_findings

        p = build_params(2, [0, 1, 3])
        assert classify_kp(p).notes == ()
        monkeypatch.setattr(kp_mod, "h_star", lambda p, budget=None: HStarVector((1, 4, 0)))
        report = classify_kp(p)
        assert report.normal and report.gorenstein_oracle.status == "gorenstein"
        kinds = [f["kind"] for f in derive_findings(p, report, None)]
        assert kinds == ["hstar_oracle_discrepancy"]

    def test_generator_divides_interior_points(self):
        # principality evidence: every low-degree interior point sits above c
        p = build_params(2, [0, 1, 3])
        c = classify_kp(p).gorenstein_oracle.generator
        hps = [facet_hyperplane(w, p) for w in facets(p)]
        for k in range(1, p.d + 3):
            for z in enumerate_points(p, k, True):
                diff = vec_sub(z, c)
                assert all(dot(h, diff) >= 0 for h in hps)

    def test_json_shape(self):
        d = classify_kp(build_params(2, [0, 1, 3])).to_dict()
        assert set(d) == {
            "normal",
            "nonnormal_witness",
            "cohen_macaulay",
            "s2",
            "r1",
            "seminormal",
            "gorenstein_theorem",
            "gorenstein_oracle",
            "discrepancy",
            "h_star",
            "interior_k1",
        }

    @given(cyclo_params(max_d=2, max_n=5, max_gap=3))
    @settings(max_examples=15, deadline=None)
    def test_canonical_form_classifies_identically(self, p):
        # flags must agree; witness points transform with the coordinates
        from cyclotoric.core import canonical_form

        def flags(report):
            d = report.to_dict()
            d.pop("nonnormal_witness")
            oracle = d.pop("gorenstein_oracle")
            d["oracle_status"] = oracle["status"]
            d["oracle_palindromic"] = oracle["h_star_palindromic"]
            return d

        assert flags(classify_kp(p)) == flags(classify_kp(canonical_form(p)))
