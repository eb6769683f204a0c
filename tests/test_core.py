"""Parameter validation, exact matrices, and the unimodular normal forms."""

import pytest
from hypothesis import given, settings

from cyclotoric.core import (
    DeltaTable,
    InvalidParameters,
    build_params,
    canonical_form,
    inverse_transform_factor,
    moment_matrix,
    reverse_negate,
    transform,
    translate,
    vertex,
)
from cyclotoric.intlinalg import det, mat_mul

from _oracles import identity
from _strategies import cyclo_params


class TestBuildParams:
    def test_valid(self):
        p = build_params(2, [0, 1, 3])
        assert p.n == 3 and p.gaps == (1, 2)

    def test_not_increasing(self):
        with pytest.raises(InvalidParameters, match="strictly increasing"):
            build_params(2, [0, 0, 3])

    def test_too_few_parameters(self):
        with pytest.raises(InvalidParameters, match="d\\+1"):
            build_params(3, [0, 1, 2])

    def test_nonpositive_dimension(self):
        with pytest.raises(InvalidParameters, match="at least 1"):
            build_params(0, [0, 1])


class TestMomentMatrix:
    def test_columns_d2(self):
        m = moment_matrix(build_params(2, [0, 1, 3]))
        assert [m.column(i) for i in (1, 2, 3)] == [(1, 0, 0), (1, 1, 1), (1, 3, 9)]

    def test_columns_d1(self):
        m = moment_matrix(build_params(1, [0, 2]))
        assert [m.column(1), m.column(2)] == [(1, 0), (1, 2)]

    def test_shape_and_last_column_d3(self):
        m = moment_matrix(build_params(3, [0, 1, 2, 3, 4]))
        assert (len(m.entries), len(m.entries[0])) == (4, 5)
        assert m.column(5) == (1, 4, 16, 64)

    def test_first_row_all_ones(self):
        m = moment_matrix(build_params(2, [-3, 1, 5]))
        assert m.entries[0] == (1, 1, 1)


class TestTransform:
    def test_columns_d2_single_gap_pair(self):
        tm = transform(build_params(2, [0, 1, 3]))
        cols = [tm.column(i) for i in (1, 2, 3)]
        assert cols == [(1, 0, 0), (1, 1, 0), (1, 3, 6)]

    def test_columns_d2_four_params(self):
        tm = transform(build_params(2, [0, 1, 2, 3]))
        cols = [tm.column(i) for i in (1, 2, 3, 4)]
        assert cols == [(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 3, 6)]

    @given(cyclo_params())
    @settings(max_examples=60, deadline=None)
    def test_factor_recovers_entries(self, p):
        tm = transform(p)
        assert mat_mul(tm.unimodular_factor, moment_matrix(p).entries) == tm.entries
        assert det(tm.unimodular_factor) in (1, -1)

    @given(cyclo_params())
    @settings(max_examples=60, deadline=None)
    def test_upper_triangular_leading_block(self, p):
        tm = transform(p)
        for r in range(1, p.d + 1):
            for c in range(r):
                assert tm.entries[r][c] == 0

    @given(cyclo_params())
    @settings(max_examples=40, deadline=None)
    def test_inverse_factor(self, p):
        u = transform(p).unimodular_factor
        assert mat_mul(u, inverse_transform_factor(p)) == identity(p.d + 1)


class TestDeltaTable:
    def test_antisymmetry_and_sign(self):
        dt = DeltaTable(build_params(2, [0, 1, 3]))
        assert dt.delta(1, 3) == 3 and dt.delta(3, 1) == -3
        assert dt.delta(1, 2) > 0

    @given(cyclo_params())
    @settings(max_examples=40, deadline=None)
    def test_last_row_strictly_increasing(self, p):
        dt = DeltaTable(p)
        vals = [dt.delta_tilde(p.d, j) for j in range(p.d + 1, p.n + 1)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    @given(cyclo_params())
    @settings(max_examples=40, deadline=None)
    def test_positive_above_diagonal(self, p):
        dt = DeltaTable(p)
        for i in range(1, p.d + 1):
            for j in range(i + 1, p.n + 1):
                assert dt.delta_tilde(i, j) > 0


class TestEquivalences:
    def test_reverse_negate(self):
        p = reverse_negate(build_params(2, [0, 1, 3]))
        assert p.tau == (-3, -1, 0)
        assert p.gaps == (2, 1)

    @given(cyclo_params())
    @settings(max_examples=60, deadline=None)
    def test_reverse_negate_reverses_gaps_and_involutes(self, p):
        q = reverse_negate(p)
        assert q.gaps == tuple(reversed(p.gaps))
        assert reverse_negate(q) == p

    def test_translate(self):
        assert translate(build_params(2, [0, 1, 3]), 5).tau == (5, 6, 8)

    @given(cyclo_params())
    @settings(max_examples=40, deadline=None)
    def test_translate_preserves_deltas(self, p):
        q = translate(p, 7)
        dtp, dtq = DeltaTable(p), DeltaTable(q)
        for i in range(1, p.d + 1):
            for j in range(1, p.n + 1):
                if i != j:
                    assert dtp.delta(i, j) == dtq.delta(i, j)
                    assert dtp.delta_tilde(i, j) == dtq.delta_tilde(i, j)

    def test_translate_to_zero(self):
        p = build_params(2, [4, 5, 7])
        assert translate(p, -p.tau[0]).tau == (0, 1, 3)


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "tau,expected",
        [((5, 6, 8), (0, 1, 3)), ((0, 2, 3), (0, 1, 3)), ((0, 1, 3), (0, 1, 3))],
    )
    def test_examples(self, tau, expected):
        assert canonical_form(build_params(2, tau)).tau == expected

    @given(cyclo_params())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_orbit_constant(self, p):
        c = canonical_form(p)
        assert canonical_form(c) == c
        assert canonical_form(reverse_negate(p)) == c
        assert canonical_form(translate(p, 13)) == c
        assert c.tau[0] == 0
        assert c.gaps <= tuple(reversed(c.gaps))


def test_vertex_accessor():
    p = build_params(3, [0, 1, 2, 3])
    assert vertex(p, 4) == (1, 3, 9, 27)


def test_params_frozen():
    p = build_params(2, [0, 1, 3])
    with pytest.raises(AttributeError):
        p.d = 3
