import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ruinflow.rare_sets import (
    AnyLineNegative,
    HalfSpace,
    MaxExceed,
    PolyhedralUnion,
    Ray,
    WeightedSumNegative,
    contains,
    from_ruin_set,
    z_index,
    z_index_signed,
)

from oracles import grid_search_scalarization


def random_set(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        d = int(rng.integers(1, 4))
        return MaxExceed(b=tuple(rng.uniform(0.3, 2.5, d)))
    if kind == 1:
        d = int(rng.integers(1, 4))
        w = rng.uniform(0.1, 1.0, d)
        return HalfSpace(l=tuple(w / w.sum()), b=float(rng.uniform(0.3, 2.5)))
    if kind == 2:
        return Ray(b=float(rng.uniform(0.3, 2.5)))
    parts = []
    d = int(rng.integers(1, 4))
    for _ in range(int(rng.integers(2, 4))):
        w = rng.uniform(0.1, 1.0, d)
        parts.append(HalfSpace(l=tuple(w / w.sum()), b=float(rng.uniform(0.3, 2.5))))
    return PolyhedralUnion(parts=tuple(parts))


class TestClosedForms:
    def test_max_exceed(self):
        assert z_index(MaxExceed(b=(1, 2)), [3, 8]) == pytest.approx(4.0)

    def test_half_space(self):
        assert z_index(HalfSpace(l=(0.5, 0.5), b=1), [2, 4]) == pytest.approx(3.0)

    def test_origin_maps_to_zero(self):
        assert z_index(MaxExceed(b=(1, 1)), [0, 0]) == 0.0

    def test_ray(self):
        assert z_index(Ray(b=2.0), [5.0]) == pytest.approx(2.5)

    def test_union_takes_max(self):
        u = PolyhedralUnion(parts=(HalfSpace(l=(1.0, 0.0), b=1.0),
                                   HalfSpace(l=(0.0, 1.0), b=2.0)))
        assert z_index(u, [3, 8]) == pytest.approx(4.0)

    def test_batch_shape(self):
        z = np.array([[3.0, 8.0], [1.0, 1.0]])
        out = z_index(MaxExceed(b=(1, 2)), z)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(4.0)


class TestContains:
    def test_strict_boundary(self):
        s = MaxExceed(b=(1, 2))
        assert contains(s, 3.9, [3, 8])
        assert not contains(s, 4.0, [3, 8])  # open set: boundary excluded

    def test_half_space_example(self):
        assert contains(HalfSpace(l=(0.5, 0.5), b=1), 2.9, [2, 4])

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            contains(Ray(b=1.0), 0.0, [1.0])


class TestValidation:
    def test_max_exceed_needs_positive_thresholds(self):
        with pytest.raises(ValueError):
            MaxExceed(b=(1.0, 0.0))

    def test_half_space_needs_convex_weights(self):
        with pytest.raises(ValueError):
            HalfSpace(l=(0.7, 0.7), b=1.0)
        with pytest.raises(ValueError):
            HalfSpace(l=(-0.5, 1.5), b=1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            z_index(MaxExceed(b=(1, 2)), [1, 2, 3])

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            z_index(MaxExceed(b=(1, 2)), [1, -2])

    def test_union_members_must_be_half_spaces(self):
        with pytest.raises(TypeError):
            PolyhedralUnion(parts=(Ray(b=1.0),))

    def test_ray_is_max_exceed_of_one_threshold(self):
        assert Ray(2.0) == MaxExceed((2.0,))
        assert Ray(b=2.0).dim == 1

    @pytest.mark.parametrize("b", [0.0, -1.0, math.nan, math.inf])
    def test_ray_needs_finite_positive_level(self, b):
        with pytest.raises(ValueError):
            Ray(b)


class TestRuinSetMapping:
    def test_any_line_to_max_exceed(self):
        # set algebra: allocation minus the any-line-negative orthant flips
        # each inequality y_i < 0 into z_i > alloc_i
        assert from_ruin_set(AnyLineNegative(), [0.5, 0.5]) == MaxExceed(b=(0.5, 0.5))

    def test_weighted_sum_to_half_space(self):
        out = from_ruin_set(WeightedSumNegative(weights=(0.5, 0.5)), [0.5, 0.5])
        assert out == HalfSpace(l=(0.5, 0.5), b=0.5)

    def test_weights_default_to_allocation(self):
        assert from_ruin_set(WeightedSumNegative(), [0.25, 0.75]) == \
            HalfSpace(l=(0.25, 0.75), b=0.25 * 0.25 + 0.75 * 0.75)

    def test_one_dimension_gives_ray(self):
        assert from_ruin_set(AnyLineNegative(), [1.0]) == Ray(b=1.0)

    def test_allocation_validated(self):
        with pytest.raises(ValueError):
            from_ruin_set(AnyLineNegative(), [0.5, 0.6])
        with pytest.raises(ValueError):
            from_ruin_set(AnyLineNegative(), [1.2, -0.2])


@st.composite
def set_and_vector(draw):
    d = draw(st.integers(1, 3))
    kind = draw(st.integers(0, 2))
    coords = st.floats(0.0, 50.0, allow_nan=False)
    z = draw(st.lists(coords, min_size=d, max_size=d))
    if kind == 0:
        b = draw(st.lists(st.floats(0.1, 5.0), min_size=d, max_size=d))
        return MaxExceed(b=tuple(b)), z
    if kind == 1:
        w = draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d))
        total = sum(w)
        return HalfSpace(l=tuple(v / total for v in w), b=draw(st.floats(0.1, 5.0))), z
    return Ray(b=draw(st.floats(0.1, 5.0))), z[:1]


class TestProperties:
    @given(set_and_vector(), st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_homogeneity(self, sv, c):
        rare_set, z = sv
        lhs = z_index(rare_set, np.asarray(z) * c)
        rhs = c * z_index(rare_set, z)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @given(set_and_vector())
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, sv):
        rare_set, z = sv
        bigger = np.asarray(z) + 1.0
        assert z_index(rare_set, bigger) >= z_index(rare_set, z)

    @given(set_and_vector(), st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_contains_matches_scalarization(self, sv, x):
        rare_set, z = sv
        assert contains(rare_set, x, z) == (z_index(rare_set, z) > x)

    def test_identity_on_bulk_draws(self):
        rng = np.random.default_rng(5)
        mism = 0
        for _ in range(40):
            rare_set = random_set(rng)
            z = rng.uniform(0, 5, (2500, rare_set.dim))
            x = float(rng.uniform(0.2, 4.0))
            mism += int(np.count_nonzero(contains(rare_set, x, z) != (z_index(rare_set, z) > x)))
        assert mism == 0


class TestOracleEquivalence:
    def test_grid_search_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rare_set = random_set(rng)
            z = rng.uniform(0, 4, rare_set.dim)
            got = z_index(rare_set, z)
            want = grid_search_scalarization(rare_set, z, step=1e-4)
            assert got == pytest.approx(want, abs=1.1e-4)


class TestSignedScalarization:
    def test_matches_on_nonnegative(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(0, 5, (100, 2))
        s = MaxExceed(b=(0.5, 1.5))
        assert np.allclose(z_index(s, z), z_index_signed(s, z))

    def test_negative_components_allowed(self):
        s = MaxExceed(b=(1.0, 1.0))
        assert z_index_signed(s, [-3.0, 2.0]) == pytest.approx(2.0)
        assert z_index_signed(s, [-3.0, -2.0]) == pytest.approx(-2.0)


class TestFoldedMax:
    """``MaxExceed`` and ``PolyhedralUnion`` fold their columns or parts into one
    output; the values are those of the stacked ``np.maximum.reduce`` formula."""

    UNION2 = PolyhedralUnion(parts=(HalfSpace(l=(0.5, 0.5), b=1.0),
                                    HalfSpace(l=(1.0, 0.0), b=2.0),
                                    HalfSpace(l=(0.25, 0.75), b=0.5)))
    UNION3 = PolyhedralUnion(parts=(HalfSpace(l=(0.2, 0.3, 0.5), b=1.0),
                                    HalfSpace(l=(0.6, 0.3, 0.1), b=1.7)))

    @staticmethod
    def stacked(rare_set, z):
        if isinstance(rare_set, MaxExceed):
            return np.maximum.reduce(np.stack([z[:, j] / b for j, b in enumerate(rare_set.b)]))
        return np.maximum.reduce(np.stack([z_index_signed(p, z) for p in rare_set.parts]))

    @pytest.mark.parametrize("rare_set", [
        MaxExceed(b=(1.5,)), MaxExceed(b=(1.0, 2.0)), MaxExceed(b=(1.0, 2.0, 0.5)),
        UNION2, UNION3])
    def test_equals_the_stacked_formula(self, rare_set):
        # values whose ratios tie across columns, with the negative entries of
        # ruin's surplus vectors, +-inf and NaN mixed in
        values = np.array([-np.inf, -2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0, np.inf, np.nan])
        z = np.random.default_rng(rare_set.dim).choice(values, size=(3000, rare_set.dim))
        with np.errstate(invalid="ignore"):  # inf - inf in a weighted sum is NaN
            want = self.stacked(rare_set, z)
            for zz in (np.ascontiguousarray(z), np.asfortranarray(z)):
                assert np.array_equal(z_index_signed(rare_set, zz), want, equal_nan=True)
            for row, w in zip(z[:50], want[:50]):
                assert np.array_equal(z_index_signed(rare_set, row), w, equal_nan=True)


class TestMemoryOrder:
    """Weighted sums add the columns left to right, so the memory order of a
    batch cannot change a bit of the result."""

    HS = HalfSpace(l=(0.2, 0.3, 0.5), b=1.0)

    @staticmethod
    def rows():
        return np.random.default_rng(3).pareto(1.5, (3001, 3)) + 1.0

    @pytest.mark.parametrize("rare_set", [
        HS, PolyhedralUnion(parts=(HS, HalfSpace(l=(0.6, 0.3, 0.1), b=1.7)))])
    def test_c_and_f_order_agree_bitwise(self, rare_set):
        z = self.rows()
        zc, zf = np.ascontiguousarray(z), np.asfortranarray(z)
        assert z_index(rare_set, zc).tobytes() == z_index(rare_set, zf).tobytes()
        assert z_index_signed(rare_set, zf).tobytes() == z_index(rare_set, zc).tobytes()
        assert np.array_equal(contains(rare_set, 4.0, zc), contains(rare_set, 4.0, zf))

    def test_equals_the_explicit_column_sum(self):
        z = self.rows()
        total = z[:, 0] * 0.2 + z[:, 1] * 0.3 + z[:, 2] * 0.5
        for zz in (np.ascontiguousarray(z), np.asfortranarray(z)):
            assert z_index(self.HS, zz).tobytes() == (total / 1.0).tobytes()
            assert np.array_equal(contains(self.HS, 4.0, zz), total > 4.0)


class TestUnionReductions:
    UNION = PolyhedralUnion(parts=(HalfSpace(l=(1.0, 0.0), b=1.0), HalfSpace(l=(0.0, 1.0), b=2.0)))

    def test_axis_half_spaces_make_a_max_exceed_set(self):
        z = np.random.default_rng(23).pareto(1.0, (2000, 2))
        assert z_index(self.UNION, z).tobytes() == z_index(MaxExceed(b=(1.0, 2.0)), z).tobytes()
        for x in (0.5, 3.0, 20.0):
            assert np.array_equal(contains(self.UNION, x, z), contains(MaxExceed(b=(1.0, 2.0)), x, z))

    def test_one_part_union_is_its_half_space(self):
        hs = HalfSpace(l=(0.3, 0.7), b=1.5)
        z = np.random.default_rng(29).pareto(1.0, (2000, 2))
        assert z_index(PolyhedralUnion(parts=(hs,)), z).tobytes() == z_index(hs, z).tobytes()
        assert np.array_equal(contains(PolyhedralUnion(parts=(hs,)), 2.0, z), contains(hs, 2.0, z))
