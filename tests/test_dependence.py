import math
import warnings

import numpy as np
import pytest

from ruinflow.dependence import (
    ClaimModel,
    CubicPair,
    EmpiricalRatio,
    FgmChain,
    NoExceedanceError,
    UnsupportedModelError,
    fgm_conditional_inverse,
    fgm_joint_survival,
    qai_ratio,
    rd_violation_ratio,
    scalarized_survival,
)
from ruinflow.heavy_tails import CubicSurvival, HarmonicSurvival, HeavyWeibull, Lognormal, Pareto
from ruinflow.rare_sets import HalfSpace, MaxExceed, Ray, contains, z_index

from oracles import convolution_survival, weighted_sum_survival


G = Pareto(2.0, 1.0)
UNIT_MAX = MaxExceed(b=(1.0, 1.0))


class TestFgmFormula:
    def test_infinite_argument_kills_survival(self):
        assert float(fgm_joint_survival(0.7, G, math.inf, 1.0, 1.0, 1.0)) == 0.0

    def test_theta_zero_factorizes_exactly(self):
        args = (1.3, 2.0, 0.7, 5.0)
        got = float(fgm_joint_survival(0.0, G, *args))
        want = float(np.prod([G.survival(np.asarray(a)) for a in args]))
        assert got == want  # exact, not approximate

    def test_paper_value_at_half_survival(self):
        x = float(G.quantile(0.5))
        got = float(fgm_joint_survival(1.0, G, x, x, x, x))
        assert got == pytest.approx(0.0625 * 1.0625)

    def test_single_margin_recovered(self):
        # zeroing three arguments leaves the fourth marginal survival exactly
        for spot in range(4):
            args = [0.0] * 4
            args[spot] = 3.7
            got = float(fgm_joint_survival(0.9, G, *args))
            assert got == pytest.approx(float(G.survival(3.7)), rel=1e-14)

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            fgm_joint_survival(1.5, G, 1, 1, 1, 1)


class TestFgmConditionalInverse:
    def test_reduces_to_uniform_at_theta_zero(self):
        w = np.linspace(0.01, 0.99, 17)
        v = fgm_conditional_inverse(0.0, 0.3, 0.6, 0.9, w)
        assert np.allclose(v, w)

    def test_inverts_conditional_cdf(self):
        # forward conditional: F(v) = v + a v (1 - v)
        rng = np.random.default_rng(0)
        for _ in range(200):
            v1, v2, v3, w = rng.random(4)
            theta = rng.uniform(-1, 1)
            v = float(fgm_conditional_inverse(theta, v1, v2, v3, w))
            a = theta * (1 - 2 * v1) * (1 - 2 * v2) * (1 - 2 * v3)
            assert 0.0 <= v <= 1.0
            assert v + a * v * (1 - v) == pytest.approx(w, abs=1e-12)

    @pytest.mark.parametrize("theta", [-1.0, -0.3, 0.0, 0.5, 1.0])
    def test_out_may_be_w(self, theta):
        # the root written over w is the root returned fresh, bit for bit
        v = 1.0 - np.random.default_rng(3).random((4, 5001))
        v[:, :4] = [[1.0, 0.5, 2.0**-53, 0.25]] * 4
        keep = v.copy()
        want = fgm_conditional_inverse(theta, *v)
        assert np.array_equal(v, keep)  # without out=, the inputs are only read
        w = v[3]
        assert fgm_conditional_inverse(theta, v[0], v[1], v[2], w, out=w) is w
        assert w.tobytes() == want.tobytes()
        assert np.array_equal(v[:3], keep[:3])


def _row_formula(model: ClaimModel, u: np.ndarray) -> np.ndarray:
    """The row-wise claim transform: row ``i`` of ``u`` gives claim vector ``i``,
    and rows ``(2j, 2j+1)`` form a pair."""
    out = np.empty_like(u)
    if isinstance(model.inter, CubicPair):
        xv = CubicSurvival()._qf(1.0 - u[0::2, :])
        out[0::2, :] = xv
        out[1::2, :] = (1.0 + xv**3) * ((1.0 - u[1::2, :]) ** -0.5 - 1.0)
    elif isinstance(model.inter, FgmChain):
        g = model.margins[0]
        v1, v2, v3 = 1.0 - u[0::2, 0], 1.0 - u[0::2, 1], 1.0 - u[1::2, 0]
        v4 = fgm_conditional_inverse(model.inter.theta, v1, v2, v3, 1.0 - u[1::2, 1])
        out[0::2, 0] = g._qf(v1)
        out[0::2, 1] = g._qf(v2)
        out[1::2, 0] = g._qf(v3)
        out[1::2, 1] = g._qf(v4)
    else:
        for j, m in enumerate(model.margins):
            out[:, j] = m.from_survival_uniform(u[:, j])
    return out


TRANSFORM_MODELS = [
    ClaimModel.iid((Pareto(1.5), HeavyWeibull(0.5), Lognormal(0.0, 1.0))),
    ClaimModel.fgm_chain(0.7, Pareto(2.0)),
    ClaimModel.cubic_pair(),
]


class TestClaimTransform:
    @pytest.mark.parametrize("model", TRANSFORM_MODELS, ids=["iid-3", "fgm", "cubic"])
    def test_slot_major_equals_row_formula(self, model):
        # slot k of pair j in the (2, d, m) form is row 2j + k of the row form
        u = np.random.default_rng(71).random((2, model.d, 5001))
        got = model.claims_from_uniforms(u)
        assert got.shape == u.shape
        want = _row_formula(model, u.transpose(2, 0, 1).reshape(-1, model.d))
        assert np.array_equal(got.transpose(2, 0, 1).reshape(-1, model.d), want)

    @pytest.mark.parametrize("model", TRANSFORM_MODELS, ids=["iid-3", "fgm", "cubic"])
    def test_sample_sequence_pairs_consecutive_rows(self, model):
        for n in (1, 6, 7):
            got = model.sample_sequence(n, np.random.default_rng(72))
            u = np.random.default_rng(72).random((n + n % 2, model.d))
            assert np.array_equal(got, _row_formula(model, u)[:n])

    @pytest.mark.parametrize("model", [
        ClaimModel.iid((Pareto(1.5), HeavyWeibull(0.5), Lognormal(0.0, 1.0), CubicSurvival(),
                        HarmonicSurvival())),
        ClaimModel.fgm_chain(0.7, Pareto(2.0)),
        ClaimModel.fgm_chain(-0.3, Lognormal(0.5, 0.8)),
        ClaimModel.cubic_pair(),
    ], ids=["iid-all-laws", "fgm-pareto", "fgm-lognormal", "cubic"])
    def test_uniforms_left_untouched(self, model):
        # the transforms work in place on their own copy of 1 - u, so views
        # of the caller's block, strided ones included, come back unchanged
        block = np.random.default_rng(74).random((2, 2 * model.d, 3001))
        keep = block.copy()
        for u in (block[:, :model.d], block[:, ::2]):
            got = model.claims_from_uniforms(u)
            assert not np.shares_memory(got, block)
            assert np.array_equal(got, model.claims_from_uniforms(u.copy()))
        assert np.array_equal(block, keep)

    @pytest.mark.parametrize("model", TRANSFORM_MODELS, ids=["iid-3", "fgm", "cubic"])
    def test_in_place_equals_fresh(self, model):
        # out= may be the uniforms themselves: a contiguous copy, or a strided
        # view of a larger block (the pairs of a big-jump chunk), whose other
        # entries stay as they were
        u = np.random.default_rng(75).random((2, model.d, 3, 2001))
        want = model.claims_from_uniforms(u[:, :, :2])
        c = u[:, :, :2].copy()
        assert model.claims_from_uniforms(c, out=c) is c
        assert np.array_equal(c, want)
        block = u.copy()
        got = model.claims_from_uniforms(block[:, :, :2], out=block[:, :, :2])
        assert np.shares_memory(got, block)
        assert np.array_equal(block[:, :, :2], want)
        assert np.array_equal(block[:, :, 2], u[:, :, 2])

    @pytest.mark.parametrize("model", TRANSFORM_MODELS, ids=["iid-3", "fgm", "cubic"])
    def test_lone_first_vector_is_slot_zero(self, model):
        # a truncated pair's first vector, transformed alone as a (1, d, ...)
        # block in place, is slot 0 of the full pair transform bit for bit
        u = np.random.default_rng(76).random((2, model.d, 2, 2001))
        want = model.claims_from_uniforms(u)[0, :, 1]
        lone = u[:1, :, 1]
        assert model.claims_from_uniforms(lone, out=lone) is lone
        assert np.array_equal(u[0, :, 1], want)

    @pytest.mark.parametrize("model", TRANSFORM_MODELS, ids=["iid-3", "fgm", "cubic"])
    def test_phases_compose_to_transform(self, model):
        # survival transforms, then quantiles, both in place, give the claims bit for bit;
        # the first phase leaves u alone without out=
        u = np.random.default_rng(77).random((2, model.d, 3001))
        keep = u.copy()
        v = model.survival_transforms(u)
        assert np.array_equal(u, keep)
        assert model.quantiles(v) is v
        assert v.tobytes() == model.claims_from_uniforms(u).tobytes()
        lone = u[:1].copy()
        assert model.quantiles(model.survival_transforms(lone, out=lone)) is lone
        assert lone.tobytes() == model.claims_from_uniforms(u[:1]).tobytes()

    def test_trailing_axes_and_shape_check(self):
        model = ClaimModel.fgm_chain(-0.4, Pareto(1.5))
        u = np.random.default_rng(73).random((2, 2, 3, 40))
        got = model.claims_from_uniforms(u)
        for i in range(3):
            assert np.array_equal(got[:, :, i], model.claims_from_uniforms(u[:, :, i]))
        # a (1, d, n) block is a lone slot 0: each component by its margin, whatever
        # the structure; any other slot count, or a wrong d, is refused
        for model in TRANSFORM_MODELS:
            d = model.d
            lone = np.random.default_rng(73).random((1, d, 40))
            want = [m.from_survival_uniform(lone[0, j]) for j, m in enumerate(model.margins)]
            assert np.array_equal(model.claims_from_uniforms(lone), [want])
            for shape in ((2, d + 1, 10), (1, d + 1, 10), (1, d - 1, 10), (3, d, 10),
                          (4, d, 10), (0, d, 10), (2,)):
                with pytest.raises(ValueError):
                    model.claims_from_uniforms(np.full(shape, 0.5))


class TestEqualMarginQuantiles:
    """IID quantiles over equal margins: one ``_qf`` call on the whole block."""

    @staticmethod
    def _calls(monkeypatch, cls) -> list:
        shapes = []
        qf = cls._qf

        def spy(self, v):
            shapes.append(v.shape)
            return qf(self, v)

        monkeypatch.setattr(cls, "_qf", spy)
        return shapes

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 16384])
    @pytest.mark.parametrize("make", [lambda: Pareto(1.5), lambda: HeavyWeibull(0.5, 3.0),
                                      lambda: Lognormal(0.0, 1.0)],
                             ids=["pareto", "weibull", "lognormal"])
    def test_one_call_is_the_per_component_bytes(self, make, m):
        # m covers the SIMD kernels' tails; the margins are equal, not the same object
        margins = (make(), make(), make())
        v = 1.0 - np.random.default_rng(78).random((2, 3, m))
        want = v.copy()
        for j, margin in enumerate(margins):
            margin._qf(want[:, j])
        got = ClaimModel.iid(margins).quantiles(v)
        assert got is v
        assert got.tobytes() == want.tobytes()

    def test_equal_margins_take_one_call(self, monkeypatch):
        shapes = self._calls(monkeypatch, Pareto)
        ClaimModel.iid((Pareto(1.5), Pareto(1.5))).quantiles(np.full((2, 2, 5), 0.5))
        assert shapes == [(2, 2, 5)]

    def test_unequal_margins_take_one_call_each(self, monkeypatch):
        shapes = self._calls(monkeypatch, Pareto)
        v = 1.0 - np.random.default_rng(79).random((2, 2, 5))
        want = v.copy()
        Pareto(1.5)._qf(want[:, 0])
        Pareto(2.0)._qf(want[:, 1])
        shapes.clear()
        assert ClaimModel.iid((Pareto(1.5), Pareto(2.0))).quantiles(v).tobytes() == want.tobytes()
        assert shapes == [(2, 5), (2, 5)]


class TestSurvivalCut:
    """``survival_cut(t)``: coupled transforms all at least the cut give claims at most ``t``."""

    MODELS = {
        "iid-unlike": ClaimModel.iid((Pareto(1.5, 1.0), Pareto(3.0, 2.0), Lognormal(0.0, 1.0),
                                      HeavyWeibull(0.5, 2.0), CubicSurvival())),
        "fgm+1": ClaimModel.fgm_chain(1.0, Pareto(2.0, 1.0)),
        "fgm-1": ClaimModel.fgm_chain(-1.0, Lognormal(0.5, 0.8)),
        "cubic": ClaimModel.cubic_pair(),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_transforms_above_cut_give_claims_below_level(self, name):
        model, rng = self.MODELS[name], np.random.default_rng(91)
        for t in (0.5, 2.5, 40.0, 400.0, 1e5):
            eps = model.survival_cut(t)
            if not eps < 1.0:  # every path may exceed t: nothing to check
                continue
            v = eps + (1.0 - eps) * rng.random((2, model.d, 4000)) ** 4  # dense near eps
            v[:, :, 0] = eps  # the all-eps corner, the largest claims the cut allows
            v[0, :, 1], v[1, :, 2] = eps, eps  # one slot at eps, the other anywhere
            claims = model.quantiles(v)
            # at most t up to rounding, 20 units in the last place at worst here
            assert claims.max() <= t * (1.0 + 1e-12), (t, claims.max() / t)

    def test_cubic_pair_needs_more_than_its_margins(self):
        # slot 1's claim is (v1**-0.5 - 1) / v0, so a cut from the cubic and harmonic
        # margins alone lets the all-eps corner reach about 19 t at t = 400
        model, t = ClaimModel.cubic_pair(), 400.0
        margins_only = max(float(m.survival(t)) for m in model.margins + model.second_margins())
        corner = model.quantiles(np.full((2, 2, 1), margins_only))
        assert corner.max() > 18.0 * t
        assert model.survival_cut(t) == pytest.approx(t ** (-2.0 / 3.0))
        assert model.quantiles(np.full((2, 2, 1), model.survival_cut(t))).max() <= t
        assert model.survival_cut(0.0) == model.survival_cut(-1.0) == math.inf

    def test_level_below_a_support_floor_cuts_nothing(self):
        # below Pareto(3, scale=2)'s floor even a transform of 1 gives a claim of 2, above
        # t = 1.5 (1.33 t): no transform bounds the claims, and the cut is inf
        model = ClaimModel.iid((Pareto(1.5, 1.0), Pareto(3.0, 2.0)))
        assert model.survival_cut(1.5) == math.inf
        assert model.quantiles(np.ones((2, 2, 1))).max() == pytest.approx(1.5 * 4 / 3)
        assert model.survival_cut(2.0) == 1.0  # at the floor a transform of 1 maps to 2
        assert ClaimModel.fgm_chain(0.5, Pareto(2.0, 3.0)).survival_cut(2.9) == math.inf
        assert model.survival_cut(8.0) == pytest.approx(8.0**-1.5)


class TestSampling:
    def test_iid_shape_and_margins(self):
        model = ClaimModel.iid((Pareto(2.0), HarmonicSurvival()))
        rng = np.random.default_rng(1)
        seq = model.sample_sequence(5001, rng)
        assert seq.shape == (5001, 2)
        assert np.all(seq[:, 0] >= 1.0)  # Pareto support floor
        assert np.all(seq[:, 1] >= 0.0)

    def test_fgm_chain_empirical_joint_survival(self):
        theta = 1.0
        model = ClaimModel.fgm_chain(theta, G)
        rng = np.random.default_rng(2)
        n_pairs = 100_000
        seq = model.sample_sequence(2 * n_pairs, rng)
        x = float(G.quantile(0.5))
        hit = np.all(seq.reshape(n_pairs, 4) > x, axis=1)
        p_hat = hit.mean()
        p = float(fgm_joint_survival(theta, G, x, x, x, x))
        assert abs(p_hat - p) < 3 * math.sqrt(p * (1 - p) / n_pairs)

    def test_fgm_theta_zero_independent(self):
        model = ClaimModel.fgm_chain(0.0, G)
        rng = np.random.default_rng(3)
        n_pairs = 100_000
        seq = model.sample_sequence(2 * n_pairs, rng)
        # chi-squared on the 16-cell joint of four median indicators
        flags = (seq.reshape(n_pairs, 4) > float(G.quantile(0.5))).astype(int)
        cell = flags @ np.array([8, 4, 2, 1])
        observed = np.bincount(cell, minlength=16)
        expected = n_pairs / 16.0
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        # 15 dof: 0.999 quantile is 37.7
        assert chi2 < 37.7

    def test_cubic_pair_marginals(self):
        model = ClaimModel.cubic_pair()
        rng = np.random.default_rng(4)
        n = 500_000
        seq = model.sample_sequence(2 * n, rng)
        first, second = seq[0::2], seq[1::2]
        for x in (1.0, 3.0):
            p = float(CubicSurvival().survival(x))
            tol = 3 * math.sqrt(p * (1 - p) / n)
            assert abs((first[:, 0] > x).mean() - p) < tol
            assert abs((first[:, 1] > x).mean() - p) < tol
        for y in (1.0, 9.0):
            p = float(HarmonicSurvival().survival(y))
            tol = 3 * math.sqrt(p * (1 - p) / n)
            assert abs((second[:, 0] > y).mean() - p) < tol

    def test_cubic_pair_joint_survival(self):
        model = ClaimModel.cubic_pair()
        rng = np.random.default_rng(5)
        n = 400_000
        seq = model.sample_sequence(2 * n, rng)
        x, y = 1.5, 2.0
        p = 1.0 / (1.0 + x**3 + y)
        p_hat = ((seq[0::2, 0] > x) & (seq[1::2, 0] > y)).mean()
        assert abs(p_hat - p) < 3 * math.sqrt(p * (1 - p) / n)
        # off-index components are independent
        p_ind = float(CubicSurvival().survival(x)) * float(HarmonicSurvival().survival(y))
        p_hat_off = ((seq[0::2, 0] > x) & (seq[1::2, 1] > y)).mean()
        assert abs(p_hat_off - p_ind) < 3 * math.sqrt(p_ind * (1 - p_ind) / n)


class TestScalarizedSurvival:
    def test_max_type_closed_form(self):
        model = ClaimModel.iid((G, G))
        x = float(G.quantile(0.5))
        assert scalarized_survival(model, UNIT_MAX, x) == pytest.approx(0.75)

    def test_max_type_union_does_not_cancel(self):
        # ``1 - (1 - s)^2`` loses every digit once ``s`` falls below an ulp of 1;
        # the union of two independent exceedances is ``2s - s^2``
        m = Pareto(1.5)
        x = np.logspace(4.0, 12.0, 9)
        s = m.survival(x)
        want = 2.0 * s - s * s
        got = scalarized_survival(ClaimModel.iid((m, m)), UNIT_MAX, x)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), (got - want) / np.spacing(want)

    def test_ray_is_margin_survival(self):
        model = ClaimModel.iid((Pareto(1.5),))
        assert scalarized_survival(model, Ray(b=1.0), 7.0) == \
            pytest.approx(float(Pareto(1.5).survival(7.0)))

    def test_half_space_matches_convolution_oracle(self):
        cases = [
            (Pareto(1.5, 1.0), Pareto(1.5, 1.0), (0.5, 0.5), (5.0, 40.0, 300.0)),
            # a component floor above the other's half level: the pinned
            # pieces stop where the floor alone carries the level
            (Pareto(1.0, 1.0), Pareto(2.5, 2.0), (0.25, 0.75), (2.0, 2.5, 2.9, 6.0, 50.0)),
        ]
        for m1, m2, (l1, l2), xs in cases:
            model = ClaimModel.iid((m1, m2))
            hs = HalfSpace(l=(l1, l2), b=1.0)
            for x in xs:
                want = convolution_survival(
                    lambda v: m1.survival(v / l1), lambda v: m2.survival(v / l2),
                    lambda v: m2.pdf(v / l2) / l2, l1 * m1.support_min, l2 * m2.support_min, x)
                assert scalarized_survival(model, hs, x) == pytest.approx(want, rel=1e-6)

    def test_half_space_one_active_weight_is_that_margin(self):
        # weights sum to one, so only component j counts: X_j > x b, whose Pareto
        # survival is (x b / scale)**-alpha
        x = np.array([0.1, 3.0, 40.0, 1e4])
        for model, hs, (alpha, scale) in [
            (ClaimModel.iid((Pareto(1.5), Pareto(2.5, 2.0))), HalfSpace((0.0, 1.0), 2.0),
             (2.5, 2.0)),
            (ClaimModel.iid((HeavyWeibull(0.5), Pareto(1.2, 0.5), Lognormal(0.0, 1.0))),
             HalfSpace((0.0, 1.0, 0.0), 1.0), (1.2, 0.5)),
        ]:
            want = np.minimum(1.0, (x * hs.b / scale) ** -alpha)
            np.testing.assert_allclose(scalarized_survival(model, hs, x), want, rtol=1e-14)

    @pytest.mark.parametrize("margins", [
        (Lognormal(0.0, 1.0), CubicSurvival()),
        (CubicSurvival(), HarmonicSurvival()),
        (HarmonicSurvival(), Lognormal(0.5, 0.8)),
    ], ids=["lognormal-cubic", "cubic-harmonic", "harmonic-lognormal"])
    def test_half_space_densities_match_scipy_convolution(self, margins):
        # the weighted-sum quadrature reads both margins' pdf; the oracle convolves
        # scipy.stats densities and survivals of the same laws
        l = (0.3, 0.7)
        hs = HalfSpace(l=l, b=1.0)
        for x in (0.5, 3.0, 20.0, 300.0):
            want = weighted_sum_survival(margins, l, x)
            assert scalarized_survival(ClaimModel.iid(margins), hs, x) == \
                pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("v", [200.0, 1e3, 4e3])
    def test_half_space_weibull_deep_tail_relative_accuracy(self, v):
        # far below the absolute scale of a default quadrature tolerance
        # (4e-9, 8e-20, 3e-39): the value must stay accurate relative to itself
        m = HeavyWeibull(0.5)
        model = ClaimModel.iid((m, m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = scalarized_survival(model, HalfSpace(l=(0.5, 0.5), b=1.0), v)
        want = convolution_survival(m.survival, m.survival, m.pdf, 0.0, 0.0, 2.0 * v)
        assert got == pytest.approx(want, rel=1e-7)

    def test_unconverged_quadrature_is_signalled(self):
        # an interior jump defeats the endpoint-clustered rule; the smooth entry
        # beside it converges, and the returned mask tells the two apart
        from ruinflow._util import _left_concentrated_quad

        with pytest.warns(RuntimeWarning, match="unconverged at 1 threshold"):
            _, unconverged = _left_concentrated_quad(
                lambda y, s: np.where(s > 3.0, (y < s).astype(float), np.exp(-y)),
                0.0, np.array([5.0, 5.0]), np.array([math.pi, 1.0]))
        assert unconverged.tolist() == [True, False]

    def test_half_space_pareto_one_against_large_monte_carlo(self):
        # quadrature vs a 1e7-sample empirical survival at x = 100
        m = Pareto(1.0, 1.0)
        model = ClaimModel.iid((m, m))
        hs = HalfSpace(l=(0.5, 0.5), b=1.0)
        x = 100.0
        p = scalarized_survival(model, hs, x)
        rng = np.random.default_rng(64)
        n, hits = 10_000_000, 0
        for _ in range(10):
            chunk = 1_000_000
            s = 0.5 * (m.sample(chunk, rng) + m.sample(chunk, rng))
            hits += int(np.count_nonzero(s > x))
        p_hat = hits / n
        assert abs(p_hat - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_half_space_weibull_monte_carlo(self):
        m = HeavyWeibull(0.5)
        model = ClaimModel.iid((m, m))
        hs = HalfSpace(l=(0.5, 0.5), b=1.0)
        rng = np.random.default_rng(6)
        n = 2_000_000
        draws = 0.5 * (m.sample(n, rng) + m.sample(n, rng))
        for x in (5.0, 20.0):
            p = scalarized_survival(model, hs, x)
            p_hat = (draws > x).mean()
            assert abs(p_hat - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_empirical_identity_with_contains(self):
        model = ClaimModel.iid((G, G))
        rng = np.random.default_rng(7)
        seq = model.sample_sequence(100_000, rng)
        x = 2.5
        freq_contains = np.asarray(contains(UNIT_MAX, x, seq)).mean()
        freq_z = (z_index(UNIT_MAX, seq) > x).mean()
        assert freq_contains == freq_z  # identical indicators

    def test_unsupported_pairs_signalled(self):
        model3 = ClaimModel.iid((G, G, G))
        with pytest.raises(UnsupportedModelError):
            scalarized_survival(model3, HalfSpace(l=(0.4, 0.3, 0.3), b=1.0), 5.0)
        with pytest.raises(UnsupportedModelError):
            scalarized_survival(ClaimModel.cubic_pair(), UNIT_MAX, 5.0)


class TestPairDiagnostics:
    def test_cubic_rd_violation_near_one_at_ten(self):
        val = rd_violation_ratio(ClaimModel.cubic_pair(), UNIT_MAX, 10.0)
        assert val == pytest.approx(0.991, abs=0.002)

    def test_cubic_rd_violation_floor(self):
        model = ClaimModel.cubic_pair()
        for x in np.logspace(1, 6, 25):
            assert rd_violation_ratio(model, UNIT_MAX, float(x)) >= 0.75

    def test_cubic_qai_vanishes(self):
        model = ClaimModel.cubic_pair()
        q2 = qai_ratio(model, UNIT_MAX, 1e2)
        q3 = qai_ratio(model, UNIT_MAX, 1e3)
        assert q3 < q2
        assert q3 < 0.01

    def test_cubic_rd_violation_monte_carlo(self):
        # off the unit set the ratio is sampled.  On MaxExceed((2, 2)) a vector
        # exceeds x when a component passes u = 2x; components pair up
        # independently, with P[X > s, Y > t] = 1 / (1 + s**3 + t), so with
        # Sx, Sy, J the first's, second's and joint survivals at (u, u):
        # P[first] = 1 - (1 - Sx)**2 and, by inclusion-exclusion,
        # P[both] = 1 - (1 - Sx)**2 - (1 - Sy)**2 + (1 - Sx - Sy + J)**2
        x, n = 1.0, 200_000
        u = 2.0 * x
        sx, sy, joint = 1.0 / (1.0 + u**3), 1.0 / (1.0 + u), 1.0 / (1.0 + u**3 + u)
        first = 1.0 - (1.0 - sx) ** 2
        ratio = (first - (1.0 - sy) ** 2 + (1.0 - sx - sy + joint) ** 2) / first
        out = rd_violation_ratio(ClaimModel.cubic_pair(), MaxExceed((2.0, 2.0)), x,
                                 n=n, rng=np.random.default_rng(13))
        assert isinstance(out, EmpiricalRatio) and out.reliable
        assert out.ci_lo <= out.value <= out.ci_hi
        assert out.value == out.joint_count / n / out.denominator
        # given the first exceeds, the second does with probability ``ratio``
        se = math.sqrt(ratio * (1.0 - ratio) / (n * first))
        assert abs(out.value - ratio) < 4 * se, (out.value, ratio, se)

    def test_fgm_empirical_ratio(self):
        model = ClaimModel.fgm_chain(0.8, G)
        rng = np.random.default_rng(8)
        out = qai_ratio(model, UNIT_MAX, 2.0, n=200_000, rng=rng)
        assert isinstance(out, EmpiricalRatio)
        assert out.ci_lo <= out.value <= out.ci_hi
        assert out.reliable

    def test_no_exceedance_signalled(self):
        model = ClaimModel.fgm_chain(0.5, G)
        rng = np.random.default_rng(9)
        with pytest.raises(NoExceedanceError):
            qai_ratio(model, UNIT_MAX, 1e9, n=1000, rng=rng)

    def test_no_first_exceedance_signalled(self):
        # these 50 pairs hold no first-vector exceedance at x = 60 and one
        # second-vector one: the conditional ratio has no denominator, the sum
        # ratio has one
        model, n = ClaimModel.iid((Pareto(1.5),) * 2), 50
        with pytest.raises(NoExceedanceError):
            rd_violation_ratio(model, UNIT_MAX, 60.0, n=n, rng=np.random.default_rng(1))
        out = qai_ratio(model, UNIT_MAX, 60.0, n=n, rng=np.random.default_rng(1))
        assert isinstance(out, EmpiricalRatio)
        assert out.denominator == 1 / n and out.value == 0.0 and math.isfinite(out.ci_hi)
        with pytest.raises(NoExceedanceError):
            qai_ratio(model, UNIT_MAX, 1e9, n=n, rng=np.random.default_rng(1))

    def test_small_counts_flagged_unreliable(self):
        model = ClaimModel.fgm_chain(0.5, G)
        rng = np.random.default_rng(10)
        out = qai_ratio(model, UNIT_MAX, 40.0, n=20_000, rng=rng)
        assert not out.reliable

    def test_nonpositive_threshold_rejected(self):
        # on both routes: x = -5 gave the cubic pair a ratio of negative
        # "probabilities", and every FGM pair exceeds x = -1, a reliable-looking 0.5
        with pytest.raises(ValueError):
            qai_ratio(ClaimModel.cubic_pair(), UNIT_MAX, -5.0)
        with pytest.raises(ValueError):
            qai_ratio(ClaimModel.fgm_chain(0.5, G), UNIT_MAX, -1.0,
                      n=1000, rng=np.random.default_rng(12))


class TestModelMetadata:
    def test_dependence_flags(self):
        assert ClaimModel.iid((G,)).scalarized_rd
        assert ClaimModel.fgm_chain(0.5, G).scalarized_rd
        cp = ClaimModel.cubic_pair()
        assert not cp.scalarized_rd
        assert cp.scalarized_qai
        assert not cp.identically_distributed

    def test_scalarized_tags_intersect(self):
        mixed = ClaimModel.iid((G, HeavyWeibull(0.5)))
        tags = mixed.scalarized_tags()
        assert tags.subexponential and not tags.consistently_varying

    def test_common_tail_index(self):
        assert ClaimModel.iid((G, G)).common_tail_index() == 2.0
        assert ClaimModel.iid((G, Pareto(3.0))).common_tail_index() is None
        assert ClaimModel.iid((G, HeavyWeibull(0.5))).common_tail_index() is None

    def test_envelope(self):
        model = ClaimModel.iid((Pareto(1.5, 1.0), Pareto(1.5, 1.0)))
        cs, a = model.tail_weights()
        c = UNIT_MAX.envelope_constant(cs, a)
        assert a == 1.5 and c == pytest.approx(2.0)
        rng = np.random.default_rng(11)
        seq = model.sample_sequence(50_000, rng)
        z = z_index(UNIT_MAX, seq)
        for v in (2.0, 10.0, 100.0):
            assert (z > v).mean() <= c * v**-a

    def test_fgm_needs_shared_marginal(self):
        with pytest.raises(ValueError):
            ClaimModel(margins=(G, Pareto(3.0)), inter=__import__("ruinflow").FgmChain(0.5))
