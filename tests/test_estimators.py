import math
import warnings

import numpy as np
import pytest

from ruinflow._util import adaptive_simpson
from ruinflow.dependence import ClaimModel, UnsupportedModelError
from ruinflow.estimators import (
    HypothesisError,
    ModelSpec,
    asymptotic_entrance_finite,
    asymptotic_entrance_infinite,
    derive_mrv,
    entrance_time_cdf,
    mrv_closed_form,
    mrv_mu,
    resolve_finite_mode,
    resolve_infinite_mode,
    single_claim_entrance,
)
from ruinflow.heavy_tails import HeavyWeibull, Pareto
from ruinflow.processes import (
    BrownianDrift,
    CompoundPoissonDrift,
    Deterministic,
    Erlang,
    ExponentialJumps,
    FixedJumps,
    Poisson,
    RenewalIID,
)
from ruinflow.rare_sets import HalfSpace, MaxExceed, PolyhedralUnion, Ray

from oracles import deterministic_pareto_entrance_integral


def pareto_ray_model(alpha=1.0, r=0.05, lam=1.0):
    return ModelSpec(ClaimModel.iid((Pareto(alpha, 1.0),)), Ray(1.0),
                     Poisson(lam), Deterministic(r))


class TestModeResolution:
    def test_consistent_variation_preferred(self):
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5), Pareto(1.5))),
                         MaxExceed((1, 1)), Poisson(1.0), Deterministic(0.05))
        assert resolve_finite_mode(spec, 10.0).mode == "consistent-variation"

    def test_weibull_falls_back_to_subexponential(self):
        spec = ModelSpec(ClaimModel.iid((HeavyWeibull(0.5),)), Ray(1.0),
                         Poisson(1.0), Deterministic(0.05))
        assert resolve_finite_mode(spec, 10.0).mode == "subexponential-monotone"

    def test_weibull_with_brownian_has_no_mode(self):
        spec = ModelSpec(ClaimModel.iid((HeavyWeibull(0.5),)), Ray(1.0),
                         Poisson(1.0), BrownianDrift(0.1, 0.2))
        report = resolve_finite_mode(spec, 10.0)
        assert report.mode is None
        joined = " ".join(f"{name}: {detail}" for name, ok, detail in report.checks if not ok)
        assert "consistent" in joined and "non-decreasing" in joined
        with pytest.raises(HypothesisError) as err:
            report.require()
        assert "non-decreasing" in str(err.value)

    def test_brownian_with_pareto_uses_consistent_variation_mode_never(self):
        # bounded-below fails for Brownian returns, so the finite modes fail
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0),
                         Poisson(1.0), BrownianDrift(0.1, 0.2))
        assert resolve_finite_mode(spec, 10.0).mode is None
        assert resolve_infinite_mode(spec).mode == "infinite-horizon"

    def test_cubic_pair_rejected_everywhere(self):
        spec = ModelSpec(ClaimModel.cubic_pair(), MaxExceed((1, 1)),
                         Poisson(1.0), Deterministic(0.05))
        assert resolve_finite_mode(spec, 10.0).mode is None
        assert resolve_infinite_mode(spec).mode is None

    def test_infinite_mode_reports_summability(self):
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0),
                         Poisson(1.0), BrownianDrift(0.1, 0.2))
        report = resolve_infinite_mode(spec)
        (ok, detail), = [(ok, detail) for name, ok, detail in report.checks
                         if name == "discounted-moment summability"]
        assert ok
        assert float(detail.split("phi(p2)=")[1].split(",")[0]) < 0

    def test_infinite_mode_fails_on_divergent_discounting(self):
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0),
                         Poisson(1.0), BrownianDrift(0.05, 0.5))
        assert resolve_infinite_mode(spec).mode is None


class TestSingleClaimEntrance:
    def test_lag_zero_is_scalarized_survival(self):
        spec = pareto_ray_model(alpha=1.5)
        assert single_claim_entrance(spec, 100.0, 0.0) == pytest.approx(100.0**-1.5)

    def test_deterministic_direct_formula(self):
        spec = pareto_ray_model(alpha=1.0, r=0.05)
        got = single_claim_entrance(spec, 100.0, 10.0)
        assert got == pytest.approx((100.0 * math.exp(0.5)) ** -1.0, rel=1e-12)

    def test_gauss_hermite_matches_monte_carlo(self):
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0),
                         Poisson(1.0), BrownianDrift(0.1, 0.2))
        x, s = 50.0, 4.0
        got = single_claim_entrance(spec, x, s)
        rng = np.random.default_rng(31)
        n = 1_000_000
        xi = 0.1 * s + 0.2 * math.sqrt(s) * rng.standard_normal(n)
        vals = np.asarray(Pareto(1.5).survival(x * np.exp(xi)))
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(got - vals.mean()) < 3 * se

    def test_xi_rule_matches_laplace_transform(self):
        procs = (Deterministic(0.05), BrownianDrift(0.1, 0.2),
                 CompoundPoissonDrift(0.02, 1.0, ExponentialJumps(0.3)),
                 CompoundPoissonDrift(0.02, 1.0, FixedJumps(-0.2)))
        for proc in procs:
            for s in (0.5, 4.0, 40.0):
                nodes, weights = proc.xi_rule(s)
                for k in (0.5, 1.0, 2.0):
                    want = math.exp(s * proc.laplace_exponent(k))
                    assert weights @ np.exp(-k * nodes) == pytest.approx(want, rel=1e-10), \
                        (proc, s, k)

    def test_compound_poisson_matches_monte_carlo(self):
        x, s, n = 30.0, 4.0, 1_000_000
        for jumps in (ExponentialJumps(0.3), FixedJumps(0.1), FixedJumps(-0.2)):
            ret = CompoundPoissonDrift(0.02, 1.0, jumps)
            spec = ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0), Poisson(1.0), ret)
            got = single_claim_entrance(spec, x, s)
            rng = np.random.default_rng(32)
            counts = rng.poisson(ret.jump_rate * s, n)
            sums = rng.gamma(counts, jumps.mean) if isinstance(jumps, ExponentialJumps) \
                else jumps.size * counts
            vals = np.asarray(Pareto(1.5).survival(x * np.exp(ret.drift * s + sums)))
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(got - vals.mean()) < 3 * se, (jumps, got, vals.mean(), se)


class TestAdaptiveSimpson:
    def test_depth_limited_panel_is_signalled(self):
        # a kink at an irrational point is never resolved in two halvings
        kink = lambda x: abs(x - 1.0 / math.pi)
        with pytest.warns(RuntimeWarning, match="unconverged"):
            adaptive_simpson(kink, 0.0, 1.0, rel_tol=1e-10, max_depth=2)

    def test_converged_integral_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = adaptive_simpson(lambda x: x**3, 0.0, 2.0, rel_tol=1e-10)
        assert val == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("nan_on", [lambda x: True, lambda x: 0.7 < x < 0.8],
                             ids=["everywhere", "subinterval"])
    def test_nan_integrand_raises_at_once(self, nan_on):
        # a NaN error estimate never converges; bisecting on to max_depth
        # would take about 2**30 calls
        calls = []

        def f(x):
            calls.append(x)
            return math.nan if nan_on(x) else math.sqrt(x)

        with pytest.raises(ArithmeticError, match="not finite"):
            adaptive_simpson(f, 0.0, 1.0, rel_tol=1e-10)
        assert len(calls) <= 10


class TestFiniteHorizonIntegral:
    def test_zero_horizon(self):
        assert asymptotic_entrance_finite(pareto_ray_model(), 10.0, 0.0) == 0.0

    def test_antiderivative_oracle(self):
        spec = pareto_ray_model(alpha=1.0, r=0.05, lam=1.0)
        x, T = 100.0, 10.0
        got = asymptotic_entrance_finite(spec, x, T, rel_tol=1e-8)
        want = deterministic_pareto_entrance_integral(1.0, 1.0, 1.0, 0.05, x, T)
        assert got == pytest.approx(want, rel=1e-6)

    def test_linearity_in_intensity(self):
        x, T = 80.0, 10.0
        v1 = asymptotic_entrance_finite(pareto_ray_model(lam=1.0), x, T)
        v2 = asymptotic_entrance_finite(pareto_ray_model(lam=2.0), x, T)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_monotone_in_threshold_and_horizon(self):
        spec = pareto_ray_model(alpha=1.5)
        vals_x = [asymptotic_entrance_finite(spec, x, 10.0) for x in (10, 30, 90)]
        assert vals_x[0] > vals_x[1] > vals_x[2]
        vals_t = [asymptotic_entrance_finite(spec, 50.0, T) for T in (2.0, 5.0, 10.0)]
        assert vals_t[0] < vals_t[1] < vals_t[2]

    def test_quadrature_converges_under_tolerance_halving(self):
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5), Pareto(1.5))),
                         HalfSpace((0.5, 0.5), 1.0), Poisson(1.0), Deterministic(0.05))
        coarse = asymptotic_entrance_finite(spec, 50.0, 10.0, rel_tol=1e-4)
        fine = asymptotic_entrance_finite(spec, 50.0, 10.0, rel_tol=5e-5)
        assert abs(coarse - fine) / fine < 1e-4

    def test_gate_enforced_unless_unsafe(self):
        spec = ModelSpec(ClaimModel.iid((HeavyWeibull(0.5),)), Ray(1.0),
                         Poisson(1.0), BrownianDrift(0.1, 0.2))
        with pytest.raises(HypothesisError):
            asymptotic_entrance_finite(spec, 30.0, 5.0)
        val = asymptotic_entrance_finite(spec, 30.0, 5.0, unsafe=True)
        assert 0 < val < 1

    def test_erlang_renewal_density_route(self):
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0),
                         RenewalIID(Erlang(2, 2.0)), Deterministic(0.05))
        got = asymptotic_entrance_finite(spec, 50.0, 10.0)
        # oracle: renewal-series integral, term by term against the gamma laws
        from scipy import integrate, stats as sps

        want = 0.0
        for i in range(1, 60):
            val, _ = integrate.quad(
                lambda s: (50.0 * math.exp(0.05 * s)) ** -1.5
                * sps.gamma.pdf(s, a=2 * i, scale=0.5), 0, 10.0, limit=200)
            want += val
        assert got == pytest.approx(want, rel=1e-4)


class TestInfiniteHorizon:
    def make_spec(self):
        return ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0),
                         Poisson(1.0), BrownianDrift(0.1, 0.2))

    def test_dominates_every_finite_value(self):
        spec = self.make_spec()
        est = asymptotic_entrance_infinite(spec, 500.0)
        for T in (5.0, 20.0, est.horizon / 2):
            assert asymptotic_entrance_finite(spec, 500.0, T, unsafe=True) <= est.value

    def test_truncation_self_consistency(self):
        spec = self.make_spec()
        est = asymptotic_entrance_infinite(spec, 500.0)
        assert est.tail_bound_rel < 1e-3
        far = asymptotic_entrance_finite(spec, 500.0, 10 * est.horizon, unsafe=True)
        assert abs(far - est.value) / far < 1e-3

    def test_larger_interest_shrinks_value(self):
        x = 200.0
        lo = asymptotic_entrance_infinite(
            ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0), Poisson(1.0),
                      Deterministic(0.2)), x)
        hi = asymptotic_entrance_infinite(
            ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0), Poisson(1.0),
                      Deterministic(0.05)), x)
        assert lo.value < hi.value

    def test_erlang_renewal_matches_closed_form(self):
        # every discounted threshold x * e^{r s} is at least one, so the closed
        # form is exact here and the tail bound is the exact neglected tail
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0),
                         RenewalIID(Erlang(2, 2.0)), Deterministic(0.05))
        est = asymptotic_entrance_infinite(spec, 100.0)
        want = mrv_closed_form(spec, 100.0, math.inf)
        assert est.value + est.tail_bound == pytest.approx(want, rel=1e-6)

    def test_gate_failure(self):
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0),
                         Poisson(1.0), BrownianDrift(0.05, 0.5))
        with pytest.raises(HypothesisError):
            asymptotic_entrance_infinite(spec, 100.0)


class TestMrv:
    def test_mu_examples(self):
        assert mrv_mu([1.0], 1.0, Ray(1.0)) == 1.0
        assert mrv_mu([1.0, 1.0], 1.0, MaxExceed((1.0, 2.0))) == pytest.approx(1.5)
        assert mrv_mu([1.0, 1.0], 2.0, HalfSpace((0.5, 0.5), 1.0)) == pytest.approx(0.5)

    def test_mu_against_limit_oracle(self):
        # mu(B) = lim P[Z in x B] / S_ref(x), evaluated at x = 1e6 through the
        # analytic scalarized survival
        from ruinflow.dependence import scalarized_survival

        x = 1e6
        m1 = ClaimModel.iid((Pareto(1.0, 1.0), Pareto(1.0, 1.0)))
        ref = Pareto(1.0, 1.0)
        got = mrv_mu([1.0, 1.0], 1.0, MaxExceed((1.0, 2.0)))
        want = scalarized_survival(m1, MaxExceed((1.0, 2.0)), x) / float(ref.survival(x))
        assert got == pytest.approx(want, rel=1e-5)
        m2 = ClaimModel.iid((Pareto(2.0, 1.0), Pareto(2.0, 1.0)))
        ref2 = Pareto(2.0, 1.0)
        got2 = mrv_mu([1.0, 1.0], 2.0, HalfSpace((0.5, 0.5), 1.0))
        want2 = scalarized_survival(m2, HalfSpace((0.5, 0.5), 1.0), x) / float(ref2.survival(x))
        assert got2 == pytest.approx(want2, rel=1e-3)

    def test_mu_of_unions(self):
        axes = PolyhedralUnion((HalfSpace((1.0, 0.0), 1.0), HalfSpace((0.0, 1.0), 2.0)))
        assert mrv_mu([1.0, 3.0], 1.5, axes) == mrv_mu([1.0, 3.0], 1.5, MaxExceed((1.0, 2.0)))
        hs = HalfSpace((0.3, 0.7), 1.5)
        assert mrv_mu([1.0, 2.0], 2.0, PolyhedralUnion((hs,))) == mrv_mu([1.0, 2.0], 2.0, hs)

    def test_mu_of_union_against_quadrature(self):
        # P[Z in x U] / x**-alpha for an IID Pareto(1.5) pair, by quadrature over the
        # first component: for X = u < x the second must exceed min(2x - u, 10x - 9u),
        # and X > x / 0.9 alone puts the vector in the union
        from scipy import integrate

        alpha, x = 1.5, 1e4
        union = PolyhedralUnion((HalfSpace((0.5, 0.5), 1.0), HalfSpace((0.9, 0.1), 1.0)))
        tail = lambda y: max(y, 1.0) ** -alpha
        f = lambda u: alpha * u ** -(alpha + 1.0) * tail(min(2 * x - u, 10 * x - 9 * u))
        p = (x / 0.9) ** -alpha
        for lo, hi in ((1.0, x), (x, x / 0.9)):  # the boundary kinks at u = x
            p += integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=500)[0]
        assert mrv_mu([1.0, 1.0], alpha, union) == pytest.approx(p / x**-alpha, rel=1e-3)

    def test_derive_requires_common_index(self):
        with pytest.raises(UnsupportedModelError):
            derive_mrv(ClaimModel.iid((Pareto(1.5), Pareto(2.5))), MaxExceed((1, 1)))
        with pytest.raises(UnsupportedModelError):
            derive_mrv(ClaimModel.iid((HeavyWeibull(0.5),)), Ray(1.0))
        with pytest.raises(UnsupportedModelError):
            derive_mrv(ClaimModel.cubic_pair(), MaxExceed((1, 1)))

    def test_closed_form_examples(self):
        claim = ClaimModel.iid((Pareto(2.0, 1.0),))
        spec = ModelSpec(claim, Ray(1.0), Poisson(1.0), Deterministic(0.05))
        mu_of_a = derive_mrv(claim, Ray(1.0)).mu_of_a
        x = 100.0
        val = mrv_closed_form(spec, x, 10.0)
        factor = (1.0 - math.exp(-1.0)) / 0.1
        assert factor == pytest.approx(6.3212, abs=1e-4)
        assert val == pytest.approx(mu_of_a * x**-2 * factor, rel=1e-12)
        val_inf = mrv_closed_form(spec, x, math.inf)
        assert val_inf == pytest.approx(mu_of_a * x**-2 * 10.0, rel=1e-12)

    def test_zero_mass_gives_zero(self):
        assert mrv_mu([0.0], 2.0, Ray(1.0)) == 0.0
        assert mrv_mu([0.0, 0.0], 1.5, MaxExceed((1.0, 2.0))) == 0.0

    def test_divergence_rejected(self):
        claim = ClaimModel.iid((Pareto(2.0, 1.0),))
        spec = ModelSpec(claim, Ray(1.0), Poisson(1.0), Deterministic(0.0))
        with pytest.raises(ValueError):
            mrv_closed_form(spec, 5.0, math.inf)

    def test_consistency_with_integral(self):
        # deterministic-numerics agreement of the integral and the closed form
        # deep in the tail where regular variation has converged
        claim = ClaimModel.iid((Pareto(1.5, 1.0), Pareto(1.5, 1.0)))
        spec = ModelSpec(claim, MaxExceed((1.0, 1.0)), Poisson(1.0), Deterministic(0.05))
        x = float(Pareto(1.5).quantile(1e-6))
        ratio = asymptotic_entrance_finite(spec, x, 10.0) / mrv_closed_form(spec, x, 10.0)
        assert 0.95 < ratio < 1.05


class TestEntranceTimeLaw:
    def test_values(self):
        assert entrance_time_cdf(2.0, 0.05, 0.0) == 0.0
        assert entrance_time_cdf(2.0, 0.05, 10.0) == pytest.approx(1 - math.exp(-1.0))
        assert entrance_time_cdf(2.0, 0.05, 1e9) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            entrance_time_cdf(0.0, 0.05, 1.0)
        with pytest.raises(ValueError):
            entrance_time_cdf(2.0, 0.05, -1.0)
