import math
import re
import warnings

import numpy as np
import pytest

from ruinflow import _util, estimators
from ruinflow._util import gauss_kronrod
from ruinflow.dependence import ClaimModel, UnsupportedModelError, scalarized_survival
from ruinflow.estimators import (
    TAIL_REL_BOUND,
    HypothesisError,
    ModelSpec,
    asymptotic_entrance_finite,
    asymptotic_entrance_infinite,
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
    LevyReturns,
    Poisson,
    RenewalIID,
)
from ruinflow.rare_sets import HalfSpace, MaxExceed, PolyhedralUnion, Ray, contains

from oracles import (
    brownian_horizon_integral,
    compound_poisson_horizon_integral,
    convolution_survival,
    deterministic_horizon_integral,
    deterministic_pareto_entrance_integral,
)


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

    @pytest.mark.parametrize("ret, cause", [
        (BrownianDrift(0.1, 0.2), "Brownian component"),
        (CompoundPoissonDrift(0.02, 1.0, FixedJumps(-0.2)), "negative jumps"),
        (LevyReturns(0.02, 0.2, 1.0, FixedJumps(-0.2)), "Brownian component and negative jumps"),
    ])
    def test_unbounded_below_names_its_cause(self, ret, cause):
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5),) * 2), MaxExceed((1, 1)), Poisson(1.0), ret)
        assert ("returns bounded below on [0, T]", False,
                f"paths are unbounded below ({cause})") in resolve_finite_mode(spec, 10.0).checks

    def test_infinite_mode_reports_summability(self):
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0),
                         Poisson(1.0), BrownianDrift(0.1, 0.2))
        report = resolve_infinite_mode(spec)
        assert ("discounted-moment summability", True, "phi(J+=1.5)=-0.105") in report.checks
        assert report.mode == "infinite-horizon"

    # Brownian returns have phi(k) = -k mu + k^2 sigma^2 / 2, negative below the root
    # 2 mu / sigma^2: the check passes exactly when the Pareto index J+ lies below it
    @pytest.mark.parametrize("mu, sigma, alpha, holds", [
        (0.05, 0.5, 1.5, False),  # root 0.4
        (0.1, 0.3, 1.5, True),  # root 2.22, below J+ + 1
        (0.1, 0.3, 2.5, False),  # root 2.22
        (1.0, 1.0, 2.0 - 1e-10, True),  # root 2: phi(J+) = -1e-10
    ])
    def test_summability_check_is_phi_at_j_up(self, mu, sigma, alpha, holds):
        spec = ModelSpec(ClaimModel.iid((Pareto(alpha),)), Ray(1.0),
                         Poisson(1.0), BrownianDrift(mu, sigma))
        report = resolve_infinite_mode(spec)
        (ok, detail), = [(ok, detail) for name, ok, detail in report.checks
                         if name == "discounted-moment summability"]
        j_up, phi = (float(v) for v in re.fullmatch(r"phi\(J\+=(.+)\)=(.+)", detail).groups())
        assert j_up == alpha
        assert phi == pytest.approx(-alpha * mu + alpha**2 * sigma**2 / 2, rel=1e-5)
        assert ok is holds and (phi < 0) is holds
        assert (report.mode == "infinite-horizon") is holds

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
                 CompoundPoissonDrift(0.02, 1.0, FixedJumps(-0.2)),
                 LevyReturns(0.02, 0.2, 1.0, ExponentialJumps(0.3)),
                 LevyReturns(0.02, 0.2, 1.0, FixedJumps(-0.2)))
        for proc in procs:
            for s in (0.5, 4.0, 40.0):
                nodes, weights = proc.xi_rule(s)
                for k in (0.5, 1.0, 2.0):
                    want = math.exp(s * proc.laplace_exponent(k))
                    assert weights @ np.exp(-k * nodes) == pytest.approx(want, rel=1e-10), \
                        (proc, s, k)

    def test_compound_poisson_matches_monte_carlo(self):
        x, s, n = 30.0, 4.0, 1_000_000
        for ret in (CompoundPoissonDrift(0.02, 1.0, ExponentialJumps(0.3)),
                    CompoundPoissonDrift(0.02, 1.0, FixedJumps(0.1)),
                    CompoundPoissonDrift(0.02, 1.0, FixedJumps(-0.2)),
                    LevyReturns(0.02, 0.2, 1.0, ExponentialJumps(0.3)),
                    LevyReturns(0.02, 0.2, 1.0, FixedJumps(-0.2))):
            jumps = ret.jumps
            spec = ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0), Poisson(1.0), ret)
            got = single_claim_entrance(spec, x, s)
            rng = np.random.default_rng(32)
            counts = rng.poisson(ret.jump_rate * s, n)
            sums = rng.gamma(counts, jumps.mean) if isinstance(jumps, ExponentialJumps) \
                else jumps.size * counts
            noise = ret.sigma * math.sqrt(s) * rng.standard_normal(n)
            vals = np.asarray(Pareto(1.5).survival(x * np.exp(ret.drift * s + sums + noise)))
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(got - vals.mean()) < 3 * se, (ret, got, vals.mean(), se)


class TestGaussKronrod:
    def test_depth_limited_panel_is_signalled(self):
        # an integrable singularity at an irrational point: the panel holding it
        # keeps an error near the square root of its width, far over its share at
        # every depth
        spike = lambda x, live: np.abs(x - 1.0 / math.pi)[None, :] ** -0.5
        with pytest.warns(RuntimeWarning, match="unconverged"):
            value, err = gauss_kronrod(spike, 0.0, 1.0, 1)
        assert err[0] > _util.GK_REL_TOL * value[0]

    def test_done_rows_leave_the_later_rounds(self):
        # a cubic is done after one panel; only the spike beside it is refined
        seen = []

        def f(x, live):
            seen.append(live.tolist())
            return np.vstack((x**3, np.abs(x - 1.0 / math.pi) ** -0.5))[live]

        with pytest.warns(RuntimeWarning, match="unconverged"):
            value, _ = gauss_kronrod(f, 0.0, 2.0, 2)
        assert seen[0] == [0, 1] and all(live == [1] for live in seen[1:])
        assert value[0] == pytest.approx(4.0, rel=1e-14)

    def test_converged_integral_is_silent(self):
        # a cubic is integrated exactly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, err = gauss_kronrod(lambda x, live: np.vstack((x**3, 3.0 * x**2))[live],
                                       0.0, 2.0, 2)
        assert value == pytest.approx([4.0, 8.0], rel=1e-14)
        assert np.all(err <= 1e-13)

    @pytest.mark.parametrize("nan_on", [lambda x: np.ones(x.shape, bool),
                                        lambda x: (0.7 < x) & (x < 0.8)],
                             ids=["everywhere", "subinterval"])
    def test_nan_integrand_raises_at_once(self, nan_on):
        # a NaN error estimate never converges; bisecting on to the depth limit
        # would take about 2**30 panels
        calls = []

        def f(x, live):
            calls.append(x)
            return np.where(nan_on(x), math.nan, np.sqrt(x))[None, :]

        with pytest.raises(ArithmeticError, match="not finite"):
            gauss_kronrod(f, 0.0, 1.0, 1)
        assert len(calls) <= 10


class TestFiniteHorizonIntegral:
    def test_zero_horizon(self):
        assert asymptotic_entrance_finite(pareto_ray_model(), 10.0, 0.0).value == 0.0

    def test_antiderivative_oracle(self):
        spec = pareto_ray_model(alpha=1.0, r=0.05, lam=1.0)
        x, T = 100.0, 10.0
        got = asymptotic_entrance_finite(spec, x, T)
        want = deterministic_pareto_entrance_integral(1.0, 1.0, 1.0, 0.05, x, T)
        assert got.converged and got.rel_error <= 1e-6
        assert abs(got.value - want) <= got.rel_error * want

    def test_linearity_in_intensity(self):
        x, T = 80.0, 10.0
        v1 = asymptotic_entrance_finite(pareto_ray_model(lam=1.0), x, T).value
        v2 = asymptotic_entrance_finite(pareto_ray_model(lam=2.0), x, T).value
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_monotone_in_threshold_and_horizon(self):
        spec = pareto_ray_model(alpha=1.5)
        vals_x = asymptotic_entrance_finite(spec, np.array([10.0, 30.0, 90.0]), 10.0).value
        assert vals_x[0] > vals_x[1] > vals_x[2]
        vals_t = [asymptotic_entrance_finite(spec, 50.0, T).value for T in (2.0, 5.0, 10.0)]
        assert vals_t[0] < vals_t[1] < vals_t[2]

    def test_quadrature_converges_under_tolerance_halving(self, monkeypatch):
        # the recorded error bounds the distance to a run with half the quadrature
        # tolerance and twice the survival table's nodes
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5), Pareto(1.5))),
                         HalfSpace((0.5, 0.5), 1.0), Poisson(1.0), Deterministic(0.05))
        coarse = asymptotic_entrance_finite(spec, 50.0, 10.0)
        monkeypatch.setattr(_util, "GK_REL_TOL", _util.GK_REL_TOL / 2)
        monkeypatch.setattr(estimators, "TABLE_NODES_PER_DECADE",
                            2 * estimators.TABLE_NODES_PER_DECADE)
        fine = asymptotic_entrance_finite(spec, 50.0, 10.0)
        assert coarse.converged and fine.converged
        assert abs(coarse.value - fine.value) <= coarse.rel_error * fine.value
        assert coarse.rel_error < 1e-6

    def test_gate_enforced_unless_unsafe(self):
        spec = ModelSpec(ClaimModel.iid((HeavyWeibull(0.5),)), Ray(1.0),
                         Poisson(1.0), BrownianDrift(0.1, 0.2))
        with pytest.raises(HypothesisError):
            asymptotic_entrance_finite(spec, 30.0, 5.0)
        val = asymptotic_entrance_finite(spec, 30.0, 5.0, unsafe=True).value
        assert 0 < val < 1

    def test_erlang_renewal_density_route(self):
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0),
                         RenewalIID(Erlang(2, 2.0)), Deterministic(0.05))
        got = asymptotic_entrance_finite(spec, 50.0, 10.0).value
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
            assert asymptotic_entrance_finite(spec, 500.0, T, unsafe=True).value <= est.value

    def test_truncation_self_consistency(self):
        spec = self.make_spec()
        est = asymptotic_entrance_infinite(spec, 500.0)
        assert est.tail_bound_rel < 1e-3
        far = asymptotic_entrance_finite(spec, 500.0, 10 * est.horizon, unsafe=True).value
        assert abs(far - est.value) / far < 1e-3

    def test_rows_grow_to_their_own_horizons(self):
        # every row reaches the renewal integral's own truncation horizon (80.69 here);
        # a row whose tail bound there is above TAIL_REL_BOUND of its value grows its
        # horizon by 1.25, integrating only the added stretch; here x = 20 and 1000
        # grow once and x = 5 stays
        spec = ModelSpec(ClaimModel.iid((Pareto(2.0),) * 2), HalfSpace((0.5, 0.5), 1.0),
                         Poisson(1.0), Deterministic(0.05))
        x = np.array([5.0, 20.0, 1000.0])
        est = asymptotic_entrance_infinite(spec, x)
        T = est.horizon[0]
        assert T == pytest.approx(80.69, abs=0.01)
        assert est.horizon.tolist() == [T, 1.25 * T, 1.25 * T]
        assert np.all(est.tail_bound_rel <= TAIL_REL_BOUND), est.tail_bound_rel
        # each row is the finite-horizon value at its own horizon, up to the panel split
        for xi, value, horizon in zip(x, est.value, est.horizon):
            assert value == pytest.approx(asymptotic_entrance_finite(spec, xi, horizon).value,
                                          rel=1.6e-9, abs=0.0)

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

    def test_survival_table_stops_at_the_float_range(self):
        # a level near the largest float needs table nodes past it, where exp(k h)
        # overflows: the table stops at the last float node, and +inf reads S_A's limit
        column = estimators._Column(pareto_ray_model(alpha=1.5), 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            surv, err, bad = column.survival(np.array([1e300, 1.7e308, np.inf]))
        assert np.all(np.isfinite(column.ln)) and not bad.any()
        assert surv[2] == 0.0 and err[2] == 0.0
        assert np.all((surv >= 0.0) & (surv < 1e-300))

    def test_claim_levels_past_the_float_range(self):
        # phi(1.5) = -0.015 admits the model, but its walk reaches lags whose rule
        # nodes put x e^{xi(s)} past the largest float, where S_A reads its limit 0.
        # Accuracy under this volatility is open: the rows at x = 1000 and 2000 differ
        # by a factor 1.44, not the 2**1.5 of the tail, so every row must be flagged.
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5),)), Ray(1.0),
                         Poisson(1.0), BrownianDrift(0.76, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = asymptotic_entrance_infinite(spec, np.array([250.0, 500.0, 1000.0, 2000.0]))
        assert np.all(np.isfinite(est.value) & (est.value > 0))
        assert np.all(np.isfinite(est.horizon)) and np.all(est.tail_bound_rel <= TAIL_REL_BOUND)
        assert not est.converged.any()


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
        for claim, rare_set in ((ClaimModel.iid((Pareto(1.5), Pareto(2.5))), MaxExceed((1, 1))),
                                (ClaimModel.iid((HeavyWeibull(0.5),)), Ray(1.0)),
                                (ClaimModel.cubic_pair(), MaxExceed((1, 1)))):
            spec = ModelSpec(claim, rare_set, Poisson(1.0), Deterministic(0.05))
            with pytest.raises(UnsupportedModelError):
                mrv_closed_form(spec, 100.0, 10.0)

    def test_closed_form_examples(self):
        claim = ClaimModel.iid((Pareto(2.0, 1.0),))
        spec = ModelSpec(claim, Ray(1.0), Poisson(1.0), Deterministic(0.05))
        mu_of_a = mrv_mu([1.0], 2.0, Ray(1.0))
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
        ratio = asymptotic_entrance_finite(spec, x, 10.0).value / mrv_closed_form(spec, x, 10.0)
        assert 0.95 < ratio < 1.05

    @pytest.mark.parametrize("x", [1e8, 1e12])
    def test_max_type_integral_deep_in_the_tail(self, x):
        # the union survival once cancelled here: 7.7e-6 off and unconverged at 1e8,
        # 1e-304 flagged converged at 1e12
        claim = ClaimModel.iid((Pareto(1.5, 1.0), Pareto(1.5, 1.0)))
        spec = ModelSpec(claim, MaxExceed((1.0, 1.0)), Poisson(1.0), Deterministic(0.05))
        est = asymptotic_entrance_finite(spec, x, 10.0)
        assert est.value == pytest.approx(mrv_closed_form(spec, x, 10.0), rel=1e-6, abs=0.0)
        assert est.converged


def brownian_half_space_model():
    """The ``entrance-brownian-inf`` benchmark model."""
    return ModelSpec(ClaimModel.iid((Pareto(1.5, 1.0),) * 2), HalfSpace((0.5, 0.5), 1.0),
                     Poisson(1.0), BrownianDrift(0.1, 0.2))


def pareto_pair_half_space_survival(alpha=1.5):
    """``S_A`` of an IID unit Pareto pair on ``HalfSpace((0.5, 0.5), 1)``, by the oracle's
    own convolution quadrature."""
    sf = lambda y: max(y, 1.0) ** -alpha
    pdf = lambda y: alpha * y ** -(alpha + 1.0) if y > 1.0 else 0.0
    return lambda v: convolution_survival(sf, sf, pdf, 1.0, 1.0, 2.0 * v)


def _nan_cases():
    from ruinflow.dependence import qai_ratio, rd_violation_ratio
    from ruinflow.heavy_tails import matuszewska_bounds
    from ruinflow.ruin import asymptotic_ruin

    from test_ruin import two_line_model

    pair = ClaimModel.iid((Pareto(1.5),) * 2)
    half = brownian_half_space_model()
    return {
        "survival-halfspace": lambda: scalarized_survival(pair, HalfSpace((0.5, 0.5), 1.0),
                                                          math.nan),
        "survival-maxexceed": lambda: scalarized_survival(pair, MaxExceed((1.0, 1.0)), math.nan),
        "survival-ray": lambda: scalarized_survival(ClaimModel.iid((Pareto(1.5),)), Ray(1.0),
                                                    [1.0, math.nan]),
        "single-claim-x": lambda: single_claim_entrance(half, math.nan, 5.0),
        "single-claim-s": lambda: single_claim_entrance(half, 100.0, math.nan),
        "finite-x": lambda: asymptotic_entrance_finite(half, math.nan, 10.0, unsafe=True),
        "finite-x-in-grid": lambda: asymptotic_entrance_finite(
            half, np.array([10.0, math.nan]), 10.0, unsafe=True),
        "finite-T-nan": lambda: asymptotic_entrance_finite(half, 10.0, math.nan, unsafe=True),
        "finite-T-inf": lambda: asymptotic_entrance_finite(half, 10.0, math.inf, unsafe=True),
        "infinite-x": lambda: asymptotic_entrance_infinite(half, math.nan),
        "ruin-x": lambda: asymptotic_ruin(two_line_model(), math.nan, 10.0),
        "ruin-T": lambda: asymptotic_ruin(two_line_model(), 50.0, math.nan),
        "mrv-mu-alpha": lambda: mrv_mu((1.0,), math.nan, Ray(1.0)),
        "mrv-mu-weights": lambda: mrv_mu((1.0, math.nan), 1.5, MaxExceed((1.0, 1.0))),
        "mrv-closed-form-x": lambda: mrv_closed_form(pareto_ray_model(), math.nan, 10.0),
        "mrv-closed-form-T": lambda: mrv_closed_form(pareto_ray_model(), 10.0, math.nan),
        "contains-x": lambda: contains(Ray(1.0), math.nan, [5.0]),
        "quantile-u": lambda: Pareto(1.5).quantile(math.nan),
        "quantile-u-in-grid": lambda: Pareto(1.5).quantile([0.5, math.nan]),
        "matuszewska-y": lambda: matuszewska_bounds(Pareto(1.5), [math.nan, 2.0], [10.0, 100.0]),
        "matuszewska-x": lambda: matuszewska_bounds(Pareto(1.5), [2.0], [10.0, math.nan]),
        "qai-ratio-x": lambda: qai_ratio(ClaimModel.cubic_pair(), MaxExceed((1, 1)), math.nan),
        "rd-violation-x": lambda: rd_violation_ratio(ClaimModel.cubic_pair(), MaxExceed((1, 1)),
                                                     math.nan),
    }


@pytest.mark.parametrize("case", sorted(_nan_cases()))
def test_nan_input_raises_at_the_boundary(case):
    # NaN thresholds and horizons once gave a probability (1.0, or 10.0 for a
    # finite horizon), a NaN for some sets and not others, or 60 horizon steps
    # ending in an unrelated RuntimeError
    with pytest.raises(ValueError):
        _nan_cases()[case]()


class TestNestedQuadratureOracle:
    """The column against nested ``scipy.integrate.quad`` at epsrel 1e-12 (oracles.py)."""

    def test_brownian_half_space(self):
        # the entrance-brownian-inf model over its truncation horizon
        model, T = brownian_half_space_model(), 76.85
        x = np.array([100.0, 447.2, 2000.0])
        got = asymptotic_entrance_finite(model, x, T, unsafe=True)
        sa = pareto_pair_half_space_survival()
        want = [brownian_horizon_integral(sa, 1.0, 0.1, 0.2, xv, T) for xv in x]
        assert np.all(got.converged) and np.all(got.rel_error <= 1e-6)
        np.testing.assert_allclose(got.value, want, rtol=1e-7)

    def test_erlang_renewals(self):
        model = ModelSpec(ClaimModel.iid((Pareto(1.5, 1.0),) * 2), HalfSpace((0.5, 0.5), 1.0),
                          RenewalIID(Erlang(2, 2.0)), Deterministic(0.05))
        x = np.array([10.0, 50.0, 250.0])
        got = asymptotic_entrance_finite(model, x, 10.0)
        density = lambda s: 1.0 - math.exp(-4.0 * s)  # Erlang(2, 2): (rate/2)(1 - e^{-2 rate s})
        sa = pareto_pair_half_space_survival()
        want = [deterministic_horizon_integral(sa, density, 0.05, xv, 10.0) for xv in x]
        assert np.all(got.converged) and np.all(got.rel_error <= 1e-6)
        np.testing.assert_allclose(got.value, want, rtol=1e-7)

    def test_ray_under_compound_poisson(self):
        model = ModelSpec(ClaimModel.iid((Pareto(1.5, 1.0),)), Ray(1.0), Poisson(1.0),
                          CompoundPoissonDrift(0.02, 0.5, ExponentialJumps(0.05)))
        x = np.array([10.0, 50.0, 250.0])
        got = asymptotic_entrance_finite(model, x, 10.0)
        sa = lambda v: max(v, 1.0) ** -1.5
        want = [compound_poisson_horizon_integral(sa, 1.0, 0.02, 0.5, 0.05, xv, 10.0) for xv in x]
        assert np.all(got.converged) and np.all(got.rel_error <= 1e-6)
        np.testing.assert_allclose(got.value, want, rtol=1e-7)

