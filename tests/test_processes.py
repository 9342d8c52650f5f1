import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ruinflow.dependence import ClaimModel
from ruinflow.estimators import ModelSpec, asymptotic_entrance_infinite
from ruinflow.heavy_tails import Pareto
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
from ruinflow.rare_sets import HalfSpace

from oracles import arrival_times, erlang2_renewal_function, erlang_laplace


def column_horizons(renewal, ret=Deterministic(0.05), alpha=1.5) -> np.ndarray:
    """Per-threshold truncation horizons of the infinite-horizon asymptotic column of
    an IID Pareto(alpha) pair on ``HalfSpace((0.5, 0.5), 1)`` at x = 10, 50, 250."""
    model = ModelSpec(ClaimModel.iid((Pareto(alpha, 1.0),) * 2), HalfSpace((0.5, 0.5), 1.0),
                      renewal, ret)
    return asymptotic_entrance_infinite(model, (10.0, 50.0, 250.0), unsafe=True).horizon


def integrated_density(spec, t: float) -> float:
    """The renewal function at ``t``: the renewal density integrated by scipy."""
    from scipy import integrate

    return integrate.quad(spec.renewal_density, 0, t,
                          epsabs=1e-12, epsrel=1e-12, limit=200)[0]


class TestRenewalFunction:
    def test_poisson_exact(self):
        assert Poisson(1.0).discounted_integral(0.0, 10.0) == 10.0
        assert Poisson(2.0).discounted_integral(0.0, 0.0) == 0.0

    def test_erlang_matches_closed_form(self):
        spec = RenewalIID(Erlang(2, 2.0))
        for t in (0.5, 3.0, 10.0):
            assert integrated_density(spec, t) == pytest.approx(
                erlang2_renewal_function(2.0, t), abs=1e-7)

    def test_erlang_matches_monte_carlo(self):
        spec = RenewalIID(Erlang(2, 2.0))
        rng = np.random.default_rng(21)
        t = 10.0
        n = 200_000
        gaps = rng.gamma(2.0, 0.5, size=(n, 40))
        times = np.cumsum(gaps, axis=1)
        assert times[:, -1].min() > t
        counts = (times <= t).sum(axis=1)
        se = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - integrated_density(spec, t)) < 3 * se

    def test_density_poisson(self):
        assert Poisson(1.7).renewal_density(3.0) == 1.7

    @pytest.mark.parametrize("k, rate", [(1, 0.3), (2, 2.0), (3, 1.0), (5, 7.5)])
    def test_density_erlang_is_scipy_gamma_sum(self, k, rate):
        spec = RenewalIID(Erlang(k, rate))
        a = np.arange(1, 401) * k  # 400 terms: their tail is far below rounding up to t = 50
        for t in np.geomspace(1e-3, 50.0, 40):
            want = float(stats.gamma.pdf(t, a=a, scale=1.0 / rate).sum())
            assert spec.renewal_density(t) == pytest.approx(want, rel=1e-12, abs=1e-14 * rate)

    def test_density_erlang_integrates_to_renewal_function(self):
        from scipy import integrate

        spec = RenewalIID(Erlang(2, 2.0))
        val, _ = integrate.quad(spec.renewal_density, 0, 5.0, limit=200)
        assert val == pytest.approx(erlang2_renewal_function(2.0, 5.0), rel=1e-6)


_RENEWALS = [Poisson(1.3), RenewalIID(Erlang(2, 2.0)), RenewalIID(Erlang(3, 1.0)),
             RenewalIID(Erlang(5, 7.5))]


def _name(spec) -> str:
    return f"erlang-{spec.interarrival.k}-{spec.interarrival.rate}"


def _quad(f, a, b):
    from scipy import integrate

    return integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=500)[0]


class TestDiscountedIntegrals:
    """The closed-form sums over the roots of unity against scipy's quadrature
    of the renewal density."""

    @pytest.mark.parametrize("spec", _RENEWALS, ids=_name)
    @pytest.mark.parametrize("phi", [-0.4, -0.02, 0.0])
    def test_finite_horizon_matches_quad(self, spec, phi):
        for T in (0.3, 4.0, 30.0):
            want = _quad(lambda s: math.exp(phi * s) * spec.renewal_density(s), 0.0, T)
            assert spec.discounted_integral(phi, T) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("spec, density", [
        (Poisson(1.0), lambda s: 1.0),
        (RenewalIID(Erlang(2, 2.0)), lambda s: 1.0 - math.exp(-4.0 * s)),  # (b/2)(1 - e^{-2bs})
    ], ids=["poisson", "erlang2"])
    @pytest.mark.parametrize("phi", [-1e-15, -1e-12, -1e-9])
    def test_finite_horizon_at_a_tiny_exponent(self, spec, density, phi):
        # the Poisson head lam (1 - e^{T phi}) / -phi cancels here: at phi = -1e-15 it
        # read 9.99201 for Poisson(1) at T = 10, where the integral is 10 - 5e-14
        want = _quad(lambda s: math.exp(phi * s) * density(s), 0.0, 10.0)
        assert spec.discounted_integral(phi, 10.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spec", _RENEWALS, ids=_name)
    @pytest.mark.parametrize("phi", [-0.4, -0.02])
    def test_infinite_horizon_and_tail_match_quad(self, spec, phi):
        f = lambda s: math.exp(phi * s) * spec.renewal_density(s)
        q = erlang_laplace(spec.interarrival.k, spec.interarrival.rate, -phi)
        total = spec.discounted_integral(phi, math.inf)
        assert total == pytest.approx(q / (1.0 - q), rel=1e-12)
        assert total == pytest.approx(_quad(f, 0.0, math.inf), rel=1e-9)
        for T in (0.3, 4.0, 30.0):
            assert spec.discounted_tail_bound(phi, T) == pytest.approx(_quad(f, T, math.inf),
                                                                        rel=1e-9)

    @pytest.mark.parametrize("spec", [Poisson(1.0), RenewalIID(Erlang(2, 2.0))], ids=_name)
    @pytest.mark.parametrize("phi", [0.1, 0.0])
    def test_divergent_integrals_raise(self, spec, phi):
        with pytest.raises(ValueError):
            spec.discounted_integral(phi, math.inf)
        with pytest.raises(ValueError):
            spec.discounted_tail_bound(phi, 5.0)

    def test_poisson_is_erlang_one(self):
        assert Poisson(2.5) == RenewalIID(Erlang(1, 2.5))
        assert np.array_equal(column_horizons(Poisson(1.0)),
                              column_horizons(RenewalIID(Erlang(1, 1.0))))

    def test_erlang_shape_rejects_bools_and_is_stored_as_an_int(self):
        for k in (True, False):
            with pytest.raises(ValueError, match="integer k"):
                Erlang(k, 1.0)
        assert type(Erlang(2.0, 1.0).k) is int
        assert Erlang(2.0, 1.0) == Erlang(2, 1.0)

    def test_exponential_gaps_are_the_shape_one_gamma_stream(self):
        gaps = Poisson(2.0).interarrivals(np.random.default_rng(30), (2, 500))
        want = np.random.default_rng(30).standard_gamma(1.0, (2, 500)) / 2.0
        assert np.array_equal(gaps, want)


def _modules_after(code: str, roots=("scipy",)) -> str:
    """The modules under ``roots`` that a fresh interpreter holds after running ``code``."""
    import ruinflow

    src = str(Path(ruinflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = code + (f"\nimport sys\nroots = {tuple(roots)!r}\n"
                    "print(sorted(m for m in sys.modules"
                    " if any(m == r or m.startswith(r + '.') for r in roots)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


# The four benchmark experiments, small and on one worker: an FGM/Pareto entrance with
# Poisson arrivals and deterministic returns at T = 10, a Brownian entrance at T = inf,
# ruin with constant premiums and an FGM big jump.
_CANONICAL_EXPERIMENTS = """
import math
from ruinflow import (ClaimModel, ModelSpec, Pareto, Poisson, Deterministic, BrownianDrift,
                      HalfSpace, MaxExceed, AnyLineNegative, SimConfig, RuinModel,
                      PremiumSchedule, empirical_entrance, empirical_ruin, single_big_jump_check)
pair = ClaimModel.iid((Pareto(1.5, 1.0), Pareto(1.5, 1.0)))
half = HalfSpace((0.5, 0.5), 1.0)
empirical_entrance(ModelSpec(ClaimModel.fgm_chain(0.5, Pareto(1.5, 1.0)), half, Poisson(1.0),
                             Deterministic(0.05)), SimConfig(2000, 1, 10.0, (60.0, 320.9)))
empirical_entrance(ModelSpec(pair, half, Poisson(1.0), BrownianDrift(0.1, 0.2)),
                   SimConfig(2000, 2, math.inf, (100.0, 447.2)))
ruin = RuinModel(claim=pair, renewal=Poisson(1.0), ret=Deterministic(0.05), alloc=(0.5, 0.5),
                 ruin_set=AnyLineNegative(), premiums=PremiumSchedule.constant((0.5, 0.5)))
empirical_ruin(ruin, (20.0, 1280.0), 10.0, SimConfig(2000, 3, 10.0))
single_big_jump_check(ClaimModel.fgm_chain(0.5, Pareto(2.0, 1.0)), MaxExceed((1.0, 1.0)),
                      (1.0, 1.0, 1.0), (40.0, 86.2), SimConfig(2000, 4, 1.0))
"""


class TestImportFootprint:
    """SciPy costs about half of a cold start, and the canonical models never call it;
    ``multiprocessing`` loads only for a run on more than one worker, and no run loads
    the process pool of ``concurrent.futures``."""

    def test_import_leaves_scipy_out(self):
        assert _modules_after("import ruinflow") == "[]"

    def test_canonical_experiments_leave_scipy_out(self):
        assert _modules_after(_CANONICAL_EXPERIMENTS) == "[]"

    def test_one_worker_runs_leave_the_pool_out(self):
        roots = ("concurrent.futures.process", "multiprocessing")
        assert _modules_after("import ruinflow", roots) == "[]"
        assert _modules_after(_CANONICAL_EXPERIMENTS, roots) == "[]"


class TestArrivalSampling:
    """Arrival times summed from the renewal's ``interarrivals``."""

    def test_poisson_mean_count(self):
        rng = np.random.default_rng(22)
        counts = [arrival_times(Poisson(1.0), 10.0, rng).size for _ in range(4000)]
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - 10.0) < 3 * se

    def test_poisson_count_chisquare(self):
        rng = np.random.default_rng(23)
        n = 20_000
        counts = np.array([arrival_times(Poisson(1.0), 10.0, rng).size for _ in range(n)])
        kmax = 22
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        pmf = stats.poisson.pmf(np.arange(kmax), 10.0)
        expected = np.append(pmf, 1.0 - pmf.sum()) * n
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.isf(1e-3, kmax)

    def test_short_horizon_usually_empty(self):
        rng = np.random.default_rng(24)
        empties = sum(arrival_times(Poisson(1.0), 1e-4, rng).size == 0 for _ in range(2000))
        assert empties > 1990

    def test_strictly_increasing(self):
        rng = np.random.default_rng(25)
        t = arrival_times(RenewalIID(Erlang(3, 1.0)), 50.0, rng)
        assert np.all(np.diff(t) > 0)
        assert t.max() <= 50.0


class TestNativeDraws:
    """The law of each variate the engine draws for one loop step."""

    def test_poisson_gaps_are_exponential(self):
        gaps = Poisson(2.0).interarrivals(np.random.default_rng(31), (2, 20_000))
        assert gaps.shape == (2, 20_000)
        assert stats.kstest(gaps.ravel(), stats.expon(scale=0.5).cdf).pvalue > 1e-3

    def test_erlang_gaps_are_gamma(self):
        gaps = RenewalIID(Erlang(3, 2.0)).interarrivals(np.random.default_rng(32), (2, 20_000))
        assert gaps.shape == (2, 20_000)
        assert stats.kstest(gaps.ravel(), stats.gamma(a=3, scale=0.5).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("rate", [1.0, 2.5])
    @pytest.mark.parametrize("k", [1, 3])
    def test_gaps_are_the_standard_draw_over_the_rate(self, k, rate):
        # a unit rate skips its division: its gaps are the standard variates' own bytes
        out = np.empty((2, 4097))
        got = RenewalIID(Erlang(k, rate)).interarrivals(np.random.default_rng(36), (2, 4097),
                                                          out=out)
        ref = np.random.default_rng(36)
        std = ref.standard_exponential((2, 4097)) if k == 1 else ref.standard_gamma(k, (2, 4097))
        assert got is out
        assert got.tobytes() == (std if rate == 1.0 else std / rate).tobytes()

    @pytest.mark.parametrize("dt", [0.05, 1.0, 7.0])
    def test_brownian_increment_moments(self, dt):
        proc = BrownianDrift(0.1, 0.3)
        n = 200_000
        dtau = np.full((2, n // 2), dt)
        inc = proc.xi_at(dtau, np.random.default_rng(33)).ravel()
        var = proc.sigma**2 * dt
        assert abs(inc.mean() - proc.drift * dt) < 4 * math.sqrt(var / n)
        # the sample variance of normals has standard error var * sqrt(2 / n)
        assert abs(inc.var(ddof=1) - var) < 4 * var * math.sqrt(2.0 / n)

    @pytest.mark.parametrize("proc, dt", [
        (CompoundPoissonDrift(0.02, 1.5, ExponentialJumps(0.4)), 0.7),
        (CompoundPoissonDrift(0.02, 1.5, ExponentialJumps(0.4)), 5.0),
        (CompoundPoissonDrift(0.05, 2.0, FixedJumps(0.1)), 1.0),
        (CompoundPoissonDrift(0.05, 2.0, FixedJumps(-0.05)), 1.0),
        # a jump mean of 2000 per gap, past where exp(-mean) underflows
        (CompoundPoissonDrift(0.0, 2000.0, FixedJumps(1e-3)), 1.0),
        # jump-diffusions: normals, then jump counts and sums
        (LevyReturns(0.02, 0.2, 1.0, ExponentialJumps(0.3)), 1.0),
        (LevyReturns(0.02, 0.2, 1.0, FixedJumps(-0.2)), 1.0),
    ])
    def test_compound_poisson_increment_laplace(self, proc, dt):
        # E[exp(-k dxi)] = exp(dt * phi(k)) for the increment over one gap
        n = 200_000
        dtau = np.full((2, n // 2), dt)
        inc = proc.xi_at(dtau, np.random.default_rng(34)).ravel()
        for k in (0.5, 1.5):
            vals = np.exp(-k * inc)
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean() - math.exp(dt * proc.laplace_exponent(k))) < 3 * se, k

    def test_zero_exponential_jump_count_is_exactly_zero(self):
        rng = np.random.default_rng(35)
        counts = np.array([[0, 3, 0], [2, 0, 0]])
        sums = ExponentialJumps(0.5).block_sum(counts, rng)
        assert np.all(sums[counts == 0] == 0.0)
        assert np.all(sums[counts > 0] > 0.0)
        # a zero count draws nothing: the stream is where two gamma draws leave it
        ref = np.random.default_rng(35)
        ref.standard_gamma(np.array([3.0, 2.0]))
        assert rng.random() == ref.random()


class TestLaplaceExponent:
    def test_examples(self):
        assert Deterministic(0.05).laplace_exponent(2.0) == pytest.approx(-0.1)
        assert BrownianDrift(0.1, 0.2).laplace_exponent(2.0) == pytest.approx(-0.12)
        cp = CompoundPoissonDrift(0.02, 1.5, ExponentialJumps(0.5))
        assert cp.laplace_exponent(1.0) == pytest.approx(-0.02 + 1.5 * (1 / 1.5 - 1))

    @pytest.mark.parametrize("proc", [
        Deterministic(0.05),
        BrownianDrift(0.1, 0.2),
        CompoundPoissonDrift(0.02, 1.0, ExponentialJumps(0.3)),
        CompoundPoissonDrift(-0.01, 2.0, FixedJumps(0.1)),
        LevyReturns(0.02, 0.2, 1.0, ExponentialJumps(0.3)),
        LevyReturns(0.02, 0.2, 1.0, FixedJumps(-0.2)),
    ])
    def test_zero_and_convexity(self, proc):
        assert proc.laplace_exponent(0.0) == 0.0
        ks = np.linspace(0.0, 3.0, 31)
        vals = np.array([proc.laplace_exponent(float(k)) for k in ks])
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9)

    def test_domain_error(self):
        cp = CompoundPoissonDrift(0.0, 1.0, ExponentialJumps(0.5))
        with pytest.raises(ValueError):
            cp.laplace_exponent(-3.0)


class TestMomentIdentity:
    def test_brownian_discount_moment(self):
        proc = BrownianDrift(0.1, 0.2)
        t, k = 3.0, 1.5
        rng = np.random.default_rng(26)
        n = 1_000_000
        xi = proc.drift * t + proc.sigma * math.sqrt(t) * rng.standard_normal(n)
        vals = np.exp(-k * xi)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - math.exp(t * proc.laplace_exponent(k))) < 3 * se

    def test_compound_poisson_discount_moment(self):
        proc = CompoundPoissonDrift(0.05, 2.0, ExponentialJumps(0.4))
        t, k = 2.0, 1.2
        rng = np.random.default_rng(27)
        n = 500_000
        dtau = np.full(n, t)
        xi = proc.xi_at(dtau, rng)
        vals = np.exp(-k * xi)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - math.exp(t * proc.laplace_exponent(k))) < 3 * se

    def test_path_sampling_at_arrival_epochs(self):
        proc = BrownianDrift(0.1, 0.2)
        rng = np.random.default_rng(28)
        times = np.array([0.5, 1.5, 4.0])
        n = 200_000
        tau = np.tile(times, (n, 1))
        xi = np.cumsum(proc.xi_at(np.diff(tau, prepend=0.0), rng), axis=1)
        for j, t in enumerate(times):
            assert xi[:, j].mean() == pytest.approx(0.1 * t, abs=3 * 0.2 * math.sqrt(t / n) + 1e-4)
            assert xi[:, j].var() == pytest.approx(0.04 * t, rel=0.02)


class TestLevyReturns:
    @pytest.mark.parametrize("make", [
        lambda: CompoundPoissonDrift(0.0, 1.0, None),
        lambda: LevyReturns(0.0, 0.2, 1.0),
        lambda: LevyReturns(0.0, 0.2, 0.0, FixedJumps(0.1)),
        lambda: LevyReturns(0.0, 0.0, -1.0, FixedJumps(0.1)),
    ], ids=["compound poisson without law", "rate without law", "law without rate",
            "negative rate"])
    def test_jump_rate_and_jump_law_come_together(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: BrownianDrift(math.nan, 0.2),
        lambda: BrownianDrift(math.inf, 0.2),
        lambda: BrownianDrift(0.1, -0.2),
        lambda: BrownianDrift(0.1, math.inf),
        lambda: CompoundPoissonDrift(0.0, 0.0, ExponentialJumps(0.5)),
        lambda: CompoundPoissonDrift(0.0, math.inf, ExponentialJumps(0.5)),
        lambda: CompoundPoissonDrift(0.0, math.nan, ExponentialJumps(0.5)),
    ], ids=["brownian nan drift", "brownian infinite drift", "negative volatility",
            "infinite volatility", "zero jump rate", "infinite jump rate", "nan jump rate"])
    def test_constructors_are_checked_by_levy_returns(self, make):
        # the named constructors add no check of their own: each bad input fails in
        # LevyReturns.__post_init__
        with pytest.raises(ValueError):
            make()

    def test_zero_volatility_is_the_deterministic_force(self):
        proc = BrownianDrift(0.05, 0.0)
        assert proc == Deterministic(0.05)
        nodes, weights = proc.xi_rule(3.0)
        assert nodes.tolist() == [0.05 * 3.0] and weights.tolist() == [1.0]
        dtau, rng = np.full((2, 8), 0.5), np.random.default_rng(36)
        assert np.array_equal(proc.xi_at(dtau, rng), 0.05 * dtau)
        assert rng.random() == np.random.default_rng(36).random()  # nothing was drawn


class TestBoundedBelow:
    def test_deterministic(self):
        assert Deterministic(0.05).bounded_below(10.0) == 0.0

    def test_brownian_fails(self):
        assert BrownianDrift(0.1, 0.2).bounded_below(10.0) is None

    def test_compound_poisson_nonnegative(self):
        assert CompoundPoissonDrift(0.02, 1.0, ExponentialJumps(0.5)).bounded_below(5.0) == 0.0

    def test_negative_drift_gets_linear_floor(self):
        floor = CompoundPoissonDrift(-0.1, 1.0, ExponentialJumps(0.5)).bounded_below(5.0)
        assert floor == pytest.approx(0.5)

    def test_signed_jumps_fail(self):
        assert CompoundPoissonDrift(0.1, 1.0, FixedJumps(-0.2)).bounded_below(5.0) is None


class TestSummability:
    # sum_i E[exp(-p xi(tau_i))] is the renewal measure integrated against exp(s phi(p)):
    # a geometric series with ratio E[exp(tau_1 phi)] = rate / (rate - phi) for Poisson
    def test_brownian_negative_exponent_holds(self):
        phi = BrownianDrift(0.1, 0.2).laplace_exponent(3.0)
        assert phi == pytest.approx(-0.12)
        ratio = 1.0 / (1.0 - phi)
        series = Poisson(1.0).discounted_integral(phi, math.inf)
        assert series == pytest.approx(ratio / (1.0 - ratio), rel=1e-12)

    def test_brownian_positive_exponent_fails(self):
        phi = BrownianDrift(0.05, 0.5).laplace_exponent(2.0)
        assert phi == pytest.approx(0.4)
        with pytest.raises(ValueError, match="diverges"):
            Poisson(1.0).discounted_integral(phi, math.inf)


class TestTruncation:
    def test_poisson_deterministic_horizon(self):
        # tail/total < 1e-3 exactly when exp(phi T)/(1 - exp(phi T)) < 1e-3: every row
        # runs at least that far, and here the first row stops at the first such T
        horizons = column_horizons(Poisson(1.0))
        phi = -1.5 * 0.05
        for T in horizons:
            assert math.exp(phi * T) / (1 - math.exp(phi * T)) <= 1e-3
        T = horizons.min()
        assert math.exp(phi * T / 1.25) / (1 - math.exp(phi * T / 1.25)) > 1e-3 * 0.5

    def test_tail_bound_decreases(self):
        phi = BrownianDrift(0.1, 0.2).laplace_exponent(1.5)
        b1 = Poisson(1.0).discounted_tail_bound(phi, 40.0)
        b2 = Poisson(1.0).discounted_tail_bound(phi, 80.0)
        assert b2 < b1

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ValueError, match="no finite truncation horizon"):
            column_horizons(Poisson(1.0), BrownianDrift(0.05, 0.5), alpha=2.0)
