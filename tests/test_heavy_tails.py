import math
from dataclasses import replace

import numpy as np
import pytest

from ruinflow.heavy_tails import (
    ClassTags,
    CubicSurvival,
    HarmonicSurvival,
    HeavyWeibull,
    Lognormal,
    Pareto,
    SurvivalUnderflowError,
    matuszewska_bounds,
)

ALL_DISTS = [
    Pareto(1.5, 1.0),
    Pareto(2.0, 0.5),
    HeavyWeibull(0.5, 1.0),
    Lognormal(0.0, 1.0),
    CubicSurvival(),
    HarmonicSurvival(),
]


class TestSurvival:
    def test_cubic_at_one(self):
        assert float(CubicSurvival().survival(1.0)) == pytest.approx(0.5)

    def test_harmonic_at_one(self):
        assert float(HarmonicSurvival().survival(1.0)) == pytest.approx(0.5)

    def test_pareto_at_zero(self):
        assert float(Pareto(2.0, 1.0).survival(0.0)) == 1.0

    @pytest.mark.parametrize("dist", ALL_DISTS)
    def test_shape(self, dist):
        # x kept below the float underflow point of the lightest catalog tail
        xs = np.array([-1.0, 0.0, 0.5, 1.0, 5.0, 100.0, 2e4])
        sf = np.asarray(dist.survival(xs))
        assert np.all(sf <= 1.0) and np.all(sf > 0.0)
        assert np.all(np.diff(sf) <= 1e-15)  # nonincreasing
        assert float(dist.survival(-3.0)) == 1.0


class TestQuantile:
    def test_cubic_median_of_tail(self):
        assert float(CubicSurvival().quantile(0.5)) == pytest.approx(1.0)

    def test_harmonic_example(self):
        # solve (1+y)^-1 = 0.1
        assert float(HarmonicSurvival().quantile(0.1)) == pytest.approx(9.0)

    def test_pareto_closed_form(self):
        assert float(Pareto(1.0, 1.0).quantile(0.01)) == pytest.approx(100.0)
        assert float(Pareto(1.0, 2.5).quantile(0.01)) == pytest.approx(250.0)

    @pytest.mark.parametrize("dist", ALL_DISTS)
    def test_inverse_roundtrip(self, dist):
        us = np.array([1e-8, 1e-4, 0.05, 0.3, 0.7, 0.99])
        xs = dist.quantile(us)
        back = np.asarray(dist.survival(xs))
        assert back == pytest.approx(us, rel=1e-10)

    @pytest.mark.parametrize("dist", ALL_DISTS)
    def test_qf_overwrites_its_argument_only(self, dist):
        u = np.random.default_rng(7).random(257)
        keep = u.copy()
        v = 1.0 - u
        want = dist.from_survival_uniform(u)
        assert dist._qf(v) is v
        assert np.array_equal(v, want)
        for got in (want, dist.quantile(u)):
            assert not np.shares_memory(got, u)
        assert np.array_equal(u, keep)

    @pytest.mark.parametrize("dist", [Pareto(1.5, 1.0), Pareto(1.5, 3.0), HeavyWeibull(0.5, 1.0),
                                      HeavyWeibull(0.5, 3.0)], ids=repr)
    def test_qf_is_the_unit_scale_qf_times_the_scale(self, dist):
        # a unit scale skips its multiplication: either way the bytes are the unit-scale
        # law's quantiles multiplied by the scale
        v = 1.0 - np.random.default_rng(8).random(1001)
        want = np.multiply(replace(dist, scale=1.0)._qf(v.copy()), dist.scale)
        assert dist._qf(v).tobytes() == want.tobytes()

    def test_domain_enforced(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                Pareto(2.0).quantile(bad)


class TestSampling:
    @pytest.mark.parametrize("dist", [Pareto(1.5), HeavyWeibull(0.5), CubicSurvival()])
    def test_empirical_survival_matches(self, dist):
        n = 1_000_000
        rng = np.random.default_rng(101)
        draws = dist.sample(n, rng)
        for q in (0.5, 0.1, 0.01, 1e-3):
            x = float(dist.quantile(q))
            p_hat = np.count_nonzero(draws > x) / n
            tol = 3.0 * math.sqrt(q * (1 - q) / n)
            assert abs(p_hat - q) < tol, (dist, q, p_hat)

    def test_zero_uniform_stays_on_support(self):
        for dist in ALL_DISTS:
            val = float(np.asarray(dist.from_survival_uniform(np.array([0.0])))[0])
            assert math.isfinite(val)
            assert val >= dist.support_min - 1e-12


class TestMatuszewskaDiagnostic:
    def test_pareto_recovers_index(self):
        lo, hi = matuszewska_bounds(Pareto(2.0), [2.0, 4.0], [1e3, 1e6])
        assert lo == pytest.approx(2.0, abs=0.05)
        assert hi == pytest.approx(2.0, abs=0.05)

    def test_cubic_recovers_three(self):
        lo, hi = matuszewska_bounds(CubicSurvival(), [2.0], [1e3, 1e6])
        assert lo == pytest.approx(3.0, abs=0.05)
        assert hi == pytest.approx(3.0, abs=0.05)

    def test_weibull_grows_without_bound(self):
        lo4, hi4 = matuszewska_bounds(HeavyWeibull(0.5), [2.0], [1e2, 1e4])
        lo5, hi5 = matuszewska_bounds(HeavyWeibull(0.5), [2.0], [1e2, 1e5])
        assert lo4 > 10.0 and hi4 > 10.0
        assert lo5 > lo4  # estimate grows with the grid: no finite exponent

    def test_underflow_signalled(self):
        with pytest.raises(SurvivalUnderflowError):
            matuszewska_bounds(HeavyWeibull(0.5), [2.0], [1e2, 1e7])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            matuszewska_bounds(Pareto(2.0), [0.5], [1e3])
        with pytest.raises(ValueError):
            matuszewska_bounds(Pareto(2.0), [2.0], [1e3, 1e2])


class TestDominatedVariation:
    def test_power_envelope_vanishes_monotonically(self):
        # for a tail of index alpha and p = alpha + 1, x^-p / survival(x)
        # must decrease to zero along a log grid
        dist = Pareto(2.0, 1.0)
        p = 3.0
        xs = np.logspace(0.5, 6, 40)
        ratio = xs**-p / np.asarray(dist.survival(xs))
        assert np.all(np.diff(ratio) < 0)
        assert ratio[-1] < 1e-5


class TestClassTags:
    def test_catalog_assignments(self):
        assert Pareto(2.0).tags.regularly_varying
        assert Pareto(2.0).tags.consistently_varying
        w = HeavyWeibull(0.5)
        assert w.tags.subexponential and not w.tags.dominatedly_varying
        assert w.tags.positively_decreasing
        ln = Lognormal(0.0, 1.0)
        assert ln.tags.subexponential and not ln.tags.consistently_varying

    def test_matuszewska_metadata(self):
        assert Pareto(1.7).matuszewska == (1.7, 1.7)
        assert CubicSurvival().matuszewska == (3.0, 3.0)
        assert HarmonicSurvival().matuszewska == (1.0, 1.0)
        assert HeavyWeibull(0.5).matuszewska is None
        assert Lognormal(0.0, 1.0).matuszewska is None

    def test_inclusion_chain_enforced(self):
        # consistently varying without dominated variation is inconsistent
        with pytest.raises(ValueError):
            ClassTags(False, True, False, True, True, True)
        # regular variation without consistent variation is inconsistent
        with pytest.raises(ValueError):
            ClassTags(True, False, True, True, True, True)
        # dominated + long without subexponential is inconsistent
        with pytest.raises(ValueError):
            ClassTags(False, False, True, True, False, True)
        # subexponential without long tails is inconsistent
        with pytest.raises(ValueError):
            ClassTags(False, False, False, False, True, False)

    def test_bad_tags_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ClassTags(True, False, True, True, True, True)


class TestMoments:
    def test_means(self):
        assert Pareto(3.0, 1.0).mean() == pytest.approx(1.5)
        assert HeavyWeibull(0.5, 1.0).mean() == pytest.approx(2.0)
        assert CubicSurvival().mean() == pytest.approx(2 * math.pi / (3 * math.sqrt(3)))
        assert math.isinf(HarmonicSurvival().mean())
        assert math.isinf(Pareto(1.0).mean())

    def test_envelopes(self):
        c, a = Pareto(1.5, 2.0).pareto_envelope()
        xs = np.logspace(-2, 6, 50)
        assert np.all(np.asarray(Pareto(1.5, 2.0).survival(xs)) <= c * xs**-a + 1e-15)
        assert HeavyWeibull(0.5).pareto_envelope() is None
