import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ruinflow.dependence import ClaimModel
from ruinflow.estimators import asymptotic_entrance_finite, mrv_closed_form
from ruinflow.heavy_tails import Pareto
from ruinflow.montecarlo import (
    SimConfig,
    _EntranceTimes,
    _Ruin,
    empirical_entrance,
)
from ruinflow.processes import BrownianDrift, Deterministic, Poisson
from ruinflow.rare_sets import (
    AnyLineNegative,
    HalfSpace,
    MaxExceed,
    Ray,
    WeightedSumNegative,
    z_index_signed,
)
from ruinflow.ruin import (
    PremiumSchedule,
    RuinModel,
    asymptotic_ruin,
    empirical_ruin,
)

from oracles import deterministic_pareto_entrance_integral


def two_line_model(premium=0.5, ret=None, ruin_set=None, alpha=1.5):
    return RuinModel(
        claim=ClaimModel.iid((Pareto(alpha, 1.0), Pareto(alpha, 1.0))),
        renewal=Poisson(1.0),
        ret=ret or Deterministic(0.05),
        alloc=(0.5, 0.5),
        ruin_set=ruin_set or AnyLineNegative(),
        premiums=PremiumSchedule.constant((premium, premium)),
    )


class TestPremiumSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            PremiumSchedule(breaks=(1.0,), rates=((0.5,),))
        with pytest.raises(ValueError):
            PremiumSchedule(breaks=(0.0,), rates=((-0.1,),))
        with pytest.raises(ValueError):
            PremiumSchedule(breaks=(0.0, 1.0), rates=((0.5,),))

    def test_bound_and_density(self):
        sched = PremiumSchedule(breaks=(0.0, 2.0), rates=((0.5, 0.1), (1.5, 0.2)))
        assert sched.bound == 1.5

    def test_flat_discount_integral_is_linear(self):
        prem = two_line_model(premium=0.7, ret=Deterministic(0.0)).premiums
        out = _step_premiums(np.array([1.0, 4.0]), prem, 0.0)
        assert np.allclose(out, [[0.7, 0.7], [2.8, 2.8]])

    def test_deterministic_integral_matches_quadrature(self):
        from scipy import integrate

        prem = THREE_PIECES
        edges = prem.breaks + (math.inf,)
        for r, t in itertools.product((0.07, -0.02), (1.0, 2.0, 3.0, 5.0, 8.0)):
            got = _step_premiums(np.array([t]), prem, r)[0]
            for j in range(2):
                # one integral per piece, each at that piece's own rate
                want = sum(
                    integrate.quad(lambda s: math.exp(-r * s) * rate[j], a, min(b, t))[0]
                    for a, b, rate in zip(edges, edges[1:], prem.rates) if a < t)
                assert got[j] == pytest.approx(want, rel=1e-10)

    def test_rejects_repeated_breaks_and_empty_rows(self):
        with pytest.raises(ValueError, match="increase"):
            PremiumSchedule(breaks=(0.0, 2.0, 2.0), rates=((0.5,), (0.5,), (0.5,)))
        with pytest.raises(ValueError, match="positive dimension"):
            PremiumSchedule.constant(())
        with pytest.raises(ValueError, match="positive dimension"):
            PremiumSchedule(breaks=(0.0, 1.0), rates=((), ()))


THREE_PIECES = PremiumSchedule(breaks=(0.0, 2.0, 5.0),
                               rates=((0.4, 0.0), (1.0, 0.3), (0.2, 0.6)))


def _discount(tau, inside, r):
    """The engine's slot discount factors ``e^{-r tau}``, zero past the horizon."""
    return np.where(inside, np.exp(-r * tau), 0.0)


def _past(inside):
    """The step's ``past`` from a ``(2, m)`` inside mask: per slot, the paths past the horizon."""
    return tuple(np.flatnonzero(~row) for row in inside)


def _step(stat, state, tau, inside, running):
    """One two-slot step of ``stat`` as the engine makes it, on NaN-filled scratch."""
    w = _discount(tau, inside, getattr(stat, "rate", 0.0))
    scratch = np.full(stat.scratch_floats(running.shape[2]) * tau.shape[1], np.nan)
    stat.step(state, tau, _past(inside), running, w, scratch)


def _step_premiums(tau, prem, r):
    """Each line's discounted premiums at the 1-d epochs ``tau``, ``(n, d)``, read back
    from one ``_Ruin.step`` on zero claims: on ``Ray(1)`` the state is minus the premium."""
    out = []
    for line in zip(*prem.rates):
        state = (np.full(tau.size, -np.inf),)
        one = PremiumSchedule(prem.breaks, tuple((p,) for p in line))
        both = np.stack([tau, tau])
        _step(_Ruin(Ray(1.0), (1.0,), one, r, math.inf), state, both, np.ones(both.shape, bool),
              np.zeros(both.shape + (1,)))
        out.append(0.0 - state[0])  # a zero premium reads +0.0, like the reference's
    return np.stack(out, axis=-1)


def _premium_from_w(tau, w, breaks, rates, r):
    """The discounted premiums of one slot, ``(n, d)``, piece by piece: from the epochs
    at ``|r| < 2**-26``, else from the discount factors ``w = e^{-r tau}`` clipped to the
    piece, with each piece's rates divided by ``r``."""
    out = np.zeros(tau.shape + (rates.shape[1],))
    edges = list(breaks) + [math.inf]
    for a, b, line in zip(edges, edges[1:], rates):
        if abs(r) < 2**-26:
            out += np.multiply.outer(np.clip(tau, a, b) - a, line)
        else:
            ea, eb = np.exp(-r * a), np.exp(-r * b)
            out += np.multiply.outer(ea - np.clip(w, min(ea, eb), max(ea, eb)), line / r)
    return out


def _loop_step(m: int, horizon: float, seed: int):
    """Random inputs of one two-slot loop step laid out as the engine lays them out:
    epochs ``(2, m)`` that straddle the premium breaks and the horizon (some exactly
    on them and one ulp to either side), the inside mask, and running sums ``(2, m, d)``
    viewed from a ``(2, d, m)`` block."""
    rng = np.random.default_rng(seed)
    tau = np.cumsum(rng.exponential(2.0, (2, m)), axis=0)
    edges = np.array([2.0, 5.0, horizon])
    tau[0, :10] = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0),
                                  np.nextafter(edges, np.inf)])
    claims = np.cumsum(rng.pareto(1.5, (2, 2, m)), axis=0)
    return tau, tau <= horizon, claims.transpose(0, 2, 1)


class TestTwoSlotStep:
    """The statistics' two-slot step against a slot-by-slot reference on the same inputs."""

    @pytest.mark.parametrize("r", [0.0, 0.07, -0.02])
    def test_premium_rows_are_the_one_slot_bytes(self, r):
        # the premiums that one step nets out, read back slot by slot, are the
        # reference's from the same discount factors, on and beside every break
        tau, inside, _ = _loop_step(999, 6.0, 11)
        inside[:] = True
        w = _discount(tau, inside, r)
        rates = np.asarray(THREE_PIECES.rates)
        for k in (0, 1):
            got = _step_premiums(tau[k], THREE_PIECES, r)
            assert got.tobytes() == _premium_from_w(tau[k], w[k], THREE_PIECES.breaks,
                                                    rates, r).tobytes()

    @pytest.mark.parametrize("rare_set", [MaxExceed((0.5, 0.5)), HalfSpace((0.3, 0.7), 1.0)],
                             ids=["max", "halfspace"])
    @pytest.mark.parametrize("r", [0.0, 0.07, -0.02])
    def test_ruin_step_bit_identical_to_per_slot(self, rare_set, r):
        self._check_ruin_step(rare_set, THREE_PIECES, r)

    @pytest.mark.parametrize("r", [0.0, 0.07, -0.02])
    def test_one_piece_ruin_step_bit_identical_to_per_slot(self, r):
        # a one-piece schedule from 0 skips its clip: the bounds hold every inside
        # slot's w, or its tau at r = 0; the reference clips
        self._check_ruin_step(MaxExceed((0.5, 0.5)), PremiumSchedule.constant((0.5, 0.8)), r)

    @staticmethod
    def _check_ruin_step(rare_set, prem, r):
        tau, inside, running = _loop_step(999, 6.0, 12)
        w = _discount(tau, inside, r)
        if r:  # discount factors on the clip bounds themselves and one ulp beside them
            bounds = np.exp(-r * np.array([2.0, 5.0]))
            w[1, :6] = np.concatenate([bounds, np.nextafter(bounds, 0.0),
                                       np.nextafter(bounds, 9.0)])
            inside[1, :6] = True
        rates = np.asarray(prem.rates)
        start = np.where(np.arange(999) % 3 == 0, -np.inf, np.linspace(-5.0, 40.0, 999))
        want = start.copy()
        for k in (0, 1):  # the step slot by slot
            net = running[k] - _premium_from_w(tau[k], w[k], prem.breaks, rates, r)
            z = np.where(inside[k], z_index_signed(rare_set, net), -np.inf)
            np.maximum(want, z, out=want)
        got = (start.copy(),)
        stat = _Ruin(rare_set, (1.0,), prem, r, math.inf)
        scratch = np.full(stat.scratch_floats(2) * 999, np.nan)
        stat.step(got, tau, _past(inside), running, w, scratch)
        assert got[0].tobytes() == want.tobytes()
        assert not np.array_equal(got[0], start)  # the step moved some paths

    @pytest.mark.parametrize("rare_set", [MaxExceed((0.5, 0.5)), HalfSpace((0.3, 0.7), 1.0)],
                             ids=["max", "halfspace"])
    def test_entrance_time_step_bit_identical_to_per_slot(self, rare_set):
        tau, inside, running = _loop_step(999, 6.0, 13)
        start = np.where(np.arange(999) % 4 == 0, np.linspace(0.0, 6.0, 999), np.inf)
        want = start.copy()
        for k in (0, 1):
            hit = inside[k] & (z_index_signed(rare_set, running[k]) > 8.0)
            np.minimum(want, np.where(hit, tau[k], np.inf), out=want)
        got = (start.copy(),)
        _step(_EntranceTimes(rare_set, 8.0, (1.0,)), got, tau, inside, running)
        assert got[0].tobytes() == want.tobytes()
        assert np.isfinite(got[0]).sum() > np.isfinite(start).sum()  # some paths entered


class TestTinyForce:
    """Premiums at forces so small that the closed form in ``w`` would cancel."""

    @pytest.mark.parametrize("r", [5e-324, -5e-324, 2.220446049250313e-16,
                                   -2.220446049250313e-16, 1e-15])
    def test_tiny_force_nets_the_undiscounted_premiums(self, r):
        # e^{-r a} - w cancels below |r| = 2**-26 (and rate / r overflows at a
        # subnormal r): the step integrates from the epochs, as at r = 0
        tau = _loop_step(999, 6.0, 14)[0].ravel()
        got = _step_premiums(tau, THREE_PIECES, r)
        assert np.isfinite(got).all()
        assert got.tobytes() == _step_premiums(tau, THREE_PIECES, 0.0).tobytes()

    @pytest.mark.parametrize("prem", [THREE_PIECES, PremiumSchedule.constant((0.5, 0.8))],
                             ids=["three", "one"])
    @pytest.mark.parametrize("r", [1e-9, 2**-26 * (1 - 2**-40), 2**-26, 3e-8, 1e-6])
    def test_premiums_near_the_tiny_force_switch(self, prem, r):
        # on either side of the switch the error is about 1e-8 * rate * max(1, t^2)
        tau = np.concatenate([np.geomspace(1e-3, 50.0, 400), _loop_step(999, 6.0, 14)[0].ravel()])
        edges = prem.breaks + (math.inf,)
        for f in (r, -r):  # each piece as e^{-f a} (1 - e^{-f s}) / f, with no cancellation
            want = sum(np.multiply.outer(-np.expm1(-f * (np.clip(tau, a, b) - a)) / f,
                                         math.exp(-f * a) * np.asarray(rate))
                       for a, b, rate in zip(edges, edges[1:], prem.rates))
            err = np.abs(_step_premiums(tau, prem, f) - want) / np.maximum(1.0, tau**2)[:, None]
            assert err.max() < 1e-8 * prem.bound, (f, err.max())


class TestEmpiricalRuin:
    def test_sandwich_and_monotonicity(self):
        model = two_line_model(premium=0.5)
        T = 10.0
        grid = (10.0, 30.0, 100.0)
        sim = SimConfig(50_000, seed=41, horizon=T, x_grid=())
        table = empirical_ruin(model, grid, T, sim)
        # coupled paths: ruin is sandwiched by entrance at x and at x + shift
        assert np.all(table.meta["entrance_counts"] >= table.count)
        assert np.all(np.diff(table.count) <= 0)

    def test_zero_premium_ruin_equals_entrance(self):
        model = two_line_model(premium=0.0)
        grid = (5.0, 20.0)
        sim = SimConfig(30_000, seed=42, horizon=10.0, x_grid=())
        table = empirical_ruin(model, grid, 10.0, sim)
        # without premiums the running net claims peak at the endpoint:
        # claims only accumulate, so ruin by T equals final entrance
        assert np.array_equal(table.count, table.meta["entrance_counts"])

    def test_meta_matches_entrance_on_mapped_set(self):
        # ruin is read through the entrance gate, so the table reports the
        # same asymptotic mode and the same unsafe watermark
        model = two_line_model(premium=0.0)
        sim = SimConfig(2_000, seed=47, horizon=10.0, x_grid=(10.0,))
        entrance = empirical_entrance(model.entrance_model(), sim)
        for unsafe in (False, True):
            table = empirical_ruin(model, (10.0,), 10.0, sim, unsafe=unsafe)
            assert table.meta["mode"] == entrance.meta["mode"]
            assert table.meta.get("hypotheses_verified", True) is not unsafe

    def test_huge_capital_rows_flagged(self):
        model = two_line_model()
        sim = SimConfig(2_000, seed=43, horizon=10.0, x_grid=())
        table = empirical_ruin(model, (1e9,), 10.0, sim)
        assert table.x[table.count == 0].tolist() == [1e9]

    def test_ruin_set_column_present(self, tmp_path):
        model = two_line_model(ruin_set=WeightedSumNegative())
        sim = SimConfig(2_000, seed=44, horizon=10.0, x_grid=())
        table = empirical_ruin(model, (10.0,), 10.0, sim)
        assert table.ruin_set.tolist() == ["sum"]
        p = tmp_path / "ruin.csv"
        table.to_csv(p)
        assert p.read_text().splitlines()[0] == \
            "x,p_hat,ci_lo,ci_hi,count,asymptotic,ratio,ruin_set"

    def test_premiums_with_degenerate_brownian_returns(self):
        # sigma = 0 makes xi(t) = mu t, a constant force of interest, so premiums
        # accrue; D never falls, and the premiums discounted to time zero are at
        # most p T per line, so z(net) >= z(D(T)) - p T / l, with l the allocation
        p, T = 0.5, 10.0
        shift = p * T / 0.5
        model = two_line_model(premium=p, ret=BrownianDrift(0.05, 0.0))
        grid = (10.0, 20.0, 30.0, 40.0, 80.0, 90.0)
        table = empirical_ruin(model, grid, T, SimConfig(50_000, seed=48, horizon=T))
        entrance = table.meta["entrance_counts"]
        assert np.all(entrance >= table.count)
        for i, x in enumerate(grid):
            if x + shift in grid:
                assert table.count[i] >= entrance[grid.index(x + shift)]
        assert np.any(table.count < entrance)  # the premiums did reach the ruin counts

    def test_premiums_with_stochastic_returns_rejected(self):
        model = two_line_model(ret=BrownianDrift(0.1, 0.2))
        sim = SimConfig(1_000, seed=45, horizon=10.0, x_grid=())
        with pytest.raises(NotImplementedError):
            empirical_ruin(model, (10.0,), 10.0, sim, unsafe=True)

    def test_grid_and_horizon_given_once(self):
        # sim's horizon and a nonempty sim grid must agree with T and x_grid, not be
        # overwritten by them
        model, sim = two_line_model(), SimConfig(1_000, seed=49, horizon=10.0)
        with pytest.raises(ValueError, match="horizon"):
            empirical_ruin(model, (10.0,), 20.0, sim)
        with pytest.raises(ValueError, match="x_grid"):
            empirical_ruin(model, (10.0,), 10.0, replace(sim, x_grid=(20.0,)))
        same = empirical_ruin(model, (10.0,), 10.0, replace(sim, x_grid=(10.0,)))
        assert same.count.tolist() == empirical_ruin(model, (10.0,), 10.0, sim).count.tolist()

    def test_pieces_past_the_horizon_under_a_negative_force(self):
        # a piece starting past the horizon once made e^{-r a} overflow at r < 0, and
        # inf - inf turned every premium into NaN and every count into 0
        def counts(premiums):
            model = RuinModel(claim=ClaimModel.iid((Pareto(1.5, 1.0),)), renewal=Poisson(1.0),
                              ret=BrownianDrift(-0.02, 0.0), alloc=(1.0,),
                              ruin_set=AnyLineNegative(), premiums=premiums)
            return empirical_ruin(model, (5.0, 20.0), 10.0, SimConfig(2_000, seed=1, horizon=10.0)
                                  ).count.tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            late = counts(PremiumSchedule((0.0, 40_000.0), ((0.5,), (0.5,))))
        assert late == counts(PremiumSchedule.constant((0.5,))) == [1936, 1085]


class TestScaleInsensitivity:
    def test_ruin_indicator_homogeneous(self):
        # multiplying the surplus by a positive constant and the capital
        # alike leaves the ruin indicator unchanged (the ruin sets are
        # cones); equivalently the mapped-set scalarization is homogeneous
        rng = np.random.default_rng(46)
        model = two_line_model()
        net = rng.normal(size=(500, 2)) * 5.0
        z = z_index_signed(model.mapped_set, net)
        for c in (0.3, 7.0):
            zc = z_index_signed(model.mapped_set, c * net)
            assert np.allclose(zc, c * z)
            assert np.array_equal(zc > c * 20.0, z > 20.0)


class TestAsymptoticRuin:
    def test_delegates_to_mapped_entrance(self):
        model = two_line_model(premium=0.0)
        entrance = model.entrance_model()
        assert entrance.rare_set == MaxExceed((0.5, 0.5))
        x, T = 50.0, 10.0
        assert asymptotic_ruin(model, x, T).value == \
            pytest.approx(asymptotic_entrance_finite(entrance, x, T).value)

    def test_classical_one_dimensional_tail_integral(self):
        model = RuinModel(
            claim=ClaimModel.iid((Pareto(1.0, 1.0),)),
            renewal=Poisson(1.0), ret=Deterministic(0.05),
            alloc=(1.0,), ruin_set=AnyLineNegative(),
            premiums=PremiumSchedule.constant((0.2,)))
        assert model.mapped_set == Ray(1.0)
        x, T = 100.0, 10.0
        want = deterministic_pareto_entrance_integral(1.0, 1.0, 1.0, 0.05, x, T)
        assert asymptotic_ruin(model, x, T).value == pytest.approx(want, rel=1e-4)

    def test_mrv_mode_equals_closed_form_with_mapped_set(self):
        model = two_line_model(alpha=2.0)
        spec = model.entrance_model()
        x = float(Pareto(2.0).quantile(1e-6))
        got = asymptotic_ruin(model, x, 10.0).value
        want = mrv_closed_form(spec, x, 10.0)
        assert got == pytest.approx(want, rel=0.02)

    def test_infinite_horizon_premium_gate(self):
        ok = two_line_model(ret=Deterministic(0.05))
        est = asymptotic_ruin(ok, 500.0, math.inf)
        assert est.tail_bound_rel < 1e-3
        bad = RuinModel(
            claim=ClaimModel.iid((Pareto(1.5), Pareto(1.5))),
            renewal=Poisson(1.0), ret=Deterministic(0.0),
            alloc=(0.5, 0.5), ruin_set=AnyLineNegative(),
            premiums=PremiumSchedule.constant((0.5, 0.5)))
        from ruinflow.estimators import HypothesisError

        with pytest.raises(HypothesisError):
            asymptotic_ruin(bad, 500.0, math.inf)

    def test_zero_premium_stochastic_infinite_allowed(self):
        model = two_line_model(premium=0.0, ret=BrownianDrift(0.1, 0.2))
        est = asymptotic_ruin(model, 500.0, math.inf)
        assert est.value > 0
