import json
import math
import tracemalloc
import gc
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from dataclasses import dataclass, replace
from hypothesis import example, given, settings, strategies as st

from ruinflow import montecarlo
from ruinflow.dependence import ClaimModel, NoExceedanceError
from ruinflow.estimators import (
    TAIL_REL_BOUND,
    ModelSpec,
    asymptotic_entrance_finite,
    asymptotic_entrance_infinite,
    resolve_finite_mode,
    resolve_infinite_mode,
)
from ruinflow.heavy_tails import HeavyWeibull, Lognormal, Pareto
from ruinflow.montecarlo import (
    CHUNK_PATHS,
    SimConfig,
    _AggregateTask,
    _BigJumpTask,
    _Entrance,
    _Ruin,
    _big_jump_chunk,
    _candidate_cut,
    _chunk_rng,
    _exceedances,
    _run_statistics,
    _simulate_aggregate_chunk,
    empirical_entrance,
    empirical_entrance_time,
    single_big_jump_check,
    wilson_interval,
)
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
from ruinflow.rare_sets import (
    AnyLineNegative,
    HalfSpace,
    MaxExceed,
    PolyhedralUnion,
    Ray,
    WeightedSumNegative,
    contains,
    z_index,
    z_index_signed,
)
from ruinflow.ruin import PremiumSchedule, RuinModel, empirical_ruin

from oracles import entrance_time_cdf, pareto1_sum_survival, reference_endpoint


def base_spec(alpha=1.5, d=2, ret=None):
    margins = tuple(Pareto(alpha, 1.0) for _ in range(d))
    rare_set = MaxExceed(tuple([1.0] * d)) if d > 1 else Ray(1.0)
    return ModelSpec(ClaimModel.iid(margins), rare_set, Poisson(1.0),
                     ret or Deterministic(0.05))


def _workspace(task) -> np.ndarray:
    """The workspace a share of chunks reuses, sized for this one chunk."""
    return np.empty(task.workspace_floats)


class TestWilson:
    def test_bounds_and_order(self):
        lo, hi = wilson_interval(5, 100)
        assert 0.0 <= lo <= 0.05 <= hi <= 1.0

    def test_edge_counts(self):
        lo0, hi0 = wilson_interval(0, 50)
        assert lo0 == 0.0 and hi0 > 0.0
        lo1, hi1 = wilson_interval(50, 50)
        assert hi1 == 1.0 and lo1 < 1.0

    def test_impossible_counts_rejected(self):
        for count in (12, -1, math.nan, math.inf, [3, 11]):
            with pytest.raises(ValueError, match="counts must lie in"):
                wilson_interval(count, 10)

    def test_quantile_matches_scipy_ndtri(self):
        # wilson_interval takes z from the standard library (Wichura's AS241).  Against
        # 40-digit values it is within 5.5e-16 relative on this grid and Cephes ndtri within
        # 7.3e-16, so the two differ by up to 1.04e-15 (6 ulp); at 0.95, by one ulp.  The
        # upper bound at count 0 is z^2 / (n + z^2), so it moves by up to twice that.
        from scipy import special
        from statistics import NormalDist

        for level in np.linspace(0.5, 0.999, 5001):
            z = float(special.ndtri(0.5 + level / 2.0))
            assert NormalDist().inv_cdf(0.5 + level / 2.0) == pytest.approx(z, rel=2e-15, abs=0)
            hi = wilson_interval(0, 100, level)[1]
            assert hi == pytest.approx(z * z / (100 + z * z), rel=4e-15, abs=0)

    def test_coverage_at_rare_rate(self):
        # nominal 95% interval on Bernoulli(0.001) samples of size 1e5:
        # empirical coverage over 1000 replications must sit near nominal
        rng = np.random.default_rng(77)
        n, p, reps = 100_000, 0.001, 1000
        counts = rng.binomial(n, p, size=reps)
        lo, hi = wilson_interval(counts, n)
        coverage = float(((lo <= p) & (p <= hi)).mean())
        assert 0.93 <= coverage <= 0.97


class TestSimConfig:
    def test_boundary_validation(self):
        good = {"n_paths": 100, "seed": 1, "horizon": 10.0}
        for bad in ({"horizon": math.nan}, {"horizon": -1.0},
                    {"x_grid": (math.nan,)}, {"seed": -1},
                    {"n_paths": 2.5}, {"n_paths": 100.0}, {"n_paths": True},
                    {"n_workers": 1.5}, {"n_workers": True}, {"n_workers": "2"},
                    {"seed": True}, {"seed": 1.0}, {"seed": np.float64(1)}):
            with pytest.raises(ValueError):
                SimConfig(**{**good, **bad})
        assert math.isinf(SimConfig(**{**good, "horizon": math.inf}).horizon)
        numpy_ints = SimConfig(n_paths=np.int64(100), seed=np.uint32(1), horizon=10.0,
                               n_workers=np.int32(2))
        assert (numpy_ints.n_paths, numpy_ints.seed, numpy_ints.n_workers) == (100, 1, 2)


class TestReproducibility:
    def test_worker_count_invariance(self):
        spec = base_spec()
        grid = (5.0, 20.0, 100.0)
        t1 = empirical_entrance(spec, SimConfig(40_000, seed=5, horizon=10.0,
                                                x_grid=grid, n_workers=1))
        t8 = empirical_entrance(spec, SimConfig(40_000, seed=5, horizon=10.0,
                                                x_grid=grid, n_workers=8))
        for col in ("x", "p_hat", "ci_lo", "ci_hi", "count", "asymptotic", "ratio"):
            a, b = getattr(t1, col), getattr(t8, col)
            assert np.array_equal(a, b, equal_nan=True), col

    def test_chunk_schedule_invariance(self):
        # each CHUNK_PATHS-aligned chunk draws from its own (seed, chunk)
        # stream, so the whole run equals the sum of its chunk tasks run
        # separately, in any order
        spec = base_spec()
        n = 2 * CHUNK_PATHS + 1701
        entrance = _Entrance(spec.rare_set, (5.0, 50.0))
        whole = _run_statistics(spec, 10.0, SimConfig(n, seed=9, horizon=10.0), entrance)
        proto = _AggregateTask(claim=spec.claim, renewal=spec.renewal, ret=spec.ret,
                               horizon=10.0, seed=9, chunk=0, count=0, stats=(entrance,))
        total = 0
        for c in reversed(range(3)):
            task = replace(proto, chunk=c, count=min(CHUNK_PATHS, n - c * CHUNK_PATHS))
            total = total + _simulate_aggregate_chunk(task, _workspace(task))["entrance_counts"]
        assert np.array_equal(whole["entrance_counts"], total)

    def test_same_seed_same_table_different_seed_differs(self):
        spec = base_spec()
        cfg = SimConfig(20_000, seed=123, horizon=10.0, x_grid=(10.0,))
        a = empirical_entrance(spec, cfg)
        b = empirical_entrance(spec, cfg)
        c = empirical_entrance(spec, replace(cfg, seed=124))
        assert np.array_equal(a.count, b.count)
        assert not np.array_equal(a.count, c.count)


class _Sums(montecarlo._Statistic):
    # totals of the discounted claims and of the arrival counts
    def init(self, n):
        return (np.zeros(n, dtype=np.int64),)

    def step(self, state, tau, past, running, w, scratch):
        arrivals, = state
        arrivals += 2  # both slots of the loop step, less those past the horizon
        for gone in past:
            arrivals[gone] -= 1

    def finish(self, state, final):
        return {"component_sums": final.sum(axis=0),
                "arrival_count_sum": state[0].sum()}


class TestSimulateAggregate:
    def test_wald_identity_flat_discounting(self):
        # r = 0: plain compound sum; mean of each component is lam*T*E[X]
        spec = ModelSpec(ClaimModel.iid((Pareto(3.0, 1.0), Pareto(3.0, 1.0))),
                         MaxExceed((1.0, 1.0)), Poisson(1.0), Deterministic(0.0))
        n = 1_000_000
        merged = _run_statistics(spec, 5.0, SimConfig(n, seed=17, horizon=5.0), _Sums())
        mean_claim = Pareto(3.0, 1.0).mean()
        want = 5.0 * mean_claim
        # compound-Poisson variance: lam*T*E[X^2]
        var = 5.0 * 3.0
        se = math.sqrt(var / n)
        for comp in merged["component_sums"] / n:
            assert abs(comp - want) < 3 * se
        assert abs(merged["arrival_count_sum"] / n - 5.0) < 3 * math.sqrt(5.0 / n)

    def test_finish_runs_once_per_chunk_on_the_leavers_in_order(self):
        # paths leave the loop at many different steps, yet each chunk
        # finishes once, on the rows of all its paths in the order they leave
        calls = []

        class Counting(_Sums):
            def finish(self, state, final):
                calls.append((state[0].copy(), final.shape))
                return {"rows": np.int64(final.shape[0])}

        n = 2 * CHUNK_PATHS + 100
        merged = _run_statistics(base_spec(), 8.0, SimConfig(n, seed=18, horizon=8.0),
                                 Counting())
        assert [shape for _, shape in calls] == [(CHUNK_PATHS, 2), (CHUNK_PATHS, 2), (100, 2)]
        assert merged["rows"] == n
        for arrivals, _ in calls:
            # a path with N arrivals inside leaves at loop step ceil((N + 1) / 2)
            steps = (arrivals + 2) // 2
            assert np.unique(steps).size > 3
            assert np.all(np.diff(steps) >= 0)


class TestPastTheHorizon:
    """The slots past the horizon, as a loop step discounts them and hands them on."""

    def test_slots_past_the_horizon_add_nothing_where_the_discount_overflows(self):
        # xi(t) = -800 t, so e^{-xi(t)} overflows from t ~ 0.89 on: a slot past the
        # horizon 0.5 must have its factor zeroed, not multiplied by a mask (inf * 0 is NaN)
        records = []

        class LastInside(montecarlo._Statistic):
            # each path's D after its last slot inside the horizon, and its latest epoch
            def init(self, n):
                return np.zeros((n, 2)), np.zeros(n)

            def step(self, state, tau, past, running, w, scratch):
                last, latest = state
                for k, gone in enumerate(past):
                    inside = np.ones(tau.shape[1], dtype=bool)
                    inside[gone] = False
                    last[inside] = running[k, inside]
                latest[:] = tau[1]

            def finish(self, state, final):
                records.append((state[0].copy(), state[1].copy(), final.copy()))
                return {}

        spec = base_spec(ret=BrownianDrift(-800.0, 0.0))
        with np.errstate(over="ignore"):  # e^{-xi} of the slots past the horizon
            _run_statistics(spec, 0.5, SimConfig(3_000, seed=31, horizon=0.5), LastInside())
        (last, latest, final), = records
        assert (latest > 0.9).mean() > 0.5  # most paths left on a slot whose factor is inf
        assert np.isfinite(final).all()
        assert (final > 1e100).any()  # slots inside the horizon carry factors up to e^400
        assert final.tobytes() == last.tobytes()

    @pytest.mark.parametrize("horizon", [1e-6, 80.0, 10.0], ids=["all-leave", "none-leave",
                                                                  "mixed"])
    def test_past_indexes_the_slots_past_the_horizon(self, horizon):
        steps = []

        class Recording(montecarlo._Statistic):
            def step(self, state, tau, past, running, w, scratch):
                steps.append((tau.copy(), tuple(p.copy() for p in past)))

            def finish(self, state, final):
                return {}

        _run_statistics(base_spec(), horizon, SimConfig(2_000, seed=32, horizon=horizon),
                        Recording())
        for tau, past in steps:
            assert np.isin(past[0], past[1]).all()
            for row, gone in zip(tau, past):
                outside = np.zeros(row.size, dtype=bool)
                outside[gone] = True
                assert (row[outside] > horizon).all() and (row[~outside] <= horizon).all()
        sizes = [(past[0].size, past[1].size) for _, past in steps]
        if horizon == 1e-6:  # every path leaves at its first step, on both slots
            assert sizes == [(2_000, 2_000)]
        elif horizon == 80.0:  # 20 arrivals take about 20, far short of 80
            assert sizes[:10] == [(0, 0)] * 10
        else:  # some steps lose paths on slot 1 alone
            assert any(0 < p1 and p0 < p1 for p0, p1 in sizes)


class TestEmpiricalEntrance:
    def test_tiny_threshold_counts_any_arrival(self):
        # claims are bounded away from zero, so entrance at a vanishing
        # threshold happens exactly when there is at least one arrival
        spec = base_spec()
        sim = SimConfig(200_000, seed=21, horizon=10.0, x_grid=(1e-9,))
        table = empirical_entrance(spec, sim)
        want = 1.0 - math.exp(-10.0)
        se = math.sqrt(want * (1 - want) / sim.n_paths)
        assert abs(table.p_hat[0] - want) < 3 * se

    def test_zero_exceedance_rows_flagged(self):
        spec = base_spec()
        sim = SimConfig(5_000, seed=22, horizon=10.0, x_grid=(10.0, 1e9))
        table = empirical_entrance(spec, sim)
        assert table.x[table.count == 0].tolist() == [1e9]
        assert math.isnan(table.ratio[-1])
        rows = table.rows()
        assert rows[-1]["ratio"] is None

    def test_entrance_identity_contains_vs_scalarization(self):
        spec = base_spec()
        rng = np.random.default_rng(23)
        totals = np.stack([reference_endpoint(spec, 10.0, rng) for _ in range(2000)])
        for x in (5.0, 25.0):
            f1 = np.asarray(contains(spec.rare_set, x, totals)).mean()
            f2 = (z_index(spec.rare_set, totals) > x).mean()
            assert f1 == f2

    def test_engine_agrees_with_reference_sampler(self):
        # same law, different code path: engine counts vs slow per-path loop
        spec = base_spec()
        x = 15.0
        sim = SimConfig(200_000, seed=24, horizon=10.0, x_grid=(x,))
        table = empirical_entrance(spec, sim)
        rng = np.random.default_rng(25)
        n_slow = 20_000
        hits = sum(
            z_index(spec.rare_set, reference_endpoint(spec, 10.0, rng)) > x
            for _ in range(n_slow))
        p_slow = hits / n_slow
        se = math.sqrt(table.p_hat[0] * (1 - table.p_hat[0])
                       * (1 / n_slow + 1 / sim.n_paths))
        assert abs(p_slow - table.p_hat[0]) < 4 * se

    def test_infinite_horizon_is_the_largest_truncation_horizon(self):
        # a threshold deep in the tail adds no horizon: the truncation horizon of
        # 1e12 is that of 1e4, where a cancelling union survival once made it 9,332
        spec = base_spec()
        horizons = [montecarlo._gate(spec, SimConfig(100, seed=1, horizon=math.inf, x_grid=grid),
                                     False)[1]["horizon"] for grid in ((1e4,), (100.0, 1e12))]
        assert horizons[0] == horizons[1] == pytest.approx(107.5906, rel=1e-6)

    def test_csv_and_json_round_trip(self, tmp_path):
        spec = base_spec()
        table = empirical_entrance(spec, SimConfig(2_000, seed=26, horizon=10.0,
                                                   x_grid=(5.0, 1e9)))
        csv_path = tmp_path / "t.csv"
        table.to_csv(csv_path)
        header = csv_path.read_text().splitlines()[0]
        assert header == "x,p_hat,ci_lo,ci_hi,count,asymptotic,ratio"
        import json

        json_path = tmp_path / "t.json"
        table.to_json(json_path)
        rows = json.loads(json_path.read_text())
        assert rows[0]["count"] == int(table.count[0])
        assert rows[-1]["ratio"] is None


class TestEntranceTime:
    def test_endpoint_is_one(self):
        spec = base_spec(alpha=2.0, d=1)
        sim = SimConfig(100_000, seed=27, horizon=20.0, x_grid=())
        et = empirical_entrance_time(spec, 5.0, [2.0, 10.0, 20.0], sim)
        assert et.cdf[-1] == pytest.approx(1.0)
        assert np.all(np.diff(et.cdf) >= 0)

    def test_small_time_has_no_mass(self):
        spec = base_spec(alpha=2.0, d=1)
        sim = SimConfig(50_000, seed=28, horizon=20.0, x_grid=())
        et = empirical_entrance_time(spec, 5.0, [1e-9, 20.0], sim)
        assert et.cdf[0] == 0.0

    def test_empty_conditioning_signalled(self):
        spec = base_spec(alpha=2.0, d=1)
        sim = SimConfig(1_000, seed=29, horizon=20.0, x_grid=())
        with pytest.raises(NoExceedanceError):
            empirical_entrance_time(spec, 1e12, [5.0, 10.0], sim)

    def test_grid_must_fit_horizon(self):
        spec = base_spec(alpha=2.0, d=1)
        sim = SimConfig(1_000, seed=30, horizon=10.0, x_grid=())
        with pytest.raises(ValueError):
            empirical_entrance_time(spec, 5.0, [5.0, 50.0], sim)

    def test_bad_inputs_rejected(self):
        spec = base_spec(alpha=2.0, d=1)
        sim = SimConfig(2_000, seed=31, horizon=10.0, x_grid=())
        bad = [(x, [1.0, 5.0]) for x in (-5.0, 0.0, math.nan, math.inf)]
        bad += [(5.0, t) for t in ([1.0, math.nan], [-1.0, 5.0], [math.nan], [1.0, math.inf])]
        for x, t_grid in bad:
            with pytest.raises(ValueError):
                empirical_entrance_time(spec, x, t_grid, sim)


    def test_limit_column_where_the_law_applies(self):
        # the ratio psi(x, t) / psi(x, H) of the horizon integrals, present where a
        # finite-horizon mode holds at the simulated horizon H: Poisson and Erlang
        # arrivals and a zero force, not Brownian returns (unbounded below) at T = inf
        t_grid = [5.0, 10.0, 20.0]
        for renewal, ret, horizon in ((Poisson(1.0), Deterministic(0.05), 20.0),
                                      (RenewalIID(Erlang(2, 2.0)), Deterministic(0.05), 20.0),
                                      (Poisson(1.0), Deterministic(0.0), 20.0),
                                      (Poisson(1.0), BrownianDrift(0.1, 0.2), math.inf)):
            spec = ModelSpec(ClaimModel.iid((Pareto(2.0, 1.0),)), Ray(1.0), renewal, ret)
            et = empirical_entrance_time(spec, 5.0, t_grid,
                                         SimConfig(20_000, seed=32, horizon=horizon))
            admitted = resolve_finite_mode(spec, et.meta["horizon"]).mode is not None
            assert admitted == (horizon < math.inf), ret
            assert list(et.columns) == ["t", "cdf", "count"] + ["limit"] * admitted
            if admitted:
                psi = [float(asymptotic_entrance_finite(spec, 5.0, t)) for t in t_grid]
                assert et.limit.tolist() == [p / psi[-1] for p in psi]
                assert et.limit[-1] == 1.0
                assert np.all(np.diff(et.limit) >= 0) and 0.0 <= et.limit[0]

    def test_limit_column_matches_the_poisson_law(self):
        # the demo model at T = inf: psi(x, t) / psi(x, T*) is the exponential law
        # conditioned on T*, off the x -> inf law by the truncation share alone
        spec = ModelSpec(ClaimModel.iid((Pareto(2.0, 1.0),)), Ray(1.0), Poisson(1.0),
                         Deterministic(0.05))
        t_grid = [5.0, 10.0, 20.0, 40.0, 80.0]
        et = empirical_entrance_time(spec, 60.0, t_grid,
                                     SimConfig(20_000, seed=5, horizon=math.inf))
        want = np.array([entrance_time_cdf(2.0, 0.05, t) for t in t_grid])
        assert np.all(np.abs(et.limit / want - 1.0) <= TAIL_REL_BOUND)

    @pytest.mark.parametrize("claim, rare_set", [
        (ClaimModel.iid((Pareto(1.5, 1.0),) * 2),
         PolyhedralUnion((HalfSpace((0.5, 0.5), 1.0), HalfSpace((0.9, 0.1), 1.0)))),
        (ClaimModel.iid((Pareto(1.5, 1.0),) * 3), HalfSpace((0.2, 0.3, 0.5), 1.0)),
    ], ids=["union-2d", "halfspace-3d"])
    def test_sets_without_scalarized_survival_run_without_limit(self, claim, rare_set):
        spec = ModelSpec(claim, rare_set, Poisson(1.0), Deterministic(0.05))
        et = empirical_entrance_time(spec, 5.0, [5.0, 10.0], SimConfig(5_000, seed=1, horizon=10.0))
        assert list(et.columns) == ["t", "cdf", "count"] and et.meta["entered"] > 0


_ONE_LINE_RUIN = RuinModel(claim=ClaimModel.iid((Pareto(1.5, 1.0),)), renewal=Poisson(1.0),
                           ret=Deterministic(0.05), alloc=(1.0,), ruin_set=AnyLineNegative())


@pytest.mark.parametrize("horizon", [10.0, math.inf])
@pytest.mark.parametrize("front_end", [
    lambda T: empirical_entrance(base_spec(d=1), SimConfig(100, seed=1, horizon=T)),
    lambda T: empirical_ruin(_ONE_LINE_RUIN, [], T, SimConfig(100, seed=1, horizon=T)),
    lambda T: single_big_jump_check(ClaimModel.iid((Pareto(1.5, 1.0),)), Ray(1.0), (1.0, 1.0),
                                    (), SimConfig(100, seed=1, horizon=T)),
], ids=["entrance", "ruin", "single_big_jump"])
def test_empty_grid_rejected(front_end, horizon):
    with pytest.raises(ValueError, match="x grid must not be empty"):
        front_end(horizon)


class TestResultTable:
    @staticmethod
    def _ruin(sim):
        return empirical_ruin(_ONE_LINE_RUIN, (5.0, 50.0), sim.horizon, sim)

    #: every library front end, called on a small one-line model
    FRONT_ENDS = {
        "entrance": lambda sim: empirical_entrance(base_spec(d=1), replace(sim, x_grid=(5.0,))),
        "entrance infinite": lambda sim: empirical_entrance(
            base_spec(d=1), replace(sim, horizon=math.inf, x_grid=(50.0,))),
        "ruin": lambda sim: TestResultTable._ruin(sim),
        "entrance_time": lambda sim: empirical_entrance_time(base_spec(d=1), 5.0, (5.0,), sim),
        "single_big_jump": lambda sim: single_big_jump_check(
            ClaimModel.iid((Pareto(1.5, 1.0),)), Ray(1.0), (1.0, 1.0), (5.0, 50.0), sim),
    }

    @pytest.mark.parametrize("front_end", FRONT_ENDS)
    def test_meta_holds_the_common_keys(self, front_end):
        sim = SimConfig(3_000, seed=33, horizon=10.0)
        table = self.FRONT_ENDS[front_end](sim)
        assert {"mode", "horizon", "n_paths", "seed"} <= set(table.meta)
        assert (table.meta["n_paths"], table.meta["seed"]) == (3_000, 33)
        if front_end == "single_big_jump":
            assert table.meta["mode"] is None and table.meta["horizon"] is None
        else:
            assert table.meta["mode"] in ("consistent-variation", "infinite-horizon")
            want = (asymptotic_entrance_infinite(base_spec(d=1), (50.0,)).horizon.max()
                    if front_end == "entrance infinite" else 10.0)
            assert table.meta["horizon"] == want
        lengths = {len(col) for col in table.columns.values()}
        assert lengths == {len(table.rows())}

    #: the model and horizon each gated front end's gate resolves on
    GATED_ON = {"entrance": (base_spec(d=1), 10.0), "entrance infinite": (base_spec(d=1), math.inf),
                "ruin": (_ONE_LINE_RUIN.entrance_model(), 10.0),
                "entrance_time": (base_spec(d=1), 10.0)}

    @pytest.mark.parametrize("front_end", FRONT_ENDS)
    def test_meta_records_the_gate(self, front_end):
        table = self.FRONT_ENDS[front_end](SimConfig(3_000, seed=33, horizon=10.0))
        if front_end == "single_big_jump":
            assert table.meta["mode"] is None and table.meta["checks"] is None
            return
        model, horizon = self.GATED_ON[front_end]
        report = (resolve_infinite_mode(model) if math.isinf(horizon)
                  else resolve_finite_mode(model, horizon))
        assert (table.meta["mode"], table.meta["checks"]) == (report.mode, report.checks)

    def test_unsafe_failing_gate_records_no_mode(self):
        spec = ModelSpec(ClaimModel.iid((HeavyWeibull(0.5),)), Ray(1.0), Poisson(1.0),
                         BrownianDrift(0.1, 0.2))
        table = empirical_entrance(spec, SimConfig(3_000, seed=33, horizon=10.0, x_grid=(5.0,)),
                                   unsafe=True)
        assert table.meta["mode"] is None and table.meta["hypotheses_verified"] is False
        checks = table.meta["checks"]
        assert checks == resolve_finite_mode(spec, 10.0).checks
        assert not all(ok for _, ok, _ in checks)

    def test_one_formatting_rule(self, tmp_path):
        table = montecarlo.ResultTable(
            {"n": np.array([1, 2], dtype=np.int64), "v": np.array([0.5, math.nan]),
             "s": np.array(["a", "b"])}, {})
        assert table.rows() == [{"n": 1, "v": 0.5, "s": "a"}, {"n": 2, "v": None, "s": "b"}]
        assert type(table.rows()[0]["n"]) is int
        table.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text().splitlines() == ["n,v,s", "1,0.5,a", "2,,b"]
        table.to_json(tmp_path / "t.json")
        assert json.loads((tmp_path / "t.json").read_text()) == table.rows()
        with pytest.raises(AttributeError):
            table.absent


class TestCompoundPoissonEndToEnd:
    """The compound-Poisson return model runs through every experiment."""

    CLAIM = ClaimModel.iid((Pareto(1.5, 1.0),))
    RET = CompoundPoissonDrift(0.02, 0.5, ExponentialJumps(0.05))

    def spec(self):
        return ModelSpec(self.CLAIM, Ray(1.0), Poisson(1.0), self.RET)

    def test_finite_horizon_ratio_approaches_one(self):
        table = empirical_entrance(self.spec(), SimConfig(200_000, seed=41, horizon=10.0,
                                                          x_grid=(10.0, 50.0, 250.0)))
        assert table.meta["mode"] == "consistent-variation"
        assert np.all(np.diff(np.abs(table.ratio - 1.0)) < 0), table.ratio

    def test_infinite_horizon_ratio_approaches_one(self):
        table = empirical_entrance(self.spec(), SimConfig(50_000, seed=42, horizon=math.inf,
                                                          x_grid=(100.0, 400.0)))
        assert table.meta["tail_bound_rel"] < 1e-3
        assert abs(table.ratio[1] - 1.0) < abs(table.ratio[0] - 1.0), table.ratio

    def test_ruin_without_premiums_below_entrance(self):
        model = RuinModel(claim=self.CLAIM, renewal=Poisson(1.0), ret=self.RET,
                          alloc=(1.0,), ruin_set=AnyLineNegative())
        table = empirical_ruin(model, (10.0, 50.0), 10.0, SimConfig(20_000, seed=43, horizon=10.0))
        assert np.all(table.asymptotic > 0)
        assert np.all(table.meta["entrance_counts"] >= table.count)

    def test_large_jump_mean_per_gap(self):
        # rare arrivals and frequent small jumps: a gap's jump count has a mean
        # near 1,000, where exp(-mean) underflows; checked against an in-test
        # simulation of the same law
        ret = CompoundPoissonDrift(0.0, 2.0, FixedJumps(0.001))
        spec = ModelSpec(self.CLAIM, Ray(1.0), Poisson(0.002), ret)
        grid, n, horizon = (2.0, 10.0), 20_000, 1000.0
        table = empirical_entrance(spec, SimConfig(n, 1, horizon, grid), unsafe=True)
        rng = np.random.default_rng(44)
        m = 200_000
        gaps = rng.exponential(500.0, (m, 16))
        tau = np.cumsum(gaps, axis=1)
        assert tau[:, -1].min() > horizon
        xi = 0.001 * np.cumsum(rng.poisson(2.0 * gaps), axis=1)
        claims = 1.0 + rng.pareto(1.5, (m, 16))
        total = np.where(tau <= horizon, claims * np.exp(-xi), 0.0).sum(axis=1)
        for i, x in enumerate(grid):
            p = (total > x).mean()
            se = math.sqrt(p * (1 - p) / m + table.p_hat[i] * (1 - table.p_hat[i]) / n)
            assert abs(table.p_hat[i] - p) < 4 * se, (x, table.p_hat[i], p)


class TestBigJump:
    def test_single_vector_ratio_is_one(self):
        claim = ClaimModel.iid((Pareto(1.0, 1.0),))
        table = single_big_jump_check(claim, Ray(1.0), (1.0,), (10.0, 100.0),
                                      SimConfig(100_000, seed=31, horizon=1.0))
        assert np.all(table.ratio == 1.0)

    def test_two_pareto_against_convolution_oracle(self):
        claim = ClaimModel.iid((Pareto(1.0, 1.0),))
        n = 2_000_000
        xs = (100.0, 1000.0)
        table = single_big_jump_check(claim, Ray(1.0), (1.0, 1.0), xs,
                                      SimConfig(n, seed=32, horizon=1.0))
        for i, s in enumerate(xs):
            p_exact = pareto1_sum_survival(s)
            se = math.sqrt(p_exact * (1 - p_exact) / n)
            assert abs(table.sum_p[i] - p_exact) < 3 * se

    def test_exact_ratio_tends_to_one_from_above(self):
        # oracle-level property of the two-term sum: the ratio against twice
        # the marginal tail decreases to one
        ratios = [pareto1_sum_survival(s) / (2.0 / s) for s in (1e2, 1e3, 1e4, 1e5)]
        assert all(r > 1.0 for r in ratios)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_weight_homogeneity(self):
        # scaling the single weight rescales thresholds one for one
        claim = ClaimModel.iid((Pareto(1.0, 1.0),))
        t1 = single_big_jump_check(claim, Ray(1.0), (2.0,), (20.0,),
                                   SimConfig(50_000, seed=33, horizon=1.0))
        t2 = single_big_jump_check(claim, Ray(1.0), (1.0,), (10.0,),
                                   SimConfig(50_000, seed=33, horizon=1.0))
        assert np.array_equal(t1.sum_count, t2.sum_count)

    def test_grid_checked_against_config(self):
        # the grid is validated like every other, and a different grid in
        # the config is an error rather than silently dropped
        claim = ClaimModel.iid((Pareto(1.0, 1.0),))
        sim = SimConfig(100, seed=1, horizon=1.0)
        with pytest.raises(ValueError):
            single_big_jump_check(claim, Ray(1.0), (1.0,), (10.0,),
                                  replace(sim, x_grid=(20.0,)))
        for bad in ((20.0, 10.0), (math.nan,), (-1.0,)):
            with pytest.raises(ValueError):
                single_big_jump_check(claim, Ray(1.0), (1.0,), bad, sim)
        same = single_big_jump_check(claim, Ray(1.0), (1.0,), (10.0,),
                                     replace(sim, x_grid=(10.0,)))
        assert np.array_equal(same.sum_count,
                              single_big_jump_check(claim, Ray(1.0), (1.0,), (10.0,),
                                                    sim).sum_count)

    def test_validation(self):
        claim = ClaimModel.iid((Pareto(1.0, 1.0),))
        sim = SimConfig(100, seed=1, horizon=1.0)
        with pytest.raises(ValueError):
            single_big_jump_check(claim, Ray(1.0), (1.0,) * 6, (10.0,), sim)
        with pytest.raises(ValueError):
            single_big_jump_check(claim, Ray(1.0), (0.0,), (10.0,), sim)

    @pytest.mark.parametrize("d, rare_set", [(1, MaxExceed((1.0, 1.0))),
                                             (3, HalfSpace((0.5, 0.5), 1.0))],
                             ids=["1-d claims, 2-d set", "3-d claims, 2-d set"])
    def test_claim_and_set_dimensions_must_agree(self, d, rare_set):
        # rejected before any chunk runs: the cut's scalarization of a
        # 1-d vector raises IndexError on a 2-d set, and a 3-d sum only fails
        # inside a chunk, after its draw and transforms
        claim = ClaimModel.iid((Pareto(1.5, 1.0),) * d)
        with pytest.raises(ValueError, match="claim dimension does not match set dimension"):
            single_big_jump_check(claim, rare_set, (1.0,), (10.0,),
                                  SimConfig(100, seed=1, horizon=1.0))


def _strict_counts(z, x_grid):
    """Brute force: per threshold, the rows of ``z`` with ``z > x``."""
    return (z[..., None] > np.asarray(x_grid, dtype=float)).sum(axis=0)


class TestExceedances:
    """Counts of a 1-d ``z``; a 2-d case is counted column by column."""

    GRID = (-1.0, 0.0, 1.0, 2.0, 2.5, 10.0)

    @classmethod
    def assert_counts(cls, z, grid=GRID):
        for col in np.atleast_2d(z.T):
            got = _exceedances(col, grid)
            assert got.dtype == np.int64
            assert got.shape == (len(grid),)
            assert np.array_equal(got, _strict_counts(col, grid))

    @pytest.mark.parametrize("shape", [(0,), (1,), (1, 3), (2_000,), (2_000, 3)])
    def test_matches_strict_compare(self, shape):
        # values drawn from a small set that contains thresholds, so ties and
        # repeats abound, with -inf (ruin's path without an arrival inside the
        # horizon), +inf and NaN rows mixed in
        rng = np.random.default_rng(len(shape) * 10 + shape[0] % 7)
        values = np.array([-np.inf, -0.5, 0.0, 1.0, 1.5, 2.0, 2.5, 9.0, 10.0, 11.0,
                           np.inf, np.nan])
        self.assert_counts(rng.choice(values, size=shape))

    def test_special_rows(self):
        z = np.array([[-np.inf, np.inf], [np.nan, 2.0], [2.0, np.nan], [-np.inf, -np.inf]])
        self.assert_counts(z)
        # 2.0 sits on a threshold: it counts below 2 and not at 2; NaN never counts
        assert _exceedances(z[:, 0], self.GRID).tolist() == [1, 1, 1, 0, 0, 0]
        assert _exceedances(z[:, 1], self.GRID).tolist() == [2, 2, 2, 1, 1, 1]
        for z1 in (np.full(5, np.nan), np.full(5, -np.inf), np.full(5, np.inf), np.array([2.0])):
            self.assert_counts(z1)

    def test_continuous_values(self):
        z = np.random.default_rng(5).pareto(1.0, (10_001, 2))
        self.assert_counts(z, tuple(np.geomspace(0.01, 1e3, 25)))


def _big_jump_reference(task: _BigJumpTask):
    """``(z_sum, z_each)`` of one big-jump chunk by the stacked formula on the
    same chunk stream: one ``(2, d, n // 2, count)`` draw of the pairs, in
    which vector ``i`` of a path is slot ``i % 2`` of pair ``i // 2``, then,
    for odd ``n``, one ``(d, count)`` draw of the last vector, transformed as
    slot 0 of a pair whose slot 1 is a constant; all restacked as an
    ``(n, d, count)`` copy, and the weighted stack is summed over its vector
    axis.  Each value is scalarized on a ``(count, d)`` view of a ``(d, count)``
    block, the layout the chunk uses, since BLAS may round a weighted sum
    differently for row- and column-major matrices."""
    n, d = len(task.weights), task.claim.d
    half = n // 2
    rng = _chunk_rng(task.seed, task.chunk)
    claims = task.claim.claims_from_uniforms(rng.random((2, d, half, task.count)))
    stack = claims.transpose(2, 0, 1, 3).reshape(2 * half, d, task.count)
    if n % 2:
        pair = np.stack([rng.random((d, 1, task.count)), np.full((d, 1, task.count), 0.5)])
        stack = np.concatenate([stack, task.claim.claims_from_uniforms(pair)[0].transpose(1, 0, 2)])
    w = np.asarray(task.weights)
    z_sum = z_index_signed(task.rare_set, (stack * w[:, None, None]).sum(axis=0).T)
    z_each = np.stack([z_index_signed(task.rare_set, v.T) for v in stack], axis=1) * w
    return z_sum, z_each


FGM_PARETO2 = ClaimModel.fgm_chain(0.5, Pareto(2.0, 1.0))
IID_PAIR = ClaimModel.iid((Pareto(1.5, 1.0), Pareto(2.5, 1.0)))
#: (claim, set, weights) of the chunk-level big-jump checks
BIG_JUMP_CASES = {
    "iid-ray-odd": (ClaimModel.iid((Pareto(1.0, 1.0),)), Ray(2.0), (1.0, 0.5, 2.0)),
    "fgm-max-odd": (FGM_PARETO2, MaxExceed((1.0, 1.0)), (1.0, 1.0, 1.0)),
    "fgm-halfspace-zero-weight": (FGM_PARETO2, HalfSpace((0.3, 0.7), 1.0), (0.5, 0.0, 2.0, 1.0)),
    "iid-ray-single": (ClaimModel.iid((Pareto(1.0, 1.0),)), Ray(1.5), (2.0,)),
    "iid-halfspace-five": (IID_PAIR, HalfSpace((0.5, 0.5), 1.0), (1.0, 0.0, 3.0, 0.7, 1.2)),
    "iid-max-zero-weight": (IID_PAIR, MaxExceed((1.0, 2.0)), (0.0, 1.0)),
    "iid-union": (IID_PAIR, PolyhedralUnion((HalfSpace((0.5, 0.5), 1.0),
                                             HalfSpace((0.9, 0.1), 1.0))), (1.3, 0.4, 2.0)),
    "fgm+1-halfspace": (ClaimModel.fgm_chain(1.0, Pareto(2.0, 1.0)), HalfSpace((0.3, 0.7), 1.0),
                        (1.0, 0.5, 2.0)),
    "fgm-1-lognormal": (ClaimModel.fgm_chain(-1.0, Lognormal(0.0, 1.0)), MaxExceed((1.0, 2.0)),
                        (1.0, 0.5)),
    "iid-floor-zero-weight": (ClaimModel.iid((Pareto(1.5, 1.0), Pareto(3.0, 2.0))),
                              MaxExceed((1.0, 2.0)), (0.0, 1.0, 0.4)),
    "iid-halfspace-3d": (ClaimModel.iid((Pareto(1.5, 1.0), HeavyWeibull(0.5, 1.0),
                                         Pareto(2.5, 1.0))),
                         HalfSpace((0.2, 0.3, 0.5), 1.0), (1.0, 1.0, 1.0)),
    "cubic-pair": (ClaimModel.cubic_pair(), MaxExceed((1.0, 1.0)), (1.0, 0.5, 2.0)),
}


def _on_grid(task: _BigJumpTask, grid) -> _BigJumpTask:
    """``task`` on ``grid``, with the cut ``single_big_jump_check`` gives that grid."""
    return replace(task, x_grid=grid,
                   cut=_candidate_cut(task.claim, task.rare_set, task.weights, grid[0]))


def _tail_grid(z_sum, z_each, lowest):
    """Thresholds at sampled values of ``z_sum`` and ``z_each`` from ``lowest`` on, and
    one ulp below each: a one-ulp change in any sampled path's value changes a count."""
    z = np.concatenate([z_sum, z_each.ravel()])
    picks = np.concatenate([[lowest], np.sort(z[z >= lowest])[::7]])
    return tuple(np.unique(np.concatenate([picks, np.nextafter(picks, -np.inf)])))


@pytest.fixture
def transformed(monkeypatch):
    """The path count of each quantile phase run, in order."""
    seen, quantiles = [], ClaimModel.quantiles

    def record(model, v):
        seen.append(v.shape[-1])
        return quantiles(model, v)

    monkeypatch.setattr(ClaimModel, "quantiles", record)
    return seen


class TestBigJumpChunk:
    @pytest.mark.parametrize("name", list(BIG_JUMP_CASES))
    def test_counts_match_stacked_formula(self, name, transformed):
        claim, rare_set, weights = BIG_JUMP_CASES[name]
        task = _BigJumpTask(claim=claim, rare_set=rare_set, weights=weights,
                            seed=61, chunk=2, count=3001, x_grid=(), cut=math.inf)
        z_sum, z_each = _big_jump_reference(task)
        # thresholds at sampled z values and one ulp below them: a one-ulp
        # change in any sampled path's value changes a count
        picks = np.concatenate([z_sum[::300], z_each[::300].ravel()])
        grid = tuple(np.unique(np.concatenate([picks, np.nextafter(picks, -np.inf)])))
        transformed.clear()  # the reference's phases
        got = _big_jump_chunk(_on_grid(task, grid), _workspace(task))
        assert np.array_equal(got["sum_counts"], _strict_counts(z_sum, grid))
        assert np.array_equal(got["marginal_counts"], _strict_counts(z_each, grid))
        # most paths may exceed the lowest threshold: the chunk transforms them all
        assert transformed == [task.count] * (1 + len(weights) % 2)

    @pytest.mark.parametrize("name", list(BIG_JUMP_CASES))
    def test_pruned_counts_match_stacked_formula(self, name, transformed):
        # from one ulp below the sum's 99% point on, the chunk transforms only the
        # candidates of the cut, and counts what the stacked formula counts on all paths
        claim, rare_set, weights = BIG_JUMP_CASES[name]
        task = _BigJumpTask(claim=claim, rare_set=rare_set, weights=weights,
                            seed=62, chunk=1, count=3001, x_grid=(), cut=math.inf)
        z_sum, z_each = _big_jump_reference(task)
        grid = _tail_grid(z_sum, z_each, np.nextafter(np.quantile(z_sum, 0.99), -np.inf))
        pruned = _on_grid(task, grid)
        assert pruned.cut < math.inf
        transformed.clear()
        got = _big_jump_chunk(pruned, _workspace(task))
        assert np.array_equal(got["sum_counts"], _strict_counts(z_sum, grid))
        assert np.array_equal(got["marginal_counts"], _strict_counts(z_each, grid))
        # the pairs' phase, then an odd count's lone vector, on the same candidates
        assert len(transformed) == 1 + len(weights) % 2 and len(set(transformed)) == 1
        assert 0 < transformed[0] < task.count

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pruned_runs_match_stacked_formula(self, workers):
        # three chunks, the last partial, on 1, 2 and 3 workers
        claim, rare_set, weights = FGM_PARETO2, MaxExceed((1.0, 1.0)), (1.0, 0.5, 2.0, 1.0, 1.5)
        counts = (CHUNK_PATHS, CHUNK_PATHS, 700)
        refs = [_big_jump_reference(_BigJumpTask(claim=claim, rare_set=rare_set, weights=weights,
                                                 seed=63, chunk=c, count=k, x_grid=(),
                                                 cut=math.inf))
                for c, k in enumerate(counts)]
        z_sum, z_each = (np.concatenate(z) for z in zip(*refs))
        grid = _tail_grid(z_sum, z_each, np.nextafter(np.quantile(z_sum, 0.995), -np.inf))
        assert _candidate_cut(claim, rare_set, weights, grid[0]) < math.inf
        n = sum(counts)
        t = single_big_jump_check(claim, rare_set, weights, grid, SimConfig(n, 63, 1.0, (), workers))
        assert np.array_equal(t.sum_count, _strict_counts(z_sum, grid))
        assert np.array_equal(t.marginal_p_total, _strict_counts(z_each, grid).sum(axis=0) / n)

    # (sum_count, marginal_p_total * n_paths) of the first k weights on two chunks:
    # 1, 2 and 4 weights give the counts of one stacked (2, d, ceil(k/2), count)
    # draw, whose odd k left slot 1 of its last pair unread; 3 and 5 weights give
    # those of the pairs block followed by the last vector's own block
    LAYOUT_COUNTS = {1: ([380, 26, 3], [380, 26, 3]),
                     2: ([631, 41, 5], [481, 39, 4]),
                     3: ([3918, 162, 11], [1921, 133, 10]),
                     4: ([7339, 214, 14], [2340, 158, 14]),
                     5: ([14299, 346, 17], [3163, 201, 17])}

    @pytest.mark.parametrize("k", sorted(LAYOUT_COUNTS))
    def test_layout_counts(self, k):
        n_paths = CHUNK_PATHS + 2000
        t = single_big_jump_check(FGM_PARETO2, MaxExceed((1.0, 1.0)), (1.0, 0.5, 2.0, 1.0, 1.5)[:k],
                                  (10.0, 40.0, 160.0), SimConfig(n_paths, 97, 1.0))
        sums, marginals = self.LAYOUT_COUNTS[k]
        assert t.sum_count.tolist() == sums
        assert [round(p * n_paths) for p in t.marginal_p_total] == marginals

    def test_five_weights_bit_identical_across_workers(self):
        # four chunks, the last partial: both blocks of every chunk on 1, 2 and 3 workers
        sim = SimConfig(3 * CHUNK_PATHS + 500, 98, 1.0)
        one, two, three = (single_big_jump_check(FGM_PARETO2, MaxExceed((1.0, 1.0)),
                                                 (1.0, 0.5, 2.0, 1.0, 1.5), (5.0, 20.0, 80.0),
                                                 replace(sim, n_workers=w)) for w in (1, 2, 3))
        for t in (two, three):
            assert np.array_equal(t.sum_count, one.sum_count)
            assert np.array_equal(t.marginal_p_total, one.marginal_p_total)


@pytest.fixture
def shares(monkeypatch):
    """Each share one run hands out, in order, as ``(who, chunks)``: a run on more than
    one worker builds its helpers (``"helper"``) before the caller runs its own share."""
    events = []
    caller, run_block, process = os.getpid(), montecarlo._run_block, multiprocessing.Process

    def record_share(runner, tasks):
        if os.getpid() == caller:  # a forked helper runs this wrapper too
            events.append(("caller", [t.chunk for t in tasks]))
        return run_block(runner, tasks)

    def record_helper(*args, **kw):
        events.append(("helper", [t.chunk for t in kw["args"][-1]]))
        return process(*args, **kw)

    monkeypatch.setattr(montecarlo, "_run_block", record_share)
    # the engine imports ``multiprocessing`` when a run needs a helper
    monkeypatch.setattr(multiprocessing, "Process", record_helper)
    return events


def _chunks(a: int, b: int) -> list:
    return list(range(a, b))


class TestBlockedDispatch:
    # 53 chunks: contiguous shares of 26 and 27 on two workers and of 17, 18
    # and 18 on three; share k is chunks [k * 53 // n, (k + 1) * 53 // n)
    N_PATHS = 52 * CHUNK_PATHS + 999
    SHARES = [("caller", _chunks(0, 53)),
              ("helper", _chunks(26, 53)), ("caller", _chunks(0, 26)),
              ("helper", _chunks(17, 35)), ("helper", _chunks(35, 53)), ("caller", _chunks(0, 17))]

    def test_big_jump_bit_identical_across_workers(self, shares):
        grid = (5.0, 20.0, 80.0)
        tables = [single_big_jump_check(FGM_PARETO2, MaxExceed((1.0, 1.0)), (1.0, 0.5, 2.0), grid,
                                        SimConfig(self.N_PATHS, 83, 1.0, (), workers))
                  for workers in (1, 2, 3)]
        assert shares == self.SHARES
        for t in tables[1:]:
            assert np.array_equal(t.sum_count, tables[0].sum_count)
            assert np.array_equal(t.marginal_p_total, tables[0].marginal_p_total)

    def test_entrance_bit_identical_across_workers(self, shares):
        cfg = SimConfig(self.N_PATHS, 84, 0.5, (1.0, 4.0, 30.0))
        tables = [empirical_entrance(base_spec(), replace(cfg, n_workers=w)) for w in (1, 2, 3)]
        assert shares == self.SHARES
        for t in tables[1:]:
            assert np.array_equal(t.count, tables[0].count)

    def test_few_chunks_go_one_by_one(self, shares):
        # three chunks on three workers: one chunk each for the caller and two helpers
        cfg = SimConfig(2 * CHUNK_PATHS + 1, 85, 1.0, ())
        one, three = (single_big_jump_check(FGM_PARETO2, MaxExceed((1.0, 1.0)), (1.0,), (5.0,),
                                            replace(cfg, n_workers=w)) for w in (1, 3))
        assert shares == [("caller", [0, 1, 2]), ("helper", [1]), ("helper", [2]), ("caller", [0])]
        assert np.array_equal(three.sum_count, one.sum_count)


class TestWorkerCap:
    CFG = SimConfig(1_000, 86, 0.5, (1.0, 4.0, 30.0))

    def test_one_chunk_builds_no_pool(self, shares):
        one = empirical_entrance(base_spec(), self.CFG)
        three = empirical_entrance(base_spec(), replace(self.CFG, n_workers=3))
        assert shares == [("caller", [0]), ("caller", [0])]  # no helper either time
        assert np.array_equal(three.count, one.count)

    def test_pool_has_at_most_one_worker_per_chunk(self, shares):
        cfg = replace(self.CFG, n_paths=CHUNK_PATHS + 1000)
        one = empirical_entrance(base_spec(), cfg)
        eight = empirical_entrance(base_spec(), replace(cfg, n_workers=8))
        assert shares == [("caller", [0, 1]), ("helper", [1]), ("caller", [0])]
        assert np.array_equal(eight.count, one.count)


@dataclass(frozen=True)
class _ProbeTask:
    """A chunk task whose runner fails at ``fail`` (raising, or exiting the process
    at once with ``exit_code``) and sleeps through the chunks of ``slow``."""

    chunk: int = 0
    count: int = 0
    fail: int = -1
    exit_code: int = 0
    slow: tuple = ()
    workspace_floats = 0  # a class attribute, not a field: the probe needs no workspace


def _probe_chunk(task: _ProbeTask, ws: np.ndarray) -> dict:
    if task.chunk in task.slow:
        time.sleep(60.0)
    if task.chunk == task.fail:
        if task.exit_code:
            os._exit(task.exit_code)
        raise ValueError(f"chunk {task.chunk} failed")
    return {}


class TestHelperFailures:
    """A failure anywhere ends the run with an error, and no helper outlives it."""

    N_PATHS = 5 * CHUNK_PATHS  # on two workers: the caller runs chunks 0-1, the helper 2-4

    def _run(self, task: _ProbeTask):
        """The run's error, from a daemon thread with a bounded join: a helper left
        running would hang the run."""
        out = {}

        def call():
            try:
                montecarlo._run_chunks(task, _probe_chunk, self.N_PATHS, 2)
            except Exception as exc:
                out["error"] = exc

        th = threading.Thread(target=call, daemon=True)
        th.start()
        th.join(timeout=30.0)
        assert not th.is_alive(), "the run did not return"
        assert multiprocessing.active_children() == []
        return out.get("error")

    def test_helper_exception_reaches_the_caller(self):
        err = self._run(_ProbeTask(fail=3))
        assert type(err) is ValueError and str(err) == "chunk 3 failed"

    def test_helper_that_dies_unreported_raises(self):
        err = self._run(_ProbeTask(fail=2, exit_code=3))
        assert type(err) is RuntimeError and "exited with code 3" in str(err)

    def test_caller_failure_stops_the_helpers(self):
        # the helper sleeps 60 s in its first chunk: the run returns only if it is stopped
        err = self._run(_ProbeTask(fail=1, slow=(2,)))
        assert type(err) is ValueError and str(err) == "chunk 1 failed"


def _pareto_pair_ruin(premium: float) -> RuinModel:
    """Any-line ruin of two Pareto(1.5) lines under a 5% force of interest."""
    return RuinModel(claim=ClaimModel.iid((Pareto(1.5, 1.0),) * 2), renewal=Poisson(1.0),
                     ret=Deterministic(0.05), alloc=(0.5, 0.5), ruin_set=AnyLineNegative(),
                     premiums=PremiumSchedule.constant((premium, premium)))


class TestMemory:
    def test_chunk_peak_flat_in_horizon(self):
        # a path carries O(d) state and draws only while inside the horizon,
        # so the peak memory of one chunk does not grow with the horizon
        spec = ModelSpec(ClaimModel.iid((Pareto(1.5, 1.0),)), Ray(1.0), Poisson(1.0),
                         Deterministic(0.05))
        peaks = []
        for horizon in (80.0, 400.0, 2000.0):
            task = _AggregateTask(claim=spec.claim, renewal=spec.renewal, ret=spec.ret,
                                  horizon=horizon, seed=3, chunk=0, count=1024,
                                  stats=(_Entrance(spec.rare_set, (10.0, 100.0)),))
            tracemalloc.start()
            try:
                _simulate_aggregate_chunk(task, _workspace(task))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] <= 1.5 * peaks[0], peaks

    def test_ruin_peak_bounded_and_flat_in_horizon(self):
        # one chunk of ruin with premiums, in units of CHUNK_PATHS * d * 8 bytes (d = 2):
        # the block's workspace is 9 (8, and 1 of ruin scratch past the carry it reuses),
        # the ruin state with its spare and final copies 1.5, a step's scalarizations,
        # masks and indices about 2.7 (about 13.2 in all); a tenfold horizon adds none
        entrance = _Entrance(MaxExceed((1.0, 1.0)), (1.0,))
        for d in (1, 2, 3):  # an entrance-only chunk's workspace has not grown
            task = _AggregateTask(claim=ClaimModel.iid((Pareto(1.5, 1.0),) * d),
                                  renewal=Poisson(1.0), ret=Deterministic(0.05), horizon=1.0,
                                  seed=0, chunk=0, count=CHUNK_PATHS, stats=(entrance,))
            assert task.workspace_floats == (4 * d + 8) * CHUNK_PATHS
        model = _pareto_pair_ruin(0.5)
        unit = CHUNK_PATHS * 2 * 8
        peaks = []
        for T in (10.0, 100.0):
            sim = SimConfig(CHUNK_PATHS, 7, T)
            empirical_ruin(model, (20.0, 80.0, 320.0), T, sim)  # fills the caches first
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                table = empirical_ruin(model, (20.0, 80.0, 320.0), T, sim)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                del table
                gc.collect()
                left = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert left < CHUNK_PATHS, left  # no path-sized array outlives the call
        assert abs(peaks[1] / peaks[0] - 1.0) <= 0.1, peaks
        assert max(peaks) < 14 * unit, [p / unit for p in peaks]

    def test_big_jump_chunk_peak_below_two_blocks(self):
        # the chunk draws only the vectors it reads into its share's workspace,
        # one block made here outside the trace, and transforms them there: its
        # own allocations stay below one more block, and claims copied out of
        # the block, or a draw of its own, lift them past it
        task = _on_grid(_BigJumpTask(claim=FGM_PARETO2, rare_set=MaxExceed((1.0, 1.0)),
                                     weights=(1.0, 1.0, 1.0), seed=5, chunk=0,
                                     count=CHUNK_PATHS, x_grid=(), cut=math.inf),
                        (40.0, 86.2, 400.0))
        d = task.claim.d
        ws = _workspace(task)
        block = ws.nbytes
        assert block == (2 * d * 1 + d) * CHUNK_PATHS * 8  # (2, d, 3 // 2, count), (1, d, count)
        tracemalloc.start()
        try:
            _big_jump_chunk(task, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block + peak < 2 * block, peak / block


class TestThreads:
    def test_concurrent_runs_match_sequential_runs(self):
        # each share owns its workspace: two runs at once in one process, with
        # different models and seeds, give the counts they give one after the other
        def run(premium, seed):
            t = empirical_ruin(_pareto_pair_ruin(premium), (5.0, 20.0, 80.0), 10.0,
                               SimConfig(3 * CHUNK_PATHS + 500, seed, 10.0))
            return t.count.tolist(), t.meta["entrance_counts"].tolist()

        args = [(0.5, 41), (2.0, 42)]
        want = [run(*a) for a in args]
        got = [None, None]
        start = threading.Barrier(2)

        def worker(i):
            start.wait()
            got[i] = run(*args[i])

        # daemon threads and a bounded join: paths corrupted by a shared buffer may never leave
        threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
        assert not any(th.is_alive() for th in threads), "a run did not finish"
        assert got == want


@st.composite
def small_models(draw):
    """A random model with d <= 2 (an FGM chain or a cubic pair when d = 2 and
    drawn so)."""
    d = draw(st.integers(1, 2))
    margin = Pareto(draw(st.floats(1.1, 3.0)), 1.0)
    inter = draw(st.sampled_from(["iid", "fgm", "cubic"])) if d == 2 else "iid"
    if inter == "fgm":
        claim = ClaimModel.fgm_chain(draw(st.floats(-1.0, 1.0)), margin)
    elif inter == "cubic":
        claim = ClaimModel.cubic_pair()
    else:
        claim = ClaimModel.iid((margin,) * d)
    rare_set = draw(st.sampled_from(
        [MaxExceed((1.0, 2.0)), HalfSpace((0.3, 0.7), 1.0)] if d == 2 else [Ray(1.5)]))
    rate = draw(st.floats(0.3, 2.0))
    renewal = draw(st.sampled_from([Poisson(rate), RenewalIID(Erlang(2, 2.0 * rate))]))
    ret = draw(st.sampled_from([
        Deterministic(draw(st.floats(0.0, 0.1))),
        BrownianDrift(draw(st.floats(-0.05, 0.1)), draw(st.floats(0.0, 0.3))),
        CompoundPoissonDrift(0.02, draw(st.floats(0.1, 1.0)), ExponentialJumps(0.05)),
        # jump counts with means in the thousands per gap
        CompoundPoissonDrift(0.0, draw(st.floats(1e3, 1e4)), FixedJumps(1e-5)),
    ]))
    return ModelSpec(claim, rare_set, renewal, ret), draw(st.floats(0.5, 8.0))


GRID = (0.5, 2.0, 5.0, 20.0, 100.0)


class TestEngineProperties:
    @given(small_models(), st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_counts_non_increasing_in_x(self, model_horizon, seed):
        spec, horizon = model_horizon
        zero = PremiumSchedule.zero(spec.claim.d)
        merged = _run_statistics(spec, horizon, SimConfig(3_000, seed, horizon),
                                 _Entrance(spec.rare_set, GRID),
                                 _Ruin(spec.rare_set, GRID, zero, 0.0, horizon))
        for key in ("entrance_counts", "ruin_counts"):
            assert np.all(np.diff(merged[key]) <= 0), key
        # without premiums the running sums peak at the horizon
        assert np.array_equal(merged["entrance_counts"], merged["ruin_counts"])

    @given(st.integers(1, 2), st.sampled_from([AnyLineNegative(), WeightedSumNegative()]),
           st.floats(0.0, 2.0), st.booleans(), st.floats(-0.1, 0.1), st.floats(0.5, 8.0),
           st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    @example(2, WeightedSumNegative(), 2.0, True, 5e-324, 3.3, 0)  # subnormal and tiny forces
    @example(1, AnyLineNegative(), 0.5, False, -1.3e-16, 1.0, 0)
    @example(2, AnyLineNegative(), 0.5, True, 2.220446049250313e-16, 8.0, 1)
    @example(2, WeightedSumNegative(), 0.5, False, -2.220446049250313e-16, 1.0, 2)
    def test_ruin_sandwiched_by_entrance(self, d, ruin_set, premium, pieces, r, horizon, seed):
        # entrance(x) >= ruin(x) >= entrance(x + u) on shared paths, with u the
        # scalarized bound p_max * T * max(1, e^{-rT}) on the discounted premiums,
        # under a constant or a three-piece schedule and a force of either sign
        alloc = (1.0,) if d == 1 else (0.4, 0.6)
        premiums = (PremiumSchedule((0.0, 2.0, 5.0), tuple((premium * f,) * d for f in
                                                           (0.2, 1.0, 0.5)))
                    if pieces else PremiumSchedule.constant((premium,) * d))
        model = RuinModel(claim=ClaimModel.iid((Pareto(1.5, 1.0),) * d), renewal=Poisson(1.0),
                          ret=BrownianDrift(r, 0.0), alloc=alloc, ruin_set=ruin_set,
                          premiums=premiums)  # a constant force of either sign
        bound = premiums.bound * horizon * max(1.0, math.exp(-r * horizon))
        shift = float(z_index(model.mapped_set, np.full(d, bound)))
        grid = tuple(sorted(set(GRID) | {x + shift for x in GRID}))
        merged = _run_statistics(
            model.entrance_model(), horizon, SimConfig(3_000, seed, horizon),
            _Entrance(model.mapped_set, grid),
            _Ruin(model.mapped_set, grid, model.premiums, r, horizon))
        entrance, ruin = merged["entrance_counts"], merged["ruin_counts"]
        for x in GRID:
            i, j = grid.index(x), grid.index(x + shift)
            assert entrance[i] >= ruin[i] >= entrance[j]

    @given(small_models(), st.integers(0, 2**32), st.permutations(range(3)))
    @settings(max_examples=8, deadline=None)
    def test_chunk_order_does_not_matter(self, model_horizon, seed, order):
        spec, horizon = model_horizon
        n = 2 * CHUNK_PATHS + 100
        entrance = _Entrance(spec.rare_set, GRID)
        whole = _run_statistics(spec, horizon, SimConfig(n, seed, horizon), entrance)
        proto = _AggregateTask(claim=spec.claim, renewal=spec.renewal, ret=spec.ret,
                               horizon=horizon, seed=seed, chunk=0, count=0,
                               stats=(entrance,))
        total = 0
        for c in order:
            task = replace(proto, chunk=c, count=min(CHUNK_PATHS, n - c * CHUNK_PATHS))
            total = total + _simulate_aggregate_chunk(task, _workspace(task))["entrance_counts"]
        assert np.array_equal(whole["entrance_counts"], total)
