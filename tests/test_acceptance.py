"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The first-order entrance/ruin approximations are limit statements, so the
checks here are oracle- and property-based at desk scale (N = 1e7 paths for
the statistical criteria).  Every expected value is either exact, derived
from an independent oracle computed in this module or in ``oracles.py``, or
a fixed tolerance stated up front.

Two criteria test a limit law whose finite-level corrections, at the
deepest level crude Monte Carlo reaches (entrance probability ~1e-4), are
far larger than the stated windows: the Weibull-tailed finite-horizon ratio
(criterion 6, ratio ~9 at p ~ 2e-4) and the entrance-time limit law
(criterion 9, sup distance ~0.1 at x = 316).  Each makes two checks against
a conditional Monte Carlo oracle (Asmussen-Kroese, in ``oracles.py``) that
reaches probabilities down to 1e-88: (a) the engine's crude estimate agrees
with the oracle at the crude-MC level, and (b) the library's limit agrees
with the oracle, at the stated window, at a deep level fixed in advance from
the docstring's own correction analysis.
"""

import math
import os
import time

import numpy as np

from ruinflow.dependence import ClaimModel, fgm_joint_survival, qai_ratio, rd_violation_ratio
from ruinflow.estimators import (
    ModelSpec,
    asymptotic_entrance_finite,
    mrv_closed_form,
    resolve_finite_mode,
    resolve_infinite_mode,
)
from ruinflow.heavy_tails import HeavyWeibull, Pareto
from ruinflow.montecarlo import (
    SimConfig,
    empirical_entrance,
    empirical_entrance_time,
    single_big_jump_check,
)
from ruinflow.processes import BrownianDrift, Deterministic, Poisson
from ruinflow.rare_sets import AnyLineNegative, HalfSpace, MaxExceed, Ray, contains, z_index
from ruinflow.ruin import PremiumSchedule, RuinModel, empirical_ruin

from oracles import (
    entrance_time_conditional_mc,
    fgm_entrance_conditional_mc,
    grid_search_scalarization,
    pareto1_sum_survival,
)
from test_rare_sets import random_set

N_FULL = 10_000_000
#: paths of the conditional Monte Carlo oracles (criteria 6 and 9)
N_ORACLE = 100_000
#: engine rows are compared with an oracle when they hold this many exceedances
MIN_COUNT = 100
WORKERS = max(1, min(8, os.cpu_count() or 1))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def reference_model(margin) -> ModelSpec:
    return ModelSpec(
        ClaimModel.fgm_chain(0.5, margin),
        HalfSpace(l=(0.5, 0.5), b=1.0),
        Poisson(1.0),
        Deterministic(0.05),
    )


def largest_feasible(table, level=1e-4):
    """Index of the largest grid threshold whose empirical rate stays above
    the target level."""
    idx = np.flatnonzero(table.p_hat >= level)
    assert idx.size >= 3, "grid does not reach the target level with margin"
    return int(idx[-1])


def test_criterion_01_rare_set_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        rare_set = random_set(rng)
        z = rng.uniform(0.0, 4.0, rare_set.dim)
        got = z_index(rare_set, z)
        want = grid_search_scalarization(rare_set, z, step=1e-4)
        worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - t0
    ok = worst <= 1.1e-4 and elapsed < 10.0
    report(1, ok, f"1000 scalarizations vs grid-search oracle: max |diff| = "
                  f"{worst:.2e} (tol 1e-4), elapsed {elapsed:.1f}s (< 10s)")


def test_criterion_02_scalarization_identity():
    rng = np.random.default_rng(1002)
    mismatches = 0
    total = 0
    while total < 100_000:
        rare_set = random_set(rng)
        z = rng.uniform(0.0, 5.0, (5000, rare_set.dim))
        x = float(rng.uniform(0.2, 4.0))
        mismatches += int(np.count_nonzero(
            np.asarray(contains(rare_set, x, z)) != (z_index(rare_set, z) > x)))
        total += z.shape[0]
    report(2, mismatches == 0,
           f"membership vs scalarization over {total} vectors: {mismatches} mismatches")


def test_criterion_03_fgm_analytics():
    theta = 0.5
    g = Pareto(2.0, 1.0)
    model = ClaimModel.fgm_chain(theta, g)
    n_pairs = 1_000_000
    rng = np.random.default_rng(1003)
    seq = model.sample_sequence(2 * n_pairs, rng).reshape(n_pairs, 4)
    levels = [float(g.quantile(q)) for q in (0.7, 0.5, 0.3)]
    worst_sigma = 0.0
    for xv in levels:
        for yv in levels:
            p = float(fgm_joint_survival(theta, g, xv, xv, yv, yv))
            hit = ((seq[:, 0] > xv) & (seq[:, 1] > xv)
                   & (seq[:, 2] > yv) & (seq[:, 3] > yv)).mean()
            sigma = math.sqrt(p * (1 - p) / n_pairs)
            worst_sigma = max(worst_sigma, abs(hit - p) / sigma)
    factorizes = True
    for args in ((1.0, 2.0, 3.0, 4.0), (0.5, 0.5, 0.5, 0.5), (2.0, 7.0, 1.0, 9.0)):
        prod = float(np.prod([g.survival(np.asarray(a)) for a in args]))
        factorizes &= float(fgm_joint_survival(0.0, g, *args)) == prod
    ok = worst_sigma < 3.0 and factorizes
    report(3, ok, f"joint survival on 3x3 grid at N=1e6: worst deviation "
                  f"{worst_sigma:.2f} sigma (< 3); theta=0 factorization exact: {factorizes}")


def test_criterion_04_cubic_pair_diagnostics():
    t0 = time.monotonic()
    model = ClaimModel.cubic_pair()
    target = MaxExceed((1.0, 1.0))
    rd_vals = [rd_violation_ratio(model, target, float(x)) for x in np.logspace(1, 6, 40)]
    q2 = qai_ratio(model, target, 1e2)
    q3 = qai_ratio(model, target, 1e3)
    elapsed = time.monotonic() - t0
    ok = min(rd_vals) >= 0.75 and q3 < q2 and q3 < 0.01 and elapsed < 1.0
    report(4, ok, f"conditional-exceedance ratio >= {min(rd_vals):.3f} (limit 3/4) on x >= 10; "
                  f"joint ratio {q2:.2e} -> {q3:.2e} (< 0.01); elapsed {elapsed:.2f}s (< 1s)")


def test_criterion_05_main_convergence_reference_model():
    spec = reference_model(Pareto(1.5, 1.0))
    assert resolve_finite_mode(spec, 10.0).mode == "consistent-variation"
    grid = tuple(np.geomspace(60.0, 2400.0, 12).round(1))
    sim = SimConfig(N_FULL, seed=2005, horizon=10.0, x_grid=grid, n_workers=WORKERS)
    t0 = time.monotonic()
    table = empirical_entrance(spec, sim)
    elapsed = time.monotonic() - t0
    idx = largest_feasible(table)
    ratio = float(table.ratio[idx])
    window = table.ratio[idx - 2: idx + 1]
    spread = float(window.max() - window.min())
    ok = 0.85 <= ratio <= 1.15 and spread < 0.1 and elapsed < 600.0
    report(5, ok, f"x={table.x[idx]:g} (p_hat={table.p_hat[idx]:.2e}): "
                  f"ratio {ratio:.3f} in [0.85, 1.15]; final-three spread {spread:.3f} (< 0.1); "
                  f"elapsed {elapsed:.0f}s on {WORKERS} worker(s)")


def test_criterion_06_subexponential_mode_weibull():
    """Same harness with Weibull-tailed claims in the monotone-returns mode.

    For survival exp(-sqrt(x)) the single-big-jump regime opens only when
    the mean of the remaining discounted sum is negligible against the
    curvature scale: the leading correction factor is
    ``exp(m_T / (2 sqrt(2x)))`` with ``m_T = 2 * integral_0^10 e^{-0.05 s} ds
    = 15.7`` the mean discounted scalarized aggregate.  At the largest
    threshold crude Monte Carlo reaches with 1e7 paths (x = 78.8, entrance
    rate ~2e-4) the ratio to the first-order asymptotic is ~9; the
    conditional Monte Carlo oracle follows it down: ~2.8 at x = 200, ~1.47 at
    1e3, ~1.20 at 4e3 (p ~ 1.5e-39) and ~1.08 at 2e4 (p ~ 6e-88), with
    relative standard errors below 0.6% on 1e5 paths.

    (a) Every engine row with at least 100 exceedances lies within 4
    combined standard errors of the oracle at the same threshold.
    (b) The level is fixed where the correction factor is at most 1.05
    (x >= 1.3e4, so x = 2e4): there ``oracle / asymptotic`` lies in the
    stated window [0.8, 1.2], and it decreases along 2e2, 1e3, 4e3, 2e4.
    """
    spec = reference_model(HeavyWeibull(0.5, 1.0))
    assert resolve_finite_mode(spec, 10.0).mode == "subexponential-monotone"
    T, r = 10.0, 0.05
    grid = tuple(np.geomspace(25.0, 140.0, 10).round(1))
    deep = np.array([2e2, 1e3, 4e3, 2e4])
    m_T = HeavyWeibull(0.5, 1.0).mean() * (1.0 - math.exp(-r * T)) / r
    assert math.exp(m_T / (2.0 * math.sqrt(2.0 * deep[-1]))) <= 1.05
    sim = SimConfig(N_FULL, seed=2006, horizon=T, x_grid=grid, n_workers=WORKERS)
    table = empirical_entrance(spec, sim)
    p_or, se_or = fgm_entrance_conditional_mc(
        spec.claim, 0.5, 1.0, r, T, np.concatenate([grid, deep]), N_ORACLE, seed=4006)

    # (a) engine against the oracle where crude Monte Carlo resolves the rate
    k = len(grid)
    rows = table.count >= MIN_COUNT
    se_engine = np.sqrt(table.p_hat * (1.0 - table.p_hat) / N_FULL)
    sigmas = np.abs(table.p_hat - p_or[:k]) / np.hypot(se_engine, se_or[:k])
    worst = float(sigmas[rows].max())
    idx = largest_feasible(table)

    # (b) the limit against the oracle at the deep levels
    ratios = p_or[k:] / asymptotic_entrance_finite(spec, np.asarray(deep), T).value
    decreasing = bool(np.all(np.diff(ratios) < 0))
    ratio = float(ratios[-1])
    ok = worst < 4.0 and decreasing and 0.8 <= ratio <= 1.2
    trail = ", ".join(f"{x:g}: {q:.3f}" for x, q in zip(deep, ratios))
    report(6, ok, f"(a) {int(rows.sum())} engine rows with >= {MIN_COUNT} exceedances within "
                  f"{worst:.2f} combined SE (< 4) of the conditional MC oracle; at "
                  f"x={table.x[idx]:g} (p_hat={table.p_hat[idx]:.2e}) ratio {table.ratio[idx]:.2f} "
                  f"(oracle {p_or[idx] / table.asymptotic[idx]:.2f}); (b) oracle/asymptotic "
                  f"{trail} (decreasing: {decreasing}); at x={deep[-1]:g} "
                  f"(p={p_or[-1]:.2e}, rel SE {se_or[-1] / p_or[-1]:.1e}) ratio {ratio:.3f} "
                  f"vs window [0.8, 1.2]")


def test_criterion_07_infinite_horizon_brownian():
    spec = ModelSpec(ClaimModel.iid((Pareto(1.5, 1.0),)), Ray(1.0),
                     Poisson(1.0), BrownianDrift(0.1, 0.2))
    gate = resolve_infinite_mode(spec)
    assert gate.mode == "infinite-horizon"
    assert ("discounted-moment summability", True, "phi(J+=1.5)=-0.105") in gate.checks
    grid = tuple(np.geomspace(300.0, 4000.0, 9).round(1))
    sim = SimConfig(N_FULL, seed=2007, horizon=math.inf, x_grid=grid, n_workers=WORKERS)
    table = empirical_entrance(spec, sim)
    idx = largest_feasible(table)
    ratio = float(table.ratio[idx])
    bound_rel = float(table.meta["tail_bound_rel"])
    ok = 0.8 <= ratio <= 1.2 and bound_rel < 1e-3
    report(7, ok, f"x={table.x[idx]:g} (p_hat={table.p_hat[idx]:.2e}): "
                  f"ratio {ratio:.3f} in [0.8, 1.2]; truncation T*={table.meta['horizon']:.1f} "
                  f"with tail bound {bound_rel:.2e} relative (< 1e-3)")


def test_criterion_08_mrv_closed_form_consistency():
    t0 = time.monotonic()
    claim = ClaimModel.iid((Pareto(1.5, 1.0), Pareto(1.5, 1.0)))
    spec = ModelSpec(claim, MaxExceed((1.0, 1.0)), Poisson(1.0), Deterministic(0.05))
    x = float(Pareto(1.5, 1.0).quantile(1e-6))
    ratio = asymptotic_entrance_finite(spec, x, 10.0).value / mrv_closed_form(spec, x, 10.0)
    elapsed = time.monotonic() - t0
    ok = 0.95 <= ratio <= 1.05 and elapsed < 1.0
    report(8, ok, f"integral/closed-form at x={x:g} (tail 1e-6): ratio {ratio:.4f} "
                  f"in [0.95, 1.05]; elapsed {elapsed:.2f}s (< 1s)")


def test_criterion_09_entrance_time_limit_law():
    """Entrance-time law against its exponential limit.

    The conditional entrance-time law at threshold x carries a finite-level
    distortion of order ``alpha*m(t)/x``, with ``m(t)`` the mean discounted
    aggregate by time t (here m(inf) = 40).  At x = 316, the largest
    threshold whose entrance mass exceeds 1e-4 under 1e7 paths (1.31e-4),
    the exact law is itself 0.097 from the limit in sup distance against the
    0.05 budget, as the conditional Monte Carlo oracle shows (the engine
    reads 0.077).  The distance falls to 0.030 at x = 1e3 and 0.0024 at
    x = 1e4 (0.0027 from the library's law below), with standard errors
    below 4e-4 on 1e5 paths.

    (a) At x = 316 the engine's conditional law lies within the DKW bound
    of its entered count (confidence 1 - 1e-3, ~0.054 at 1,305 entrances)
    of the oracle's law over the same horizon, and its entered mass within 4
    combined standard errors of the oracle's.
    (b) The library's law at x = 1e4, ``psi(x, t) / psi(x, H)`` from its
    horizon integrals over the oracle's horizon ``H`` (the column
    ``empirical_entrance_time`` reports as ``limit``), lies within the stated
    0.05 sup distance of the oracle's law there.  For these Pareto claims it
    is the exponential law of rate ``alpha*r`` conditioned on ``H``.
    """
    alpha, r = 2.0, 0.05
    margin = Pareto(alpha, 1.0)
    spec = ModelSpec(ClaimModel.iid((margin,)), Ray(1.0), Poisson(1.0), Deterministic(r))
    x, x_deep = 316.0, 1e4
    t_grid = np.arange(2.0, 21.0, 2.0)
    sim = SimConfig(N_FULL, seed=3009, horizon=math.inf, x_grid=(), n_workers=WORKERS)
    et = empirical_entrance_time(spec, x, t_grid, sim)
    entered, n_paths = et.meta["entered"], et.meta["n_paths"]
    mass = entered / n_paths
    horizon = et.meta["horizon"]
    psi = [float(asymptotic_entrance_finite(spec, x_deep, t)) for t in (*t_grid, horizon)]
    limit = np.array(psi[:-1]) / psi[-1]
    o_mass, o_mass_se, o_cdf, o_cdf_se = entrance_time_conditional_mc(
        margin, 1.0, r, horizon, (x, x_deep), t_grid, N_ORACLE, seed=4009)

    # (a) engine against the oracle at the crude-MC level
    dkw = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * entered))
    cdf_dev = float(np.abs(et.cdf - o_cdf[0]).max())
    cdf_ok = cdf_dev <= dkw + 4.0 * float(o_cdf_se[0].max())
    mass_sigma = abs(mass - o_mass[0]) / math.hypot(
        math.sqrt(mass * (1.0 - mass) / n_paths), o_mass_se[0])

    # (b) the library's limit against the oracle at the deep level
    sup_dist = float(np.abs(o_cdf[1] - limit).max())
    ok = cdf_ok and mass_sigma < 4.0 and mass >= 1e-4 and sup_dist <= 0.05
    report(9, ok, f"(a) x={x:g} (entrance mass {mass:.3e}, oracle {o_mass[0]:.3e}, "
                  f"{mass_sigma:.2f} combined SE < 4): engine law {cdf_dev:.3f} from the "
                  f"oracle's (DKW bound {dkw:.3f} on {entered} entrances); sup distance "
                  f"to the limit {np.abs(et.cdf - et.limit).max():.3f} (engine), "
                  f"{np.abs(o_cdf[0] - et.limit).max():.3f} (oracle); (b) x={x_deep:g}: oracle "
                  f"sup distance to the library's law over t=2..20 is {sup_dist:.4f} "
                  f"(SE {o_cdf_se[1].max():.1e}, tol 0.05)")


def test_criterion_10_single_big_jump():
    # two independent heavy components against the exact convolution oracle
    claim1 = ClaimModel.iid((Pareto(1.0, 1.0),))
    grid1 = tuple(np.geomspace(2e3, 3.2e4, 5).round())
    sim1 = SimConfig(N_FULL, seed=2010, horizon=1.0, x_grid=grid1, n_workers=WORKERS)
    t1 = single_big_jump_check(claim1, Ray(1.0), (1.0, 1.0), grid1, sim1)
    idx1 = int(np.flatnonzero(t1.sum_p >= 1e-4)[-1])
    x1 = float(t1.x[idx1])
    p_exact = pareto1_sum_survival(x1)
    sigma = math.sqrt(p_exact * (1 - p_exact) / N_FULL)
    dev_sigma = abs(float(t1.sum_p[idx1]) - p_exact) / sigma
    ratio1 = float(t1.ratio[idx1])

    # three FGM-linked vectors on a max-type set
    claim3 = ClaimModel.fgm_chain(0.5, Pareto(2.0, 1.0))
    grid3 = tuple(np.geomspace(40.0, 400.0, 6).round(1))
    sim3 = SimConfig(N_FULL, seed=2110, horizon=1.0, x_grid=grid3, n_workers=WORKERS)
    t3 = single_big_jump_check(claim3, MaxExceed((1.0, 1.0)), (1.0, 1.0, 1.0), grid3, sim3)
    idx3 = int(np.flatnonzero(t3.sum_p >= 1e-4)[-1])
    ratio3 = float(t3.ratio[idx3])

    ok = dev_sigma < 3.0 and 0.9 <= ratio1 <= 1.1 and 0.8 <= ratio3 <= 1.2
    report(10, ok, f"two-term sum at x={x1:g}: {dev_sigma:.2f} sigma from the exact "
                   f"convolution, ratio {ratio1:.3f} in [0.9, 1.1]; three FGM-linked "
                   f"vectors at x={t3.x[idx3]:g}: ratio {ratio3:.3f} in [0.8, 1.2]")


def test_criterion_11_ruin_sandwich():
    model = RuinModel(
        claim=ClaimModel.iid((Pareto(1.5, 1.0), Pareto(1.5, 1.0))),
        renewal=Poisson(1.0), ret=Deterministic(0.05),
        alloc=(0.5, 0.5), ruin_set=AnyLineNegative(),
        premiums=PremiumSchedule.constant((0.5, 0.5)))
    T = 10.0
    # the deterministic bound on the discounted premium vector over [0, T]
    # maps through the target-set scalarization to the capital shift u
    c_T = model.premiums.bound * math.exp(0.0) * T
    u = float(z_index(model.mapped_set, np.full(2, c_T)))
    base = np.geomspace(15.0, 400.0, 8)
    grid = tuple(sorted(set(np.round(base, 6)) | set(np.round(base + u, 6))))
    sim = SimConfig(200_000, seed=2011, horizon=T, x_grid=(), n_workers=WORKERS)
    table = empirical_ruin(model, grid, T, sim)
    entrance = dict(zip(table.x, table.meta["entrance_counts"]))
    ruin = dict(zip(table.x, table.count))
    violations = 0
    for x in np.round(base, 6):
        if not entrance[x] >= ruin[x] >= entrance[round(x + u, 6)]:
            violations += 1
    report(11, violations == 0,
           f"entrance(x) >= ruin(x) >= entrance(x+u) with u={u:g} on {base.size} "
           f"capitals over shared paths: {violations} violations")


def test_criterion_12_reproducibility_worker_invariance():
    spec = reference_model(Pareto(1.5, 1.0))
    grid = (50.0, 200.0, 800.0)
    tables = {}
    for workers in (1, 8):
        sim = SimConfig(20_000, seed=2012, horizon=10.0, x_grid=grid, n_workers=workers)
        tables[workers] = empirical_entrance(spec, sim)
    cols = ("x", "p_hat", "ci_lo", "ci_hi", "count", "asymptotic", "ratio")
    same = all(np.array_equal(getattr(tables[1], c), getattr(tables[8], c), equal_nan=True)
               for c in cols)
    # a second experiment type through the same engine
    claim = ClaimModel.iid((Pareto(1.0, 1.0),))
    bj = {w: single_big_jump_check(claim, Ray(1.0), (1.0, 1.0), (10.0, 100.0),
                                   SimConfig(20_000, seed=2112, horizon=1.0,
                                             x_grid=(), n_workers=w))
          for w in (1, 8)}
    same_bj = np.array_equal(bj[1].sum_count, bj[8].sum_count) and \
        np.array_equal(bj[1].ratio, bj[8].ratio, equal_nan=True)
    report(12, same and same_bj,
           "entrance and weighted-sum tables bit-identical across 1 vs 8 workers: "
           f"{same and same_bj}")
