#!/usr/bin/env python3
"""Empirical entrance probabilities against the first-order approximation.

The discounted aggregate claim vector enters x*A, for large x, about as
often as a single discounted claim does, integrated over the arrival
measure.  This script simulates the two-line reference model at a modest
path count and prints the empirical-vs-asymptotic table; the ratio column
drifts toward one as x grows into the tail.

The same machinery refuses to produce an asymptotic column when the model
violates every hypothesis set; the unsafe flag exists for exploration.
"""

import math

import numpy as np

from ruinflow import (
    BrownianDrift,
    ClaimModel,
    Deterministic,
    HalfSpace,
    HypothesisError,
    HeavyWeibull,
    ModelSpec,
    Pareto,
    Poisson,
    Ray,
    SimConfig,
    empirical_entrance,
)

spec = ModelSpec(
    claim=ClaimModel.fgm_chain(0.5, Pareto(1.5, 1.0)),
    rare_set=HalfSpace(l=(0.5, 0.5), b=1.0),
    renewal=Poisson(1.0),
    ret=Deterministic(0.05),
)
sim = SimConfig(n_paths=1_000_000, seed=42, horizon=10.0,
                x_grid=tuple(np.geomspace(20, 800, 8).round(1)))
table = empirical_entrance(spec, sim)
# every experiment returns the same table: named columns plus run metadata
print(f"mode: {table.meta['mode']}, horizon {table.meta['horizon']:g}, "
      f"{table.meta['n_paths']:,} paths, seed {table.meta['seed']}")
print(f"\n{'x':>8s} {'p_hat':>10s} {'ci_lo':>10s} {'ci_hi':>10s} "
      f"{'count':>8s} {'asymptotic':>11s} {'ratio':>7s}")
for row in table.rows():
    ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "   -"
    print(f"{row['x']:8.1f} {row['p_hat']:10.3e} {row['ci_lo']:10.3e} "
          f"{row['ci_hi']:10.3e} {row['count']:8d} {row['asymptotic']:11.3e} {ratio:>7s}")

print("\n== infinite horizon with risky investments ==")
spec_inf = ModelSpec(ClaimModel.iid((Pareto(1.5, 1.0),)), Ray(1.0),
                     Poisson(1.0), BrownianDrift(0.1, 0.2))
sim_inf = SimConfig(n_paths=500_000, seed=43, horizon=math.inf,
                    x_grid=(100.0, 400.0, 1600.0))
table_inf = empirical_entrance(spec_inf, sim_inf)
print(f"truncation horizon {table_inf.meta['horizon']:.1f}, "
      f"tail bound {table_inf.meta['tail_bound_rel']:.2e} relative")
for row in table_inf.rows():
    ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
    print(f"  x={row['x']:7.0f}  p_hat={row['p_hat']:.3e}  "
          f"asymptotic={row['asymptotic']:.3e}  ratio={ratio}")

print("\n== the hypothesis gate ==")
bad = ModelSpec(ClaimModel.iid((HeavyWeibull(0.5),)), Ray(1.0),
                Poisson(1.0), BrownianDrift(0.1, 0.2))
try:
    empirical_entrance(bad, SimConfig(1000, seed=1, horizon=10.0, x_grid=(10.0,)))
except HypothesisError as exc:
    print("refused:", exc)
