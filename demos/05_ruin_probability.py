#!/usr/bin/env python3
"""Multi-line ruin probabilities and their entrance-probability equivalents.

Ruin of a d-line book with allocated capital is the entrance of the net
discounted claim process into a scaled target set, so the ruin table reuses
the entrance asymptotics on the mapped set.  On shared simulated paths the
ruin frequency is sandwiched between the endpoint entrance frequency and a
premium-shifted one, a coupling this script prints directly.
"""

import math

import numpy as np

from ruinflow import (
    AnyLineNegative,
    ClaimModel,
    Deterministic,
    Pareto,
    Poisson,
    PremiumSchedule,
    RuinModel,
    SimConfig,
    WeightedSumNegative,
    asymptotic_ruin,
    empirical_ruin,
)

model = RuinModel(
    claim=ClaimModel.iid((Pareto(1.5, 1.0), Pareto(1.5, 1.0))),
    renewal=Poisson(1.0),
    ret=Deterministic(0.05),
    alloc=(0.5, 0.5),
    ruin_set=AnyLineNegative(),
    premiums=PremiumSchedule.constant((0.5, 0.5)),
)
print("ruin set:", model.ruin_set.name, " mapped target set:", model.mapped_set)

T = 10.0
grid = tuple(np.geomspace(20, 640, 6).round(1))
sim = SimConfig(n_paths=400_000, seed=11, horizon=T, x_grid=())
table = empirical_ruin(model, grid, T, sim)
print(f"mode: {table.meta['mode']}, ruin set column: {table.ruin_set[0]}")

print(f"\n{'capital':>8s} {'ruin p_hat':>11s} {'asymptotic':>11s} {'ratio':>7s} "
      f"{'entrance count':>15s} {'ruin count':>11s}")
for row, ec in zip(table.rows(), table.meta["entrance_counts"]):
    ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
    print(f"{row['x']:8.1f} {row['p_hat']:11.3e} {row['asymptotic']:11.3e} {ratio:>7s} "
          f"{ec:15d} {row['count']:11d}")
print("(ruin counts never exceed the coupled endpoint-entrance counts)")

print("\n== or-ruin vs sum-ruin ==")
for ruin_set in (AnyLineNegative(), WeightedSumNegative()):
    m = RuinModel(claim=model.claim, renewal=model.renewal, ret=model.ret,
                  alloc=model.alloc, ruin_set=ruin_set, premiums=model.premiums)
    x = 100.0
    print(f"  psi_{ruin_set.name:3s}(x={x:g}, T={T:g}) ~ {asymptotic_ruin(m, x, T).value:.3e}"
          f"   infinite horizon: {asymptotic_ruin(m, x, math.inf).value:.3e}")
