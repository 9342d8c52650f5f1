#!/usr/bin/env python3
"""First-entrance times and the single-big-jump principle.

For power-tailed claims with Poisson arrivals and a constant force of
interest, the first time the discounted aggregate enters a distant target,
conditioned on ever entering, is asymptotically exponential with rate
(tail index) * (interest force).  And for a handful of weighted claim
vectors, the probability of the weighted sum entering a distant set matches
the sum of the single-vector probabilities: one big jump carries the event.
"""

import math

import numpy as np

from ruinflow import (
    ClaimModel,
    Deterministic,
    MaxExceed,
    Pareto,
    Poisson,
    Ray,
    ModelSpec,
    SimConfig,
    empirical_entrance_time,
    single_big_jump_check,
)

alpha, r = 2.0, 0.05
spec = ModelSpec(ClaimModel.iid((Pareto(alpha, 1.0),)), Ray(1.0),
                 Poisson(1.0), Deterministic(r))

print(f"== first-entrance time, limit rate alpha*r = {alpha * r:g} ==")
sim = SimConfig(n_paths=2_000_000, seed=5, horizon=math.inf, x_grid=())
x = 60.0
et = empirical_entrance_time(spec, x, np.arange(2.0, 21.0, 2.0), sim)
print(f"threshold x={x:g}, entered {et.meta['entered']} of {et.meta['n_paths']}, "
      f"horizon {et.meta['horizon']:.1f}")
# the limit column is psi(x, t) / psi(x, H), the ratio of the first-order horizon
# integrals over the simulated horizon H; here it is exponential, conditioned on H
print(f"  {'t':>4s} {'empirical cdf':>14s} {'first-order law':>18s}")
for row in et.rows():
    print(f"  {row['t']:4.0f} {row['cdf']:14.4f} {row['limit']:18.4f}")
print("(x=60 is shallow: the discounted aggregate alone averages 40, so entrance\n"
      " comes late and the empirical law lags the limit far behind; the limit holds\n"
      " only deep in the tail, where tests/test_acceptance.py checks it, criterion 9)")

print("\n== single big jump for weighted sums ==")
claim = ClaimModel.iid((Pareto(1.0, 1.0),))
grid = tuple(np.geomspace(10, 10_000, 7).round())
table = single_big_jump_check(claim, Ray(1.0), (1.0, 1.0), grid,
                              SimConfig(2_000_000, seed=6, horizon=1.0))
print(f"  {'x':>8s} {'P[sum enters]':>14s} {'sum of marginals':>17s} {'ratio':>7s}")
for row in table.rows():
    ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
    print(f"  {row['x']:8.0f} {row['sum_p']:14.3e} {row['marginal_p_total']:17.3e} {ratio:>7s}")

print("\n== three FGM-linked vectors on a max-type target ==")
claim3 = ClaimModel.fgm_chain(0.5, Pareto(2.0, 1.0))
grid3 = (20.0, 60.0, 180.0)
table3 = single_big_jump_check(claim3, MaxExceed((1.0, 1.0)), (1.0, 0.8, 0.6), grid3,
                               SimConfig(1_000_000, seed=7, horizon=1.0))
for row in table3.rows():
    ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
    print(f"  x={row['x']:6.0f}  ratio={ratio}")
