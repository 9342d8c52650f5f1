"""Write every count and asymptotic column of a ruinflow source tree to one JSON file.

Usage, from the repository root::

    python3 tools/identity_check.py OUT.json [--src DIR]

``--src`` names the ``src`` directory of the ruinflow to import (default:
this repository's).  The experiments come from this repository whatever
``--src`` says, so two source trees, say a commit and its parent, run the
same list.  The record made from this repository is committed as
``tools/identity.json``, and ``tests/test_identity.py`` regenerates and
compares it: ints, bools, text and report lines exactly, floats exactly
where the two ``environment`` blocks agree and within 8 units in the last
place where they do not.  Compare two outputs the same way: ``cmp`` holds
only between runs on one host.  The record opens with what its bits depend
on beyond the source: the numpy version and the CPU features numpy
dispatches to (its variate algorithms and float kernels), and the C library
(Python's ``math`` and ``cmath`` call its ``exp``, ``expm1`` and ``log``,
which are not correctly rounded).  It holds:

* each workload in ``perfbench/workloads.py`` (imported, never edited) at a
  little over two chunks of paths on 1 and on 2 workers, plus the big-jump
  marginal column and an entrance-time table on the same models and seeds,
  with its ``limit`` column where the table has one;
* big-jump runs, sized and recorded like the workloads, on the sets that no
  workload scalarizes (a 2-d polyhedral union and a 3-d half-space), and on
  the weight counts and models it leaves out: 1 and 5 weights on the FGM
  chain (a lone vector alone, and after two pairs), 2 and 4 (no lone last
  vector) and 3 on the cubic pair (a cubic lone vector); and two runs on grids
  of their own whose big-jump chunks transform every path: the FGM chain at
  weights (1, 0.5, 0.25) on the low grid (2, 4, 8), where most paths could
  reach the lowest threshold, and an IID pair with a ``Pareto(3, scale=2)``
  margin on (3, 12, 48), whose claim level for the lowest threshold lies
  below that margin's support;
* entrance runs at T = 10, sized and recorded like the workloads, on the
  models the workloads leave out: lognormal claims, Erlang renewals
  (``renewal_density``), compound-Poisson returns (``xi_rule``), and a
  ``Poisson(2)`` renewal with an IID ``Pareto(1.5, scale=2)`` pair (every
  workload has unit arrival rate and unit Pareto scale);
* ruin runs at T = 10, sized and recorded like the workloads, on the premium
  paths the ``ruin-premium`` workload leaves out: a three-piece schedule
  under ``Deterministic(0.07)``, a negative constant force
  (``BrownianDrift(-0.02, 0.0)``), the weighted-total ruin set (a
  ``HalfSpace`` target), one line of business (a one-threshold
  ``MaxExceed`` target), and the one-piece premiums under a ``Poisson(2)``
  renewal with an IID ``Pareto(1.5, scale=2)`` pair;
* the ``bigjump-fgm`` workload at :data:`BLOCK_CHUNKS` chunks on 1 and on 2
  workers: on 2 workers the caller runs its own share of 21 chunks and one
  helper a contiguous share of 22, the last chunk partial;
* ``mrv_closed_form`` on the regularly varying workload models (for ruin, the
  entrance model of the mapped set) at every grid point, at T = 10 and, where
  ``phi(alpha) < 0``, at T = inf;
* for ``Poisson(1)``, the same law spelled ``RenewalIID(Erlang(1, 1))``, and
  Erlang(2, 2) and Erlang(3, 1) renewals, with an IID ``Pareto(1.5)`` pair on
  ``HalfSpace((0.5, 0.5), 1)`` under ``Deterministic(0.05)``: the largest
  truncation horizon of ``asymptotic_entrance_infinite`` at x = 10, 50, 250
  (recorded as ``truncation_horizon``), and ``mrv_closed_form`` at those
  thresholds at T = 10 and T = inf;
* the pair diagnostics ``qai_ratio`` and ``rd_violation_ratio``: the cubic
  pair's analytic values at x = 10, 100, 1e3 and 1e5, and on an IID
  ``Pareto(1.5)`` pair, ``FgmChain(0.5)`` on ``Pareto(2)`` and the cubic pair,
  over ``MaxExceed((1, 1))``, ``HalfSpace((0.5, 0.5), 1)`` and
  ``MaxExceed((2, 2))`` at x = 2, 5 and 20, every ``EmpiricalRatio`` field
  from 20,000 pairs drawn by a fresh ``default_rng(11)`` per call (the cubic
  pair on the unit max-type set is analytic there too, and records its
  float);
* every ``demos/configs/*.json`` through ``cli.run`` at 2,000 paths on one
  worker, in both table formats, recording the exit code, the table's rows
  (CSV rows as their text lines, JSON rows parsed), the report without
  its ``elapsed`` line and the ``.config.json`` echo as its text lines, the
  temporary directory written as ``<tmp>``; and,
  recorded alike, ``reference_entrance.json`` with heavy-Weibull margins and
  Brownian returns, a model no finite-horizon mode admits: once as it is (a
  gate failure, exit 2) and once under ``--unsafe`` (exit 0);
  ``infinite_horizon_brownian.json`` with ``mu`` 0.05 and ``sigma`` 0.5, whose
  Laplace exponent is positive at the tail index (a gate failure, exit 2); and
  three claim blocks whose margins their dependence structure rejects (exit 3).

``--src`` accepts the trees from commit 180905c on: their entrance-time
tables give ``entered`` in ``meta``, and ``mrv_closed_form`` takes a model
as it is built, with no ``with_derived_mrv()`` step.

Each workload entry also records whether its 1- and 2-worker columns agree.
Floats are written with ``repr`` precision, so equal files mean bit-identical
columns.  The exit code is 1 when some workload's columns depend on the
worker count, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: paths per demo-config run, as in the CLI smoke test
CONFIG_PATHS = 2_000
#: call seed of every workload experiment
SEED = 20_240
#: entrance-time grid, as fractions of the horizon (or of a fixed 10 at an infinite one)
T_FRACTIONS = (0.25, 0.5, 1.0)
#: chunks of the long big-jump run: on 2 workers the caller runs chunks 0-20 (21)
#: and one helper chunks 21-42 (22), the last partial
BLOCK_CHUNKS = 43
#: workloads whose models are regularly varying, for the closed-form column
MRV_WORKLOADS = ("entrance-ref", "entrance-brownian-inf", "ruin-premium")
#: sampled pairs and seed of each Monte Carlo pair diagnostic
PAIR_N, PAIR_SEED = 20_000, 11


def _floats(a) -> list:
    return [float(v) for v in a]


def _workload_columns(w, model, n_paths: int, workers: int) -> dict:
    from ruinflow import montecarlo
    from ruinflow.montecarlo import SimConfig

    res = w.call(model, n_paths, SEED, workers)
    out = {"count": res.count.tolist()}
    if res.entrance_counts is not None:
        out["entrance_counts"] = res.entrance_counts.tolist()
    if res.asymptotic is not None:
        out["asymptotic"] = _floats(res.asymptotic)
    if w.kind == "big-jump":
        claim, rare_set = model
        t = montecarlo.single_big_jump_check(claim, rare_set, w.weights, w.x_grid,
                                             SimConfig(n_paths, SEED, 1.0, (), workers))
        out["marginal_p_total"] = _floats(t.marginal_p_total)
    elif w.kind == "entrance":
        span = w.horizon if math.isfinite(w.horizon) else 10.0
        t = montecarlo.empirical_entrance_time(
            model, w.x_grid[0], tuple(f * span for f in T_FRACTIONS),
            SimConfig(n_paths, SEED, w.horizon, (), workers))
        out["entered"] = int(t.meta["entered"])
        out["entry_time_counts"] = [row["count"] for row in t.rows()]
        if "limit" in t.columns:
            out["limit"] = _floats(t.limit)
    return out


def _big_jumps() -> dict:
    """(claim, set, weights, grid) of each extra big-jump run, built from the imported
    ruinflow; a grid of None is the workload's."""
    from ruinflow import ClaimModel, HalfSpace, MaxExceed, Pareto, PolyhedralUnion

    pair = ClaimModel.iid((Pareto(1.5, 1.0),) * 2)
    union = PolyhedralUnion((HalfSpace((0.5, 0.5), 1.0), HalfSpace((0.9, 0.1), 1.0)))
    fgm, unit_max = ClaimModel.fgm_chain(0.5, Pareto(2.0, 1.0)), MaxExceed((1.0, 1.0))
    return {"bigjump-union-2d": (pair, union, (1.0, 1.0, 1.0), None),
            "bigjump-halfspace-3d": (ClaimModel.iid((Pareto(1.5, 1.0),) * 3),
                                     HalfSpace((0.2, 0.3, 0.5), 1.0), (1.0, 1.0, 1.0), None),
            "bigjump-fgm-1w": (fgm, unit_max, (2.0,), None),
            "bigjump-fgm-2w": (fgm, unit_max, (1.0, 0.5), None),
            "bigjump-fgm-4w": (fgm, unit_max, (1.0, 0.5, 2.0, 1.0), None),
            "bigjump-fgm-5w": (fgm, unit_max, (1.0, 0.5, 2.0, 1.0, 1.5), None),
            "bigjump-cubic-3w": (ClaimModel.cubic_pair(), unit_max, (1.0, 0.5, 2.0), None),
            "bigjump-fgm-low": (fgm, unit_max, (1.0, 0.5, 0.25), (2.0, 4.0, 8.0)),
            "bigjump-iid-floor": (ClaimModel.iid((Pareto(1.5, 1.0), Pareto(3.0, 2.0))), unit_max,
                                  (1.0, 1.0, 1.0), (3.0, 12.0, 48.0))}


def _entrances() -> dict:
    """(model, grid) of each extra entrance run, built from the imported ruinflow."""
    from ruinflow import (ClaimModel, CompoundPoissonDrift, Deterministic, Erlang,
                          ExponentialJumps, HalfSpace, Lognormal, MaxExceed, ModelSpec,
                          Pareto, Poisson, RenewalIID)

    pair, half = ClaimModel.iid((Pareto(1.5, 1.0),) * 2), HalfSpace((0.5, 0.5), 1.0)
    grid = (10.0, 50.0, 250.0)
    return {"entrance-lognormal": (ModelSpec(ClaimModel.iid((Lognormal(0.0, 1.0),) * 2),
                                             MaxExceed((1.0, 1.0)), Poisson(1.0),
                                             Deterministic(0.05)), (2.0, 5.0, 20.0)),
            "entrance-erlang": (ModelSpec(pair, half, RenewalIID(Erlang(2, 2.0)),
                                          Deterministic(0.05)), grid),
            "entrance-compound-poisson": (ModelSpec(
                pair, half, Poisson(1.0), CompoundPoissonDrift(0.02, 0.5, ExponentialJumps(0.05))),
                grid),
            "entrance-rate-scale": (ModelSpec(ClaimModel.iid((Pareto(1.5, 2.0),) * 2), half,
                                              Poisson(2.0), Deterministic(0.05)),
                                    (50.0, 200.0, 800.0))}


def _ruins() -> dict:
    """(model, grid) of each extra ruin run, built from the imported ruinflow."""
    from ruinflow import (AnyLineNegative, BrownianDrift, ClaimModel, Deterministic, Pareto,
                          Poisson, PremiumSchedule, RuinModel, WeightedSumNegative)

    pair = ClaimModel.iid((Pareto(1.5, 1.0),) * 2)
    flat = PremiumSchedule.constant((0.5, 0.5))
    pieces = PremiumSchedule(breaks=(0.0, 2.0, 5.0), rates=((0.4, 0.0), (1.0, 0.3), (0.2, 0.6)))
    grid = (5.0, 20.0, 80.0, 320.0)

    def model(claim=pair, renewal=Poisson(1.0), ret=Deterministic(0.05), alloc=(0.5, 0.5),
              ruin_set=AnyLineNegative(), premiums=flat):
        return RuinModel(claim=claim, renewal=renewal, ret=ret, alloc=alloc,
                         ruin_set=ruin_set, premiums=premiums)

    return {"ruin-pieces": (model(ret=Deterministic(0.07), premiums=pieces), grid),
            "ruin-negative-force": (model(ret=BrownianDrift(-0.02, 0.0)), grid),
            "ruin-weighted-sum": (model(ruin_set=WeightedSumNegative(), premiums=pieces), grid),
            "ruin-1d": (model(claim=ClaimModel.iid((Pareto(1.5, 1.0),)), alloc=(1.0,),
                              premiums=PremiumSchedule(breaks=(0.0, 2.0, 5.0),
                                                       rates=((0.4,), (1.0,), (0.2,)))), grid),
            "ruin-rate-scale": (model(claim=ClaimModel.iid((Pareto(1.5, 2.0),) * 2),
                                      renewal=Poisson(2.0)), (80.0, 320.0, 1280.0, 5120.0))}


def workloads() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    from ruinflow.montecarlo import CHUNK_PATHS

    n_paths = 2 * CHUNK_PATHS + 100  # two whole chunks and part of a third
    bigjump = WORKLOADS["bigjump-fgm"]
    runs = {name: (w, w.build(), n_paths) for name, w in WORKLOADS.items()}
    runs.update((name, (replace(bigjump, weights=weights, x_grid=grid or bigjump.x_grid),
                        (claim, rare_set), n_paths))
                for name, (claim, rare_set, weights, grid) in _big_jumps().items())
    runs.update((name, (replace(WORKLOADS["entrance-ref"], x_grid=grid), model, n_paths))
                for name, (model, grid) in _entrances().items())
    runs.update((name, (replace(WORKLOADS["ruin-premium"], x_grid=grid), model, n_paths))
                for name, (model, grid) in _ruins().items())
    runs["bigjump-fgm-blocks"] = (bigjump, bigjump.build(), (BLOCK_CHUNKS - 1) * CHUNK_PATHS + 100)
    out = {}
    for name, (w, model, n) in runs.items():
        one, two = (_workload_columns(w, model, n, k) for k in (1, 2))
        out[name] = {"n_paths": n, "worker_invariant": one == two,
                     "workers_1": one, "workers_2": two}
    return out


def mrv_columns() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    from ruinflow.estimators import mrv_closed_form

    out = {}
    for name in MRV_WORKLOADS:
        w = WORKLOADS[name]
        model = w.build()
        if w.kind == "ruin":
            model = model.entrance_model()
        alpha = model.claim.common_tail_index()
        horizons = [10.0] + ([math.inf] if model.ret.laplace_exponent(alpha) < 0 else [])
        out[name] = {repr(T): [mrv_closed_form(model, x, T) for x in w.x_grid] for T in horizons}
    return out


def renewal_columns() -> dict:
    from ruinflow import (ClaimModel, Deterministic, Erlang, HalfSpace, ModelSpec, Pareto,
                          Poisson, RenewalIID)
    from ruinflow.estimators import asymptotic_entrance_infinite, mrv_closed_form

    ret, pair = Deterministic(0.05), ClaimModel.iid((Pareto(1.5, 1.0),) * 2)
    renewals = {"poisson-1": Poisson(1.0), "erlang-1-1": RenewalIID(Erlang(1, 1.0)),
                "erlang-2-2": RenewalIID(Erlang(2, 2.0)), "erlang-3-1": RenewalIID(Erlang(3, 1.0))}
    xs, out = (10.0, 50.0, 250.0), {}
    for name, renewal in renewals.items():
        model = ModelSpec(pair, HalfSpace((0.5, 0.5), 1.0), renewal, ret)
        # one threshold a call: trees before fdc0e87 take no array of them
        horizon = max(float(asymptotic_entrance_infinite(model, x).horizon) for x in xs)
        out[name] = {"truncation_horizon": horizon,
                     **{repr(T): [mrv_closed_form(model, x, T) for x in xs]
                        for T in (10.0, math.inf)}}
    return out


def pair_diagnostics() -> dict:
    """``qai_ratio`` and ``rd_violation_ratio``: the cubic pair's analytic values, and
    every ``EmpiricalRatio`` field of the sampled pairs, each call on a fresh
    ``default_rng(PAIR_SEED)``."""
    import numpy as np
    from ruinflow import ClaimModel, HalfSpace, MaxExceed, Pareto
    from ruinflow.dependence import qai_ratio, rd_violation_ratio

    ratios = {"qai": qai_ratio, "rd": rd_violation_ratio}
    cubic, unit_max = ClaimModel.cubic_pair(), MaxExceed((1.0, 1.0))
    out = {"cubic-analytic": {repr(x): {name: f(cubic, unit_max, x) for name, f in ratios.items()}
                              for x in (10.0, 100.0, 1e3, 1e5)}}
    models = {"iid-pareto-1.5": ClaimModel.iid((Pareto(1.5, 1.0),) * 2),
              "fgm-0.5-pareto-2": ClaimModel.fgm_chain(0.5, Pareto(2.0, 1.0)), "cubic": cubic}
    sets = {"max-1-1": unit_max, "half-space": HalfSpace((0.5, 0.5), 1.0),
            "max-2-2": MaxExceed((2.0, 2.0))}

    def sampled(f, model, rare_set, x):
        r = f(model, rare_set, x, n=PAIR_N, rng=np.random.default_rng(PAIR_SEED))
        if isinstance(r, float):  # the cubic pair on the unit max-type set is analytic
            return r
        return {**asdict(r), "reliable": r.reliable}

    for model_name, model in models.items():
        for set_name, rare_set in sets.items():
            out[f"{model_name} {set_name}"] = {
                repr(x): {name: sampled(f, model, rare_set, x) for name, f in ratios.items()}
                for x in (2.0, 5.0, 20.0)}
    return out


def _configs() -> dict:
    """File name -> (config, CLI overrides): the demo configs, the three
    gate-failure runs and the three rejected claim blocks."""
    configs = ROOT / "demos" / "configs"
    out = {path.name: (json.loads(path.read_text()), {}) for path in configs.glob("*.json")}
    reference = (configs / "reference_entrance.json").read_text()
    cfg = json.loads(reference)
    cfg["model"]["claim"]["margins"] = [{"type": "heavy_weibull", "shape": 0.5}] * 2
    cfg["model"]["return"] = {"type": "brownian", "mu": 0.1, "sigma": 0.2}
    out["gate_failure.json"] = (cfg, {})
    out["gate_failure_unsafe.json"] = (cfg, {"unsafe": True})
    cfg = json.loads((configs / "infinite_horizon_brownian.json").read_text())
    cfg["model"]["return"].update(mu=0.05, sigma=0.5)  # phi(1.5) = 0.206 >= 0
    out["gate_failure_infinite.json"] = (cfg, {})
    pareto = {"type": "pareto", "alpha": 1.5}
    for name, claim in (
            ("iid_without_margins.json", {"dependence": {"type": "iid"}}),
            ("fgm_unequal_margins.json", {"dependence": {"type": "fgm_chain", "theta": 0.5},
                                          "margins": [pareto, {"type": "pareto", "alpha": 2.0}]}),
            ("cubic_pair_pareto_margins.json", {"dependence": {"type": "cubic_pair"},
                                                "margins": [pareto, pareto]})):
        cfg = json.loads(reference)
        cfg["model"]["claim"] = claim
        out[name] = (cfg, {})
    return out


def demo_configs() -> dict:
    from ruinflow import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "in").mkdir()
        for name, (cfg, overrides) in sorted(_configs().items()):
            cfg["sim"]["n_paths"] = CONFIG_PATHS
            cfg_path = Path(tmp) / "in" / name
            cfg_path.write_text(json.dumps(cfg))
            for fmt in ("csv", "json"):
                base = Path(tmp) / fmt / Path(name).stem
                code = cli.run(cfg_path, {"threads": 1, "out": str(base), "format": fmt,
                                          **overrides})
                table = Path(f"{base}.{fmt}")
                entry = {"exit_code": code, "rows": None}
                if table.exists():
                    text = table.read_text()
                    entry["rows"] = json.loads(text) if fmt == "json" else text.splitlines()
                for key, suffix in (("report", "report.txt"), ("echo", "config.json")):
                    path = Path(f"{base}.{suffix}")
                    entry[key] = [line.replace(tmp, "<tmp>")
                                  for line in path.read_text().splitlines()
                                  if not line.startswith("elapsed:")] if path.exists() else None
                out[f"{name} {fmt}"] = entry
    return out


def environment() -> dict:
    """numpy's version, its CPU baseline, the dispatched features this CPU has and the
    C library behind Python's ``math``."""
    import platform

    import numpy as np
    from numpy._core import _multiarray_umath as umath

    return {"numpy": np.__version__, "cpu_baseline": list(umath.__cpu_baseline__),
            "cpu_dispatch": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)],
            "libc": " ".join(platform.libc_ver())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="ruinflow source directory to import")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import ruinflow

    print(f"ruinflow from {Path(ruinflow.__file__).parent}", file=sys.stderr)
    result = {"environment": environment(), "workloads": workloads(),
              "mrv_closed_form": mrv_columns(),
              "renewals": renewal_columns(), "pair_diagnostics": pair_diagnostics(),
              "demo_configs": demo_configs()}
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    variant = [k for k, v in result["workloads"].items() if not v["worker_invariant"]]
    for name in variant:
        print(f"{name}: columns differ between 1 and 2 workers", file=sys.stderr)
    return 1 if variant else 0


if __name__ == "__main__":
    sys.exit(main())
