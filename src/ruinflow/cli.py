"""Config-driven experiment runner.

A single JSON document declares the model (claims, dependence, target or
ruin set, arrival process, return process), the experiment to run, the
simulation budget, and the output destination.  Each run writes

* the result table (``.csv`` or ``.json``),
* a fully resolved configuration echo (``.config.json``) whose re-run
  reproduces the outputs bit for bit, and
* a one-page plain-text report (``.report.txt``) naming the asymptotic mode
  applied and every hypothesis checked, with pass/fail.

Experiments dispatch from one registry, ``_EXPERIMENTS``, which also gives
the schema its ``experiment`` enum.  Exit codes: 0 success, 2
hypothesis-gate failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import jsonschema

from . import __version__
from .dependence import IID, ClaimModel, CubicPair, FgmChain, NoExceedanceError
from .estimators import HypothesisError, ModelSpec, resolve_finite_mode, resolve_infinite_mode
from .heavy_tails import (
    CubicSurvival,
    HarmonicSurvival,
    HeavyWeibull,
    Lognormal,
    Pareto,
)
from .montecarlo import (
    SimConfig,
    empirical_entrance,
    empirical_entrance_time,
    single_big_jump_check,
)
from .processes import (
    BrownianDrift,
    CompoundPoissonDrift,
    Deterministic,
    Erlang,
    ExponentialJumps,
    FixedJumps,
    Poisson,
    RenewalIID,
)
from .rare_sets import (
    AnyLineNegative,
    HalfSpace,
    MaxExceed,
    PolyhedralUnion,
    Ray,
    WeightedSumNegative,
)
from .ruin import PremiumSchedule, RuinModel, empirical_ruin

__all__ = ["run", "main", "CONFIG_SCHEMA"]

THREADS_ENV = "RUINFLOW_THREADS"

_num = {"type": "number"}
_pos = {"type": "number", "exclusiveMinimum": 0}
_vec = {"type": "array", "items": _num, "minItems": 1}


class ConfigError(ValueError):
    pass


# One table per model block: config ``type`` name -> (class or builder, parameter
# schemas, required parameters).  A table generates its block's ``oneOf`` in
# CONFIG_SCHEMA (``_one_of``) and builds its objects (``_build``), so adding a
# model piece takes one class and one entry here.  The objects check their own
# parameters: a dependence structure, for one, checks the margins it is given.


def _one_of(table: dict) -> dict:
    return {"type": "object", "oneOf": [
        {"properties": {"type": {"const": name}, **params},
         "required": ["type", *required], "additionalProperties": False}
        for name, (_, params, required) in table.items()]}


def _build(table: dict, spec: dict):
    """The object a validated block spec names: its entry called with its parameters."""
    return table[spec["type"]][0](**{k: v for k, v in spec.items() if k != "type"})


_MARGINS = {
    "pareto": (Pareto, {"alpha": _pos, "scale": _pos}, ["alpha"]),
    "heavy_weibull": (HeavyWeibull, {"shape": _pos, "scale": _pos}, ["shape"]),
    "lognormal": (Lognormal, {"mu": _num, "sigma": _pos}, ["mu", "sigma"]),
    "cubic_survival": (CubicSurvival, {}, []),
    "harmonic_survival": (HarmonicSurvival, {}, []),
}
_DEPENDENCE = {
    "iid": (IID, {}, []),
    "fgm_chain": (FgmChain, {"theta": {"type": "number", "minimum": -1, "maximum": 1}}, ["theta"]),
    "cubic_pair": (CubicPair, {}, []),
}
_HALF_SPACES = {"half_space": (HalfSpace, {"l": _vec, "b": _pos}, ["l", "b"])}
_SETS = {
    "max_exceed": (MaxExceed, {"b": _vec}, ["b"]),
    **_HALF_SPACES,
    "ray": (Ray, {"b": _pos}, ["b"]),
    "polyhedral_union": (
        lambda parts: PolyhedralUnion(tuple(_build(_HALF_SPACES, p) for p in parts)),
        {"parts": {"type": "array", "items": _one_of(_HALF_SPACES), "minItems": 1}}, ["parts"]),
}
_RUIN_SETS = {
    "any_line_negative": (AnyLineNegative, {}, []),
    "weighted_sum_negative": (WeightedSumNegative, {"weights": _vec}, []),
}
_RENEWALS = {
    "poisson": (Poisson, {"rate": _pos}, ["rate"]),
    "renewal_erlang": (lambda k, rate: RenewalIID(Erlang(k, rate)),
                       {"k": {"type": "integer", "minimum": 1}, "rate": _pos}, ["k", "rate"]),
}
_JUMPS = {
    "exponential": (ExponentialJumps, {"mean": _pos}, ["mean"]),
    "fixed": (FixedJumps, {"size": _num}, ["size"]),
}
_RETURNS = {
    "deterministic": (Deterministic, {"rate": {"type": "number", "minimum": 0}}, ["rate"]),
    "brownian": (BrownianDrift, {"mu": _num, "sigma": {"type": "number", "minimum": 0}},
                 ["mu", "sigma"]),
    "compound_poisson": (
        lambda drift, jump_rate, jumps: CompoundPoissonDrift(drift, jump_rate,
                                                             _build(_JUMPS, jumps)),
        {"drift": _num, "jump_rate": _pos, "jumps": _one_of(_JUMPS)},
        ["drift", "jump_rate", "jumps"]),
}


# ---------------------------------------------------------------------------
# experiments


def _mode_lines(mode: str | None, checks) -> list[str]:
    """Report lines for a gate's record: the mode and every check."""
    return [f"asymptotic mode: {mode or 'NONE AVAILABLE'}"] + [
        f"  [{'pass' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in checks]


def _entrance(cfg, spec, sim, study=False):
    table = empirical_entrance(spec, sim, unsafe=cfg["unsafe"])
    lines = [f"rows: {len(table.x)}  flagged (zero exceedances): "
             f"{table.x[table.count == 0].tolist()}"]
    last = table.ratio[~np.isnan(table.ratio)][-3:]
    if study and last.size == 3:
        lines.append(f"final-three-point ratio spread: {float(last.max() - last.min()):.4f}")
    if math.isinf(sim.horizon):
        lines.append(f"truncation horizon: {table.meta['truncation_horizon']:.4g}; "
                     f"tail bound (relative): {table.meta['tail_bound_rel']:.3e}")
    return table, lines, 0


def _ruin(cfg, model, sim):
    table = empirical_ruin(model, sim.x_grid, sim.horizon, sim, unsafe=cfg["unsafe"])
    return table, [f"ruin set: {model.ruin_set.name}"], 0


def _entrance_time(cfg, spec, sim):
    block = cfg["entrance_time"]
    table = empirical_entrance_time(spec, block["x"], block["t_grid"], sim, unsafe=cfg["unsafe"])
    return table, [f"entered paths: {table.meta['entered']} of {table.meta['n_paths']}"], 0


def _big_jump(cfg, spec, sim):
    weights = cfg["big_jump"]["weights"]
    table = single_big_jump_check(spec.claim, spec.rare_set, weights, sim.x_grid, sim)
    return table, [f"weights: {list(weights)}"], 0


def _assumption_report(cfg, spec, sim):
    report = (resolve_infinite_mode(spec) if math.isinf(sim.horizon)
              else resolve_finite_mode(spec, sim.horizon))
    lines = _mode_lines(report.mode, report.checks) + ["table: none (assumption report only)"]
    return None, lines, 0 if report.mode is not None else 2


@dataclass(frozen=True)
class _Experiment:
    """An experiment: the config entries it needs and its runner.

    Its model is read from ``model.<block>``: a ``ModelSpec`` from ``set``,
    a ``RuinModel`` from ``ruin``.  ``run(cfg, model, sim)`` returns the
    result table (or None), its report lines and the exit code.  A gated
    experiment's report opens with the gate's record: the table's ``meta``,
    or the checks a ``HypothesisError`` carries when the gate fails, which
    :func:`run` turns into ``(None, lines, 2)``.
    """

    block: str
    needs: tuple[str, ...]
    run: Callable


#: experiment name -> its entry; the order is that of the schema's ``experiment`` enum
_EXPERIMENTS = {
    "entrance": _Experiment("set", ("sim.x_grid",), _entrance),
    "ruin": _Experiment("ruin", ("sim.x_grid",), _ruin),
    "entrance_time": _Experiment("set", ("entrance_time",), _entrance_time),
    "single_big_jump": _Experiment("set", ("big_jump", "sim.x_grid"), _big_jump),
    "convergence_study": _Experiment("set", ("sim.x_grid",),
                                     functools.partial(_entrance, study=True)),
    "assumption_report": _Experiment("set", (), _assumption_report),
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "model": {
            "type": "object",
            "properties": {
                "claim": {
                    "type": "object",
                    "properties": {
                        "dependence": _one_of(_DEPENDENCE),
                        "margins": {"type": "array", "items": _one_of(_MARGINS), "minItems": 1},
                    },
                    "required": ["dependence"],
                    "additionalProperties": False,
                },
                "set": _one_of(_SETS),
                "ruin": {
                    "type": "object",
                    "properties": {
                        "set": _one_of(_RUIN_SETS),
                        "alloc": _vec,
                        "premiums": {
                            "type": "object",
                            "properties": {
                                "breaks": _vec,
                                "rates": {"type": "array",
                                          "items": _vec, "minItems": 1},
                            },
                            "required": ["breaks", "rates"],
                            "additionalProperties": False,
                        },
                    },
                    "required": ["set", "alloc"],
                    "additionalProperties": False,
                },
                "renewal": _one_of(_RENEWALS),
                "return": _one_of(_RETURNS),
            },
            "required": ["claim", "renewal", "return"],
            "additionalProperties": False,
        },
        "experiment": {"enum": list(_EXPERIMENTS)},
        "sim": {
            "type": "object",
            "properties": {
                "n_paths": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "workers": {"type": "integer", "minimum": 1},
                "x_grid": {"type": "array", "items": _num},
                "horizon": {"oneOf": [_pos, {"const": "inf"}]},
                "ci_level": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
            "required": ["n_paths", "seed", "horizon"],
            "additionalProperties": False,
        },
        "entrance_time": {
            "type": "object",
            "properties": {"x": _pos, "t_grid": _vec},
            "required": ["x", "t_grid"],
            "additionalProperties": False,
        },
        "big_jump": {
            "type": "object",
            "properties": {"weights": _vec},
            "required": ["weights"],
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {"path": {"type": "string"}, "format": {"enum": ["csv", "json"]}},
            "required": ["path"],
            "additionalProperties": False,
        },
        "unsafe": {"type": "boolean"},
    },
    "required": ["model", "experiment", "sim", "output"],
    "additionalProperties": False,
}

_SIM_DEFAULTS = {"workers": 1, "ci_level": 0.95, "x_grid": []}
_OUTPUT_DEFAULTS = {"format": "csv"}


# ---------------------------------------------------------------------------
# config -> model objects


def _build_claim(spec: dict) -> ClaimModel:
    return ClaimModel(tuple(_build(_MARGINS, m) for m in spec.get("margins", ())),
                      _build(_DEPENDENCE, spec["dependence"]))


def _resolve_config(raw: dict, overrides: dict) -> tuple[dict, dict]:
    """Validate, fill defaults, apply command-line overrides.

    Returns the resolved config, a valid config itself, and the overrides
    applied to it.
    """
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected: {exc.message} (at {list(exc.absolute_path)})")
    cfg = json.loads(json.dumps(raw))  # deep copy, JSON types only
    for key, default in _SIM_DEFAULTS.items():
        cfg["sim"].setdefault(key, default)
    for key, default in _OUTPUT_DEFAULTS.items():
        cfg["output"].setdefault(key, default)
    cfg.setdefault("unsafe", False)
    applied = {}
    if overrides.get("seed") is not None:
        cfg["sim"]["seed"] = applied["seed"] = overrides["seed"]
    if overrides.get("threads") is not None:
        cfg["sim"]["workers"] = applied["threads"] = overrides["threads"]
    if overrides.get("out") is not None:
        cfg["output"]["path"] = applied["out"] = overrides["out"]
    if overrides.get("format") is not None:
        cfg["output"]["format"] = applied["format"] = overrides["format"]
    if overrides.get("unsafe"):
        cfg["unsafe"] = applied["unsafe"] = True
    experiment = _EXPERIMENTS[cfg["experiment"]]
    for path in (f"model.{experiment.block}", *experiment.needs):
        # "model" and "sim" are required objects, so every parent exists
        if not functools.reduce(lambda node, key: node.get(key), path.split("."), cfg):
            raise ConfigError(f"{cfg['experiment']} experiment needs {path} (missing or empty)")
    return cfg, applied


def _sim_config(cfg: dict) -> SimConfig:
    sim = cfg["sim"]
    horizon = math.inf if sim["horizon"] == "inf" else float(sim["horizon"])
    return SimConfig(
        n_paths=sim["n_paths"], seed=sim["seed"], horizon=horizon,
        x_grid=tuple(sim["x_grid"]), n_workers=sim["workers"],
        ci_level=sim["ci_level"],
    )


def _model_spec(cfg: dict) -> tuple[ModelSpec | None, RuinModel | None]:
    """The models of the ``set`` and ``ruin`` blocks (None for an absent block)."""
    model = cfg["model"]
    claim = _build_claim(model["claim"])
    renewal = _build(_RENEWALS, model["renewal"])
    ret = _build(_RETURNS, model["return"])
    spec = ruin_model = None
    if "set" in model:
        spec = ModelSpec(claim=claim, rare_set=_build(_SETS, model["set"]),
                         renewal=renewal, ret=ret)
    if "ruin" in model:
        rblock = model["ruin"]
        premiums = PremiumSchedule(**rblock["premiums"]) if "premiums" in rblock else None
        ruin_model = RuinModel(claim=claim, renewal=renewal, ret=ret, alloc=rblock["alloc"],
                               ruin_set=_build(_RUIN_SETS, rblock["set"]), premiums=premiums)
    return spec, ruin_model


# ---------------------------------------------------------------------------
# run


def run(config_path, overrides: dict | None = None) -> int:
    """Execute the experiment described by the config file.

    Returns the process exit code: 0 on success, 2 when an asymptotic-mode
    hypothesis fails, 3 on configuration errors.
    """
    overrides = overrides or {}
    t_start = time.monotonic()
    try:
        raw = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    try:
        cfg, applied = _resolve_config(raw, overrides)
        spec, ruin_model = _model_spec(cfg)
        sim = _sim_config(cfg)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    experiment = _EXPERIMENTS[cfg["experiment"]]
    model = ruin_model if experiment.block == "ruin" else spec
    out_base = Path(cfg["output"]["path"])
    out_base.parent.mkdir(parents=True, exist_ok=True)
    report_lines = [
        f"ruinflow {__version__} experiment report",
        f"experiment: {cfg['experiment']}",
        f"config: {config_path}",
        f"overrides: {applied or 'none'}",
        "",
    ]
    if cfg["unsafe"]:
        report_lines.append("*** hypotheses not verified (unsafe override) ***")
    try:
        table, lines, code = experiment.run(cfg, model, sim)
    except HypothesisError as exc:
        print(f"hypothesis gate failure: {exc}", file=sys.stderr)
        table, lines, code = None, _mode_lines(None, exc.checks) + [f"gate failure: {exc}"], 2
    except (ValueError, NoExceedanceError, NotImplementedError) as exc:
        # a model or grid the schema accepts but the experiment cannot run
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    _echo_config(out_base, cfg)
    if table is not None:
        if table.meta["checks"] is not None:
            report_lines += _mode_lines(table.meta["mode"], table.meta["checks"])
        fmt = cfg["output"]["format"]
        table_path = out_base.with_suffix(f".{fmt}")
        getattr(table, f"to_{fmt}")(table_path)
        lines.append(f"table: {table_path}")
    report_lines += [*lines, f"elapsed: {time.monotonic() - t_start:.2f} s"]
    out_base.with_suffix(".report.txt").write_text("\n".join(report_lines) + "\n")
    return code


def _echo_config(out_base: Path, cfg: dict) -> None:
    """Write the resolved config, which re-runs as it is."""
    out_base.with_suffix(".config.json").write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ruinflow",
        description="Run entrance/ruin experiments from a JSON config.")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override sim.seed")
    parser.add_argument("--threads", type=int, default=None,
                        help=f"override sim.workers (falls back to ${THREADS_ENV})")
    parser.add_argument("--out", default=None, help="override output.path")
    parser.add_argument("--format", choices=["csv", "json"], default=None,
                        help="override output.format")
    parser.add_argument("--unsafe", action="store_true",
                        help="bypass hypothesis gates; outputs are watermarked")
    args = parser.parse_args(argv)
    threads = args.threads
    if threads is None and os.environ.get(THREADS_ENV):
        try:
            threads = int(os.environ[THREADS_ENV])
        except ValueError:
            print(f"config error: ${THREADS_ENV} is not an integer", file=sys.stderr)
            return 3
    return run(args.config, {
        "seed": args.seed,
        "threads": threads,
        "out": args.out,
        "format": args.format,
        "unsafe": args.unsafe,
    })


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
