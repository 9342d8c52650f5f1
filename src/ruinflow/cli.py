"""Config-driven experiment runner.

A single JSON document declares the model (claims, dependence, target or
ruin set, arrival process, return process), the experiment to run, the
simulation budget, and the output destination.  Each run writes, to
``output.path`` with a suffix appended to its whole name,

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


def _closed(properties: dict, required: list) -> dict:
    """An object schema with exactly these properties, the ``required`` ones mandatory."""
    return {"type": "object", "properties": properties, "required": required,
            "additionalProperties": False}


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


def _unconverged_lines(table) -> list[str]:
    """A report line naming the rows whose asymptotic value did not converge, if any."""
    bad = table.x[~table.meta["asymptotic_converged"]].tolist()
    return [f"asymptotic column not converged at x = {bad}"] if bad else []


def _entrance(cfg, spec, sim):
    table = empirical_entrance(spec, sim, unsafe=cfg["unsafe"])
    lines = [f"rows: {len(table.x)}  flagged (zero exceedances): "
             f"{table.x[table.count == 0].tolist()}", *_unconverged_lines(table)]
    last = table.ratio[~np.isnan(table.ratio)][-3:]
    if last.size == 3:
        lines.append(f"final-three-point ratio spread: {float(last.max() - last.min()):.4f}")
    if math.isinf(sim.horizon):
        lines.append(f"truncation horizon: {table.meta['horizon']:.4g}; "
                     f"tail bound (relative): {table.meta['tail_bound_rel']:.3e}")
    return table, lines, 0


def _ruin(cfg, model, sim):
    table = empirical_ruin(model, sim.x_grid, sim.horizon, sim, unsafe=cfg["unsafe"])
    return table, [f"ruin set: {model.ruin_set.name}", *_unconverged_lines(table)], 0


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
    "assumption_report": _Experiment("set", (), _assumption_report),
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_closed({
        "model": _closed({
            "claim": _closed({
                "dependence": _one_of(_DEPENDENCE),
                "margins": {"type": "array", "items": _one_of(_MARGINS), "minItems": 1},
            }, ["dependence"]),
            "set": _one_of(_SETS),
            "ruin": _closed({
                "set": _one_of(_RUIN_SETS),
                "alloc": _vec,
                "premiums": _closed({"breaks": _vec,
                                     "rates": {"type": "array", "items": _vec, "minItems": 1}},
                                    ["breaks", "rates"]),
            }, ["set", "alloc"]),
            "renewal": _one_of(_RENEWALS),
            "return": _one_of(_RETURNS),
        }, ["claim", "renewal", "return"]),
        "experiment": {"enum": list(_EXPERIMENTS)},
        "sim": _closed({
            "n_paths": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer", "minimum": 0},
            "workers": {"type": "integer", "minimum": 1},
            "x_grid": {"type": "array", "items": _num},
            "horizon": {"oneOf": [_pos, {"const": "inf"}]},
            "ci_level": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        }, ["n_paths", "seed", "horizon"]),
        "entrance_time": _closed({"x": _pos, "t_grid": _vec}, ["x", "t_grid"]),
        "big_jump": _closed({"weights": _vec}, ["weights"]),
        "output": _closed({"path": {"type": "string"}, "format": {"enum": ["csv", "json"]}},
                          ["path"]),
        "unsafe": {"type": "boolean"},
    }, ["model", "experiment", "sim", "output"]),
}

_SIM_DEFAULTS = {"workers": 1, "ci_level": 0.95, "x_grid": []}
_OUTPUT_DEFAULTS = {"format": "csv"}
#: command-line flag -> the config entry it overrides (``--unsafe`` can only switch on)
_OVERRIDES = {"seed": ("sim", "seed"), "threads": ("sim", "workers"),
              "out": ("output", "path"), "format": ("output", "format")}


# ---------------------------------------------------------------------------
# config -> model objects


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
    for flag, (block, key) in _OVERRIDES.items():
        if overrides.get(flag) is not None:
            cfg[block][key] = applied[flag] = overrides[flag]
    if overrides.get("unsafe"):
        cfg["unsafe"] = applied["unsafe"] = True
    if not Path(cfg["output"]["path"]).name:
        raise ConfigError(f"output.path {cfg['output']['path']!r} names no file")
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


def _model(cfg: dict, block: str) -> ModelSpec | RuinModel:
    """The model of ``model.<block>``: a ``ModelSpec`` from ``set``, a ``RuinModel`` from
    ``ruin``.  Only that block is built, so another block may be absent or unused."""
    model, claim = cfg["model"], cfg["model"]["claim"]
    parts = {"claim": ClaimModel(tuple(_build(_MARGINS, m) for m in claim.get("margins", ())),
                                 _build(_DEPENDENCE, claim["dependence"])),
             "renewal": _build(_RENEWALS, model["renewal"]),
             "ret": _build(_RETURNS, model["return"])}
    if block == "set":
        return ModelSpec(rare_set=_build(_SETS, model["set"]), **parts)
    ruin = model["ruin"]
    premiums = PremiumSchedule(**ruin["premiums"]) if "premiums" in ruin else None
    return RuinModel(alloc=ruin["alloc"], ruin_set=_build(_RUIN_SETS, ruin["set"]),
                     premiums=premiums, **parts)


def _artifact(cfg: dict, suffix: str) -> Path:
    """An output file: ``output.path`` with ``.<suffix>`` appended to its full name."""
    base = Path(cfg["output"]["path"])
    return base.with_name(f"{base.name}.{suffix}")


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
        experiment = _EXPERIMENTS[cfg["experiment"]]
        model = _model(cfg, experiment.block)
        sim = _sim_config(cfg)
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    Path(cfg["output"]["path"]).parent.mkdir(parents=True, exist_ok=True)
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

    # the resolved config, which re-runs as it is
    _artifact(cfg, "config.json").write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    if table is not None:
        if table.meta["checks"] is not None:
            report_lines += _mode_lines(table.meta["mode"], table.meta["checks"])
        fmt = cfg["output"]["format"]
        table_path = _artifact(cfg, fmt)
        getattr(table, f"to_{fmt}")(table_path)
        lines.append(f"table: {table_path}")
    report_lines += [*lines, f"elapsed: {time.monotonic() - t_start:.2f} s"]
    _artifact(cfg, "report.txt").write_text("\n".join(report_lines) + "\n")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ruinflow",
        description="Run entrance/ruin experiments from a JSON config.")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override sim.seed")
    parser.add_argument("--threads", type=int, default=None, help="override sim.workers")
    parser.add_argument("--out", default=None, help="override output.path")
    parser.add_argument("--format", choices=["csv", "json"], default=None,
                        help="override output.format")
    parser.add_argument("--unsafe", action="store_true",
                        help="bypass hypothesis gates; outputs are watermarked")
    overrides = vars(parser.parse_args(argv))  # argparse's names are _OVERRIDES' keys
    return run(overrides.pop("config"), overrides)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
