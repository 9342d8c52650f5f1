"""Parallel, reproducible path simulation of discounted aggregate claim vectors.

Reproducibility contract
------------------------
Every experiment is a pure function of the model parameters, the path count,
and the seed; worker count and scheduling never change a single bit of the
output.  This is achieved with a counter-based layout: each path owns a fixed
block of ``B`` double-precision uniforms at positions ``[path*B, (path+1)*B)``
of one Philox stream keyed by the seed, and every random quantity a path
needs is an inverse transform of uniforms from its own block.  Chunks of
paths are generated by advancing the Philox counter to the chunk's first
block, so any partition of paths into chunks yields identical numbers.

Arrival counts are capped at a per-model bound whose overflow probability is
below 1e-16 per path; a path exceeding the cap raises
:class:`EngineCapacityError` rather than silently truncating.

The per-path uniform block is laid out as::

    [ interarrival | return-process blocks (0-2) | claim uniforms (d per arrival) ]

with all widths fixed by the model, so the layout itself is part of the
reproducibility contract.

Per-path statistics
-------------------
One chunk runner serves every experiment.  A chunk's paths reach the
experiments as one view: arrival epochs, the inside-horizon mask, the
discounted claim terms, and the endpoint and running sums, each computed on
first use.  A statistic is a module-level function of that view, bound to
its parameters with :func:`functools.partial` so that it pickles to worker
processes, and returns a dict of int64 counts; the chunk runner merges every
key by addition in chunk order.  Entrance, entrance time and ruin (the
entrance of the net claim process into the mapped set, read on the same
paths) are three such statistics.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from ._util import wilson_interval
from .dependence import ClaimModel, NoExceedanceError
from .estimators import (
    ModelSpec,
    asymptotic_entrance_finite,
    asymptotic_entrance_infinite,
    resolve_finite_mode,
    resolve_infinite_mode,
)
from .processes import RenewalSpec, ReturnProcess
from .rare_sets import RareSet, z_index_signed

__all__ = [
    "SimConfig",
    "EstimateTable",
    "EngineCapacityError",
    "AggregatePath",
    "simulate_aggregate",
    "empirical_entrance",
    "EntranceTimeTable",
    "empirical_entrance_time",
    "BigJumpTable",
    "single_big_jump_check",
    "wilson_interval",
]

#: fixed chunk width; part of the layout, not a tuning knob
CHUNK_PATHS = 16_384


class EngineCapacityError(RuntimeError):
    """A path exhausted its arrival capacity; raise the cap margin."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation request: path count, seed, parallelism, horizon, thresholds.

    ``horizon`` may be ``math.inf``; the engine then simulates up to the
    model's truncation horizon and reports the analytic tail bound.
    """

    n_paths: int
    seed: int
    horizon: float
    x_grid: tuple[float, ...] = ()
    n_workers: int = 1
    ci_level: float = 0.95

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.n_workers < 1:
            raise ValueError("need at least one worker")
        if not 0 < self.ci_level < 1:
            raise ValueError("confidence level must be in (0, 1)")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive or math.inf")
        xg = tuple(float(v) for v in self.x_grid)
        if any(not 0 < v < math.inf for v in xg) or list(xg) != sorted(xg):
            raise ValueError("x grid must be finite, positive and increasing")
        object.__setattr__(self, "x_grid", xg)


# ---------------------------------------------------------------------------
# result tables


@dataclass
class EstimateTable:
    """Empirical-vs-asymptotic results, one row per threshold.

    Zero-exceedance rows keep their interval but drop the ratio; they are
    listed in :attr:`flagged`.
    """

    x: np.ndarray
    p_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    count: np.ndarray
    asymptotic: np.ndarray
    ratio: np.ndarray
    extra: dict[str, str] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    COLUMNS = ("x", "p_hat", "ci_lo", "ci_hi", "count", "asymptotic", "ratio")

    @property
    def flagged(self) -> np.ndarray:
        """Thresholds with zero exceedances."""
        return self.x[self.count == 0]

    def rows(self) -> list[dict]:
        out = []
        for i in range(len(self.x)):
            row = {
                "x": float(self.x[i]),
                "p_hat": float(self.p_hat[i]),
                "ci_lo": float(self.ci_lo[i]),
                "ci_hi": float(self.ci_hi[i]),
                "count": int(self.count[i]),
                "asymptotic": float(self.asymptotic[i]),
                "ratio": None if math.isnan(self.ratio[i]) else float(self.ratio[i]),
            }
            row.update(self.extra)
            out.append(row)
        return out

    def to_csv(self, path) -> None:
        _write_rows(self.rows(), list(self.COLUMNS) + list(self.extra), path, "csv")

    def to_json(self, path) -> None:
        _write_rows(self.rows(), list(self.COLUMNS) + list(self.extra), path, "json")


def _write_rows(rows: list[dict], cols: list[str], path, fmt: str) -> None:
    """Write result rows as JSON, or as CSV with ``cols`` as the header."""
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
        return
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in rows:
            w.writerow(["" if row[c] is None else row[c] for c in cols])


def _finish_table(x_grid, counts, n, level, asymptotic, extra=None, meta=None) -> EstimateTable:
    x = np.asarray(x_grid, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    p = counts / n
    lo, hi = wilson_interval(counts, n, level)
    asym = np.asarray(asymptotic, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((counts > 0) & (asym > 0), p / asym, np.nan)
    return EstimateTable(x, p, lo, hi, counts, asym, ratio,
                         extra=dict(extra or {}), meta=dict(meta or {}))


# ---------------------------------------------------------------------------
# engine layout


@dataclass(frozen=True)
class _Layout:
    n_cap: int
    ret_blocks: int
    claim_u: int

    @property
    def budget(self) -> int:
        width = self.n_cap * (1 + self.ret_blocks + self.claim_u)
        return ((width + 3) // 4) * 4

    def claim_offset(self) -> int:
        return self.n_cap * (1 + self.ret_blocks)


def _make_layout(claim: ClaimModel, ret: ReturnProcess, renewal: RenewalSpec,
                 horizon: float) -> _Layout:
    n_cap = renewal.arrival_cap(horizon)
    n_cap += n_cap % 2  # claim pairing needs an even arrival grid
    return _Layout(n_cap=n_cap, ret_blocks=ret.uniform_blocks,
                   claim_u=claim.uniforms_per_vector())


def _chunk_uniforms(seed: int, start_path: int, n: int, budget: int) -> np.ndarray:
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start_path * budget // 4)
    return np.random.Generator(bitgen).random((n, budget))


# ---------------------------------------------------------------------------
# chunk simulation


@dataclass(frozen=True)
class _AggregateTask:
    claim: ClaimModel
    renewal: RenewalSpec
    ret: ReturnProcess
    horizon: float
    seed: int
    start: int
    count: int
    layout: _Layout
    stats: tuple


@dataclass
class _ChunkPaths:
    """One chunk's paths as the statistics read them.

    ``tau`` holds the arrival epochs, ``mask`` marks those inside the horizon
    and ``terms`` the discounted claims (zero outside the horizon), one row
    per path and one column per arrival slot.  ``final`` (``D`` at the
    horizon) and ``running`` (``D`` at every slot) are computed on first use.
    """

    tau: np.ndarray
    mask: np.ndarray
    terms: np.ndarray

    @cached_property
    def final(self) -> np.ndarray:
        return self.terms.sum(axis=1)

    @cached_property
    def running(self) -> np.ndarray:
        return np.cumsum(self.terms, axis=1)


def _even_trim(n_cap: int, max_count: int) -> int:
    k = min(n_cap, max(2, max_count + 1))
    return k + (k % 2)


def _simulate_aggregate_chunk(task: _AggregateTask) -> dict:
    lay = task.layout
    buf = _chunk_uniforms(task.seed, task.start, task.count, lay.budget)
    gaps = task.renewal.interarrivals_from_uniforms(buf[:, : lay.n_cap])
    tau = np.cumsum(gaps, axis=1)
    mask = tau <= task.horizon
    counts = mask.sum(axis=1)
    if mask[:, -1].any():
        raise EngineCapacityError(
            "a path reached the arrival capacity; the overflow guard failed")
    k = _even_trim(lay.n_cap, int(counts.max()))
    tau_k = tau[:, :k]
    mask_k = mask[:, :k]
    dtau_k = np.diff(tau_k, prepend=0.0, axis=1)
    ublocks = tuple(
        buf[:, lay.n_cap * (1 + i): lay.n_cap * (1 + i) + k]
        for i in range(lay.ret_blocks)
    )
    xi = task.ret.xi_at(tau_k, dtau_k, ublocks)
    c0 = lay.claim_offset()
    cu = buf[:, c0: c0 + k * lay.claim_u].reshape(task.count * k, lay.claim_u)
    claims = task.claim.claims_from_uniforms(cu).reshape(task.count, k, task.claim.d)
    weight = np.where(mask_k, np.exp(-xi), 0.0)
    paths = _ChunkPaths(tau_k, mask_k, claims * weight[:, :, None])
    out: dict = {}
    for stat in task.stats:
        out.update(stat(paths))
    return out


# ---------------------------------------------------------------------------
# per-path statistics: ``stat(paths) -> {key: int64 counts}``


def _exceedances(z: np.ndarray, x_grid) -> np.ndarray:
    """Per threshold, the number of rows of ``z`` (over the first axis) above it."""
    return (z[..., None] > np.asarray(x_grid)).sum(axis=0).astype(np.int64)


def _z_running(rare_set: RareSet, running: np.ndarray) -> np.ndarray:
    """The scalarization at every slot of a (paths, slots, d) array."""
    z = z_index_signed(rare_set, running.reshape(-1, running.shape[2]))
    return z.reshape(running.shape[:2])


def _entrance_counts(paths: _ChunkPaths, rare_set: RareSet, x_grid) -> dict:
    """Paths whose ``D(horizon)`` lies in ``x*A``, per threshold ``x``."""
    return {"entrance_counts": _exceedances(z_index_signed(rare_set, paths.final), x_grid)}


def _entrance_times(paths: _ChunkPaths, rare_set: RareSet, x: float, t_grid) -> dict:
    """Paths that enter ``x*A`` by the horizon, and those that enter by each ``t``.

    Entrance can only happen at arrival epochs (claims are nonnegative jumps
    and the target set is increasing), so first passage is read off the
    running sums.
    """
    hit = _z_running(rare_set, paths.running) > x
    entered = hit[:, -1]
    first = np.argmax(hit, axis=1)
    t_entry = np.where(entered, paths.tau[np.arange(len(first)), first], np.inf)
    tg = np.asarray(t_grid)
    return {"entered": np.int64(entered.sum()),
            "entry_time_counts": (t_entry[:, None] <= tg[None, :]).sum(axis=0).astype(np.int64)}


def _ruin_counts(paths: _ChunkPaths, rare_set: RareSet, x_grid, premiums=None,
                 rate: float = 0.0) -> dict:
    """Paths whose net claims enter ``x*A`` at some arrival inside the horizon.

    Net claims are the running sums less the premiums (a piecewise-constant
    schedule with ``breaks`` and ``rates``) discounted at force ``rate``.
    """
    net = paths.running
    if premiums is not None:
        net = net - _discounted_premium_at(
            paths.tau, premiums.breaks, np.asarray(premiums.rates), rate)
    stat = np.where(paths.mask, _z_running(rare_set, net), -np.inf).max(axis=1)
    return {"ruin_counts": _exceedances(stat, x_grid)}


def _discounted_premium_at(tau: np.ndarray, breaks: tuple, rates: np.ndarray,
                           r: float) -> np.ndarray:
    """Exact ``integral_0^t e^{-r s} p(s) ds`` at each entry of ``tau``.

    ``rates`` has one row per piece ``[breaks[j], breaks[j+1])`` and one
    column per line of business; the last piece extends to infinity.
    """
    out = np.zeros(tau.shape + (rates.shape[1],))
    edges = list(breaks) + [math.inf]
    for j in range(rates.shape[0]):
        a, b = edges[j], edges[j + 1]
        upper = np.clip(tau, a, b)
        if r == 0:
            seg = np.maximum(upper - a, 0.0)
        else:
            seg = (np.exp(-r * a) - np.exp(-r * upper)) / r
            seg = np.maximum(seg, 0.0)
        out += seg[:, :, None] * rates[j][None, None, :]
    return out


def _run_chunks(task_proto, runner, n_paths: int, n_workers: int) -> dict:
    tasks = [replace(task_proto, start=s, count=min(CHUNK_PATHS, n_paths - s))
             for s in range(0, n_paths, CHUNK_PATHS)]
    if n_workers == 1:
        results = [runner(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(runner, tasks, chunksize=1))
    merged: dict = {}
    for res in results:  # results arrive in chunk order: merge is deterministic
        for key, val in res.items():
            merged[key] = merged.get(key, 0) + val
    return merged


def _run_statistics(model: ModelSpec, horizon: float, sim: SimConfig, *stats) -> dict:
    """Simulate ``sim.n_paths`` paths of ``model`` up to ``horizon`` and sum
    the statistics' counts over all chunks."""
    proto = _AggregateTask(
        claim=model.claim, renewal=model.renewal, ret=model.ret, horizon=horizon,
        seed=sim.seed, start=0, count=0,
        layout=_make_layout(model.claim, model.ret, model.renewal, horizon), stats=stats)
    return _run_chunks(proto, _simulate_aggregate_chunk, sim.n_paths, sim.n_workers)


# ---------------------------------------------------------------------------
# single-path reference simulation


@dataclass(frozen=True)
class AggregatePath:
    """One simulated path: the endpoint and the per-arrival ledger."""

    total: np.ndarray
    arrival_times: np.ndarray
    log_returns: np.ndarray
    claims: np.ndarray

    @property
    def n_arrivals(self) -> int:
        return self.arrival_times.size


def simulate_aggregate(model: ModelSpec, T: float, rng: np.random.Generator) -> AggregatePath:
    """Simulate one path of the discounted aggregate vector up to ``T``.

    Returns the endpoint together with the ledger of arrival times, return
    values at those times, and raw claim vectors, for reuse by surplus and
    entrance-time computations.  The empty path is the zero vector.
    """
    from .processes import sample_arrivals

    times = sample_arrivals(model.renewal, T, rng)
    d = model.claim.d
    if times.size == 0:
        return AggregatePath(np.zeros(d), times, np.zeros(0), np.zeros((0, d)))
    xi = np.atleast_1d(model.ret.sample_at(times, rng))
    claims = model.claim.sample_sequence(times.size, rng)
    total = (claims * np.exp(-xi)[:, None]).sum(axis=0)
    return AggregatePath(total, times, xi, claims)


# ---------------------------------------------------------------------------
# experiments


def _resolve_horizon_and_asymptotics(model: ModelSpec, sim: SimConfig, unsafe: bool):
    """Gate the model, fill the asymptotic column, fix the simulation horizon."""
    meta: dict = {}
    if math.isinf(sim.horizon):
        if not unsafe:
            resolve_infinite_mode(model).require()
        estimates = [asymptotic_entrance_infinite(model, x, unsafe=True) for x in sim.x_grid]
        asym = [e.value for e in estimates]
        horizon = max(e.horizon for e in estimates)
        meta["truncation_horizon"] = horizon
        meta["tail_bound_rel"] = max(e.tail_bound_rel for e in estimates)
        meta["mode"] = "infinite-horizon"
    else:
        report = resolve_finite_mode(model, sim.horizon)
        if not unsafe:
            report.require()
        meta["mode"] = report.mode or "unchecked"
        asym = [asymptotic_entrance_finite(model, x, sim.horizon, unsafe=True)
                for x in sim.x_grid]
        horizon = sim.horizon
    if unsafe:
        meta["hypotheses_verified"] = False
    return horizon, np.asarray(asym), meta


def empirical_entrance(model: ModelSpec, sim: SimConfig, unsafe: bool = False) -> EstimateTable:
    """Empirical entrance probabilities of ``D(T)`` with the asymptotic column.

    Deterministic in ``(model, n_paths, seed)``; the worker count only
    affects wall time.
    """
    if not sim.x_grid:
        raise ValueError("x grid must not be empty")
    horizon, asym, meta = _resolve_horizon_and_asymptotics(model, sim, unsafe)
    merged = _run_statistics(model, horizon, sim, partial(
        _entrance_counts, rare_set=model.rare_set, x_grid=sim.x_grid))
    meta.update(n_paths=sim.n_paths, seed=sim.seed)
    return _finish_table(sim.x_grid, merged["entrance_counts"], sim.n_paths,
                         sim.ci_level, asym, meta=meta)


@dataclass
class EntranceTimeTable:
    """Conditional first-entrance-time distribution estimates."""

    t: np.ndarray
    cdf: np.ndarray
    counts: np.ndarray
    entered: int
    n_paths: int
    horizon: float

    def rows(self) -> list[dict]:
        return [
            {"t": float(t), "cdf": float(c), "count": int(k)}
            for t, c, k in zip(self.t, self.cdf, self.counts)
        ]


def empirical_entrance_time(model: ModelSpec, x: float, t_grid, sim: SimConfig,
                            unsafe: bool = False) -> EntranceTimeTable:
    """Estimate ``P[tau(x) <= t | tau(x) <= horizon]`` over the time grid.

    Raises :class:`~ruinflow.dependence.NoExceedanceError` when no path
    enters.
    """
    t_grid = tuple(float(t) for t in t_grid)
    if not t_grid or list(t_grid) != sorted(t_grid):
        raise ValueError("time grid must be nonempty and increasing")
    if math.isinf(sim.horizon):
        sim = replace(sim, x_grid=(x,))
        horizon, _, _ = _resolve_horizon_and_asymptotics(model, sim, unsafe)
    else:
        horizon = sim.horizon
        if not unsafe:
            resolve_finite_mode(model, horizon).require()
    if t_grid[-1] > horizon:
        raise ValueError("time grid extends beyond the simulation horizon")
    merged = _run_statistics(model, horizon, sim, partial(
        _entrance_times, rare_set=model.rare_set, x=float(x), t_grid=t_grid))
    entered = int(merged["entered"])
    if entered == 0:
        raise NoExceedanceError(
            f"no path entered the target at x={x:g}; lower x or raise n_paths")
    cdf = merged["entry_time_counts"] / entered
    return EntranceTimeTable(np.asarray(t_grid), cdf, merged["entry_time_counts"],
                             entered, sim.n_paths, horizon)


# ---------------------------------------------------------------------------
# weighted finite sums (single-big-jump diagnostics)


@dataclass(frozen=True)
class _BigJumpTask:
    claim: ClaimModel
    rare_set: RareSet
    weights: tuple[float, ...]
    seed: int
    start: int
    count: int
    x_grid: tuple[float, ...]


@dataclass
class BigJumpTable:
    """Sum-vs-marginals exceedance comparison for a weighted finite sum."""

    x: np.ndarray
    sum_p: np.ndarray
    marginal_p_total: np.ndarray
    ratio: np.ndarray
    sum_count: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    n_paths: int

    def rows(self) -> list[dict]:
        return [
            {
                "x": float(self.x[i]),
                "sum_p": float(self.sum_p[i]),
                "marginal_p_total": float(self.marginal_p_total[i]),
                "ratio": None if math.isnan(self.ratio[i]) else float(self.ratio[i]),
                "sum_count": int(self.sum_count[i]),
                "ci_lo": float(self.ci_lo[i]),
                "ci_hi": float(self.ci_hi[i]),
            }
            for i in range(len(self.x))
        ]


def _big_jump_chunk(task: _BigJumpTask) -> dict:
    n = len(task.weights)
    n_pad = n + (n % 2)
    d_u = task.claim.uniforms_per_vector()
    budget = ((n_pad * d_u + 3) // 4) * 4
    buf = _chunk_uniforms(task.seed, task.start, task.count, budget)
    cu = buf[:, : n_pad * d_u].reshape(task.count * n_pad, d_u)
    vectors = task.claim.claims_from_uniforms(cu).reshape(task.count, n_pad, task.claim.d)
    vectors = vectors[:, :n, :]
    w = np.asarray(task.weights)
    weighted = vectors * w[None, :, None]
    z_sum = z_index_signed(task.rare_set, weighted.sum(axis=1))
    z_each = z_index_signed(task.rare_set, vectors.reshape(-1, task.claim.d))
    z_each = z_each.reshape(task.count, n) * w[None, :]
    return {
        "sum_counts": _exceedances(z_sum, task.x_grid),
        "marginal_counts": _exceedances(z_each, task.x_grid),
    }


def single_big_jump_check(claim: ClaimModel, rare_set: RareSet, weights,
                          x_grid, sim: SimConfig) -> BigJumpTable:
    """Compare ``P[sum_i W_i X^(i) in x*A]`` with ``sum_i P[W_i X^(i) in x*A]``.

    The single-big-jump principle makes the ratio tend to one for
    subexponential scalarizations under the supported dependence structures.
    Weights are deterministic, nonnegative, and at most five.
    """
    weights = tuple(float(w) for w in weights)
    if not 1 <= len(weights) <= 5:
        raise ValueError("between one and five weighted vectors are supported")
    if any(w < 0 or not math.isfinite(w) for w in weights) or all(w == 0 for w in weights):
        raise ValueError("weights must be nonnegative, finite, and not all zero")
    x_grid = tuple(float(v) for v in x_grid)
    proto = _BigJumpTask(claim=claim, rare_set=rare_set, weights=weights,
                         seed=sim.seed, start=0, count=0, x_grid=x_grid)
    merged = _run_chunks(proto, _big_jump_chunk, sim.n_paths, sim.n_workers)
    sum_counts = merged["sum_counts"]
    n = sim.n_paths
    sum_p = sum_counts / n
    marg_p = merged["marginal_counts"].sum(axis=0) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((sum_counts > 0) & (marg_p > 0), sum_p / marg_p, np.nan)
    lo, hi = wilson_interval(sum_counts, n, sim.ci_level)
    return BigJumpTable(np.asarray(x_grid), sum_p, marg_p, ratio,
                        sum_counts, lo, hi, n)
