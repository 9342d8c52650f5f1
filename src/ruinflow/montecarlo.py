"""Parallel, reproducible path simulation of discounted aggregate claim vectors.

Reproducibility contract
------------------------
Every experiment is a pure function of the model parameters, the path count,
and the seed; worker count and scheduling never change a single bit of the
output.  Paths are split into chunks of :data:`CHUNK_PATHS` in path order,
and chunk ``c`` draws every random quantity it needs from its own stream,
``PCG64DXSM(SeedSequence([seed, c]))``, in an order fixed by the chunk's own
paths.  Chunks are independent tasks whose int64 counts are merged by
addition in chunk order, so any assignment of chunks to workers yields the
same numbers.  The chunk width is therefore part of the layout ("layout
v3"): changing it, or the draw order below, changes the bit stream.

A chunk simulates its paths in loop steps of two arrival slots.  Each step
draws, for the ``m`` paths still inside the horizon and in slot-major order
(row ``k`` is slot ``k``, entry ``i`` the ``i``-th such path), in turn::

    gaps            (2, m)     the renewal's interarrivals
    returns         (2, m)     whatever the return process's increments need
    claim uniforms  (2, d, m)  one claim vector per slot

so the two claim vectors of one step form the pair ``(2j, 2j+1)`` that the
paired dependence structures couple.  The variates come from numpy's
``Generator`` methods (``standard_exponential``, ``standard_gamma``,
``standard_normal``, ``poisson``, ``random``), so the stream also depends on
their algorithms.  A path leaves the loop at its first slot past the
horizon; the loop ends when none is left.  Variates are drawn only for paths
still inside the horizon, and each path carries ``O(d)`` state, so memory
does not grow with the horizon and no arrival-count cap exists.

One chunk runner serves every experiment through per-path statistics
(:class:`_Statistic`): entrance, entrance time and ruin (the entrance of the
net claim process into the mapped set, read on the same paths), each updated
once per loop step on both its slots and finished once per chunk, on its paths
in the order they leave the loop.  A run uses at most one worker per chunk.
``n`` workers split the chunks into ``n`` contiguous shares of near-equal
length: the calling process runs share 0 and starts one helper process for
each other share (none for one worker), and the results are merged in chunk
order.  Every chunk runner is ``runner(task, ws)``: a share allocates one
workspace, the largest of its tasks' ``workspace_floats``, that all its
chunks reuse, so a worker's memory is one fixed workspace.  An aggregate
loop step draws into views of it (numpy fills ``out=`` in the order of a
fresh array), transforms and sums the claims there, hands the statistics the
slots' discount factors and the scratch floats they declare, and compacts
the staying paths into it.  A step compares its slot 1 with the horizon
once: that mask gives the paths past it and the staying ones as index arrays,
which its discounting, statistics and compaction share (a step that loses no
path only copies its slot 1 into the carry); its other temporaries are the
mask, slot 0's comparison on the done paths and the scalarizations.  Claim
transforms work in place: a marginal's ``_qf`` overwrites the survival
transforms it is given, and equal IID margins take one ``_qf`` call over the
whole block.  The big-jump chunk draws
only the claim vectors it reads, in one draw into its workspace: its pairs
as a ``(2, d, n // 2, count)`` block, then, for an odd number ``n`` of
weights, the last vector as a lone ``(1, d, count)`` block, and it computes
each block's survival transforms where it lies.  Only the paths that can
reach the lowest threshold ``x_1`` go on: claims are nonnegative and the set
increasing and homogeneous, so ``z(sum_i w_i X_i) <= z(1) sum(w) max X``, and
a path whose transforms all lie at or above the cut of the level
``x_1 / (z(1) sum(w))`` (shrunk by a relative 1e-9 against rounding) adds
zero to every count.  The chunk gathers the other paths, the candidates,
and runs the quantiles, the weighted sum, the scalarizations and the counts
on them alone; where the expected candidate share is 0.6 or more it runs
them on the whole block where it lies (``_candidate_cut``, once a run).  The
counts are the same bits either way.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import wilson_interval
from .dependence import ClaimModel, NoExceedanceError, UnsupportedModelError
from .estimators import (
    ModelSpec,
    asymptotic_entrance_finite,
    asymptotic_entrance_infinite,
    resolve_finite_mode,
    resolve_infinite_mode,
)
from .processes import LevyReturns, RenewalIID
from .rare_sets import RareSet, z_index_signed

__all__ = [
    "SimConfig",
    "ResultTable",
    "empirical_entrance",
    "empirical_entrance_time",
    "single_big_jump_check",
    "wilson_interval",
]

#: paths per chunk; part of the layout (each chunk draws its own stream), not a tuning knob
CHUNK_PATHS = 16_384


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
        for name in ("n_paths", "n_workers", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.n_workers < 1:
            raise ValueError("need at least one worker")
        if not 0 < self.ci_level < 1:
            raise ValueError("confidence level must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive or math.inf")
        xg = tuple(float(v) for v in self.x_grid)
        if any(not 0 < v < math.inf for v in xg) or list(xg) != sorted(xg):
            raise ValueError("x grid must be finite, positive and increasing")
        object.__setattr__(self, "x_grid", xg)


# ---------------------------------------------------------------------------
# the result table


@dataclass(eq=False)  # columns are arrays: compare them, not tables
class ResultTable:
    """An experiment's result: ordered named 1-d columns and the run's metadata.

    Columns read as attributes (``table.x``, ``table.count``).  ``meta``
    always holds ``mode`` and ``checks``, the gate's record (the asymptotic
    mode that holds, None when none does, and every hypothesis check as
    ``(name, ok, detail)``; both None without a gate), ``horizon`` (the
    simulated horizon, None without one), ``n_paths`` and ``seed``.  Rows
    follow one rule for every column: ints are written as ints, floats as
    floats, and NaN as ``null`` (an empty CSV cell).
    """

    columns: dict[str, np.ndarray]
    meta: dict

    def __getattr__(self, name):
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def rows(self) -> list[dict]:
        cells = {name: _cells(col) for name, col in self.columns.items()}
        return [dict(zip(cells, row)) for row in zip(*cells.values())]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)  # writes None as an empty cell
            w.writerow(self.columns)
            w.writerows(row.values() for row in self.rows())

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.rows(), fh, indent=1)
            fh.write("\n")


def _cells(col: np.ndarray) -> list:
    values = col.tolist()
    if col.dtype.kind == "f":
        values = [None if math.isnan(v) else v for v in values]
    return values


def _run_meta(sim: SimConfig, report, horizon, **more) -> dict:
    """The run's metadata; ``report`` is the gate's ``ModeReport``, None without a gate."""
    return {"mode": report and report.mode, "checks": report and report.checks,
            "horizon": horizon, "n_paths": sim.n_paths, "seed": sim.seed, **more}


def _ratio(counts: np.ndarray, p: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``p / ref`` where both are positive; rows without exceedances keep only their interval."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((counts > 0) & (ref > 0), p / ref, np.nan)


def _estimate_table(sim: SimConfig, counts, asymptotic, meta: dict, **extra) -> ResultTable:
    """Empirical-vs-asymptotic columns, one row per threshold of ``sim.x_grid``."""
    counts = np.asarray(counts, dtype=np.int64)
    p = counts / sim.n_paths
    lo, hi = wilson_interval(counts, sim.n_paths, sim.ci_level)
    asym = np.asarray(asymptotic, dtype=float)
    return ResultTable({"x": np.asarray(sim.x_grid, dtype=float), "p_hat": p, "ci_lo": lo,
                        "ci_hi": hi, "count": counts, "asymptotic": asym,
                        "ratio": _ratio(counts, p, asym), **extra}, meta)


# ---------------------------------------------------------------------------
# chunk simulation


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    """The random stream of one chunk, keyed by ``(seed, chunk)`` alone."""
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence([seed, chunk])))


@dataclass(frozen=True)
class _AggregateTask:
    claim: ClaimModel
    renewal: RenewalIID
    ret: LevyReturns
    horizon: float
    seed: int
    chunk: int
    count: int
    stats: tuple

    @property
    def workspace_floats(self) -> int:
        """Floats of the chunk's workspace: per path, final ``D``, one loop step and the
        carry, which the statistics' scratch overlaps and extends to the largest they declare."""
        d = self.claim.d
        scratch = max([d + 2] + [s.scratch_floats(d) for s in self.stats])
        return self.count * (d + 2 * (3 + d) + scratch)


def _add_counts(into: dict, counts: dict) -> None:
    for key, val in counts.items():
        into[key] = into.get(key, 0) + val


def _walk(start: np.ndarray, inc: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``start`` plus the running sums of the slot rows of ``inc``, into ``out`` (or ``inc``)."""
    np.add(start, inc[0], out=out[0])
    np.add(out[0], inc[1], out=out[1])
    return out


def _views(buf: np.ndarray, *shapes) -> list[np.ndarray]:
    """Consecutive C-contiguous views of the flat ``buf``, one per shape."""
    views, i = [], 0
    for shape in shapes:
        views.append(buf[i:i + math.prod(shape)].reshape(shape))
        i += views[-1].size
    return views


def _simulate_aggregate_chunk(task: _AggregateTask, ws: np.ndarray) -> dict:
    rng = _chunk_rng(task.seed, task.chunk)
    d, n = task.claim.d, task.count
    final, step = _views(ws, (d, n), (2 * (3 + d) * n,))
    scratch = ws[final.size + step.size:]  # the carry's floats are dead in the statistics' step
    carry = scratch[:(d + 2) * n]
    carry.fill(0.0)
    t, xi, D = _views(carry, (n,), (n,), (d, n))
    live = [stat.init(n) for stat in task.stats]  # the active paths' states lead these arrays
    spare = [tuple(np.empty_like(a) for a in state) for state in live]
    final_states = [tuple(np.empty_like(a) for a in state) for state in live]  # in leaving order
    m = n
    while m:
        gaps, tau, xs, claims = _views(step, (2, m), (2, m), (2, m), (2, d, m))
        _walk(t, task.renewal.interarrivals(rng, (2, m), out=gaps), tau)
        _walk(xi, task.ret.xi_at(gaps, rng, out=xs), xs)
        task.claim.claims_from_uniforms(rng.random((2, d, m), out=claims), out=claims)
        w = np.exp(np.negative(xs, out=gaps), out=gaps)
        # a path whose slot 1 (the later one) is past the horizon is done; slot 0 can be
        # past it only on such a path
        leaving = tau[1] > task.horizon
        done = np.flatnonzero(leaving)
        past = (done[tau[0].take(done) > task.horizon], done)
        w[0, past[0]] = 0.0  # zeroed, not multiplied by a mask: exp(-xi) may be inf
        w[1, done] = 0.0
        claims *= w[:, None]
        claims[0] += D  # the running sums after slot 0, then after slot 1
        claims[1] += claims[0]
        for stat, state in zip(task.stats, live):
            stat.step(tuple(a[:m] for a in state), tau, past, claims.transpose(0, 2, 1), w,
                      scratch)
        if done.size:
            # the done paths' D and state go to ``rows`` of the final arrays, the other
            # paths' state to the front of theirs.  The indices are in range, and
            # mode="clip" spares take() a copy of ``out``.
            keep = np.flatnonzero(np.logical_not(leaving, out=leaving))
            rows = slice(n - m, n - keep.size)
            for j in range(d):
                claims[1, j].take(done, out=final[j, rows], mode="clip")
            for state, buf, into in zip(live, spare, final_states):
                for a, b, c in zip(state, buf, into):
                    a[:m].take(done, axis=0, out=c[rows], mode="clip")
                    a[:m].take(keep, axis=0, out=b[:keep.size], mode="clip")
            live, spare, m = spare, live, keep.size
            t, xi, D = _views(carry, (m,), (m,), (d, m))
        # the staying paths' carry is their slot 1, rewritten even when nobody left:
        # the statistics' scratch overlaps it
        for src, dst in ((tau[1], t), (xs[1], xi), (claims[1], D)):
            if done.size:
                src.take(keep, axis=-1, out=dst, mode="clip")
            else:
                np.copyto(dst, src)
    out: dict = {}
    for stat, state in zip(task.stats, final_states):
        _add_counts(out, stat.finish(state, final.T))
    return out


# ---------------------------------------------------------------------------
# per-path statistics


class _Statistic:
    """A per-path statistic, updated once per loop step.

    ``init(n)`` returns the state of ``n`` fresh paths, a tuple of arrays with a leading
    path axis.  ``step(state, tau, past, running, w, scratch)`` updates it in place
    from both slots of one loop step of the ``m`` active paths: their epochs and their
    discount factors ``w = e^{-xi(tau)}`` (zero past the horizon), ``(2, m)``, and ``D``
    after each slot, ``(2, m, d)`` (a slot past the horizon adds nothing).  ``past[k]``
    indexes, in increasing order, the paths whose slot ``k`` lies past the horizon
    (``past[0]`` is a subset of ``past[1]``); a statistic masks those entries.
    ``scratch`` is a flat view of the share's workspace with ``scratch_floats(d)`` floats
    per path, free to overwrite.  The arrays are reused, so keep no reference to them.  ``finish(state, final)`` reads
    the state and ``D`` at the horizon and returns int64 counts; it runs once per chunk,
    on all the chunk's paths in the order they leave the horizon, and counts are merged
    by addition.
    """

    def init(self, n: int) -> tuple:
        return ()

    def scratch_floats(self, d: int) -> int:
        return 0

    def step(self, state: tuple, tau, past, running, w, scratch) -> None:
        pass


def _exceedances(z: np.ndarray, x_grid) -> np.ndarray:
    """Per threshold of the increasing ``x_grid``, the entries of the 1-d ``z`` above it
    (NaN never is).  Where under 1/16 lie above the first, the others count among those
    alone (the gather broke even at shares of 0.07-0.12 for 7-14 thresholds; the bench's
    entrance and big-jump counts see 0.02-0.14, its ruin counts 0.9).  Sorting ``z`` once
    and binary-searching wins only from about 20 thresholds, or 80 after a gather at a
    share of 0.02 (16,384 entries, 2 vCPUs); demo configs use 3-6, the bench 7-14."""
    above = z > x_grid[0]
    first = np.count_nonzero(above)
    if 16 * first < z.size:
        z = z[above]
    return np.array([first] + [np.count_nonzero(z > x) for x in x_grid[1:]], dtype=np.int64)


@dataclass(frozen=True)
class _Entrance(_Statistic):
    """Paths whose ``D(horizon)`` lies in ``x*A``, per threshold ``x``."""

    rare_set: RareSet
    x_grid: tuple

    def finish(self, state, final):
        return {"entrance_counts": _exceedances(z_index_signed(self.rare_set, final),
                                                self.x_grid)}


@dataclass(frozen=True)
class _EntranceTimes(_Statistic):
    """Paths that enter ``x*A`` by the horizon, and those that enter by each ``t``.

    Entrance can only happen at arrival epochs (claims are nonnegative jumps
    and the target set is increasing), so the first entrance time is the
    first slot inside the horizon whose running sum lies in the set (a slot
    of ``past`` counts as ``inf``).
    """

    rare_set: RareSet
    x: float
    t_grid: tuple

    def init(self, n):
        return (np.full(n, np.inf),)

    def step(self, state, tau, past, running, w, scratch):
        first = np.where(z_index_signed(self.rare_set, running) > self.x, tau, np.inf)
        for row, gone in zip(first, past):
            row[gone] = np.inf
        np.minimum(state[0], first[0], out=state[0])
        np.minimum(state[0], first[1], out=state[0])

    def finish(self, state, final):
        t_entry, n = state[0], state[0].size
        return {"entered": np.int64(n - np.count_nonzero(t_entry == np.inf)),
                "entry_time_counts": n - _exceedances(t_entry, self.t_grid)}


@dataclass(frozen=True)
class _Ruin(_Statistic):
    """Paths whose net claims enter ``x*A`` at some arrival inside the horizon.

    Net claims are the running sums less the premiums (a piecewise-constant
    schedule with ``breaks`` and ``rates``) discounted at the constant force
    ``rate``; the state is each path's largest scalarized net claim so far,
    a slot of ``past`` counting as ``-inf``.
    Piece ``[a, b)`` adds its rate times ``integral_a^{clip(tau, a, b)} e^{-r s} ds``,
    ``(e^{-r a} - clip(w, e^{-r b}, e^{-r a})) * rate / r`` from the slot's ``w = e^{-r tau}``
    with no ``exp`` per path; below ``|r| = 2**-26``, where that cancels, from ``tau`` as
    at ``r = 0`` (either is within about ``1e-8 * max(1, t**2) * rate`` of the exact one).
    Pieces that start at or past ``horizon`` add zero to every slot inside it and are
    dropped (at ``r < 0`` their ``e^{-r a}`` may overflow), and the last piece kept runs
    on: its end, at or past the horizon, bounds no slot inside it.  So a lone piece,
    ``[0, inf)``, skips its clip: its bounds hold every slot inside the horizon.
    """

    rare_set: RareSet
    x_grid: tuple
    premiums: object
    rate: float
    horizon: float

    def __post_init__(self):  # per piece: clip bounds of w (of tau at r ~ 0), start, rates / r
        r = 0.0 if abs(self.rate) < 2**-26 else self.rate
        edges = tuple(b for b in self.premiums.breaks if b < self.horizon) + (math.inf,)
        ends = [(a, b) if r == 0 else (np.exp(-r * a), np.exp(-r * b))
                for a, b in zip(edges, edges[1:])]
        object.__setattr__(self, "_from_w", r != 0)
        object.__setattr__(self, "_pieces", tuple(  # at r = 0: (a - clip(tau, a, b)) * -rate
            (sorted(e), e[0], tuple(p / (r or -1.0) for p in row))
            for e, row in zip(ends, self.premiums.rates)))

    def scratch_floats(self, d):  # net claims, a piece and, with several pieces, a product
        return 2 * (d + 1 + (len(self._pieces) > 1))

    def init(self, n):
        return (np.full(n, -np.inf),)

    def step(self, state, tau, past, running, w, scratch):
        m, d = running.shape[1:]
        net, piece, part = _views(scratch, (2, d, m), (2, m), (2, m * bool(self._pieces[1:])))
        lines, x = net.transpose(1, 0, 2), w if self._from_w else tau
        for j, (bounds, start, row) in enumerate(self._pieces):  # each line's premiums
            np.subtract(start, np.clip(x, *bounds, out=piece) if self._pieces[1:] else x,
                        out=piece)
            for line, p in zip(lines, row):
                np.multiply(piece, p, out=part if j else line)
                if j:
                    line += part
        for i, line in enumerate(lines):  # then the net claims
            np.subtract(running[..., i], line, out=line)
        z = self.rare_set._scalarize(net.transpose(0, 2, 1))
        for row, gone in zip(z, past):
            row[gone] = -np.inf
        np.maximum(state[0], z[0], out=state[0])
        np.maximum(state[0], z[1], out=state[0])

    def finish(self, state, final):
        return {"ruin_counts": _exceedances(state[0], self.x_grid)}


def _run_block(runner, tasks: list) -> list:
    """Run a share's chunk tasks in order in one workspace, as large as the largest asks."""
    ws = np.empty(max(t.workspace_floats for t in tasks))
    return [runner(t, ws) for t in tasks]


def _helper(conn, runner, tasks: list) -> None:
    """A helper process's share: sends ``(True, counts)`` or ``(False, exception)``."""
    try:
        out = (True, _run_block(runner, tasks))
    except Exception as exc:
        out = (False, exc)
    conn.send(out)


def _run_chunks(task_proto, runner, n_paths: int, n_workers: int) -> dict:
    """Sum the chunks' counts in chunk order.  ``n`` workers split the chunks into ``n``
    contiguous shares of near-equal length: the caller runs share 0, and one helper
    process runs each other share and sends its counts back over a pipe."""
    tasks = [replace(task_proto, chunk=c, count=min(CHUNK_PATHS, n_paths - s))
             for c, s in enumerate(range(0, n_paths, CHUNK_PATHS))]
    n = min(n_workers, len(tasks))  # a worker without a chunk is a wasted fork
    if n == 1:
        results = _run_block(runner, tasks)
    else:
        import multiprocessing  # here: one worker needs no helper
        shares = [tasks[k * len(tasks) // n:(k + 1) * len(tasks) // n] for k in range(n)]
        helpers = []
        try:
            for share in shares[1:]:
                recv, send = multiprocessing.Pipe(duplex=False)
                proc = multiprocessing.Process(target=_helper, daemon=True,
                                               args=(send, runner, share))
                proc.start()
                send.close()  # the helper's end: a helper that dies unreported reads as EOF
                helpers.append((proc, recv))
            results = _run_block(runner, shares[0])
            for proc, recv in helpers:  # receive before joining: a result may outgrow the pipe
                try:
                    ok, out = recv.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(f"a chunk helper exited with code {proc.exitcode} "
                                       "without reporting") from None
                proc.join()
                if not ok:
                    raise out
                results += out
        finally:  # a failed share or receive stops the helpers still running
            for proc, recv in helpers:
                proc.terminate()  # a no-op on a helper already joined
                proc.join()
                recv.close()
    merged: dict = {}
    for res in results:  # results arrive in chunk order: merge is deterministic
        _add_counts(merged, res)
    return merged


def _run_statistics(model: ModelSpec, horizon: float, sim: SimConfig, *stats) -> dict:
    """Simulate ``sim.n_paths`` paths of ``model`` up to ``horizon`` and sum
    the statistics' counts over all chunks."""
    proto = _AggregateTask(
        claim=model.claim, renewal=model.renewal, ret=model.ret, horizon=horizon,
        seed=sim.seed, chunk=0, count=0, stats=stats)
    return _run_chunks(proto, _simulate_aggregate_chunk, sim.n_paths, sim.n_workers)


# ---------------------------------------------------------------------------
# experiments


def _gate(model: ModelSpec, sim: SimConfig, unsafe: bool) -> tuple[np.ndarray, dict]:
    """Gate the model, fill the asymptotic column over ``sim.x_grid``, fix the horizon.

    Returns the column and the run's metadata, which records the gate's
    report and the column's per-row ``asymptotic_rel_error`` and
    ``asymptotic_converged``; an infinite horizon is simulated up to the
    largest truncation horizon of the grid.
    """
    report = (resolve_infinite_mode(model) if math.isinf(sim.horizon)
              else resolve_finite_mode(model, sim.horizon))
    if not unsafe:
        report.require()
    x = np.asarray(sim.x_grid, dtype=float)
    if math.isinf(sim.horizon):
        est = asymptotic_entrance_infinite(model, x, unsafe=True)
        horizon = float(est.horizon.max())
        meta = _run_meta(sim, report, horizon, tail_bound_rel=float(est.tail_bound_rel.max()))
    else:
        est = asymptotic_entrance_finite(model, x, sim.horizon, unsafe=True)
        meta = _run_meta(sim, report, sim.horizon)
    meta.update(asymptotic_rel_error=est.rel_error, asymptotic_converged=est.converged)
    if unsafe:
        meta["hypotheses_verified"] = False
    return est.value, meta


def empirical_entrance(model: ModelSpec, sim: SimConfig, unsafe: bool = False) -> ResultTable:
    """Empirical entrance probabilities of ``D(T)`` with the asymptotic column.

    Columns ``x, p_hat, ci_lo, ci_hi, count, asymptotic, ratio``.
    Deterministic in ``(model, n_paths, seed)``; the worker count only
    affects wall time.
    """
    if not sim.x_grid:
        raise ValueError("x grid must not be empty")
    asym, meta = _gate(model, sim, unsafe)
    merged = _run_statistics(model, meta["horizon"], sim, _Entrance(model.rare_set, sim.x_grid))
    return _estimate_table(sim, merged["entrance_counts"], asym, meta)


def empirical_entrance_time(model: ModelSpec, x: float, t_grid, sim: SimConfig,
                            unsafe: bool = False) -> ResultTable:
    """Estimate ``P[tau(x) <= t | tau(x) <= horizon]`` over the time grid.

    Columns ``t, cdf, count`` (paths entered by ``t``), plus ``limit``, the
    first-order law ``psi(x, t) / psi(x, H)`` with ``psi`` the horizon integral
    of :func:`~ruinflow.estimators.asymptotic_entrance_finite` and ``H`` the
    simulated horizon (at ``horizon = inf`` the truncation horizon that ``cdf``
    is conditioned on): ``D`` is nondecreasing and the set increasing, so
    ``tau(x) <= t`` is ``D(t) in x*A``.  The column is there when a
    finite-horizon mode holds at ``H``, or under ``unsafe``, and the set has a
    scalarized survival.  ``meta["entered"]`` counts the paths that enter by
    the horizon.  Raises :class:`~ruinflow.dependence.NoExceedanceError` when
    none does.
    """
    if not 0 < x < math.inf:
        raise ValueError("threshold must be finite and positive")
    t_grid = tuple(float(t) for t in t_grid)
    if not t_grid or any(not 0 <= t < math.inf for t in t_grid) or list(t_grid) != sorted(t_grid):
        raise ValueError("time grid must be nonempty, finite, nonnegative and increasing")
    # only an infinite horizon needs the asymptotics: its truncation horizon at x
    _, meta = _gate(model, replace(sim, x_grid=(x,) if math.isinf(sim.horizon) else ()), unsafe)
    if t_grid[-1] > meta["horizon"]:
        raise ValueError("time grid extends beyond the simulation horizon")
    merged = _run_statistics(model, meta["horizon"], sim,
                             _EntranceTimes(model.rare_set, float(x), t_grid))
    entered = int(merged["entered"])
    if entered == 0:
        raise NoExceedanceError(
            f"no path entered the target at x={x:g}; lower x or raise n_paths")
    counts = merged["entry_time_counts"]
    columns = {"t": np.asarray(t_grid), "cdf": counts / entered, "count": counts}
    H = meta["horizon"]
    # the gate held unless unsafe, and a finite-horizon mode adds to either gate
    # only that the returns are bounded below on [0, H]
    if unsafe or model.ret.bounded_below(H) is not None:
        with contextlib.suppress(UnsupportedModelError):  # no scalarized survival of the set
            psi = [asymptotic_entrance_finite(model, x, t, unsafe=True).value
                   for t in (*t_grid, H)]
            columns["limit"] = np.array(psi[:-1]) / psi[-1]
    meta["entered"] = entered
    return ResultTable(columns, meta)


# ---------------------------------------------------------------------------
# weighted finite sums (single-big-jump diagnostics)


@dataclass(frozen=True)
class _BigJumpTask:
    claim: ClaimModel
    rare_set: RareSet
    weights: tuple[float, ...]
    seed: int
    chunk: int
    count: int
    x_grid: tuple[float, ...]
    cut: float  # _candidate_cut of the lowest threshold

    @property
    def workspace_floats(self) -> int:  # the uniforms of the chunk's claim vectors
        return self.count * len(self.weights) * self.claim.d


#: relative shrink of the big-jump claim level, far above the rounding of the quantiles,
#: the weighted sum and the scalarization that its bound leaves out
_CUT_MARGIN = 1e-9
#: expected share of candidate paths from which a big-jump chunk transforms its whole
#: block: gathering the candidates broke even at shares of 0.65-0.9 (FGM and IID Pareto
#: margins, lognormal margins; 2 vCPUs) and cost 24% more at a share of 1
_WHOLE_BLOCK_SHARE = 0.6


def _candidate_cut(claim: ClaimModel, rare_set: RareSet, weights: tuple, x1: float) -> float:
    """The cut ``eps`` of the level ``x1 / (z(1) sum(w))`` (see the module docstring), or
    ``inf`` where the expected candidate share ``1 - (1 - eps)**(n*d)`` is at least
    :data:`_WHOLE_BLOCK_SHARE`: a big-jump chunk then transforms its whole block."""
    nd = len(weights) * claim.d
    z1 = float(rare_set._scalarize(np.ones((1, claim.d)))[0])
    t = x1 / (z1 * sum(weights)) * (1.0 - _CUT_MARGIN)
    eps = claim.survival_cut(t) if t < math.inf else math.inf
    return eps if eps < 1.0 - (1.0 - _WHOLE_BLOCK_SHARE) ** (1.0 / nd) else math.inf


def _big_jump_chunk(task: _BigJumpTask, ws: np.ndarray) -> dict:
    n, h, d, count = len(task.weights), len(task.weights) // 2, task.claim.d, task.count
    # vectors (2j, 2j+1) are the slots of pair j in a (2, d, h, count) block, and an odd n's
    # last vector a lone (1, d, count) block after it: one draw, whose survival transforms
    # are taken where it lies
    u = _chunk_rng(task.seed, task.chunk).random(out=ws[:n * d * count])
    pairs, lone = _views(u, (2, d, h, count), (n % 2, d, count))
    task.claim.survival_transforms(pairs, out=pairs)
    if n % 2:
        task.claim.survival_transforms(lone, out=lone)
    if task.cut < math.inf:  # gather the candidates: a path is a column of the (n*d, count) block
        rows = u.reshape(n * d, count)
        u = rows.take(np.flatnonzero(rows.min(axis=0) < task.cut), axis=1).ravel()
        count = u.size // (n * d)
        pairs, lone = _views(u, (2, d, h, count), (n % 2, d, count))
    task.claim.quantiles(pairs)
    vectors = [pairs[i % 2, :, i // 2].T for i in range(2 * h)]  # (count, d) views
    if n % 2:
        vectors.append(task.claim.quantiles(lone)[0].T)
    w = task.weights
    total = vectors[0] * w[0]
    for i in range(1, n):  # left to right, the order of a sum over the vector axis
        total += vectors[i] * w[i]
    return {
        "sum_counts": _exceedances(z_index_signed(task.rare_set, total), task.x_grid),
        "marginal_counts": np.array([_exceedances(z_index_signed(task.rare_set, v) * wi,
                                                  task.x_grid) for v, wi in zip(vectors, w)]),
    }


def single_big_jump_check(claim: ClaimModel, rare_set: RareSet, weights,
                          x_grid, sim: SimConfig) -> ResultTable:
    """Compare ``P[sum_i W_i X^(i) in x*A]`` with ``sum_i P[W_i X^(i) in x*A]``.

    The single-big-jump principle makes the ratio tend to one for
    subexponential scalarizations under the supported dependence structures.
    Weights are deterministic, nonnegative, and at most five.  The grid is
    ``x_grid``; ``sim.x_grid`` must be empty or equal to it.  ``sim.horizon``
    is unused: the sum has a fixed number of terms, so ``meta`` has no gate
    and no horizon.  Columns ``x, sum_p, marginal_p_total, ratio,
    sum_count, ci_lo, ci_hi``.

    A path whose claims are all at most ``x_1 / (z(1) sum(w))``, for the
    lowest threshold ``x_1``, lies below every threshold on both sides, since
    ``z(w_i X_i) <= z(sum_i w_i X_i) <= z(1) sum(w) max X``.  Each chunk
    therefore computes the quantiles, sums and counts only of the paths with
    a survival transform below ``ClaimModel.survival_cut`` of that level,
    shrunk by a relative 1e-9; the counts are those of all paths, bit for bit.
    """
    weights = tuple(float(w) for w in weights)
    if not 1 <= len(weights) <= 5:
        raise ValueError("between one and five weighted vectors are supported")
    if any(w < 0 or not math.isfinite(w) for w in weights) or all(w == 0 for w in weights):
        raise ValueError("weights must be nonnegative, finite, and not all zero")
    x_grid = tuple(float(v) for v in x_grid)
    if not x_grid:
        raise ValueError("x grid must not be empty")
    if sim.x_grid and sim.x_grid != x_grid:
        raise ValueError("sim.x_grid differs from x_grid; give the grid once")
    if claim.d != rare_set.dim:
        raise ValueError("claim dimension does not match set dimension")
    sim = replace(sim, x_grid=x_grid)  # validates the grid like every other
    proto = _BigJumpTask(claim=claim, rare_set=rare_set, weights=weights,
                         seed=sim.seed, chunk=0, count=0, x_grid=x_grid,
                         cut=_candidate_cut(claim, rare_set, weights, x_grid[0]))
    merged = _run_chunks(proto, _big_jump_chunk, sim.n_paths, sim.n_workers)
    sum_counts = merged["sum_counts"]
    n = sim.n_paths
    sum_p = sum_counts / n
    marg_p = merged["marginal_counts"].sum(axis=0) / n
    lo, hi = wilson_interval(sum_counts, n, sim.ci_level)
    return ResultTable({"x": np.asarray(x_grid), "sum_p": sum_p, "marginal_p_total": marg_p,
                        "ratio": _ratio(sum_counts, sum_p, marg_p), "sum_count": sum_counts,
                        "ci_lo": lo, "ci_hi": hi}, _run_meta(sim, None, None))
