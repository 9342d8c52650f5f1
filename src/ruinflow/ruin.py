"""Discounted surplus processes, ruin events, and ruin-probability asymptotics.

The surplus of ``d`` lines of business with initial capital ``x`` allocated
by the vector ``l`` is

    U(t) = x*l + integral_0^t e^{-xi(s)} p(s) ds - D(t),

with piecewise-constant premium densities ``p``.  Ruin by horizon ``T`` is
the entrance of ``U`` into a ruin set (some line negative, or the weighted
total negative).  Because the ruin sets are scale-insensitive, ruin is the
entrance of the net claim process into ``x*(l - L)``, so ruin estimation and
asymptotics delegate to the entrance machinery on the mapped target set.

Ruin can only occur at claim-arrival epochs: premiums accrue continuously
and nonnegatively while claims are downward jumps, so checking the surplus
at arrivals is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dependence import ClaimModel
from .estimators import (
    HypothesisError,
    ModelSpec,
    asymptotic_entrance_finite,
    asymptotic_entrance_infinite,
)
from .montecarlo import (
    ResultTable,
    SimConfig,
    _Entrance,
    _estimate_table,
    _gate,
    _Ruin,
    _run_statistics,
)
from .processes import LevyReturns, RenewalIID
from .rare_sets import RareSet, RuinSet, from_ruin_set

__all__ = [
    "PremiumSchedule",
    "RuinModel",
    "empirical_ruin",
    "asymptotic_ruin",
]


@dataclass(frozen=True)
class PremiumSchedule:
    """Piecewise-constant premium densities per line of business.

    ``rates[j]`` applies on ``[breaks[j], breaks[j+1])``; the last piece
    extends indefinitely.  Densities must be nonnegative and therefore
    bounded by their maximum on every finite horizon.
    """

    breaks: tuple[float, ...]
    rates: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breaks)
        rates = tuple(tuple(float(r) for r in row) for row in self.rates)
        if (not breaks or breaks[0] != 0.0 or not all(map(math.isfinite, breaks))
                or any(a >= b for a, b in zip(breaks, breaks[1:]))):
            raise ValueError("piece boundaries must be finite, start at 0 and increase")
        if len(rates) != len(breaks):
            raise ValueError("need one rate row per piece")
        if len({len(row) for row in rates}) != 1 or not rates[0]:
            raise ValueError("rate rows must share one positive dimension")
        if any(not 0 <= r < math.inf for row in rates for r in row):
            raise ValueError("premium densities must be finite and nonnegative")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "rates", rates)

    @classmethod
    def constant(cls, rates) -> "PremiumSchedule":
        return cls(breaks=(0.0,), rates=(tuple(float(r) for r in np.atleast_1d(rates)),))

    @classmethod
    def zero(cls, d: int) -> "PremiumSchedule":
        return cls.constant((0.0,) * d)

    @property
    def d(self) -> int:
        return len(self.rates[0])

    @property
    def bound(self) -> float:
        """Uniform upper bound on every density."""
        return max(r for row in self.rates for r in row)

    @property
    def is_zero(self) -> bool:
        return self.bound == 0.0


@dataclass(frozen=True)
class RuinModel:
    """Surplus model: claims/arrivals/returns, allocation, premiums, ruin set."""

    claim: ClaimModel
    renewal: RenewalIID
    ret: LevyReturns
    alloc: tuple[float, ...]
    ruin_set: RuinSet
    premiums: PremiumSchedule | None = None

    def __post_init__(self):
        alloc = tuple(float(a) for a in self.alloc)
        if len(alloc) != self.claim.d:
            raise ValueError("allocation dimension must match the claim dimension")
        premiums = self.premiums if self.premiums is not None else PremiumSchedule.zero(self.claim.d)
        if premiums.d != self.claim.d:
            raise ValueError("premium dimension must match the claim dimension")
        object.__setattr__(self, "alloc", alloc)
        object.__setattr__(self, "premiums", premiums)
        # validates positivity and normalization of the allocation
        object.__setattr__(self, "_mapped_set", from_ruin_set(self.ruin_set, alloc))

    @property
    def mapped_set(self) -> RareSet:
        return self._mapped_set

    def entrance_model(self) -> ModelSpec:
        """The entrance model whose target set encodes this ruin event."""
        return ModelSpec(self.claim, self.mapped_set, self.renewal, self.ret)


def empirical_ruin(model: RuinModel, x_grid, T: float, sim: SimConfig,
                   unsafe: bool = False) -> ResultTable:
    """Empirical ruin probabilities over the capital grid, with asymptotics.

    The columns are those of :func:`~ruinflow.montecarlo.empirical_entrance`
    plus ``ruin_set``, naming the event in every row (``or`` for any-line
    ruin, ``sum`` for weighted-total ruin).  Its metadata is
    that of :func:`~ruinflow.montecarlo.empirical_entrance` on the mapped
    set, plus the entrance counts of ``D(T)`` on the same paths for sandwich
    coupling checks.  ``sim.horizon`` must equal ``T``, and ``sim.x_grid``
    must be empty or equal to ``x_grid``.
    """
    x_grid = tuple(float(v) for v in x_grid)
    if sim.horizon != T:
        raise ValueError("sim.horizon differs from T; give the horizon once")
    if sim.x_grid and sim.x_grid != x_grid:
        raise ValueError("sim.x_grid differs from x_grid; give the grid once")
    sim = replace(sim, x_grid=x_grid)  # validates the grid like every other
    if not sim.x_grid:
        raise ValueError("x grid must not be empty")
    if not model.premiums.is_zero and model.ret.constant_force is None:
        raise NotImplementedError(
            "ruin with premiums needs a constant force of interest; premium "
            "accrual under stochastic returns is not implemented")
    _check_premium_finiteness(model, T)
    entrance = model.entrance_model()
    asym, meta = _gate(entrance, sim, unsafe)
    stats = [_Entrance(model.mapped_set, sim.x_grid)]
    if not model.premiums.is_zero:
        stats.append(_Ruin(model.mapped_set, sim.x_grid, model.premiums, model.ret.constant_force,
                           meta["horizon"]))
    merged = _run_statistics(entrance, meta["horizon"], sim, *stats)
    meta.update(entrance_counts=merged["entrance_counts"], premium_bound=model.premiums.bound)
    # without premiums the net claims only grow and the mapped set is increasing, so
    # ruin by the horizon is the entrance of D(horizon)
    return _estimate_table(sim, merged.get("ruin_counts", merged["entrance_counts"]), asym, meta,
                           ruin_set=np.full(len(sim.x_grid), model.ruin_set.name))


def _check_premium_finiteness(model: RuinModel, T: float) -> None:
    """Discounted premium integrals must be finite (a.s.) on the horizon.

    Automatic for zero premiums or any finite horizon with bounded
    densities; over an infinite horizon it holds whenever the discount
    moment ``E[e^{-xi(s)}]`` decays geometrically (negative Laplace exponent
    at one), which for a constant force of interest means a positive rate.
    """
    if model.premiums.is_zero or not math.isinf(T) or model.ret.laplace_exponent(1.0) < 0:
        return
    raise HypothesisError([(
        "discounted premiums", False,
        "not verifiably finite over an infinite horizon (the discount moment does not decay)")])


def asymptotic_ruin(model: RuinModel, x: float, T: float, unsafe: bool = False):
    """First-order ruin approximation: the entrance value on the mapped set.

    Returns a :class:`~ruinflow.estimators.HorizonEstimate`; ``T`` may be
    ``math.inf``.
    """
    entrance = model.entrance_model()
    _check_premium_finiteness(model, T)
    if math.isinf(T):
        return asymptotic_entrance_infinite(entrance, x, unsafe=unsafe)
    return asymptotic_entrance_finite(entrance, x, T, unsafe=unsafe)
