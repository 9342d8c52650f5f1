"""Catalog of univariate heavy-tailed claim-size distributions.

Each distribution carries an analytic survival function, its inverse (the
upper quantile used for inverse-transform sampling), a density, and a set of
curated membership tags for the standard heavy-tail classes:

* ``regularly_varying``  (tail ~ x^{-alpha} up to slow variation)
* ``consistently_varying``
* ``dominatedly_varying``
* ``long_tailed``
* ``subexponential``
* ``positively_decreasing``

The tags respect the strict inclusion chain

    regularly varying  <  consistently varying  <  dominated & long
                       <  subexponential        <  long tailed,

and :class:`ClassTags` rejects an assignment violating the chain.  Each law's
tags are fixed, a curated analytic catalog rather than runtime inference:
finite-sample class-membership testing is ill-posed, so
:func:`matuszewska_bounds` is a diagnostic, not a classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClassTags",
    "TailDistribution",
    "Pareto",
    "HeavyWeibull",
    "Lognormal",
    "CubicSurvival",
    "HarmonicSurvival",
    "SurvivalUnderflowError",
    "matuszewska_bounds",
]


class SurvivalUnderflowError(RuntimeError):
    """Survival value underflowed to zero at a requested grid point."""


@dataclass(frozen=True)
class ClassTags:
    """Heavy-tail class membership flags for one distribution."""

    regularly_varying: bool
    consistently_varying: bool
    dominatedly_varying: bool
    long_tailed: bool
    subexponential: bool
    positively_decreasing: bool

    def __post_init__(self):
        if self.regularly_varying and not (self.consistently_varying and self.positively_decreasing):
            raise ValueError("regular variation implies consistent variation and a positive lower index")
        if self.consistently_varying and not (self.dominatedly_varying and self.long_tailed):
            raise ValueError("consistent variation implies dominated variation and long tails")
        if self.dominatedly_varying and self.long_tailed and not self.subexponential:
            raise ValueError("dominated variation with long tails implies subexponentiality")
        if self.subexponential and not self.long_tailed:
            raise ValueError("subexponentiality implies long tails")

    def intersect(self, other: "ClassTags") -> "ClassTags":
        return ClassTags(
            self.regularly_varying and other.regularly_varying,
            self.consistently_varying and other.consistently_varying,
            self.dominatedly_varying and other.dominatedly_varying,
            self.long_tailed and other.long_tailed,
            self.subexponential and other.subexponential,
            self.positively_decreasing and other.positively_decreasing,
        )


_ALL_HEAVY = ClassTags(True, True, True, True, True, True)
_SUBEXP_ONLY = ClassTags(False, False, False, True, True, True)


class TailDistribution:
    """Base class: analytic survival, quantile, density, sampling, tags."""

    tags: ClassTags
    #: (lower, upper) polynomial tail-decay exponents, ``None`` when both are
    #: infinite; avoids fake finite values.
    matuszewska: tuple[float, float] | None = None
    #: smallest point of the support
    support_min: float = 0.0

    def survival(self, x):
        raise NotImplementedError

    def quantile(self, u):
        """Inverse survival: the point where the tail mass equals ``u``."""
        return self._qf(_check_prob(u))

    def _qf(self, v):
        """Survival inverse on (0, 1], in place: overwrites the float array ``v``
        and returns it; ``v = 1`` maps to the bottom of the support."""
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-transform sample of size ``n``."""
        return self.from_survival_uniform(rng.random(n))

    def from_survival_uniform(self, u):
        """Map uniforms in [0, 1) to samples via the survival inverse.

        ``1 - u`` lies in (0, 1], so a uniform of exactly zero stays on the
        support instead of escaping to infinity.
        """
        return self._qf(np.subtract(1.0, u, out=np.empty(np.shape(u))))

    def pareto_envelope(self) -> tuple[float, float] | None:
        """Constants ``(C, alpha)`` with ``survival(x) <= C * x**-alpha`` for all x > 0.

        ``None`` when no global polynomial envelope is available.
        """
        return None


@dataclass(frozen=True)
class Pareto(TailDistribution):
    """Pareto law on ``[scale, inf)`` with survival ``(x/scale)**-alpha``."""

    alpha: float
    scale: float = 1.0
    tags = _ALL_HEAVY

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.scale < math.inf):
            raise ValueError("Pareto needs finite alpha > 0 and scale > 0")
        object.__setattr__(self, "matuszewska", (self.alpha, self.alpha))
        object.__setattr__(self, "support_min", self.scale)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        out = np.maximum(x, self.scale, out=np.empty_like(x))  # an array even for a 0-d x
        out /= self.scale
        out **= -self.alpha
        return out

    def _qf(self, v):
        v **= -1.0 / self.alpha
        return v if self.scale == 1.0 else np.multiply(v, self.scale, out=v)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.maximum(x, self.scale, out=np.empty_like(x))
        out /= self.scale
        out **= -(self.alpha + 1.0)
        out *= self.alpha / self.scale
        out[x < self.scale] = 0.0
        return out

    def mean(self) -> float:
        if self.alpha <= 1:
            return math.inf
        return self.alpha * self.scale / (self.alpha - 1.0)

    def pareto_envelope(self):
        return (self.scale**self.alpha, self.alpha)


@dataclass(frozen=True)
class HeavyWeibull(TailDistribution):
    """Weibull with shape in (0, 1): survival ``exp(-(x/scale)**shape)``.

    Subexponential but not dominatedly varying; both polynomial decay
    exponents are infinite.
    """

    shape: float
    scale: float = 1.0
    tags = _SUBEXP_ONLY

    def __post_init__(self):
        if not 0 < self.shape < 1:
            raise ValueError("HeavyWeibull needs shape in (0, 1)")
        if not 0 < self.scale < math.inf:
            raise ValueError("HeavyWeibull needs a finite scale > 0")

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.maximum(x, 0.0) ** self.shape / self.scale**self.shape)

    def _qf(self, v):
        v = np.negative(np.log(v, out=v), out=v)
        v **= 1.0 / self.shape
        return v if self.scale == 1.0 else np.multiply(v, self.scale, out=v)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        m = x > 0
        t = (x[m] / self.scale) ** self.shape
        out[m] = self.shape / x[m] * t * np.exp(-t)
        return out

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)


@dataclass(frozen=True)
class Lognormal(TailDistribution):
    """Lognormal law; subexponential with infinite polynomial decay exponents."""

    mu: float
    sigma: float
    tags = _SUBEXP_ONLY

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0 < self.sigma < math.inf):
            raise ValueError("Lognormal needs a finite mu and a finite sigma > 0")

    def survival(self, x):
        from scipy import special  # here, not at import: it costs ruinflow's import time
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        m = x > 0
        out[m] = special.ndtr(-(np.log(x[m]) - self.mu) / self.sigma)
        return out

    def _qf(self, v):
        from scipy import special
        np.multiply(special.ndtri(v, out=v), self.sigma, out=v)
        with np.errstate(over="ignore"):
            return np.exp(np.subtract(self.mu, v, out=v), out=v)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        m = x > 0
        z = (np.log(x[m]) - self.mu) / self.sigma
        out[m] = np.exp(-0.5 * z * z) / (x[m] * self.sigma * math.sqrt(2 * math.pi))
        return out

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)


@dataclass(frozen=True)
class CubicSurvival(TailDistribution):
    """Law with survival ``(1 + x**3)**-1``: regularly varying with index 3."""

    tags = _ALL_HEAVY
    matuszewska = (3.0, 3.0)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return 1.0 / (1.0 + np.maximum(x, 0.0) ** 3)

    def _qf(self, v):
        v = np.subtract(np.divide(1.0, v, out=v), 1.0, out=v)
        v **= 1.0 / 3.0
        return v

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        m = x > 0
        out[m] = 3.0 * x[m] ** 2 / (1.0 + x[m] ** 3) ** 2
        return out

    def mean(self) -> float:
        # integral of (1+x^3)^-1 over (0, inf)
        return 2.0 * math.pi / (3.0 * math.sqrt(3.0))

    def pareto_envelope(self):
        return (1.0, 3.0)


@dataclass(frozen=True)
class HarmonicSurvival(TailDistribution):
    """Law with survival ``(1 + x)**-1``: regularly varying with index 1, no mean."""

    tags = _ALL_HEAVY
    matuszewska = (1.0, 1.0)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return 1.0 / (1.0 + np.maximum(x, 0.0))

    def _qf(self, v):
        return np.subtract(np.divide(1.0, v, out=v), 1.0, out=v)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        m = x > 0
        out[m] = 1.0 / (1.0 + x[m]) ** 2
        return out

    def mean(self) -> float:
        return math.inf

    def pareto_envelope(self):
        return (1.0, 1.0)


def _check_prob(u):
    u = np.array(u, dtype=float)  # a copy: the quantile is computed in place
    if not np.all((u > 0) & (u < 1)):
        raise ValueError("probability argument must lie strictly inside (0, 1)")
    return u


def matuszewska_bounds(dist: TailDistribution, y_grid, x_grid) -> tuple[float, float]:
    """Finite-scale estimates of the polynomial tail-decay exponents.

    For each ratio ``y > 1`` the exponent ``-log(S(y*x)/S(x)) / log(y)`` is
    evaluated at the largest grid point ``x``; the estimates returned are the
    smallest and largest exponent over the ``y`` grid.  For a tail
    ``~ x^-alpha`` both converge to ``alpha``; for lighter-than-polynomial
    tails both grow without bound as the grid is pushed out.

    Raises :class:`SurvivalUnderflowError` when the survival underflows to
    zero at a grid point; shrink ``x_grid`` in that case.
    """
    y_grid = np.atleast_1d(np.asarray(y_grid, dtype=float))
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if y_grid.size == 0 or x_grid.size == 0:
        raise ValueError("grids must be nonempty")
    if not np.all(y_grid > 1):
        raise ValueError("ratio grid must satisfy y > 1")
    if not np.all(np.diff(x_grid, prepend=-np.inf) > 0):  # a NaN anywhere fails
        raise ValueError("x grid must be strictly increasing")
    x_max = x_grid[-1]
    s_base = float(dist.survival(x_max))
    if s_base == 0.0:
        raise SurvivalUnderflowError(f"survival underflow at x={x_max:g}; shrink x_grid")
    exps = []
    for y in y_grid:
        s_far = float(dist.survival(y * x_max))
        if s_far == 0.0:
            raise SurvivalUnderflowError(f"survival underflow at x={y * x_max:g}; shrink x_grid")
        exps.append(-math.log(s_far / s_base) / math.log(y))
    return (min(exps), max(exps))
