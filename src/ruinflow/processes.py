"""Claim-arrival renewal processes and investment log-return processes.

The renewal side is one renewal process with Erlang interarrivals, whose
renewal measure is a finite sum of exponentials, so its discounted integrals
are exact; Poisson arrivals are its k = 1 case.  The return side is one Levy
process, a drift plus Brownian volatility plus compound Poisson jumps; a
deterministic force of interest, Brownian motion with drift and a compound
Poisson process with drift are its constructors.  It exposes its exact
Laplace exponent ``phi(k) = log E[exp(-k * xi(1))]``, which drives both the
hypothesis checkers and the truncation rule of the infinite-horizon asymptotic
(``estimators.asymptotic_entrance_infinite``), and the law of
``xi(s)`` at one time as a finite quadrature rule (``xi_rule``), which drives
the asymptotic estimators.

Returns are only ever sampled at claim-arrival epochs: the discounted
aggregate vector depends on the paths solely through those values, and the
increments used are exact (Gaussian plus compound Poisson over each
inter-arrival gap), so there is no discretization error.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Poisson",
    "Erlang",
    "RenewalIID",
    "LevyReturns",
    "Deterministic",
    "BrownianDrift",
    "ExponentialJumps",
    "FixedJumps",
    "CompoundPoissonDrift",
]

#: quadrature for ``xi(s)``: Gauss-Hermite nodes, Gauss nodes per jump count of an
#: exponential jump sum, and the Poisson cut of ``LevyReturns.xi_rule``
GH_NODES = 64
LAGUERRE_NODES = 32
POISSON_TAIL = 1e-15


# ---------------------------------------------------------------------------
# renewal processes


@dataclass(frozen=True)
class Erlang:
    """Erlang interarrival law: sum of ``k`` exponentials of the given rate."""

    k: int
    rate: float

    def __post_init__(self):
        if self.k is True or not (self.k >= 1 and self.k % 1 == 0 and 0 < self.rate < math.inf):
            raise ValueError("Erlang needs an integer k >= 1 and a finite rate > 0")
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True)
class RenewalIID:
    """Renewal process with independent Erlang(k, rate) interarrivals; k = 1 is Poisson.

    With ``w_j`` the k-th roots of unity, the renewal density is the finite sum
    ``u(t) = (rate/k) sum_j w_j exp(-(1 - w_j) rate t)`` (Cox 1962, *Renewal
    Theory*), so every discounted integral below is a closed-form sum.  The
    ``j = 0`` term is a Poisson process of intensity ``rate/k``; the others decay.
    """

    interarrival: Erlang

    @functools.cached_property
    def _modes(self) -> tuple[tuple[complex, complex], ...]:
        """``(w_j, (1 - w_j) rate)`` for ``j = 1..k-1``: empty for Poisson arrivals."""
        k, rate = int(self.interarrival.k), self.interarrival.rate
        roots = (cmath.exp(2j * math.pi * j / k) for j in range(1, k))
        return tuple((w, (1.0 - w) * rate) for w in roots)

    def interarrivals(self, rng: np.random.Generator, shape, out=None) -> np.ndarray:
        """Interarrival gaps of the given shape, drawn from ``rng`` (into ``out`` if given).
        Exponential gaps use ``standard_exponential``: the stream of a shape-1 gamma, but faster."""
        k, rate = self.interarrival.k, self.interarrival.rate
        gaps = (rng.standard_exponential(shape, out=out) if k == 1
                else rng.standard_gamma(k, shape, out=out))
        if rate != 1.0:
            gaps /= rate
        return gaps

    def renewal_density(self, t: float) -> float:
        """``u(t)``, clipped at 0 against rounding where it starts from ``u(0) = 0`` (k > 1)."""
        lam = self.interarrival.rate / self.interarrival.k
        return max(0.0, lam + lam * sum(w * cmath.exp(-d * t) for w, d in self._modes).real)

    def discounted_integral(self, phi: float, T: float) -> float:
        """``integral_0^T exp(s phi) d(renewal measure)``; ``T = inf`` needs ``phi < 0``."""
        if math.isinf(T):  # the whole integral is the tail from 0
            return self.discounted_tail_bound(phi, 0.0)
        lam = self.interarrival.rate / self.interarrival.k
        head = lam * T if phi == 0 else lam * -math.expm1(T * phi) / (-phi)
        return head + lam * sum(w * (1.0 - cmath.exp((phi - d) * T)) / (d - phi)
                                for w, d in self._modes).real

    def discounted_tail_bound(self, phi: float, T: float) -> float:
        """``integral_T^inf exp(s phi) d(renewal measure)`` (exact); needs ``phi < 0``."""
        if not phi < 0:
            raise ValueError("discounted renewal integral diverges: the exponent is not negative")
        lam = self.interarrival.rate / self.interarrival.k
        return (lam * math.exp(T * phi) / (-phi)
                + lam * sum(w * cmath.exp((phi - d) * T) / (d - phi) for w, d in self._modes).real)


def Poisson(rate: float) -> RenewalIID:
    """Homogeneous Poisson arrivals with intensity ``rate``: exponential interarrivals."""
    return RenewalIID(Erlang(1, rate))


# ---------------------------------------------------------------------------
# return processes


@dataclass(frozen=True)
class ExponentialJumps:
    """Exponential jump sizes with the given mean (nonnegative jumps)."""

    mean: float

    def __post_init__(self):
        if not 0 < self.mean < math.inf:
            raise ValueError("jump mean must be finite and positive")

    nonnegative = True

    def mgf_neg(self, k: float) -> float:
        """``E[exp(-k J)]``; finite for ``k > -1/mean``."""
        if k <= -1.0 / self.mean:
            raise ValueError("exponential jump transform diverges at this argument")
        return 1.0 / (1.0 + self.mean * k)

    def block_sum(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sums of ``counts`` i.i.d. jumps, one Gamma(count, mean) draw per cell; a
        zero count gives exactly 0 and draws nothing."""
        return rng.standard_gamma(counts) * self.mean

    def sum_rule(self, k_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss rules of the Gamma(k, mean) laws of ``J_1 + ... + J_k``, one row per ``k <= k_max``."""
        nodes, weights = _gamma_rules(1 << max(k_max - 1, 0).bit_length())  # few cached tables
        return self.mean * nodes[:k_max], weights[:k_max]


@dataclass(frozen=True)
class FixedJumps:
    """Deterministic jump size (any sign)."""

    size: float

    def __post_init__(self):
        if not math.isfinite(self.size):
            raise ValueError("jump size must be finite")

    @property
    def nonnegative(self) -> bool:
        return self.size >= 0

    def mgf_neg(self, k: float) -> float:
        return math.exp(-k * self.size)

    def block_sum(self, counts, rng):
        return self.size * counts

    def sum_rule(self, k_max):
        return self.size * np.arange(1.0, k_max + 1)[:, None], np.ones((k_max, 1))


@dataclass(frozen=True)
class LevyReturns:
    """Levy log-returns: ``xi(t) = drift t + sigma B(t) + J_1 + ... + J_N(t)``, with ``N``
    a Poisson process of rate ``jump_rate`` and i.i.d. jumps of law ``jumps``.

    Its Laplace exponent is ``phi(k) = -k drift + k^2 sigma^2 / 2 + jump_rate
    (E[exp(-k J)] - 1)``.  Every method adds these three parts, or chooses between
    them, and a part that is zero draws and adds nothing."""

    drift: float
    sigma: float = 0.0
    jump_rate: float = 0.0
    jumps: ExponentialJumps | FixedJumps | None = None

    def __post_init__(self):
        if not (math.isfinite(self.drift) and 0 <= self.sigma < math.inf
                and 0 <= self.jump_rate < math.inf):
            raise ValueError("Levy returns need a finite drift, volatility >= 0 and jump rate >= 0")
        if (self.jump_rate > 0) != (self.jumps is not None):
            raise ValueError("a positive jump rate and a jump law go together")

    @property
    def nondecreasing_paths(self) -> bool:
        return (self.sigma == 0 and self.drift >= 0
                and (self.jumps is None or self.jumps.nonnegative))

    @property
    def constant_force(self) -> float | None:
        """The force of interest when ``xi`` is deterministic and linear, else None."""
        return self.drift if self.sigma == 0 and self.jumps is None else None

    def laplace_exponent(self, k: float) -> float:
        phi = -k * self.drift + 0.5 * k * k * self.sigma * self.sigma
        return phi if self.jumps is None else phi + self.jump_rate * (self.jumps.mgf_neg(k) - 1.0)

    def xi_at(self, dtau: np.ndarray, rng: np.random.Generator, out=None):
        """Increments of ``xi`` over the gaps ``dtau``, shaped like ``dtau`` (into ``out`` if
        given) and drawn from ``rng``: normals when ``sigma > 0``, then jump counts and jump
        sums when ``jump_rate > 0`` (a deterministic force draws nothing)."""
        if self.sigma > 0:  # the noise is drawn where it is summed: a + b == b + a
            inc = rng.standard_normal(dtau.shape, out=out)
            inc *= np.sqrt(dtau)
            inc *= self.sigma
            inc += self.drift * dtau
        else:
            inc = np.multiply(self.drift, dtau, out=out)
        if self.jumps is not None:
            inc += self.jumps.block_sum(rng.poisson(self.jump_rate * dtau), rng)
        return inc

    def xi_rule(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        """Law of ``xi(s)`` as a quadrature rule ``(nodes, weights)``: the drift's one node,
        spread by the Gauss-Hermite rule of ``sigma B(s)`` when ``sigma > 0``, then summed
        with the Poisson mixture of the rules for ``J_1 + ... + J_k`` when ``jump_rate > 0``.

        The mixture is cut at the first ``K`` with ``P(N > K) <= POISSON_TAIL * P(N = 0)``.
        As ``0 <= S_A <= 1``, the cut moves ``E[S_A(x exp(xi(s)))]`` by at most that mass;
        for nonnegative jumps (``S_A`` falls as ``xi`` grows) by at most ``POISSON_TAIL``
        times the k = 0 term."""
        if self.sigma > 0:
            normal, weights = _gauss_hermite()
            nodes = self.drift * s + self.sigma * math.sqrt(2.0 * s) * normal
        else:
            nodes, weights = np.array([self.drift * s]), np.ones(1)
        if self.jumps is not None:
            from scipy import special  # here, not at import: it costs ruinflow's import time
            mean = self.jump_rate * s
            k = np.arange(int(4.0 * mean) + 64)  # by the Chernoff bound, K < 4 mean + 64
            k = k[:np.argmax(special.pdtrc(k, mean) <= POISSON_TAIL * math.exp(-mean)) + 1]
            pois = np.exp(special.xlogy(k, mean) - mean - special.gammaln(k + 1.0))
            sums, sum_weights = self.jumps.sum_rule(k.size - 1)
            jump_nodes = np.concatenate(([0.0], sums.ravel()))
            jump_weights = np.concatenate((pois[:1], (pois[1:, None] * sum_weights).ravel()))
            # the rule of a sum of independent parts: every pair of nodes
            nodes = np.add.outer(nodes, jump_nodes).ravel()
            weights = np.multiply.outer(weights, jump_weights).ravel()
        return nodes, weights

    @property
    def unbounded_below_by(self) -> tuple[str, ...]:
        """The parts that leave the paths unbounded below: volatility, negative jumps."""
        return tuple(part for part, on in (("Brownian component", self.sigma > 0), (
            "negative jumps", not (self.jumps is None or self.jumps.nonnegative))) if on)

    def bounded_below(self, T: float) -> float | None:
        """The floor ``K`` with ``inf_{t <= T} xi(t) >= -K`` almost surely (``|drift| T``
        for a negative drift, else 0), or None when ``unbounded_below_by`` names a part."""
        return None if self.unbounded_below_by else max(0.0, -self.drift * T)


def Deterministic(rate: float) -> LevyReturns:
    """Constant force of interest: ``xi(t) = rate * t`` with ``rate >= 0``."""
    if not 0 <= rate < math.inf:
        raise ValueError("deterministic force of interest must be finite and nonnegative")
    return LevyReturns(rate)


def BrownianDrift(mu: float, sigma: float) -> LevyReturns:
    """Arithmetic Brownian log-returns: ``xi(t) = mu t + sigma B(t)``; ``sigma = 0`` is
    the deterministic force ``mu``."""
    return LevyReturns(mu, sigma)


def CompoundPoissonDrift(drift: float, jump_rate: float,
                         jumps: ExponentialJumps | FixedJumps) -> LevyReturns:
    """Drift plus compound Poisson jumps: ``xi(t) = drift*t + sum of jumps``."""
    return LevyReturns(drift, 0.0, jump_rate, jumps)


@functools.cache
def _gauss_hermite():
    nodes, weights = np.polynomial.hermite.hermgauss(GH_NODES)
    weights = weights / math.sqrt(math.pi)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return nodes, weights


@functools.cache
def _gamma_rules(k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rules of the Gamma(k, 1) laws, one row per ``k = 1..k_max``
    (generalized Gauss-Laguerre with parameter ``k - 1``, by Golub-Welsch)."""
    from scipy import linalg  # here, not at import: it costs ruinflow's import time
    i = np.arange(LAGUERRE_NODES)
    nodes = np.empty((k_max, LAGUERRE_NODES))
    weights = np.empty_like(nodes)
    for k in range(1, k_max + 1):
        nodes[k - 1], vecs = linalg.eigh_tridiagonal(2.0 * i + k, np.sqrt(i[1:] * (i[1:] + k - 1.0)))
        weights[k - 1] = vecs[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return nodes, weights
