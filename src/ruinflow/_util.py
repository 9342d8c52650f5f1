"""Shared numeric helpers: binomial intervals, adaptive Gauss-Kronrod quadrature,
and the convolution quadrature of two-term weighted sums."""

from __future__ import annotations

import math
import warnings
from statistics import NormalDist

import numpy as np

__all__ = ["UnsupportedModelError", "wilson_interval", "gauss_kronrod"]


class UnsupportedModelError(ValueError):
    """No analytic route exists for the requested (model, set) pair."""


def wilson_interval(count, n, level: float = 0.95):
    """Wilson score interval for a binomial proportion.

    Vectorized over ``count``; returns ``(lo, hi)`` arrays (or floats for
    scalar input).  Exact at the edge cases ``count = 0`` and ``count = n``;
    a count outside ``[0, n]`` raises ``ValueError``.
    """
    if n <= 0:
        raise ValueError("sample size must be positive")
    if not 0 < level < 1:
        raise ValueError("confidence level must be in (0, 1)")
    count = np.asarray(count, dtype=float)
    if not np.all((count >= 0) & (count <= n)):  # NaN fails both comparisons
        raise ValueError(f"counts must lie in [0, n] = [0, {n}]")
    scalar = count.ndim == 0
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    p = count / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    lo = np.where(count == 0, 0.0, np.maximum(0.0, center - half))
    hi = np.where(count == n, 1.0, np.minimum(1.0, center + half))
    if scalar:
        return float(lo), float(hi)
    return lo, hi


#: G7/K15 on [0, 1] of the half-width (Kronrod 1965; QUADPACK's ``qk15``): Kronrod nodes,
#: their weights, and the Gauss weights (zero off the Gauss nodes), centre last
_GK_X, _GK_WK, _GK_WG = np.array([
    [0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
     0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0],
    [0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
     0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782],
    [0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0, 0.3818300505051189, 0.0,
     0.4179591836734694]])
_GK_X = np.concatenate((-_GK_X[:-1], _GK_X[::-1]))
_GK_WK, _GK_WG = (np.concatenate((w[:-1], w[::-1])) for w in (_GK_WK, _GK_WG))
#: an integral is done when each row's summed ``|K15 - G7|`` is at most this share of
#: its value; a panel is bisected at most this many times
GK_REL_TOL, GK_MAX_DEPTH = 1e-8, 30


def kronrod_weights(a: float, b: float) -> np.ndarray:
    """The K15 weights on ``[a, b]``, for the nodes of one panel of :func:`gauss_kronrod`."""
    return 0.5 * (b - a) * _GK_WK


def gauss_kronrod(f, a: float, b: float, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive G7/K15 integral over ``[a, b]`` of ``rows`` integrands at once.

    ``f(s, live)`` gives, at the 1-d array of nodes ``s``, the values of the
    integrands indexed by ``live``, one row each: ``(live.size, s.size)``.
    Every round evaluates all open panels in one call.  A row is done once its
    summed error estimate ``|K15 - G7|`` is at most :data:`GK_REL_TOL` of its
    value; the panels over their width's share of that tolerance for a row
    not done are bisected, and only the rows not done are evaluated on their
    halves.  Returns per-row ``(value, error estimate)``.  A value that is not
    finite raises ``ArithmeticError`` at once; panels still over their share
    at :data:`GK_MAX_DEPTH` raise one ``RuntimeWarning``.
    """
    if not a <= b:
        raise ValueError("integration bounds out of order or not numbers")
    lo, half, live = np.array([float(a)]), 0.5 * (b - a), np.arange(rows)
    value, error = np.zeros(rows), np.zeros(rows)
    kept, kept_err = np.zeros(rows), np.zeros(rows)  # panels accepted for the rows not done
    for depth in range(GK_MAX_DEPTH + 1):
        y = f((lo[:, None] + half + half * _GK_X).ravel(), live)
        y = y.reshape(live.size, lo.size, _GK_X.size)
        if not np.all(np.isfinite(y)):
            raise ArithmeticError(f"integrand not finite on [{a:g}, {b:g}]")
        k = half * (y @ _GK_WK)
        err = np.abs(k - half * (y @ _GK_WG))
        value[live] = kept[live] + k.sum(axis=1)
        error[live] = kept_err[live] + err.sum(axis=1)
        tol = GK_REL_TOL * np.abs(value[live])
        still = error[live] > tol
        share = tol[still, None] * (2.0 * half / (b - a)) if b > a else tol[still, None]
        split = (err[still] > share).any(axis=0)
        if not split.any() or depth == GK_MAX_DEPTH:
            break
        live, k, err = live[still], k[still], err[still]
        kept[live] += k[:, ~split].sum(axis=1)
        kept_err[live] += err[:, ~split].sum(axis=1)
        lo, half = np.concatenate((lo[split], lo[split] + half)), 0.5 * half
    if split.any():
        warnings.warn(f"Gauss-Kronrod quadrature unconverged on {int(split.sum())} panel(s) "
                      f"at depth {GK_MAX_DEPTH}", RuntimeWarning, stacklevel=2)
    return value, error


#: tanh-sinh nodes sit at ``k*h`` for ``|k*h| <= _TS_REACH``; the step ``h``
#: halves at each level, starting from 1/2
_TS_REACH = 4.0
_TS_LEVELS = 8
#: successive levels agreeing to this relative difference end the refinement;
#: the rule converges quadratically, so the value itself is far closer
QUAD_REL_TOL = 1e-10


def _tanh_sinh_level(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (as fractions of the interval) and weights new at one level."""
    h = 2.0 ** -(level + 1)
    t = (np.arange(-_TS_REACH, _TS_REACH + h / 2, h) if level == 0
         else np.arange(-_TS_REACH + h, _TS_REACH, 2 * h))
    q = 0.5 * math.pi * np.sinh(t)
    # both distances to the ends in closed form, so nodes next to either end
    # keep full relative precision
    left = 1.0 / (1.0 + np.exp(-2.0 * q))
    right = 1.0 / (1.0 + np.exp(2.0 * q))
    return left, math.pi * np.cosh(t) * left * right * h


_TS_RULE = tuple(_tanh_sinh_level(k) for k in range(_TS_LEVELS))


def _left_concentrated_quad(g, a: float, b: np.ndarray,
                            s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``integral_a^b g(y, s) dy`` for each entry of ``b`` and ``s``, whose mass sits near ``a``.

    The substitution ``y = a + e^u - 1`` equidistributes decades, so a narrow
    left boundary layer is resolved even when ``b - a`` spans many orders of
    magnitude; tanh-sinh quadrature in ``u`` absorbs integrable endpoint
    singularities such as a Weibull density at zero.  ``g`` is evaluated on a
    whole ``(entries, nodes)`` array at once.  Each value is refined until
    two levels agree to :data:`QUAD_REL_TOL` relative to itself, so the
    accuracy does not depend on the size of the value.  Returns the values
    and the mask of entries still unconverged at the finest level; any such
    entry also raises a ``RuntimeWarning``.
    """
    top = np.log1p(np.maximum(b - a, 0.0))
    total = np.zeros_like(top)
    live = np.flatnonzero(top > 0)
    for level, (frac, weight) in enumerate(_TS_RULE):
        if live.size == 0:
            break
        u = top[live, None] * frac[None, :]
        part = top[live] * ((g(a + np.expm1(u), s[live, None]) * np.exp(u)) @ weight)
        prev = total[live]
        total[live] = part if level == 0 else 0.5 * prev + part
        if level >= 2:
            live = live[np.abs(total[live] - prev) > QUAD_REL_TOL * np.abs(total[live])]
    unconverged = np.zeros(top.shape, dtype=bool)
    unconverged[live] = True
    if live.size:
        warnings.warn(f"convolution quadrature unconverged at {live.size} threshold(s)",
                      RuntimeWarning, stacklevel=3)
    return total, unconverged


def _weighted_sum_survival(margins, l, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P[l1 X1 + l2 X2 > s]`` for independent margins, at each entry of ``s``, and
    the mask of entries whose quadrature did not converge.

    Splits the event at the half level of each component: one component
    below its half level pins the other in its tail, and both above is a
    product.  Inside each pinned piece, the stretch where the other
    component's floor alone carries the level is a plain survival difference,
    so the integrands have no interior kink.  The pieces partition the event
    and each is integrated to a relative tolerance, so the value is exact up
    to quadrature error at every scale, however small the probability.
    """
    m1, m2 = margins
    l1, l2 = float(l[0]), float(l[1])
    s = np.asarray(s, dtype=float)
    out, unconverged = np.ones_like(s), np.zeros(s.shape, dtype=bool)
    live = s > l1 * m1.support_min + l2 * m2.support_min
    s = s[live]
    x_mid, y_mid = s / (2.0 * l1), s / (2.0 * l2)
    x_star = (s - l2 * m2.support_min) / l1
    y_star = (s - l1 * m1.support_min) / l2
    t1, bad1 = _left_concentrated_quad(
        lambda y, sv: m1.survival((sv - l2 * y) / l1) * m2.pdf(y),
        m2.support_min, np.minimum(y_mid, y_star), s)
    t2, bad2 = _left_concentrated_quad(
        lambda x, sv: m2.survival((sv - l1 * x) / l2) * m1.pdf(x),
        m1.support_min, np.minimum(x_mid, x_star), s)
    floors = (np.maximum(m2.survival(y_star) - m2.survival(y_mid), 0.0)
              + np.maximum(m1.survival(x_star) - m1.survival(x_mid), 0.0))
    cross = m1.survival(x_mid) * m2.survival(y_mid)
    out[live] = np.minimum(1.0, t1 + t2 + floors + cross)
    unconverged[live] = bad1 | bad2
    return out, unconverged
