"""Shared numeric helpers: binomial intervals, adaptive quadrature, and the
convolution quadrature of two-term weighted sums."""

from __future__ import annotations

import math
import warnings
from statistics import NormalDist

import numpy as np

__all__ = ["UnsupportedModelError", "wilson_interval", "adaptive_simpson"]


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


def adaptive_simpson(f, a: float, b: float, rel_tol: float = 1e-4,
                     max_depth: int = 30) -> float:
    """Adaptive Simpson integration of ``f`` over ``[a, b]``.

    Refines until the Richardson error estimate of each panel falls below the
    proportional share of ``rel_tol * |integral|``.  Panels still above their
    share at ``max_depth`` raise one ``RuntimeWarning``; a panel whose
    estimate is not finite raises ``ArithmeticError``.
    """
    if b < a:
        raise ValueError("integration bounds out of order")
    if a == b:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = (left + right - whole) / 15.0
        if not math.isfinite(err):  # NaN never converges: stop before bisecting to max_depth
            raise ArithmeticError(f"integrand not finite on [{x0:g}, {x2:g}]")
        if abs(err) <= tol:
            return left + right + err
        if depth >= max_depth:
            unconverged.append(err)
            return left + right + err
        return (recurse(x0, xm, f0, fl, f1, left, tol / 2.0, depth + 1)
                + recurse(xm, x2, f1, fr, f2, right, tol / 2.0, depth + 1))

    # seed tolerance from a coarse pass, then refine against it
    mid = 0.5 * (a + b)
    f0, f1, f2 = f(a), f(mid), f(b)
    whole = simpson(a, b, f0, f1, f2)
    scale = abs(whole)
    if scale == 0.0:
        # coarse pass saw nothing; probe a finer grid before giving up
        probe = max(abs(simpson(a, mid, f0, f(0.5 * (a + mid)), f1)),
                    abs(simpson(mid, b, f1, f(0.5 * (mid + b)), f2)))
        if probe == 0.0:
            return 0.0
        scale = probe
    tol = rel_tol * scale
    unconverged: list[float] = []
    total = recurse(a, b, f0, f1, f2, whole, tol, 0)
    if unconverged:
        warnings.warn(f"adaptive Simpson unconverged on {len(unconverged)} panel(s) at "
                      f"max_depth={max_depth}", RuntimeWarning, stacklevel=2)
    return total


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


def _left_concentrated_quad(g, a: float, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``integral_a^b g(y, s) dy`` for each entry of ``b`` and ``s``, whose mass sits near ``a``.

    The substitution ``y = a + e^u - 1`` equidistributes decades, so a narrow
    left boundary layer is resolved even when ``b - a`` spans many orders of
    magnitude; tanh-sinh quadrature in ``u`` absorbs integrable endpoint
    singularities such as a Weibull density at zero.  ``g`` is evaluated on a
    whole ``(entries, nodes)`` array at once.  Each value is refined until
    two levels agree to :data:`QUAD_REL_TOL` relative to itself, so the
    accuracy does not depend on the size of the value; an entry still
    unconverged at the finest level raises a ``RuntimeWarning``.
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
    if live.size:
        warnings.warn(f"convolution quadrature unconverged at {live.size} threshold(s)",
                      RuntimeWarning, stacklevel=3)
    return total


def _weighted_sum_survival(margins, l, s: np.ndarray) -> np.ndarray:
    """``P[l1 X1 + l2 X2 > s]`` for independent margins, at each entry of ``s``.

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
    out = np.ones_like(s)
    live = s > l1 * m1.support_min + l2 * m2.support_min
    s = s[live]
    x_mid, y_mid = s / (2.0 * l1), s / (2.0 * l2)
    x_star = (s - l2 * m2.support_min) / l1
    y_star = (s - l1 * m1.support_min) / l2
    t1 = _left_concentrated_quad(
        lambda y, sv: m1.survival((sv - l2 * y) / l1) * m2.pdf(y),
        m2.support_min, np.minimum(y_mid, y_star), s)
    t2 = _left_concentrated_quad(
        lambda x, sv: m2.survival((sv - l1 * x) / l2) * m1.pdf(x),
        m1.support_min, np.minimum(x_mid, x_star), s)
    floors = (np.maximum(m2.survival(y_star) - m2.survival(y_mid), 0.0)
              + np.maximum(m1.survival(x_star) - m1.survival(x_mid), 0.0))
    cross = m1.survival(x_mid) * m2.survival(y_mid)
    out[live] = np.minimum(1.0, t1 + t2 + floors + cross)
    return out
