"""Shared numeric helpers: binomial intervals and adaptive quadrature."""

from __future__ import annotations

import warnings

import numpy as np
from scipy import special

__all__ = ["wilson_interval", "adaptive_simpson"]


def wilson_interval(count, n, level: float = 0.95):
    """Wilson score interval for a binomial proportion.

    Vectorized over ``count``; returns ``(lo, hi)`` arrays (or floats for
    scalar input).  Exact at the edge cases ``count = 0`` and ``count = n``.
    """
    if n <= 0:
        raise ValueError("sample size must be positive")
    if not 0 < level < 1:
        raise ValueError("confidence level must be in (0, 1)")
    count = np.asarray(count, dtype=float)
    scalar = count.ndim == 0
    z = float(special.ndtri(0.5 + level / 2.0))
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
                     abs_floor: float = 0.0, max_depth: int = 30) -> float:
    """Adaptive Simpson integration of ``f`` over ``[a, b]``.

    Refines until the Richardson error estimate of each panel falls below the
    proportional share of ``rel_tol * |integral|`` (with ``abs_floor`` as an
    absolute escape hatch for integrals indistinguishable from zero).  Panels
    still above their share at ``max_depth`` raise one ``RuntimeWarning``.
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
    scale = max(abs(whole), abs_floor)
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
