"""Independent oracles used by the test suite.

Everything here recomputes expected values through a route that shares no
code with the implementation under test: brute-force scans, explicit
antiderivatives, textbook convolution integrals, conditional Monte Carlo
estimators whose only library inputs are the margins' ``survival`` and
``pdf`` and ``ClaimModel.sample_sequence``, and a path-by-path sampler that
uses the model's single-variate draws (``interarrivals``, ``xi_at``,
``sample_sequence``) but not the chunk engine.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats
from scipy.interpolate import CubicSpline

from ruinflow.dependence import ClaimModel
from ruinflow.heavy_tails import CubicSurvival, HarmonicSurvival, Lognormal, Pareto
from ruinflow.rare_sets import HalfSpace, MaxExceed, PolyhedralUnion


def member_from_definition(rare_set, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Membership ``z in u*A`` straight from the defining inequalities,
    vectorized over a grid of scales ``u``."""
    if isinstance(rare_set, MaxExceed):
        return (z[None, :] > u[:, None] * np.asarray(rare_set.b)[None, :]).any(axis=1)
    if isinstance(rare_set, HalfSpace):
        return float(np.dot(rare_set.l, z)) > u * rare_set.b
    if isinstance(rare_set, PolyhedralUnion):
        out = np.zeros(u.shape, dtype=bool)
        for p in rare_set.parts:
            out |= member_from_definition(p, z, u)
        return out
    raise TypeError(type(rare_set).__name__)


def grid_search_scalarization(rare_set, z, step: float = 1e-4) -> float:
    """Brute-force ``sup{u : z in u*A}`` over a u-grid of the given step.

    The scan ceiling is ``10 * max(z) / min(set scale parameters)``, which
    brackets the supremum for every catalog set.  A coarse scan locates the
    bracketing cell, then a fine scan at ``step`` resolves it; for
    nonnegative ``z`` the membership indicator is nonincreasing in ``u``,
    so the two-stage scan returns exactly the full fine-grid supremum.
    """
    z = np.asarray(z, dtype=float)
    u_max = 10.0 * max(float(z.max()), step) / _min_scale(rare_set)
    coarse_step = max(step, u_max / 2000.0)
    coarse = np.arange(coarse_step, u_max + coarse_step, coarse_step)
    hits = member_from_definition(rare_set, z, coarse)
    if not hits.any():
        return 0.0
    last = coarse[hits][-1]
    fine = np.arange(max(step, last - coarse_step), min(last + 2 * coarse_step, u_max) + step, step)
    fh = member_from_definition(rare_set, z, fine)
    return float(fine[fh][-1]) if fh.any() else float(last)


def _min_scale(rare_set) -> float:
    if isinstance(rare_set, MaxExceed):
        return min(rare_set.b)
    if isinstance(rare_set, HalfSpace):
        return rare_set.b
    if isinstance(rare_set, PolyhedralUnion):
        return min(p.b for p in rare_set.parts)
    raise TypeError(type(rare_set).__name__)


def pareto1_sum_survival(s: float) -> float:
    """Exact ``P[X1 + X2 > s]`` for i.i.d. unit-scale laws with tail ``1/x``.

    Antiderivative of the convolution integral: for ``s >= 2``,
    ``2/s + 2 ln(s-1)/s^2``.
    """
    if s <= 2.0:
        return 1.0
    return 2.0 / s + 2.0 * math.log(s - 1.0) / s**2


def convolution_survival(sf1, sf2, pdf2, support_min1: float, support_min2: float,
                         s: float) -> float:
    """``P[X1 + X2 > s]`` for independent components by direct quadrature.

    Conditions on the second component: beyond ``s - support_min1`` the first
    component's floor alone pushes the sum over the level.  The range splits
    at ``y = s/2``, and the upper half is integrated in ``t = s - y``, so the
    first component's argument never comes from a cancelling difference.
    ``epsabs=0`` keeps the value accurate relative to itself however small
    it is.
    """
    if s <= support_min1 + support_min2:
        return 1.0
    y_hi = s - support_min1
    y_mid = min(max(s / 2.0, support_min2), y_hi)
    lower = _quad_from_floor(lambda y: sf1(s - y) * pdf2(y), support_min2, y_mid)
    upper = _quad_from_floor(lambda t: sf1(t) * pdf2(s - t), support_min1, s - y_mid)
    return min(1.0, float(sf2(y_hi)) + lower + upper)


def scipy_law(margin):
    """The margin's law as a frozen ``scipy.stats`` distribution, from its parameters alone:
    a cubic survival ``(1 + x**3)**-1`` is Burr XII with ``c = 3, d = 1``, a harmonic one
    ``(1 + x)**-1`` is Lomax with ``c = 1``."""
    if isinstance(margin, Pareto):
        return stats.pareto(margin.alpha, scale=margin.scale)
    if isinstance(margin, Lognormal):
        return stats.lognorm(margin.sigma, scale=math.exp(margin.mu))
    if isinstance(margin, CubicSurvival):
        return stats.burr12(3.0, 1.0)
    if isinstance(margin, HarmonicSurvival):
        return stats.lomax(1.0)
    raise TypeError(type(margin).__name__)


def weighted_sum_survival(margins, l, s: float) -> float:
    """``P[l1 X1 + l2 X2 > s]`` for independent margins, convolving the densities and
    survivals of their ``scipy.stats`` laws: no library survival or density is read."""
    (a, b), (l1, l2) = (scipy_law(m) for m in margins), l
    return convolution_survival(lambda v: a.sf(v / l1), lambda v: b.sf(v / l2),
                                lambda v: b.pdf(v / l2) / l2, l1 * a.support()[0],
                                l2 * b.support()[0], s)


def _quad_from_floor(f, lo: float, hi: float) -> float:
    """``integral_lo^hi f`` with break hints at decades above ``lo``, up to the
    width: the mass of either piece sits near its lower end, on every scale."""
    if not hi > lo:
        return 0.0
    pts = [lo + 10.0**e for e in range(-2, int(math.log10(hi - lo)) + 1)]
    val, _ = integrate.quad(f, lo, hi, epsabs=0.0, limit=500,
                            points=[p for p in pts if lo < p < hi])
    return float(val)


def erlang2_renewal_function(rate: float, t: float) -> float:
    """Closed-form renewal function for Erlang(2, rate) interarrivals."""
    return rate * t / 2.0 - 0.25 + 0.25 * math.exp(-2.0 * rate * t)


def erlang_laplace(k: int, rate: float, s: float) -> float:
    """``E[exp(-s G)]`` for ``G`` an Erlang(k, rate) interarrival, ``s > -rate``."""
    return (rate / (rate + s)) ** k


def entrance_time_cdf(alpha: float, r: float, t: float) -> float:
    """The ``x -> inf`` law of the first entrance time, conditioned on being finite,
    for regularly varying claims of index ``alpha``, Poisson arrivals and a constant
    force ``r > 0``: exponential with rate ``alpha * r``."""
    return 1.0 - math.exp(-alpha * r * t)


def deterministic_pareto_entrance_integral(alpha: float, scale: float, lam: float,
                                           r: float, x: float, T: float) -> float:
    """Antiderivative of ``lam * integral_0^T ((x e^{rs})/scale)^-alpha ds``
    for ``x >= scale`` (single line, unit ray)."""
    if r == 0:
        return lam * T * (x / scale) ** -alpha
    return lam * (x / scale) ** -alpha * (1.0 - math.exp(-alpha * r * T)) / (alpha * r)


# ---------------------------------------------------------------------------
# nested quadrature of the first-order horizon integral
#
# ``integral_0^T E[S_A(x exp(xi(s)))] u(s) ds`` by nested ``integrate.quad``
# at epsrel 1e-12, with the law of ``xi(s)`` integrated by its own density.

NESTED_EPSREL = 1e-12


def _quad(f, a, b, **kw):
    return integrate.quad(f, a, b, epsabs=0.0, epsrel=NESTED_EPSREL, limit=500, **kw)[0]


def deterministic_horizon_integral(sa, density, r: float, x: float, T: float) -> float:
    """``xi(s) = r s``: one quadrature over the lag against the renewal density."""
    return _quad(lambda s: sa(x * math.exp(r * s)) * density(s), 0.0, T)


def brownian_occupation_density(y: float, mu: float, sigma: float, T: float) -> float:
    """``integral_0^T`` of the normal density of ``mu s + sigma B(s)`` at ``y``, ``mu != 0``.

    With ``a = |y|/sigma`` and ``b = |mu|/sigma``, the Laplace-transform pair
    of the inverse Gaussian law gives ``e^{y mu/sigma^2} / (2 b sigma)`` times
    ``e^{-ab} erfc((a - bT)/sqrt(2T)) - e^{ab} erfc((a + bT)/sqrt(2T))``; the
    second term goes through ``erfcx`` so that it cannot overflow.
    """
    from scipy import special

    a, b = abs(y) / sigma, abs(mu) / sigma
    z1, z2 = (a - b * T) / math.sqrt(2.0 * T), (a + b * T) / math.sqrt(2.0 * T)
    bracket = math.exp(-a * b) * special.erfc(z1) - math.exp(a * b - z2 * z2) * special.erfcx(z2)
    return math.exp(y * mu / sigma**2) * bracket / (2.0 * b * sigma)


def brownian_horizon_integral(sa, rate: float, mu: float, sigma: float, x: float,
                              T: float) -> float:
    """``xi(s) = mu s + sigma B(s)`` under Poisson(rate) arrivals, for a set whose
    ``S_A`` is one below a unit floor.

    The order is swapped: the lag integral of the density of ``xi(s)`` is the
    occupation density above, and ``S_A(x e^y)`` is integrated against it,
    split at ``y = -ln x`` (below it ``S_A`` is one) and at the kernel's kink
    ``y = 0``.
    """
    kernel = lambda y: rate * brownian_occupation_density(y, mu, sigma, T)
    cut = -math.log(x)
    reach = abs(mu) * T + 40.0 * sigma * math.sqrt(T)
    edges = sorted({cut, cut + reach} | ({0.0} if cut < 0.0 else set()))
    total = _quad(kernel, cut - reach, cut)
    for lo, hi in zip(edges, edges[1:]):
        total += _quad(lambda y: sa(x * math.exp(y)) * kernel(y), lo, hi)
    return total


def compound_poisson_horizon_integral(sa, rate: float, drift: float, jump_rate: float,
                                      jump_mean: float, x: float, T: float) -> float:
    """``xi(s)`` a drift plus Poisson(jump_rate s) exponential jumps (mean ``jump_mean``),
    under Poisson(rate) arrivals: the jump sum's law is the Poisson mixture of
    gamma densities, each integrated by quadrature, summed until the Poisson
    weight is below 1e-16 past the mean."""
    def mean_sa(s):
        m, base = jump_rate * s, x * math.exp(drift * s)
        total, k, pk = math.exp(-m) * sa(base), 0, math.exp(-m)
        while k < m or pk > 1e-16:
            k += 1
            pk *= m / k
            log_norm = math.lgamma(k) + k * math.log(jump_mean)
            gamma = lambda g, k=k, c=log_norm: math.exp((k - 1) * math.log(g) - g / jump_mean - c)
            top = jump_mean * (k + 40.0 * math.sqrt(k) + 40.0)
            total += pk * _quad(lambda g: sa(base * math.exp(g)) * gamma(g), 0.0, top)
        return total

    return rate * _quad(mean_sa, 0.0, T)


# ---------------------------------------------------------------------------
# conditional Monte Carlo (Asmussen–Kroese) for entrance probabilities
#
# The estimators below share with the library only the margins' ``survival``
# and ``pdf`` and ``ClaimModel.sample_sequence`` (validated on its own by
# acceptance criterion 3); arrivals, discounting, scalarization and every
# quadrature are recomputed here.

#: paths per block of the conditional estimators, which bounds their memory
ORACLE_CHUNK = 20_000
#: spline knots per decade of the tabulated conditional survival; the
#: interpolation error stays below 1e-4 relative
KNOTS_PER_DECADE = 10


def fgm_pair_bump(dist, s: float) -> float:
    """Coupling term ``H`` of the FGM conditional survival of ``X1 + X2``.

    With ``g = f (1 - 2S)`` and ``G = S F`` (so that ``-G' = g``),
    ``H(s) = int int_{y1 + y2 > s} g(y1) g(y2) = 2 int_a^{s/2} g(y) G(s-y) dy
    + G(s/2)^2`` with ``a`` the support floor: split at the half level, both
    coordinates above it giving the product term.  Integrated with
    ``epsabs=0`` so that the value is resolved relative to itself however
    small it is.
    """
    def sf_times_cdf(y):
        sv = dist.survival(np.asarray(y))
        return float(sv * (1.0 - sv))

    a, half = dist.support_min, 0.5 * s
    val = 0.0
    if half > a:
        pts = [a + 10.0**e for e in range(-6, 8) if a + 10.0**e < half]
        val, _ = integrate.quad(
            lambda y: float(dist.pdf(np.asarray(y)) * (1.0 - 2.0 * dist.survival(np.asarray(y))))
            * sf_times_cdf(s - y),
            a, half, epsabs=0.0, epsrel=1e-8, limit=500, points=pts or None)
    return 2.0 * val + sf_times_cdf(half) ** 2


def _poisson_arrivals(rng, n: int, rate: float, horizon: float):
    """Arrival times of a Poisson process on ``[0, horizon]``, one path per row.

    Rows are padded to an even width with ``inf``: given its count, a path's
    arrivals are the order statistics of uniforms on the horizon.
    """
    counts = rng.poisson(rate * horizon, n)
    width = int(counts.max()) + 1
    width += width % 2
    times = rng.random((n, width)) * horizon
    times[np.arange(width)[None, :] >= counts[:, None]] = np.inf
    return np.sort(times, axis=1)


def arrival_times(renewal, T: float, rng) -> np.ndarray:
    """Arrival times of one path in ``(0, T]``, summed from ``renewal.interarrivals``."""
    times = np.cumsum(renewal.interarrivals(rng, 32))
    while times[-1] <= T:
        times = np.concatenate((times, times[-1] + np.cumsum(renewal.interarrivals(rng, 32))))
    return times[times <= T]


def reference_endpoint(model, T: float, rng) -> np.ndarray:
    """``D(T)`` of one path, drawn arrival by arrival; the empty path gives zero."""
    tau = arrival_times(model.renewal, T, rng)
    if tau.size == 0:
        return np.zeros(model.claim.d)
    xi = np.cumsum(model.ret.xi_at(np.diff(tau, prepend=0.0), rng))
    return np.exp(-xi) @ model.claim.sample_sequence(tau.size, rng)


def _others(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum and maximum of the other entries of each row, entry by entry."""
    top = np.argmax(y, axis=1)
    first = y[np.arange(y.shape[0]), top]
    second = np.partition(y, y.shape[1] - 2, axis=1)[:, -2]
    is_top = np.arange(y.shape[1])[None, :] == top[:, None]
    return (y.sum(axis=1, keepdims=True) - y,
            np.where(is_top, second[:, None], first[:, None]))


def _conditional_estimate(others: tuple, w: np.ndarray, on: np.ndarray, x: float,
                          cond_sf) -> np.ndarray:
    """Per-path Asmussen–Kroese estimate of ``P[sum_i w_i Z_i > x]``.

    ``others`` holds ``S_{-i}`` and ``M_{-i}``, the sum and the maximum of
    the discounted scalarized claims other than the i-th (see
    :func:`_others`).  The conditioning identity: the largest term is unique
    almost surely, so ``P[sum > x] = sum_i P[w_i Z_i > max(x - S_{-i}, M_{-i})]``,
    and each summand is evaluated in closed form given everything but
    ``Z_i`` by ``cond_sf(v, on)``, the conditional survival of ``Z_i`` at the
    on-path arguments ``v``.  Entries off the path (``on`` False) add nothing.
    """
    rest_sum, rest_max = others
    v = np.maximum(x - rest_sum[on], rest_max[on]) / w[on]
    terms = np.zeros_like(w)
    terms[on] = cond_sf(v, on)
    return terms.sum(axis=1)


def fgm_entrance_conditional_mc(claim, weight: float, rate: float, r: float, T: float,
                                x_levels, n_paths: int, seed: int):
    """Conditional Monte Carlo for ``P[D(T) in x*A]`` under an FGM chain.

    Model: Poisson(``rate``) arrivals on ``[0, T]``, deterministic force of
    interest ``r`` (so ``w_i = e^{-r tau_i}``), claim vectors from ``claim``
    (an FGM chain; consecutive arrivals pair up), and the half-space
    ``{weight*(z1 + z2) > 1}``, whose scalarization is linear:
    ``z(D) = sum_i w_i Z_i`` with ``Z_i = weight*(X_i1 + X_i2)``.

    Given its partner ``j``, ``Z_i`` has conditional survival
    ``S_Z(v) + kappa_i H(v / weight)``, with ``S_Z(v) = P[X1 + X2 > v/weight]``
    from :func:`convolution_survival`, ``H`` from :func:`fgm_pair_bump` and
    ``kappa_i = theta (1 - 2S(X_j1)) (1 - 2S(X_j2))``; ``kappa_i = 0`` when the
    partner arrives after ``T``.  Both functions are tabulated from this
    module's quadrature.  Returns ``(p, se)`` arrays over ``x_levels``.
    """
    dist, theta = claim.margins[0], claim.inter.theta
    x_levels = np.asarray(x_levels, dtype=float)
    rng = np.random.default_rng(seed)
    per_path = np.zeros((x_levels.size, n_paths))
    # arguments of the conditional survival lie in [x/n, x e^{rT}] for a path
    # with n arrivals, and n stays far below 200
    lo, hi = x_levels.min() / 200.0, x_levels.max() * math.exp(r * T) * 1.01
    knots = np.geomspace(lo, hi, int(KNOTS_PER_DECADE * math.log10(hi / lo)) + 2)
    a = dist.support_min
    s_vals = np.array([convolution_survival(dist.survival, dist.survival, dist.pdf, a, a, v / weight)
                       for v in knots])
    h_vals = np.array([fgm_pair_bump(dist, v / weight) for v in knots])
    # splines in log v: log S_Z is smooth there, and H is tabulated relative to S_Z
    log_sz = CubicSpline(np.log(knots), np.log(s_vals))
    h_rel = CubicSpline(np.log(knots), h_vals / s_vals)
    for start in range(0, n_paths, ORACLE_CHUNK):
        n = min(ORACLE_CHUNK, n_paths - start)
        tau = _poisson_arrivals(rng, n, rate, T)
        on = np.isfinite(tau)
        w = np.where(on, np.exp(-r * np.where(on, tau, 0.0)), 0.0)
        width = tau.shape[1]
        xs = claim.sample_sequence(n * width, rng).reshape(n, width, 2)
        sv = dist.survival(xs)
        partner = np.arange(width) ^ 1
        kappa = np.where(on[:, partner],
                         theta * (1.0 - 2.0 * sv[:, partner, 0]) * (1.0 - 2.0 * sv[:, partner, 1]),
                         0.0)

        def cond_sf(v, mask):
            if v.size and not knots[0] <= v.min() <= v.max() <= knots[-1]:
                raise ValueError("conditional-survival argument outside the table")
            lv = np.log(v)
            return np.exp(log_sz(lv)) * (1.0 + kappa[mask] * h_rel(lv))

        others = _others(w * weight * xs.sum(axis=2))
        for j, x in enumerate(x_levels):
            per_path[j, start:start + n] = _conditional_estimate(others, w, on, x, cond_sf)
    return per_path.mean(axis=1), per_path.std(axis=1, ddof=1) / math.sqrt(n_paths)


def entrance_time_conditional_mc(dist, rate: float, r: float, horizon: float, x_levels,
                                 t_grid, n_paths: int, seed: int):
    """Conditional Monte Carlo for the first-entrance-time law of a single line.

    Model: i.i.d. claims ``dist`` on the ray ``{z > 1}``, Poisson(``rate``)
    arrivals and deterministic force of interest ``r``.  Claims are
    nonnegative and discounting is deterministic, so ``D`` only grows and
    ``{tau(x) <= t} = {D(t) > x}``: each point of the law is an entrance
    probability over the horizon ``t``, estimated with the claim survival as
    the conditional survival.  All levels and the whole time grid reuse one
    set of paths (common random numbers).

    Returns ``(mass, mass_se, cdf, cdf_se)`` with one row per level:
    ``P[tau(x) <= horizon]`` and ``P[tau(x) <= t | tau(x) <= horizon]`` on
    ``t_grid``, with delta-method standard errors for the ratio.
    """
    x_levels = np.asarray(x_levels, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    claim = ClaimModel.iid((dist,))
    rng = np.random.default_rng(seed)
    times = np.append(t_grid, horizon)
    per_path = np.zeros((x_levels.size, times.size, n_paths))
    for start in range(0, n_paths, ORACLE_CHUNK):
        n = min(ORACLE_CHUNK, n_paths - start)
        tau = _poisson_arrivals(rng, n, rate, horizon)
        xs = claim.sample_sequence(tau.size, rng)[:, 0].reshape(tau.shape)
        w_all = np.exp(-r * np.where(np.isfinite(tau), tau, 0.0))
        for j, t in enumerate(times):
            # rows are sorted in time: no path has an arrival by t past column k
            k = max(2, int(np.count_nonzero(tau <= t, axis=1).max()))
            on = tau[:, :k] <= t
            w = np.where(on, w_all[:, :k], 0.0)
            others = _others(w * xs[:, :k])
            for i, x in enumerate(x_levels):
                per_path[i, j, start:start + n] = _conditional_estimate(
                    others, w, on, x, lambda v, mask: dist.survival(v))
    full = per_path[:, -1, :]
    mass = full.mean(axis=1)
    mass_se = full.std(axis=1, ddof=1) / math.sqrt(n_paths)
    cdf = per_path[:, :-1, :].mean(axis=2) / mass[:, None]
    # delta method for a ratio of means over shared paths
    resid = per_path[:, :-1, :] - cdf[:, :, None] * full[:, None, :]
    cdf_se = resid.std(axis=2, ddof=1) / (math.sqrt(n_paths) * mass[:, None])
    return mass, mass_se, cdf, cdf_se
