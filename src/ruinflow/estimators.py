"""Asymptotic estimates for entrance probabilities of discounted claim vectors.

The central object is the first-order approximation

    P[ D(T) in x*A ]  ~  integral_0^T  P[ X exp(-xi(s)) in x*A ]  d(renewal measure)

valid as ``x -> infinity`` under one of three hypothesis sets, enforced here
as hard gates unless explicitly bypassed:

``consistent-variation`` (finite horizon)
    scalarized claim law consistently varying, scalarized exceedances
    quasi-asymptotically independent, returns bounded below on [0, T].

``subexponential-monotone`` (finite horizon)
    scalarized claim law subexponential, scalarized exceedances regression
    dependent, return paths non-decreasing.

``infinite-horizon`` (T = infinity)
    scalarized claim law consistently varying and positively decreasing,
    quasi-asymptotic independence, and summable discounted moments, which for
    Levy returns is the one condition ``phi(J+) < 0`` on the Laplace exponent
    at the upper decay exponent.

For claim vectors with a jointly regularly-varying (heaviest-tail) structure
the right-hand side collapses to the closed form
``mu(A) * max(x, 1)**-alpha * integral e^{s phi(alpha)} d(renewal measure)``
exposed by :func:`mrv_closed_form`: the unit-Pareto survival times the
limit-measure mass :func:`mrv_mu` of independent components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import GK_REL_TOL, gauss_kronrod, kronrod_weights
from .dependence import (
    ClaimModel,
    UnsupportedModelError,
    _scalarized_survival,
    scalarized_survival,
)
from .heavy_tails import Pareto
from .processes import LevyReturns, RenewalIID
from .rare_sets import RareSet, z_index

__all__ = [
    "ModelSpec",
    "HypothesisError",
    "ModeReport",
    "resolve_finite_mode",
    "resolve_infinite_mode",
    "single_claim_entrance",
    "asymptotic_entrance_finite",
    "asymptotic_entrance_infinite",
    "HorizonEstimate",
    "mrv_mu",
    "mrv_closed_form",
]

class HypothesisError(ValueError):
    """A theorem-mode hypothesis failed; carries the checks of the gate it failed."""

    def __init__(self, checks):
        self.checks = tuple(checks)
        super().__init__("asymptotic mode unavailable: " + "; ".join(
            f"{name}: {detail}" for name, ok, detail in self.checks if not ok))


@dataclass(frozen=True)
class ModelSpec:
    """Full experiment model: claims, target set, arrivals, returns."""

    claim: ClaimModel
    rare_set: RareSet
    renewal: RenewalIID
    ret: LevyReturns

    def __post_init__(self):
        if self.claim.d != self.rare_set.dim:
            raise ValueError("claim dimension does not match set dimension")


@dataclass(frozen=True)
class ModeReport:
    """Resolved asymptotic mode plus the individual hypothesis checks."""

    mode: str | None
    checks: tuple[tuple[str, bool, str], ...]

    def require(self):
        if self.mode is None:
            raise HypothesisError(self.checks)
        return self


def _check(name: str, ok: bool, failure: str) -> tuple[str, bool, str]:
    """One hypothesis check as the report prints it: ``holds`` or why not."""
    return (name, ok, "holds" if ok else failure)


def _claim_checks(claim: ClaimModel) -> tuple[tuple[str, bool, str], ...]:
    """The claim-law checks the modes draw from: identical vector laws,
    consistent variation, positive decrease, QAI, subexponentiality and
    regression dependence, in that order."""
    tags = claim.scalarized_tags()
    return (
        _check("identically distributed claim vectors", claim.identically_distributed,
               "the dependence structure alternates vector laws"),
        _check("consistently varying scalarized claims", tags.consistently_varying,
               "scalarized law lacks consistent variation"),
        _check("positively decreasing scalarized claims", tags.positively_decreasing,
               "lower decay exponent is zero"),
        _check("quasi-asymptotically independent scalarizations", claim.scalarized_qai,
               "scalarized exceedances are not quasi-asymptotically independent"),
        _check("subexponential scalarized claims", tags.subexponential,
               "scalarized law is not subexponential"),
        _check("regression-dependent scalarizations", claim.scalarized_rd,
               "dependence structure violates regression dependence"),
    )


def resolve_finite_mode(model: ModelSpec, T: float) -> ModeReport:
    """Pick the finite-horizon mode whose hypotheses the model satisfies.

    Tries the consistent-variation mode first, then the
    subexponential-monotone mode; the report lists every check so gate
    failures can name the violated hypothesis.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError("need a finite positive horizon")
    ident, cv, _, qai, sub, rd = _claim_checks(model.claim)
    floor = model.ret.bounded_below(T)
    bounded = ("returns bounded below on [0, T]", floor is not None,
               f"paths are unbounded below ({' and '.join(model.ret.unbounded_below_by)})"
               if floor is None else f"floor {floor:g}")
    monotone = _check("non-decreasing return paths", model.ret.nondecreasing_paths,
                      "return paths can decrease")
    for mode, checks in (("consistent-variation", (ident, cv, qai, bounded)),
                         ("subexponential-monotone", (ident, sub, rd, monotone))):
        if all(ok for _, ok, _ in checks):
            return ModeReport(mode, checks)
    return ModeReport(None, (ident, cv, qai, bounded, sub, rd, monotone))


def resolve_infinite_mode(model: ModelSpec) -> ModeReport:
    """Check the infinite-horizon hypotheses, moment summability among them.

    The theorem needs ``sum_i E[exp(-p xi(tau_i))]`` finite at some exponents
    ``0 < p1 < J- <= J+ < p2``.  For Levy returns over renewal arrivals the
    ``i``-th term is ``E[exp(tau_1 phi(p))]**i``, a geometric series that
    converges exactly when ``phi(p) < 0`` (Paulsen 2008, *Probab. Surveys* 5).
    ``phi`` is convex with ``phi(0) = 0``, so it is negative on ``(0, p]`` once
    it is negative at ``p``: such ``p1`` and ``p2`` exist exactly when
    ``phi(J+) < 0``, given the ``J- > 0`` of the positive-decrease check.
    """
    ident, cv, pd, qai, _, _ = _claim_checks(model.claim)
    j_up = model.claim.scalarized_matuszewska()
    if j_up is None:
        moments = ("finite polynomial decay exponents", False,
                   "scalarized law decays faster than every power")
    else:
        phi = model.ret.laplace_exponent(j_up)
        moments = ("discounted-moment summability", phi < 0, f"phi(J+={j_up})={phi:.6g}")
    checks = (ident, cv, pd, qai, moments)
    ok = all(flag for _, flag, _ in checks)
    return ModeReport("infinite-horizon" if ok else None, checks)


# ---------------------------------------------------------------------------
# single-claim entrance expectation


def single_claim_entrance(model: ModelSpec, x: float, s: float) -> float:
    """Entrance probability ``E[ S_A(x exp(xi(s))) ]`` of a single discounted
    claim at lag ``s``: the scalarized single-vector survival ``S_A`` summed
    over the return process's quadrature rule for ``xi(s)``."""
    if not x > 0:
        raise ValueError("threshold must be positive")
    if not 0 <= s < math.inf:
        raise ValueError("time must be finite and nonnegative")
    nodes, weights = model.ret.xi_rule(s)
    return float(weights @ scalarized_survival(model.claim, model.rare_set, x * np.exp(nodes)))


# ---------------------------------------------------------------------------
# horizon integrals

#: survival-table nodes per decade of ``v - floor``, the table's node cap, and the
#: largest table error (averaged over a row's integrand) of a converged row
TABLE_NODES_PER_DECADE, TABLE_MAX_NODES, TABLE_REL_TOL = 20, 1200, 1e-6
#: largest share of an infinite-horizon value that the tail past its truncation horizon may carry
TAIL_REL_BOUND = 1e-3
_PAD = 3  # table nodes past the points on each side: their cells' slopes are 4th order
_LN_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class HorizonEstimate:
    """A horizon integral per threshold (floats for one threshold): the value up to
    ``horizon``, its relative error (the quadrature's estimate plus the survival
    table's certificate), ``converged`` (False when either exceeds its tolerance
    or a convolution behind the table did not converge), and the analytic bound
    on the tail past ``horizon`` (0 for a finite horizon)."""

    value: float | np.ndarray
    rel_error: float | np.ndarray
    converged: bool | np.ndarray
    horizon: float | np.ndarray
    tail_bound: float | np.ndarray
    tail_bound_rel: float | np.ndarray

    def __float__(self) -> float:
        return float(self.value)


class _Column:
    """The horizon integrals of one model at a 1-d array of thresholds, span by span.

    The integrand at lag ``s`` is the renewal density times ``E[S_A(x
    exp(xi(s)))]`` over the return process's rule for ``xi(s)``.  ``S_A`` is
    read from one table, grown to span the points asked for: exactly 1 at or
    below the floor (the scalarized support floors of the margins), and above
    it ``ln S_A`` on the lattice ``ln(v - floor) = k h`` (nodes and midpoints
    interleaved from half-index ``j0``), read by cubic Hermite with
    fourth-order difference slopes.  Each cell is certified by a direct
    evaluation at its midpoint, where the Hermite error peaks.  A point below
    the first node of a table capped at :data:`TABLE_MAX_NODES` reads that
    node, within ``1 / S_A(node) - 1``.
    """

    def __init__(self, model: ModelSpec, x):
        self.x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.x.ndim > 1 or not np.all((self.x > 0) & (self.x < math.inf)):
            raise ValueError("thresholds must be finite and positive")
        self.model, self.h, self.j0 = model, math.log(10.0) / TABLE_NODES_PER_DECADE, 0
        self.floor = z_index(model.rare_set, [m.support_min for m in model.claim.margins])
        self.ln, self.bad = np.empty(0), np.empty(0, dtype=bool)
        # per row: value, quadrature error, table error, and whether a cell read was unconverged
        self.value, self.quad_err, self.table_err = np.zeros((3, self.x.size))
        self.unconverged = np.zeros(self.x.size, dtype=bool)

    def _cover(self, j_lo: int, j_hi: int) -> None:
        """Tabulate the half-indices ``j_lo..j_hi`` (even) that are new."""
        old_lo, old_hi = self.j0, self.j0 + self.ln.size - 1
        if not self.ln.size:
            old_lo, old_hi = j_hi + 1, j_hi
        elif j_lo >= old_lo and j_hi <= old_hi:
            return
        j_lo, j_hi = min(j_lo, old_lo), max(j_hi, old_hi)
        new = np.r_[j_lo:old_lo, old_hi + 1:j_hi + 1]
        surv, bad = _scalarized_survival(self.model.claim, self.model.rare_set,
                                         self.floor + np.exp(0.5 * self.h * new))
        bad = np.zeros(new.size, dtype=bool) if bad is None else bad
        with np.errstate(divide="ignore"):
            ln = np.maximum(np.log(surv), -700.0)  # an underflow stays finite
        k = old_lo - j_lo
        self.ln, self.bad = np.r_[ln[:k], self.ln, ln[k:]], np.r_[bad[:k], self.bad, bad[k:]]
        self.j0, f = j_lo, self.ln[::2]
        d = np.gradient(f, edge_order=2)  # slopes per node step
        d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / 12.0
        rise, d0, d1 = np.diff(f), d[:-1], d[1:]
        self.cubic = (d0 + d1 - 2.0 * rise, 3.0 * rise - 2.0 * d0 - d1, d0, f[:-1])  # in t, Horner
        mid = f[:-1] + 0.5 * rise + 0.125 * (d0 - d1)
        self.cell_err = np.expm1(np.minimum(np.abs(mid - self.ln[1::2]), 700.0))
        self.cell_bad = self.bad[:-2:2] | self.bad[1::2] | self.bad[2::2]

    def survival(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``S_A`` at each entry of ``v``, its relative error bound, and whether a
        quadrature behind it did not converge."""
        surv, err, bad = np.ones_like(v), np.zeros_like(v), np.zeros(v.shape, dtype=bool)
        surv[v == np.inf] = 0.0  # the limit, not a table point
        above = (v > self.floor) & (v < np.inf)
        if not above.any():
            return surv, err, bad
        t = np.log(v[above] - self.floor) / self.h
        k_hi = min(math.ceil(t.max()) + _PAD, int(_LN_MAX / self.h))  # exp(k h) is a float
        self._cover(2 * max(math.floor(t.min()) - _PAD, k_hi + 1 - TABLE_MAX_NODES), 2 * k_hi)
        t -= self.j0 // 2
        gap = t < 0.0
        cell = np.minimum(np.maximum(t, 0.0, out=t).astype(np.intp), self.cell_err.size - 1)
        t -= cell
        ln = self.cubic[0].take(cell)
        for coef in self.cubic[1:]:
            ln *= t
            ln += coef.take(cell)
        surv[above] = np.exp(ln)
        err[above] = np.where(gap, np.expm1(-self.ln[0]), self.cell_err.take(cell))
        bad[above] = self.cell_bad.take(cell) | (gap & self.bad[0])
        return surv, err, bad

    def add(self, rows: np.ndarray, a: float, b: float) -> None:
        """Integrate the rows ``rows`` over ``[a, b]`` and add to their records; the
        table error is the cells' certificates averaged over the integrand by the
        first round's one Kronrod panel."""
        if not rows.size:
            return
        first = []

        def integrand(s, live):
            rules = [self.model.ret.xi_rule(t) for t in s]
            starts = np.cumsum([0] + [nodes.size for nodes, _ in rules[:-1]])
            nodes = np.concatenate([nodes for nodes, _ in rules])
            weights = np.concatenate([w * self.model.renewal.renewal_density(t)
                                      for t, (_, w) in zip(s, rules)])
            with np.errstate(over="ignore"):  # a claim level past the float range is inf
                v = self.x[rows[live], None] * np.exp(nodes)
            surv, err, bad = self.survival(v)
            self.unconverged[rows[live]] |= bad.any(axis=1)
            if not first:  # the first round: every row on one panel, the nodes of kronrod_weights
                first.extend((surv * weights, err, starts))
            return np.add.reduceat(surv * weights, starts, axis=1)

        value, err = gauss_kronrod(integrand, a, b, rows.size)
        terms, rel, starts = first
        num, den = (np.add.reduceat(y, starts, axis=1) @ kronrod_weights(a, b)
                    for y in (terms * rel, terms))
        self.value[rows] += value
        self.quad_err[rows] += err
        self.table_err[rows] += value * np.divide(num, den, out=np.zeros_like(num), where=den > 0)

    def estimate(self, x, horizon, tail_bound) -> HorizonEstimate:
        """The rows' record, shaped like ``x``."""
        quad, table = (np.divide(e, self.value, out=np.where(e > 0, np.inf, 0.0),
                                 where=self.value > 0) for e in (self.quad_err, self.table_err))
        converged = (quad <= GK_REL_TOL) & (table <= TABLE_REL_TOL) & ~self.unconverged
        with np.errstate(divide="ignore", invalid="ignore"):
            cols = (self.value, quad + table, converged, horizon, tail_bound,
                    tail_bound / self.value)
        return HorizonEstimate(*(c[0].item() for c in cols) if np.ndim(x) == 0 else cols)


def asymptotic_entrance_finite(model: ModelSpec, x, T: float,
                               unsafe: bool = False) -> HorizonEstimate:
    """First-order entrance approximation over a finite horizon, at one threshold
    or a 1-d array of them.

    Adaptive Gauss-Kronrod integration of the single-claim entrance
    probability against the renewal density, for every threshold at once;
    the hypothesis gate runs first unless ``unsafe`` is set.
    """
    column = _Column(model, x)
    if not 0 <= T < math.inf:
        raise ValueError("need a finite nonnegative horizon; use asymptotic_entrance_infinite")
    if T > 0:
        if not unsafe:
            resolve_finite_mode(model, T).require()
        column.add(np.arange(column.x.size), 0.0, T)
    return column.estimate(x, np.full(column.x.size, T), np.zeros(column.x.size))


def asymptotic_entrance_infinite(model: ModelSpec, x, unsafe: bool = False) -> HorizonEstimate:
    """First-order entrance approximation with ``T = infinity``, at one threshold or
    a 1-d array of them.

    Each threshold runs to its own truncation horizon, the first on the grid
    ``T0 * 1.25**k``, ``T0 = max(1, ln 2 / |phi(alpha)|)``, where the analytic
    bound on its neglected tail is at most :data:`TAIL_REL_BOUND` of its value.
    The bound combines the global polynomial envelope of the scalarized claim
    law with the geometric decay of the discounted moments, so it cannot hold
    before the discounted renewal integral's own tail share does: the walk
    only steps until then, and from there integrates only the added stretch
    of the thresholds still open.
    """
    column = _Column(model, x)
    if not unsafe:
        resolve_infinite_mode(model).require()
    weights = model.claim.tail_weights()
    if weights is None:
        raise UnsupportedModelError(
            "truncation bound needs a polynomial envelope with one shared tail index")
    cs, alpha = weights
    c_env = model.rare_set.envelope_constant(cs, alpha)
    phi = model.ret.laplace_exponent(alpha)
    if phi >= 0:
        raise ValueError("no finite truncation horizon: Laplace exponent is nonnegative")
    total = model.renewal.discounted_integral(phi, math.inf)
    n = column.x.size
    live, reach, bound = np.arange(n), np.zeros(n), np.zeros(n)
    a, T = 0.0, max(1.0, -math.log(2.0) / phi)
    for _ in range(260):
        tail = model.renewal.discounted_tail_bound(phi, T)
        if tail <= TAIL_REL_BOUND * max(total - tail, 1e-300):
            column.add(live, a, T)
            a = reach[live] = T
            bound[live] = c_env * column.x[live] ** -alpha * tail
            live = live[bound[live] > TAIL_REL_BOUND * column.value[live]]
            if not live.size:
                return column.estimate(x, reach, bound)
        T *= 1.25
    raise RuntimeError("truncation horizon search did not converge")  # pragma: no cover


# ---------------------------------------------------------------------------
# regular-variation closed forms


def mrv_mu(tail_weights, alpha: float, rare_set: RareSet) -> float:
    """Limit-measure mass of a catalog set for independent regularly-varying
    components with the given tail weights.

    The limit measure of an independent-component vector concentrates on the
    coordinate axes (Resnick 2007, *Heavy-Tail Phenomena*), and the axis ray
    ``t e_i`` enters the set where ``t z_index(A, e_i) > 1``, so the mass is
    ``sum_i c_i z_index(A, e_i)**alpha`` for every set in the catalog.
    """
    c = np.asarray(tail_weights, dtype=float)
    if not np.all(c >= 0):
        raise ValueError("tail weights must be nonnegative")
    if not alpha > 0:
        raise ValueError("tail index must be positive")
    if c.size != rare_set.dim:
        raise ValueError("tail-weight dimension does not match the set")
    return float(np.sum(c * z_index(rare_set, np.eye(c.size)) ** alpha))


def mrv_closed_form(model: ModelSpec, x: float, T: float) -> float:
    """Closed-form first-order entrance value for regularly-varying claims.

    ``mu(A) * max(x, 1)**-alpha * integral_0^T exp(s phi(alpha)) d(renewal measure)``
    with ``mu(A) = mrv_mu(*claim.tail_weights(), A)`` and the renewal integral
    in closed form; ``T`` may be ``math.inf`` when ``phi(alpha) < 0``.
    """
    if not x > 0:
        raise ValueError("threshold must be positive")
    if not T >= 0:
        raise ValueError("horizon must be nonnegative")
    weights = model.claim.tail_weights()
    if weights is None or not model.claim.identically_distributed:
        raise UnsupportedModelError("closed form needs identically distributed vectors "
                                    "whose margins share one index and have power-tail weights")
    cs, alpha = weights
    integral = model.renewal.discounted_integral(model.ret.laplace_exponent(alpha), T)
    return mrv_mu(cs, alpha, model.rare_set) * float(Pareto(alpha, 1.0).survival(x)) * integral

