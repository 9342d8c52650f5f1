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
    quasi-asymptotic independence, and geometric summability of the
    discounted moments (checked through the Laplace exponent).

For claim vectors with a jointly regularly-varying (heaviest-tail) structure
the right-hand side collapses to the closed form
``mu(A) * S_ref(x) * integral e^{s phi(alpha)} d(renewal measure)`` exposed by
:func:`mrv_closed_form`, with the limit-measure mass :func:`mrv_mu` available
for independent components in the parametric set catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import adaptive_simpson
from .dependence import ClaimModel, UnsupportedModelError, scalarized_survival
from .heavy_tails import Pareto, TailDistribution
from .processes import (
    TAIL_REL_BOUND,
    RenewalIID,
    ReturnProcess,
    check_discount_summability,
    discount_integral_tail_bound,
    truncation_horizon,
)
from .rare_sets import RareSet, z_index

__all__ = [
    "MrvSpec",
    "ModelSpec",
    "HypothesisError",
    "ModeReport",
    "resolve_finite_mode",
    "resolve_infinite_mode",
    "single_claim_entrance",
    "asymptotic_entrance_finite",
    "asymptotic_entrance_infinite",
    "InfiniteHorizonEstimate",
    "mrv_mu",
    "mrv_closed_form",
    "derive_mrv",
    "entrance_time_cdf",
]

class HypothesisError(ValueError):
    """A theorem-mode hypothesis failed; carries the checks of the gate it failed."""

    def __init__(self, checks):
        self.checks = tuple(checks)
        super().__init__("asymptotic mode unavailable: " + "; ".join(
            f"{name}: {detail}" for name, ok, detail in self.checks if not ok))


@dataclass(frozen=True)
class MrvSpec:
    """Jointly regularly-varying description of the claim vector.

    ``alpha`` is the common tail index, ``reference_tail`` the normalizing
    survival function, and ``mu_of_a`` the limit-measure mass of the
    configured target set (finite and positive).
    """

    alpha: float
    reference_tail: TailDistribution
    mu_of_a: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("tail index must be positive")
        if not 0 <= self.mu_of_a < math.inf:
            raise ValueError("limit-measure mass must be finite and nonnegative")


@dataclass(frozen=True)
class ModelSpec:
    """Full experiment model: claims, target set, arrivals, returns."""

    claim: ClaimModel
    rare_set: RareSet
    renewal: RenewalIID
    ret: ReturnProcess

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
               "paths are unbounded below (Brownian component)" if floor is None
               else f"floor {floor:g}")
    monotone = _check("non-decreasing return paths", model.ret.nondecreasing_paths,
                      "return paths can decrease")
    for mode, checks in (("consistent-variation", (ident, cv, qai, bounded)),
                         ("subexponential-monotone", (ident, sub, rd, monotone))):
        if all(ok for _, ok, _ in checks):
            return ModeReport(mode, checks)
    return ModeReport(None, (ident, cv, qai, bounded, sub, rd, monotone))


def _pick_summability_exponents(model: ModelSpec) -> tuple[float, float] | None:
    j = model.claim.scalarized_matuszewska()
    if j is None:
        return None
    j_lo, j_up = j
    p1 = 0.5 * j_lo
    p2 = j_up + 1.0
    if model.ret.laplace_exponent(p2) < 0:
        return p1, p2
    # the Laplace exponent turns nonnegative before j_up + 1: bisect for its
    # positive root and aim halfway between the decay exponent and the root
    lo, hi = j_up, j_up + 1.0
    if model.ret.laplace_exponent(lo) >= 0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if model.ret.laplace_exponent(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            break
    root = lo
    if root <= j_up * (1 + 1e-9):
        return None
    return p1, 0.5 * (j_up + root)


def resolve_infinite_mode(model: ModelSpec) -> ModeReport:
    """Check the infinite-horizon hypotheses, including moment summability."""
    ident, cv, pd, qai, _, _ = _claim_checks(model.claim)
    j, exps = model.claim.scalarized_matuszewska(), _pick_summability_exponents(model)
    if j is None:
        moments = ("finite polynomial decay exponents", False,
                   "scalarized law decays faster than every power")
    elif exps is None:
        moments = ("discounted-moment summability", False,
                   "no exponent above the upper decay exponent has a negative Laplace exponent")
    else:
        p1, p2 = exps
        summability = check_discount_summability(model.ret, model.renewal, p1, p2, j[1])
        detail = (f"p1={p1:g}, p2={p2:g}, rho={summability.rho:g}, "
                  f"phi(p1)={summability.phi_p1:.6g}, phi(p2)={summability.phi_p2:.6g}")
        if summability.holds:
            detail += f", series bound {summability.series_bound:.6g}"
        moments = ("discounted-moment summability", summability.holds, detail)
    checks = (ident, cv, pd, qai, moments)
    ok = all(flag for _, flag, _ in checks)
    return ModeReport("infinite-horizon" if ok else None, checks)


# ---------------------------------------------------------------------------
# single-claim entrance expectation


def single_claim_entrance(model: ModelSpec, x: float, s: float) -> float:
    """Entrance probability ``E[ S_A(x exp(xi(s))) ]`` of a single discounted
    claim at lag ``s``: the scalarized single-vector survival ``S_A`` summed
    over the return process's quadrature rule for ``xi(s)``."""
    if x <= 0:
        raise ValueError("threshold must be positive")
    if s < 0:
        raise ValueError("time must be nonnegative")
    nodes, weights = model.ret.xi_rule(s)
    return float(weights @ scalarized_survival(model.claim, model.rare_set, x * np.exp(nodes)))


# ---------------------------------------------------------------------------
# horizon integrals


def asymptotic_entrance_finite(model: ModelSpec, x: float, T: float,
                               rel_tol: float = 1e-4, unsafe: bool = False) -> float:
    """First-order entrance approximation over a finite horizon.

    Adaptive Simpson integration of the single-claim entrance probability
    against the renewal density; the hypothesis gate runs first unless
    ``unsafe`` is set.
    """
    if T == 0:
        return 0.0
    if not unsafe:
        resolve_finite_mode(model, T).require()
    f = lambda s: single_claim_entrance(model, x, s) * model.renewal.renewal_density(s)
    return adaptive_simpson(f, 0.0, T, rel_tol=rel_tol)


@dataclass(frozen=True)
class InfiniteHorizonEstimate:
    """Truncated infinite-horizon value with its analytic tail bound."""

    value: float
    horizon: float
    tail_bound: float
    tail_bound_rel: float

    def __float__(self) -> float:
        return self.value


def asymptotic_entrance_infinite(model: ModelSpec, x: float,
                                 unsafe: bool = False) -> InfiniteHorizonEstimate:
    """First-order entrance approximation with ``T = infinity``.

    Evaluates the finite integral up to a truncation horizon and attaches an
    analytic bound on the neglected tail; the horizon grows until the bound
    drops below :data:`~ruinflow.processes.TAIL_REL_BOUND` of the running
    value.  The bound combines the global polynomial envelope of the
    scalarized claim law with the geometric decay of the discounted moments.
    """
    if not unsafe:
        resolve_infinite_mode(model).require()
    env = model.claim.pareto_envelope(model.rare_set)
    if env is None:
        raise UnsupportedModelError(
            "truncation bound needs a polynomial envelope with one shared tail index")
    c_env, alpha = env
    T = truncation_horizon(model.ret, model.renewal, alpha)
    for _ in range(60):
        value = asymptotic_entrance_finite(model, x, T, unsafe=True)
        bound = c_env * x**-alpha * discount_integral_tail_bound(
            model.ret, model.renewal, alpha, T)
        if bound <= TAIL_REL_BOUND * value:
            return InfiniteHorizonEstimate(value, T, bound, bound / value)
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
    if np.any(c < 0):
        raise ValueError("tail weights must be nonnegative")
    if alpha <= 0:
        raise ValueError("tail index must be positive")
    if c.size != rare_set.dim:
        raise ValueError("tail-weight dimension does not match the set")
    return float(np.sum(c * z_index(rare_set, np.eye(c.size)) ** alpha))


def derive_mrv(claim: ClaimModel, rare_set: RareSet) -> MrvSpec:
    """Build the regular-variation description from independent catalog margins.

    Requires every margin to be regularly varying with one common index and a
    pure power envelope; the reference tail is the unit-scale Pareto of that
    index, making each component's tail weight its envelope constant.
    Dependence specs without identically distributed vectors are rejected.
    """
    if not claim.identically_distributed:
        raise UnsupportedModelError(
            "regular-variation description needs identically distributed vectors")
    alpha = claim.common_tail_index()
    if alpha is None:
        raise UnsupportedModelError(
            "margins must share one regular-variation index")
    weights = []
    for m in claim.margins:
        env = m.pareto_envelope()
        if env is None:
            raise UnsupportedModelError(
                f"margin {type(m).__name__} has no power-tail weight")
        weights.append(env[0])
    return MrvSpec(alpha=alpha, reference_tail=Pareto(alpha, 1.0),
                   mu_of_a=mrv_mu(weights, alpha, rare_set))


def mrv_closed_form(model: ModelSpec, x: float, T: float) -> float:
    """Closed-form first-order entrance value for regularly-varying claims.

    ``mu(A) * S_ref(x) * integral_0^T exp(s phi(alpha)) d(renewal measure)``
    with the description from :func:`derive_mrv` and the renewal integral in
    closed form; ``T`` may be ``math.inf`` when ``phi(alpha) < 0``.
    """
    if x <= 0:
        raise ValueError("threshold must be positive")
    if T < 0:
        raise ValueError("horizon must be nonnegative")
    spec = derive_mrv(model.claim, model.rare_set)
    integral = model.renewal.discounted_integral(model.ret.laplace_exponent(spec.alpha), T)
    return spec.mu_of_a * float(spec.reference_tail.survival(x)) * integral


def entrance_time_cdf(alpha: float, r: float, T: float) -> float:
    """Limiting conditional law of the first entrance time.

    For regularly-varying claims with index ``alpha``, Poisson arrivals, and
    a constant force of interest ``r``, the first entrance time conditioned
    on being finite is asymptotically exponential with rate ``alpha * r``.
    """
    if alpha <= 0 or r <= 0:
        raise ValueError("need alpha > 0 and r > 0")
    if T < 0:
        raise ValueError("time must be nonnegative")
    return 1.0 - math.exp(-alpha * r * T)
