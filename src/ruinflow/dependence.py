"""Claim-vector models: marginal laws, inter-vector dependence, diagnostics.

A :class:`ClaimModel` couples per-component marginal tail distributions
(components are independent within a vector for every supported structure)
with one of three inter-vector dependence generators:

``IID``
    Vectors are independent and identically distributed.

``FgmChain``
    Consecutive vector pairs ``(1, 2), (3, 4), ...`` are linked through a
    four-variable FGM survival structure: all four coupled components share
    one absolutely continuous marginal, any two and any three of them are
    independent, and only the full 4-tuple carries the coupling parameter.
    Pairs are independent of each other.  The copula density is bounded
    between ``1 - |theta|`` and ``1 + |theta|`` times the independent one, so
    scalarized exceedances are regression dependent (and in particular
    quasi-asymptotically independent) for every catalog set.

``CubicPair``
    Consecutive vector pairs where same-index components are linked through
    the joint survival ``(1 + x^3 + y)**-1``; first vectors carry cubic
    marginals, second vectors harmonic marginals.  The scalarized
    exceedances are quasi-asymptotically independent but *not* regression
    dependent: the conditional exceedance ratio stays above 3/4 in the
    limit.

Sampling is by conditional inverse transform from the explicit joint
survival functions; every conditional inverse used here is closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import UnsupportedModelError, wilson_interval
from .heavy_tails import ClassTags, CubicSurvival, HarmonicSurvival, TailDistribution
from .rare_sets import MaxExceed, RareSet, z_index

__all__ = [
    "IID",
    "FgmChain",
    "CubicPair",
    "ClaimModel",
    "UnsupportedModelError",
    "NoExceedanceError",
    "EmpiricalRatio",
    "fgm_joint_survival",
    "fgm_conditional_inverse",
    "scalarized_survival",
    "qai_ratio",
    "rd_violation_ratio",
]

#: exceedance counts below this are flagged unreliable in empirical ratios
RELIABLE_COUNT = 20


class NoExceedanceError(RuntimeError):
    """Empirical ratio undefined: the threshold produced no exceedances."""


class _Dependence:
    """Defaults of the dependence structures: every vector has the law of the margins.

    A structure turns survival transforms ``1 - u`` shaped ``(2, d, ...)`` into
    claim vectors in two in-place phases; ``v[k]`` is slot ``k`` of a pair, with
    component ``j`` in ``v[k, j]``.  ``couple(v)`` replaces the transforms by the
    coupled ones (the identity by default), and ``quantiles(margins, v)`` maps
    those to claims, nonincreasing in every coupled transform (by default each
    component's margin quantile, one call over equal margins).
    ``survival_cut(margins, t)`` is an ``eps`` such that a pair whose coupled
    transforms are all at least ``eps`` has every claim at most ``t``.
    """

    identically_distributed = True
    #: regression dependence of the scalarized exceedance sequence
    scalarized_rd = True
    #: margins the structure fixes; a claim model given none takes these
    fixed_margins = ()

    def check_margins(self, margins) -> None:
        pass

    def second_margins(self, margins):
        return margins

    def pair_rates(self, rare_set: RareSet, x: float):
        """Closed-form ``(joint, first, second)`` exceedance rates of a pair, or None."""
        return None

    def couple(self, v):
        return v

    def quantiles(self, margins, v):
        if margins.count(margins[0]) == len(margins):  # one call on the contiguous block
            return margins[0]._qf(v)
        for j, m in enumerate(margins):
            m._qf(v[:, j])
        return v

    def survival_cut(self, margins, t: float) -> float:
        # a transform of at least S_j(t) has a quantile of at most t, unless t lies
        # below the support, where a transform of 1 still maps to the floor
        if any(t < m.support_min for m in margins):
            return np.inf
        return max(float(m.survival(t)) for m in margins)


@dataclass(frozen=True)
class IID(_Dependence):
    """Independent vectors, each with the law of the margins: the defaults throughout."""


@dataclass(frozen=True)
class FgmChain(_Dependence):
    theta: float

    def __post_init__(self):
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError("FGM coupling parameter must lie in [-1, 1]")

    def check_margins(self, margins):
        if len(margins) != 2 or margins[0] != margins[1]:
            raise ValueError("FGM chain couples two components sharing one marginal")

    def couple(self, v):
        # survival transforms of the four coupled components: the first
        # three are independent uniforms, the fourth is conditional with
        # the closed-form FGM quadratic inverse; all share the marginal
        fgm_conditional_inverse(self.theta, v[0, 0], v[0, 1], v[1, 0], v[1, 1], out=v[1, 1])
        return v


@dataclass(frozen=True)
class CubicPair(_Dependence):
    identically_distributed = False
    scalarized_rd = False
    fixed_margins = (CubicSurvival(), CubicSurvival())

    def check_margins(self, margins):
        if margins != self.fixed_margins:
            raise ValueError("cubic-pair margins are fixed by its joint survival: "
                             "two CubicSurvival margins")

    def second_margins(self, margins):
        return (HarmonicSurvival(), HarmonicSurvival())

    def pair_rates(self, rare_set, x):
        # joint: P[both vectors exceed x on the unit max-type set], expanded
        # from the component-pair survival (1 + s^3 + t)**-1 at s = t = x
        if rare_set != MaxExceed(b=(1.0, 1.0)):
            return None
        a, b, c = 1.0 / (1.0 + x**3 + x), 1.0 / (1.0 + x**3), 1.0 / (1.0 + x)
        return 2 * a + 2 * b * c - 2 * a * c - 2 * b * a + a * a, 2 * b - b * b, 2 * c - c * c

    def survival_cut(self, margins, t):
        # slot 1's claim is (v1**-0.5 - 1) / v0, at most t - t**(2/3) when both
        # transforms are at least t**(-2/3); the margins alone do not bound it
        return max(super().survival_cut(margins, t), t ** (-2.0 / 3.0)) if t > 0 else np.inf

    def quantiles(self, margins, v):
        xv, yv = margins[0]._qf(v[0]), v[1]
        # P[Y > y | X = x] = ((1+x^3)/(1+x^3+y))^2, inverted in closed form
        yv **= -0.5
        yv -= 1.0
        yv *= 1.0 + xv**3
        return v


@dataclass(frozen=True)
class ClaimModel:
    """Multivariate claim-vector law with an inter-vector dependence generator.

    ``margins`` are the component laws of the first vector in each dependence
    block; components are independent within a vector.  Claim vectors are
    nonnegative and never almost-surely zero.  The structure ``inter`` checks
    the margins; empty margins take those it fixes, if any.

    Uniforms become claims in two in-place phases, :meth:`survival_transforms`
    and :meth:`quantiles`.  Transforms all at least :meth:`survival_cut` of
    ``t`` give claims all at most ``t`` (in exact arithmetic; rounding adds a
    few units in the last place), so the big-jump check skips the quantiles of
    paths that cannot reach its grid.
    """

    margins: tuple[TailDistribution, ...]
    inter: IID | FgmChain | CubicPair = IID()

    def __post_init__(self):
        margins = tuple(self.margins) or self.inter.fixed_margins
        if not margins:
            raise ValueError("need at least one margin")
        self.inter.check_margins(margins)
        object.__setattr__(self, "margins", margins)

    @classmethod
    def iid(cls, margins) -> "ClaimModel":
        return cls(margins=tuple(margins), inter=IID())

    @classmethod
    def fgm_chain(cls, theta: float, marginal: TailDistribution) -> "ClaimModel":
        return cls(margins=(marginal, marginal), inter=FgmChain(theta))

    @classmethod
    def cubic_pair(cls) -> "ClaimModel":
        return cls(margins=(), inter=CubicPair())

    @property
    def d(self) -> int:
        return len(self.margins)

    @property
    def identically_distributed(self) -> bool:
        """Whether all vectors in the sequence share one distribution."""
        return self.inter.identically_distributed

    @property
    def scalarized_rd(self) -> bool:
        """Regression dependence of the scalarized exceedance sequence."""
        return self.inter.scalarized_rd

    @property
    def scalarized_qai(self) -> bool:
        """Quasi-asymptotic independence of the scalarized exceedances."""
        return True

    def second_margins(self) -> tuple[TailDistribution, ...]:
        """Margins of the second vector in each block (differs for CubicPair)."""
        return self.inter.second_margins(self.margins)

    def scalarized_tags(self) -> ClassTags:
        """Curated class tags of the scalarized law ``P[z_index(X) > .]``, for any catalog set.

        The scalarization of a vector with independent catalog margins
        inherits the intersection of the margins' memberships: max-type sets
        give tail-sum equivalents, weighted sums preserve each catalog class
        under convolution with same-or-lighter tails.
        """
        tags = self.margins[0].tags
        for m in self.margins[1:]:
            tags = tags.intersect(m.tags)
        if not self.identically_distributed:
            for m in self.second_margins():
                tags = tags.intersect(m.tags)
        return tags

    def common_tail_index(self) -> float | None:
        """Shared regular-variation index of all margins, if there is one."""
        idx = set()
        for m in self.margins:
            if m.matuszewska is None or m.matuszewska[0] != m.matuszewska[1]:
                return None
            idx.add(m.matuszewska[0])
        return idx.pop() if len(idx) == 1 else None

    def scalarized_matuszewska(self) -> float | None:
        """Upper polynomial decay exponent ``J+`` of the scalarized law of any catalog
        set (heaviest margin wins), or None when a margin has none."""
        if any(m.matuszewska is None for m in self.margins):
            return None
        return min(m.matuszewska[1] for m in self.margins)

    def tail_weights(self) -> tuple[np.ndarray, float] | None:
        """Power-tail weights ``c_j`` with ``P[X_j > v] <= c_j v**-alpha`` and the
        common index ``alpha``, or None without one index or one envelope per margin.

        A set turns them into the limit-measure mass (``mrv_mu``) or the global
        bound ``P[z_index(X) > v] <= envelope_constant(cs, alpha) * v**-alpha``.
        """
        alpha = self.common_tail_index()
        if alpha is None:
            return None
        envs = [m.pareto_envelope() for m in self.margins]
        if any(e is None for e in envs):
            return None
        return np.array([e[0] for e in envs]), alpha

    def claims_from_uniforms(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transform uniforms shaped ``(2, d, ...)`` into claim vectors of that shape.

        ``u[k]`` is slot ``k`` of a pair, with component ``j`` in ``u[k, j]``;
        the paired structures couple slot 0 with slot 1 entry by entry over
        the trailing axes.  Slot 0 keeps its marginal law: component ``j`` is
        ``margins[j]._qf(1 - u)`` whatever the structure, so a ``(1, d, ...)``
        block, a lone slot 0 like the big-jump chunk's last vector for an odd
        number of weights, is transformed by the margins.  The claims are
        written to ``out``, which may be ``u`` itself; by default they go to a
        new array and ``u`` is only read.  The transform is
        ``quantiles(survival_transforms(u, out))``.
        """
        return self.quantiles(self.survival_transforms(u, out))

    def survival_transforms(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The first phase of :meth:`claims_from_uniforms`: ``1 - u`` into ``out``, then
        the structure's coupling of a pair's transforms (none for a lone slot 0)."""
        u = np.asarray(u, dtype=float)
        if u.shape[:1] not in ((1,), (2,)) or u.shape[1:2] != (self.d,):
            raise ValueError(f"expected uniforms of shape (2, {self.d}, ...) or (1, {self.d}, ...)")
        v = np.subtract(1.0, u, out=out)
        return self.inter.couple(v) if len(v) == 2 else v

    def quantiles(self, v: np.ndarray) -> np.ndarray:
        """The second phase of :meth:`claims_from_uniforms`: coupled transforms shaped
        ``(2, d, ...)`` or ``(1, d, ...)`` into claims in place, each claim
        nonincreasing in every transform."""
        return (self.inter if len(v) == 2 else IID()).quantiles(self.margins, v)

    def survival_cut(self, t: float) -> float:
        """An ``eps`` such that claims whose coupled transforms are all at least ``eps``
        are all at most ``t``: ``max_j S_j(t)``, at least ``t**(-2/3)`` for the cubic
        pair, and ``inf`` when ``t`` lies below a margin's support."""
        return self.inter.survival_cut(self.margins, t)

    def sample_sequence(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` claim vectors as an ``(n, d)`` array.

        Row ``i`` takes uniforms from row ``i`` of one ``(2*ceil(n/2), d)``
        draw, and rows ``(2j, 2j+1)`` form a pair.
        """
        if n < 1:
            raise ValueError("need n >= 1")
        half = -(-n // 2)
        u = rng.random((2 * half, self.d)).reshape(half, 2, self.d).transpose(1, 2, 0)
        return self.claims_from_uniforms(u).transpose(2, 0, 1).reshape(2 * half, self.d)[:n]


def fgm_conditional_inverse(theta: float, v1, v2, v3, w, out=None):
    """Invert the conditional survival transform of the fourth FGM variable.

    Given the first three survival transforms ``v1, v2, v3`` and a uniform
    ``w``, solves ``v + a*v*(1 - v) = w`` with
    ``a = theta * (1 - 2 v1)(1 - 2 v2)(1 - 2 v3)`` using the numerically
    stable root of the quadratic (exact for ``a = 0``).  Three scratch
    arrays hold the intermediate values.  The root is written to ``out``,
    which may be ``w`` itself; by default it goes to a new array and the
    inputs are only read.
    """
    shape = np.broadcast(v1, v2, v3, w).shape
    a, b, c = np.full(shape, theta, dtype=float), np.empty(shape), np.empty(shape)
    for v in (v1, v2, v3):
        a *= np.subtract(1.0, np.multiply(2.0, v, out=b), out=b)
    np.square(np.add(1.0, a, out=b), out=c)  # (1 + a)^2; b keeps 1 + a
    a *= 4.0
    c -= np.multiply(a, w, out=a)
    np.add(b, np.sqrt(c, out=c), out=c)
    out = np.multiply(2.0, w, out=np.empty(shape) if out is None else out)
    return np.divide(out, c, out=out)


def fgm_joint_survival(theta: float, marginal: TailDistribution, x1, x2, y1, y2):
    """Joint survival of the four FGM-coupled components.

    ``S(x1) S(x2) S(y1) S(y2) * (1 + theta F(x1) F(x2) F(y1) F(y2))`` with
    ``S`` the shared marginal survival and ``F = 1 - S``.  Always in [0, 1];
    reduces to the product of marginals for ``theta = 0`` exactly.
    """
    if not -1.0 <= theta <= 1.0:
        raise ValueError("FGM coupling parameter must lie in [-1, 1]")
    svals = [np.asarray(marginal.survival(np.asarray(v, dtype=float))) for v in (x1, x2, y1, y2)]
    tail = svals[0] * svals[1] * svals[2] * svals[3]
    bump = (1.0 - svals[0]) * (1.0 - svals[1]) * (1.0 - svals[2]) * (1.0 - svals[3])
    return tail * (1.0 + theta * bump)


def scalarized_survival(model: ClaimModel, rare_set: RareSet, x):
    """Survival ``P[z_index(X) > x]`` of the scalarized single-vector law.

    Closed forms exist for max-type sets (the union of independent marginal
    exceedances); weighted-sum sets in dimension two are handled
    by adaptive quadrature of the convolution.  Anything else raises
    :class:`UnsupportedModelError` directing the caller to Monte Carlo.
    """
    x = np.asarray(x, dtype=float)
    out, _ = _scalarized_survival(model, rare_set, np.atleast_1d(x))
    return float(out[0]) if x.ndim == 0 else out


def _scalarized_survival(model: ClaimModel, rare_set: RareSet, x: np.ndarray):
    """:func:`scalarized_survival` at each entry of the 1-d ``x``, and the mask of
    entries whose quadrature did not converge (None for a closed form)."""
    if model.d != rare_set.dim:
        raise ValueError("model dimension does not match set dimension")
    if not model.identically_distributed:
        raise UnsupportedModelError(
            "scalarized survival needs identically distributed vectors")
    if not np.all(x >= 0):  # NaN fails too
        raise ValueError("threshold must be nonnegative and not NaN")
    return rare_set.scalarized_survival(model.margins, x)


# ---------------------------------------------------------------------------
# pairwise dependence diagnostics


@dataclass(frozen=True)
class EmpiricalRatio:
    """Empirical exceedance ratio with a Wilson interval on the joint rate.

    ``reliable`` is False when the joint exceedance count is too small for
    the interval to mean much.
    """

    value: float
    ci_lo: float
    ci_hi: float
    joint_count: int
    denominator: float

    @property
    def reliable(self) -> bool:
        return self.joint_count >= RELIABLE_COUNT


def _pair_ratio(model: ClaimModel, rare_set: RareSet, x: float, n: int | None,
                rng: np.random.Generator | None, first_only: bool):
    """``P[both > x]`` over ``P[first > x]`` (``first_only``) or over ``P[first > x] +
    P[second > x]``, from the analytic pair rates or as an :class:`EmpiricalRatio`
    over ``n`` sampled pairs."""
    if not x > 0:
        raise ValueError("threshold must be positive")
    rates, joint_count = model.inter.pair_rates(rare_set, x), None
    if rates is None:
        if n is None or rng is None:
            raise UnsupportedModelError(
                "no analytic pair formulas for this (model, set); pass n and rng for Monte Carlo")
        z = z_index(rare_set, model.sample_sequence(2 * n, rng))
        first, second = z[0::2] > x, z[1::2] > x
        joint_count = int(np.count_nonzero(first & second))
        rates = (joint_count / n, int(np.count_nonzero(first)) / n,
                 int(np.count_nonzero(second)) / n)
    joint, sf1, sf2 = rates
    den = sf1 if first_only else sf1 + sf2
    if den == 0:
        raise NoExceedanceError(f"no exceedances at x={x:g} over {n} pairs; lower x or raise n")
    if joint_count is None:
        return joint / den
    lo, hi = wilson_interval(joint_count, n)
    return EmpiricalRatio(joint / den, lo / den, hi / den, joint_count, den)


def qai_ratio(model: ClaimModel, rare_set: RareSet, x: float,
              n: int | None = None, rng: np.random.Generator | None = None):
    """Joint-exceedance ratio ``P[both > x] / (P[first > x] + P[second > x])``.

    Vanishing of this ratio as ``x`` grows is what quasi-asymptotic
    independence of the scalarized pair means.  Analytic for the cubic pair
    on the unit max-type set; empirical otherwise (``n`` pairs, explicit
    ``rng``), returning an :class:`EmpiricalRatio`.
    """
    return _pair_ratio(model, rare_set, x, n, rng, first_only=False)


def rd_violation_ratio(model: ClaimModel, rare_set: RareSet, x: float,
                       n: int | None = None, rng: np.random.Generator | None = None):
    """Conditional exceedance ratio ``P[both > x] / P[first > x]``.

    A nonvanishing limit witnesses failure of regression dependence (the
    cubic pair's limit is 3/4) even when the pair is quasi-asymptotically
    independent.
    """
    return _pair_ratio(model, rare_set, x, n, rng, first_only=True)
