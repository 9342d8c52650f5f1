"""Target ("rare") sets for multivariate exceedance events and their scalarization.

A rare set here is an open, increasing subset of the nonnegative orthant whose
complement is convex and whose closure excludes the origin.  Every such set A
admits a scalarization ``z_index(A, z) = sup{u > 0 : z in u*A}`` that is
homogeneous of degree one, so the entrance event ``z in x*A`` is equivalent to
``z_index(A, z) > x``.  Only a parametric catalog with closed-form
scalarizations is supported:

* :class:`MaxExceed`  -- some coordinate ``i`` exceeds its threshold ``b_i``;
  :func:`Ray` builds the one-dimensional exceedance set ``(b, inf)``, the
  max-type set of one threshold
* :class:`HalfSpace`  -- a convex combination of coordinates exceeds ``b``
* :class:`PolyhedralUnion` -- a finite union of half-space sets

Each set class carries everything that depends on its shape: the
scalarization (``_scalarize``), the membership test from the definition
(``_contains``), the constant of its polynomial envelope
(``envelope_constant``) and the survival of the scalarized claim vector for
independent margins (``scalarized_survival``, which returns the values and
the mask of those whose quadrature did not converge, None for a closed
form).  The module functions check their arguments and call through.
Weighted sums add the columns left to right, so a value does not depend on
the memory order of the batch.

Ruin sets (open, decreasing, scale-insensitive sets touching the origin) map
onto this catalog through :func:`from_ruin_set`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import UnsupportedModelError, _weighted_sum_survival

__all__ = [
    "MaxExceed",
    "HalfSpace",
    "Ray",
    "PolyhedralUnion",
    "RareSet",
    "AnyLineNegative",
    "WeightedSumNegative",
    "RuinSet",
    "z_index",
    "z_index_signed",
    "contains",
    "from_ruin_set",
]

_ALLOC_TOL = 1e-12


@dataclass(frozen=True)
class MaxExceed:
    """Set of vectors with at least one coordinate above its threshold.

    ``{y : y_i > b_i for some i}`` with all thresholds positive.
    """

    b: tuple[float, ...]

    def __post_init__(self):
        b = tuple(float(v) for v in np.atleast_1d(self.b))
        if len(b) == 0 or any(not 0 < v < math.inf for v in b):
            raise ValueError("MaxExceed thresholds must be finite and positive")
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return len(self.b)

    def _scalarize(self, z):
        out = z[..., 0] / self.b[0]  # folded in place: maximum.reduce of a list stacks it first
        for j in range(1, self.dim):
            np.maximum(out, z[..., j] / self.b[j], out=out)
        return out

    def _contains(self, x, z):
        return (z > x * np.asarray(self.b)).any(axis=-1)

    def envelope_constant(self, cs, alpha):
        return float(np.sum(cs * np.asarray(self.b) ** -alpha))

    def scalarized_survival(self, margins, x):
        # the union of independent exceedances, one margin at a time:
        # ``1 - prod(1 - S_j)`` would cancel once the survivals fall below an ulp of 1
        out = np.asarray(margins[0].survival(x * self.b[0]))
        for m, b in zip(margins[1:], self.b[1:]):
            s = m.survival(x * b)
            out = out + s * (1.0 - out)
        return out, None


@dataclass(frozen=True)
class HalfSpace:
    """Set ``{y : sum_i l_i y_i > b}`` with convex weights and positive level."""

    l: tuple[float, ...]
    b: float

    def __post_init__(self):
        l = tuple(float(v) for v in np.atleast_1d(self.l))
        if len(l) == 0 or any(not v >= 0 for v in l):
            raise ValueError("HalfSpace weights must be nonnegative")
        if abs(sum(l) - 1.0) > 1e-9:
            raise ValueError("HalfSpace weights must sum to 1")
        if not 0 < self.b < math.inf:
            raise ValueError("HalfSpace level must be finite and positive")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "b", float(self.b))

    @property
    def dim(self) -> int:
        return len(self.l)

    def _weighted(self, z):
        # columns added left to right: unlike a BLAS product, the rounding
        # cannot depend on the memory order of ``z``
        out = z[..., 0] * self.l[0]
        for j in range(1, self.dim):
            out += z[..., j] * self.l[j]
        return out

    def _scalarize(self, z):
        out = self._weighted(z)
        out /= self.b
        return out

    def _contains(self, x, z):
        return self._weighted(z) > x * self.b

    def envelope_constant(self, cs, alpha):
        l = np.asarray(self.l)
        active = l > 0
        k = int(active.sum())
        return float(np.sum(cs[active] * (k * l[active] / self.b) ** alpha))

    def scalarized_survival(self, margins, x):
        l = np.asarray(self.l)
        active = np.flatnonzero(l > 0)
        if active.size == 1:
            j = active[0]
            return np.asarray(margins[j].survival(x * self.b / l[j])), None
        if active.size == 2 and self.dim == 2:
            return _weighted_sum_survival(margins, l, self.b * x)
        raise UnsupportedModelError(
            "weighted-sum scalarization is analytic only in dimension two; use Monte Carlo")


def Ray(b: float) -> MaxExceed:
    """One-dimensional exceedance set ``(b, inf)``: the max-type set of one threshold."""
    return MaxExceed((b,))


@dataclass(frozen=True)
class PolyhedralUnion:
    """Finite union of half-space sets of the same dimension.

    The union of half-space sets always remains in the admissible family:
    each member's complement is a convex set containing the origin, and the
    union's complement is their intersection.
    """

    parts: tuple[HalfSpace, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("PolyhedralUnion needs at least one half-space")
        if not all(isinstance(p, HalfSpace) for p in parts):
            raise TypeError("PolyhedralUnion members must be HalfSpace sets")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError("PolyhedralUnion members must share one dimension")
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def _scalarize(self, z):
        out = self.parts[0]._scalarize(z)
        for p in self.parts[1:]:
            np.maximum(out, p._scalarize(z), out=out)
        return out

    def _contains(self, x, z):
        return np.logical_or.reduce([p._contains(x, z) for p in self.parts])

    def envelope_constant(self, cs, alpha):
        return float(sum(p.envelope_constant(cs, alpha) for p in self.parts))

    def scalarized_survival(self, margins, x):
        raise UnsupportedModelError(
            "no analytic scalarized survival for PolyhedralUnion; use Monte Carlo")


RareSet = MaxExceed | HalfSpace | PolyhedralUnion


@dataclass(frozen=True)
class AnyLineNegative:
    """Ruin set: some line of business has negative surplus (psi_or)."""

    @property
    def name(self) -> str:
        return "or"

    def entrance_set(self, alloc: np.ndarray) -> "RareSet":
        return MaxExceed(b=tuple(alloc))


@dataclass(frozen=True)
class WeightedSumNegative:
    """Ruin set: the weighted total surplus is negative (psi_sum).

    ``weights`` defaults to the capital allocation vector when mapped through
    :func:`from_ruin_set`.
    """

    weights: tuple[float, ...] | None = field(default=None)

    def __post_init__(self):
        if self.weights is not None:
            w = tuple(float(v) for v in np.atleast_1d(self.weights))
            if any(not v >= 0 for v in w):
                raise ValueError("ruin-set weights must be nonnegative")
            if abs(sum(w) - 1.0) > 1e-9:
                raise ValueError("ruin-set weights must sum to 1")
            object.__setattr__(self, "weights", w)

    @property
    def name(self) -> str:
        return "sum"

    def entrance_set(self, alloc: np.ndarray) -> "RareSet":
        w = np.asarray(self.weights, dtype=float) if self.weights is not None else alloc
        if w.size != alloc.size:
            raise ValueError("ruin-set weights and allocation dimensions differ")
        return HalfSpace(l=tuple(w), b=float(w @ alloc))


RuinSet = AnyLineNegative | WeightedSumNegative


def _check_vectors(rare_set: RareSet, z, require_nonneg: bool) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        z = z.reshape(1)
    if z.shape[-1] != rare_set.dim:
        raise ValueError(
            f"vector dimension {z.shape[-1]} does not match set dimension {rare_set.dim}"
        )
    if require_nonneg and np.any(z < 0):
        raise ValueError("vector components must be nonnegative")
    return z


def z_index_signed(rare_set: RareSet, z) -> np.ndarray | float:
    """Scalarization without the nonnegativity requirement on ``z``.

    Used internally for surplus vectors, which may have negative components
    after premiums are subtracted.  For such vectors the value may be
    negative; the exceedance identity ``z in x*A  <=>  value > x`` still
    holds for every ``x > 0``.
    """
    z = _check_vectors(rare_set, z, require_nonneg=False)
    out = rare_set._scalarize(np.atleast_2d(z))
    return float(out[0]) if z.ndim <= 1 else out


def z_index(rare_set: RareSet, z) -> np.ndarray | float:
    """Scalarization ``sup{u > 0 : z in u*A}`` of the nonnegative vector ``z``.

    Accepts a single vector of shape ``(d,)`` or a batch ``(n, d)``; the
    result is homogeneous of degree one and componentwise nondecreasing.

    Closed forms
    ------------
    MaxExceed       ``max_i z_i / b_i`` (``z / b`` for a ``Ray``)
    HalfSpace       ``(sum_i l_i z_i) / b``
    PolyhedralUnion  max over the member half-space values
    """
    z = _check_vectors(rare_set, z, require_nonneg=True)
    return z_index_signed(rare_set, z)


def contains(rare_set: RareSet, x: float, z) -> np.ndarray | bool:
    """Membership test ``z in x*A`` evaluated from the set's definition.

    The set is open, so every inequality is strict; boundary points are not
    contained.  Equivalent to ``z_index(rare_set, z) > x`` but computed from
    the defining inequalities directly.
    """
    if not x > 0:
        raise ValueError("scale x must be positive")
    z = _check_vectors(rare_set, z, require_nonneg=True)
    out = rare_set._contains(x, np.atleast_2d(z))
    return bool(out[0]) if z.ndim <= 1 else out


def from_ruin_set(ruin_set: RuinSet, alloc) -> RareSet:
    """Map a ruin set ``L`` and allocation ``l`` to the entrance set ``l - L``.

    With initial capital ``x`` allocated as ``x*l``, the surplus enters ``L``
    exactly when the net claim vector enters ``x*(l - L)``:

    * ``AnyLineNegative``  ->  ``MaxExceed`` with thresholds ``alloc``
      (``Ray(alloc[0])`` in dimension one);
    * ``WeightedSumNegative`` with weights ``w``  ->  ``HalfSpace`` with the
      same weights and level ``sum_i w_i * alloc_i``.
    """
    alloc = np.asarray(alloc, dtype=float)
    if alloc.ndim != 1 or alloc.size == 0:
        raise ValueError("allocation must be a 1-d vector")
    if not np.all(alloc > 0):
        raise ValueError("allocation entries must be strictly positive")
    if abs(alloc.sum() - 1.0) > _ALLOC_TOL:
        raise ValueError("allocation must sum to 1")
    return ruin_set.entrance_set(alloc)
