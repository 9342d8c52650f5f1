"""Target ("rare") sets for multivariate exceedance events and their scalarization.

A rare set here is an open, increasing subset of the nonnegative orthant whose
complement is convex and whose closure excludes the origin.  Every such set A
admits a scalarization ``z_index(A, z) = sup{u > 0 : z in u*A}`` that is
homogeneous of degree one, so the entrance event ``z in x*A`` is equivalent to
``z_index(A, z) > x``.  Only a parametric catalog with closed-form
scalarizations is supported:

* :class:`MaxExceed`  -- some coordinate ``i`` exceeds its threshold ``b_i``
* :class:`HalfSpace`  -- a convex combination of coordinates exceeds ``b``
* :class:`Ray`        -- the one-dimensional exceedance set ``(b, inf)``
* :class:`PolyhedralUnion` -- a finite union of half-space sets

Ruin sets (open, decreasing, scale-insensitive sets touching the origin) map
onto this catalog through :func:`from_ruin_set`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        if len(b) == 0 or any(v <= 0 for v in b):
            raise ValueError("MaxExceed thresholds must be positive")
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return len(self.b)


@dataclass(frozen=True)
class HalfSpace:
    """Set ``{y : sum_i l_i y_i > b}`` with convex weights and positive level."""

    l: tuple[float, ...]
    b: float

    def __post_init__(self):
        l = tuple(float(v) for v in np.atleast_1d(self.l))
        if len(l) == 0 or any(v < 0 for v in l):
            raise ValueError("HalfSpace weights must be nonnegative")
        if abs(sum(l) - 1.0) > 1e-9:
            raise ValueError("HalfSpace weights must sum to 1")
        if self.b <= 0:
            raise ValueError("HalfSpace level must be positive")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "b", float(self.b))

    @property
    def dim(self) -> int:
        return len(self.l)


@dataclass(frozen=True)
class Ray:
    """One-dimensional exceedance set ``(b, inf)``."""

    b: float

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("Ray level must be positive")
        object.__setattr__(self, "b", float(self.b))

    @property
    def dim(self) -> int:
        return 1


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


RareSet = MaxExceed | HalfSpace | Ray | PolyhedralUnion


@dataclass(frozen=True)
class AnyLineNegative:
    """Ruin set: some line of business has negative surplus (psi_or)."""

    @property
    def name(self) -> str:
        return "or"


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
            if any(v < 0 for v in w):
                raise ValueError("ruin-set weights must be nonnegative")
            if abs(sum(w) - 1.0) > 1e-9:
                raise ValueError("ruin-set weights must sum to 1")
            object.__setattr__(self, "weights", w)

    @property
    def name(self) -> str:
        return "sum"


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
    single = z.ndim <= 1
    zz = np.atleast_2d(z)
    if isinstance(rare_set, MaxExceed):
        # column by column: a max over a short last axis is slow in numpy
        out = np.maximum.reduce([zz[..., j] / b for j, b in enumerate(rare_set.b)])
    elif isinstance(rare_set, HalfSpace):
        out = zz @ np.asarray(rare_set.l) / rare_set.b
    elif isinstance(rare_set, Ray):
        out = zz[..., 0] / rare_set.b
    elif isinstance(rare_set, PolyhedralUnion):
        out = np.max(
            [zz @ np.asarray(p.l) / p.b for p in rare_set.parts], axis=0
        )
    else:  # pragma: no cover - exhaustive over the catalog
        raise TypeError(f"unknown rare set {type(rare_set).__name__}")
    return float(out[0]) if single else out


def z_index(rare_set: RareSet, z) -> np.ndarray | float:
    """Scalarization ``sup{u > 0 : z in u*A}`` of the nonnegative vector ``z``.

    Accepts a single vector of shape ``(d,)`` or a batch ``(n, d)``; the
    result is homogeneous of degree one and componentwise nondecreasing.

    Closed forms
    ------------
    MaxExceed       ``max_i z_i / b_i``
    HalfSpace       ``(sum_i l_i z_i) / b``
    Ray             ``z / b``
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
    if x <= 0:
        raise ValueError("scale x must be positive")
    z = _check_vectors(rare_set, z, require_nonneg=True)
    single = z.ndim <= 1
    zz = np.atleast_2d(z)
    if isinstance(rare_set, MaxExceed):
        out = (zz > x * np.asarray(rare_set.b)).any(axis=-1)
    elif isinstance(rare_set, HalfSpace):
        out = zz @ np.asarray(rare_set.l) > x * rare_set.b
    elif isinstance(rare_set, Ray):
        out = zz[..., 0] > x * rare_set.b
    elif isinstance(rare_set, PolyhedralUnion):
        out = np.any(
            [zz @ np.asarray(p.l) > x * p.b for p in rare_set.parts], axis=0
        )
    else:  # pragma: no cover
        raise TypeError(f"unknown rare set {type(rare_set).__name__}")
    return bool(out[0]) if single else out


def from_ruin_set(ruin_set: RuinSet, alloc) -> RareSet:
    """Map a ruin set ``L`` and allocation ``l`` to the entrance set ``l - L``.

    With initial capital ``x`` allocated as ``x*l``, the surplus enters ``L``
    exactly when the net claim vector enters ``x*(l - L)``:

    * ``AnyLineNegative``  ->  ``MaxExceed`` with thresholds ``alloc``
      (``Ray`` in dimension one);
    * ``WeightedSumNegative`` with weights ``w``  ->  ``HalfSpace`` with the
      same weights and level ``sum_i w_i * alloc_i``.
    """
    alloc = np.asarray(alloc, dtype=float)
    if alloc.ndim != 1 or alloc.size == 0:
        raise ValueError("allocation must be a 1-d vector")
    if np.any(alloc <= 0):
        raise ValueError("allocation entries must be strictly positive")
    if abs(alloc.sum() - 1.0) > _ALLOC_TOL:
        raise ValueError("allocation must sum to 1")
    if isinstance(ruin_set, AnyLineNegative):
        if alloc.size == 1:
            return Ray(b=float(alloc[0]))
        return MaxExceed(b=tuple(alloc))
    if isinstance(ruin_set, WeightedSumNegative):
        w = np.asarray(ruin_set.weights, dtype=float) if ruin_set.weights is not None else alloc
        if w.size != alloc.size:
            raise ValueError("ruin-set weights and allocation dimensions differ")
        return HalfSpace(l=tuple(w), b=float(w @ alloc))
    raise TypeError(f"unknown ruin set {type(ruin_set).__name__}")
