"""Lorentz-cone geometry and the partial order it induces.

The cone lives in R^m x R: a pair (x, t) belongs to it when t >= ||x||.
Ordering augmented points by "difference lies in the cone" gives a partial
order that is reflexive, transitive, antisymmetric and compatible with the
linear structure.  All predicates here are tolerance-aware so that
verification does not fail on last-bit rounding; a strict policy is
available for exact checks on exactly-representable inputs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError

ENV_TOL = "CONE_FIXPOINT_TOL"
DEFAULT_ATOL = 1e-12
DEFAULT_RTOL = 1e-12
NON_FINITE_NORM = "cannot take the norm of a non-finite vector"


def as_vector(coords) -> np.ndarray:
    """Coerce to an immutable 1-D float array, rejecting NaN/inf and m < 1."""
    x = np.array(coords, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InvalidInputError(f"expected a 1-D vector with m >= 1, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("vector coordinates must be finite")
    x.setflags(write=False)
    return x


def norm(x) -> float:
    """Euclidean norm via a scaled sum of squares (no overflow for large entries)."""
    x = np.asarray(x, dtype=float)
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    if scale == 0.0:
        return 0.0
    if not math.isfinite(scale):
        raise InvalidInputError(NON_FINITE_NORM)
    y = x / scale
    return scale * math.sqrt(float(np.dot(y, y)))


# From this many columns on, numpy sums a row with 8-way pairwise
# summation; below it, a row sum is a plain left-to-right sum.
PAIRWISE_SUM_MIN_COLUMNS = 8


def row_norms(xs: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (the last axis) of an array, max-abs scaled.

    The squares of each scaled row are summed in ``np.sum``'s order: a plain
    left-to-right sum below :data:`PAIRWISE_SUM_MIN_COLUMNS` columns, which
    is computed here column by column (much faster for narrow rows), and
    numpy's pairwise sum from that width on.  Neither is the order of the
    dot product inside :func:`norm`, so a result can differ from
    :func:`norm` in the last bit at any width; :func:`norm_each_row` is the
    kernel that matches :func:`norm` bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    m = xs.shape[-1]
    if m == 1:
        # A nonzero scaled entry squares to exactly 1, so the norm is |x|,
        # except for an infinite entry, which scales to inf / inf.
        out = np.abs(xs[..., 0])
        inf = np.isinf(out)
        if inf.any():
            x = xs[..., 0][inf]
            out[inf] = np.abs(x) * np.sqrt((x / np.abs(x)) ** 2)
        return out
    if m < PAIRWISE_SUM_MIN_COLUMNS:
        cols = [xs[..., j] for j in range(m)]
        scale = np.abs(cols[0])
        for col in cols[1:]:
            np.maximum(scale, np.abs(col), out=scale)
        safe = np.where(scale == 0.0, 1.0, scale)
        acc = cols[0] / safe
        np.multiply(acc, acc, out=acc)
        y = np.empty_like(acc)
        for col in cols[1:]:
            np.divide(col, safe, out=y)
            np.multiply(y, y, out=y)
            acc += y
        np.sqrt(acc, out=acc)
        return np.multiply(scale, acc, out=acc)
    scale = np.max(np.abs(xs), axis=-1)
    safe = np.where(scale == 0.0, 1.0, scale)
    return scale * np.sqrt(np.sum((xs / safe[..., None]) ** 2, axis=-1))


def norm_each_row(xs: np.ndarray) -> np.ndarray:
    """:func:`norm` of each row of a 2-D array, bit for bit: the same max-abs
    scaling, and ``vecdot`` runs the same dot kernel as ``np.dot``.  Where
    :func:`norm` would raise, on a row with a non-finite entry, the result
    is NaN (an infinite entry scales to inf / inf); callers that must refuse
    such rows test for it."""
    xs = np.asarray(xs, dtype=float)
    scale = np.max(np.abs(xs), axis=1)
    y = xs / np.where(scale == 0.0, 1.0, scale)[:, None]
    return scale * np.sqrt(np.vecdot(y, y))


@dataclass(frozen=True, eq=False)
class AugmentedPoint:
    """A point (x, t) of the ordered space R^m x R.

    The scalar t lives on the same scale as ||x||; the ambient ordered
    space has dimension m + 1.
    """

    x: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x))
        t = float(self.t)
        if not math.isfinite(t):
            raise InvalidInputError("t must be finite")
        object.__setattr__(self, "t", t)

    @classmethod
    def _trusted(cls, x: np.ndarray, t: float) -> "AugmentedPoint":
        """The point (x, t) from a read-only finite 1-D float array and a
        finite float, taken as they are, without the constructor's copy and
        checks."""
        point = object.__new__(cls)
        object.__setattr__(point, "x", x)
        object.__setattr__(point, "t", t)
        return point

    @property
    def dimension(self) -> int:
        return self.x.size

    @property
    def ambient_dimension(self) -> int:
        """Dimension of the ordered space containing this point (m + 1)."""
        return self.x.size + 1

    def _check_same_dimension(self, other: "AugmentedPoint"):
        if self.x.size != other.x.size:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.x.size} vs {other.x.size}"
            )

    def __sub__(self, other: "AugmentedPoint") -> "AugmentedPoint":
        self._check_same_dimension(other)
        return AugmentedPoint(self.x - other.x, self.t - other.t)

    def __add__(self, other: "AugmentedPoint") -> "AugmentedPoint":
        self._check_same_dimension(other)
        return AugmentedPoint(self.x + other.x, self.t + other.t)

    def __neg__(self) -> "AugmentedPoint":
        return AugmentedPoint(-self.x, -self.t)

    def scaled(self, mu: float) -> "AugmentedPoint":
        return AugmentedPoint(mu * self.x, mu * self.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AugmentedPoint):
            return NotImplemented
        return self.t == other.t and np.array_equal(self.x, other.x)

    def __repr__(self) -> str:
        return f"AugmentedPoint(x={self.x.tolist()}, t={self.t})"


@dataclass(frozen=True)
class TolerancePolicy:
    """Absolute/relative slack applied to cone predicates.

    A residual r passes when r >= -(atol + rtol * max(1, scale)).  With
    ``strict=True`` both tolerances are forced to zero and predicates become
    exact comparisons.
    """

    atol: float = DEFAULT_ATOL
    rtol: float = DEFAULT_RTOL
    strict: bool = False

    def __post_init__(self):
        if self.strict:
            object.__setattr__(self, "atol", 0.0)
            object.__setattr__(self, "rtol", 0.0)
        for name in ("atol", "rtol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise InvalidInputError(f"{name} must be finite and >= 0, got {v}")

    @classmethod
    def default(cls) -> "TolerancePolicy":
        """Default verification policy; CONE_FIXPOINT_TOL overrides both tolerances."""
        raw = os.environ.get(ENV_TOL)
        if raw is None:
            return cls()
        try:
            v = float(raw)
        except ValueError as exc:
            raise InvalidInputError(f"{ENV_TOL} must parse as a float, got {raw!r}") from exc
        return cls(atol=v, rtol=v)

    @classmethod
    def exact(cls) -> "TolerancePolicy":
        return cls(strict=True)

    def margin(self, scale):
        """Allowed slack for a residual living on the given scale.

        A float gives a float; an array gives the slack of each entry by
        the same formula.
        """
        if isinstance(scale, np.ndarray):
            # atol + rtol * maximum(1, |scale|), computed in one buffer
            out = np.abs(scale)
            np.maximum(out, 1.0, out=out)
            out *= self.rtol
            out += self.atol
            return out
        return self.atol + self.rtol * max(1.0, abs(scale))


def lorentz_contains(point: AugmentedPoint, tol: TolerancePolicy | None = None) -> bool:
    """Is (x, t) in the Lorentz cone, i.e. t >= ||x|| up to the policy's slack?

    A strict policy decides ``t >= 0 and t^2 >= sum x_i^2`` exactly: every
    float is a dyadic rational, so no rounding enters.
    """
    if tol is None:
        tol = TolerancePolicy.default()
    if tol.strict:
        t = Fraction(point.t)
        return t >= 0 and t * t >= sum(Fraction(v) ** 2 for v in point.x.tolist())
    residual = point.t - norm(point.x)
    return residual >= -tol.margin(point.t)


def leq_lorentz(
    a: AugmentedPoint, b: AugmentedPoint, tol: TolerancePolicy | None = None
) -> bool:
    """Cone order: a <= b exactly when b - a lies in the Lorentz cone."""
    return lorentz_contains(b - a, tol)
