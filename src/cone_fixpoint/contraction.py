"""Contraction maps with certifiable Lipschitz factors.

Only closed families are supported, so the declared factor of every spec
can be checked against the family's true factor rather than taken on
faith.  The families:

* ``Constant``        f(x) = c                   (true factor 0)
* ``Affine``          f(x) = A x + b             (true factor = spectral norm of A)
* ``ScaledRotation``  f(x) = s R(theta) x + b    (m = 2, true factor |s|)
* ``KeplerScalar``    f(x) = M + e sin x         (m = 1, true factor |e|)
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from .cone import as_vector, norm
from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidSpecError,
    NotAContractionError,
    SpectralNormError,
)

# Slack allowed between a family's measured factor and its declared one.
FACTOR_SLACK = 1e-9

# Power iteration constants, fixed for reproducibility.
POWER_ITER_TOL = 1e-12
POWER_ITER_CAP = 10_000
_POWER_SEED = 0

# Radius of the sampling ball used by empirical_lipschitz.
SAMPLE_RADIUS = 10.0


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not (math.isfinite(lam) and 0.0 < lam < 1.0):
        raise InvalidSpecError(f"lambda must lie strictly inside (0, 1), got {lam}")
    return lam


class ContractionSpec(abc.ABC):
    """A declared contraction f: R^m -> R^m with factor ``lam`` in (0, 1)."""

    lam: float

    @property
    @abc.abstractmethod
    def dimension(self) -> int:
        """Dimension m of the space the map acts on."""

    @abc.abstractmethod
    def _apply(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the map on a validated point."""

    @abc.abstractmethod
    def _apply_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the map on each row of an (n, m) array."""

    @abc.abstractmethod
    def true_factor(self) -> float:
        """The family's actual Lipschitz factor."""


@dataclass(frozen=True)
class Constant(ContractionSpec):
    """f(x) = c; contracts with factor 0, any declared lam in (0, 1) is valid."""

    c: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "c", as_vector(self.c))
        object.__setattr__(self, "lam", _check_lambda(self.lam))

    @property
    def dimension(self) -> int:
        return self.c.size

    def _apply(self, x):
        return self.c.copy()

    def _apply_batch(self, xs):
        return np.broadcast_to(self.c, xs.shape).copy()

    def true_factor(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Affine(ContractionSpec):
    """f(x) = A x + b.  The spectral norm of A must not exceed lam.

    The spectral-norm bound is expensive, so it is established by
    :func:`validate_contraction` rather than at construction.
    """

    a: np.ndarray
    b: np.ndarray
    lam: float

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidSpecError(f"A must be a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidSpecError("A must have finite entries")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", as_vector(self.b))
        object.__setattr__(self, "lam", _check_lambda(self.lam))
        if self.b.size != a.shape[0]:
            raise InvalidSpecError(
                f"b has dimension {self.b.size} but A is {a.shape[0]}x{a.shape[1]}"
            )

    @property
    def dimension(self) -> int:
        return self.b.size

    def _apply(self, x):
        return self.a @ x + self.b

    def _apply_batch(self, xs):
        return xs @ self.a.T + self.b

    def true_factor(self) -> float:
        return spectral_norm(self.a)


@dataclass(frozen=True)
class ScaledRotation(ContractionSpec):
    """f(x) = scale * R(theta) x + b on R^2; |scale| is the exact factor."""

    theta: float
    scale: float
    b: np.ndarray
    lam: float
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("theta", "scale"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise InvalidSpecError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "b", as_vector(self.b))
        object.__setattr__(self, "lam", _check_lambda(self.lam))
        if self.b.size != 2:
            raise InvalidSpecError("ScaledRotation is defined on R^2 only")
        if abs(self.scale) > self.lam:
            raise NotAContractionError(
                f"|scale| = {abs(self.scale)} exceeds declared lambda = {self.lam}",
                true_factor=abs(self.scale),
            )
        c, s = math.cos(self.theta), math.sin(self.theta)
        matrix = self.scale * np.array([[c, -s], [s, c]])
        matrix.setflags(write=False)
        object.__setattr__(self, "_matrix", matrix)

    @property
    def dimension(self) -> int:
        return 2

    @property
    def matrix(self) -> np.ndarray:
        """scale * R(theta), built once at construction (read-only)."""
        return self._matrix

    def _apply(self, x):
        return self._matrix @ x + self.b

    def _apply_batch(self, xs):
        return xs @ self._matrix.T + self.b

    def true_factor(self) -> float:
        return abs(self.scale)


@dataclass(frozen=True)
class KeplerScalar(ContractionSpec):
    """f(x) = M + e sin x on R; sup |f'| = |e| is the exact factor."""

    e: float
    mean_anomaly: float
    lam: float

    def __post_init__(self):
        for name in ("e", "mean_anomaly"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise InvalidSpecError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "lam", _check_lambda(self.lam))
        if abs(self.e) > self.lam:
            raise NotAContractionError(
                f"|e| = {abs(self.e)} exceeds declared lambda = {self.lam}",
                true_factor=abs(self.e),
            )

    @property
    def dimension(self) -> int:
        return 1

    def _apply(self, x):
        return self.mean_anomaly + self.e * np.sin(x)

    def _apply_batch(self, xs):
        return self.mean_anomaly + self.e * np.sin(xs)

    def true_factor(self) -> float:
        return abs(self.e)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a spec's declared factor against its true one."""

    family: str
    dimension: int
    declared_lambda: float
    true_factor: float

    @property
    def margin(self) -> float:
        return self.declared_lambda - self.true_factor


def evaluate(spec: ContractionSpec, x) -> np.ndarray:
    """Apply the map to one point.  Deterministic: repeated calls agree bitwise."""
    x = as_vector(x)
    if x.size != spec.dimension:
        raise DimensionMismatchError(
            f"point has dimension {x.size}, spec expects {spec.dimension}"
        )
    y = np.asarray(spec._apply(x), dtype=float)
    y.setflags(write=False)
    return y


def evaluate_batch(spec: ContractionSpec, xs: np.ndarray) -> np.ndarray:
    """Apply the map to each row of an (n, m) array."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != spec.dimension:
        raise DimensionMismatchError(
            f"batch has shape {xs.shape}, spec expects (n, {spec.dimension})"
        )
    return np.asarray(spec._apply_batch(xs), dtype=float)


def spectral_norm(a, tol: float = POWER_ITER_TOL, max_iter: int = POWER_ITER_CAP) -> float:
    """Largest singular value of a matrix by power iteration on A^T A.

    The start vector is the all-ones vector with a small deterministic
    perturbation (so it is never orthogonal to the dominant singular
    direction for symmetric spectra), normalized.  Raises
    :class:`SpectralNormError` carrying the best estimate if the value has
    not stabilized to relative accuracy ``tol`` within ``max_iter`` steps.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix entries must be finite")
    if not (tol > 0.0):
        raise InvalidInputError("tol must be positive")
    if not a.any():
        return 0.0

    gram = a.T @ a
    n = gram.shape[0]
    rng = np.random.default_rng(_POWER_SEED)
    v = np.ones(n) + 1e-3 * rng.standard_normal(n)
    v /= norm(v)

    sigma = math.inf
    for _ in range(max_iter):
        w = gram @ v
        nw = norm(w)
        if nw == 0.0:
            return 0.0
        sigma_new = math.sqrt(max(float(v @ w), 0.0))
        v = w / nw
        if abs(sigma_new - sigma) <= tol * max(1.0, sigma_new):
            return sigma_new
        sigma = sigma_new
    raise SpectralNormError(
        f"power iteration did not reach relative tolerance {tol} "
        f"within {max_iter} iterations (best estimate {sigma})",
        estimate=sigma,
    )


def validate_contraction(spec: ContractionSpec, slack: float = FACTOR_SLACK) -> ValidationReport:
    """Confirm the declared factor dominates the family's true factor.

    Returns a report carrying the computed true factor; raises
    :class:`NotAContractionError` when the true factor exceeds
    ``lam + slack`` and :class:`InvalidSpecError` for an out-of-range lam.
    """
    _check_lambda(spec.lam)
    tf = spec.true_factor()
    if tf > spec.lam + slack:
        raise NotAContractionError(
            f"true Lipschitz factor {tf} exceeds declared lambda {spec.lam}",
            true_factor=tf,
        )
    return ValidationReport(
        family=type(spec).__name__,
        dimension=spec.dimension,
        declared_lambda=spec.lam,
        true_factor=tf,
    )


def empirical_lipschitz(spec: ContractionSpec, sample_count: int, seed: int) -> float:
    """Largest observed ||f(u) - f(v)|| / ||u - v|| over seeded random pairs.

    Pairs are drawn uniformly from the ball of radius 10 about the origin;
    the result is deterministic given the seed and, for a valid spec, never
    exceeds the declared factor by more than rounding.
    """
    if sample_count < 1:
        raise InvalidInputError("sample_count must be >= 1")
    m = spec.dimension
    rng = np.random.default_rng(seed)

    def draw():
        u = rng.standard_normal(m)
        r = SAMPLE_RADIUS * rng.uniform() ** (1.0 / m)
        nu = norm(u)
        return r * u / nu if nu > 0 else np.zeros(m)

    worst = 0.0
    for _ in range(sample_count):
        u, v = draw(), draw()
        gap = norm(u - v)
        if gap == 0.0:
            continue
        worst = max(worst, norm(evaluate(spec, u) - evaluate(spec, v)) / gap)
    return worst
