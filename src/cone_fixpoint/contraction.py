"""Contraction maps with certifiable Lipschitz factors.

Only closed families are supported, so the declared factor of every spec
can be checked against the family's true factor rather than taken on
faith.  Each family class declares everything else about itself: its
problem-file ``kind``, its ``file_keys``, a ``reference_fixed_point``
computed without Picard iteration and, for m = 1, the float map the engine
iterates; :data:`FAMILIES` maps kinds to classes.
The families:

* ``Constant``        f(x) = c                   (true factor 0)
* ``Affine``          f(x) = A x + b             (true factor = spectral norm of A)
* ``ScaledRotation``  f(x) = s R(theta) x + b    (m = 2, true factor |s|)
* ``KeplerScalar``    f(x) = M + e sin x         (m = 1, true factor |e|)
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .cone import NON_FINITE_NORM, as_vector, norm
from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidSpecError,
    NotAContractionError,
    UnsupportedInstanceError,
)

# Slack allowed between a family's measured factor and its declared one.
FACTOR_SLACK = 1e-9

# Rounding allowance of spectral_norm in units of m u ||A||_F^2, u = eps / 2.
# Two errors part the top computed eigenvalue of fl(A^T A) from ||A||_2^2,
# each scaling with a norm at most ||A||_F^2:
# * forming the product: |fl(A^T A) - A^T A| <= gamma_m |A|^T |A| (Higham,
#   Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.5),
#   gamma_m = m u / (1 - m u) <= 1.01 m u;
# * eigvalsh's backward error: p(m) u ||fl(A^T A)||_2 (LAPACK Users' Guide,
#   section 4.7), p(m) a modestly growing function of m.
# 4 leaves about 2 m for p(m) and a few u for rounding the final sum and
# square root; against 40-digit eigenvalues of 3000 seeded matrices up to
# 12x12, some with clustered top pairs, the largest gap was 1.15.  The
# absolute term m^2 2^-1074 covers underflow in the products.
ROUNDING_ALLOWANCE = 4.0

# Radius of the sampling ball used by empirical_lipschitz.
SAMPLE_RADIUS = 10.0

# Width at which the Kepler reference bisection stops.
BISECTION_WIDTH = 1e-12


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not (math.isfinite(lam) and 0.0 < lam < 1.0):
        raise InvalidSpecError(f"lambda must lie strictly inside (0, 1), got {lam}")
    return lam


class ContractionSpec(abc.ABC):
    """A declared contraction f: R^m -> R^m with factor ``lam`` in (0, 1)."""

    lam: float
    # Problem-file kind and (file key, constructor field) pairs; a class
    # without a kind has no problem-file form.
    kind: ClassVar[str | None] = None
    file_keys: ClassVar[tuple[tuple[str, str], ...]] = ()

    @property
    @abc.abstractmethod
    def dimension(self) -> int:
        """Dimension m of the space the map acts on."""

    @abc.abstractmethod
    def _apply(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the map on a validated point."""

    def _apply_into(self, x: np.ndarray, out: np.ndarray):
        """Write :meth:`_apply` of a validated point into the float64 array
        ``out``, bit for bit: the engine's array loop steps with it straight
        into its trace buffer.  ``out`` does not overlap ``x``."""
        out[...] = self._apply(x)

    @abc.abstractmethod
    def _apply_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the map on each row of an (n, m) array."""

    def _scalar_map(self):
        """On a map with m = 1, a float -> float function that gives exactly
        the bits of :meth:`_apply`, for the engine's float loop; None when
        the family has none.  Not called for m >= 2."""
        return None

    @abc.abstractmethod
    def true_factor(self) -> float:
        """The family's actual Lipschitz factor."""

    def _factor_proven_at_most(self, bound: float) -> bool:
        """True when a check cheaper than :meth:`true_factor` proves that the
        true factor is at most ``bound``; False when it cannot tell."""
        return False

    def reference_fixed_point(self) -> np.ndarray:
        """Fixed point of the map, computed without Picard iteration."""
        raise UnsupportedInstanceError(
            f"no reference solution available for {type(self).__name__}"
        )


@dataclass(frozen=True)
class Constant(ContractionSpec):
    """f(x) = c; contracts with factor 0, any declared lam in (0, 1) is valid."""

    c: np.ndarray
    lam: float
    kind = "constant"
    file_keys = (("c", "c"),)

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

    def _scalar_map(self):
        c0 = float(self.c[0])
        return lambda x: c0

    def true_factor(self) -> float:
        return 0.0

    def reference_fixed_point(self) -> np.ndarray:
        return self.c.copy()


def _solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(np.eye(b.size) - a, b)


def _matvec_plus_into(a: np.ndarray, b: np.ndarray, x: np.ndarray, out: np.ndarray):
    """``out = a @ x + b`` without a temporary, bit for bit from m = 2 on:
    np.dot into ``out`` calls the same gemv as the matmul (at 1x1 it takes
    numpy's scalar product instead, whose signed zeros differ).  np.matmul
    into ``out`` costs twice as much when ``x`` and ``out`` are rows of one
    buffer, as in the engine.  ``out`` is passed by position, which numpy
    parses faster than the keyword."""
    np.dot(a, x, out)
    np.add(out, b, out)


@dataclass(frozen=True)
class Affine(ContractionSpec):
    """f(x) = A x + b.  The spectral norm of A must not exceed lam.

    The spectral-norm bound is expensive, so it is established by
    :func:`validate_contraction` rather than at construction.
    """

    a: np.ndarray
    b: np.ndarray
    lam: float
    kind = "affine"
    file_keys = (("A", "a"), ("b", "b"))

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

    def _apply_into(self, x, out):
        if self.b.size > 1:
            _matvec_plus_into(self.a, self.b, x, out)
        else:
            super()._apply_into(x, out)

    def _apply_batch(self, xs):
        return xs @ self.a.T + self.b

    def _scalar_map(self):
        # The product's sum starts from +0, as in the matmul: a x = -0 then
        # gives +0, and +0 + b = +0 where -0 + b = -0 at b = -0.
        a0, b0 = float(self.a[0, 0]), float(self.b[0])
        return lambda x: (0.0 + a0 * x) + b0

    def true_factor(self) -> float:
        return spectral_norm(self.a)

    def _factor_proven_at_most(self, bound: float) -> bool:
        return _cholesky_proves_norm_at_most(self.a, bound)

    def reference_fixed_point(self) -> np.ndarray:
        return _solve_linear(self.a, self.b)


@dataclass(frozen=True)
class ScaledRotation(ContractionSpec):
    """f(x) = scale * R(theta) x + b on R^2; |scale| is the exact factor."""

    theta: float
    scale: float
    b: np.ndarray
    lam: float
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)
    kind = "scaled_rotation"
    file_keys = (("theta", "theta"), ("scale", "scale"), ("b", "b"))

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

    def _apply_into(self, x, out):
        _matvec_plus_into(self._matrix, self.b, x, out)

    def _apply_batch(self, xs):
        return xs @ self._matrix.T + self.b

    def true_factor(self) -> float:
        return abs(self.scale)

    def reference_fixed_point(self) -> np.ndarray:
        return _solve_linear(self._matrix, self.b)


def _bisect_kepler(e: float, mean_anomaly: float) -> float:
    """Root of x - M - e sin x on [M - |e|, M + |e|] by plain bisection.

    The bracket always works: at the endpoints the residual is -|e| - e sin(.)
    and |e| - e sin(.), which cannot be positive resp. negative.
    """
    lo = mean_anomaly - abs(e)
    hi = mean_anomaly + abs(e)
    if lo == hi:
        return mean_anomaly

    def g(x: float) -> float:
        return x - mean_anomaly - e * math.sin(x)

    if g(lo) > 0.0 or g(hi) < 0.0:
        raise UnsupportedInstanceError("bisection bracket failed")
    while hi - lo > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class KeplerScalar(ContractionSpec):
    """f(x) = M + e sin x on R; sup |f'| = |e| is the exact factor."""

    e: float
    mean_anomaly: float
    lam: float
    kind = "kepler"
    file_keys = (("e", "e"), ("M", "mean_anomaly"))

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

    def _scalar_map(self):
        # numpy's sin, as in _apply: math.sin is the C library's, which
        # need not round the same way, and it raises at inf
        mean_anomaly, e, sin = self.mean_anomaly, self.e, np.sin
        return lambda x: mean_anomaly + e * float(sin(x))

    def true_factor(self) -> float:
        return abs(self.e)

    def reference_fixed_point(self) -> np.ndarray:
        return np.array([_bisect_kepler(self.e, self.mean_anomaly)])


# Problem-file kind -> family class: the one table of the closed families.
FAMILIES = {cls.kind: cls for cls in (Constant, Affine, ScaledRotation, KeplerScalar)}


class FilledOnFirstRead:
    """A dataclass field that may be given as a zero-argument function in
    place of its value: the function runs on the first read, and its result
    replaces it.  The field has no default."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if callable(value):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a spec's declared factor against its true one.

    ``true_factor`` may be given as a function that computes it; it runs on
    the first read.
    """

    family: str
    dimension: int
    declared_lambda: float
    true_factor: float = FilledOnFirstRead()

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


def spectral_norm(a) -> float:
    """Rigorous upper bound on the largest singular value of a matrix.

    The square root of the top LAPACK eigenvalue of A^T A plus the rounding
    allowance ``ROUNDING_ALLOWANCE m u ||A||_F^2 + m^2 2^-1074``, with m the
    larger dimension of A.  Raises :class:`InvalidInputError` when A^T A
    overflows.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix entries must be finite")
    if not a.any():
        return 0.0

    with np.errstate(over="ignore"):
        gram = a.T @ a
    if not np.all(np.isfinite(gram)):
        raise InvalidInputError(NON_FINITE_NORM)
    top = float(np.linalg.eigvalsh(gram)[-1])
    m = max(a.shape)
    u = np.finfo(float).eps / 2
    delta = ROUNDING_ALLOWANCE * m * u * float(np.trace(gram)) + m * m * math.ulp(0.0)
    return math.sqrt(max(top, 0.0) + delta)


# The gate proves ||A||_2 <= c, i.e. M = c^2 I - A^T A positive semidefinite,
# by a floating-point Cholesky factorization of H = fl(T I - G), where
# G = fl(A^T A), c2 = fl(c c), T = fl(c2 - s) and F = fl(trace G), for an
# m x m matrix A.  Write u = 2^-53 and eta = 2^-1022, the smallest normal,
# which bounds an operation's underflow error also where subnormal results
# are flushed to zero.  Take m <= 2^22 (such an A fills 128 TiB), so every
# gamma_k = k u / (1 - k u) below is at most k u (1 + 2^-30).
#   * Product: |G - A^T A| <= gamma_m |A|^T |A| entrywise, for any summation
#     order (Higham, Accuracy and Stability, sec. 3.5), so
#     ||G - A^T A||_2 <= gamma_m ||A||_F^2 <= (m + 0.01) u F, plus at most
#     2 m eta of underflow in each entry, 3 m^2 eta in norm.
#   * Forming H: off the diagonal H = -G exactly; on it fl(T - G_ii) errs
#     by at most u (T + G_ii) + eta <= u c2 + 1.01 u F + eta.
#   * Cholesky: if it runs to completion on H, the computed factor R has
#     R^T R = H + E with |E_ij| <= alpha sqrt(H_ii H_jj), alpha =
#     gamma_{m+1} / (1 - gamma_{m+1}) (Demmel's bound, as used by Rump,
#     "Verification of positive definiteness", BIT 46, 2006), so
#     ||E||_2 <= alpha trace(H) <= alpha m c2 (1 + u).  A blocked
#     factorization, or one that multiplies by 1 / r_jj, rounds at most once
#     more per entry: alpha <= (m + 2) u (1 + 2^-29).  Underflow adds at most
#     2 (m + 1) eta (1 + r_jj) <= 4 (m + 1)(1 + c2) eta to each entry of E.
#   * c^2 >= c2 (1 - u) and T <= (c2 - s)(1 + u) + eta, so
#     c^2 - T >= s - 2 u c2 - eta.
# As R^T R >= 0, lambda_min(M) >= c^2 - T less the three norms above, which
# is >= 0 once s >= u ((m + 2)^2 c2 + (m + 2) F) + 8 (m + 1)^2 (1 + c2) eta.
# The shift doubles both terms; the second half covers the rounding of s
# itself.  A NaN from an overflow inside the factorization reaches the last
# diagonal entry of R, which must be finite.  The gate tries no c outside
# [2^-500, 2^500] and no A with F > m c2 (then ||A||_2 > c up to rounding),
# so no entry of H is near overflow.
def _cholesky_proves_norm_at_most(a: np.ndarray, c: float) -> bool:
    """True when one Cholesky factorization of a shifted c^2 I - A^T A
    proves ||A||_2 <= c for the square matrix A; False when it cannot (the
    factorization breaks down, or c or A is out of the gate's range)."""
    if not (2.0**-500 <= c <= 2.0**500):
        return False
    m = a.shape[0]
    u, eta = 2.0**-53, 2.0**-1022
    h = a.T @ a
    c2 = c * c
    frob2 = float(np.trace(h))
    if not (frob2 <= m * c2):
        return False
    shift = 2.0 * u * ((m + 2) ** 2 * c2 + (m + 2) * frob2) + 16.0 * (m + 1) ** 2 * (1.0 + c2) * eta
    np.negative(h, out=h)
    h.ravel()[:: m + 1] += c2 - shift
    try:
        r = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return math.isfinite(r[-1, -1])


def validate_contraction(spec: ContractionSpec, slack: float = FACTOR_SLACK) -> ValidationReport:
    """Confirm the declared factor dominates the family's true factor.

    Returns a report carrying the true factor; raises
    :class:`NotAContractionError` when the true factor exceeds
    ``lam + slack`` and :class:`InvalidSpecError` for an out-of-range lam.
    When the family proves ``lam + slack`` an upper bound by a cheaper check
    (``Affine``: one Cholesky factorization), the report's ``true_factor``
    is computed on its first read.
    """
    _check_lambda(spec.lam)
    bound = spec.lam + slack
    if spec._factor_proven_at_most(bound):
        tf = spec.true_factor
    else:
        tf = spec.true_factor()
        if not (tf <= bound):
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
