"""Contraction maps with certifiable Lipschitz factors.

Only closed families are supported, so the declared factor of every spec
can be checked against the family's true factor rather than taken on
faith.  Each family class declares its whole contract: its problem-file
``kind`` and ``file_keys``; ``_step``, the map's one float definition,
which the engine binds once per run; ``_apply_batch``, the verifier's
batched recomputation; ``_rounding_bound``, a rigorous bound on an
evaluation's rounding error; ``true_factor``; and a
``reference_fixed_point`` computed without Picard iteration.
:data:`FAMILIES` maps kinds to classes.  ``Affine`` and
``ScaledRotation`` take their arithmetic from one private base, which
holds the linear part; :func:`step_form` and :func:`appender` are the two
conversions of the step form, so no other module knows it.
The families:

* ``Constant``        f(x) = c                   (true factor 0)
* ``Affine``          f(x) = A x + b             (true factor = spectral norm of A)
* ``ScaledRotation``  f(x) = s R(theta) x + b    (m = 2, true factor |s|)
* ``KeplerScalar``    f(x) = M + e sin x         (m = 1, true factor |e|)
"""

from __future__ import annotations

import abc
import math
from array import array
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .cone import NON_FINITE_NORM, as_vector, norm, row_norms
from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidSpecError,
    NotAContractionError,
    UnsupportedInstanceError,
    check_integer,
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

# Assumed accuracy of the C library's sin (math.sin) and of np.sin on
# doubles, in units in the last place of min(1, |x|), which is at least
# |sin x|: |fl(sin x) - sin x| <= SIN_ULPS ulp(min(1, |x|)).  Both sources
# state 1 ulp: the GNU C Library manual, "Errors in Math Functions" (sin,
# x86_64), and numpy's accuracy test data for float64 sin
# (numpy/_core/tests/data/umath-validation-set-sin.csv); the bound assumes
# twice that, for libraries that count ulps otherwise.
SIN_ULPS = 2


def steps_on_floats(m: int) -> bool:
    """Whether maps on R^m step on Python floats, m <= 2, rather than on
    float64 arrays: the one place that sets the width, for every family's
    :meth:`ContractionSpec._step`, :func:`step_form` and :func:`appender`."""
    return m <= 2


def step_form(x: np.ndarray):
    """The float64 vector ``x`` in the form a step takes it
    (:meth:`ContractionSpec._step`): a float at m = 1, a list of m floats
    at m = 2 and ``x`` itself from m = 3 on."""
    if not steps_on_floats(x.size):
        return x
    values = x.tolist()
    return values[0] if x.size == 1 else values


def appender(rows: array, m: int):
    """The function that appends a step's value on R^m, in its step form,
    to the flat ``array("d")`` ``rows``, copying it: ``rows.append`` at
    m = 1, ``rows.fromlist`` at m = 2, and from m = 3 on ``frombytes`` of
    the array's ``tobytes``, which copies an array in faster than of its
    cast memoryview."""
    if steps_on_floats(m):
        return rows.append if m == 1 else rows.fromlist
    frombytes = rows.frombytes
    return lambda y: frombytes(y.tobytes())


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not (math.isfinite(lam) and 0.0 < lam < 1.0):
        raise InvalidSpecError(f"lambda must lie strictly inside (0, 1), got {lam}")
    return lam


class ContractionSpec(abc.ABC):
    """A declared contraction f: R^m -> R^m with factor ``lam`` in (0, 1).

    :meth:`_step` defines the map's bits: the engine iterates it, and
    :meth:`_apply` runs it on one point.  :meth:`_apply_batch` is the
    verifier's independent recomputation and need not give them: the trace
    is checked against it within twice :meth:`_rounding_bound`.  At m <= 2
    the affine families' batch does give them, so no BLAS call reaches
    their traces or their x echo.
    """

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
    def _step(self):
        """The map's one float definition, which the engine binds once per
        run: a pure function x -> f(x) on x in its step form
        (:func:`step_form`), a float at m = 1, a list of m floats at m = 2
        and a float64 array from m = 3 on.  It returns a value of the same
        form and never writes into x.  The value may be one the map holds
        (``Constant``'s c in step form), so every caller copies it: into
        the trace through :func:`appender`, or into a new array."""

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the map on a validated point: :meth:`_step` on its step
        form, copied into a new array."""
        return np.array(self._step()(step_form(x))).reshape(x.shape)

    def _apply_rows(self, xs: np.ndarray) -> np.ndarray:
        """:meth:`_apply` on each row of an (n, m) array, with
        :meth:`_step` bound once, into a new array."""
        step = self._step()
        return np.array([step(step_form(x)) for x in xs]).reshape(xs.shape)

    @abc.abstractmethod
    def _apply_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the map on each row of an (n, m) array, not necessarily
        with the bits of :meth:`_apply`."""

    @abc.abstractmethod
    def _rounding_bound(self, xs: np.ndarray) -> np.ndarray:
        """A rigorous bound rho, rounded up, on ||fl(f(x)) - f(x)|| at each
        row x of an (n, m) array, for fl(f(x)) as :meth:`_step` or
        :meth:`_apply_batch` computes it."""

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
    _value: float | list[float] | np.ndarray = field(init=False, repr=False, compare=False)
    kind = "constant"
    file_keys = (("c", "c"),)

    def __post_init__(self):
        object.__setattr__(self, "c", as_vector(self.c))
        object.__setattr__(self, "lam", _check_lambda(self.lam))
        object.__setattr__(self, "_value", step_form(self.c))

    @property
    def dimension(self) -> int:
        return self.c.size

    def _step(self):
        value = self._value
        return lambda x: value

    def _apply_batch(self, xs):
        return np.broadcast_to(self.c, xs.shape).copy()

    def _rounding_bound(self, xs):
        return np.zeros(xs.shape[0])

    def true_factor(self) -> float:
        return 0.0

    def reference_fixed_point(self) -> np.ndarray:
        return self.c.copy()


# The rounding bound of f(x) = A x + b at a point x, for any evaluation that
# sums the m products and b in some order, with or without a fused
# multiply-add (a gemv, a row of a gemm, the matmul).  Write u = 2^-53,
# eta = 2^-1022 (it also covers subnormal results flushed to zero),
# gamma_k = k u / (1 - k u) and gamma = gamma_{m+9}, and take m <= 2^40.
#   * Each component errs by at most gamma_{m+1} (|A| |x| + |b|)_i (Higham,
#     Accuracy and Stability, sec. 3.5) plus 2 (m + 1) eta of underflow, so
#     the error's norm is at most gamma_{m+1} (||A||_F ||x|| + ||b||) +
#     2 (m + 1)^2 eta, by Cauchy-Schwarz on each row of |A| |x|.
#   * A row_norms value N of at most m entries has ||v|| <= (1 + gamma)
#     (N + (m + 1) eta) (see the row-block filter in certificate.py).  With
#     X = row_norms(x), B = row_norms(b) and F = row_norms of the row norms
#     of A, ||A||_F <= (1 + gamma)^2 (F + 2 (m + 1)^2 eta), so the error's
#     norm is at most (m + 1) u (1 + (4.2 m + 30) u) ((F + 2 (m + 1)^2 eta)
#     (X + (m + 1) eta) + B + (m + 1) eta) + 2 (m + 1)^2 eta.
#   * rho below loses at most a factor (1 - u) in each of its nine
#     roundings, which K's 1 + (5m + 48) u covers, and eta where a product
#     underflows, which E = 3 (m + 1)^2 eta covers.
# rho is inf where that bound overflows.  The Frobenius norm costs O(m) per
# row, where |A| |x| costs a matrix product as large as the verifier's
# batched recomputation; it is looser by at most sqrt(m).
def _matvec_rounding_bound(a: np.ndarray, b: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The rounding bound rho of x -> ``a @ x + b`` at each finite row of
    ``xs`` (derivation above)."""
    m = b.size
    u, eta = 2.0**-53, 2.0**-1022
    with np.errstate(over="ignore", invalid="ignore"):
        frob, b_norm = row_norms(np.stack((row_norms(a), b)))
        size = (frob + 2 * (m + 1) ** 2 * eta) * (row_norms(xs) + (m + 1) * eta) + (b_norm + (m + 1) * eta)
        return size * ((m + 1) * u * (1.0 + (5 * m + 48) * u)) + 3 * (m + 1) ** 2 * eta


def _matvec_plus_step(a: np.ndarray, b: np.ndarray):
    """x -> ``a @ x + b`` on a float64 array, bit for bit from m = 3 on,
    where maps step on arrays: ``a.dot`` calls the same gemv as the matmul,
    and b is added into its fresh output, with no second temporary.  The
    bound method skips np.dot's dispatch, and the output is passed by
    position, which numpy parses faster than the keyword."""
    dot, add = a.dot, np.add

    def step(x):
        y = dot(x)
        add(y, b, y)
        return y

    return step


def _float_affine_step(coefficients: tuple[float, ...]):
    """x -> A x + b at m <= 2 from its float coefficients
    (:meth:`_AffineMap._set_linear`): at m = 1 on a float, at m = 2 on a
    pair, returning a list.  Each component is
    written out, ``((0 + a_i0 x_0) + a_i1 x_1) + b_i``, in separate,
    correctly rounded operations: no BLAS call and no fused multiply-add.
    The sum starts from +0, as a matmul's does: a product of -0 then gives
    +0, and +0 + b = +0 where -0 + b = -0 at b = -0.  Given numpy columns
    in place of floats, the same function computes the same bits on each
    row, which is how :meth:`_AffineMap._apply_batch` uses it."""
    if len(coefficients) == 2:
        a0, b0 = coefficients
        return lambda x: (0.0 + a0 * x) + b0
    a00, a01, a10, a11, b0, b1 = coefficients

    def step(x):
        x0, x1 = x
        return [((0.0 + a00 * x0) + a01 * x1) + b0, ((0.0 + a10 * x0) + a11 * x1) + b1]

    return step


@np.errstate(over="ignore", invalid="ignore")
def _float_affine_batch(coefficients: tuple[float, ...], xs: np.ndarray) -> np.ndarray:
    """:func:`_float_affine_step` on the columns of an (n, m) array, m <= 2:
    the bits of the step on each row, with no warning where it overflows,
    as a matmul gives none."""
    step = _float_affine_step(coefficients)
    if xs.shape[1] == 1:
        return step(xs[:, 0])[:, None]
    return np.column_stack(step((xs[:, 0], xs[:, 1])))


def _aligned_read_only(a: np.ndarray) -> np.ndarray:
    """A read-only copy of the contiguous float64 matrix ``a``, in its
    memory order (gemv's bits depend on it), whose data start on a
    64-byte boundary: a view into a slightly larger ``np.empty``.  Where
    malloc puts a matrix is heap luck, and OpenBLAS's gemv runs 25-36 %
    slower on a matrix that starts 16 or 48 bytes past such a boundary
    than at 0 or 32 (m = 100-300, one thread, SkylakeX and Haswell
    kernels); the bits do not depend on the offset."""
    buffer = np.empty(a.size + 7)
    start = -buffer.ctypes.data % 64 // buffer.itemsize
    aligned = buffer[start:start + a.size].reshape(a.shape, order="F" if np.isfortran(a) else "C")
    aligned[...] = a
    aligned.setflags(write=False)
    return aligned


@dataclass(frozen=True)
class _AffineMap(ContractionSpec):
    """The arithmetic of a family f(x) = L x + b: the subclass builds its
    linear part L once, at construction, with :meth:`_set_linear`, and
    this class steps, batches, bounds and solves it."""

    _linear: np.ndarray = field(init=False, repr=False, compare=False)
    _coefficients: tuple[float, ...] | None = field(init=False, repr=False, compare=False)

    def _set_linear(self, linear: np.ndarray):
        """Hold a read-only, 64-byte aligned copy of ``linear`` as L, and as
        the float coefficients the entries of L, row by row, then of b, as
        Python floats where the map steps on floats
        (:func:`steps_on_floats`); else None."""
        linear = _aligned_read_only(linear)
        object.__setattr__(self, "_linear", linear)
        object.__setattr__(self, "_coefficients", tuple(linear.ravel().tolist() + self.b.tolist())
                           if steps_on_floats(self.b.size) else None)

    @property
    def dimension(self) -> int:
        return self.b.size

    def _step(self):
        if self._coefficients is None:
            return _matvec_plus_step(self._linear, self.b)
        return _float_affine_step(self._coefficients)

    def _apply_batch(self, xs):
        if self._coefficients is None:
            return xs @ self._linear.T + self.b
        return _float_affine_batch(self._coefficients, xs)

    def _rounding_bound(self, xs):
        return _matvec_rounding_bound(self._linear, self.b, xs)

    def reference_fixed_point(self) -> np.ndarray:
        return np.linalg.solve(np.eye(self.b.size) - self._linear, self.b)


@dataclass(frozen=True)
class Affine(_AffineMap):
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
        object.__setattr__(self, "b", as_vector(self.b))
        object.__setattr__(self, "lam", _check_lambda(self.lam))
        if self.b.size != a.shape[0]:
            raise InvalidSpecError(
                f"b has dimension {self.b.size} but A is {a.shape[0]}x{a.shape[1]}"
            )
        self._set_linear(a)
        object.__setattr__(self, "a", self._linear)

    def true_factor(self) -> float:
        return spectral_norm(self.a)

    def _factor_proven_at_most(self, bound: float) -> bool:
        return _cholesky_proves_norm_at_most(self.a, bound)


@dataclass(frozen=True)
class ScaledRotation(_AffineMap):
    """f(x) = scale * R(theta) x + b on R^2; |scale| is the exact factor."""

    theta: float
    scale: float
    b: np.ndarray
    lam: float
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
        self._set_linear(self.scale * np.array([[c, -s], [s, c]]))

    @property
    def matrix(self) -> np.ndarray:
        """scale * R(theta), built once at construction (read-only)."""
        return self._linear

    def true_factor(self) -> float:
        return abs(self.scale)


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

    def _step(self):
        # math.sin, the C library's, defines the map: it costs about a third
        # of np.sin on a float.  It raises at inf, which no caller passes: x
        # is validated finite, and later iterates lie within |M| + |e|.
        mean_anomaly, e, sin = self.mean_anomaly, self.e, math.sin
        return lambda x: mean_anomaly + e * sin(x)

    def _apply_batch(self, xs):
        # np.sin need not round as math.sin does: the verifier's batch
        # recomputation is checked within the rounding bound, as a gemm is
        return self.mean_anomaly + self.e * np.sin(xs)

    def _rounding_bound(self, xs):
        # fl(M + fl(e fl(sin x))), with S = min(1, |x|) >= |sin x|, u = 2^-53
        # and eta = 2^-1022: sin errs by at most SIN_ULPS (2 u S + 2^-1074),
        # the product and the sum by u of their size and eta each, so
        # |fl(f(x)) - f(x)| <= u (|M| + (2 SIN_ULPS + 3) |e| S) + 4 eta.
        # The five roundings below lose at most a factor (1 - u) each, which
        # the 1 + 8u covers, and eta where the last product underflows.
        u, eta = 2.0**-53, 2.0**-1022
        s = np.minimum(1.0, np.abs(xs[:, 0]))
        spread = (2 * SIN_ULPS + 3) * (abs(self.e) * s)
        return (abs(self.mean_anomaly) + spread) * (u * (1.0 + 8 * u)) + 8 * eta

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
    y = spec._apply(x)
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
    check_integer("sample_count", sample_count)
    check_integer("seed", seed)
    if sample_count < 1:
        raise InvalidInputError("sample_count must be >= 1")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
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
