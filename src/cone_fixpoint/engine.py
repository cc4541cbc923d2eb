"""The augmented Picard iteration.

Alongside x^{n+1} = f(x^n) the engine runs the scalar recurrence

    t^0 = 0,   t^{n+1} = lam * t^n + d,      d = ||x^1 - x^0||,

whose increments dominate the step norms.  The pair sequence (x^n, t^n) is
then monotone and bounded in the Lorentz-cone order, which is exactly what
the certificate module verifies after the fact.  The limit of t^n is
t* = d / (1 - lam), and t* - t^n = lam^n d / (1 - lam) is a rigorous bound
on the distance from x^n to the fixed point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .cone import NON_FINITE_NORM, AugmentedPoint, as_vector, norm
from .contraction import ContractionSpec, evaluate
from .errors import DimensionMismatchError, InvalidInputError

DEFAULT_MAX_ITERATIONS = 1_000_000

# Below this gap to lam = 1 the amplification d / (1 - lam) is considered
# ill-conditioned and runs carry a warning.
CONDITIONING_GAP = 1e-6

# Rows of an APosteriori run's first trace buffer; it doubles when full.
INITIAL_ROWS = 64


class StopReason(enum.Enum):
    A_PRIORI = "apriori"
    A_POSTERIORI = "aposteriori"
    MAX_ITERATIONS = "max_iterations"
    EXACT_FIXED_POINT = "exact_fixed_point"
    FIXED_COUNT = "fixed_count"


def _check_positive(name: str, v: float):
    if not (math.isfinite(v) and v > 0.0):
        raise InvalidInputError(f"{name} must be finite and > 0, got {v}")


def _check_rule(rule):
    """Checks shared by the stopping rules: eps (where the rule has one) must
    be finite and > 0, and the max_iterations guard must be >= 1."""
    if hasattr(rule, "eps"):
        _check_positive("eps", rule.eps)
    if rule.max_iterations < 1:
        raise InvalidInputError("max_iterations must be >= 1")


@dataclass(frozen=True)
class APriori:
    """Stop at the first n with lam^n d / (1 - lam) <= eps."""

    eps: float
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    __post_init__ = _check_rule


@dataclass(frozen=True)
class APosteriori:
    """Stop once (lam / (1 - lam)) * ||x^{n+1} - x^n|| <= eps."""

    eps: float
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    __post_init__ = _check_rule


@dataclass(frozen=True)
class FixedCount:
    """Run exactly ``count`` steps (or fewer if the guard is smaller)."""

    count: int
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        if self.count < 0:
            raise InvalidInputError("count must be >= 0")
        _check_rule(self)


StoppingRule = APriori | APosteriori | FixedCount


def refuse_non_finite_rows(xs: np.ndarray, ts: np.ndarray):
    """Raise :class:`InvalidInputError` naming the first trace row that holds
    a non-finite value in ``xs`` (N+1, m) or ``ts`` (N+1,)."""
    if not (np.isfinite(xs).all() and np.isfinite(ts).all()):
        bad = ~(np.isfinite(xs).all(axis=1) & np.isfinite(ts))
        raise InvalidInputError(f"trace row {int(np.argmax(bad))} has a non-finite value")


@dataclass(frozen=True)
class IterationTrace:
    """The recorded pair sequence (x^n, t^n), n = 0..N.

    ``xs`` has shape (N+1, m) and ``ts`` shape (N+1,); row n holds the n-th
    iterate.  ``d`` is the first step norm ||x^1 - x^0||, computed once and
    frozen.  ``stop_reason`` is None only for traces reloaded from disk.
    Construction refuses non-finite values in ``xs`` or ``ts``: this is the
    one finiteness check of every trace, whether run or reloaded.
    """

    spec: ContractionSpec
    x0: np.ndarray
    d: float
    xs: np.ndarray
    ts: np.ndarray
    stop_reason: StopReason | None
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "x0", as_vector(self.x0))
        xs = np.asarray(self.xs, dtype=float)
        ts = np.asarray(self.ts, dtype=float)
        if xs.ndim != 2 or ts.ndim != 1 or xs.shape[0] != ts.shape[0] or xs.shape[0] < 1:
            raise InvalidInputError(
                f"inconsistent trace arrays: xs {xs.shape}, ts {ts.shape}"
            )
        refuse_non_finite_rows(xs, ts)
        xs.setflags(write=False)
        ts.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ts", ts)

    @property
    def n_steps(self) -> int:
        return self.xs.shape[0] - 1

    @property
    def dimension(self) -> int:
        return self.xs.shape[1]

    def point(self, n: int) -> AugmentedPoint:
        return AugmentedPoint(self.xs[n], float(self.ts[n]))

    @property
    def points(self) -> list[AugmentedPoint]:
        return [self.point(n) for n in range(self.xs.shape[0])]

    @property
    def final(self) -> AugmentedPoint:
        return self.point(self.n_steps)

    @property
    def t_star(self) -> float:
        """Closed-form limit of the scalar sequence, d / (1 - lam)."""
        return self.d / (1.0 - self.spec.lam)

    def final_bound(self) -> float:
        """Certified distance from the final iterate to the fixed point."""
        return tail_bound(self.d, self.spec.lam, self.n_steps)


def tail_bound(d: float, lam: float, n: int) -> float:
    """lam^n d / (1 - lam), rounded as lam^n t*: the one rounding of every tail bound."""
    return lam**n * (d / (1.0 - lam))


def _refuse_infinite_limit(d: float, lam: float):
    """Raise :class:`InvalidInputError` when t* = d / (1 - lam) overflows:
    no step count reaches a bound below eps from an infinite t*."""
    if not math.isfinite(d / (1.0 - lam)):
        raise InvalidInputError(f"t* = d / (1 - lambda) overflows at "
                                f"d = {d:.6e}, lambda = {lam!r}")


def augmented_step(spec: ContractionSpec, current: AugmentedPoint, d: float) -> AugmentedPoint:
    """One step of the pair iteration: (x, t) -> (f(x), lam t + d)."""
    if not (math.isfinite(d) and d >= 0.0):
        raise InvalidInputError(f"d must be finite and >= 0, got {d}")
    return AugmentedPoint(evaluate(spec, current.x), spec.lam * current.t + d)


def t_closed_form(d: float, lam: float, n: int) -> float:
    """Value of the scalar recurrence after n steps: d (1 - lam^n) / (1 - lam)."""
    if not (math.isfinite(d) and d >= 0.0):
        raise InvalidInputError(f"d must be finite and >= 0, got {d}")
    if not (0.0 < lam < 1.0):
        raise InvalidInputError(f"lam must lie in (0, 1), got {lam}")
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    return d * (1.0 - lam**n) / (1.0 - lam)


def a_priori_iterations(d: float, lam: float, eps: float) -> int:
    """Smallest n >= 0 with lam^n d / (1 - lam) <= eps (0 when d = 0)."""
    if not (math.isfinite(d) and d >= 0.0):
        raise InvalidInputError(f"d must be finite and >= 0, got {d}")
    if not (0.0 < lam < 1.0):
        raise InvalidInputError(f"lam must lie in (0, 1), got {lam}")
    _check_positive("eps", eps)
    _refuse_infinite_limit(d, lam)
    if d == 0.0 or d / (1.0 - lam) <= eps:
        return 0

    # a sum of logs, since the quotient eps (1 - lam) / d can underflow to 0
    n = max(0, math.ceil((math.log(eps) + math.log(1.0 - lam) - math.log(d)) / math.log(lam)))
    # log arithmetic can be off by one either way; settle it exactly.
    while n > 0 and tail_bound(d, lam, n - 1) <= eps:
        n -= 1
    while tail_bound(d, lam, n) > eps:
        n += 1
    return n


# The a-posteriori stop test at a step v = x^{n+1} - x^n of m entries is
# fl(sf N) <= eps, with N = norm(v) and sf the float stop_factor.  The
# engine skips it when sq = fl(v.v) is finite and above the threshold below:
# then the test would fail.  Write u = 2^-53, eta = 2^-1022 (the smallest
# normal; it bounds an operation's underflow error also where subnormal
# results are flushed to zero), E = eps / sf exactly, and take eps >= eta
# (for smaller eps nothing is skipped) and m <= 2^40, so gamma_m =
# m u / (1 - m u) <= 1.01 m u.  Suppose the test passes.
#   * fl(sf N) <= eps gives sf N <= eps / (1 - u): the product either is
#     normal, with relative error u, or is below eta <= eps.  So
#     N <= E / (1 - u).
#   * If the largest |v_i| is below eta, then ||v||^2 < m eta^2.  Otherwise
#     norm's scaled entries y_i = fl(v_i / scale) include one of exactly 1,
#     so fl(y.y) >= 1 in any summation order, the underflow of the quotients
#     and of the squares is relative to that 1, and with the rounding of
#     the quotients, the dot product (gamma_m, Higham, Accuracy and
#     Stability, sec. 3.1, any order), the square root and the product by
#     the scale, N^2 >= (1 - (1.01 m + 11) u) ||v||^2.
#   * sq <= (1 + gamma_m) ||v||^2 + 2.02 m eta for any summation order.
# Together sq <= (1 + (3 m + 16) u) E^2 + (2.02 m + 1) eta.  The threshold
# is fl(fl(r r) K) + A with r = fl(eps / sf), K = 1 + (6 m + 32) u, twice
# the relative term, and A = (8 m + 8) eta, both exact.  The doubled
# relative term covers the rounding of r, of r r and of the threshold's own
# product and sum.  A covers twice the absolute term plus the at most
# 4.1 eta of E^2 K that is lost where E < 2^-510 and r r underflows.  An
# overflowing threshold is inf and skips nothing.
def _skip_threshold(eps: float, stop_factor: float, m: int) -> float:
    """The bound above which fl(v.v) shows that the a-posteriori stop test
    ``stop_factor * norm(v) <= eps`` fails (derivation above)."""
    if eps < 2.0**-1022:
        return math.inf
    ratio = float(eps) / stop_factor
    return ratio * ratio * (1.0 + (6 * m + 32) * 2.0**-53) + (8 * m + 8) * 2.0**-1022


def _grown(buffer: np.ndarray, limit: int) -> np.ndarray:
    """``buffer`` copied into one of twice its rows (at most ``limit``)."""
    out = np.empty((min(2 * buffer.shape[0], limit),) + buffer.shape[1:])
    out[: buffer.shape[0]] = buffer
    return out


def _stop_test(stop_factor: float, eps: float, m: int, on_floats: bool):
    """The a-posteriori stop test ``stop_factor * norm(step) <= eps``.  The
    norm of a float step (m = 1) is its absolute value, so there the exact
    test costs no more than a filter.  On an array step one dot product
    decides the test where it can, and the step norm only where it cannot (a
    step near the stop, or a non-finite or overflowing one)."""
    if on_floats:
        def stops(diff: float) -> bool:
            if not abs(diff) < math.inf:
                raise InvalidInputError(NON_FINITE_NORM)
            return stop_factor * abs(diff) <= eps

        return stops
    skip_above = _skip_threshold(eps, stop_factor, m)

    def stops(diff: np.ndarray) -> bool:
        # np.vdot, unlike np.dot, does not warn when the squares overflow
        if skip_above < float(np.vdot(diff, diff)) < math.inf:
            return False
        return stop_factor * norm(diff) <= eps

    return stops


@np.errstate(over="ignore", invalid="ignore")
def first_step(spec: ContractionSpec, x0: np.ndarray) -> float:
    """The first step norm d = ||f(x^0) - x^0|| at a validated x0: the one
    place d is computed, for a run, a reloaded trace and the verifier's
    Omega.  A map that overflows at x0 raises only :func:`norm`'s non-finite
    error, with no numpy warning."""
    return norm(evaluate(spec, x0) - x0)


def _iterate(step, on_floats: bool, xs: np.ndarray, ts: np.ndarray, first: int, last: int,
             lam: float, d: float, stops, reason: StopReason):
    """Steps ``first``..``last`` of the pair iteration, from row first - 1 of
    the buffers ``xs`` and ``ts``, which double (up to last + 1 rows) when
    full.  ``step`` takes x^n to x^{n+1}: on floats it returns it, on arrays
    it writes it into row n+1, and x^n is a view of row n.  ``stops``, when
    given, is the a-posteriori stop test, and a run it never stops ends
    flagged MAX_ITERATIONS.  Returns the buffers, the last step taken and
    the stop reason."""
    rows = xs.shape[0]
    x = float(xs[first - 1]) if on_floats else xs[first - 1]
    t, n = float(ts[first - 1]), first - 1
    for n in range(first, last + 1):
        t = lam * t + d
        if n == rows:
            xs, ts = _grown(xs, last + 1), _grown(ts, last + 1)
            rows = xs.shape[0]
        ts[n] = t
        if on_floats:
            xs[n] = x_next = step(x)
        else:
            x_next = xs[n]
            step(x, x_next)
        if stops is not None:
            if stops(x_next - x):
                break
            if n == last:
                reason = StopReason.MAX_ITERATIONS
        x = x_next
    return xs, ts, n, reason


def _first_unproven_step(spec: ContractionSpec, xs: np.ndarray) -> int:
    """The first step n whose float iterate ``xs[n]`` does not have the bits
    of the family's batch map at ``xs[n - 1]``, or 0 when every step has
    them.  Bit patterns are compared, not values, so that a zero of the
    wrong sign counts as a difference."""
    exact = spec._apply_batch(xs[:-1, None]).ravel()
    differs = exact.view(np.int64) != xs[1:].view(np.int64)
    return int(np.argmax(differs)) + 1 if differs.any() else 0


@np.errstate(over="ignore", invalid="ignore")
def run(spec: ContractionSpec, x0, rule: StoppingRule) -> IterationTrace:
    """Run the augmented iteration from x0 under the given stopping rule.

    ``spec`` and ``x0`` are validated once, at entry; the finished trace is
    checked for finiteness as a whole by :class:`IterationTrace`.  The first
    step norm d is computed once and then frozen into the scalar recurrence;
    a d whose limit t* = d / (1 - lam) overflows is refused before any step.
    The width only picks the map, bound once per run, and the stop test the
    one stepping loop calls.  At m = 1 it iterates on Python floats through
    the family's scalar map, whose bits are those of the array map, or
    through a cheaper float map (``KeplerScalar``: ``math.sin`` for
    ``np.sin``) whose steps one batched pass then compares bit for bit; from
    the first step that differs the loop runs again on the scalar map, stop
    decisions included.  Otherwise (m >= 2, or a spec without a scalar map)
    it iterates on float64 arrays through ``spec._stepper()``, which writes
    f(x^n) straight into row n+1 of the trace buffer with the bits of
    ``spec._apply``.  The rule only sets where the loop ends: when the step
    count N is known in advance (``APriori``, ``FixedCount``, or N = 0 at an
    exact fixed point) the (N+1)-row buffers are allocated once and no step
    norm is computed.
    ``APosteriori`` starts from smaller buffers that double when full and
    tests every step: on floats exactly, with the step's absolute value, and
    on arrays from one dot product per step where that settles the test, so
    it stops exactly where a test on every step's norm would.  A run that
    exhausts its ``max_iterations`` guard is returned truncated and flagged
    MAX_ITERATIONS rather than raising, so the partial trace is never lost.
    An overflowing map raises only the trace's non-finite-row error, or
    under ``APosteriori`` the step norm's.
    """
    x0 = as_vector(x0)
    if x0.size != spec.dimension:
        raise DimensionMismatchError(
            f"x0 has dimension {x0.size}, spec expects {spec.dimension}"
        )

    warnings: tuple[str, ...] = ()
    gap = 1.0 - spec.lam
    if gap < CONDITIONING_GAP:
        warnings = (
            f"ill-conditioned contraction: 1 - lambda = {gap:.3e}, "
            f"the bound d / (1 - lambda) amplifies rounding",
        )

    d = first_step(spec, x0)
    _refuse_infinite_limit(d, spec.lam)

    # steps is the step count when known in advance, None when the
    # a-posteriori test decides it on the fly.
    if isinstance(rule, APriori):
        steps, reason = a_priori_iterations(d, spec.lam, rule.eps), StopReason.A_PRIORI
    elif isinstance(rule, FixedCount):
        steps, reason = rule.count, StopReason.FIXED_COUNT
    elif isinstance(rule, APosteriori):
        steps, reason = None, StopReason.A_POSTERIORI
    else:
        raise InvalidInputError(f"unknown stopping rule {rule!r}")
    if d == 0.0:
        steps, reason = 0, StopReason.EXACT_FIXED_POINT
    elif steps is not None and steps > rule.max_iterations:
        steps, reason = rule.max_iterations, StopReason.MAX_ITERATIONS

    lam = spec.lam
    scalar_map = spec._scalar_map() if x0.size == 1 else None
    on_floats = scalar_map is not None
    if steps is None:
        last, rows = rule.max_iterations, min(INITIAL_ROWS, rule.max_iterations + 1)
        stops = _stop_test(lam / gap, rule.eps, x0.size, on_floats)
    else:
        last, rows, stops = steps, steps + 1, None
    # The map writes each array row straight into the buffer.  Keeping the
    # outputs in a list, to stack them once at the end, made wide_affine's
    # m = 300 operations about 15 % slower.
    if on_floats:
        xs = np.empty(rows)
        xs[0] = x0[0]
        fast_map = spec._fast_scalar_map()
        step = fast_map or scalar_map
    else:
        xs = np.empty((rows, x0.size))
        xs[0] = x0
        fast_map, step = None, spec._stepper()
    ts = np.empty(rows)
    ts[0] = 0.0
    xs, ts, n, stop = _iterate(step, on_floats, xs, ts, 1, last, lam, d, stops, reason)
    if fast_map is not None:
        unproven = _first_unproven_step(spec, xs[: n + 1])
        if unproven:
            xs, ts, n, stop = _iterate(scalar_map, True, xs, ts, unproven, last,
                                       lam, d, stops, reason)

    return IterationTrace(
        spec=spec, x0=x0, d=d,
        xs=xs[: n + 1].reshape(n + 1, x0.size), ts=ts[: n + 1],
        stop_reason=stop, warnings=warnings,
    )
