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
from array import array
from dataclasses import dataclass, field

import numpy as np

from .cone import NON_FINITE_NORM, AugmentedPoint, as_vector, norm, row_norms
from .contraction import ContractionSpec, appender, evaluate, step_form
from .errors import DimensionMismatchError, InvalidInputError, check_integer

DEFAULT_MAX_ITERATIONS = 1_000_000

# Below this gap to lam = 1 the amplification d / (1 - lam) is considered
# ill-conditioned and runs carry a warning.
CONDITIONING_GAP = 1e-6

# An APosteriori run takes its steps in blocks of STOP_BLOCK and tests each
# block's steps with one batched norm call; a stop discards at most
# STOP_BLOCK - 1 computed steps.  Summed over the benchmark's seed-1
# a-posteriori problems (engine.run, five passes, a 2-vCPU machine, one BLAS
# thread), blocks of 8, 16 and 32 took 1.07-1.46, 0.86-1.06 and 0.43-0.95
# times as long as a test of every step on cli_roundtrip's 12 (m = 1-4);
# on wide_affine's 10 (m = 100-300) all three spread as widely as the
# machine, 0.6-1.7 times.
STOP_BLOCK = 32


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
    be finite and > 0, and the max_iterations guard an integer >= 1."""
    if hasattr(rule, "eps"):
        _check_positive("eps", rule.eps)
    check_integer("max_iterations", rule.max_iterations)
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
        check_integer("count", self.count)
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
    Construction refuses non-finite values in ``xs`` or ``ts``, whether the
    trace is run or reloaded; ``read_trace_csv`` refuses them in the file
    first, and ``verify_certificate`` again, in case the arrays were
    written to after construction.
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


@np.errstate(over="ignore", invalid="ignore")
def first_step(spec: ContractionSpec, x0: np.ndarray) -> float:
    """The first step norm d = ||f(x^0) - x^0|| at a validated x0: the one
    place d is computed, for a run, a reloaded trace and the verifier's
    Omega.  A map that overflows at x0 raises only :func:`norm`'s non-finite
    error, with no numpy warning."""
    return norm(evaluate(spec, x0) - x0)


def _blocks(last: int, stop_factor: float | None):
    """The (start, end) ranges in which steps 1..``last`` are taken: all at
    once without a ``stop_factor``, else in blocks of :data:`STOP_BLOCK`,
    each followed by the a-posteriori test."""
    size = max(last, 1) if stop_factor is None else STOP_BLOCK
    return ((start, min(start + size - 1, last)) for start in range(1, last + 1, size))


def _first_stop(rows: np.ndarray, stop_factor: float, eps: float) -> int | None:
    """The a-posteriori test ``stop_factor * norm(x^{k+1} - x^k) <= eps`` on
    the steps between consecutive rows of the (k+1, m) array ``rows``, in
    one :func:`row_norms` call: the index of the first step that passes, or
    None.  Raises if that step's norm is non-finite."""
    step_norms = row_norms(rows[1:] - rows[:-1])
    passed = ~(stop_factor * step_norms > eps)
    if not passed.any():
        return None
    k = int(np.argmax(passed))
    if np.isnan(step_norms[k]):
        raise InvalidInputError(NON_FINITE_NORM)
    return k


def _iterate(step, x0: np.ndarray, last: int, lam: float, d: float,
             stop_factor: float | None, eps: float | None):
    """Steps 1..``last`` of the pair iteration from the array ``x0``,
    tested as :func:`_blocks` says.  ``step`` takes x^n in its step form to
    x^{n+1}; the loop starts from :func:`step_form` of ``x0`` and copies
    each x^{n+1} into the trace with :func:`appender`, so it never looks
    at the width.  The rows go into growing arrays of doubles, which the
    caller views as numpy arrays without a copy: the coordinates of x^0,
    x^1, ... in one flat array, and t^0, t^1, ... in another.  A list
    would hold a 24-byte Python float and an 8-byte pointer per value,
    four times the 8 bytes here, until the end of the run.  The stop test
    reads a block through a view of the array, which must be gone before
    the next append: an array cannot resize while it exports its buffer.
    Returns both arrays and the step that passed the test, or None; they
    may run past that step by up to ``STOP_BLOCK - 1`` rows."""
    m, xs, ts, t = x0.size, array("d", x0.tolist()), array("d", [0.0]), 0.0
    x, put, put_t = step_form(x0), appender(xs, m), ts.append
    for start, end in _blocks(last, stop_factor):
        for _ in range(start, end + 1):
            t = lam * t + d
            put_t(t)
            x = step(x)
            put(x)
        if stop_factor is not None:
            rows = np.frombuffer(xs, offset=(start - 1) * m * xs.itemsize).reshape(-1, m)
            k = _first_stop(rows, stop_factor, eps)
            del rows
            if k is not None:
                return xs, ts, start + k
    return xs, ts, None


@np.errstate(over="ignore", invalid="ignore")
def run(spec: ContractionSpec, x0, rule: StoppingRule) -> IterationTrace:
    """Run the augmented iteration from x0 under the given stopping rule.

    ``spec`` and ``x0`` are validated once, at entry; the finished trace is
    checked for finiteness as a whole by :class:`IterationTrace`.  The first
    step norm d is computed once and then frozen into the scalar recurrence;
    a d whose limit t* = d / (1 - lam) overflows is refused before any step.
    One loop calls the family's ``_step``, the map's one float definition,
    bound once per run, on x^n in its step form, which the contraction
    module sets: Python floats at m <= 2, so no BLAS call reaches such a
    trace, and float64 arrays from m = 3 on.  It appends each f(x^n) to
    arrays of doubles and views them as the trace's arrays at the end.
    The rule only sets where the loop ends: when the step count N is
    known in advance (``APriori``, ``FixedCount``, or N = 0 at an exact
    fixed point) no step norm is computed.  ``APosteriori`` tests its steps in blocks of
    :data:`STOP_BLOCK`, one batched call per block with :func:`norm`'s
    bits: it stops exactly where a test on every step's norm would, and
    drops the at most ``STOP_BLOCK - 1`` steps it computed past the stop.
    A run that exhausts its ``max_iterations`` guard is returned truncated
    and flagged MAX_ITERATIONS rather than raising, so the partial trace is
    never lost.  An overflowing map raises only the trace's non-finite-row
    error, or under ``APosteriori`` the step norm's, unless it overflows
    only at a dropped step.
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
    if steps is None:
        last, stop_factor, eps = rule.max_iterations, lam / gap, rule.eps
    else:
        last, stop_factor, eps = steps, None, None
    xs, ts, n = _iterate(spec._step(), x0, last, lam, d, stop_factor, eps)
    xs, ts = np.frombuffer(xs).reshape(-1, x0.size), np.frombuffer(ts)
    if n is None:
        n = last
        if stop_factor is not None:
            reason = StopReason.MAX_ITERATIONS

    return IterationTrace(
        spec=spec, x0=x0, d=d, xs=xs[: n + 1], ts=ts[: n + 1],
        stop_reason=reason, warnings=warnings,
    )
