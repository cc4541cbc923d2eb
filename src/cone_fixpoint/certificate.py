"""Construction and independent verification of convergence certificates.

A certificate for a trace (x^n, t^n) establishes three facts about the
Lorentz-cone order:

* monotone:  (x^n, t^n) <= (x^{n+1}, t^{n+1}) at every step;
* bounded:   (x^n, t^n) <= (x, t) for every witness (x, t) drawn from the
  bounding set Omega = { (x, t) : t >= ||x - x0||  and
  t >= (d + ||f(x) - x||) / (1 - lam) };
* limit:     (x*, t*) <= (x, t) for every witness, with t* = d / (1 - lam)
  in closed form and x* taken as the final iterate.

The verifier recomputes everything from the raw points and the declared
problem (f, lam, x0); it does not trust any engine bookkeeping, and it also
re-checks the defining recurrences so that a tampered trace cannot pass by
preserving the order inequalities alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import (
    NON_FINITE_NORM,
    PAIRWISE_SUM_MIN_COLUMNS,
    AugmentedPoint,
    TolerancePolicy,
    as_vector,
    norm,
    norm_each_row,
    row_norms,
)
from .contraction import ContractionSpec, evaluate, evaluate_batch
from .engine import IterationTrace, refuse_non_finite_rows
from .errors import DimensionMismatchError, InvalidInputError, InvalidWitnessError

DEFAULT_WITNESS_SAMPLES = 32

# The bounded check fills its (witnesses, points) residual matrix in blocks
# of at most this many elements (at least one witness per block); from
# PAIRWISE_SUM_MIN_COLUMNS columns on, a block is one witness.
BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class OmegaSpec:
    """Data defining the bounding set for one problem: the map, x0 and d."""

    spec: ContractionSpec
    x0: np.ndarray
    d: float

    def __post_init__(self):
        object.__setattr__(self, "x0", as_vector(self.x0))
        if self.x0.size != self.spec.dimension:
            raise DimensionMismatchError(
                f"x0 has dimension {self.x0.size}, spec expects {self.spec.dimension}"
            )
        if not (math.isfinite(self.d) and self.d >= 0.0):
            raise InvalidInputError(f"d must be finite and >= 0, got {self.d}")

    @classmethod
    def for_problem(cls, spec: ContractionSpec, x0) -> "OmegaSpec":
        x0 = as_vector(x0)
        d = norm(evaluate(spec, x0) - x0)
        return cls(spec=spec, x0=x0, d=d)

    @classmethod
    def from_trace(cls, trace: IterationTrace) -> "OmegaSpec":
        # d is recomputed from the declared problem, not read off the trace.
        return cls.for_problem(trace.spec, trace.x0)

    @property
    def t_star(self) -> float:
        return self.d / (1.0 - self.spec.lam)


def omega_bounds(om: OmegaSpec, x) -> tuple[float, float]:
    """The two lower bounds Omega imposes on t at the point x."""
    x = as_vector(x)
    if x.size != om.x0.size:
        raise DimensionMismatchError(
            f"point has dimension {x.size}, expected {om.x0.size}"
        )
    drift = norm(x - om.x0)
    residual = norm(evaluate(om.spec, x) - x)
    return drift, (om.d + residual) / (1.0 - om.spec.lam)


def _omega_bounds_rows(om: OmegaSpec, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`omega_bounds` at each row of the (k, m) array ``xs``, bit for
    bit, with NaN where :func:`norm` would raise.  The map is applied point
    by point, as :func:`evaluate` does, so no row depends on a batched
    product's rounding."""
    apply = om.spec._apply
    fxs = np.array([apply(x) for x in xs], dtype=float).reshape(xs.shape)
    drift = norm_each_row(xs - om.x0)
    residual = norm_each_row(fxs - xs)
    return drift, (om.d + residual) / (1.0 - om.spec.lam)


def omega_t_floor(om: OmegaSpec, x) -> float:
    """Smallest t for which (x, t) belongs to the bounding set."""
    b1, b2 = omega_bounds(om, x)
    return max(b1, b2)


def omega_contains(
    om: OmegaSpec, candidate: AugmentedPoint, tol: TolerancePolicy | None = None
) -> bool:
    """Membership test: t must dominate both bounds within the policy's slack."""
    if tol is None:
        tol = TolerancePolicy.default()
    b1, b2 = omega_bounds(om, candidate.x)
    margin = tol.margin(candidate.t)
    return candidate.t - b1 >= -margin and candidate.t - b2 >= -margin


def canonical_omega_witness(om: OmegaSpec) -> AugmentedPoint:
    """The guaranteed member (x0, 2d / (1 - lam)).

    At x0 the first bound is zero and the second is (d + d) / (1 - lam),
    so membership holds with equality in the second bound. With d = 0 this
    degenerates to (x0, 0), the apex case.
    """
    return AugmentedPoint(om.x0, 2.0 * om.d / (1.0 - om.spec.lam))


def sample_omega(om: OmegaSpec, count: int, seed: int) -> list[AugmentedPoint]:
    """Draw members of the bounding set constructively.

    x is sampled in a ball about x0, then t is set to the exact membership
    floor at x plus a nonnegative offset, so every sample is a member by
    construction (no rejection; the second bound can push t arbitrarily
    high, which would make rejection sampling unboundedly wasteful).
    The draws are taken sample by sample (direction, radius, offset); the
    points and their floors are then computed for all samples at once, bit
    for bit what :func:`norm` and :func:`omega_t_floor` give at each.
    """
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    m = om.x0.size
    radius = 10.0 * max(1.0, om.t_star)
    us = np.empty((count, m))
    radii = np.empty(count)
    offsets = np.empty(count)
    for k in range(count):
        u = rng.standard_normal(m)
        while not u.any():  # norm(u) == 0.0
            u = rng.standard_normal(m)
        us[k] = u
        radii[k] = rng.uniform(0.0, radius)
        offsets[k] = rng.uniform(0.0, 5.0)
    xs = om.x0 + (radii / norm_each_row(us))[:, None] * us
    if not np.isfinite(xs).all():
        raise InvalidInputError("vector coordinates must be finite")
    floors = np.maximum(*_omega_bounds_rows(om, xs))
    if np.isnan(floors).any():
        raise InvalidInputError(NON_FINITE_NORM)
    return [AugmentedPoint(x, t) for x, t in zip(xs, (floors + offsets).tolist())]


def default_witnesses(om: OmegaSpec, count: int = DEFAULT_WITNESS_SAMPLES, seed: int = 0):
    """Canonical witness plus ``count`` sampled ones."""
    return [canonical_omega_witness(om)] + sample_omega(om, count, seed)


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Residuals and verdict of a full verification pass.

    Residual sign convention: checks pass when residuals are >= -slack, so
    an entry that is clearly negative pinpoints a violation.  The
    ``lower_bound_residuals`` are raw; their pass threshold is inflated by
    ``stop_bound`` because the limit is only known to lie within that
    distance of the final iterate.
    """

    n_steps: int
    dimension: int
    lam: float
    d: float
    final_point: AugmentedPoint
    limit_point: AugmentedPoint
    stop_bound: float
    monotone_residuals: np.ndarray
    witnesses: tuple[AugmentedPoint, ...]
    witness_residuals: tuple[np.ndarray, ...]
    lower_bound_residuals: np.ndarray
    consistency_x: np.ndarray
    consistency_t: np.ndarray
    fixed_point_residual: float
    fixed_point_tolerance: float
    passed: bool
    first_failure: str | None


def _refuse_non_members(
    om: OmegaSpec, witnesses: tuple[AugmentedPoint, ...], tol: TolerancePolicy
) -> tuple[np.ndarray, np.ndarray]:
    """Check every witness for membership in one array pass and return their
    stacked x (W, m) and t (W,).

    The error raised is the one the per-witness definition meets first:
    a dimension mismatch, a non-finite norm inside :func:`omega_bounds`, or
    a non-member (:class:`InvalidWitnessError` with its index).
    """
    m = om.spec.dimension
    k = next((i for i, w in enumerate(witnesses) if w.dimension != m), len(witnesses))
    wx = np.array([w.x for w in witnesses[:k]]).reshape(k, m)
    wt = np.array([w.t for w in witnesses[:k]], dtype=float)
    drift, residual = _omega_bounds_rows(om, wx)
    margin = tol.margin(wt)
    raised = np.isnan(drift) | np.isnan(residual)
    bad = raised | ~((wt - drift >= -margin) & (wt - residual >= -margin))
    if bad.any():
        i = int(np.argmax(bad))
        if raised[i]:
            raise InvalidInputError(NON_FINITE_NORM)
        raise InvalidWitnessError(f"witness {i} is not a member of the bounding set", index=i)
    if k < len(witnesses):
        raise DimensionMismatchError(
            f"witness {k} has dimension {witnesses[k].dimension}, expected {m}"
        )
    return wx, wt


def verify_certificate(
    trace: IterationTrace,
    witnesses: list[AugmentedPoint] | None = None,
    tol: TolerancePolicy | None = None,
    *,
    omega_sample_count: int = DEFAULT_WITNESS_SAMPLES,
    seed: int = 0,
) -> ConvergenceCertificate:
    """Verify a trace against witnesses and return the certificate.

    When ``witnesses`` is None the default set (canonical + sampled) is
    used.  Witnesses are first checked for membership in the bounding set;
    a non-member raises :class:`InvalidWitnessError` with its index, since
    bounds obtained from a non-member certify nothing.  A trace holding a
    non-finite value (its arrays written to after construction) is refused
    with :class:`InvalidInputError` naming the row.

    Each check runs on whole arrays; every residual and verdict is bit for
    bit what the per-witness, per-step definition in the module docstring
    gives.
    """
    if tol is None:
        tol = TolerancePolicy.default()
    om = OmegaSpec.from_trace(trace)
    spec, x0, d, lam = om.spec, om.x0, om.d, om.spec.lam
    xs, ts = trace.xs, trace.ts
    refuse_non_finite_rows(xs, ts)

    if witnesses is None:
        witnesses = default_witnesses(om, omega_sample_count, seed)
    witnesses = tuple(witnesses)
    wx, wt = _refuse_non_members(om, witnesses, tol)

    n_points, m = xs.shape
    n_steps = n_points - 1
    t_star = om.t_star
    stop_bound = lam**n_steps * t_star
    x_star = xs[-1]
    limit_point = AugmentedPoint(x_star, t_star)

    failures: list[tuple[int, str]] = []  # (priority, message), earliest index wins
    # Every predicate below is phrased fail-closed, as "not (passes)", so a
    # NaN residual or margin can never count as a pass.

    # (a) monotone: each step's t increment must dominate the step norm.
    dts = np.diff(ts)
    step_norms = row_norms(np.diff(xs, axis=0)) if n_steps else np.zeros(0)
    monotone_residuals = dts - step_norms
    bad = np.nonzero(~(monotone_residuals >= -tol.margin(dts)))[0]
    if bad.size:
        n = int(bad[0])
        failures.append(
            (0, f"monotone check failed at step {n} (residual {monotone_residuals[n]:.6e})")
        )

    # (b) bounded: every witness dominates every trace point.  Row i of the
    # (W, N+1) residual matrix belongs to witness i; it is filled a block of
    # witnesses at a time, the differences w.x - x^n laid out so that each
    # coordinate is contiguous for the narrow-row kernel.
    residuals = np.empty((len(witnesses), n_points))
    bounded_failure = None
    if m < PAIRWISE_SUM_MIN_COLUMNS:
        block = max(1, BLOCK_ELEMENTS // n_points)
        xt = np.ascontiguousarray(xs.T)

        def differences(a, b):
            return np.moveaxis(wx[a:b, :, None] - xt, 1, -1)
    else:
        block = 1

        def differences(a, b):
            return wx[a:b, None, :] - xs
    for start in range(0, len(witnesses), block):
        stop = start + block
        resid = np.subtract(wt[start:stop, None], ts, out=residuals[start:stop])
        resid -= row_norms(differences(start, stop))
        if bounded_failure is not None or (resid >= 0.0).all():
            continue  # a margin is >= 0, so a residual >= 0 passes
        # the margin lives on the scale of the gap w.t - t^n
        i, n = np.nonzero(~(resid >= 0.0))
        gaps = wt[start + i] - ts[n]
        bad = np.nonzero(~(resid[i, n] >= -tol.margin(gaps)))[0]
        if bad.size:
            i, n = i[bad[0]], n[bad[0]]
            bounded_failure = (f"bounded check failed for witness {start + i} at step {n} "
                               f"(residual {resid[i, n]:.6e})")
    if bounded_failure is not None:
        failures.append((1, bounded_failure))

    # (c) limit: (x*, t*) below every witness, with slack inflated by the
    # certified distance from x^N to the true fixed point, and f(x*) ~ x*.
    lower = (wt - t_star) - norm_each_row(wx - x_star)
    if np.isnan(lower).any():
        raise InvalidInputError(NON_FINITE_NORM)
    bad = np.nonzero(~(lower >= -(stop_bound + tol.margin(wt - t_star))))[0]
    if bad.size:
        i = int(bad[0])
        failures.append((2, f"limit check failed for witness {i} (residual {lower[i]:.6e})"))
    fp_residual = norm(evaluate(spec, x_star) - x_star)
    fp_tolerance = lam**n_steps * d + tol.margin(norm(x_star))
    if not (fp_residual <= fp_tolerance):
        failures.append(
            (2, f"fixed-point residual {fp_residual:.6e} exceeds {fp_tolerance:.6e}")
        )

    # (d) consistency: the points must actually satisfy the recurrences.
    consistency_x = np.zeros(n_points)
    consistency_t = np.zeros(n_points)
    consistency_x[0] = norm(xs[0] - x0)
    consistency_t[0] = abs(ts[0])
    if n_steps:
        consistency_x[1:] = row_norms(xs[1:] - evaluate_batch(spec, xs[:-1]))
        consistency_t[1:] = np.abs(ts[1:] - (lam * ts[:-1] + d))
    x_margin = tol.margin(row_norms(xs))
    t_margin = tol.margin(ts)
    bad = np.nonzero(~((consistency_x <= x_margin) & (consistency_t <= t_margin)))[0]
    if bad.size:
        n = int(bad[0])
        failures.append(
            (3, f"trace consistency failed at point {n} "
                f"(x echo {consistency_x[n]:.6e}, t echo {consistency_t[n]:.6e})")
        )

    failures.sort(key=lambda f: f[0])
    first_failure = failures[0][1] if failures else None

    return ConvergenceCertificate(
        n_steps=n_steps,
        dimension=trace.dimension,
        lam=lam,
        d=d,
        final_point=trace.final,
        limit_point=limit_point,
        stop_bound=stop_bound,
        monotone_residuals=monotone_residuals,
        witnesses=witnesses,
        witness_residuals=tuple(residuals),
        lower_bound_residuals=lower,
        consistency_x=consistency_x,
        consistency_t=consistency_t,
        fixed_point_residual=fp_residual,
        fixed_point_tolerance=fp_tolerance,
        passed=not failures,
        first_failure=first_failure,
    )
