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

from .cone import AugmentedPoint, TolerancePolicy, as_vector, norm, row_norms
from .contraction import ContractionSpec, evaluate, evaluate_batch
from .engine import IterationTrace
from .errors import DimensionMismatchError, InvalidInputError, InvalidWitnessError

DEFAULT_WITNESS_SAMPLES = 32


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
    """
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    rng = np.random.default_rng(seed)
    m = om.x0.size
    radius = 10.0 * max(1.0, om.t_star)
    out = []
    for _ in range(count):
        u = rng.standard_normal(m)
        nu = norm(u)
        while nu == 0.0:
            u = rng.standard_normal(m)
            nu = norm(u)
        x = om.x0 + (rng.uniform(0.0, radius) / nu) * u
        t = omega_t_floor(om, x) + rng.uniform(0.0, 5.0)
        out.append(AugmentedPoint(x, t))
    return out


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
    bounds obtained from a non-member certify nothing.
    """
    if tol is None:
        tol = TolerancePolicy.default()
    om = OmegaSpec.from_trace(trace)
    spec, x0, d, lam = om.spec, om.x0, om.d, om.spec.lam

    if witnesses is None:
        witnesses = default_witnesses(om, omega_sample_count, seed)
    witnesses = tuple(witnesses)
    for i, w in enumerate(witnesses):
        if w.dimension != spec.dimension:
            raise DimensionMismatchError(
                f"witness {i} has dimension {w.dimension}, expected {spec.dimension}"
            )
        if not omega_contains(om, w, tol):
            raise InvalidWitnessError(
                f"witness {i} is not a member of the bounding set", index=i
            )

    xs, ts = trace.xs, trace.ts
    n_points = xs.shape[0]
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
    mono_margin = tol.atol + tol.rtol * np.maximum(1.0, np.abs(dts))
    bad = np.nonzero(~(monotone_residuals >= -mono_margin))[0]
    if bad.size:
        n = int(bad[0])
        failures.append(
            (0, f"monotone check failed at step {n} (residual {monotone_residuals[n]:.6e})")
        )

    # (b) bounded: every witness dominates every trace point.
    witness_residuals = []
    for i, w in enumerate(witnesses):
        gaps = w.t - ts
        resid = gaps - row_norms(w.x - xs)
        witness_residuals.append(resid)
        margin = tol.atol + tol.rtol * np.maximum(1.0, np.abs(gaps))
        bad = np.nonzero(~(resid >= -margin))[0]
        if bad.size:
            n = int(bad[0])
            failures.append(
                (1, f"bounded check failed for witness {i} at step {n} "
                    f"(residual {resid[n]:.6e})")
            )

    # (c) limit: (x*, t*) below every witness, with slack inflated by the
    # certified distance from x^N to the true fixed point, and f(x*) ~ x*.
    lower = np.array(
        [(w.t - t_star) - norm(w.x - x_star) for w in witnesses]
    ) if witnesses else np.zeros(0)
    for i, w in enumerate(witnesses):
        if not (lower[i] >= -(stop_bound + tol.margin(w.t - t_star))):
            failures.append(
                (2, f"limit check failed for witness {i} (residual {lower[i]:.6e})")
            )
            break
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
    x_margin = tol.atol + tol.rtol * np.maximum(1.0, row_norms(xs))
    t_margin = tol.atol + tol.rtol * np.maximum(1.0, np.abs(ts))
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
        witness_residuals=tuple(witness_residuals),
        lower_bound_residuals=lower,
        consistency_x=consistency_x,
        consistency_t=consistency_t,
        fixed_point_residual=fp_residual,
        fixed_point_tolerance=fp_tolerance,
        passed=not failures,
        first_failure=first_failure,
    )
