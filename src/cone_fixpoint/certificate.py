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
from typing import NamedTuple

import numpy as np

from .cone import (
    NON_FINITE_NORM,
    AugmentedPoint,
    TolerancePolicy,
    as_vector,
    norm,
    row_norms,
)
from .contraction import ContractionSpec, FilledOnFirstRead, evaluate, evaluate_batch
from .engine import IterationTrace, first_step, refuse_non_finite_rows, tail_bound
from .errors import DimensionMismatchError, InvalidInputError, InvalidWitnessError, check_integer

DEFAULT_WITNESS_SAMPLES = 32

# The bounded check computes the residuals of the pairs it keeps in chunks
# of at most this many elements, or of N + 1 pairs if that is more.
BLOCK_ELEMENTS = 1 << 15

# The bounded check decides every trace by blocks of ROW_BLOCK consecutive
# rows.  On wide_affine's seed-1 problems, blocks of 16, 32 and 64 rows left
# 160, 240 and 3824 of 124080 pairs to compute, and the check took about
# 1.9, 0.6 and 0.8 ms per operation (a 2-vCPU machine, one BLAS thread).
ROW_BLOCK = 32


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
        return cls(spec=spec, x0=x0, d=first_step(spec, x0))

    @classmethod
    def from_trace(cls, trace: IterationTrace) -> "OmegaSpec":
        # d is recomputed from the declared problem, not read off the trace.
        return cls.for_problem(trace.spec, trace.x0)

    @property
    def t_star(self) -> float:
        return self.d / (1.0 - self.spec.lam)


def omega_bounds(om: OmegaSpec, x) -> tuple[float, float]:
    """The two lower bounds Omega imposes on t at the point x: one row of
    :func:`_omega_bounds_rows`.  A non-finite norm raises
    :class:`InvalidInputError`."""
    x = as_vector(x)
    if x.size != om.x0.size:
        raise DimensionMismatchError(
            f"point has dimension {x.size}, expected {om.x0.size}"
        )
    (drift,), (floor,) = _omega_bounds_rows(om, x[None])
    if np.isnan(drift) or np.isnan(floor):
        raise InvalidInputError(NON_FINITE_NORM)
    return float(drift), float(floor)


@np.errstate(over="ignore", invalid="ignore")
def _omega_bounds_rows(om: OmegaSpec, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two bounds of Omega at each row of the (k, m) array ``xs``, with
    NaN where a norm is non-finite.  The map is applied point by point, as
    :func:`evaluate` does, so no row depends on a batched product's
    rounding."""
    apply = om.spec._apply
    fxs = np.array([apply(x) for x in xs], dtype=float).reshape(xs.shape)
    drift = row_norms(xs - om.x0)
    residual = row_norms(fxs - xs)
    return drift, (om.d + residual) / (1.0 - om.spec.lam)


def omega_t_floor(om: OmegaSpec, x) -> float:
    """Smallest t for which (x, t) belongs to the bounding set."""
    return max(omega_bounds(om, x))


def omega_contains(
    om: OmegaSpec, candidate: AugmentedPoint, tol: TolerancePolicy | None = None
) -> bool:
    """Membership test: t must dominate both bounds within the policy's slack."""
    if tol is None:
        tol = TolerancePolicy.default()
    return omega_t_floor(om, candidate.x) - candidate.t <= tol.margin(candidate.t)


def canonical_omega_witness(om: OmegaSpec) -> AugmentedPoint:
    """The guaranteed member (x0, 2d / (1 - lam)).

    At x0 the first bound is zero and the second is (d + d) / (1 - lam),
    so membership holds with equality in the second bound. With d = 0 this
    degenerates to (x0, 0), the apex case.
    """
    t = 2.0 * om.d / (1.0 - om.spec.lam)
    if not math.isfinite(t):
        raise InvalidInputError(f"canonical witness t = 2 d / (1 - lambda) overflows at "
                                f"d = {om.d:.6e}, lambda = {om.spec.lam!r}")
    return AugmentedPoint(om.x0, t)


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
    check_integer("count", count)
    check_integer("seed", seed)
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    m = om.x0.size
    radius = 10.0 * max(1.0, om.t_star)
    if not math.isfinite(radius):
        raise InvalidInputError(f"sampling radius 10 max(1, t*) overflows at t* = {om.t_star:.6e}")
    us = np.empty((count, m))
    radii = np.empty(count)
    offsets = np.empty(count)
    for k in range(count):
        u = rng.standard_normal(m)
        while not np.count_nonzero(u):  # norm(u) == 0.0; cheaper than u.any()
            u = rng.standard_normal(m)
        us[k] = u
        # the bits of rng.uniform(0.0, high), which numpy computes as
        # low + (high - low) * next_double, at a third of its call cost
        radii[k] = 0.0 + radius * rng.random()
        offsets[k] = 0.0 + 5.0 * rng.random()
    xs = om.x0 + (radii / row_norms(us))[:, None] * us
    if not np.isfinite(xs).all():
        raise InvalidInputError("vector coordinates must be finite")
    floors = np.maximum(*_omega_bounds_rows(om, xs))
    if np.isnan(floors).any():
        raise InvalidInputError(NON_FINITE_NORM)
    ts = floors + offsets
    if not np.isfinite(ts).all():
        raise InvalidInputError("t must be finite")
    xs.setflags(write=False)
    return [AugmentedPoint._trusted(x, t) for x, t in zip(xs, ts.tolist())]


def default_witnesses(om: OmegaSpec, count: int = DEFAULT_WITNESS_SAMPLES, seed: int = 0):
    """Canonical witness plus ``count`` sampled ones."""
    return [canonical_omega_witness(om)] + sample_omega(om, count, seed)


class BoundedSummary(NamedTuple):
    """The bounded check's residual matrix in brief: its size and, in
    (witness, step) order, its first NaN, else its first lowest entry, with
    that entry's own bits, and where it is; the last three are None without
    witnesses."""

    count: int
    min_residual: float | None
    argmin_witness: int | None
    argmin_step: int | None


def _summary_of_rows(rows) -> BoundedSummary:
    """The summary of the rows of a residual matrix: the entry at the first
    np.argmin of the rows laid end to end."""
    if not rows:
        return BoundedSummary(0, None, None, None)
    flat = np.concatenate(rows)
    k = int(np.argmin(flat))  # the first NaN, else the first lowest entry
    return BoundedSummary(flat.size, float(flat[k]), *divmod(k, rows[0].size))


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Residuals and verdict of a full verification pass.

    Residual sign convention: checks pass when residuals are >= -slack, so
    an entry that is clearly negative pinpoints a violation.  The
    ``lower_bound_residuals`` are raw; their pass threshold is inflated by
    ``stop_bound`` because the limit is only known to lie within that
    distance of the final iterate.

    ``witness_residuals`` (row i for witness i) may be given as a function
    that computes them; it runs on the first read.  ``bounded_summary`` is
    computed from them when not given.
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
    witness_residuals: tuple[np.ndarray, ...] = FilledOnFirstRead()
    lower_bound_residuals: np.ndarray
    consistency_x: np.ndarray
    consistency_t: np.ndarray
    fixed_point_residual: float
    fixed_point_tolerance: float
    passed: bool
    first_failure: str | None
    bounded_summary: BoundedSummary | None = None

    def __post_init__(self):
        if self.bounded_summary is None:
            object.__setattr__(self, "bounded_summary", _summary_of_rows(self.witness_residuals))


def _refuse_non_members(om: OmegaSpec, witnesses, tol: TolerancePolicy):
    """Check each witness in turn for membership in the bounding set.

    The first offending witness raises :class:`DimensionMismatchError` (wrong
    dimension), :class:`InvalidInputError` (a non-finite norm in omega_bounds)
    or :class:`InvalidWitnessError` with its index (not a member).
    """
    m = om.spec.dimension
    for i, w in enumerate(witnesses):
        if w.dimension != m:
            raise DimensionMismatchError(f"witness {i} has dimension {w.dimension}, expected {m}")
        if not omega_contains(om, w, tol):
            raise InvalidWitnessError(f"witness {i} is not a member of the bounding set", index=i)


def _first_excess(excess, allowed) -> int | None:
    """The first index where ``excess`` is not within ``allowed`` (in any
    row, for stacked rows), or None: the one verdict rule of every check,
    fail-closed as "not (excess <= allowed)", so that a NaN fails."""
    bad = np.flatnonzero(np.atleast_2d(~np.less_equal(excess, allowed)).any(axis=0))
    return int(bad[0]) if bad.size else None


def _witness_residuals(wx, wt, xs, ts) -> tuple[np.ndarray, ...]:
    """The bounded check's residuals by their definition, ``(w.t - t^n) -
    ||w.x - x^n||``, one row per witness."""
    return tuple((w_t - ts) - row_norms(w_x - xs) for w_x, w_t in zip(wx, wt))


def _pair_residuals(wx, wt, xs, ts, i, n) -> np.ndarray:
    """The entries (i[k], n[k]) of :func:`_witness_residuals`, such as the
    pairs the row-block filter keeps, bit for bit at every width: the same
    operations on the gathered rows, max(N+1, BLOCK_ELEMENTS // m) pairs at a
    time (:func:`row_norms` gives each row the same bits however the rows
    are laid out)."""
    out = np.empty(i.size)
    step = max(xs.shape[0], BLOCK_ELEMENTS // xs.shape[1])
    for a in range(0, i.size, step):
        wi, xn = i[a : a + step], n[a : a + step]
        out[a : a + step] = (wt[wi] - ts[xn]) - row_norms(wx[wi] - xs[xn])
    return out


# The row-block filter bounds from below every residual r = fl(g - R) of a
# block, g = fl(w.t - t^n) and R = row_norms(fl(w.x - x^n)), through the
# block's anchor c, its last row.  Write a = ||w.x - x^n||, u = 2^-53,
# eta = 2^-1022 (it also covers subnormal results flushed to zero), L =
# ROW_BLOCK, gamma_k = k u / (1 - k u) and gamma = gamma_{m+9}, and take
# m <= 2^40, so gamma <= 1.01 (m + 9) u.
#   * row_norms' fl(w - x), max-abs scaling, squares, sum in any order
#     (gamma_m, Higham, Accuracy and Stability, sec. 3.1), sqrt and product
#     by the scale put R^2 within a factor 1 +- gamma of the squared
#     distance of any two points (underflow is relative to the scale); the
#     product by the scale, and subnormal differences, add at most
#     (m + 1) eta.  So R <= (1 + gamma) a + (m + 1) eta and
#     a <= (1 + gamma)(R + (m + 1) eta).
#   * Every x^n of a block is within the exact path length of the steps
#     from it to c, and the block's float sum P of at most L step norms
#     S_k = R(x^{k+1}, x^k) (it also sums the step out of c) is at least
#     (1 - gamma_{L-1}) times their exact sum.  So ||x^n - c|| <=
#     (1 + gamma)(P / (1 - gamma_{L-1}) + L (m + 1) eta) <=
#     P' = fl(fl(P K') + A'): K' = 1 + (2m + 2L + 20) u is at least
#     (1 + gamma) / ((1 - gamma_{L-1}) (1 - u)^2), about 1 + (m + L + 10) u,
#     and A' = 2 L (m + 1) eta covers the absolute term and the eta the
#     product loses where it underflows.
#   * With D = R(w.x, c) and the triangle inequality a <= ||w.x - c|| +
#     ||x^n - c||, every R of the block is at most (1 + gamma)^2 (D + P') +
#     3.1 (m + 1) eta.
#   * U = fl(fl(fl(D + P') K) + A) loses at most a factor 1 - u at each
#     step, and eta where the product underflows.  K = 1 + (4m + 48) u is
#     at least (1 + gamma)^2 / (1 - u)^3, about 1 + (2m + 21) u, and
#     A = (8m + 16) eta about twice the absolute terms, so U >= R.
#   * With T the largest t^n of the block, fl(w.t - T) <= g; rounding is
#     monotone, so r >= fl(fl(w.t - T) - U), the block's bound.
# A difference or a norm that overflows exceeds U before rounding, so U is
# inf, or NaN from a NaN D or S_k, and the bound is -inf or NaN: no NaN
# residual lies in a skipped block.
@np.errstate(over="ignore", invalid="ignore")
def _pairs_in_undecided_blocks(wx, wt, xs, ts, steps) -> np.ndarray:
    """The flat indices (w (N+1) + n, ascending) of the pairs whose residual
    must be computed exactly: every pair of each (witness, block of
    ROW_BLOCK rows) whose lower bound (derivation above, from the step norms
    ``steps`` = row_norms(fl(x^{k+1} - x^k))) is not above max(H, 0), H
    being the lowest exact residual at the blocks' anchors.  A skipped
    pair's residual is > 0, so it passes, and > H, so it is not the lowest;
    a NaN bound or a NaN H keeps the block."""
    n_points, m = xs.shape
    starts = np.arange(0, n_points, ROW_BLOCK)
    anchors = np.minimum(starts + (ROW_BLOCK - 1), n_points - 1)
    # P' of each block: its summed step norms, rounded up to a path length
    path = np.add.reduceat(np.append(steps, 0.0), starts)
    path *= 1.0 + (2 * (m + ROW_BLOCK) + 20) * 2.0**-53
    path += 2 * ROW_BLOCK * (m + 1) * 2.0**-1022
    top_t = np.maximum.reduceat(ts, starts)
    dist = row_norms(wx[:, None, :] - xs[anchors])
    # the exact residuals at the anchors, the same bits as their matrix entries
    lowest = np.min((wt[:, None] - ts[anchors]) - dist, initial=np.inf)
    rel, absolute = 1.0 + (4 * m + 48) * 2.0**-53, (8 * m + 16) * 2.0**-1022
    reach = (dist + path) * rel + absolute
    keep = ~((wt[:, None] - top_t) - reach > np.maximum(lowest, 0.0))
    w, k = np.nonzero(keep)
    rows = k[:, None] * ROW_BLOCK + np.arange(ROW_BLOCK)
    return (w[:, None] * n_points + rows)[rows < n_points]


def _summary_of_pairs(resid, pairs, n_witnesses, n_points) -> BoundedSummary:
    """:func:`_summary_of_rows` of the whole (n_witnesses, n_points) residual
    matrix from the exact residuals ``resid`` of the pairs with flat indices
    ``pairs`` (w (N+1) + n, ascending), which must hold every NaN and every
    pair that may be the lowest."""
    if not n_witnesses:
        return BoundedSummary(0, None, None, None)
    k = int(np.argmin(resid))  # the first NaN, else the first lowest entry
    w, n = divmod(int(pairs[k]), n_points)
    return BoundedSummary(n_witnesses * n_points, float(resid[k]), w, n)


def _bounded_check(wx, wt, xs, ts, steps, tol):
    """The bounded check's first failure, its summary and its
    ``witness_residuals``, given the step norms ``steps`` of the trace: the
    exact residuals of the pairs in the blocks the row-block filter keeps
    decide the check, and :func:`_witness_residuals` fills the whole matrix
    on first read."""
    n_points = ts.size
    pairs = _pairs_in_undecided_blocks(wx, wt, xs, ts, steps)
    resid = _pair_residuals(wx, wt, xs, ts, *np.divmod(pairs, n_points))
    low = np.flatnonzero(~(resid >= 0.0))  # a margin is >= 0, so a residual >= 0 passes
    i, n = np.divmod(pairs[low], n_points)
    # the margin lives on the scale of the gap w.t - t^n
    k = _first_excess(-resid[low], tol.margin(wt[i] - ts[n]))
    failure = None if k is None else (f"bounded check failed for witness {i[k]} at step {n[k]} "
                                      f"(residual {resid[low[k]]:.6e})")
    return (failure, _summary_of_pairs(resid, pairs, wt.size, n_points),
            lambda: _witness_residuals(wx, wt, xs, ts))


@np.errstate(over="ignore", invalid="ignore")
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
    used; its members belong to the bounding set by construction.  Witnesses
    the caller passes are first checked for membership; a non-member raises
    :class:`InvalidWitnessError` with its index, since bounds obtained from
    a non-member certify nothing.  A trace holding a non-finite value (its
    arrays written to after construction) is refused with
    :class:`InvalidInputError` naming the row.

    Each check runs on whole arrays; every residual and verdict is bit for
    bit what the per-witness, per-step definition in the module docstring
    gives.  The bounded check computes exact residuals only for the pairs
    in blocks of ROW_BLOCK consecutive points that a rigorous filter cannot
    decide or that may hold its minimum; the filter bounds how far a block's
    points lie from its last by the step norms of the monotone check.
    ``witness_residuals`` are then filled on first read, on every trace.
    """
    if tol is None:
        tol = TolerancePolicy.default()
    om = OmegaSpec.from_trace(trace)
    spec, x0, d, lam = om.spec, om.x0, om.d, om.spec.lam
    xs, ts = trace.xs, trace.ts
    refuse_non_finite_rows(xs, ts)

    if witnesses is None:
        # Members by construction (see sample_omega and canonical_omega_witness).
        witnesses = tuple(default_witnesses(om, omega_sample_count, seed))
    else:
        witnesses = tuple(witnesses)
        _refuse_non_members(om, witnesses, tol)
    wx = np.array([w.x for w in witnesses]).reshape(len(witnesses), spec.dimension)
    wt = np.array([w.t for w in witnesses], dtype=float)

    n_steps = ts.size - 1
    t_star = om.t_star
    stop_bound = tail_bound(d, lam, n_steps)
    x_star = xs[-1]
    limit_point = AugmentedPoint(x_star, t_star)

    failures: list[str] = []  # in check order; the first is reported
    # Each verdict below is _first_excess of the check's excess (a negated
    # residual, or an echo) against the margin it is allowed.

    # (a) monotone: each step's t increment must dominate the step norm.
    dts = np.diff(ts)
    steps = row_norms(np.diff(xs, axis=0))
    monotone_residuals = dts - steps
    n = _first_excess(-monotone_residuals, tol.margin(dts))
    if n is not None:
        failures.append(f"monotone check failed at step {n} (residual {monotone_residuals[n]:.6e})")

    # (b) bounded: every witness dominates every trace point.
    bounded_failure, bounded_summary, witness_residuals = _bounded_check(wx, wt, xs, ts, steps, tol)
    if bounded_failure is not None:
        failures.append(bounded_failure)

    # (c) limit: (x*, t*) below every witness, with slack inflated by the
    # certified distance from x^N to the true fixed point, and f(x*) ~ x*.
    lower = (wt - t_star) - row_norms(wx - x_star)
    if np.isnan(lower).any():
        raise InvalidInputError(NON_FINITE_NORM)
    i = _first_excess(-lower, stop_bound + tol.margin(wt - t_star))
    if i is not None:
        failures.append(f"limit check failed for witness {i} (residual {lower[i]:.6e})")
    x_norms = row_norms(xs)
    fp_residual = norm(evaluate(spec, x_star) - x_star)
    fp_tolerance = lam**n_steps * d + tol.margin(float(x_norms[-1]))
    if _first_excess(fp_residual, fp_tolerance) is not None:
        failures.append(f"fixed-point residual {fp_residual:.6e} exceeds {fp_tolerance:.6e}")

    # (d) consistency: the points must actually satisfy the recurrences.
    # Row 0 echoes x^0 - x0 and t^0 - 0.0, which is t^0 itself, -0.0 too.
    consistency_x = row_norms(xs - np.vstack((x0, evaluate_batch(spec, xs[:-1]))))
    consistency_t = np.abs(ts - np.concatenate(([0.0], lam * ts[:-1] + d)))
    n = _first_excess((consistency_x, consistency_t), (tol.margin(x_norms), tol.margin(ts)))
    if n is not None:
        failures.append(f"trace consistency failed at point {n} "
                        f"(x echo {consistency_x[n]:.6e}, t echo {consistency_t[n]:.6e})")

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
        witness_residuals=witness_residuals,
        lower_bound_residuals=lower,
        consistency_x=consistency_x,
        consistency_t=consistency_t,
        fixed_point_residual=fp_residual,
        fixed_point_tolerance=fp_tolerance,
        passed=not failures,
        first_failure=failures[0] if failures else None,
        bounded_summary=bounded_summary,
    )
