import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

import cone_fixpoint
from cone_fixpoint import (
    APosteriori,
    APriori,
    Affine,
    AugmentedPoint,
    Constant,
    FixedCount,
    InvalidInputError,
    IterationTrace,
    KeplerScalar,
    ScaledRotation,
    StopReason,
    a_priori_iterations,
    as_vector,
    augmented_step,
    builtin,
    builtin_catalog,
    evaluate,
    norm,
    run,
    t_closed_form,
    verify_certificate,
)
from cone_fixpoint import engine
from cone_fixpoint.engine import INITIAL_ROWS, STOP_BLOCK
from test_acceptance import random_affine_instances

AFFINE = Affine(a=[[0.5]], b=[1.0], lam=0.5)


class TestAugmentedStep:
    def test_first_step(self):
        nxt = augmented_step(AFFINE, AugmentedPoint([0.0], 0.0), d=1.0)
        assert nxt == AugmentedPoint([1.0], 1.0)

    def test_second_step(self):
        nxt = augmented_step(AFFINE, AugmentedPoint([1.0], 1.0), d=1.0)
        assert nxt == AugmentedPoint([1.5], 1.5)

    def test_constant_map(self):
        spec = Constant(c=[3.0, 7.0], lam=0.25)
        cur = AugmentedPoint([3.0, 7.0], 2.0)
        nxt = augmented_step(spec, cur, d=4.0)
        assert np.array_equal(nxt.x, [3.0, 7.0])
        assert nxt.t == 0.25 * 2.0 + 4.0

    def test_negative_d_rejected(self):
        with pytest.raises(InvalidInputError):
            augmented_step(AFFINE, AugmentedPoint([0.0], 0.0), d=-1.0)


class TestClosedForm:
    def test_three_steps(self):
        assert t_closed_form(1.0, 0.5, 3) == 1.75

    def test_zero_d(self):
        assert t_closed_form(0.0, 0.9, 17) == 0.0

    def test_n_zero(self):
        assert t_closed_form(1.0, 0.5, 0) == 0.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            t_closed_form(-1.0, 0.5, 3)
        with pytest.raises(InvalidInputError):
            t_closed_form(1.0, 1.5, 3)
        with pytest.raises(InvalidInputError):
            t_closed_form(1.0, 0.5, -1)


class TestAPrioriIterations:
    def test_quarter_eps(self):
        assert a_priori_iterations(1.0, 0.5, 0.25) == 3

    def test_zero_d(self):
        assert a_priori_iterations(0.0, 0.9, 1e-12) == 0

    def test_enumeration_agreement(self):
        d, lam, eps = 1.0, 0.5, 1e-6
        n = 0
        while lam**n * d / (1 - lam) > eps:
            n += 1
        assert n == 21
        assert a_priori_iterations(d, lam, eps) == 21

    def test_is_smallest(self):
        for lam in (0.3, 0.5, 0.9, 0.999):
            for eps in (1e-2, 1e-6, 1e-10):
                n = a_priori_iterations(2.5, lam, eps)
                assert lam**n * 2.5 / (1 - lam) <= eps
                if n > 0:
                    assert lam ** (n - 1) * 2.5 / (1 - lam) > eps

    @staticmethod
    def _smallest(d, lam, eps):
        n = 0
        while lam**n * (d / (1.0 - lam)) > eps:
            n += 1
        return n

    @pytest.mark.parametrize(("d", "lam", "eps", "n"), [
        (1.0, 0.5, 5e-324, 1075), (1e300, 0.9, 1e-300, 7073), (1.0, 0.999, 5e-324, 744761),
    ])
    def test_underflowing_quotient(self, d, lam, eps, n):
        # eps (1 - lam) / d underflows to 0, which has no logarithm
        assert a_priori_iterations(d, lam, eps) == self._smallest(d, lam, eps) == n

    def test_agrees_with_a_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            d = 10.0 ** rng.uniform(-300, 300)
            lam = rng.uniform(0.05, 0.9)
            eps = 10.0 ** rng.uniform(-323, 0)
            assert a_priori_iterations(d, lam, eps) == self._smallest(d, lam, eps), (d, lam, eps)

    def test_run_and_certificate_publish_one_bound(self):
        # here (lam^77 d) / (1 - lam) rounds to eps and lam^77 (d / (1 - lam))
        # one ulp above it: the stop rule, the trace and the certificate must
        # all take the certificate's rounding, so that it does not exceed eps
        d, lam, eps = 92.51572636262478, 0.45173680007497424, 4.502023380443716e-25
        trace = run(Affine([[lam]], [d], lam), [0.0], APriori(eps))
        assert trace.n_steps == a_priori_iterations(d, lam, eps) == 78
        assert verify_certificate(trace).stop_bound == trace.final_bound() <= eps

    def test_infinite_limit_refused(self):
        # t* = 1e300 / 1e-10 overflows, and no step count brings an infinite
        # bound below eps: a search for one would never end, so both calls
        # run in a fresh interpreter under a timeout
        src = str(Path(cone_fixpoint.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "from cone_fixpoint import (APriori, Constant, InvalidInputError,\n"
            "                           a_priori_iterations, run)\n"
            "for call in (lambda: a_priori_iterations(1e300, 1 - 1e-10, 1e-8),\n"
            "             lambda: run(Constant([1e300], 1 - 1e-10), [0.0], APriori(1e-8))):\n"
            "    try:\n"
            "        call()\n"
            "    except InvalidInputError as exc:\n"
            "        print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.stdout == 2 * f"{INFINITE_LIMIT}\n", proc.stderr


INFINITE_LIMIT = "t* = d / (1 - lambda) overflows at d = 1.000000e+300, lambda = 0.9999999999"


class TestRun:
    def test_fixed_count_trace(self):
        trace = run(AFFINE, [0.0], FixedCount(3))
        assert trace.stop_reason is StopReason.FIXED_COUNT
        np.testing.assert_array_equal(trace.xs.ravel(), [0.0, 1.0, 1.5, 1.75])
        np.testing.assert_array_equal(trace.ts, [0.0, 1.0, 1.5, 1.75])
        assert trace.d == 1.0

    def test_trace_starts_at_x0_with_t_zero(self):
        trace = run(AFFINE, [0.0], FixedCount(5))
        assert trace.point(0) == AugmentedPoint([0.0], 0.0)

    def test_exact_fixed_point(self):
        trace = run(AFFINE, [2.0], FixedCount(10))
        assert trace.stop_reason is StopReason.EXACT_FIXED_POINT
        assert trace.n_steps == 0
        assert trace.d == 0.0
        np.testing.assert_array_equal(trace.xs, [[2.0]])

    @pytest.mark.parametrize("x0", [[2.0], [0.0]])
    def test_unknown_rule_refused_at_any_start(self, x0):
        # x0 = 2 is FIXED_START's exact fixed point, where d = 0
        with pytest.raises(InvalidInputError, match="^unknown stopping rule 'bogus'$"):
            run(builtin("FIXED_START").spec, x0, "bogus")

    @pytest.mark.parametrize("rule", [APosteriori(1e-8), FixedCount(3), FixedCount(0)],
                             ids=["APosteriori", "FixedCount-3", "FixedCount-0"])
    def test_infinite_limit_refused_by_every_rule(self, rule):
        # the map is constant, so a-posteriori stops at step 2 with a finite
        # trace, but its bound t* - t^N is infinite
        with pytest.raises(InvalidInputError, match=f"^{re.escape(INFINITE_LIMIT)}$"):
            run(Constant([1e300], 1 - 1e-10), [0.0], rule)

    def test_apriori_stops_at_bound(self):
        trace = run(AFFINE, [0.0], APriori(0.25))
        assert trace.stop_reason is StopReason.A_PRIORI
        assert trace.n_steps == 3
        assert trace.final.x[0] == 1.75

    def test_apriori_rotation_hits_reference(self):
        p = builtin("ROTATION_2D")
        # oracle: direct 2x2 solve of (I - 0.5 R) x = b
        r = p.spec.matrix
        expected = np.linalg.solve(np.eye(2) - r, np.array([1.0, 0.0]))
        trace = run(p.spec, p.x0, APriori(1e-10))
        assert np.linalg.norm(trace.final.x - expected) <= 1e-10

    def test_aposteriori_stops_within_eps(self):
        trace = run(AFFINE, [0.0], APosteriori(1e-6))
        assert trace.stop_reason is StopReason.A_POSTERIORI
        assert abs(trace.final.x[0] - 2.0) <= 1e-6

    def test_max_iterations_flagged_not_raised(self):
        p = builtin("NEAR_ONE")
        trace = run(p.spec, p.x0, APriori(1e-10, max_iterations=10))
        assert trace.stop_reason is StopReason.MAX_ITERATIONS
        assert trace.n_steps == 10

    def test_t_recurrence_and_monotonicity(self):
        p = builtin("KEPLER")
        trace = run(p.spec, p.x0, FixedCount(60))
        lam, d = p.spec.lam, trace.d
        for n in range(trace.n_steps):
            assert trace.ts[n + 1] == lam * trace.ts[n] + d
        assert np.all(np.diff(trace.ts) >= -1e-15)
        assert np.all(trace.ts <= trace.t_star * (1 + 1e-14))

    def test_t_matches_closed_form(self):
        trace = run(AFFINE, [0.0], FixedCount(40))
        for n in range(trace.n_steps + 1):
            cf = t_closed_form(trace.d, 0.5, n)
            assert trace.ts[n] == pytest.approx(cf, rel=1e-12, abs=0) or trace.ts[n] == cf

    def test_step_contraction_chain(self):
        p = builtin("KEPLER")
        trace = run(p.spec, p.x0, FixedCount(40))
        steps = np.linalg.norm(np.diff(trace.xs, axis=0), axis=1)
        assert np.all(steps[1:] <= p.spec.lam * steps[:-1] + 1e-15)

    def test_error_bound_equality_case(self):
        # 1-D monotone affine attains the bound: both sides 0.25 at n = 3
        trace = run(AFFINE, [0.0], APriori(1e-10))
        err = abs(trace.xs[3, 0] - 2.0)
        bound = 0.5**3 * trace.d / (1 - 0.5)
        assert err == 0.25 and bound == 0.25

    def test_conditioning_warning(self):
        spec = Affine(a=[[1.0 - 1e-7]], b=[1e-7], lam=1.0 - 1e-7)
        trace = run(spec, [0.0], FixedCount(3))
        assert any("ill-conditioned" in w for w in trace.warnings)
        assert not run(AFFINE, [0.0], FixedCount(1)).warnings

    def test_dimension_mismatch(self):
        from cone_fixpoint import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            run(AFFINE, [0.0, 1.0], FixedCount(1))

    def test_rule_validation(self):
        with pytest.raises(InvalidInputError):
            APriori(eps=0.0)
        with pytest.raises(InvalidInputError):
            APosteriori(eps=1e-6, max_iterations=0)
        with pytest.raises(InvalidInputError):
            FixedCount(-1)

    def test_rule_validation_messages(self):
        for cls in (APriori, APosteriori):
            with pytest.raises(InvalidInputError, match=r"^eps must be finite and > 0, got nan$"):
                cls(eps=float("nan"))
            with pytest.raises(InvalidInputError, match=r"^max_iterations must be >= 1$"):
                cls(eps=1e-6, max_iterations=0)
        with pytest.raises(InvalidInputError, match=r"^count must be >= 0$"):
            FixedCount(-1, max_iterations=0)
        with pytest.raises(InvalidInputError, match=r"^max_iterations must be >= 1$"):
            FixedCount(3, max_iterations=0)
        # a count that is not an integer is refused when the rule is made,
        # not by numpy inside run
        for make, name, shown in [
            (lambda: APosteriori(1e-8, max_iterations=10.5), "max_iterations", "10.5"),
            (lambda: APriori(1e-8, max_iterations=2.5), "max_iterations", "2.5"),
            (lambda: FixedCount(3, max_iterations=4.0), "max_iterations", "4.0"),
            (lambda: FixedCount(3.0), "count", "3.0"),
            (lambda: FixedCount(3.5), "count", "3.5"),
            (lambda: FixedCount("3"), "count", "'3'"),
        ]:
            with pytest.raises(InvalidInputError, match=f"^{name} must be an integer, got {shown}$"):
                make()
        with pytest.raises(InvalidInputError, match="^count must be an integer"):
            FixedCount(np.float64(3.0))
        trace = run(AFFINE, [0.0], FixedCount(np.int64(3), max_iterations=np.int64(5)))
        assert trace.n_steps == 3
        assert run(AFFINE, [0.0], APosteriori(1e-6, max_iterations=np.int64(40))).n_steps == 21

    def test_trace_refuses_non_finite_values(self):
        xs = np.array([[0.0], [1.0], [1.5]])
        ts = np.array([0.0, 1.0, 1.5])
        for bad in (np.nan, np.inf, -np.inf):
            poisoned = xs.copy()
            poisoned[1, 0] = bad
            with pytest.raises(InvalidInputError, match="trace row 1"):
                IterationTrace(AFFINE, [0.0], 1.0, poisoned, ts, None)
            poisoned = ts.copy()
            poisoned[2] = bad
            with pytest.raises(InvalidInputError, match="trace row 2"):
                IterationTrace(AFFINE, [0.0], 1.0, xs, poisoned, None)

    def test_trace_arrays_are_read_only(self):
        trace = run(AFFINE, [0.0], FixedCount(3))
        assert not trace.xs.flags.writeable and not trace.ts.flags.writeable

    def test_points_view(self):
        trace = run(AFFINE, [0.0], FixedCount(2))
        pts = trace.points
        assert len(pts) == 3
        assert pts[-1] == trace.final


class TestErrorBoundSoundness:
    @pytest.mark.parametrize("name", ["AFFINE_1D", "ROTATION_2D", "KEPLER"])
    def test_bound_dominates_true_error(self, name):
        p = builtin(name)
        trace = run(p.spec, p.x0, APriori(1e-10))
        errs = np.linalg.norm(trace.xs - p.reference, axis=1)
        ns = np.arange(trace.n_steps + 1)
        bounds = p.spec.lam**ns * trace.d / (1 - p.spec.lam)
        assert np.all(errs <= bounds + 1e-12)

    @pytest.mark.parametrize("eps", [1e-4, 1e-8])
    @pytest.mark.parametrize("rule_cls", [APriori, APosteriori])
    def test_final_error_below_eps_on_every_builtin(self, rule_cls, eps):
        from cone_fixpoint import builtin_catalog

        for p in builtin_catalog():
            trace = run(p.spec, p.x0, rule_cls(eps))
            assert np.linalg.norm(trace.final.x - p.reference) <= eps, p.name


def _reference_run(spec, x0, rule):
    """The list-based loop the engine used before its hot path was cut down:
    ``evaluate`` (with its per-step validation) and a step ``norm`` on every
    step, rows appended to lists and stacked at the end.  Kept as the oracle
    that pins the fast loop to the same bits."""
    x0 = as_vector(x0)
    x1 = evaluate(spec, x0)
    d = norm(x1 - x0)
    if d == 0.0:
        return x0[None, :].copy(), np.zeros(1), 0.0, StopReason.EXACT_FIXED_POINT
    gap = 1.0 - spec.lam
    if isinstance(rule, APriori):
        target = a_priori_iterations(d, spec.lam, rule.eps)
        steps = min(target, rule.max_iterations)
        reason = StopReason.A_PRIORI if target <= rule.max_iterations else StopReason.MAX_ITERATIONS
    elif isinstance(rule, FixedCount):
        steps = min(rule.count, rule.max_iterations)
        reason = StopReason.FIXED_COUNT if rule.count <= rule.max_iterations else StopReason.MAX_ITERATIONS
    else:
        steps = None
        reason = StopReason.A_POSTERIORI
    xs, ts = [x0], [0.0]
    x, t, n = x0, 0.0, 0
    while True:
        if steps is not None and n >= steps:
            break
        x_next = x1 if n == 0 else evaluate(spec, x)
        t = spec.lam * t + d
        step_norm = norm(x_next - x)
        x = x_next
        xs.append(x)
        ts.append(t)
        n += 1
        if steps is None:
            if (spec.lam / gap) * step_norm <= rule.eps:
                break
            if n >= rule.max_iterations:
                reason = StopReason.MAX_ITERATIONS
                break
    return np.vstack(xs), np.asarray(ts), d, reason


def _assert_same_as_reference(spec, x0, rule):
    trace = run(spec, x0, rule)
    xs, ts, d, reason = _reference_run(spec, x0, rule)
    assert trace.xs.shape == xs.shape
    assert trace.xs.tobytes() == xs.tobytes()
    assert trace.ts.tobytes() == ts.tobytes()
    assert trace.d == d
    assert trace.n_steps == xs.shape[0] - 1
    assert trace.stop_reason is reason


RULES = [
    APriori(1e-10),
    APosteriori(1e-10),
    FixedCount(200),
    APriori(1e-10, max_iterations=7),
    APosteriori(1e-10, max_iterations=7),
    FixedCount(200, max_iterations=7),
    APriori(1e-10, max_iterations=1),
    APosteriori(1e-10, max_iterations=1),
    FixedCount(200, max_iterations=1),
    FixedCount(0),
]


def _rule_id(rule):
    return "-".join([type(rule).__name__] + [str(v) for v in vars(rule).values()])


def _affine_problem(m, seed, lam):
    """An m-dimensional affine map with ||A||_2 = lam and a start away from
    its fixed point."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, m))
    a = raw * (lam / float(np.linalg.svd(raw, compute_uv=False)[0]))
    return Affine(a=a, b=rng.standard_normal(m), lam=lam), rng.standard_normal(m)


def _stop_values(spec, x0, steps):
    """The a-posteriori stop value (lam / (1 - lam)) * norm(step n), for
    n = 1..steps, as the stop test computes it."""
    xs = run(spec, x0, FixedCount(steps)).xs
    stop_factor = spec.lam / (1.0 - spec.lam)
    return [stop_factor * norm(xs[n] - xs[n - 1]) for n in range(1, steps + 1)]


def _eps_at_and_around(value):
    """value and its float neighbours, the positive ones (a rule's eps)."""
    return [e for e in (np.nextafter(value, 0.0), value, np.nextafter(value, np.inf)) if e > 0.0]


DIMENSIONS = [1, 2, 7, 8, 300]
# Steps to stop at: early ones, and those at and next to the ends of the
# first two blocks of an a-posteriori run.
STOP_STEPS = [1, 2, 9, 25, STOP_BLOCK - 1, STOP_BLOCK, STOP_BLOCK + 1, 2 * STOP_BLOCK]
# max_iterations guards at and next to block and buffer ends
GUARDS = sorted({2, STOP_BLOCK - 1, STOP_BLOCK, STOP_BLOCK + 1, 2 * STOP_BLOCK,
                 INITIAL_ROWS - 1, INITIAL_ROWS, INITIAL_ROWS + 1, 2 * INITIAL_ROWS + 1})


class _ArrayAffine(Affine):
    """An affine map without a scalar map: at m = 1 the engine iterates it
    on arrays."""

    def _scalar_map(self):
        return None


# One-dimensional maps of every family that has a scalar map, and one that
# the engine iterates on arrays.  The affine map with a = -0.5, b = -0
# halves x to 2^-1074 and then to a zero product, where the matmul's sum,
# started from +0, gives +0 rather than -0.
SIGNED_ZERO_AFFINE = Affine(a=[[-0.5]], b=[-0.0], lam=0.5)
SCALAR_PROBLEMS = {
    "kepler": (KeplerScalar(e=0.9, mean_anomaly=1.0, lam=0.95), [0.0]),
    "kepler-negative-e": (KeplerScalar(e=-0.9, mean_anomaly=-2.5, lam=0.95), [3.0]),
    "constant": (Constant(c=[-1.5], lam=0.4), [2.0]),
    "constant-at-c": (Constant(c=[-0.0], lam=0.4), [0.0]),
    "affine-signed-zero": (SIGNED_ZERO_AFFINE, [1.0]),
    "affine-subnormal-x0": (SIGNED_ZERO_AFFINE, [5e-324]),
    "affine-negative-zero-x0": (SIGNED_ZERO_AFFINE, [-0.0]),
    "affine-on-arrays": (_ArrayAffine(a=[[-0.5]], b=[-0.0], lam=0.5), [1.0]),
}
STEPPING_SCALAR_PROBLEMS = ["kepler", "kepler-negative-e", "constant", "affine-signed-zero",
                            "affine-on-arrays"]


def _assert_same_outcome(spec, x0, rule):
    """The trace of :func:`_assert_same_as_reference`, or, where an iterate,
    t^n or the limit t* = d / (1 - lam) overflows, an
    :class:`InvalidInputError` from the engine; the reference loop raises
    only from a step norm."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            xs, ts, d, _ = _reference_run(spec, x0, rule)
        finite = (np.isfinite(xs).all() and np.isfinite(ts).all()
                  and np.isfinite(d / (1.0 - spec.lam)))
    except InvalidInputError:
        finite = False
    if finite:
        _assert_same_as_reference(spec, x0, rule)
    else:
        with pytest.raises(InvalidInputError):
            run(spec, x0, rule)


def _edge_affine_problems(m):
    """Affine maps of width m whose iterates hold signed zeros, subnormals,
    or overflow in their first coordinate, and an ordinary one."""
    spec, x0 = _affine_problem(m, 1, lam=0.6)
    diagonal = np.eye(m, dtype=bool)
    signs = np.where(np.arange(m) % 2, -0.0, 0.0)
    first = np.zeros(m)
    first[0] = 1e308
    return [
        (spec, x0),
        # halves to underflow, then stays at signed zeros
        (Affine(a=np.where(diagonal, -(2.0**-60), signs), b=signs, lam=0.6),
         np.where(np.arange(m) % 3, -0.0, 1.0)),
        (Affine(a=spec.a, b=2.0**-1060 * spec.b, lam=0.6), 2.0**-1060 * x0),
        # the first coordinate tends to 2e308 and overflows at step 2,
        # while t^n stays below d / (1 - lam) = 6.25e307
        (Affine(a=0.5 * np.eye(m), b=first, lam=0.6), 1.5 * first),
    ]


class TestSameBitsAsListLoop:
    @pytest.mark.parametrize("rule", RULES, ids=_rule_id)
    @pytest.mark.parametrize("name", [p.name for p in builtin_catalog()])
    def test_builtins(self, name, rule):
        p = builtin(name)
        _assert_same_as_reference(p.spec, p.x0, rule)

    @pytest.mark.parametrize("rule", [APriori(1e-10), APosteriori(1e-10), FixedCount(60)], ids=_rule_id)
    def test_random_affine_maps(self, rule):
        for _, spec, x0 in random_affine_instances():
            _assert_same_as_reference(spec, x0, rule)

    @pytest.mark.parametrize("rule", RULES, ids=_rule_id)
    @pytest.mark.parametrize("m", [2, 3, 8, 300])
    def test_affine_maps_written_in_place(self, m, rule):
        for spec, x0 in _edge_affine_problems(m):
            _assert_same_outcome(spec, x0, rule)

    @pytest.mark.parametrize("rule", RULES, ids=_rule_id)
    def test_rotations_constants_and_array_maps_written_in_place(self, rule):
        problems = [
            (ScaledRotation(theta=1.234, scale=0.9, b=[0.3, -2.0], lam=0.95), [5.0, -7.5]),
            (ScaledRotation(theta=-2.0, scale=-0.37, b=[1e-310, -0.0], lam=0.95), [5e-324, 2.0]),
            (ScaledRotation(theta=0.5, scale=2.0**-60, b=[-0.0, -0.0], lam=0.95), [1.0, -0.0]),
            (ScaledRotation(theta=0.5, scale=0.5, b=[1e308, 0.0], lam=0.95), [0.0, 0.0]),
            (Constant(c=[-0.0, 5e-324], lam=0.4), [1.0, -0.0]),
            (Constant(c=[1.5, -2.0], lam=0.4), [0.0, 0.0]),
            (_ArrayAffine(a=[[-0.5]], b=[-0.0], lam=0.5), [1.0]),
            (_ArrayAffine(a=[[2.0**-60]], b=[-0.0], lam=0.5), [-1.0]),
            (_ArrayAffine(a=[[0.9]], b=[5e-324], lam=0.95), [-0.0]),
        ]
        for spec, x0 in problems:
            _assert_same_outcome(spec, x0, rule)

    @pytest.mark.parametrize("max_iterations", [63, 64, 65, 129, 300])
    def test_in_place_rows_past_buffer_growth(self, max_iterations):
        # affine maps of every width are taken by test_max_iterations_past_buffer_growth
        rule = APosteriori(1e-300, max_iterations=max_iterations)
        for spec, x0 in [(ScaledRotation(theta=0.3, scale=-0.99, b=[1.0, 2.0], lam=0.995), [0.0, 0.0]),
                         (_ArrayAffine(a=[[0.99]], b=[-1.0], lam=0.995), [3.0])]:
            _assert_same_as_reference(spec, x0, rule)

    @pytest.mark.parametrize("scale", [0.9, -0.9, 0.37, -0.37])
    def test_rotations_both_signs(self, scale):
        spec = ScaledRotation(theta=1.234, scale=scale, b=[0.3, -2.0], lam=0.95)
        for rule in (APriori(1e-12), APosteriori(1e-12), FixedCount(300)):
            _assert_same_as_reference(spec, [5.0, -7.5], rule)

    @pytest.mark.parametrize("rule", RULES + [FixedCount(1100)], ids=_rule_id)
    @pytest.mark.parametrize("name", list(SCALAR_PROBLEMS))
    def test_scalar_maps(self, name, rule):
        spec, x0 = SCALAR_PROBLEMS[name]
        _assert_same_as_reference(spec, x0, rule)

    @pytest.mark.parametrize("name", STEPPING_SCALAR_PROBLEMS)
    def test_scalar_maps_eps_on_and_next_to_a_step(self, name):
        spec, x0 = SCALAR_PROBLEMS[name]
        values = _stop_values(spec, x0, 2 * STOP_BLOCK)
        for n in STOP_STEPS:
            for eps in _eps_at_and_around(values[n - 1]):
                _assert_same_as_reference(spec, x0, APosteriori(eps, max_iterations=200))

    @pytest.mark.parametrize("m", DIMENSIONS)
    def test_eps_on_and_next_to_a_step(self, m):
        # eps equal to the stop value of step N, or one float either side,
        # decides the test at step N by the last bit of its step norm.
        for seed in range(3 if m == 300 else 12):
            spec, x0 = _affine_problem(m, seed, lam=0.6)
            values = _stop_values(spec, x0, 2 * STOP_BLOCK)
            for n in STOP_STEPS:
                for eps in _eps_at_and_around(values[n - 1]):
                    _assert_same_as_reference(spec, x0, APosteriori(eps, max_iterations=200))

    @pytest.mark.parametrize("m", DIMENSIONS)
    @pytest.mark.parametrize("scale", [2.0**520, 2.0**-520, 2.0**-530, 2.0**-540],
                             ids=["2^520", "2^-520", "2^-530", "2^-540"])
    def test_extreme_scales(self, m, scale):
        # At 2^520 the unscaled squares would overflow, and from 2^-520 on
        # they would be subnormal or zero: the batched step norms scale each
        # row by its largest entry, as norm does, and must keep its bits.
        for seed in range(2 if m == 300 else 6):
            spec, x0 = _affine_problem(m, seed, lam=0.6)
            spec = Affine(a=spec.a, b=scale * spec.b, lam=spec.lam)
            x0 = scale * x0
            values = _stop_values(spec, x0, 25)
            for n in (1, 2, 4, 7, 25):
                for eps in _eps_at_and_around(values[n - 1]):
                    _assert_same_as_reference(spec, x0, APosteriori(eps, max_iterations=200))

    @pytest.mark.parametrize("m", DIMENSIONS)
    @pytest.mark.parametrize("max_iterations", [63, 64, 65, 129, 300])
    def test_max_iterations_past_buffer_growth(self, m, max_iterations):
        spec, x0 = _affine_problem(m, 7, lam=0.99)
        _assert_same_as_reference(spec, x0, APosteriori(1e-300, max_iterations=max_iterations))

    def test_stop_past_buffer_growth(self):
        spec, x0 = _affine_problem(8, 3, lam=0.95)
        values = _stop_values(spec, x0, 200)
        for n in (63, 64, 65, 128, 129, 200):
            _assert_same_as_reference(spec, x0, APosteriori(values[n - 1], max_iterations=400))

    def test_subnormal_eps_takes_the_exact_test(self):
        # With lam = 2^-600 the stop value of a step near 2^-430 is
        # subnormal, so its product rounds with an absolute error far above
        # a relative one: the batched test must round it as a float does.
        rng = np.random.default_rng(11)
        spec0 = Affine(a=[[2.0**-601]], b=[1.0], lam=2.0**-600)
        for b in rng.uniform(2.0**-431, 2.0**-429, 40):
            spec = Affine(a=spec0.a, b=[b], lam=spec0.lam)
            for eps in _eps_at_and_around(_stop_values(spec, [0.0], 1)[0]):
                _assert_same_as_reference(spec, [0.0], APosteriori(eps, max_iterations=5))

    @pytest.mark.parametrize("m", DIMENSIONS)
    def test_max_iterations_at_block_and_buffer_boundaries(self, m):
        # the guard ends a run inside, at the end of, or just past a block
        # or a buffer, with the stop at the guard, one step before it, or
        # nowhere.  The map rotates and shrinks by 0.99, so no step is 0.
        rng = np.random.default_rng(m)
        rotation = np.linalg.qr(rng.standard_normal((m, m)))[0]
        spec = Affine(a=0.99 * rotation, b=rng.standard_normal(m), lam=0.995)
        x0 = rng.standard_normal(m)
        values = _stop_values(spec, x0, 2 * INITIAL_ROWS + 1)
        for max_iterations in GUARDS:
            for eps in (1e-300, values[max_iterations - 1], values[max_iterations - 2]):
                _assert_same_as_reference(spec, x0, APosteriori(eps, max_iterations=max_iterations))

    @pytest.mark.parametrize("name", STEPPING_SCALAR_PROBLEMS)
    def test_scalar_maps_max_iterations_at_block_and_buffer_boundaries(self, name):
        spec, x0 = SCALAR_PROBLEMS[name]
        for max_iterations in GUARDS:
            _assert_same_as_reference(spec, x0, APosteriori(1e-300, max_iterations=max_iterations))

    @pytest.mark.parametrize("spec", [Affine(a=[[0.5]], b=[1e308], lam=0.5),
                                      _ArrayAffine(a=[[0.5]], b=[1e308], lam=0.5)],
                             ids=["floats", "arrays"])
    def test_overflow_past_the_stop_is_dropped(self, spec):
        # the stop value of step 1 is 5e307 <= eps; step 3 overflows in the
        # same block, and is dropped with no error and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(spec, [1e308], APosteriori(1e308))
        assert trace.n_steps == 1 and trace.stop_reason is StopReason.A_POSTERIORI
        _assert_same_as_reference(spec, [1e308], APosteriori(1e308))

    def test_non_finite_step_raises(self):
        # x^3 overflows; with the guard at 3 the run must still take that
        # step's norm and refuse it, not return the truncated trace.
        spec = Affine(a=[[0.5]], b=[1e308], lam=0.5)
        for max_iterations in (3, 10):
            rule = APosteriori(1e-8, max_iterations=max_iterations)
            for check in (run, _reference_run):
                with np.errstate(over="ignore"), pytest.raises(
                    InvalidInputError, match="cannot take the norm of a non-finite vector"
                ):
                    check(spec, [1e308], rule)

    def test_trace_arrays_are_exact_and_read_only(self):
        spec, x0 = _affine_problem(7, 1, lam=0.99)
        rule = APosteriori(1e-300, max_iterations=100)
        trace = run(spec, x0, rule)
        # the cap, unless the gemv reaches a zero step first (OpenBLAS's
        # Sandybridge kernel does at step 97)
        n_points = _reference_run(spec, x0, rule)[0].shape[0]
        assert trace.xs.shape == (n_points, 7) and trace.ts.shape == (n_points,)
        assert not trace.xs.flags.writeable and not trace.ts.flags.writeable
        assert trace.xs.flags.c_contiguous


@dataclass(frozen=True)
class _UlpOffKepler(KeplerScalar):
    """A Kepler map whose fast float map is one ulp above the exact one at
    step ``off_at`` of a run, and exact elsewhere; ``calls`` holds each
    run's step counter."""

    off_at: int = 1
    calls: list = field(default_factory=list, compare=False)

    def _fast_scalar_map(self):
        exact, count = self._scalar_map(), itertools.count(1)
        self.calls.append(count)

        def fast(x):
            y = exact(x)
            return math.nextafter(y, math.inf) if next(count) == self.off_at else y

        return fast


@dataclass(frozen=True)
class _NegativeZeroKepler(KeplerScalar):
    """A Kepler map whose fast float map returns -0 where the exact map
    gives +0: equal as values, different in the trace's bits."""

    def _fast_scalar_map(self):
        exact = self._scalar_map()
        return lambda x: -0.0 if exact(x) == 0.0 else exact(x)


class TestProvenFastMap:
    """The float loop steps a Kepler map with math.sin and proves its steps
    afterwards against np.sin; from the first unproven step it runs again
    with the exact map.  A fast map made wrong on purpose must leave the
    trace, the step count and the stop reason of the exact loop."""

    @staticmethod
    def _assert_steps_taken_then_proven(spec, x0, rule):
        _assert_same_as_reference(spec, x0, rule)
        # the run did step with the fast map, up to the wrong step at least
        n_steps = _reference_run(spec, x0, rule)[0].shape[0] - 1
        assert next(spec.calls[-1]) - 1 >= min(spec.off_at, n_steps)

    @pytest.mark.parametrize("off_at", [1, 2, 7, 8, 20])
    @pytest.mark.parametrize("rule", RULES + [FixedCount(1100)], ids=_rule_id)
    def test_one_ulp_off(self, rule, off_at):
        for e, mean_anomaly, x0 in [(0.9, 1.0, [0.0]), (-0.9, -2.5, [3.0])]:
            spec = _UlpOffKepler(e=e, mean_anomaly=mean_anomaly, lam=0.95, off_at=off_at)
            self._assert_steps_taken_then_proven(spec, x0, rule)

    @pytest.mark.parametrize("n", [2, 9, 25])
    def test_one_ulp_off_with_eps_on_and_next_to_a_step(self, n):
        # the wrong step comes before, at or after the step that stops
        spec, x0 = SCALAR_PROBLEMS["kepler"]
        values = _stop_values(spec, x0, 25)
        for off_at in (n - 1, n, n + 1):
            wrong = _UlpOffKepler(e=spec.e, mean_anomaly=spec.mean_anomaly, lam=spec.lam,
                                  off_at=off_at)
            for eps in _eps_at_and_around(values[n - 1]):
                for max_iterations in (200, n):
                    self._assert_steps_taken_then_proven(
                        wrong, x0, APosteriori(eps, max_iterations=max_iterations))

    @pytest.mark.parametrize("n", [2, 9, STOP_BLOCK + 2])
    def test_one_ulp_off_only_past_the_stop(self, n, monkeypatch):
        # the wrong step is computed in the stop's block but dropped: the
        # proof covers only the kept steps, so nothing runs again.  Near
        # E = 0 the map contracts by about 0.9, so no step is 0 before 40.
        spec, x0 = KeplerScalar(e=0.9, mean_anomaly=0.1, lam=0.95), [3.0]
        rule = APosteriori(_stop_values(spec, x0, n)[n - 1], max_iterations=200)
        assert _reference_run(spec, x0, rule)[0].shape[0] - 1 == n
        proof, unproven = engine._first_unproven_step, []
        monkeypatch.setattr(engine, "_first_unproven_step",
                            lambda *args: unproven.append(proof(*args)) or unproven[-1])
        block_end = -(-n // STOP_BLOCK) * STOP_BLOCK
        for off_at in (n + 1, block_end):
            unproven.clear()
            wrong = _UlpOffKepler(e=spec.e, mean_anomaly=spec.mean_anomaly, lam=spec.lam,
                                  off_at=off_at)
            _assert_same_as_reference(wrong, x0, rule)
            assert unproven == [0]
            assert next(wrong.calls[-1]) - 1 == block_end

    @pytest.mark.parametrize("rule", [FixedCount(10), APosteriori(5e-324, max_iterations=10),
                                      FixedCount(10, max_iterations=4)], ids=_rule_id)
    def test_negative_zero_for_positive_zero(self, rule):
        # x halves from 8 * 2^-1074 and reaches +0 at step 4; a-posteriori
        # stops at step 5, the first step of length 0
        spec = _NegativeZeroKepler(e=0.5, mean_anomaly=0.0, lam=0.9)
        x0 = [4e-323]
        xs = _reference_run(spec, x0, rule)[0]
        assert xs[4].tobytes() == np.array([0.0]).tobytes()
        _assert_same_as_reference(spec, x0, rule)
