import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_fixpoint import (
    Affine,
    APosteriori,
    APriori,
    AugmentedPoint,
    Constant,
    ConvergenceCertificate,
    DimensionMismatchError,
    FixedCount,
    InvalidInputError,
    InvalidWitnessError,
    IterationTrace,
    KeplerScalar,
    OmegaSpec,
    ScaledRotation,
    TolerancePolicy,
    builtin,
    builtin_catalog,
    canonical_omega_witness,
    evaluate,
    evaluate_batch,
    norm,
    omega_bounds,
    omega_contains,
    omega_t_floor,
    run,
    sample_omega,
    verify_certificate,
)
from cone_fixpoint import certificate
from cone_fixpoint.certificate import BLOCK_ELEMENTS, ROW_BLOCK
from cone_fixpoint.cone import NON_FINITE_NORM, PAIRWISE_SUM_MIN_COLUMNS, row_norms
from test_acceptance import random_affine_instances
from test_engine import SCALAR_PROBLEMS

AFFINE = Affine(a=[[0.5]], b=[1.0], lam=0.5)
STRICT = TolerancePolicy.exact()


@pytest.fixture
def affine_omega():
    return OmegaSpec.for_problem(AFFINE, [0.0])


@pytest.fixture
def affine_trace():
    return run(AFFINE, [0.0], FixedCount(3))


class TestOmegaMembership:
    def test_fixed_point_is_boundary_member(self, affine_omega):
        # at the fixed point both bounds evaluate to 2
        assert omega_bounds(affine_omega, [2.0]) == (2.0, 2.0)
        assert omega_contains(affine_omega, AugmentedPoint([2.0], 2.0), STRICT)

    def test_start_point_needs_t_four(self, affine_omega):
        assert omega_bounds(affine_omega, [0.0]) == (0.0, 4.0)
        assert omega_contains(affine_omega, AugmentedPoint([0.0], 4.0), STRICT)
        assert not omega_contains(affine_omega, AugmentedPoint([0.0], 3.99), STRICT)

    def test_zero_t_excluded_when_d_positive(self, affine_omega):
        assert not omega_contains(affine_omega, AugmentedPoint([0.0], 0.0))

    def test_d_recorded_from_problem(self, affine_omega):
        assert affine_omega.d == 1.0
        assert affine_omega.t_star == 2.0

    def test_dimension_mismatch(self, affine_omega):
        from cone_fixpoint import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            omega_bounds(affine_omega, [0.0, 1.0])


class TestCanonicalWitness:
    def test_affine(self, affine_omega):
        w = canonical_omega_witness(affine_omega)
        assert w == AugmentedPoint([0.0], 4.0)
        assert omega_contains(affine_omega, w, STRICT)

    def test_degenerate_d_zero(self):
        om = OmegaSpec.for_problem(AFFINE, [2.0])
        assert canonical_omega_witness(om) == AugmentedPoint([2.0], 0.0)
        assert omega_contains(om, canonical_omega_witness(om), STRICT)

    def test_rotation(self):
        p = builtin("ROTATION_2D")
        om = OmegaSpec.for_problem(p.spec, p.x0)
        w = canonical_omega_witness(om)
        assert w == AugmentedPoint([0.0, 0.0], 4.0)

    def test_overflowing_t_refused(self):
        # t* = 1.2e308 is finite, but 2 d / (1 - lambda) overflows
        om = OmegaSpec.for_problem(Affine(a=[[0.5]], b=[6e307], lam=0.5), [0.0])
        assert om.t_star == 1.2e308
        with pytest.raises(InvalidInputError, match=r"^canonical witness t = 2 d / \(1 - lambda\) "
                                                    r"overflows at d = 6\.000000e\+307, lambda = 0\.5$"):
            canonical_omega_witness(om)


class TestSampleOmega:
    def test_every_sample_is_member(self, affine_omega):
        # verify_certificate does not re-check its default witnesses, so
        # every one of them, the canonical one included, must be a member
        # with no slack at all
        oms = [affine_omega] + [OmegaSpec.for_problem(p.spec, p.x0) for p in builtin_catalog()]
        for scale in (1.0, 1e150, 1e-150):
            oms += [OmegaSpec.for_problem(*_affine(m, seed=800 + m, scale=scale)) for m in WIDTHS]
        assert any(om.d == 0.0 for om in oms)  # FIXED_START
        for om in oms:
            ws = tuple(certificate.default_witnesses(om, 64, seed=11))
            for w in ws:
                assert omega_contains(om, w, STRICT)
            certificate._refuse_non_members(om, ws, STRICT)

    def test_members_even_when_d_zero(self):
        om = OmegaSpec.for_problem(AFFINE, [2.0])
        for w in sample_omega(om, 32, seed=3):
            assert omega_contains(om, w)
            assert w.t >= max(omega_bounds(om, w.x)) - 1e-12

    def test_deterministic_given_seed(self, affine_omega):
        a = sample_omega(affine_omega, 8, seed=42)
        b = sample_omega(affine_omega, 8, seed=42)
        assert all(p == q for p, q in zip(a, b))
        c = sample_omega(affine_omega, 8, seed=43)
        assert any(p != q for p, q in zip(a, c))

    def test_floor_at_fixed_point_is_t_star(self, affine_omega):
        # offset zero at x = x* lands exactly on the limit point
        assert omega_t_floor(affine_omega, [2.0]) == affine_omega.t_star
        p = builtin("ROTATION_2D")
        om = OmegaSpec.for_problem(p.spec, p.x0)
        assert omega_t_floor(om, p.reference) == pytest.approx(om.t_star, abs=1e-12)

    def test_count_validated(self, affine_omega):
        with pytest.raises(InvalidInputError):
            sample_omega(affine_omega, 0, seed=1)

    def test_non_integer_count_refused(self, affine_omega):
        with pytest.raises(InvalidInputError, match=r"^count must be an integer, got 2\.5$"):
            sample_omega(affine_omega, 2.5, 0)

    def test_non_integer_seed_refused(self, affine_omega):
        with pytest.raises(InvalidInputError, match=r"^seed must be an integer, got 1\.5$"):
            sample_omega(affine_omega, 3, 1.5)

    def test_samples_are_read_only(self, affine_omega):
        for w in sample_omega(affine_omega, 4, seed=2):
            with pytest.raises(ValueError):
                w.x[0] = 0.0

    def test_overflowing_radius_refused(self):
        # t* = 2e307 is finite, but the sampling radius 10 t* overflows
        om = OmegaSpec.for_problem(Affine(a=[[0.5]], b=[1e307], lam=0.5), [0.0])
        assert om.t_star == 2e307
        with pytest.raises(InvalidInputError, match="^sampling radius 10 max"):
            sample_omega(om, 4, seed=0)

    @pytest.mark.parametrize("m", [1, 3])
    def test_draws_keep_the_bits_of_uniform(self, m):
        # sample_omega draws radius * rng.random() where the reference
        # sampler calls rng.uniform(0.0, radius): the same bits at any
        # radius, from 10 (t* below 1) to 1e301
        for c in (1e-300, 0.3, 7.0, 1e17, 1e150, 5e299):
            om = OmegaSpec.for_problem(Constant(c=np.full(m, c), lam=0.5), np.zeros(m))
            for seed in (0, 1, 17, 2**40):
                assert _bits(tuple(sample_omega(om, 16, seed))) == _bits(
                    tuple(_reference_sample_omega(om, 16, seed))), (c, seed)

    def test_overflowing_floor_refused(self):
        # t* = 1e300 is finite, but the floor of a sample far out overflows
        om = OmegaSpec.for_problem(Affine(a=[[-(1 - 1e-9)]], b=[1e291], lam=1 - 1e-9), [0.0])
        for sample in (sample_omega, _reference_sample_omega):
            with pytest.raises(InvalidInputError, match="t must be finite"):
                sample(om, 4, seed=0)


class TestVerifyCertificate:
    def test_honest_trace_passes_with_canonical_witness(self, affine_trace):
        cert = verify_certificate(affine_trace, [AugmentedPoint([0.0], 4.0)])
        assert cert.passed and cert.first_failure is None
        # frozen arithmetic from the closed-form trace
        resid = cert.witness_residuals[0]
        assert resid[0] == 4.0 - 0.0 - 0.0
        assert resid[3] == (4.0 - 1.75) - abs(0.0 - 1.75)

    def test_fixed_point_witness_is_tight(self, affine_trace):
        cert = verify_certificate(affine_trace, [AugmentedPoint([2.0], 2.0)])
        assert cert.passed
        # the raw lower-bound residual sits exactly at -stop_bound
        assert cert.stop_bound == 0.25
        assert cert.lower_bound_residuals[0] + cert.stop_bound == 0.0

    def test_default_witness_set(self, affine_trace):
        cert = verify_certificate(affine_trace)
        assert cert.passed
        assert len(cert.witnesses) == 33
        assert cert.witnesses[0] == AugmentedPoint([0.0], 4.0)

    def test_limit_point_uses_closed_form_t(self, affine_trace):
        cert = verify_certificate(affine_trace)
        assert cert.limit_point.t == 2.0
        assert cert.limit_point.x[0] == affine_trace.final.x[0]

    def test_monotone_tamper_detected_at_step_one(self, affine_trace):
        ts = affine_trace.ts.copy()
        ts[2] -= 0.5
        tampered = _rebuild(affine_trace, ts=ts)
        cert = verify_certificate(tampered, [AugmentedPoint([0.0], 4.0)])
        assert not cert.passed
        assert "monotone" in cert.first_failure and "step 1" in cert.first_failure

    def test_invalid_witness_identified(self, affine_trace):
        good = AugmentedPoint([0.0], 4.0)
        bad = AugmentedPoint([0.0], 1.0)
        with pytest.raises(InvalidWitnessError) as excinfo:
            verify_certificate(affine_trace, [good, bad])
        assert excinfo.value.index == 1

    def test_exact_fixed_point_trace(self):
        trace = run(AFFINE, [2.0], APriori(1e-8))
        cert = verify_certificate(trace)
        assert cert.passed
        assert cert.n_steps == 0 and cert.stop_bound == 0.0

    def test_upward_t_tamper_detected(self, affine_trace):
        # raising a t value breaks no order inequality on a short trace;
        # only the recurrence echo can catch it
        ts = affine_trace.ts.copy()
        ts[3] += 1e-6
        cert = verify_certificate(_rebuild(affine_trace, ts=ts))
        assert not cert.passed
        assert "consistency" in cert.first_failure

    def test_orthogonal_x_tamper_detected(self):
        # a 2-D perturbation at right angles to both adjacent steps changes
        # step norms only at second order; the map echo still catches it
        p = builtin("ROTATION_2D")
        trace = run(p.spec, p.x0, FixedCount(12))
        n = 6
        u = trace.xs[n + 1] - trace.xs[n]
        u = u / np.linalg.norm(u)
        v = trace.xs[n] - trace.xs[n - 1]
        v = v / np.linalg.norm(v)
        delta = u - (u @ v) * v  # orthogonal to v; rotation makes it also ~orthogonal to u
        xs = trace.xs.copy()
        xs[n] = xs[n] + 1e-7 * delta / np.linalg.norm(delta)
        cert = verify_certificate(_rebuild(trace, xs=xs))
        assert not cert.passed

    def test_start_point_tamper_detected(self, affine_trace):
        xs = affine_trace.xs.copy()
        xs[0, 0] += 1e-6
        cert = verify_certificate(_rebuild(affine_trace, xs=xs))
        assert not cert.passed
        assert "consistency" in cert.first_failure and "point 0" in cert.first_failure

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array", ["xs", "ts"])
    def test_poisoned_trace_never_passes(self, array, value):
        # a non-finite value written into a trace after construction (which
        # would have refused it) is refused by the verifier the same way,
        # wherever it is
        for k in range(5):
            trace = run(AFFINE, [0.0], FixedCount(4))
            target = getattr(trace, array)
            target.setflags(write=True)
            target[(k, 0) if array == "xs" else k] = value
            with pytest.raises(InvalidInputError, match=f"trace row {k} has a non-finite value"):
                verify_certificate(trace, [AugmentedPoint([0.0], 4.0)])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_overflowing_echo_fails_in_every_row(self, row):
        # x^0 - x0, or x^n - f(x^{n-1}), overflows: the echo is NaN and the
        # trace fails, in the first and the last row as in the others.  In
        # the last row x* - w.x and f(x*) - x* overflow too, so the limit
        # check and the fixed-point residual fail on a NaN as well
        xs = np.full((3, 1), -1.5e308)
        xs[row] = 1.5e308
        trace = IterationTrace(spec=Constant([-1.5e308], 0.5), x0=[-1.5e308], d=0.0, xs=xs,
                               ts=np.zeros(3), stop_reason=None)
        cert = _assert_same_certificate(trace, [AugmentedPoint([-1.5e308], 1.0)])
        assert not cert.passed and np.isnan(cert.consistency_x[row])
        if row == 2:
            assert np.isnan(cert.lower_bound_residuals).all()
            assert np.isnan(cert.fixed_point_residual)

    def test_strict_policy_on_clean_integers(self):
        # constant map yields an exactly-representable trace
        spec = Constant(c=[3.0, 4.0], lam=0.5)
        trace = run(spec, [0.0, 0.0], FixedCount(4))
        cert = verify_certificate(
            trace, [AugmentedPoint([0.0, 0.0], 20.0)], STRICT
        )
        assert cert.passed


class TestTheorySoundness:
    @pytest.mark.parametrize(
        "name", ["AFFINE_1D", "CONSTANT", "ROTATION_2D", "KEPLER", "FIXED_START", "NEAR_ONE"]
    )
    def test_every_builtin_certifies(self, name):
        p = builtin(name)
        trace = run(p.spec, p.x0, APriori(1e-8))
        cert = verify_certificate(trace, seed=123)
        assert cert.passed, cert.first_failure

    def test_limit_point_in_omega_for_every_builtin(self):
        from cone_fixpoint import builtin_catalog

        for p in builtin_catalog():
            om = OmegaSpec.for_problem(p.spec, p.x0)
            w = AugmentedPoint(p.reference, om.t_star)
            assert omega_contains(om, w), p.name

    def test_certificate_deterministic(self):
        p = builtin("KEPLER")
        trace = run(p.spec, p.x0, APriori(1e-8))
        a = verify_certificate(trace, seed=5)
        b = verify_certificate(trace, seed=5)
        assert a.passed == b.passed
        assert np.array_equal(a.monotone_residuals, b.monotone_residuals)
        assert all(p == q for p, q in zip(a.witnesses, b.witnesses))


# The edge Kepler maps of the engine's scalar grids: a huge first point,
# iterates near M = -1e5, e = -lambda, a subnormal e and signed zeros.
EDGE_KEPLER = ["kepler-huge-x0", "kepler-large-mean-anomaly", "kepler-e-at-minus-lambda",
               "kepler-subnormal-e", "kepler-signed-zeros"]


def _assert_echoes_within_the_allowance(spec, x0, rule):
    trace = run(spec, x0, rule)
    cert = verify_certificate(trace)
    assert cert.passed, cert.first_failure
    assert cert.consistency_x[0] == 0.0
    assert np.all(cert.consistency_x[1:] <= certificate._x_echo_allowance(spec, trace.xs[:-1]))


class TestConsistencyAllowance:
    @pytest.mark.parametrize("rule", [APriori(1e-8), APosteriori(1e-10)],
                             ids=lambda r: type(r).__name__)
    @pytest.mark.parametrize("name", [p.name for p in builtin_catalog()])
    def test_builtins_keep_within_it(self, name, rule):
        p = builtin(name)
        _assert_echoes_within_the_allowance(p.spec, p.x0, rule)

    @pytest.mark.parametrize("m", [1, 2, 8, 50, 300])
    def test_affine_maps_keep_within_it(self, m):
        for seed in range(2 if m == 300 else 8):
            spec, x0 = _affine(m, seed=700 + seed, lam=0.96)
            _assert_echoes_within_the_allowance(spec, x0, APosteriori(1e-10))

    @pytest.mark.parametrize("rule", [APriori(1e-12), APosteriori(1e-12), FixedCount(400)],
                             ids=lambda r: type(r).__name__)
    def test_honest_affine_traces_echo_zero_up_to_m_2(self, rule):
        # at m <= 2 the verifier's batch map takes the step's operations on
        # numpy columns: every x echo of an honest trace is 0, whatever the
        # BLAS kernel
        problems = [(p.spec, p.x0) for p in builtin_catalog()
                    if p.spec.dimension <= 2 and not isinstance(p.spec, KeplerScalar)]
        problems += [_affine(m, seed=750 + seed, lam=0.99) for m in (1, 2) for seed in range(6)]
        problems += [(ScaledRotation(theta=theta, scale=scale, b=[0.3, -2.0], lam=0.995), [5.0, -7.5])
                     for theta in (1.234, -2.0) for scale in (0.99, -0.37)]
        for spec, x0 in problems:
            cert = verify_certificate(run(spec, x0, rule))
            assert cert.passed, cert.first_failure
            assert not cert.consistency_x.any(), spec

    @pytest.mark.parametrize("name", EDGE_KEPLER)
    def test_edge_kepler_maps_keep_within_it(self, name):
        spec, x0 = SCALAR_PROBLEMS[name]
        for rule in (APosteriori(1e-10), FixedCount(200)):
            _assert_echoes_within_the_allowance(spec, x0, rule)

    @pytest.mark.parametrize("m", [2, 50])
    def test_drift_of_three_rounding_bounds_fails_at_its_row(self, m):
        # x^k moves by 3 rho(x^{k-1}) along its own rounding error, so its
        # echo exceeds the 2 rho an honest row may take; the flat margin
        # 1e-12 max(1, ||x||) would have let it pass
        spec, x0 = _affine(m, seed=800 + m, lam=0.96)
        trace = run(spec, x0, FixedCount(30))
        assert verify_certificate(trace).passed
        for k in (1, 9, 30):
            xs = trace.xs.copy()
            error = xs[k] - evaluate_batch(spec, xs[k - 1 : k])[0]
            direction = error if error.any() else np.ones(m)
            rho = spec._rounding_bound(xs[k - 1 : k])[0]
            xs[k] += 3.0 * rho * direction / norm(direction)
            cert = verify_certificate(_rebuild(trace, xs=xs))
            assert cert.first_failure.startswith(f"trace consistency failed at point {k} "), k

    @pytest.mark.parametrize("m", [1, 2, 50])
    def test_last_row_within_twice_the_rounding_bound_passes(self, m):
        # the engine and the verifier may each err by rho: a last row 1.5 rho
        # from the verifier's recomputation is still consistent
        spec, x0 = _affine(m, seed=800 + m, lam=0.96)
        trace = run(spec, x0, FixedCount(30))
        xs = trace.xs.copy()
        rho = spec._rounding_bound(xs[-2:-1])[0]
        xs[-1] = evaluate_batch(spec, xs[-2:-1])[0] + 1.5 * rho * np.ones(m) / math.sqrt(m)
        cert = verify_certificate(_rebuild(trace, xs=xs))
        assert cert.passed, cert.first_failure
        assert cert.consistency_x[-1] > rho

    @pytest.mark.parametrize("m", [1, 2])
    def test_overflowing_bound_is_infinite(self, m):
        # near x* = 1.7e308 / 1.9 the bound's ||A||_F ||x|| + ||b|| overflows,
        # though every iterate and difference is finite: rho is inf, not
        # NaN, and the honest trace passes
        spec = Affine(a=-0.9 * np.eye(m), b=np.full(m, 1.7e308), lam=0.95)
        trace = run(spec, spec.reference_fixed_point() * (1.0 + 1e-12), FixedCount(20))
        with np.errstate(over="ignore"):
            assert np.isposinf(spec._rounding_bound(trace.xs)).all()
        _assert_echoes_within_the_allowance(spec, trace.x0, FixedCount(20))

    def test_start_row_is_allowed_nothing(self, affine_trace):
        xs = affine_trace.xs.copy()
        xs[0, 0] = 5e-324
        cert = verify_certificate(_rebuild(affine_trace, xs=xs))
        assert cert.first_failure.startswith("trace consistency failed at point 0 ")


def _rebuild(trace, xs=None, ts=None):
    from cone_fixpoint import IterationTrace

    return IterationTrace(
        spec=trace.spec,
        x0=trace.x0,
        d=trace.d,
        xs=trace.xs if xs is None else xs,
        ts=trace.ts if ts is None else ts,
        stop_reason=trace.stop_reason,
        warnings=trace.warnings,
    )


# --- bit identity with the per-witness verifier --------------------------------

def _left_to_right_norm(x):
    """The norm of the list of floats ``x``, max-abs scaled, with its
    squares summed left to right in Python floats (not sum(), which
    compensates from Python 3.12 on)."""
    scale = max(abs(v) for v in x)
    if scale == 0.0:
        return 0.0
    acc = 0.0
    for v in x:
        y = v / scale
        acc += y * y
    return scale * math.sqrt(acc)


def _reference_row_norms(xs):
    """The row form every width used before narrow rows went column-wise."""
    xs = np.asarray(xs, dtype=float)
    scale = np.max(np.abs(xs), axis=1)
    safe = np.where(scale == 0.0, 1.0, scale)
    return scale * np.sqrt(np.sum((xs / safe[:, None]) ** 2, axis=1))


def _reference_sample_omega(om, count, seed):
    """Sampling with the membership floor taken point by point."""
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


def _reference_verify(trace, witnesses=None, tol=None, *, omega_sample_count=32, seed=0):
    """The verifier as it was written per witness: a Python loop over the
    witnesses for membership, the bounded check and the limit check.  Kept
    as the oracle that pins the whole-array verifier to the same bits."""
    if tol is None:
        tol = TolerancePolicy.default()
    om = OmegaSpec.from_trace(trace)
    spec, x0, d, lam = om.spec, om.x0, om.d, om.spec.lam

    if witnesses is None:
        witnesses = [canonical_omega_witness(om)] + _reference_sample_omega(
            om, omega_sample_count, seed
        )
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

    failures = []
    dts = np.diff(ts)
    step_norms = _reference_row_norms(np.diff(xs, axis=0)) if n_steps else np.zeros(0)
    monotone_residuals = dts - step_norms
    mono_margin = tol.atol + tol.rtol * np.maximum(1.0, np.abs(dts))
    bad = np.nonzero(~(monotone_residuals >= -mono_margin))[0]
    if bad.size:
        n = int(bad[0])
        failures.append(
            (0, f"monotone check failed at step {n} (residual {monotone_residuals[n]:.6e})")
        )

    witness_residuals = []
    for i, w in enumerate(witnesses):
        gaps = w.t - ts
        resid = gaps - _reference_row_norms(w.x - xs)
        witness_residuals.append(resid)
        margin = tol.atol + tol.rtol * np.maximum(1.0, np.abs(gaps))
        bad = np.nonzero(~(resid >= -margin))[0]
        if bad.size:
            n = int(bad[0])
            failures.append(
                (1, f"bounded check failed for witness {i} at step {n} "
                    f"(residual {resid[n]:.6e})")
            )

    lower = np.array(
        [(w.t - t_star) - _reference_row_norms([w.x - x_star])[0] for w in witnesses]
    ) if witnesses else np.zeros(0)
    for i, w in enumerate(witnesses):
        if not (lower[i] >= -(stop_bound + tol.margin(w.t - t_star))):
            failures.append(
                (2, f"limit check failed for witness {i} (residual {lower[i]:.6e})")
            )
            break
    fp_residual = float(_reference_row_norms([evaluate(spec, x_star) - x_star])[0])
    fp_tolerance = lam**n_steps * d + tol.margin(norm(x_star))
    if not (fp_residual <= fp_tolerance):
        failures.append(
            (2, f"fixed-point residual {fp_residual:.6e} exceeds {fp_tolerance:.6e}")
        )

    consistency_x = np.zeros(n_points)
    consistency_t = np.zeros(n_points)
    consistency_x[0] = _reference_row_norms([xs[0] - x0])[0]
    consistency_t[0] = abs(ts[0])
    if n_steps:
        consistency_x[1:] = _reference_row_norms(xs[1:] - evaluate_batch(spec, xs[:-1]))
        consistency_t[1:] = np.abs(ts[1:] - (lam * ts[:-1] + d))
    # row 0 is allowed nothing, row n + 1 twice the rounding bound at x^n
    m = spec.dimension
    x_margin = np.zeros(n_points)
    x_margin[1:] = (2.0 * spec._rounding_bound(xs[:-1]) * (1.0 + (m + 8) * 2.0**-53)
                    + 2 * (m + 1) * 2.0**-1022)
    t_margin = tol.atol + tol.rtol * np.maximum(1.0, np.abs(ts))
    bad = np.nonzero(~((consistency_x <= x_margin) & (consistency_t <= t_margin)))[0]
    if bad.size:
        n = int(bad[0])
        failures.append(
            (3, f"trace consistency failed at point {n} "
                f"(x echo {consistency_x[n]:.6e}, t echo {consistency_t[n]:.6e})")
        )

    failures.sort(key=lambda f: f[0])
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
        first_failure=failures[0][1] if failures else None,
    )


def _bits(value):
    """Exact byte form of a certificate field."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, AugmentedPoint):
        return ("point", _bits(value.x), _bits(value.t))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return ("float", np.float64(value).tobytes())
    return (type(value).__name__, value)


def _assert_same_certificate(trace, witnesses=None, **kwargs):
    got = verify_certificate(trace, witnesses, **kwargs)
    want = _reference_verify(trace, witnesses, **kwargs)
    for field in dataclasses.fields(ConvergenceCertificate):
        assert _bits(getattr(got, field.name)) == _bits(getattr(want, field.name)), field.name
    return got


def _affine(m, seed, lam=0.9, scale=1.0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, m))
    a = raw * (lam / float(np.linalg.svd(raw, compute_uv=False)[0]))
    return Affine(a=a, b=scale * rng.standard_normal(m), lam=lam), scale * rng.standard_normal(m)


WIDTHS = [1, 2, 3, 7, 8, 9, 50]


class TestSameBitsAsPerWitnessVerifier:
    @pytest.mark.parametrize("seed", [0, 5, 123])
    @pytest.mark.parametrize("rule", [APriori(1e-8), APosteriori(1e-8), FixedCount(40)],
                             ids=lambda r: type(r).__name__)
    @pytest.mark.parametrize("name", [p.name for p in builtin_catalog()])
    def test_builtins(self, name, rule, seed):
        p = builtin(name)
        _assert_same_certificate(run(p.spec, p.x0, rule), seed=seed)

    def test_acceptance_suite_affine_maps(self):
        for i, (_, spec, x0) in enumerate(random_affine_instances()):
            trace = run(spec, x0, APriori(1e-10))
            om = OmegaSpec.for_problem(spec, x0)
            witnesses = sample_omega(om, 32, seed=1000 + i)
            assert _bits(tuple(witnesses)) == _bits(
                tuple(_reference_sample_omega(om, 32, seed=1000 + i))
            )
            _assert_same_certificate(trace, witnesses)

    @pytest.mark.parametrize("m", WIDTHS)
    def test_widths_across_the_column_row_boundary(self, m):
        spec, x0 = _affine(m, seed=m)
        for rule in (APriori(1e-10), APosteriori(1e-10), FixedCount(3)):
            for seed in (0, 7):
                assert _assert_same_certificate(run(spec, x0, rule), seed=seed).passed

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    @pytest.mark.parametrize("m", WIDTHS)
    def test_extreme_scales(self, m, scale):
        spec, x0 = _affine(m, seed=100 + m, scale=scale)
        _assert_same_certificate(run(spec, x0, FixedCount(30)), seed=3)

    @pytest.mark.parametrize("m", WIDTHS)
    def test_trace_row_equal_to_witness(self, m):
        # a witness at a trace point gives a zero difference row
        spec, x0 = _affine(m, seed=200 + m)
        trace = run(spec, x0, FixedCount(25))
        om = OmegaSpec.for_problem(spec, x0)
        at_point = AugmentedPoint(trace.xs[7], omega_t_floor(om, trace.xs[7]) + 1.0)
        witnesses = [canonical_omega_witness(om), at_point] + sample_omega(om, 4, seed=1)
        cert = _assert_same_certificate(trace, witnesses)
        assert cert.witness_residuals[1][7] == at_point.t - trace.ts[7]

    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_tampered_traces_fail_with_the_same_message(self, m):
        spec, x0 = _affine(m, seed=300 + m)
        trace = run(spec, x0, FixedCount(40))
        xs_shift = trace.xs.copy()
        xs_shift[12] += 1e-6
        xs_far = trace.xs.copy()
        xs_far[-1] += 1e3
        tampered = [
            _rebuild(trace, ts=np.where(np.arange(41) == 2, trace.ts - 0.5, trace.ts)),
            _rebuild(trace, ts=np.where(np.arange(41) >= 20, trace.ts + 1e3, trace.ts)),
            _rebuild(trace, ts=trace.ts + 1e-6),
            _rebuild(trace, xs=xs_shift),
            _rebuild(trace, xs=xs_far),
        ]
        messages = set()
        for bad in tampered:
            cert = _assert_same_certificate(bad, seed=11)
            assert not cert.passed
            messages.add(cert.first_failure.split(" failed")[0])
        assert {"monotone check", "bounded check", "trace consistency"} <= messages

    @pytest.mark.parametrize("index", [0, 1, 16, 31])
    @pytest.mark.parametrize("m", [1, 2, 9])
    def test_non_member_witness_index(self, m, index):
        spec, x0 = _affine(m, seed=400 + m)
        trace = run(spec, x0, FixedCount(20))
        om = OmegaSpec.for_problem(spec, x0)
        witnesses = [canonical_omega_witness(om)] + sample_omega(om, 32, seed=2)
        for k in (index, index + 1):  # the first of two non-members is named
            w = witnesses[k]
            witnesses[k] = AugmentedPoint(w.x, omega_t_floor(om, w.x) - 1e-3)
        witnesses[-1] = AugmentedPoint(np.zeros(m + 1), 1.0)  # later dimension mismatch
        with pytest.raises(InvalidWitnessError) as got:
            verify_certificate(trace, witnesses)
        with pytest.raises(InvalidWitnessError) as want:
            _reference_verify(trace, witnesses)
        assert got.value.index == want.value.index == index
        assert str(got.value) == str(want.value)

    def test_overflowing_witness_raises_what_the_loop_raises(self):
        # far.x - x0 overflows, so the loop's norm raises at far, unless a
        # non-member comes before it
        trace = run(AFFINE, [-5e307], FixedCount(3))
        good = AugmentedPoint([-5e307], 1e308)
        far = AugmentedPoint([1.5e308], 1e308)
        low = AugmentedPoint([-5e307], 0.0)
        for check in (verify_certificate, _reference_verify):
            with pytest.raises(InvalidInputError, match="non-finite vector"):
                check(trace, [good, far, low])
            with pytest.raises(InvalidWitnessError) as excinfo:
                check(trace, [good, low, far])
            assert excinfo.value.index == 1

    def test_dimension_mismatch_before_any_non_member(self):
        trace = run(AFFINE, [0.0], FixedCount(5))
        witnesses = [AugmentedPoint([0.0], 4.0), AugmentedPoint([0.0, 0.0], 9.0),
                     AugmentedPoint([0.0], 1.0)]
        with pytest.raises(DimensionMismatchError, match="witness 1 has dimension 2"):
            verify_certificate(trace, witnesses)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 64])
    def test_row_kernels(self, m):
        """The one summation order of every norm: left to right below
        PAIRWISE_SUM_MIN_COLUMNS columns, np.sum's pairwise order from there
        on, the same bits for a row alone (norm) and inside any block."""
        rng = np.random.default_rng(m)
        for scale in (1.0, 1e150, 1e-150):
            xs = scale * rng.standard_normal((500, m)) * np.exp(rng.uniform(-30, 30, (500, m)))
            xs[3] = 0.0
            xs[4, 0] = -xs[4, 0]
            if m < PAIRWISE_SUM_MIN_COLUMNS:
                expected = np.array([_left_to_right_norm(x) for x in xs.tolist()])
            else:
                expected = _reference_row_norms(xs)
            assert row_norms(xs).tobytes() == expected.tobytes()
            blocks = xs.reshape(5, 100, m)
            assert row_norms(blocks).tobytes() == expected.tobytes()
            assert np.array([norm(x) for x in xs]).tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("m", [1, 2, 9])
    def test_row_kernels_on_non_finite_rows(self, m):
        xs = np.ones((6, m))
        xs[1, 0], xs[2, -1], xs[3, 0], xs[4, -1] = np.inf, np.nan, -np.inf, -np.nan
        got = row_norms(xs)
        assert got.tobytes() == _reference_row_norms(xs).tobytes()
        assert np.isnan(got[1:5]).all() and got[0] == got[5] == norm(xs[0])
        for x in xs[1:5]:
            # norm refuses the row before dividing inf by inf
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidInputError, match=f"^{NON_FINITE_NORM}$"):
                    norm(x)


# --- the bounded check's row-block filter -------------------------------------

class TestSampledWitnessBoundsReused:
    """When verify_certificate samples its own witnesses it applies the map
    once per sampled point, to build it, and does not re-check them;
    supplied witnesses are checked in full, one omega_bounds call each,
    which takes one row of _omega_bounds_rows."""

    def _counted(self, monkeypatch, name):
        """The shapes of the points passed to ``certificate.<name>``, one
        entry per call."""
        calls = []
        original = getattr(certificate, name)

        def counted(om, x):
            calls.append(np.shape(x))
            return original(om, x)

        monkeypatch.setattr(certificate, name, counted)
        return calls

    @pytest.mark.parametrize("m", [1, 2, 9, 50])
    def test_map_applied_once_more_only_at_the_canonical_witness(self, m, monkeypatch):
        spec, x0 = _affine(m, seed=600 + m)
        trace = run(spec, x0, APosteriori(1e-8))
        rows = self._counted(monkeypatch, "_omega_bounds_rows")
        points = self._counted(monkeypatch, "omega_bounds")
        own = verify_certificate(trace, omega_sample_count=16, seed=4)
        assert (rows, points) == ([(16, m)], [])
        om = OmegaSpec.for_problem(spec, x0)
        witnesses = certificate.default_witnesses(om, 16, seed=4)
        del rows[:]
        supplied = verify_certificate(trace, witnesses)
        assert (rows, points) == ([(1, m)] * 17, [(m,)] * 17)
        for field in dataclasses.fields(ConvergenceCertificate):
            assert _bits(getattr(own, field.name)) == _bits(getattr(supplied, field.name)), field.name

    def test_sampling_errors_come_first(self):
        spec = Affine(a=[[-(1 - 1e-9)]], b=[1e291], lam=1 - 1e-9)
        trace = run(spec, [0.0], FixedCount(3))
        for check in (verify_certificate, _reference_verify):
            with pytest.raises(InvalidInputError, match="t must be finite"):
                check(trace, omega_sample_count=4)


def _full_matrix_bounded_check(wx, wt, xs, ts, tol):
    """The bounded check from the whole residual matrix, in the per-witness
    loop's order: the first failing (witness, step), and the summary of one
    pass over the entries in (witness, step) order, which keeps the first
    NaN, else the first entry below all before it."""
    rows = [(w_t - ts) - _reference_row_norms(w_x - xs) for w_x, w_t in zip(wx, wt)]
    failure = None
    for i, resid in enumerate(rows):
        gaps = wt[i] - ts
        bad = np.nonzero(~(resid >= -tol.margin(gaps)))[0]
        if bad.size:
            n = int(bad[0])
            failure = f"bounded check failed for witness {i} at step {n} (residual {resid[n]:.6e})"
            break
    if not rows:
        return failure, (0, None, None, None)
    at = None
    for i, row in enumerate(rows):
        for n, r in enumerate(row.tolist()):
            if math.isnan(r):
                return failure, (len(rows) * ts.size, float(row[n]), i, n)
            if at is None or r < low:
                at, low = (i, n), r
    return failure, (len(rows) * ts.size, float(rows[at[0]][at[1]]), *at)


@np.errstate(over="ignore", invalid="ignore")
def _step_norms(xs):
    """The step norms the verifier passes to the bounded check."""
    return row_norms(np.diff(xs, axis=0))


def _assert_filter_matches_full_matrix(wx, wt, xs, ts, tol):
    got = certificate._bounded_check(wx, wt, xs, ts, _step_norms(xs), tol)[:2]
    want = _full_matrix_bounded_check(wx, wt, xs, ts, tol)
    assert got[0] == want[0]
    assert _bits(tuple(got[1])) == _bits(want[1])
    return got


def _near_boundary_pairs(rng, m, n_points, n_witnesses, offset, ulps, scale=1.0, walk=False):
    """Points x^n and witnesses, around a common offset, each witness's w.t
    within a few ulp of the largest t^n + ||w.x - x^n||, so that its row's
    lowest residual is near 0 and the others are above it.  The points are
    independent draws, or with ``walk`` a converging walk whose t^n is its
    path length, as in a trace."""
    if walk:
        steps = rng.standard_normal((n_points, m)) * (0.99 ** np.arange(n_points))[:, None]
        steps[0] = 0.0
        xs = scale * (offset + np.cumsum(steps, axis=0))
        ts = scale * np.cumsum(row_norms(steps))
    else:
        xs = scale * (offset + rng.standard_normal((n_points, m)))
        ts = scale * np.abs(rng.standard_normal(n_points))
    wx = scale * (offset + rng.standard_normal((n_witnesses, m)))
    wt = np.max(ts + row_norms(wx[:, None, :] - xs), axis=1)
    for _ in range(abs(ulps)):
        wt = np.nextafter(wt, np.inf if ulps > 0 else -np.inf)
    if n_witnesses > 1:
        wx[-1], wt[-1] = wx[0], wt[0]  # a duplicate witness
    return wx, wt, xs, ts


def _anchor_rows(n_points):
    """The rows that anchor the row-block filter's blocks: each block's last."""
    return np.unique(np.minimum(np.arange(ROW_BLOCK - 1, n_points + ROW_BLOCK - 1, ROW_BLOCK),
                                n_points - 1))


def _assert_skipped_pairs_above_anchor_minimum(wx, wt, xs, ts):
    """Every pair the row-block filter skips has, in exact arithmetic, a
    residual of the whole matrix above max(H, 0), H the lowest residual at
    the anchors; with a NaN there, no pair is skipped."""
    n_points = ts.size
    pairs = certificate._pairs_in_undecided_blocks(wx, wt, xs, ts, _step_norms(xs))
    assert np.all(np.diff(pairs) > 0)
    full = np.array([(w_t - ts) - _reference_row_norms(w_x - xs) for w_x, w_t in zip(wx, wt)])
    full = full.reshape(wt.size, n_points)
    at_anchors = full[:, _anchor_rows(n_points)]
    skipped = np.ones(full.size, dtype=bool)
    skipped[pairs] = False
    if np.isnan(at_anchors).any():
        assert not skipped.any()
        return skipped
    if skipped.any():
        floor = Fraction(max(float(np.min(at_anchors)), 0.0))
        for r in full.ravel()[skipped].tolist():
            assert r == np.inf or Fraction(r) > floor
    return skipped


# (m, N + 1, a, b): at these ties np.min's sign under numpy's AVX-512 or
# AVX2 loops, or both, is not its sign under the baseline loops.
TIE_CASES = ((1, 9, 0, 6), (2, 9, 6, 0), (8, 17, 0, 14), (7, 17, 16, 0))

# The certificates of a +-0 tie for each of TIE_CASES, in one JSON document:
# witness 1's row meets its minimum 0 as -0.0 at row a and as +0.0 at row b.
# x0 = x^a is the map's fixed point, so d = 0 and (x^a, -0.0) is a member of
# the bounding set.
TIE_CERTIFICATES = f"""
import sys
import numpy as np
from cone_fixpoint import AugmentedPoint, Constant, IterationTrace, verify_certificate
from cone_fixpoint.traceio import certificate_doc, dump_certificate

docs = []
for m, n_points, a, b in {TIE_CASES!r}:
    rng = np.random.default_rng(n_points)
    xs = rng.standard_normal((n_points, m))
    ts = np.full(n_points, -1e3)
    xs[b] = xs[a]
    ts[a], ts[b] = 0.0, -0.0
    trace = IterationTrace(spec=Constant(xs[a], 0.5), x0=xs[a], d=0.0, xs=xs, ts=ts,
                           stop_reason=None)
    witnesses = [AugmentedPoint(xs[a] + 1.0, 1e4), AugmentedPoint(xs[a], -0.0)]
    docs.append(certificate_doc(verify_certificate(trace, witnesses), {{}}, 0, full=True))
sys.stdout.write(dump_certificate({{"ties": docs}}))
"""


class TestBoundedFilter:
    """The bounded check computes exact residuals only at the pairs of the
    blocks of ROW_BLOCK rows a filter cannot decide or that may hold the
    minimum, on every trace.  Its verdict, message and summary must be those
    of the whole matrix."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(
        m=st.sampled_from([1, 2, 7, 8, 9, 16, 33]),
        n_points=st.integers(1, 40),
        n_witnesses=st.integers(1, 6),
        offset=st.sampled_from([0.0, 1e3, 1e6, -1e8]),
        ulps=st.integers(-4, 4),
        # squares that overflow, or underflow to subnormals and zero
        scale=st.sampled_from([1.0, 2.0**520, 2.0**-540]),
        seed=st.integers(0, 2**32 - 1),
        strict=st.booleans(),
        walk=st.booleans(),
        # a row far enough out that its differences overflow
        far_row=st.sampled_from([None, 1.5e308, -1.5e308]),
    )
    @settings(max_examples=300, deadline=None)
    def test_near_boundary_witnesses(self, m, n_points, n_witnesses, offset, ulps, scale, seed,
                                     strict, walk, far_row):
        rng = np.random.default_rng(seed)
        wx, wt, xs, ts = _near_boundary_pairs(rng, m, n_points, n_witnesses, offset, ulps, scale,
                                              walk)
        if far_row is not None:
            xs[rng.integers(n_points)] = far_row
        _assert_filter_matches_full_matrix(wx, wt, xs, ts, STRICT if strict else TolerancePolicy())
        _assert_skipped_pairs_above_anchor_minimum(wx, wt, xs, ts)

    @given(
        m=st.sampled_from([1, 2, 7]),
        n_points=st.integers(512, 512 + 3 * ROW_BLOCK + 1),
        n_witnesses=st.integers(1, 6),
        offset=st.sampled_from([0.0, 1e3, 1e6, -1e8]),
        ulps=st.integers(-4, 4),
        scale=st.sampled_from([1.0, 2.0**520, 2.0**-520, 2.0**-540]),
        seed=st.integers(0, 2**32 - 1),
        strict=st.booleans(),
        walk=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_near_boundary_witnesses_on_long_narrow_traces(self, m, n_points, n_witnesses, offset,
                                                           ulps, scale, seed, strict, walk):
        rng = np.random.default_rng(seed)
        wx, wt, xs, ts = _near_boundary_pairs(rng, m, n_points, n_witnesses, offset, ulps, scale,
                                              walk)
        _assert_filter_matches_full_matrix(wx, wt, xs, ts, STRICT if strict else TolerancePolicy())
        _assert_skipped_pairs_above_anchor_minimum(wx, wt, xs, ts)

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_row_blocks_decide_honest_traces(self, m):
        # on a converging trace nearly every block is skipped
        spec, x0 = _affine(m, seed=800 + m, lam=0.995)
        trace = run(spec, x0, FixedCount(3000))
        om = OmegaSpec.for_problem(spec, x0)
        witnesses = certificate.default_witnesses(om)
        wx = np.array([w.x for w in witnesses]).reshape(len(witnesses), m)
        wt = np.array([w.t for w in witnesses])
        skipped = _assert_skipped_pairs_above_anchor_minimum(wx, wt, trace.xs, trace.ts)
        assert skipped.mean() > 0.99
        _assert_same_certificate(trace, witnesses)

    @pytest.mark.parametrize("n_points", [1, 2, 31, 32, 33, 511, 512])
    @pytest.mark.parametrize("m", [1, 2, 7, 8])
    def test_filter_runs_once_per_verify(self, m, n_points, monkeypatch):
        # every trace, however short or narrow, is decided by the filter, and
        # the residual matrix is filled only when it is read
        calls, fills = [], []
        pairs_in_blocks = certificate._pairs_in_undecided_blocks
        monkeypatch.setattr(certificate, "_pairs_in_undecided_blocks",
                            lambda *args: calls.append(args) or pairs_in_blocks(*args))
        fill = certificate._witness_residuals
        monkeypatch.setattr(certificate, "_witness_residuals",
                            lambda *args: fills.append(args) or fill(*args))
        spec, x0 = _affine(m, seed=900 + m, lam=0.999)
        trace = run(spec, x0, FixedCount(n_points - 1))
        assert trace.ts.size == n_points
        cert = verify_certificate(trace)
        assert (len(calls), len(fills)) == (1, 0)
        assert len(cert.witness_residuals) == 33
        assert (len(calls), len(fills)) == (1, 1)
        _assert_same_certificate(trace)

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_tampered_rows_fail_in_late_blocks(self, m):
        spec, x0 = _affine(m, seed=1000 + m, lam=0.995)
        trace = run(spec, x0, FixedCount(1500))
        om = OmegaSpec.for_problem(spec, x0)
        witnesses = certificate.default_witnesses(om, 8, seed=2)
        wx = np.array([w.x for w in witnesses]).reshape(len(witnesses), m)
        wt = np.array([w.t for w in witnesses])
        n_points = trace.ts.size
        last_block = (n_points - 1) // ROW_BLOCK * ROW_BLOCK
        for row in (n_points - 1, n_points - 2, last_block, last_block - 1, 17 * ROW_BLOCK + 5):
            for kind in ("x", "t"):
                xs, ts = trace.xs.copy(), trace.ts.copy()
                if kind == "x":
                    xs[row] += 2.0 * float(np.max(wt))
                else:
                    ts[row] = 2.0 * float(np.max(wt))
                for tol in (TolerancePolicy(), STRICT):
                    failure, _ = _assert_filter_matches_full_matrix(wx, wt, xs, ts, tol)
                    assert failure.startswith(f"bounded check failed for witness 0 at step {row} ")
                _assert_skipped_pairs_above_anchor_minimum(wx, wt, xs, ts)
                tampered = IterationTrace(spec=spec, x0=x0, d=trace.d, xs=xs, ts=ts,
                                          stop_reason=None)
                assert not _assert_same_certificate(tampered, witnesses).passed

    @pytest.mark.parametrize("m", [1, 8])
    def test_block_path_covers_a_straight_walk(self, m):
        # On a straight walk of unit steps, the path length of a block is
        # its first row's distance from the anchor, so no shorter spread
        # bounds the block.  The witness lies ahead of the walk: its
        # residual 120 - |131 - n| fails at rows 0-10, all in the first
        # block, and again from row 252 on, so H < 0.
        n_points = 512
        xs = np.zeros((n_points, m))
        xs[:, 0] = np.arange(n_points)
        ts = np.zeros(n_points)
        wx = np.zeros((1, m))
        wx[0, 0] = 131.0
        wt = np.array([120.0])
        for tol in (TolerancePolicy(), STRICT):
            failure, _ = _assert_filter_matches_full_matrix(wx, wt, xs, ts, tol)
            assert failure.startswith("bounded check failed for witness 0 at step 0 ")
        _assert_skipped_pairs_above_anchor_minimum(wx, wt, xs, ts)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", ["far-witness", "far-anchor", "far-apart-rows"])
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_overflowing_differences_keep_their_blocks(self, m, case):
        # A difference that overflows makes a NaN: in a residual (a witness
        # far from row 300), in H (also far from an anchor, row 319), or an
        # inf in the step norms of the block of rows 288-319, which then
        # holds the only failures.  The blocks with a NaN or inf are kept.
        rng = np.random.default_rng(m)
        n_points = 612
        xs = np.cumsum(rng.standard_normal((n_points, m)) * 1e-3, axis=0)
        ts = np.linspace(0.0, 1.0, n_points)
        xs[300] = -1.5e308
        wx = np.vstack([np.full(m, 1.5e308), xs[-1] + 1.0])
        wt = np.array([1e3, 1e3])
        if case == "far-anchor":
            xs[319] = -1.5e308
        elif case == "far-apart-rows":
            xs[319] = 1.5e308
            wx, wt = wx[1:], wt[1:]
        # a NaN's sign bit depends on the operation that made it: the
        # summary is compared with that of the rows the certificate fills
        residuals = np.array(certificate._witness_residuals(wx, wt, xs, ts))
        whole = certificate._summary_of_rows(tuple(residuals))
        for tol in (TolerancePolicy(), STRICT):
            failure, summary, rows = certificate._bounded_check(wx, wt, xs, ts, _step_norms(xs),
                                                                tol)
            assert failure == _full_matrix_bounded_check(wx, wt, xs, ts, tol)[0]
            assert _bits(tuple(summary)) == _bits(tuple(whole))
            assert _bits(tuple(certificate._summary_of_rows(rows()))) == _bits(tuple(whole))
            assert np.array(rows()).tobytes() == residuals.tobytes()
            if case == "far-apart-rows":
                assert failure.startswith("bounded check failed for witness 0 at step 300 ")
            else:
                assert np.isnan(summary.min_residual) and summary[2:] == (0, 300)
        _assert_skipped_pairs_above_anchor_minimum(wx, wt, xs, ts)

    @pytest.mark.parametrize("m", WIDTHS)
    def test_pair_residuals_are_the_matrix_entries(self, m):
        rng = np.random.default_rng(40 + m)
        # at m = 1 also more pairs than BLOCK_ELEMENTS, which are computed in
        # more than one chunk
        for n_points in (70, BLOCK_ELEMENTS // 8 + 100) if m == 1 else (70,):
            xs = rng.standard_normal((n_points, m)) * np.exp(rng.uniform(-20, 20, (n_points, m)))
            xs[3] = 0.0
            xs[4] = -0.0
            xs[5] = 5e-324
            ts = np.abs(rng.standard_normal(n_points))
            wx = np.vstack([rng.standard_normal((5, m)), xs[3], xs[5], -xs[7]])
            wt = np.concatenate([rng.uniform(0.0, 10.0, 5), [0.0, -0.0, ts[7]]])
            matrix = np.array(certificate._witness_residuals(wx, wt, xs, ts))
            for size in (1, 57, 3 * n_points + 11, wt.size * n_points):
                flat = np.sort(rng.choice(wt.size * n_points, size, replace=False))
                i, n = np.divmod(flat, n_points)
                got = certificate._pair_residuals(wx, wt, xs, ts, i, n)
                assert got.tobytes() == matrix[i, n].tobytes()

    @pytest.mark.parametrize("m", [8, 20])
    def test_decides_well_separated_pairs(self, m):
        # honest witnesses leave the blocks of the canonical witness, which
        # lies on Omega's boundary and holds the minimum, and at most one
        # block of the others
        spec, x0 = _affine(m, seed=500 + m)
        trace = run(spec, x0, FixedCount(60))
        om = OmegaSpec.for_problem(spec, x0)
        witnesses = certificate.default_witnesses(om)
        wx = np.array([w.x for w in witnesses])
        wt = np.array([w.t for w in witnesses])
        skipped = _assert_skipped_pairs_above_anchor_minimum(wx, wt, trace.xs, trace.ts)
        kept_witnesses = np.flatnonzero(~skipped) // trace.ts.size
        assert np.count_nonzero(kept_witnesses) <= ROW_BLOCK
        assert _assert_same_certificate(trace, witnesses).bounded_summary.argmin_witness == 0

    @staticmethod
    def _assert_zero_minimum_is_the_first_lowest_entry(m, n_points):
        # witness 1 meets its row's minimum 0 twice, as -0.0 at row a and as
        # +0.0 at row b: the summary reports the first of them, with its own
        # sign (np.min's choice between them depends on numpy's SIMD loops)
        rng = np.random.default_rng(n_points)
        xs = rng.standard_normal((n_points, m))
        ts = np.full(n_points, -1e3)
        pairs = [(2, 5), (5, 2), (0, n_points - 1), (n_points - 1, 0)]
        if n_points > 2 * ROW_BLOCK:
            # both in one block, and each in another block's first row
            pairs += [(ROW_BLOCK + 1, ROW_BLOCK + 9), (ROW_BLOCK, 2 * ROW_BLOCK)]
        for a, b in pairs:
            xs_ab, ts_ab = xs.copy(), ts.copy()
            xs_ab[b] = xs_ab[a]
            ts_ab[a], ts_ab[b] = 0.0, -0.0
            wx = np.array([xs_ab[a] + 1.0, xs_ab[a]])
            wt = np.array([1e4, -0.0])
            got = _assert_filter_matches_full_matrix(wx, wt, xs_ab, ts_ab, TolerancePolicy())
            want = (2 * n_points, -0.0 if a < b else 0.0, 1, min(a, b))
            assert _bits(tuple(got[1])) == _bits(want), (a, b)
            _assert_skipped_pairs_above_anchor_minimum(wx, wt, xs_ab, ts_ab)

    @pytest.mark.parametrize("n_points", [9, 17, 100])
    def test_zero_minimum_is_the_first_lowest_entry(self, n_points):
        self._assert_zero_minimum_is_the_first_lowest_entry(8, n_points)

    @pytest.mark.parametrize("n_points", [512, 1000])
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_first_lowest_zero_on_long_narrow_traces(self, m, n_points):
        self._assert_zero_minimum_is_the_first_lowest_entry(m, n_points)

    def test_tie_certificates_have_the_same_bytes_on_numpy_baseline_loops(self):
        # the second interpreter runs with every SIMD loop that numpy
        # dispatches to on this CPU switched off (naming one the CPU lacks
        # would warn at import)
        from numpy._core import _multiarray_umath as umath

        off = " ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))
        src = str(Path(certificate.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        dumps = []
        for disabled in ("", off):
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
            proc = subprocess.run([sys.executable, "-c", TIE_CERTIFICATES], capture_output=True,
                                  text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            dumps.append(proc.stdout)
        assert dumps[0] == dumps[1]
        for doc, (_, n_points, a, b) in zip(json.loads(dumps[0])["ties"], TIE_CASES):
            bounded = doc["checks"]["bounded"]
            assert (bounded["argmin_witness"], bounded["argmin_step"]) == (1, min(a, b))
            assert math.copysign(1.0, bounded["min_residual"]) == (-1.0 if a < b else 1.0)

    def test_identical_witnesses_tie_to_the_lower_index(self):
        spec, x0 = _affine(12, seed=600)
        trace = run(spec, x0, FixedCount(30))
        om = OmegaSpec.for_problem(spec, x0)
        w = canonical_omega_witness(om)
        others = sample_omega(om, 3, seed=4)
        for witnesses in ([w, w] + others, others + [w, w]):
            cert = _assert_same_certificate(trace, witnesses)
            want = certificate._summary_of_rows(cert.witness_residuals)
            assert cert.bounded_summary == want
            assert cert.bounded_summary.argmin_witness == witnesses.index(w)

    @pytest.mark.parametrize("m", [2, 12])
    def test_no_witnesses(self, m):
        spec, x0 = _affine(m, seed=700 + m)
        cert = _assert_same_certificate(run(spec, x0, FixedCount(10)), [])
        assert cert.passed and cert.witness_residuals == ()
        assert cert.bounded_summary == (0, None, None, None)

    @pytest.mark.parametrize("scale", [2.0**520, 2.0**-520, 2.0**-540])
    @pytest.mark.parametrize("m", WIDTHS)
    def test_extreme_scales(self, m, scale):
        # the squares of the trace's entries overflow (2^520) or go
        # subnormal (2^-520, 2^-540), while the witnesses lie within 10 of x0
        # whatever the scale
        spec, x0 = _affine(m, seed=100 + m, scale=scale)
        trace = run(spec, x0, FixedCount(30))
        _assert_same_certificate(trace, seed=3)
        om = OmegaSpec.for_problem(spec, x0)
        witnesses = certificate.default_witnesses(om, 8, seed=3)
        wx = np.array([w.x for w in witnesses])
        wt = np.array([w.t for w in witnesses])
        _assert_skipped_pairs_above_anchor_minimum(wx, wt, trace.xs, trace.ts)
        # a trace moved far from every witness fails for every witness
        shifted = trace.xs + 100.0 * max(abs(w.t) for w in witnesses)
        for tol in (TolerancePolicy(), STRICT):
            failure, _ = _assert_filter_matches_full_matrix(wx, wt, shifted, trace.ts, tol)
            assert failure.startswith("bounded check failed for witness 0 at step 0")
