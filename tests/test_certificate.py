import numpy as np
import pytest

from cone_fixpoint import (
    Affine,
    APriori,
    AugmentedPoint,
    ConeFixpointError,
    Constant,
    FixedCount,
    InvalidWitnessError,
    OmegaSpec,
    TolerancePolicy,
    builtin,
    canonical_omega_witness,
    omega_bounds,
    omega_contains,
    omega_t_floor,
    run,
    sample_omega,
    verify_certificate,
)

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


class TestSampleOmega:
    def test_every_sample_is_member(self, affine_omega):
        for w in sample_omega(affine_omega, 64, seed=11):
            assert omega_contains(affine_omega, w)

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
        from cone_fixpoint import InvalidInputError

        with pytest.raises(InvalidInputError):
            sample_omega(affine_omega, 0, seed=1)


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array", ["xs", "ts"])
    def test_poisoned_trace_never_passes(self, array, value):
        # a non-finite value written into a trace after construction (which
        # would have refused it) must fail every verification, wherever it is
        for k in range(5):
            trace = run(AFFINE, [0.0], FixedCount(4))
            target = getattr(trace, array)
            target.setflags(write=True)
            target[(k, 0) if array == "xs" else k] = value
            try:
                cert = verify_certificate(trace, [AugmentedPoint([0.0], 4.0)])
            except ConeFixpointError:
                continue  # refused outright: first/last point are re-validated
            assert not cert.passed, (array, k, value)
            if 0 < k < 4:
                assert cert.first_failure is not None

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
