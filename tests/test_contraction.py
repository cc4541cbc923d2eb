import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_fixpoint import certificate, contraction, engine
from cone_fixpoint.contraction import _cholesky_proves_norm_at_most
from cone_fixpoint.traceio import map_to_dict
from cone_fixpoint import (
    Affine,
    APosteriori,
    APriori,
    Constant,
    ContractionSpec,
    DimensionMismatchError,
    InvalidInputError,
    InvalidSpecError,
    KeplerScalar,
    NotAContractionError,
    ScaledRotation,
    empirical_lipschitz,
    evaluate,
    evaluate_batch,
    norm,
    run,
    sample_omega,
    spectral_norm,
    validate_contraction,
    verify_certificate,
)


def rotation_spec(theta=math.pi / 2, scale=0.5, b=(1.0, 0.0), lam=0.5):
    return ScaledRotation(theta=theta, scale=scale, b=b, lam=lam)


class TestEvaluate:
    def test_affine_at_zero_gives_offset(self):
        spec = Affine(a=[[0.5]], b=[1.0], lam=0.5)
        assert evaluate(spec, [0.0]) == pytest.approx([1.0])

    def test_rotation_at_zero_gives_offset(self):
        assert evaluate(rotation_spec(), [0.0, 0.0]) == pytest.approx([1.0, 0.0])

    def test_kepler_at_zero(self):
        spec = KeplerScalar(e=0.5, mean_anomaly=1.0, lam=0.5)
        assert evaluate(spec, [0.0]) == pytest.approx([1.0])

    def test_constant(self):
        spec = Constant(c=[3.0, 7.0], lam=0.9)
        assert evaluate(spec, [100.0, -2.0]) == pytest.approx([3.0, 7.0])

    def test_deterministic_bitwise(self):
        spec = KeplerScalar(e=0.3, mean_anomaly=2.0, lam=0.5)
        x = [0.12345678901234567]
        a = evaluate(spec, x)
        b = evaluate(spec, x)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        spec = Affine(a=[[0.5]], b=[1.0], lam=0.5)
        with pytest.raises(DimensionMismatchError):
            evaluate(spec, [0.0, 0.0])

    def test_nonfinite_input(self):
        spec = Affine(a=[[0.5]], b=[1.0], lam=0.5)
        with pytest.raises(InvalidInputError):
            evaluate(spec, [float("nan")])

    def test_batch_matches_single(self):
        spec = rotation_spec()
        xs = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
        batch = evaluate_batch(spec, xs)
        for row, x in zip(batch, xs):
            assert np.allclose(row, evaluate(spec, x), rtol=1e-15, atol=0)


# Inputs at the edges of the floats: signed zeros, subnormals, the smallest
# normal, values whose images overflow, infinities and NaN.
EDGE_INPUTS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.0**-1022, -(2.0**-1022),
    0.5, -0.5, 3.0, -3.0, 1e308, -1e308, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan,
]
# math.sin raises at inf, and no non-finite point reaches a Kepler map:
# evaluate, Omega's bounds and sampling refuse one, and iterates stay
# within |M| + |e|.
FINITE_EDGE_INPUTS = [x for x in EDGE_INPUTS if math.isfinite(x)]
SIGNED_COEFFICIENTS = [0.0, -0.0, 5e-324, -5e-324, 2.0**-600, -(2.0**-600), 0.9, -0.9, 1e308, -1e308]
# KeplerScalar refuses |e| > lam, so e takes the coefficients up to 0.9.
SCALAR_SPECS = {
    "affine": [Affine(a=[[a]], b=[b], lam=0.95)
               for a in SIGNED_COEFFICIENTS for b in SIGNED_COEFFICIENTS],
    "kepler": [KeplerScalar(e=e, mean_anomaly=mean_anomaly, lam=0.95)
               for e in SIGNED_COEFFICIENTS[:-2] for mean_anomaly in SIGNED_COEFFICIENTS],
    "constant": [Constant(c=[c], lam=0.5) for c in SIGNED_COEFFICIENTS],
}


def _definition(spec, x):
    """The map at the array x as its family defines it, written out.  An
    affine map sums each component from +0 on Python floats at m <= 2,
    ((0 + a_i0 x_0) + a_i1 x_1) + b_i, and is the matmul from m = 3 on."""
    if isinstance(spec, Constant):
        return spec.c
    if isinstance(spec, KeplerScalar):
        return np.array([spec.mean_anomaly + spec.e * math.sin(x[0])])
    a = spec.matrix if isinstance(spec, ScaledRotation) else spec.a
    if x.size > 2:
        return a @ x + spec.b
    out = []
    for row, b in zip(a.tolist(), spec.b.tolist()):
        total = 0.0
        for a_ij, x_j in zip(row, x.tolist()):
            total = total + a_ij * x_j
        out.append(total + b)
    return np.array(out)


def _rotations(values):
    """Every cyclic rotation of the list ``values``."""
    return [values[k:] + values[:k] for k in range(len(values))]


# Maps of m = 2 whose six coefficients are consecutive entries of a rotation
# of SIGNED_COEFFICIENTS, and rotations scaled by each of its entries that
# lam allows: signed zeros, subnormals and overflowing coefficients.
PAIR_SPECS = (
    [Affine(a=[c[0:2], c[2:4]], b=c[4:6], lam=0.95) for c in _rotations(SIGNED_COEFFICIENTS)]
    + [ScaledRotation(theta=theta, scale=c[0], b=c[1:3], lam=0.95)
       for c in _rotations(SIGNED_COEFFICIENTS) if abs(c[0]) <= 0.95
       for theta in (0.0, 1.234, -math.pi)]
    + [Constant(c=c[0:2], lam=0.5) for c in _rotations(SIGNED_COEFFICIENTS)]
)
# Every pair of edge inputs
EDGE_PAIRS = np.array([[x0, x1] for x0 in EDGE_INPUTS for x1 in EDGE_INPUTS])


class TestScalarMap:
    @pytest.mark.parametrize("kind", list(SCALAR_SPECS))
    def test_same_bits_as_apply(self, kind):
        # The engine's float loop must write the bits of the map's written-out
        # definition (the matmul for an affine map): the sign of a zero, an
        # overflow to inf and a NaN included.
        with np.errstate(over="ignore", invalid="ignore"):
            for spec in SCALAR_SPECS[kind]:
                step = spec._step()
                for x in FINITE_EDGE_INPUTS if kind == "kepler" else EDGE_INPUTS:
                    expected = _definition(spec, np.array([x]))
                    assert np.float64(step(x)).tobytes() == expected.tobytes(), (spec, x)

    def test_zero_product_takes_the_sign_of_the_sum(self):
        # a x = -0 and b = -0: the matmul's sum starts from +0, so f = +0
        spec = Affine(a=[[0.5]], b=[-0.0], lam=0.5)
        assert math.copysign(1.0, spec._step()(-0.0)) == 1.0


class TestPairMap:
    """At m = 2 an affine map steps on a pair of Python floats, written out
    as at m = 1, and the verifier's batch map takes the same operations on
    numpy columns: no BLAS call and no fused multiply-add."""

    def test_step_same_bits_as_definition(self):
        with np.errstate(over="ignore", invalid="ignore"):
            for spec in PAIR_SPECS:
                step = spec._step()
                for x in EDGE_PAIRS:
                    y = step(x.tolist())
                    assert type(y) is list and all(type(v) is float for v in y), spec
                    assert np.array(y).tobytes() == _definition(spec, x).tobytes(), (spec, x)

    def test_zero_products_take_the_sign_of_the_sum(self):
        # every product is -0 and b = -0: each sum starts from +0, so f = +0
        spec = Affine(a=[[0.5, -0.5], [-0.25, 0.25]], b=[-0.0, -0.0], lam=0.9)
        assert [math.copysign(1.0, v) for v in spec._step()((-0.0, 0.0))] == [1.0, 1.0]

    @pytest.mark.parametrize("kind", ["pair", "affine", "constant"])
    def test_batch_same_bits_as_step(self, kind):
        # so an honest trace's x echo is 0 at every row, on any BLAS kernel.
        # A NaN is compared as a NaN only: IEEE 754 leaves open which
        # operand's sign and payload the sum of two NaNs takes, and numpy's
        # baseline loops order the operands unlike its SIMD loops.
        specs = PAIR_SPECS if kind == "pair" else SCALAR_SPECS[kind]
        for spec in specs:
            xs = EDGE_PAIRS if spec.dimension == 2 else np.array(EDGE_INPUTS)[:, None]
            rows, batch = spec._apply_rows(xs), spec._apply_batch(xs)
            assert np.array_equal(np.isnan(rows), np.isnan(batch)), spec
            rows[np.isnan(rows)] = batch[np.isnan(batch)] = np.nan
            assert rows.tobytes() == batch.tobytes(), spec

    def test_apply_rows_same_bits_as_apply(self):
        with np.errstate(over="ignore", invalid="ignore"):
            for spec in PAIR_SPECS:
                rows = spec._apply_rows(EDGE_PAIRS)
                for x, y in zip(EDGE_PAIRS, rows):
                    assert y.tobytes() == spec._apply(x).tobytes(), (spec, x)

    def test_coefficients_are_floats_built_once(self):
        spec = Affine(a=[[0.5, -0.25], [0.125, 0.0]], b=[1.0, -2.0], lam=0.9)
        assert spec._coefficients == (0.5, -0.25, 0.125, 0.0, 1.0, -2.0)
        assert all(type(c) is float for c in spec._coefficients)
        assert rotation_spec()._coefficients == tuple(rotation_spec().matrix.ravel().tolist()) + (1.0, 0.0)
        assert Affine(a=np.eye(3) / 2, b=np.ones(3), lam=0.5)._coefficients is None
        assert "_coefficients" not in repr(spec)


class TestKeplerBatchMap:
    def test_within_the_consistency_margin_of_apply(self):
        # The verifier recomputes a Kepler trace with np.sin (_apply_batch),
        # which need not round as math.sin does: its trace consistency check
        # allows each point twice the map's rounding bound at the point it
        # was computed from.
        rng = np.random.default_rng(20140317)
        xs = np.concatenate([
            rng.uniform(-10.0, 10.0, 6_000),
            rng.uniform(-1e6, 1e6, 2_000),
            rng.choice([-1.0, 1.0], 2_000) * np.ldexp(rng.uniform(0.5, 1.0, 2_000),
                                                     rng.integers(-1074, 1024, 2_000)),
        ])
        for e, mean_anomaly in [(0.9, 1.0), (-0.9, -2.5), (2.0**-600, -0.0), (-0.5, 1e308)]:
            spec = KeplerScalar(e=e, mean_anomaly=mean_anomaly, lam=0.95)
            batch = evaluate_batch(spec, xs[:, None])[:, 0]
            exact = np.array([evaluate(spec, [x])[0] for x in xs.tolist()])
            allowed = certificate._x_echo_allowance(spec, xs[:, None])
            assert np.all(np.abs(batch - exact) <= allowed), spec


def _exact(v):
    return [Fraction(c) for c in np.asarray(v, dtype=float).ravel().tolist()]


class TestRoundingBound:
    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_matvec_bound_covers_the_exact_error(self, m):
        # ||fl(A x + b) - (A x + b)|| in exact arithmetic, for the engine's
        # step and the verifier's batch map, is at most rho, also where the
        # products underflow or the entries are large
        rng = np.random.default_rng(900 + m)
        for a_scale, x_scale in [(1.0, 1.0), (2.0**-520, 2.0**-520), (1.0, 2.0**500)]:
            specs = [Affine(a=a_scale * rng.standard_normal((m, m)),
                            b=a_scale * x_scale * rng.standard_normal(m), lam=0.9)]
            if m == 2:
                specs.append(ScaledRotation(theta=float(rng.uniform(-3.0, 3.0)), scale=-0.7 * a_scale,
                                            b=a_scale * x_scale * rng.standard_normal(2), lam=0.9))
            xs = x_scale * rng.standard_normal((12, m))
            for spec in specs:
                a = spec.matrix if isinstance(spec, ScaledRotation) else spec.a
                rho = spec._rounding_bound(xs)
                for got in ([spec._apply(x) for x in xs], spec._apply_batch(xs)):
                    for x, y, r in zip(xs, got, rho):
                        exact = [sum((p * q for p, q in zip(_exact(row), _exact(x))), Fraction(0)) + c
                                 for row, c in zip(a, _exact(spec.b))]
                        error2 = sum((v - e) ** 2 for v, e in zip(_exact(y), exact))
                        assert error2 <= Fraction(r) ** 2, (spec, x)

    def test_constant_bound_is_zero(self):
        assert Constant(c=[1.5, -2.0], lam=0.5)._rounding_bound(np.ones((3, 2))).tolist() == [0.0] * 3

    def test_kepler_bound_covers_the_rounding_and_the_assumed_sin_error(self):
        # rho covers the exact rounding of M + e s, for s the computed sine
        # of math.sin and of np.sin, plus |e| SIN_ULPS ulps of min(1, |x|)
        rng = np.random.default_rng(17)
        xs = np.array(FINITE_EDGE_INPUTS + rng.uniform(-10.0, 10.0, 40).tolist())
        for spec in SCALAR_SPECS["kepler"]:
            rho = spec._rounding_bound(xs[:, None])
            batch = spec._apply_batch(xs[:, None])[:, 0]
            for x, y_batch, r in zip(xs.tolist(), batch.tolist(), rho.tolist()):
                sin_error = abs(Fraction(spec.e)) * contraction.SIN_ULPS * Fraction(math.ulp(min(1.0, abs(x))))
                for y, s in ((spec._step()(x), math.sin(x)), (y_batch, float(np.sin(x)))):
                    exact = Fraction(spec.mean_anomaly) + Fraction(spec.e) * Fraction(s)
                    assert abs(Fraction(y) - exact) + sin_error <= Fraction(r), (spec, x)


def _edge_vectors(rng, m, count):
    """Points of m coordinates drawn from EDGE_INPUTS and ordinary values."""
    pool = np.array(EDGE_INPUTS + [1.25, -7.5, 1e-3])
    return [rng.choice(pool, m) for _ in range(count)]


def _stepper_specs(m, rng):
    """Specs of every family at width m, with signed-zero, subnormal and
    overflowing coefficients."""
    coefficients = np.array(SIGNED_COEFFICIENTS + [0.5, -0.25, 1.5])
    specs = [Affine(a=rng.choice(coefficients, (m, m)), b=rng.choice(coefficients, m), lam=0.95)
             for _ in range(4 if m > 50 else 12)]
    specs += [Constant(c=rng.choice(coefficients, m), lam=0.5) for _ in range(4)]
    if m == 2:
        specs += [ScaledRotation(theta=theta, scale=scale, b=rng.choice(coefficients, 2), lam=0.95)
                  for theta in (0.0, 1.234, -math.pi) for scale in (0.9, -0.9, -0.0, 2.0**-600)]
    return specs


class TestStepper:
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 300])
    def test_same_bits_as_apply(self, m):
        # The engine's loop takes f(x^n) from the step bound once per run,
        # on x^n in its step form: a float at m = 1, a list of floats at
        # m = 2, a float64 array from m = 3 on.  The bits must be those of
        # the map's written-out definition, the sign of a zero, an overflow
        # to inf and a NaN included, and so must those of _apply, of
        # _apply_rows and of the engine's row 1; the step must leave x as it
        # was and, from m = 3 on, return an array of its own.
        rng = np.random.default_rng(m)
        with np.errstate(over="ignore", invalid="ignore"):
            for spec in _stepper_specs(m, rng):
                step = spec._step()
                for x in _edge_vectors(rng, m, 3 if m > 50 else 20):
                    before, expected = x.tobytes(), _definition(spec, x).tobytes()
                    y = step(contraction.step_form(x))
                    assert np.array(y).tobytes() == expected, (spec, x)
                    assert x.tobytes() == before
                    if m > 2:
                        assert not np.shares_memory(y, x)
                    rows, _, _ = engine._iterate(step, x, 1, spec.lam, 0.0, None, None)
                    for got in (spec._apply(x), spec._apply_rows(x[None])[0], np.frombuffer(rows)[m:]):
                        assert got.tobytes() == expected, (spec, x)

    def test_one_by_one_affine_keeps_the_matmul_zero(self):
        # np.dot at 1x1 would give -0 where the matmul's sum gives +0
        spec = Affine(a=[[-0.5]], b=[-0.0], lam=0.5)
        assert np.float64(spec._step()(5e-324)).tobytes() == np.array([0.0]).tobytes()


class TestSpecConstruction:
    def test_lambda_must_be_inside_unit_interval(self):
        for lam in (0.0, 1.0, -0.5, 1.5, float("nan")):
            with pytest.raises(InvalidSpecError):
                Constant(c=[1.0], lam=lam)

    def test_rotation_must_be_2d(self):
        with pytest.raises(InvalidSpecError):
            ScaledRotation(theta=0.0, scale=0.5, b=[1.0, 0.0, 0.0], lam=0.9)

    def test_rotation_scale_exceeding_lambda(self):
        with pytest.raises(NotAContractionError):
            ScaledRotation(theta=0.0, scale=0.95, b=[0.0, 0.0], lam=0.5)

    def test_kepler_eccentricity_exceeding_lambda(self):
        with pytest.raises(NotAContractionError):
            KeplerScalar(e=0.9, mean_anomaly=1.0, lam=0.5)

    def test_affine_shape_mismatch(self):
        with pytest.raises(InvalidSpecError):
            Affine(a=[[0.5, 0.0]], b=[1.0], lam=0.5)
        with pytest.raises(InvalidSpecError):
            Affine(a=[[0.5, 0.0], [0.0, 0.5]], b=[1.0], lam=0.5)


class TestAffineCore:
    def test_rotation_is_not_an_affine_map(self):
        # it serializes as its own kind, which a caller that tests
        # isinstance(spec, Affine) first would lose
        spec = rotation_spec()
        assert not isinstance(spec, Affine)
        assert map_to_dict(spec) == {"kind": "scaled_rotation", "theta": spec.theta,
                                     "scale": 0.5, "b": [1.0, 0.0]}

    @pytest.mark.parametrize("m", [3, 9, 100])
    def test_matrix_is_read_only_and_aligned_wherever_it_was_given(self, m):
        # gemv's speed depends on where the matrix starts, its bits must not
        rng = np.random.default_rng(m)
        a, b = rng.uniform(-0.9 / m, 0.9 / m, (m, m)), rng.uniform(-1.0, 1.0, m)
        buffer = np.empty(m * m + 8)
        traces = set()
        for offset in range(8):
            given = buffer[offset:offset + m * m].reshape(m, m)
            given[...] = a
            spec = Affine(a=given, b=b, lam=0.9)
            assert spec.a.ctypes.data % 64 == 0 and not spec.a.flags.writeable
            assert spec.a.tobytes() == a.tobytes()
            trace = run(spec, np.ones(m), APosteriori(1e-12))
            traces.add(trace.xs.tobytes() + trace.ts.tobytes())
        assert {buffer[k:].ctypes.data % 64 for k in range(8)} == set(range(0, 64, 8))
        assert len(traces) == 1
        # a matrix in Fortran order keeps it, as the gemv that steps it does
        fortran = Affine(a=np.asfortranarray(a), b=b, lam=0.9).a
        assert fortran.flags.f_contiguous and fortran.ctypes.data % 64 == 0
        assert not fortran.flags.writeable and fortran.tobytes("F") == np.asfortranarray(a).tobytes("F")


class TestConstantStep:
    def test_held_pair_is_never_returned_or_written(self):
        # An m = 2 Constant's step returns the list the map holds, and
        # every caller copies it: runs, evaluation, the verifier and Omega
        # sampling leave it as it was, and no output is that list.
        spec = Constant(c=[1.5, -2.0], lam=0.5)
        held = spec._value
        assert held == [1.5, -2.0] and spec._step()([0.0, 0.0]) is held
        x0 = np.array([3.0, 4.0])
        traces = [run(spec, x0, rule) for rule in (APriori(1e-9), APosteriori(1e-9))]
        outputs = [evaluate(spec, x0), spec._apply(x0), spec._apply_rows(np.zeros((3, 2)))]
        outputs += [trace.xs for trace in traces]
        assert all(verify_certificate(trace).passed for trace in traces)
        witnesses = sample_omega(certificate.OmegaSpec.for_problem(spec, x0), 4, 0)
        assert len(witnesses) == 4 and held == [1.5, -2.0]
        for out in outputs:
            assert type(out) is np.ndarray
            assert out.reshape(-1, 2)[-1].tolist() == [1.5, -2.0]
            if out.flags.writeable:
                out[...] = 9.0
        assert spec._value is held and held == [1.5, -2.0]


class TestScaledRotationMatrix:
    @pytest.mark.parametrize("theta,scale", [(0.3, 0.5), (2.5, -0.45), (-1.0, 0.0)])
    def test_cached_matrix_matches_formula(self, theta, scale):
        spec = rotation_spec(theta=theta, scale=scale)
        c, s = math.cos(theta), math.sin(theta)
        expected = scale * np.array([[c, -s], [s, c]])
        assert spec.matrix.tobytes() == expected.tobytes()
        assert spec.matrix is spec.matrix
        assert not spec.matrix.flags.writeable

    def test_matrix_not_in_repr(self):
        assert "_matrix" not in repr(rotation_spec())


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm([[0.5, 0.0], [0.0, 0.25]]) == pytest.approx(0.5, rel=1e-12)

    def test_scaled_rotation_matrix(self):
        m = rotation_spec().matrix
        assert spectral_norm(m) == pytest.approx(0.5, rel=1e-12)

    def test_nilpotent(self):
        # singular values of [[0, 0.7], [0, 0]] are {0.7, 0}: A^T A = diag(0, 0.49)
        assert spectral_norm([[0.0, 0.7], [0.0, 0.0]]) == pytest.approx(0.7, rel=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n))
            expected = float(np.linalg.svd(a, compute_uv=False)[0])
            assert spectral_norm(a) == pytest.approx(expected, rel=1e-9)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            spectral_norm([1.0, 2.0])
        with pytest.raises(InvalidInputError):
            spectral_norm([[float("inf")]])
        with pytest.raises(InvalidInputError, match="non-finite"):
            spectral_norm([[1e200]])  # A^T A overflows

    @pytest.mark.parametrize("scale", [1.0, 2.0**500, 2.0**-500], ids=["1", "2^500", "2^-500"])
    def test_upper_bound_tight_to_svd(self, scale):
        # svd_top <= bound <= svd_top (1 + 1e-12), on random matrices and on
        # clustered top pairs Q diag(s, s - 1e-7, ...) Q^T.
        rng = np.random.default_rng(20)
        for m in range(1, 51):
            a = rng.standard_normal((m, m))
            q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            s = rng.uniform(0.1, 1.0)
            tail = rng.uniform(0.0, s - 1e-7, m)
            clustered = (q * np.concatenate(([s, s - 1e-7], tail))[:m]) @ q.T
            for matrix in (a, clustered):
                matrix = matrix * scale
                svd_top = float(np.linalg.svd(matrix, compute_uv=False)[0])
                bound = spectral_norm(matrix)
                assert svd_top <= bound <= svd_top * (1 + 1e-12), (m, bound, svd_top)


    def test_underflowing_gram_still_bounded(self):
        # Every product in A^T A underflows to zero; the bound must not.
        for a in ([[2.0**-600]], np.full((3, 3), 2.0**-560)):
            svd_top = float(np.linalg.svd(np.asarray(a), compute_uv=False)[0])
            assert spectral_norm(a) >= svd_top > 0.0


class TestValidateContraction:
    def test_diagonal_affine(self):
        report = validate_contraction(Affine(a=[[0.5, 0.0], [0.0, 0.25]], b=[0.0, 0.0], lam=0.5))
        assert report.true_factor == pytest.approx(0.5, rel=1e-12)
        assert report.family == "Affine"

    def test_scaled_rotation(self):
        report = validate_contraction(rotation_spec())
        assert report.true_factor == 0.5

    def test_affine_exceeding_lambda(self):
        with pytest.raises(NotAContractionError) as excinfo:
            validate_contraction(Affine(a=[[1.1]], b=[0.0], lam=0.9))
        assert excinfo.value.true_factor == pytest.approx(1.1, rel=1e-9)

    def test_constant_true_factor_zero(self):
        report = validate_contraction(Constant(c=[5.0], lam=0.999))
        assert report.true_factor == 0.0
        assert report.margin == pytest.approx(0.999)

    def test_kepler(self):
        report = validate_contraction(KeplerScalar(e=-0.4, mean_anomaly=1.0, lam=0.5))
        assert report.true_factor == 0.4

    def test_clustered_spectrum_accepted(self):
        report = validate_contraction(Affine(a=np.diag([0.9, 0.899999]), b=[1.0, 1.0], lam=0.9))
        assert 0.9 <= report.true_factor <= 0.9 + 1e-15

    def test_clustered_spectrum_false_lambda_refused(self):
        spec = Affine(a=np.diag([0.9, 0.9 - 1e-7]), b=[1.0, 1.0], lam=0.9 - 1e-8)
        with pytest.raises(NotAContractionError) as excinfo:
            validate_contraction(spec)
        assert excinfo.value.true_factor >= 0.9

    def test_nan_true_factor_refused(self):
        class _NanFactor(ContractionSpec):
            lam = 0.5
            dimension = 1

            def _step(self):
                return lambda x: 0.5 * x

            def _apply_batch(self, xs):
                return 0.5 * xs

            def _rounding_bound(self, xs):
                return np.full(xs.shape[0], 2.0**-1022)  # x / 2 is exact unless it underflows

            def true_factor(self):
                return math.nan

        with pytest.raises(NotAContractionError):
            validate_contraction(_NanFactor())


def _exact_norm_test(a):
    """The exact test c -> (||A||_2 <= c).  Floats convert to Fraction
    without rounding, and c^2 I - A^T A is positive semidefinite iff a
    symmetric elimination meets no negative pivot and no zero pivot with a
    nonzero entry left below it."""
    a = [[Fraction(v) for v in row] for row in np.asarray(a, dtype=float).tolist()]
    m = len(a)
    gram = [[sum(a[k][i] * a[k][j] for k in range(m)) for j in range(m)] for i in range(m)]

    def norm_at_most(c):
        c2 = Fraction(c) ** 2
        s = [[(c2 if i == j else 0) - g for j, g in enumerate(row)] for i, row in enumerate(gram)]
        for p in range(m):
            d = s[p][p]
            if d < 0 or (d == 0 and any(s[i][p] for i in range(p + 1, m))):
                return False
            for i in range(p + 1, m):
                if d and s[i][p]:
                    f = s[i][p] / d
                    for j in range(p + 1, m):
                        s[i][j] -= f * s[p][j]
        return True

    return norm_at_most


def _small_matrices(rng, m):
    """Random, symmetric with a clustered top pair, and rank-one m x m
    matrices with top singular value near 0.9."""
    raw = rng.standard_normal((m, m))
    yield raw * (0.9 / float(np.linalg.svd(raw, compute_uv=False)[0]))
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    s = np.concatenate(([0.9, 0.9 - 1e-12], rng.uniform(0.0, 0.8, m)))[:m]
    yield (q * s) @ q.T
    u, v = rng.standard_normal(m), rng.standard_normal(m)
    yield np.outer(u, v) * (0.9 / (np.linalg.norm(u) * np.linalg.norm(v)))


def _floats_around(value, ulps):
    """value and the ``ulps`` floats on either side of it."""
    out = [value]
    for direction in (-np.inf, np.inf):
        x = value
        for _ in range(ulps):
            x = float(np.nextafter(x, direction))
            out.append(x)
    return out


class TestCholeskyGate:
    """The gate accepts c only when it proves ||A||_2 <= c."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_never_accepts_below_the_exact_norm(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(12):
            for a in _small_matrices(rng, m):
                sigma = float(np.linalg.svd(a, compute_uv=False)[0])
                near = _floats_around(sigma, 40)
                far = [sigma * (1 + k) for k in (-1e-6, -1e-9, -1e-12, 1e-12, 1e-9)]
                exact = _exact_norm_test(a)
                below = [c for c in near + far if not exact(c)]
                assert below
                for c in below:
                    assert not _cholesky_proves_norm_at_most(a, c), (a.tolist(), c)
                assert _cholesky_proves_norm_at_most(a, sigma * (1 + 1e-6))

    @pytest.mark.parametrize("scale", [2.0**-400, 2.0**400], ids=["2^-400", "2^400"])
    def test_never_accepts_below_the_exact_norm_at_extreme_scales(self, scale):
        rng = np.random.default_rng(7)
        for m in (2, 5):
            for a in _small_matrices(rng, m):
                a = a * scale
                sigma = float(np.linalg.svd(a, compute_uv=False)[0])
                exact = _exact_norm_test(a)
                below = [c for c in _floats_around(sigma, 20) if not exact(c)]
                assert below
                for c in below:
                    assert not _cholesky_proves_norm_at_most(a, c)
                assert _cholesky_proves_norm_at_most(a, sigma * (1 + 1e-6))

    @pytest.mark.parametrize("m", [20, 100, 300])
    def test_well_separated_against_svd(self, m):
        # The SVD errs by far less than 1e-10 relative at these sizes.
        rng = np.random.default_rng(m)
        for a in list(_small_matrices(rng, m))[:2]:
            sigma = float(np.linalg.svd(a, compute_uv=False)[0])
            for rel in (1e-3, 1e-8, 1e-10):
                assert not _cholesky_proves_norm_at_most(a, sigma * (1 - rel))
            assert _cholesky_proves_norm_at_most(a, sigma * (1 + 1e-8))

    def test_out_of_range_bounds_are_not_tried(self):
        a = np.array([[0.5]])
        for c in (0.0, -1.0, math.nan, math.inf, 2.0**-501, 2.0**501):
            assert not _cholesky_proves_norm_at_most(a, c)

    def test_a_factor_bigger_than_m_c_squared_is_not_tried(self):
        assert not _cholesky_proves_norm_at_most(np.full((2, 2), 1.0), 1.0)


class TestLazyTrueFactor:
    def _counting(self, monkeypatch):
        calls = []
        original = contraction.spectral_norm

        def counted(a):
            calls.append(1)
            return original(a)

        monkeypatch.setattr(contraction, "spectral_norm", counted)
        return calls

    def test_accepted_affine_computes_spectral_norm_once_on_read(self, monkeypatch):
        calls = self._counting(monkeypatch)
        a = np.diag([0.9, 0.899999])
        report = validate_contraction(Affine(a=a, b=[1.0, 1.0], lam=0.9))
        assert calls == []
        assert report.true_factor == spectral_norm(a)  # the unpatched function
        assert len(calls) == 1
        assert report.margin == report.declared_lambda - report.true_factor
        assert len(calls) == 1

    def test_refused_affine_computes_spectral_norm_once(self, monkeypatch):
        calls = self._counting(monkeypatch)
        with pytest.raises(NotAContractionError) as excinfo:
            validate_contraction(Affine(a=[[1.1]], b=[0.0], lam=0.9))
        assert len(calls) == 1
        assert excinfo.value.true_factor == spectral_norm([[1.1]])

    def test_report_value_is_unchanged(self):
        rng = np.random.default_rng(3)
        for m in (1, 4, 30):
            raw = rng.standard_normal((m, m))
            a = raw * (0.7 / float(np.linalg.svd(raw, compute_uv=False)[0]))
            report = validate_contraction(Affine(a=a, b=np.ones(m), lam=0.7))
            assert report.true_factor == spectral_norm(a)


class TestEmpiricalLipschitz:
    def test_constant_is_zero(self):
        assert empirical_lipschitz(Constant(c=[1.0, 2.0], lam=0.5), 100, seed=3) == 0.0

    def test_scaled_rotation_attains_factor_everywhere(self):
        got = empirical_lipschitz(rotation_spec(), 200, seed=5)
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_kepler_bounded_by_eccentricity(self):
        got = empirical_lipschitz(KeplerScalar(e=0.5, mean_anomaly=1.0, lam=0.5), 10_000, seed=42)
        assert 0.0 < got <= 0.5
        # dense 1-D sampling of |f'| = |e cos x| says the sup over the ball is e
        xs = np.linspace(-10, 10, 100_001)
        assert got <= np.max(np.abs(0.5 * np.cos(xs))) + 1e-12

    def test_deterministic(self):
        spec = KeplerScalar(e=0.5, mean_anomaly=1.0, lam=0.5)
        assert empirical_lipschitz(spec, 500, seed=9) == empirical_lipschitz(spec, 500, seed=9)

    def test_sample_count_validated(self):
        with pytest.raises(InvalidInputError):
            empirical_lipschitz(Constant(c=[1.0], lam=0.5), 0, seed=1)

    def test_non_integer_sample_count_refused(self):
        with pytest.raises(InvalidInputError, match=r"^sample_count must be an integer, got 2\.5$"):
            empirical_lipschitz(Constant(c=[1.0], lam=0.5), 2.5, 0)

    def test_negative_seed_refused(self):
        with pytest.raises(InvalidInputError, match=r"^seed must be non-negative, got -1$"):
            empirical_lipschitz(Constant(c=[1.0], lam=0.5), 10, -1)


@st.composite
def affine_contractions(draw):
    m = draw(st.integers(1, 4))
    lam = draw(st.floats(0.1, 0.95))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, m))
    top = np.linalg.svd(raw, compute_uv=False)[0]
    a = raw * (lam / top) if top > 0 else raw
    return Affine(a=a, b=rng.standard_normal(m), lam=lam), rng


class TestContractionInequality:
    @given(affine_contractions())
    @settings(max_examples=50, deadline=None)
    def test_pairs_never_exceed_declared_factor(self, spec_rng):
        spec, rng = spec_rng
        validate_contraction(spec)
        for _ in range(10):
            u = rng.uniform(-10, 10, spec.dimension)
            v = rng.uniform(-10, 10, spec.dimension)
            lhs = norm(evaluate(spec, u) - evaluate(spec, v))
            assert lhs <= (spec.lam + 1e-9) * norm(u - v)

    def test_near_fixed_points_cluster(self):
        # two points with small displacement residual are close to each
        # other: ||x - y|| <= (eps_x + eps_y) / (1 - lam)
        specs = [
            Affine(a=[[0.5]], b=[1.0], lam=0.5),
            rotation_spec(),
            KeplerScalar(e=0.5, mean_anomaly=1.0, lam=0.5),
        ]
        rng = np.random.default_rng(7)
        for spec in specs:
            pts = [rng.uniform(-5, 5, spec.dimension) for _ in range(6)]
            for i, u in enumerate(pts):
                for v in pts[i + 1:]:
                    eps_u = norm(evaluate(spec, u) - u)
                    eps_v = norm(evaluate(spec, v) - v)
                    assert norm(u - v) <= (eps_u + eps_v) / (1 - spec.lam) + 1e-12
