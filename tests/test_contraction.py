import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_fixpoint import (
    Affine,
    Constant,
    DimensionMismatchError,
    InvalidInputError,
    InvalidSpecError,
    KeplerScalar,
    NotAContractionError,
    ScaledRotation,
    SpectralNormError,
    empirical_lipschitz,
    evaluate,
    evaluate_batch,
    norm,
    spectral_norm,
    validate_contraction,
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

    def test_nonconvergence_carries_estimate(self):
        # nearly-degenerate top singular pair converges too slowly for the cap
        a = np.diag([1.0, 1.0 - 1e-4])
        with pytest.raises(SpectralNormError) as excinfo:
            spectral_norm(a, tol=1e-12, max_iter=50)
        assert excinfo.value.estimate == pytest.approx(1.0, abs=1e-3)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            spectral_norm([1.0, 2.0])
        with pytest.raises(InvalidInputError):
            spectral_norm([[float("inf")]])
        with pytest.raises(InvalidInputError):
            spectral_norm([[1.0]], tol=0.0)


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
