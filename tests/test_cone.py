import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cone_fixpoint import (
    AugmentedPoint,
    DimensionMismatchError,
    InvalidInputError,
    TolerancePolicy,
    as_vector,
    leq_lorentz,
    lorentz_contains,
    norm,
)

STRICT = TolerancePolicy.exact()
DEFAULT = TolerancePolicy()


class TestVector:
    def test_as_vector_freezes(self):
        v = as_vector([1.0, 2.0])
        with pytest.raises(ValueError):
            v[0] = 3.0

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidInputError):
            as_vector([1.0, float("nan")])
        with pytest.raises(InvalidInputError):
            as_vector([float("inf")])

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(InvalidInputError):
            as_vector([])
        with pytest.raises(InvalidInputError):
            as_vector([[1.0, 2.0]])

    def test_norm_345(self):
        assert norm([3.0, 4.0]) == 5.0

    def test_norm_zero(self):
        assert norm([0.0, 0.0, 0.0]) == 0.0

    def test_norm_no_overflow_for_huge_entries(self):
        # naive sum of squares would overflow at 1e200
        assert norm([3e200, 4e200]) == pytest.approx(5e200, rel=1e-15)

    def test_norm_no_underflow_for_tiny_entries(self):
        assert norm([3e-200, 4e-200]) == pytest.approx(5e-200, rel=1e-15)


class TestAugmentedPoint:
    def test_dimension_and_ambient(self):
        p = AugmentedPoint([1.0, 2.0, 3.0], 4.0)
        assert p.dimension == 3
        assert p.ambient_dimension == 4

    def test_nonfinite_t_rejected(self):
        with pytest.raises(InvalidInputError):
            AugmentedPoint([1.0], float("inf"))

    def test_arithmetic(self):
        a = AugmentedPoint([1.0, 0.0], 2.0)
        b = AugmentedPoint([0.0, 1.0], 1.0)
        assert (a - b) == AugmentedPoint([1.0, -1.0], 1.0)
        assert (a + b) == AugmentedPoint([1.0, 1.0], 3.0)
        assert (-a) == AugmentedPoint([-1.0, 0.0], -2.0)
        assert a.scaled(2.0) == AugmentedPoint([2.0, 0.0], 4.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            AugmentedPoint([1.0], 0.0) - AugmentedPoint([1.0, 2.0], 0.0)


class TestTolerancePolicy:
    def test_strict_forces_zero(self):
        tol = TolerancePolicy(atol=1e-3, rtol=1e-3, strict=True)
        assert tol.atol == 0.0 and tol.rtol == 0.0

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            TolerancePolicy(atol=-1e-9)

    def test_margin_scales(self):
        tol = TolerancePolicy(atol=1e-12, rtol=1e-12)
        assert tol.margin(0.5) == 2e-12
        assert tol.margin(100.0) == pytest.approx(1.01e-10)

    def test_margin_of_an_array(self):
        # an array gives each entry the float formula's value, bit for bit
        tol = TolerancePolicy(atol=1e-12, rtol=1e-12)
        scales = np.array([0.5, 100.0, -3.0, 0.0, -0.0, 1.0, -1e300, 7e-320])
        got = tol.margin(scales)
        assert isinstance(got, np.ndarray) and got.shape == scales.shape
        assert got.tobytes() == np.array([tol.margin(float(s)) for s in scales]).tobytes()
        assert type(tol.margin(0.5)) is float
        assert tol.margin(scales[:0]).shape == (0,)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("CONE_FIXPOINT_TOL", "1e-6")
        tol = TolerancePolicy.default()
        assert tol.atol == 1e-6 and tol.rtol == 1e-6

    def test_env_bad_value(self, monkeypatch):
        monkeypatch.setenv("CONE_FIXPOINT_TOL", "not-a-float")
        with pytest.raises(InvalidInputError):
            TolerancePolicy.default()

    def test_env_unset_gives_defaults(self, monkeypatch):
        monkeypatch.delenv("CONE_FIXPOINT_TOL", raising=False)
        tol = TolerancePolicy.default()
        assert tol.atol == 1e-12 and tol.rtol == 1e-12


class TestLorentzContains:
    def test_boundary_345(self):
        assert lorentz_contains(AugmentedPoint([3.0, 4.0], 5.0), STRICT)

    def test_just_below_boundary_strict(self):
        assert not lorentz_contains(AugmentedPoint([3.0, 4.0], 4.9), STRICT)

    def test_apex(self):
        assert lorentz_contains(AugmentedPoint([0.0, 0.0], 0.0), STRICT)

    def test_tolerance_rescues_last_bit(self):
        p = AugmentedPoint([3.0, 4.0], 5.0 - 1e-13)
        assert not lorentz_contains(p, STRICT)
        assert lorentz_contains(p, DEFAULT)


class TestLeqLorentz:
    def test_diff_on_boundary(self):
        a = AugmentedPoint([0.0], 0.0)
        b = AugmentedPoint([1.0], 1.0)
        assert leq_lorentz(a, b, STRICT)

    def test_t_gap_too_small(self):
        a = AugmentedPoint([0.0], 0.0)
        b = AugmentedPoint([1.0], 0.5)
        assert not leq_lorentz(a, b, DEFAULT)

    def test_reflexive(self):
        a = AugmentedPoint([2.0, 3.0], 7.0)
        assert leq_lorentz(a, a, STRICT)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            leq_lorentz(AugmentedPoint([0.0], 0.0), AugmentedPoint([0.0, 0.0], 0.0))


# integer-valued points are exactly representable, so strict predicates
# behave like exact rational arithmetic on them
int_coords = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=5)


def _member_from(coords, extra):
    x = np.array(coords, dtype=float)
    t = float(np.ceil(norm(x))) + extra
    return AugmentedPoint(x, t)


class TestOrderProperties:
    @given(int_coords, st.integers(0, 3))
    def test_tolerance_monotonicity(self, coords, extra):
        # anything passing strictly passes under any nonnegative tolerance
        p = _member_from(coords, extra)
        assert lorentz_contains(p, STRICT)
        assert lorentz_contains(p, DEFAULT)
        assert lorentz_contains(p, TolerancePolicy(atol=0.1, rtol=0.1))

    @given(int_coords, st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=200)
    def test_transitivity_on_lattice(self, coords, e1, e2):
        m = len(coords)
        a = AugmentedPoint(np.zeros(m), 0.0)
        u = _member_from(coords, e1)
        v = _member_from(list(reversed(coords)), e2)
        b = a + u
        c = b + v
        assert leq_lorentz(a, b, STRICT)
        assert leq_lorentz(b, c, STRICT)
        assert leq_lorentz(a, c, STRICT)

    @given(int_coords, st.integers(0, 3))
    def test_antisymmetry_nonzero_gap(self, coords, extra):
        u = _member_from(coords, extra)
        if u.t == 0.0:
            return  # u is the apex; a == b case is covered by reflexivity
        a = AugmentedPoint(np.zeros(len(coords)), 0.0)
        b = a + u
        assert leq_lorentz(a, b, STRICT)
        assert not leq_lorentz(b, a, STRICT)

    @given(int_coords, st.integers(0, 3), st.integers(0, 5), int_coords)
    @settings(max_examples=200)
    # the difference (27, 117, 129, 135; 222) lies exactly on the boundary,
    # where the scaled float norm gives 222.00000000000003
    @example(coords=[9, 39, 43, 45], extra=0, mu=3, z_coords=[0])
    def test_linear_compatibility(self, coords, extra, mu, z_coords):
        m = len(coords)
        z = np.zeros(m)
        z[: len(z_coords[:m])] = z_coords[:m]
        a = AugmentedPoint(z, 1.0)
        b = a + _member_from(coords, extra)
        za = AugmentedPoint(np.ones(m), -3.0)
        assert leq_lorentz(a.scaled(mu) + za, b.scaled(mu) + za, STRICT)

    @given(int_coords, int_coords, st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=200)
    def test_cone_closure(self, c1, c2, s, t):
        m = min(len(c1), len(c2))
        u = _member_from(c1[:m], 1)
        v = _member_from(c2[:m], 2)
        combo = u.scaled(s) + v.scaled(t)
        assert lorentz_contains(combo, STRICT)

    @given(int_coords, st.integers(0, 3))
    def test_pointedness(self, coords, extra):
        u = _member_from(coords, extra)
        in_both = lorentz_contains(u, STRICT) and lorentz_contains(-u, STRICT)
        is_zero = u.t == 0.0 and not u.x.any()
        assert in_both == is_zero
