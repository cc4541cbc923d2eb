import math

import numpy as np
import pytest
from scipy.optimize import brentq

from cone_fixpoint import (
    Affine,
    ProblemInstance,
    UnsupportedInstanceError,
    builtin,
    builtin_catalog,
    evaluate,
    norm,
    reference_fixed_point,
    reference_residual,
    validate_contraction,
)

EXPECTED_NAMES = {"AFFINE_1D", "CONSTANT", "ROTATION_2D", "KEPLER", "FIXED_START", "NEAR_ONE"}


def test_catalog_contains_standard_instances():
    names = {p.name for p in builtin_catalog()}
    assert EXPECTED_NAMES <= names


def test_all_catalog_specs_validate():
    for p in builtin_catalog():
        validate_contraction(p.spec)


def test_affine_1d_reference():
    assert np.array_equal(builtin("AFFINE_1D").reference, [2.0])


def test_constant_reference_is_c():
    p = builtin("CONSTANT")
    assert np.array_equal(p.reference, p.spec.c)


def test_rotation_reference():
    np.testing.assert_allclose(builtin("ROTATION_2D").reference, [0.8, 0.4], rtol=0, atol=1e-15)


def test_kepler_reference_matches_independent_root_finder():
    p = builtin("KEPLER")
    expected = brentq(lambda x: x - 1.0 - 0.5 * math.sin(x), 0.5, 1.5, xtol=1e-15)
    assert expected == pytest.approx(1.4987011335178484, abs=1e-13)
    assert p.reference[0] == pytest.approx(expected, abs=5e-12)


def test_fixed_start_reference_is_its_start():
    p = builtin("FIXED_START")
    assert np.array_equal(p.reference, p.x0) or norm(p.reference - p.x0) == 0.0
    assert norm(evaluate(p.spec, p.x0) - p.x0) == 0.0


def test_near_one_reference():
    p = builtin("NEAR_ONE")
    assert p.spec.lam == 0.999
    assert p.reference[0] == pytest.approx(1.0, rel=1e-12)


def test_reference_residuals_are_tiny():
    for p in builtin_catalog():
        assert reference_residual(p) <= 1e-12 * (1.0 + norm(p.reference))


def test_reference_recomputation_is_stable():
    for p in builtin_catalog():
        again = reference_fixed_point(p)
        assert np.array_equal(again, p.reference)


def test_unknown_builtin():
    known = ", ".join(p.name for p in builtin_catalog())
    with pytest.raises(UnsupportedInstanceError) as info:
        builtin("NO_SUCH_PROBLEM")
    assert str(info.value) == f"unknown builtin 'NO_SUCH_PROBLEM' (known: {known})"


def test_unsupported_family_reference():
    class Weird:
        dimension = 1
        lam = 0.5

    p = ProblemInstance.__new__(ProblemInstance)
    object.__setattr__(p, "name", "WEIRD")
    object.__setattr__(p, "spec", Weird())
    object.__setattr__(p, "x0", np.zeros(1))
    object.__setattr__(p, "reference", None)
    object.__setattr__(p, "provenance", "")
    with pytest.raises(UnsupportedInstanceError):
        reference_fixed_point(p)


def test_affine_reference_oracle_is_direct_solve():
    # reference for a random affine system agrees with the hand inverse
    a = np.array([[0.2, 0.1], [0.0, 0.3]])
    b = np.array([1.0, 2.0])
    p = ProblemInstance(name="ADHOC", spec=Affine(a=a, b=b, lam=0.5), x0=[0.0, 0.0])
    ref = reference_fixed_point(p)
    # (I - A) x = b solved by hand: x2 = 2 / 0.7, x1 = (1 + 0.1 x2) / 0.8
    x2 = 2.0 / 0.7
    x1 = (1.0 + 0.1 * x2) / 0.8
    np.testing.assert_allclose(ref, [x1, x2], rtol=1e-14)


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_builtin_equals_catalog_entry(name):
    """``builtin`` builds one instance; it is the catalog's, field by field."""
    one = builtin(name)
    entry = next(p for p in builtin_catalog() if p.name == name)
    assert type(one.spec) is type(entry.spec)
    assert one.spec.lam == entry.spec.lam
    for _, field in entry.spec.file_keys:
        got, want = np.asarray(getattr(one.spec, field)), np.asarray(getattr(entry.spec, field))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for field in ("x0", "reference"):
        assert getattr(one, field).tobytes() == getattr(entry, field).tobytes()
    assert one.provenance == entry.provenance
