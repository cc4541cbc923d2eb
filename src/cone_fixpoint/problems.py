"""Built-in problem instances with independently computed fixed points.

References never come from the Picard engine itself: each family's
``reference_fixed_point`` solves affine maps by direct elimination of
(I - A) x = b and the Kepler map by bisection, so acceptance checks compare
two genuinely different routes to the same point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import as_vector, norm
from .contraction import (
    Affine,
    Constant,
    ContractionSpec,
    KeplerScalar,
    ScaledRotation,
    evaluate,
)
from .errors import UnsupportedInstanceError


@dataclass(frozen=True)
class ProblemInstance:
    name: str
    spec: ContractionSpec
    x0: np.ndarray
    reference: np.ndarray | None = None
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "x0", as_vector(self.x0))
        if self.reference is not None:
            object.__setattr__(self, "reference", as_vector(self.reference))


def reference_fixed_point(p: ProblemInstance) -> np.ndarray:
    """Fixed point of the instance's map, computed without Picard iteration."""
    if isinstance(p.spec, ContractionSpec):
        return p.spec.reference_fixed_point()
    # Not a spec at all: the base class refuses it with its usual message.
    return ContractionSpec.reference_fixed_point(p.spec)


# name -> (spec factory, x0, provenance).  Specs are built on request, so a
# lookup builds and solves one instance, not the whole catalog.
_BUILTINS = {
    "AFFINE_1D": (
        lambda: Affine(a=[[0.5]], b=[1.0], lam=0.5),
        [0.0],
        "direct solve of (1 - 0.5) x = 1",
    ),
    "CONSTANT": (
        lambda: Constant(c=[3.0, 7.0], lam=0.5),
        [0.0, 0.0],
        "a constant map fixes its value",
    ),
    "ROTATION_2D": (
        lambda: ScaledRotation(theta=math.pi / 2.0, scale=0.5, b=[1.0, 0.0], lam=0.5),
        [0.0, 0.0],
        "2x2 solve of (I - 0.5 R(90deg)) x = (1, 0), det = 1.25",
    ),
    "KEPLER": (
        lambda: KeplerScalar(e=0.5, mean_anomaly=1.0, lam=0.5),
        [0.0],
        "bisection of x - 1 - 0.5 sin x on [0.5, 1.5]",
    ),
    "FIXED_START": (
        lambda: Affine(a=[[0.5]], b=[1.0], lam=0.5),
        [2.0],
        "starts at the fixed point, so d = 0",
    ),
    "NEAR_ONE": (
        lambda: Affine(a=[[0.999]], b=[0.001], lam=0.999),
        [0.0],
        "direct solve of (1 - 0.999) x = 0.001",
    ),
}


def _instance(name: str) -> ProblemInstance:
    make_spec, x0, provenance = _BUILTINS[name]
    spec = make_spec()
    return ProblemInstance(
        name=name, spec=spec, x0=x0,
        reference=spec.reference_fixed_point(), provenance=provenance,
    )


def builtin_catalog() -> list[ProblemInstance]:
    """The standard test problems, each with a reference solution."""
    return [_instance(name) for name in _BUILTINS]


def builtin(name: str) -> ProblemInstance:
    if name not in _BUILTINS:
        raise UnsupportedInstanceError(
            f"unknown builtin {name!r} (known: {', '.join(_BUILTINS)})"
        )
    return _instance(name)


def reference_residual(p: ProblemInstance) -> float:
    """||f(x_ref) - x_ref|| for the stored reference."""
    if p.reference is None:
        raise UnsupportedInstanceError(f"{p.name} has no reference")
    return norm(evaluate(p.spec, p.reference) - p.reference)
