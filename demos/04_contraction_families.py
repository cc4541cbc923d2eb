"""The built-in contraction families and how their factors are certified.

A declared factor is only useful if it can be checked.  Each family has a
closed-form true factor; for affine maps it is the spectral norm, computed
here by power iteration and cross-checked against dense SVD.  Power
iteration estimates the norm from below and refuses clustered spectra, so
it is not yet a rigorous upper bound (ROADMAP Open item 1).  A seeded
empirical probe of ||f(u) - f(v)|| / ||u - v|| gives an independent sanity
bound from below.
"""

import numpy as np

from cone_fixpoint import (
    Affine,
    Constant,
    KeplerScalar,
    NotAContractionError,
    ScaledRotation,
    empirical_lipschitz,
    spectral_norm,
    validate_contraction,
)

specs = [
    Constant(c=[3.0, 7.0], lam=0.5),
    Affine(a=[[0.3, 0.2], [0.0, 0.4]], b=[1.0, -1.0], lam=0.6),
    ScaledRotation(theta=np.pi / 2, scale=0.5, b=[1.0, 0.0], lam=0.5),
    KeplerScalar(e=0.5, mean_anomaly=1.0, lam=0.5),
]

print(f"{'family':>16} {'declared':>9} {'true':>10} {'empirical':>10}")
for spec in specs:
    report = validate_contraction(spec)
    probe = empirical_lipschitz(spec, 2000, seed=0)
    print(f"{report.family:>16} {report.declared_lambda:>9.4f} "
          f"{report.true_factor:>10.6f} {probe:>10.6f}")

print()
print("power iteration vs dense SVD on random matrices:")
rng = np.random.default_rng(0)
for n in (2, 5, 8):
    a = rng.standard_normal((n, n))
    ours = spectral_norm(a)
    svd = float(np.linalg.svd(a, compute_uv=False)[0])
    print(f"  {n}x{n}: power iteration {ours:.12f}, svd {svd:.12f}, "
          f"gap {abs(ours - svd):.2e}")

print()
print("a refuted declaration:")
try:
    validate_contraction(Affine(a=[[1.1]], b=[0.0], lam=0.9))
except NotAContractionError as exc:
    print(f"  rejected: {exc} (true factor {exc.true_factor})")
