"""Seeded inputs for the benchmark workloads, with reference values computed
apart from the program.

Every problem is a plain dict: the map (``kind`` plus its parameters), the
contraction factor ``lam``, the start ``x0``, the stopping rule and ``eps``,
and the oracle fields the checks need:

* ``x_ref``  the fixed point, by ``numpy.linalg.solve(I - A, b)`` for affine
  and rotation maps, ``scipy.optimize.brentq`` for Kepler, ``c`` for constants;
* ``d``      ``||f(x0) - x0||`` with the benchmark's own map evaluation;
* ``n_expected``  under ``apriori``, the smallest n with
  ``lam^n d / (1 - lam) <= eps``;
* ``slack``  the rounding allowance of the error-bound and monotonicity checks.

Step counts are fixed per slot, not drawn from the seed: ``eps`` is placed
midway (in log scale) between the stop values of steps N-1 and N, so that the
rule stops at exactly N steps whatever the seed, and per-operation costs and
counts stay the same from seed to seed.  The seed draws everything else.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

UNIT_ROUNDOFF = float(np.finfo(float).eps)
# Multiple of u * m * scale / (1 - lam) allowed for rounding in the iterates
# and in the reference solve; see README.md.
SLACK_FACTOR = 16.0

# long_scalar: (kind, m, steps).  The two middle slots share a type so the
# median lands inside one group of near-equal operations; the two top slots
# do the same for the 90th percentile.
LONG_SCALAR_SLOTS = [
    ("affine", 1, 1500), ("kepler", 1, 1500), ("rotation", 2, 1500), ("affine", 2, 2000),
    ("kepler", 1, 3000), ("kepler", 1, 3000),
    ("rotation", 2, 4000), ("affine", 2, 6000),
    ("kepler", 1, 12000), ("kepler", 1, 12000),
]

# wide_affine: (m, steps), grouped the same way; see _symmetric_affine.
WIDE_AFFINE_SLOTS = [
    (100, 300), (120, 400), (150, 350), (160, 400),
    (200, 400), (200, 400),
    (240, 400), (240, 300),
    (300, 400), (300, 400),
]

# cli_roundtrip: (source, kind or builtin name, m, rule, steps).  steps is
# None for builtins, whose eps is the fixed BUILTIN_EPS.
BUILTIN_EPS = 1e-8
CLI_SMALL = [
    ("builtin", "AFFINE_1D", 1, "apriori", None),
    ("builtin", "AFFINE_1D", 1, "aposteriori", None),
    ("builtin", "CONSTANT", 2, "apriori", None),
    ("builtin", "ROTATION_2D", 2, "apriori", None),
    ("builtin", "ROTATION_2D", 2, "aposteriori", None),
    ("builtin", "KEPLER", 1, "apriori", None),
    ("builtin", "KEPLER", 1, "aposteriori", None),
    ("builtin", "FIXED_START", 1, "apriori", None),
    ("file", "affine", 1, "apriori", 12), ("file", "affine", 2, "apriori", 20),
    ("file", "affine", 3, "apriori", 30), ("file", "affine", 4, "apriori", 40),
    ("file", "affine", 1, "aposteriori", 25), ("file", "affine", 2, "aposteriori", 35),
    ("file", "affine", 4, "aposteriori", 50), ("file", "affine", 3, "apriori", 60),
    ("file", "rotation", 2, "apriori", 15), ("file", "rotation", 2, "apriori", 45),
    ("file", "rotation", 2, "aposteriori", 30),
    ("file", "kepler", 1, "apriori", 10), ("file", "kepler", 1, "apriori", 30),
    ("file", "rotation", 2, "aposteriori", 20), ("file", "affine", 3, "aposteriori", 40),
    ("file", "constant", 1, "apriori", 20), ("file", "constant", 2, "apriori", 35),
    ("file", "constant", 3, "aposteriori", 2), ("file", "constant", 2, "aposteriori", 2),
    ("file", "affine", 2, "apriori", 25), ("file", "rotation", 2, "apriori", 50),
    ("file", "kepler", 1, "apriori", 45),
]
# The four 8000-step slots hold the 90th percentile, clear of the fault
# operations and the shorter long slots below them.
CLI_LONG = [
    ("file", "kepler", 1, "apriori", 1000),
    ("file", "rotation", 2, "aposteriori", 1000),
    ("file", "affine", 1, "apriori", 8000), ("file", "affine", 1, "apriori", 8000),
    ("file", "affine", 1, "apriori", 8000), ("file", "affine", 1, "apriori", 8000),
    ("file", "affine", 2, "apriori", 12000),
    ("builtin", "NEAR_ONE", 1, "apriori", None),
]

FILE_KIND = {"affine": "affine", "rotation": "scaled_rotation", "kepler": "kepler",
             "constant": "constant"}

WORKLOADS = ("long_scalar", "wide_affine", "cli_roundtrip")


def _rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _linear_part(p: dict) -> np.ndarray:
    if p["kind"] == "affine":
        return p["a"]
    return p["scale"] * _rotation_matrix(p["theta"])


def _apply_map(p: dict, x: np.ndarray) -> np.ndarray:
    kind = p["kind"]
    if kind in ("affine", "rotation"):
        return _linear_part(p) @ x + p["b"]
    if kind == "kepler":
        return p["M"] + p["e"] * np.sin(x)
    return p["c"].copy()


def _fixed_point(p: dict) -> np.ndarray:
    kind = p["kind"]
    if kind in ("affine", "rotation"):
        m = p["x0"].size
        return np.linalg.solve(np.eye(m) - _linear_part(p), p["b"])
    if kind == "kepler":
        e, M = p["e"], p["M"]
        root = brentq(lambda x: x - M - e * math.sin(x), M - abs(e) - 1.0, M + abs(e) + 1.0,
                      xtol=1e-15, rtol=4.0 * UNIT_ROUNDOFF, maxiter=200)
        return np.array([root])
    return p["c"].copy()


def a_priori_count(d: float, lam: float, eps: float) -> int:
    """Smallest n >= 0 with lam^n d / (1 - lam) <= eps, straight from the definition."""
    if d == 0.0:
        return 0
    n = max(0, math.floor(math.log(eps * (1.0 - lam) / d) / math.log(lam)) - 2)
    while lam**n * d / (1.0 - lam) > eps:
        n += 1
    return n


def _step_norms(p: dict, steps: int) -> np.ndarray:
    """||x^n - x^{n-1}|| for n = 1..steps by the benchmark's own Picard loop."""
    x = p["x0"]
    out = np.empty(steps + 1)
    out[0] = math.inf
    for n in range(1, steps + 1):
        x_next = _apply_map(p, x)
        out[n] = np.linalg.norm(x_next - x)
        x = x_next
    return out


def _set_eps(p: dict, steps: int):
    """Pick eps so that the problem's rule stops after exactly ``steps`` steps."""
    lam, d = p["lam"], p["d"]
    if p["rule"] == "apriori":
        bound = lam**steps * d / (1.0 - lam)
        p["eps"] = bound / math.sqrt(lam)
    else:
        norms = _step_norms(p, steps)
        g = (lam / (1.0 - lam)) * norms
        if p["kind"] == "constant":
            # x^1 = c, so step 2 has norm 0 and the rule stops there.
            p["eps"] = 1e-3 * g[1]
            return
        noise = 1e4 * UNIT_ROUNDOFF * (1.0 + np.linalg.norm(p["x0"]) + d / (1.0 - lam))
        if not norms[steps] > noise:
            raise ValueError(f"step {steps} norm {norms[steps]:.3e} is near rounding")
        p["eps"] = math.sqrt(g[steps] * g[steps - 1])


def _finish(p: dict, steps: int | None = None) -> dict:
    """Fill in d, eps (when steps is given), x_ref, n_expected and slack."""
    x0 = p["x0"]
    p["d"] = float(np.linalg.norm(_apply_map(p, x0) - x0))
    if steps is not None:
        _set_eps(p, steps)
    p["x_ref"] = _fixed_point(p)
    p["n_expected"] = a_priori_count(p["d"], p["lam"], p["eps"]) if p["rule"] == "apriori" else None
    lam, m = p["lam"], x0.size
    scale = 1.0 + np.linalg.norm(p["x_ref"]) + np.linalg.norm(x0) + p["d"] / (1.0 - lam)
    p["slack"] = SLACK_FACTOR * UNIT_ROUNDOFF * m * scale / (1.0 - lam)
    return p


def _orthogonal(rng, m: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def _lam_for(rng, steps: int, lo: float, hi: float) -> float:
    """lam with lam^steps log-uniform in [10^lo, 10^hi]."""
    return 10.0 ** (rng.uniform(lo, hi) / steps)


def _symmetric_affine(rng, m: int, lam: float) -> dict:
    """Symmetric A = Q diag(s) Q^T with top singular value lam and the rest
    spread over [0.05, 0.8] lam with random signs, so power iteration converges
    and step norms decay like lam^n.  b puts weight 3 on the top direction, so
    an a-posteriori stop is decided well above rounding."""
    q = _orthogonal(rng, m)
    s = np.concatenate([[lam], lam * rng.uniform(0.05, 0.8, m - 1) * rng.choice([-1.0, 1.0], m - 1)])
    z = rng.standard_normal(m)
    z[0] = 3.0 * rng.choice([-1.0, 1.0])
    return {"kind": "affine", "lam": lam, "a": (q * s) @ q.T, "b": q @ z,
            "x0": rng.standard_normal(m)}


def _small_map(rng, kind: str, m: int, lam: float, rule: str) -> dict:
    """A map of the given family whose true factor is exactly lam.  Under
    aposteriori only maps whose step norms shrink like lam^n are drawn
    (Kepler's depend on cos x*), so the stop is decided above rounding."""
    if kind == "affine" and m > 1 and rule == "aposteriori":
        p = _symmetric_affine(rng, m, lam)
        p["rule"] = rule
        return p
    p = {"kind": kind, "lam": lam, "x0": rng.uniform(-2.0, 2.0, m), "rule": rule}
    if kind == "affine":
        if m == 1:
            p["a"] = np.array([[lam * rng.choice([-1.0, 1.0])]])
        else:
            # Singular values lam > s_2 >= ...; the gap keeps power iteration fast.
            s = np.concatenate([[lam], lam * rng.uniform(0.1, 0.7, m - 1)])
            p["a"] = (_orthogonal(rng, m) * s) @ _orthogonal(rng, m).T
        p["b"] = rng.uniform(-2.0, 2.0, m)
    elif kind == "rotation":
        p.update(theta=rng.uniform(0.0, 2.0 * math.pi), scale=lam * rng.choice([-1.0, 1.0]),
                 b=rng.uniform(-2.0, 2.0, 2))
    elif kind == "kepler":
        if rule != "apriori":
            raise ValueError("Kepler problems run under apriori only")
        p.update(e=lam * rng.choice([-1.0, 1.0]), M=rng.uniform(0.0, 2.0 * math.pi),
                 x0=rng.uniform(-3.0, 3.0, 1))
    else:
        p["c"] = rng.uniform(-5.0, 5.0, m)
    return p


def _scaled(steps: int, tiny: bool, div: int) -> int:
    return max(3, steps // div) if tiny else steps


def _long_scalar(rng, tiny: bool) -> list[dict]:
    out = []
    for kind, m, steps in LONG_SCALAR_SLOTS:
        steps = _scaled(steps, tiny, 50)
        p = _small_map(rng, kind, m, _lam_for(rng, steps, -9.0, -5.0), "apriori")
        out.append(_finish(p, steps))
    return out


def _wide_affine(rng, tiny: bool) -> list[dict]:
    out = []
    for m, steps in WIDE_AFFINE_SLOTS:
        if tiny:
            m, steps = max(4, m // 20), steps // 10
        p = _symmetric_affine(rng, m, _lam_for(rng, steps, -8.0, -6.0))
        p["rule"] = "aposteriori"
        out.append(_finish(p, steps))
    return out


def _builtin_problem(name: str, rule: str) -> dict:
    """The benchmark's description of a builtin, read off the program's catalog."""
    from cone_fixpoint import contraction, problems

    inst = problems.builtin(name)
    spec = inst.spec
    p = {"lam": spec.lam, "x0": np.array(inst.x0), "rule": rule, "eps": BUILTIN_EPS}
    if isinstance(spec, contraction.Affine):
        p.update(kind="affine", a=np.array(spec.a), b=np.array(spec.b))
    elif isinstance(spec, contraction.ScaledRotation):
        p.update(kind="rotation", theta=spec.theta, scale=spec.scale, b=np.array(spec.b))
    elif isinstance(spec, contraction.KeplerScalar):
        p.update(kind="kepler", e=spec.e, M=spec.mean_anomaly)
    else:
        p.update(kind="constant", c=np.array(spec.c))
    return _finish(p)


def _problem_document(p: dict, seed: int) -> dict:
    kind = p["kind"]
    if kind == "affine":
        map_obj = {"A": p["a"].tolist(), "b": p["b"].tolist()}
    elif kind == "rotation":
        map_obj = {"theta": p["theta"], "scale": p["scale"], "b": p["b"].tolist()}
    elif kind == "kepler":
        map_obj = {"e": p["e"], "M": p["M"]}
    else:
        map_obj = {"c": p["c"].tolist()}
    map_obj["kind"] = FILE_KIND[kind]
    return {"dimension": int(p["x0"].size), "lambda": p["lam"], "map": map_obj,
            "x0": p["x0"].tolist(), "rule": p["rule"], "eps": p["eps"], "seed": seed}


def _cli_roundtrip(rng, tiny: bool, seed: int, problem_dir: Path) -> list[dict]:
    out = []
    for source, what, m, rule, steps in CLI_SMALL + CLI_LONG:
        if source == "builtin":
            p = _builtin_problem(what, rule)
            p["builtin"] = what
        else:
            steps = _scaled(steps, tiny, 50) if steps > 100 else steps
            p = _finish(_small_map(rng, what, m, _lam_for(rng, steps, -9.0, -5.0), rule), steps)
        out.append(p)

    # Known faults, on inputs that do not depend on the seed.
    nan = _builtin_problem("AFFINE_1D", "apriori")
    nan.update(builtin="AFFINE_1D", known_fault="nan_trace")
    clustered = {"kind": "affine", "lam": 0.9, "a": np.diag([0.9, 0.899999]),
                 "b": np.array([1.0, 1.0]), "x0": np.zeros(2), "rule": "apriori",
                 "eps": BUILTIN_EPS, "known_fault": "clustered_spectrum"}
    out += [nan, _finish(clustered)]

    problem_dir.mkdir(parents=True, exist_ok=True)
    for i, p in enumerate(out):
        if "builtin" not in p:
            path = problem_dir / f"problem-{i:02d}.json"
            path.write_text(json.dumps(_problem_document(p, seed)))
            p["file"] = str(path)
    return out


def generate(workload: str, seed: int, tiny: bool, work_dir: Path) -> dict:
    """All inputs of one run: the problems of one round, in the seed's order,
    and the index of the warm-up problem."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "long_scalar":
        problems = _long_scalar(rng, tiny)
    elif workload == "wide_affine":
        problems = _wide_affine(rng, tiny)
    else:
        problems = _cli_roundtrip(rng, tiny, seed, work_dir / "problems")
    warmup = problems[0]
    order = rng.permutation(len(problems))
    return {"workload": workload, "problems": [problems[i] for i in order], "warmup": warmup}
