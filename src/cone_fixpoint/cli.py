"""Command-line front end.

Three subcommands:

* ``solve``    run the augmented iteration, write the trace CSV, print a summary;
* ``certify``  run (or reload with ``--verify``) a trace, check it against
  sampled witnesses, write the certificate JSON;
* ``omega``    report the bounding-set membership of one augmented point.

Exit codes: 0 success / verdict pass; 1 verification fail (or non-member);
2 usage or parse error, or an output path that cannot be written; 3 numerical
outcome (iteration cap hit, declared factor refuted).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .certificate import (
    DEFAULT_WITNESS_SAMPLES,
    OmegaSpec,
    omega_bounds,
    omega_contains,
    verify_certificate,
)
from .cone import AugmentedPoint, TolerancePolicy
from .contraction import validate_contraction
from .engine import DEFAULT_MAX_ITERATIONS, APosteriori, APriori, StopReason, run
from .errors import ConeFixpointError, NotAContractionError
from .problems import builtin, builtin_catalog
from .traceio import (
    certificate_doc,
    load_problem_file,
    map_to_dict,
    read_trace_csv,
    write_certificate,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULT_EPS = 1e-8
DEFAULT_SEED = 0


class _ListBuiltins(argparse.Action):
    """``solve --list``: print the builtin problems and exit, as ``--help``
    does, before a problem source is required."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        for p in builtin_catalog():
            print(f"{p.name:12s} m={p.spec.dimension} lambda={p.spec.lam}")
        parser.exit()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cone-fixpoint",
        description="Fixed-point solver with cone-order convergence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_source(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--builtin", metavar="NAME",
                       help="builtin problem name (see --list in 'solve')")
        g.add_argument("--problem", metavar="FILE", help="problem JSON file")

    p_solve = sub.add_parser("solve", help="run the augmented iteration")
    add_problem_source(p_solve)
    p_solve.add_argument("--rule", choices=("apriori", "aposteriori"), default=None)
    p_solve.add_argument("--eps", type=float, default=None)
    p_solve.add_argument("--max-iter", type=int, default=None)
    p_solve.add_argument("--out", default="trace.csv", help="trace CSV path")
    p_solve.add_argument("--list", action=_ListBuiltins, help="list builtin problems and exit")

    p_cert = sub.add_parser("certify", help="produce and verify a certificate")
    add_problem_source(p_cert)
    p_cert.add_argument("--eps", type=float, default=None)
    p_cert.add_argument("--max-iter", type=int, default=None)
    p_cert.add_argument("--omega-samples", type=int, default=DEFAULT_WITNESS_SAMPLES)
    p_cert.add_argument("--seed", type=int, default=None)
    p_cert.add_argument("--out", default="certificate.json", help="certificate JSON path")
    p_cert.add_argument("--full", action="store_true",
                        help="include full per-step residual arrays")
    p_cert.add_argument("--verify", metavar="TRACE.csv", default=None,
                        help="verify an existing trace instead of solving")

    p_omega = sub.add_parser("omega", help="test bounding-set membership of (x, t)")
    add_problem_source(p_omega)
    p_omega.add_argument("--x", required=True,
                         help="comma-separated point coordinates, e.g. 0.8,0.4")
    p_omega.add_argument("--t", required=True, type=float)
    return parser


def _load_problem(args):
    """Resolve the problem source to (name, spec, x0, run_params, echo)."""
    if args.builtin is not None:
        inst = builtin(args.builtin)
        echo = {
            "builtin": inst.name,
            "dimension": inst.spec.dimension,
            "lambda": inst.spec.lam,
            "map": map_to_dict(inst.spec),
            "x0": inst.x0.tolist(),
        }
        return inst.name, inst.spec, inst.x0, {}, echo
    (spec, x0, run_params), raw = load_problem_file(args.problem)
    return args.problem, spec, x0, run_params, raw


def _pick(cli_value, run_params, key, fallback):
    if cli_value is not None:
        return cli_value
    if key in run_params:
        return run_params[key]
    return fallback


def _make_rule(args, run_params):
    rule_name = _pick(getattr(args, "rule", None), run_params, "rule", "apriori")
    eps = float(_pick(args.eps, run_params, "eps", DEFAULT_EPS))
    max_iter = int(_pick(args.max_iter, run_params, "max_iterations", DEFAULT_MAX_ITERATIONS))
    cls = APriori if rule_name == "apriori" else APosteriori
    return cls(eps=eps, max_iterations=max_iter)


def _print_summary(name, trace, out_path):
    lam = trace.spec.lam
    print(f"problem        {name}")
    print(f"stop           {trace.stop_reason.value if trace.stop_reason else 'n/a'}")
    print(f"N              {trace.n_steps}")
    print(f"d              {trace.d:.12g}")
    print(f"lambda         {lam:.12g}")
    print(f"t_star         {trace.t_star:.12g}")
    print(f"final_bound    {trace.final_bound():.12g}")
    print(f"final_x        {np.array2string(trace.xs[-1], precision=12)}")
    for w in trace.warnings:
        print(f"warning        {w}")
    print(f"trace          {out_path}")


def _cmd_solve(args) -> int:
    name, spec, x0, run_params, _ = _load_problem(args)
    validate_contraction(spec)
    trace = run(spec, x0, _make_rule(args, run_params))
    write_trace_csv(trace, args.out)
    _print_summary(name, trace, args.out)
    return EXIT_NUMERICAL if trace.stop_reason is StopReason.MAX_ITERATIONS else EXIT_OK


def _cmd_certify(args) -> int:
    name, spec, x0, run_params, echo = _load_problem(args)
    validate_contraction(spec)
    seed = int(_pick(args.seed, run_params, "seed", DEFAULT_SEED))
    tol = TolerancePolicy.default()

    hit_cap = False
    if args.verify is not None:
        trace = read_trace_csv(args.verify, spec, x0=x0)
    else:
        trace = run(spec, x0, _make_rule(args, run_params))
        hit_cap = trace.stop_reason is StopReason.MAX_ITERATIONS

    cert = verify_certificate(trace, None, tol, omega_sample_count=args.omega_samples, seed=seed)
    doc = certificate_doc(cert, problem_echo=echo, seed=seed, full=args.full)
    write_certificate(doc, args.out)
    print(f"problem        {name}")
    print(f"N              {cert.n_steps}")
    print(f"t_star         {cert.limit_point.t:.12g}")
    print(f"verdict        {'pass' if cert.passed else 'fail'}")
    if cert.first_failure:
        print(f"first_failure  {cert.first_failure}")
    print(f"certificate    {args.out}")
    if hit_cap:
        return EXIT_NUMERICAL
    return EXIT_OK if cert.passed else EXIT_FAIL


def _cmd_omega(args) -> int:
    _, spec, x0, _, _ = _load_problem(args)
    validate_contraction(spec)
    try:
        coords = [float(v) for v in args.x.split(",")]
    except ValueError:
        print(f"error: --x must be comma-separated floats, got {args.x!r}", file=sys.stderr)
        return EXIT_USAGE
    om = OmegaSpec.for_problem(spec, x0)
    point = AugmentedPoint(coords, args.t)
    b1, b2 = omega_bounds(om, point.x)
    member = omega_contains(om, point, TolerancePolicy.default())
    print(f"drift_bound    {b1:.17g}")
    print(f"residual_bound {b2:.17g}")
    print(f"t              {point.t:.17g}")
    print(f"member         {'yes' if member else 'no'}")
    return EXIT_OK if member else EXIT_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "certify":
            return _cmd_certify(args)
        return _cmd_omega(args)
    except NotAContractionError as exc:
        print(f"error: not a contraction: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConeFixpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
