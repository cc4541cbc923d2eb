"""Span recording for the traced run, and the per-layer metrics built from it.

The tracer replaces, from outside the program, the module-level names through
which one layer calls another (``cone_fixpoint.engine.evaluate``,
``cone_fixpoint.cli.write_trace_csv``, ...) with wrappers that time each
call.  A long_scalar run makes millions of calls, so spans are folded into
per-name totals as they close rather than kept one by one: for each name the
call count, total time, self time (total minus the direct child spans it
covers), a unit count (steps, rows, bytes, point-witness pairs) and the time
spent in each direct child name.  The totals stay in memory and become the
per-layer metrics when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (attribute, modules that bind it, span name, units per call or None).
# Each module's own binding is patched, because ``from .x import f`` copies
# the name into the importing module.
BINDINGS = [
    ("as_vector", ("cone", "contraction", "engine", "certificate", "problems"), "cone.as_vector", None),
    ("norm", ("cone", "contraction", "engine", "certificate", "problems", "traceio"), "cone.norm", None),
    ("evaluate", ("contraction", "engine", "certificate", "problems", "traceio"),
     "contraction.evaluate", None),
    ("evaluate_batch", ("certificate",), "contraction.evaluate_batch", None),
    ("validate_contraction", ("contraction", "cli"), "contraction.validate_contraction", None),
    ("run", ("engine", "cli"), "engine.run", lambda args, res: res.n_steps),
    ("default_witnesses", ("certificate", "cli"), "certificate.default_witnesses", None),
    ("verify_certificate", ("certificate", "cli"), "certificate.verify_certificate",
     lambda args, res: (res.n_steps + 1) * len(res.witnesses)),
    ("builtin", ("cli",), "problems.builtin", None),
    ("load_problem_file", ("cli",), "traceio.load_problem_file", None),
    ("write_trace_csv", ("cli",), "traceio.write_trace_csv", lambda args, res: args[0].xs.shape[0]),
    ("read_trace_csv", ("cli",), "traceio.read_trace_csv", lambda args, res: res.xs.shape[0]),
    ("certificate_doc", ("cli",), "traceio.certificate_doc", None),
    ("write_certificate", ("cli",), "traceio.write_certificate", None),
    ("write_text_atomic", ("traceio",), "traceio.write_text_atomic", lambda args, res: len(args[1])),
]
FOR_PROBLEM = "certificate.OmegaSpec.for_problem"


class Tracer:
    def __init__(self):
        # name -> [calls, total seconds, self seconds, units]
        self.stats: dict[str, list] = {}
        # (parent name, child name) -> seconds spent in that direct child
        self.within: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list] = []

    def wrap(self, fn, name: str, units=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, within, clock = self._stack, self.within, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += spent
                stat[2] += spent - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += spent
                    within[parent[0], name] += spent
            if units is not None:
                stat[3] += units(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, units=None):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(self.wrap(original.__func__, name, units)))
        else:
            setattr(owner, attr, self.wrap(original, name, units))

    def install(self, package, entries: dict):
        """Patch every binding in BINDINGS, OmegaSpec.for_problem, and the
        benchmark's own CLI entry points ``entries['solve'/'certify']``."""
        for attr, modules, name, units in BINDINGS:
            for mod_name in modules:
                module = getattr(package, mod_name)
                if attr in module.__dict__:
                    self.patch(module, attr, name, units)
        self.patch(package.certificate.OmegaSpec, "for_problem", FOR_PROBLEM)
        for role in ("solve", "certify"):
            entries[role] = self.wrap(entries[role], f"cli.{role}")


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics of a traced run of ``n_ops`` operations.  A metric of
    a layer that did not run in the workload reads 0."""
    zero = [0, 0.0, 0.0, 0]

    def calls(name):
        return tracer.stats.get(name, zero)[0]

    def total(name):
        return tracer.stats.get(name, zero)[1]

    def self_time(name):
        return tracer.stats.get(name, zero)[2]

    def units(name):
        return tracer.stats.get(name, zero)[3]

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    verify = "certificate.verify_certificate"
    witness_time = total(FOR_PROBLEM) + total("certificate.default_witnesses")
    verify_time = (total(verify) - tracer.within[verify, FOR_PROBLEM]
                   - tracer.within[verify, "certificate.default_witnesses"])
    values = {
        "engine.step_us": ("us", ratio(total("engine.run"), units("engine.run"), 1e6)),
        "engine.self_step_us": ("us", ratio(self_time("engine.run"), units("engine.run"), 1e6)),
        "cone.as_vector_calls": ("count", ratio(calls("cone.as_vector"), n_ops)),
        "cone.norm_calls": ("count", ratio(calls("cone.norm"), n_ops)),
        "cone.norm_us": ("us", ratio(total("cone.norm"), calls("cone.norm"), 1e6)),
        "contraction.evaluate_us": ("us", ratio(total("contraction.evaluate"),
                                                calls("contraction.evaluate"), 1e6)),
        "contraction.evaluate_calls": ("count", ratio(calls("contraction.evaluate"), n_ops)),
        "contraction.validate_ms": ("ms", ratio(total("contraction.validate_contraction"), n_ops, 1e3)),
        "contraction.evaluate_batch_ms": ("ms", ratio(total("contraction.evaluate_batch"), n_ops, 1e3)),
        "engine.run_ms": ("ms", ratio(total("engine.run"), n_ops, 1e3)),
        "certificate.witnesses_ms": ("ms", ratio(witness_time, n_ops, 1e3)),
        "certificate.verify_ms": ("ms", ratio(verify_time, n_ops, 1e3)),
        "certificate.verify_ns_per_point_witness": ("ns", ratio(verify_time, units(verify), 1e9)),
        "traceio.write_trace_us_per_row": ("us", ratio(total("traceio.write_trace_csv"),
                                                       units("traceio.write_trace_csv"), 1e6)),
        "traceio.read_trace_us_per_row": ("us", ratio(total("traceio.read_trace_csv"),
                                                      units("traceio.read_trace_csv"), 1e6)),
        "traceio.load_problem_ms": ("ms", ratio(total("traceio.load_problem_file"),
                                                calls("traceio.load_problem_file"), 1e3)),
        "traceio.certificate_doc_ms": ("ms", ratio(total("traceio.certificate_doc"),
                                                   calls("traceio.certificate_doc"), 1e3)),
        "traceio.write_certificate_ms": ("ms", ratio(total("traceio.write_certificate"),
                                                     calls("traceio.write_certificate"), 1e3)),
        "traceio.bytes_written": ("bytes", ratio(units("traceio.write_text_atomic"), n_ops)),
        "problems.builtin_ms": ("ms", ratio(total("problems.builtin"), calls("problems.builtin"), 1e3)),
        "cli.solve_self_ms": ("ms", ratio(self_time("cli.solve"), calls("cli.solve"), 1e3)),
        "cli.certify_self_ms": ("ms", ratio(self_time("cli.certify"), calls("cli.certify"), 1e3)),
    }
    return {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}
