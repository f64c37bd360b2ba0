"""Span tracing of repapprox's layers, installed from outside the package.

``install`` replaces each function in TARGETS by a wrapper at every place
the package binds it (the defining module and every ``from .x import f``
site), so calls are seen whichever name they go through.  Spans are kept
in memory as [name, start, end, parent, op, nested, attrs] and written out
when the run ends; ``layer_metrics`` turns them into the per-layer numbers.
"""

import functools
import sys
import time
from collections import Counter, defaultdict


def _bits(value):
    n, d = int(value.numerator), int(value.denominator)
    return abs(n).bit_length() + (d.bit_length() if d != 1 else 0)


def _refine_digits(args, kwargs, result):
    eps = kwargs.get("eps", args[2] if len(args) > 2 else None)
    return {"digits": _bits(1 / eps) * 0.30103}


def _all_roots_key(args, kwargs, result):
    return {"key": repr((args, sorted(kwargs.items())))}


def _table_id(args, kwargs, result):
    return {"id": int(args[0])}


def _out_bits(args, kwargs, result):
    return {"bits": 0 if result is None else sum(_bits(e) for row in result.entries for e in row)}


def _step_digits(args, kwargs, result):
    return {"digits": 0 if result is None else int(result.x_n.denominator).bit_length() * 0.30103}


# (module, attribute, span name, attrs(args, kwargs, result) or None);
# result is None when the call raised.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("bench", "reproduce_table", "bench.table", _table_id),
    ("roots", "refine_real_root", "roots.refine_real_root", _refine_digits),
    ("roots", "all_roots", "roots.all_roots", _all_roots_key),
    ("roots", "isolate_real_roots", "roots.isolate_real_roots", None),
    ("convergence", "analyze", "convergence.analyze", None),
    ("convergence", "limit_ratio", "convergence.limit_ratio", None),
    ("convergence", "limit_enclosure", "convergence.limit_enclosure", None),
    ("powers", "error_reference", "powers.error_reference", None),
    ("powers", "mat_pow", "powers.mat_pow", _out_bits),
    ("powers", "ratio_sequence", "powers.ratio_sequence", None),
    ("powers", "accelerated_sequence", "powers.accelerated_sequence", None),
    ("powers", "constant_ratio_check", "powers.constant_ratio_check", None),
    ("iterative", "step", "iterative.step", _step_digits),
    ("iterative", "sweep_initial_conditions", "iterative.sweep", None),
    ("iterative", "_resolve_target", "iterative.target", None),
    ("polynomial", "Polynomial.eval", "polynomial.eval", None),
    ("backends", "format_rational", "backends.format", None),
    ("backends", "sci_string", "backends.format", None),
    ("backends", "decimal_digit_count", "backends.decimal_digit_count", None),
)

KERNEL = ("powers.mat_pow", "powers.ratio_sequence", "powers.accelerated_sequence",
          "powers.constant_ratio_check")
SEQUENCES = ("powers.ratio_sequence", "powers.accelerated_sequence")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = Counter()
        self.op = None

    def wrap(self, name, fn, attrs):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    active[name] > 0, None]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                active[name] -= 1
                stack.pop()
                if attrs is not None:
                    try:
                        span[6] = attrs(args, kwargs, result)
                    except Exception:  # a changed signature must not change the run
                        span[6] = {}

        return traced


def install(tracer):
    """Wrap every TARGETS function at each module that binds it.

    Returns the targets the package no longer has; their metrics read 0.
    """
    import repapprox.bench  # noqa: F401  (cli imports it too; be explicit)
    import repapprox.cli  # noqa: F401

    modules = [m for n, m in sys.modules.items() if n == "repapprox" or n.startswith("repapprox.")]
    missing = []
    for modname, attr, name, attrs in TARGETS:
        owner = sys.modules.get(f"repapprox.{modname}")
        *path, attr = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{modname}.{'.'.join(path + [attr])}")
            continue
        wrapped = tracer.wrap(name, original, attrs)
        setattr(owner, attr, wrapped)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return missing


def layer_metrics(spans):
    """Per-layer metrics from one process's spans (see BENCHMARK.json)."""
    calls = Counter()
    inclusive = defaultdict(float)  # outermost spans only, so recursion is not counted twice
    child = defaultdict(float)
    for name, start, end, parent, _op, nested, _attrs in spans:
        calls[name] += 1
        if not nested:
            inclusive[name] += end - start
        if parent >= 0:
            child[parent] += end - start

    def self_time(names):
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(spans) if s[0] in names)

    def attr_sum(name, key):
        return sum(s[6].get(key, 0) for s in spans if s[0] == name)

    seen, repeats = set(), 0
    for s in spans:
        if s[0] == "roots.all_roots":
            key = s[6].get("key")
            repeats += key in seen
            seen.add(key)
    roots_in_analyze = sum(1 for s in spans if s[0] == "roots.all_roots"
                           and s[3] >= 0 and spans[s[3]][0] == "convergence.analyze")
    sequences = sum(1 for s in spans if s[0] in SEQUENCES
                    and not (s[3] >= 0 and spans[s[3]][0] in SEQUENCES))
    table_s = defaultdict(float)
    for s in spans:
        if s[0] == "bench.table":
            table_s[s[6].get("id")] += s[2] - s[1]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in ("roots.refine_real_root", "roots.all_roots", "roots.isolate_real_roots",
                 "convergence.analyze", "convergence.limit_ratio",
                 "convergence.limit_enclosure", "powers.error_reference", "iterative.step",
                 "polynomial.eval", "backends.format", "backends.decimal_digit_count"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = inclusive[name]
    out["roots.refine_real_root.digits"] = attr_sum("roots.refine_real_root", "digits")
    out["roots.all_roots.repeat_ratio"] = ratio(repeats, calls["roots.all_roots"])
    out["convergence.analyze.roots_per_call"] = ratio(roots_in_analyze, calls["convergence.analyze"])
    out["powers.error_reference.per_sequence"] = ratio(calls["powers.error_reference"], sequences)
    out["powers.kernel.s"] = self_time(KERNEL)
    out["powers.mat_pow.out_bits"] = attr_sum("powers.mat_pow", "bits")
    out["iterative.step.out_digits"] = attr_sum("iterative.step", "digits")
    out["iterative.sweep.s"] = inclusive["iterative.sweep"]
    out["iterative.target.s"] = inclusive["iterative.target"]
    out["cli.self.s"] = self_time(("cli.main",))
    out["bench.table1-5.s"] = sum(table_s[t] for t in range(1, 6))
    out["bench.table6.s"] = table_s[6]
    out["bench.table7.s"] = table_s[7]
    return out
