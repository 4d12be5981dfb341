"""Span tracing of the amplify_acct layers, installed from outside the package.

``install`` replaces each traced public function with a wrapper in every
``amplify_acct`` module namespace that binds it (``accountant`` imports
``forward_exact_k1_curve`` from ``rdp_math``, so both bindings are patched),
and ``uninstall`` puts the originals back.  A wrapper records one span
(name, start, end, parent, op id) per call and adds the call's work counts
to the tracer's counters.  ``training_sim.stream`` is called tens of
thousands of times per run, so it is an aggregate timer and counter instead
of one span per call.

Spans stay in memory; ``Tracer.dump`` writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "amplify_acct"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    op: int
    agg_child_s: float = 0.0  # time of aggregate-timed calls made inside this span


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(int))
    op: int = -1
    _stack: list = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")


def self_times(spans) -> dict:
    """Per span name, the summed duration minus the time its child spans cover.

    Children of one span may not overlap in a single-threaded run, but the
    covered time is computed as a union of intervals clipped to the parent
    so the arithmetic holds either way.  Time of aggregate-timed calls made
    inside a span (``agg_child_s``) is not the span's own time either.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = defaultdict(float)
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.name] += max(0.0, (s.end - s.start) - covered - s.agg_child_s)
    return dict(out)


# ---------------------------------------------------------------- work counts
# Each function returns {counter suffix: amount} from a call's arguments and
# result, so the counts are defined by the inputs, not by the code's path.


def _n_centers(mixture) -> int:
    return int((mixture.weights > 0).sum())


def _enum_counts(args, kwargs, result):
    alpha = int(args[1] if len(args) > 1 else kwargs["alpha"])
    return {"tuples": _n_centers(args[0]) ** alpha}


def _rdp_curve_counts(args, kwargs, result):
    return {"orders": len(result.orders)}


def _calibrate_counts(args, kwargs, result):
    return {"probes": result.iterations + 2}


def _quad_counts(args, kwargs, result):
    from amplify_acct import oracles

    m_num, m_den, alpha = args[:3]
    spec = args[3] if len(args) > 3 else kwargs.get("spec")
    axes = oracles._grid_axes(m_num, m_den, int(alpha), spec or oracles.QuadratureSpec())
    return {"points": math.prod(len(a) for a in axes)}


def _mc_counts(args, kwargs, result):
    return {"samples": result.n_samples}


def _logpdf_counts(args, kwargs, result):
    mixture = args[0]
    rows = len(result)
    return {"rows": rows, "bytes_computed": rows * mixture.centers.shape[0] * mixture.dim * 8}


def _write_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, metric name, counts function).  A dotted attribute is a
# method on a class of that module.
TARGETS = (
    ("rdp_math", "forward_exact_k1_curve", "rdp_math.forward_exact_k1_curve", None),
    ("rdp_math", "forward_exact_enum", "rdp_math.forward_exact_enum", _enum_counts),
    ("rdp_math", "epsilon_tight", "rdp_math.epsilon_tight", None),
    ("rdp_math", "forward_bound_curve", "rdp_math.forward_bound_curve", None),
    ("rdp_math", "reverse_bound_curve", "rdp_math.reverse_bound_curve", None),
    ("rdp_math", "family_mixture", "rdp_math.family_mixture", None),
    ("accountant", "rdp_curve", "accountant.rdp_curve", _rdp_curve_counts),
    ("accountant", "calibrate_sigma", "accountant.calibrate_sigma", _calibrate_counts),
    ("accountant", "to_dp", "accountant.to_dp", None),
    ("accountant", "to_delta", "accountant.to_delta", None),
    ("accountant", "compare_bis_poisson", "accountant.compare_bis_poisson", None),
    ("oracles", "quad_renyi", "oracles.quad_renyi", _quad_counts),
    ("oracles", "mc_renyi", "oracles.mc_renyi", _mc_counts),
    ("oracles", "mixture_logpdf", "oracles.mixture_logpdf", _logpdf_counts),
    ("oracles", "verify_sandwich", "oracles.verify_sandwich", None),
    ("oracles", "verify_offset_identity", "oracles.verify_offset_identity", None),
    ("oracles", "verify_dim_reduction", "oracles.verify_dim_reduction", None),
    ("training_sim", "run_model_split_training", "training_sim.run_model_split_training", None),
    ("training_sim", "run_dropout_training", "training_sim.run_dropout_training", None),
    ("training_sim", "assign_bis_schedule", "training_sim.assign_bis_schedule", None),
    ("training_sim", "report_privacy", "training_sim.report_privacy", None),
    ("training_sim", "SimTrace.write_jsonl", "training_sim.write", _write_counts),
    ("training_sim", "SimTrace.write_summary", "training_sim.write", _write_counts),
    ("cli", "main", "cli.main", None),
)

# Called once per (iteration, sample): timed in aggregate, no spans.
AGGREGATE_TARGETS = (("training_sim", "stream", "training_sim.stream"),)


def _span_wrapper(tracer: Tracer, fn, name: str, counts):
    clock = time.perf_counter
    spans, stack, counters = tracer.spans, tracer._stack, tracer.counters

    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else -1
        idx = len(spans)
        span = Span(name, clock(), 0.0, parent, tracer.op)
        spans.append(span)
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = clock()
            stack.pop()
        counters[name + ".calls"] += 1
        if counts is not None:
            for key, value in counts(args, kwargs, result).items():
                counters[f"{name}.{key}"] += value
        if name == "accountant.rdp_curve" and (parent < 0 or spans[parent].name != name):
            for tag in result.provenance:
                counters[f"accountant.provenance.{tag}"] += 1
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _aggregate_wrapper(tracer: Tracer, fn, name: str):
    clock = time.perf_counter
    spans, stack, counters = tracer.spans, tracer._stack, tracer.counters

    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            counters[name + ".calls"] += 1
            counters[name + ".self_s"] += dt
            if stack:
                spans[stack[-1]].agg_child_s += dt

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def install(tracer: Tracer) -> list:
    """Patch every binding of every target; returns the undo list for ``uninstall``."""
    undo = []
    homes = {mod: importlib.import_module(f"{PACKAGE}.{mod}") for mod, *_ in TARGETS + AGGREGATE_TARGETS}
    modules = _package_modules()
    plans = [(mod, attr, name, counts, False) for mod, attr, name, counts in TARGETS]
    plans += [(mod, attr, name, None, True) for mod, attr, name in AGGREGATE_TARGETS]
    for mod_name, attr, name, counts, aggregate in plans:
        home = homes[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _span_wrapper(tracer, original, name, counts))
            undo.append((cls, meth, original))
            continue
        original = getattr(home, attr)
        wrapper = _aggregate_wrapper(tracer, original, name) if aggregate else _span_wrapper(tracer, original, name, counts)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def bindings(fn) -> list:
    """(module name, attribute) of every package namespace binding ``fn``."""
    return [(m.__name__, k) for m in _package_modules() for k, v in vars(m).items() if v is fn]


def span_names() -> list:
    return sorted({name for _, _, name, _ in TARGETS})
