"""Outside-in tracing: wrap the public functions of each mhestab layer at every
module attribute that binds them, record one span per call, and restore the
original attributes afterwards.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, cell, tag]``: ``parent`` is the index
of the enclosing span (-1 at the top), ``cell`` numbers the ``run_cell`` call
the span belongs to (-1 outside cells), and ``tag`` holds what the wrapper read
off the call (the engine and iterations of a window solve, the verdict of a
certification, the bytes of an artifact).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

ENGINES = ("max-interval", "sum-pwl-dp", "gauss-newton", "compass")


def _solve_tag(args, kwargs, result):
    return [result.engine, int(result.iterations)]


def _certify_tag(args, kwargs, result):
    return bool(result.passed)


def _write_tag(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8"))


# (defining module, function name, span name, tag function)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("mhestab.cli", "main", "cli.main", None),
    ("mhestab.harness", "resolve", "harness.resolve", None),
    ("mhestab.harness", "run_cell", "harness.run_cell", None),
    ("mhestab.harness", "_write", "harness.write", _write_tag),
    ("mhestab.comparison", "check_summable", "comparison.check_summable", None),
    ("mhestab.comparison", "triangle_constant", "comparison.triangle_constant", None),
    ("mhestab.certificates", "check_compatibility", "certificates.check_compatibility", None),
    ("mhestab.certificates", "default_cost_from_certificate", "certificates.default_cost", None),
    ("mhestab.systems", "simulate", "systems.simulate", None),
    ("mhestab.systems", "generate_scenario", "systems.generate_scenario", None),
    ("mhestab.estimator", "run_fie", "estimator.drive", None),
    ("mhestab.estimator", "run_mhe", "estimator.drive", None),
    ("mhestab.estimator", "solve_window", "estimator.solve_window", _solve_tag),
    ("mhestab.estimator", "certify_suboptimality", "estimator.certify", _certify_tag),
    ("mhestab.stability", "find_contraction_max", "stability.contraction", None),
    ("mhestab.stability", "find_contraction_sum", "stability.contraction", None),
    ("mhestab.stability", "build_hat_bounds", "stability.hat_build", None),
    ("mhestab.stability", "build_bar_bounds", "stability.bar_build", None),
)


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` puts every attribute back."""

    def __init__(self):
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._cells = 0
        self._patched: List[Tuple[object, str, object]] = []

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "mhestab" or name.startswith("mhestab."))]
        for mod_name, attr, span_name, tag in TARGETS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(fn, span_name, tag)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, span_name: str, tag):
        spans, stack = self.spans, self._stack
        is_cell = span_name == "harness.run_cell"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_cell:
                cell = self._cells
                self._cells += 1
            else:
                cell = spans[parent][4] if parent >= 0 else -1
            span = [span_name, 0.0, 0.0, parent, cell, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if tag is not None:
                span[5] = tag(args, kwargs, result)
            return result

        return wrapper


def self_times(spans: List[list]) -> List[float]:
    """Span duration minus the time covered by its direct children (calls
    are synchronous, so children never overlap)."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _percentile(sorted_vals: List[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, max(0, int(round(q * (len(sorted_vals) - 1)))))
    return sorted_vals[idx]


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer numbers from the spans of one traced run (before the import
    probes and ``trace.*`` numbers, which the caller adds)."""
    selfs = self_times(spans)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    engine_s: Dict[str, float] = defaultdict(float)
    engine_n: Dict[str, int] = defaultdict(int)
    engine_it: Dict[str, int] = defaultdict(int)
    windows: List[float] = []
    certified = 0
    artifact_bytes = 0
    for span, own in zip(spans, selfs):
        name = span[0]
        self_s[name] += own
        calls[name] += 1
        if name == "estimator.solve_window":
            engine, iterations = span[5]
            engine_s[engine] += own
            engine_n[engine] += 1
            engine_it[engine] += iterations
            windows.append(span[2] - span[1])
        elif name == "estimator.certify":
            certified += bool(span[5])
        elif name == "harness.write":
            artifact_bytes += span[5]
    windows.sort()
    m = {
        "comparison.check_summable.s": self_s["comparison.check_summable"],
        "comparison.check_summable.calls": calls["comparison.check_summable"],
        "comparison.triangle_constant.s": self_s["comparison.triangle_constant"],
        "certificates.check_compatibility.s": self_s["certificates.check_compatibility"],
        "certificates.default_cost.s": self_s["certificates.default_cost"],
        "systems.simulate.s": self_s["systems.simulate"],
        "systems.generate_scenario.s": self_s["systems.generate_scenario"],
    }
    for engine in ENGINES:
        m[f"estimator.engine.{engine}.s"] = engine_s[engine]
        m[f"estimator.engine.{engine}.windows"] = engine_n[engine]
        m[f"estimator.engine.{engine}.iterations"] = engine_it[engine]
    m.update({
        "estimator.window_p50_ms": 1e3 * _percentile(windows, 0.50),
        "estimator.window_p99_ms": 1e3 * _percentile(windows, 0.99),
        "estimator.drive.self_s": self_s["estimator.drive"],
        "estimator.certify.s": self_s["estimator.certify"],
        "estimator.certify.calls": calls["estimator.certify"],
        "estimator.certified_share": certified / calls["estimator.certify"]
        if calls["estimator.certify"] else 0.0,
        "stability.contraction.s": self_s["stability.contraction"],
        "stability.contraction.calls": calls["stability.contraction"],
        "stability.hat_build.s": self_s["stability.hat_build"],
        "stability.bar_build.s": self_s["stability.bar_build"],
        "harness.resolve.s": self_s["harness.resolve"],
        "harness.run_cell.self_s": self_s["harness.run_cell"],
        "harness.write.s": self_s["harness.write"],
        "harness.artifact_bytes": artifact_bytes,
    })
    return m
