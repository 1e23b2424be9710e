"""Spans around the public functions of each sfpp module, recorded from outside.

``Tracer.install`` replaces every public module-level function of the traced
modules by a wrapper that records a span (name, parent, start, end, count).
Callers inside the package reach these functions through the module
attribute (``numerics.logsumexp``, ``calibrator.fit``) or through the module
globals, so a wrapped function sees their calls too. ``uninstall`` puts the
originals back. Spans stay in memory until ``write`` saves them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import threading
import time

MODULES = ("ingest", "numerics", "calibrator", "estimator", "baselines", "bench", "cli")

# Spans whose self time is reported next to their inclusive time.
SELF_TIMED = ("calibrator.fit", "calibrator.posterior_matrix", "estimator.predict_accuracy")

INCLUSIVE = (
    "ingest.load_bundle", "ingest.write_report",
    "numerics.covariance", "numerics.cholesky_with_jitter", "numerics.solve_spd",
    "calibrator.fit", "calibrator.posterior_matrix", "estimator.predict_accuracy",
    "baselines.atc", "baselines.nuclear_norm_score", "numerics.nuclear_norm",
    "baselines.ac", "baselines.gradnorm", "baselines.doc",
    "baselines.cot", "baselines.sinkhorn_cost", "numerics.logsumexp",
    "bench.generate", "bench.train_classifier", "bench.run_scenario", "bench.write_mae_table",
)

# (metric, unit) of every per-layer figure one traced round yields.
METRICS = (
    [(f"{name}_s", "s") for name in INCLUSIVE]
    + [(f"{name}.self_s", "s") for name in SELF_TIMED]
    + [
        ("cli.self_s", "s"),
        ("ingest.report_bytes", "bytes"),
        ("estimator.rows_judged", "count"),
        ("baselines.sinkhorn_cost_calls", "count"),
        ("baselines.sinkhorn_iterations", "count"),
        ("baselines.cot_warm_start_hit_ratio", "ratio"),
        ("numerics.logsumexp_calls", "count"),
        ("bench.run_baseline_calls", "count"),
    ]
)


def _report_bytes(args, kwargs, result):
    return os.path.getsize(kwargs.get("path", args[1] if len(args) > 1 else None))


# Counts a span carries besides its times, taken from the call's result.
_COUNTS = {
    "ingest.write_report": _report_bytes,
    "estimator.predict_accuracy": lambda args, kwargs, result: int(result.n_samples),
    "baselines.sinkhorn_cost": lambda args, kwargs, result: int(result[2]),
}


class Tracer:
    def __init__(self):
        # [name, parent index or -1, start, end, count, raised, warm-started]
        self.spans = []
        self._local = threading.local()
        self._originals = []

    def _wrap(self, name, fn):
        spans, local = self.spans, self._local
        count = _COUNTS.get(name)
        is_sinkhorn = name == "baselines.sinkhorn_cost"

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            warm = is_sinkhorn and kwargs.get("warm_start") is not None
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None, False, warm]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        for short in MODULES:
            module = importlib.import_module(f"sfpp.{short}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{short}.{attr}", fn))

    def uninstall(self):
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)
        self._originals.clear()

    def write(self, fh, round_index: int):
        """Append this tracer's spans to ``fh`` as JSON lines tagged with the round."""
        for span in self.spans:
            fh.write(json.dumps([round_index, *span]) + "\n")


def layer_figures(spans) -> dict:
    """Per-layer totals of one traced round's spans.

    A name's inclusive time counts only its outermost spans, so a function
    reached again below itself is not counted twice. Self time is a span's
    duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, *_rest in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def has_ancestor(index, ancestor):
        parent = spans[index][1]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][1]
        return False

    inclusive, self_time, calls, counts = {}, {}, {}, {}
    warm_attempts = warm_hits = 0
    bench_baseline_calls = 0
    for index, (name, parent, start, end, count, raised, warm) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + duration - child_time[index]
        if not has_ancestor(index, name):
            inclusive[name] = inclusive.get(name, 0.0) + duration
        if count is not None:
            counts[name] = counts.get(name, 0) + count
        if warm:
            # A warm start that fails to converge raises; cot then retries cold.
            warm_attempts += 1
            warm_hits += not raised
        if name == "baselines.run_baseline" and has_ancestor(index, "bench.run_scenario"):
            bench_baseline_calls += 1

    out = {f"{name}_s": inclusive.get(name, 0.0) for name in INCLUSIVE}
    out.update({f"{name}.self_s": self_time.get(name, 0.0) for name in SELF_TIMED})
    out["cli.self_s"] = sum(t for name, t in self_time.items() if name.startswith("cli."))
    out["ingest.report_bytes"] = counts.get("ingest.write_report", 0)
    out["estimator.rows_judged"] = counts.get("estimator.predict_accuracy", 0)
    out["baselines.sinkhorn_cost_calls"] = calls.get("baselines.sinkhorn_cost", 0)
    out["baselines.sinkhorn_iterations"] = counts.get("baselines.sinkhorn_cost", 0)
    out["baselines.cot_warm_start_hit_ratio"] = warm_hits / warm_attempts if warm_attempts else 0.0
    out["numerics.logsumexp_calls"] = calls.get("numerics.logsumexp", 0)
    out["bench.run_baseline_calls"] = bench_baseline_calls
    return out


def median_figures(rounds) -> dict:
    return {metric: statistics.median(r[metric] for r in rounds) for metric, _unit in METRICS}
