"""Spans around the calls the program makes through its module namespaces.

A :class:`Tracer` replaces named attributes (module functions, class
methods) by wrappers that record a span (name, start, end, parent, attrs),
keeps the spans in memory and restores the originals on ``uninstall``.
Per-layer metrics are then computed from one pass's spans; a span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (owner path, attribute, span name, annotate) for every traced entry point.
# ``annotate(args, kwargs, result)`` returns extra numbers kept on the span.
TRACE_POINTS = [
    ("cli", "main", "cli.main", None),
    ("cli", "write_json", "cli.write", None),
    ("cli", "write_csv", "cli.write", None),
    ("panel", "write_panel", "panel.write", None),
    ("panel", "read_panel", "panel.read", lambda a, k, r: {"rows": len(r)}),
    ("panel", "validate_panel", "panel.validate", None),
    ("estimator", "validate_panel", "panel.validate", None),
    ("simulate", "simulate_panel", "simulate.panel", None),
    ("estimator.PanelDesign", "__init__", "estimator.design", None),
    ("estimator.PanelDesign", "loglik", "estimator.loglik", None),
    ("estimator", "fit_msm", "estimator.fit_msm", None),
    ("estimator", "minimize", "estimator.minimize", lambda a, k, r: {"nit": int(r.nit)}),
    ("estimator", "hessian_fd", "estimator.hessian", None),
    ("estimator", "gradient_fd", "estimator.gradient", None),
    ("kalman", "fit_filter", "kalman.fit_filter", None),
    ("kalman", "run_filter", "kalman.run_filter", None),
    ("kalman", "hessian_fd", "kalman.hessian", None),
    ("kalman", "diagnostics", "kalman.diagnostics", None),
    ("kalman", "forecast", "kalman.forecast", None),
    ("trendtests", "run_trend_tests", "trendtests.run_trend_tests", None),
    ("trendtests", "simulate_critical_values", "trendtests.critical_values",
     lambda a, k, r: {"reps": int(r.reps)}),
    ("gain", "power", "gain.power", None),
]


def _resolve(path: str):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"msmtrend.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder that patches the program's namespaces."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, attrs]
        self._stack: list = []
        self._patches: list = []

    def install(self) -> None:
        for path, attr, name, annotate in TRACE_POINTS:
            owner = _resolve(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, annotate))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, annotate):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span[4] = annotate(args, kwargs, result)
            return result

        return traced

    def dump(self, path, label: str = "") -> None:
        """Append the spans to a JSON-lines file."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"pass": label, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "attrs": attrs}) + "\n")


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from the spans of one traced pass."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    total: dict = {}  # outermost duration per name (recursion counted once)
    self_time: dict = {}
    calls: dict = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        if name not in ancestors(i):
            total[name] = total.get(name, 0.0) + (end - start)

    def attr_sum(span_name, key):
        return sum(s[4][key] for s in spans if s[0] == span_name and s[4])

    loglik_under = {"estimator.minimize": 0, "estimator.hessian": 0, "polish": 0}
    polish_s = total.get("estimator.gradient", 0.0)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name != "estimator.loglik":
            continue
        anc = list(ancestors(i))
        if "estimator.fit_msm" not in anc:
            continue
        if "estimator.minimize" in anc:
            loglik_under["estimator.minimize"] += 1
        elif "estimator.hessian" in anc:
            loglik_under["estimator.hessian"] += 1
        else:
            loglik_under["polish"] += 1
            if spans[parent][0] == "estimator.fit_msm":
                polish_s += end - start

    t = total.get
    loglik_calls = calls.get("estimator.loglik", 0)
    cv_reps = attr_sum("trendtests.critical_values", "reps")
    return {
        "cli.self_s": self_time.get("cli.main", 0.0),
        "cli.write_s": t("cli.write", 0.0),
        "panel.write_s": t("panel.write", 0.0),
        "panel.read_s": t("panel.read", 0.0),
        "panel.validate_s": t("panel.validate", 0.0),
        "panel.validate_calls": calls.get("panel.validate", 0),
        "panel.rows": attr_sum("panel.read", "rows"),
        "simulate.panel_s": t("simulate.panel", 0.0),
        "estimator.design_s": self_time.get("estimator.design", 0.0),
        "estimator.design_calls": calls.get("estimator.design", 0),
        "estimator.loglik_calls": loglik_calls,
        "estimator.loglik_s": t("estimator.loglik", 0.0),
        "estimator.loglik_ms": 1e3 * t("estimator.loglik", 0.0) / loglik_calls if loglik_calls else 0.0,
        "estimator.optimizer_s": t("estimator.minimize", 0.0),
        "estimator.optimizer_loglik_calls": loglik_under["estimator.minimize"],
        "estimator.optimizer_iterations": attr_sum("estimator.minimize", "nit"),
        "estimator.hessian_s": t("estimator.hessian", 0.0),
        "estimator.hessian_calls": calls.get("estimator.hessian", 0),
        "estimator.hessian_loglik_calls": loglik_under["estimator.hessian"],
        "estimator.polish_s": polish_s,
        "estimator.polish_loglik_calls": loglik_under["polish"],
        "estimator.fit_self_s": self_time.get("estimator.fit_msm", 0.0),
        "kalman.fit_filter_calls": calls.get("kalman.fit_filter", 0),
        "kalman.fit_filter_s": t("kalman.fit_filter", 0.0),
        "kalman.run_filter_calls": calls.get("kalman.run_filter", 0),
        "kalman.run_filter_s": t("kalman.run_filter", 0.0),
        "kalman.hessian_s": t("kalman.hessian", 0.0),
        "kalman.diagnostics_s": t("kalman.diagnostics", 0.0),
        "kalman.forecast_s": t("kalman.forecast", 0.0),
        "trendtests.critical_values_calls": calls.get("trendtests.critical_values", 0),
        "trendtests.critical_values_s": t("trendtests.critical_values", 0.0),
        "trendtests.mc_reps": cv_reps,
        "trendtests.mc_reps_per_s": cv_reps / t("trendtests.critical_values") if cv_reps else 0.0,
        "trendtests.run_trend_tests_s": t("trendtests.run_trend_tests", 0.0),
        "gain.power_s": t("gain.power", 0.0),
    }
