"""Benchmark-side tracing of hughop's layers.

Spans are recorded from outside the program: a target proxy and kernel
wrappers are passed into ``harness.run_kernels`` and ``models.GibbsSampler``,
and a fixed list of module attributes is replaced by timing wrappers.  The
patches are in place only while a traced unit runs.

Each span is (name, start, end, parent) and lives in flat arrays until the
run ends.  A span's self time is its duration minus the durations of its
direct children, which is exact because the program is single-threaded and
spans nest strictly.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PATCHED_MODULES = ("baselines", "cli", "diagnostics", "harness", "hop", "hug", "model_runs", "models")
# layer name of each kernel's step span, keyed by the kernel's ``.name``
KERNEL_SPANS = {"hug": "hug.step", "hop": "hop.step", "hmc": "baselines.hmc_step"}


class Spans:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def arrays(self):
        """(name_id, parent, start, end) as numpy arrays."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def aggregate(self) -> dict:
        """Per span name: number of calls, total seconds and self seconds."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def total_under(self, name: str, inside: str, outside: str | None = None) -> float:
        """Summed duration of ``name`` spans with an ``inside`` ancestor and
        no ``outside`` ancestor."""
        if name not in self._ids or inside not in self._ids:
            return 0.0
        name_id, parent, start, end = self.arrays()
        want = self._ids[name]
        inside_id = self._ids[inside]
        outside_id = self._ids.get(outside, -2)
        total = 0.0
        for idx in np.flatnonzero(name_id == want):
            seen_inside = False
            p = parent[idx]
            while p >= 0:
                if name_id[p] == outside_id:
                    break
                seen_inside |= name_id[p] == inside_id
                p = parent[p]
            else:
                if seen_inside:
                    total += end[idx] - start[idx]
        return total


class TracedTarget:
    """Proxy timing the three public evaluation methods of a TargetModel."""

    def __init__(self, target, spans: Spans):
        self._target = target
        self.log_density = spans.wrap("targets.log_density", target.log_density)
        self.gradient = spans.wrap("targets.gradient", target.gradient)
        self.hessian = spans.wrap("targets.hessian", target.hessian)

    def __getattr__(self, name):
        return getattr(self._target, name)


class TracedKernel:
    """Kernel wrapper with the ``.name`` / ``.step`` interface of hughop kernels.

    It hands the kernel a :class:`TracedTarget` and counts acceptances.
    """

    def __init__(self, kernel, tracer: "Tracer"):
        self.kernel = kernel
        self.name = kernel.name
        self._span = KERNEL_SPANS[kernel.name]
        self._tracer = tracer

    def step(self, target, state, rng):
        spans = self._tracer.spans
        idx = spans.open(self._span)
        try:
            new_state, outcome = self.kernel.step(self._tracer.proxy(target), state, rng)
        finally:
            spans.close(idx)
        spans.counters[self._span + ".accepted"] += bool(outcome.accepted)
        return new_state, outcome


class Tracer:
    """Owns the span store and installs the module-attribute patches."""

    def __init__(self):
        self.spans = Spans()
        self._proxy_for = None
        self._proxy = None

    def proxy(self, target):
        # the Gibbs sampler builds a new conditional target every sweep, so
        # only the most recent proxy is kept
        if target is not self._proxy_for:
            self._proxy_for = target
            self._proxy = TracedTarget(target, self.spans)
        return self._proxy

    @contextmanager
    def installed(self):
        """Apply the module-attribute patches for the enclosed block only."""
        modules = [importlib.import_module(f"hughop.{name}") for name in PATCHED_MODULES]
        saved = [(module, dict(vars(module))) for module in modules]
        self._install()
        try:
            yield
        finally:
            for module, attributes in saved:
                vars(module).update(attributes)

    def _install(self) -> None:
        from hughop import baselines, cli, diagnostics, harness, hop, hug, model_runs, models

        spans = self.spans
        wrap = spans.wrap

        def local_covariance(original):
            def traced(*args, **kwargs):
                idx = spans.open("metric.local_covariance")
                try:
                    metric = original(*args, **kwargs)
                finally:
                    spans.close(idx)
                spans.counters["metric.regularized"] += bool(metric.regularized)
                return metric

            return traced

        for module in (hug, hop, baselines):
            module.local_covariance = local_covariance(module.local_covariance)
        hug.reflect = wrap("hug.reflect", hug.reflect)
        hug.hug_trajectory = wrap("hug.hug_trajectory", hug.hug_trajectory)
        hop.hop_log_density = wrap("hop.hop_log_density", hop.hop_log_density)
        baselines.leapfrog = wrap("baselines.leapfrog", baselines.leapfrog)
        for module in (diagnostics, model_runs):
            module.ess = wrap("diagnostics.ess", module.ess)
        harness.summarize_run = wrap("diagnostics.summarize_run", harness.summarize_run)
        harness.write_trace_csv = wrap("harness.write_trace_csv", harness.write_trace_csv)
        harness.append_summary = wrap("harness.append_summary", harness.append_summary)
        cli.run_chain = wrap("harness.run_chain", cli.run_chain)
        models.gp_covariance = wrap("models.gp_covariance", models.gp_covariance)
        model_runs.tune_kernels = wrap("model_runs.tune_kernels", model_runs.tune_kernels)
        model_runs.run_gibbs = wrap("model_runs.run_gibbs", model_runs.run_gibbs)
        for name in ("run_cauchit_comparison", "run_spatial_comparison"):
            setattr(model_runs, name, wrap(f"model_runs.{name}", getattr(model_runs, name)))

        def run_kernels(original):
            def traced(target, kernels, iterations, *args, **kwargs):
                spans.counters["harness.run_kernels.iterations"] += int(iterations)
                kernels = [TracedKernel(k, self) for k in kernels]
                idx = spans.open("harness.run_kernels")
                try:
                    return original(target, kernels, iterations, *args, **kwargs)
                finally:
                    spans.close(idx)

            return traced

        for module in (harness, model_runs):
            module.run_kernels = run_kernels(module.run_kernels)

        tracer = self

        class TracedGibbsSampler(model_runs.GibbsSampler):
            def __init__(self, model, inner_kernels, **kwargs):
                super().__init__(model, [TracedKernel(k, tracer) for k in inner_kernels], **kwargs)

            def step(self, state, rng):
                idx = spans.open("models.gibbs_sweep")
                try:
                    new_state, info = super().step(state, rng)
                finally:
                    spans.close(idx)
                spans.counters["models.gibbs_sweep.calls"] += 1
                spans.counters["models.theta_accepted"] += bool(info["theta_rwm"])
                return new_state, info

        model_runs.GibbsSampler = TracedGibbsSampler


def layer_metrics(spans: Spans, iterations: int, units: int) -> dict:
    """Per-layer metric values from the recorded spans and counters.

    ``iterations`` counts chain iterations plus Gibbs sweeps over the traced
    ``units``.  Layers that never ran report 0.
    """
    agg = spans.aggregate()
    counters = spans.counters

    def per_call_us(name, field="total_s"):
        entry = agg.get(name)
        return 1e6 * entry[field] / entry["calls"] if entry and entry["calls"] else 0.0

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def total(name, field="total_s"):
        return agg.get(name, {}).get(field, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    loop_iters = counters.get("harness.run_kernels.iterations", 0)
    out = {}
    for fn in ("log_density", "gradient", "hessian"):
        out[f"targets.{fn}_us"] = per_call_us(f"targets.{fn}")
        out[f"targets.{fn}_calls_per_iter"] = ratio(calls(f"targets.{fn}"), iterations)
    out.update({
        "hug.step_us": per_call_us("hug.step"),
        "hug.trajectory_us": per_call_us("hug.hug_trajectory"),
        "hug.reflect_us": per_call_us("hug.reflect"),
        "hug.self_us": per_call_us("hug.step", "self_s"),
        "hug.accept_rate": ratio(counters.get("hug.step.accepted", 0), calls("hug.step")),
        "hop.step_us": per_call_us("hop.step"),
        "hop.log_density_us": per_call_us("hop.hop_log_density"),
        "hop.self_us": per_call_us("hop.step", "self_s"),
        "hop.accept_rate": ratio(counters.get("hop.step.accepted", 0), calls("hop.step")),
        "metric.local_covariance_us": per_call_us("metric.local_covariance"),
        "metric.local_covariance_calls_per_iter": ratio(
            calls("metric.local_covariance"), iterations),
        "metric.regularized_frac": ratio(
            counters.get("metric.regularized", 0), calls("metric.local_covariance")),
        "baselines.hmc_step_us": per_call_us("baselines.hmc_step"),
        "baselines.leapfrog_us": per_call_us("baselines.leapfrog"),
        "baselines.hmc_accept_rate": ratio(
            counters.get("baselines.hmc_step.accepted", 0), calls("baselines.hmc_step")),
        "model_runs.tune_s": ratio(total("model_runs.tune_kernels"), units),
        "model_runs.final_run_s": ratio(spans.total_under(
            "harness.run_kernels", inside="model_runs.run_cauchit_comparison",
            outside="model_runs.tune_kernels"), units),
        "models.gp_covariance_us": per_call_us("models.gp_covariance"),
        "models.gibbs_sweep_us": per_call_us("models.gibbs_sweep"),
        "models.theta_accept_rate": ratio(
            counters.get("models.theta_accepted", 0), calls("models.gibbs_sweep")),
        "diagnostics.ess_us": per_call_us("diagnostics.ess"),
        "diagnostics.ess_calls": ratio(calls("diagnostics.ess"), units),
        "diagnostics.summarize_s": ratio(total("diagnostics.summarize_run"), units),
        "harness.loop_self_us_per_iter": 1e6 * ratio(
            total("harness.run_kernels", "self_s"), loop_iters),
        "harness.write_trace_csv_s": ratio(total("harness.write_trace_csv"), units),
        "harness.append_summary_ms": 1e3 * ratio(total("harness.append_summary"), units),
        "trace.unattributed_frac": ratio(total("bench.unit", "self_s"), total("bench.unit")),
    })
    return out
