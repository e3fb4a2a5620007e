"""Spans around the package's public functions, recorded from outside.

A wrapper replaces a public function under every module attribute that binds
it: the modules import names directly, so `rainbowmatch.process.restrict` and
`rainbowmatch.hamilton.find_rainbow_pm` must be wrapped, not only the defining
module.  Each call records one span (name, start, end, parent, attributes) in
memory; the per-layer numbers are computed from the spans afterwards.

Witnesses returned by the searches are checked inside their own `bench.check`
span, so the check is attributed to itself and not to the caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from rainbowmatch import cli, count, experiments, hamilton, model, process
from rainbowmatch.count import BudgetExceededError, is_perfect_matching, is_rainbow
from rainbowmatch.hamilton import is_rainbow_hamilton_cycle

CHECK = "bench.check"

# Layer name -> (defining module, public function names).
LAYERS = {
    "model.sample": (model, ("complete_colored", "sample_partite_m",
                             "sample_colored_graph", "random_edge_ordering")),
    "model.restrict": (model, ("restrict",)),
    "count.count": (count, ("count_rainbow_pm",)),
    "count.find": (count, ("find_rainbow_pm",)),
    "process.run": (process, ("run_deletion_process",)),
    "process.weight_profile": (process, ("weight_profile",)),
    "hamilton.hc": (hamilton, ("find_rainbow_hc",)),
    "hamilton.assemble": (hamilton, ("assemble_even",)),
    "hamilton.contract_lift": (hamilton, ("contract_color_delete", "lift_cycle")),
    "experiments.driver": (experiments, ("threshold_scan", "mean_count_experiment",
                                         "trace_experiment", "hamilton_experiment")),
    "experiments.render": (experiments, ("threshold_csv", "mean_count_csv",
                                         "trace_steps_csv", "trace_summary_csv",
                                         "hamilton_csv", "hamilton_trials_json",
                                         "table_json")),
    "cli": (cli, ("main",)),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, end: float, parent: int, attrs: dict | None = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of its interval that its child
    spans cover (the union of the children's intervals, clipped to it)."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


class Recorder:
    """Collects spans while installed; `failures` lists witnesses that did not
    verify."""

    def __init__(self, keep_count_instances: int = 0):
        self.spans: list[Span] = []
        self.failures: list[str] = []
        self.count_instances: list[tuple] = []  # (instance, brute count)
        self._keep = keep_count_instances
        self._stack: list[int] = []
        self._graph_of_map: dict[int, object] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _check(self, ok_fn, what: str) -> None:
        span = self._open(CHECK)
        try:
            if not ok_fn():
                self.failures.append(what)
        finally:
            self._close(span)

    def _wrap(self, layer: str, fn):
        observe = getattr(self, "_observe_" + fn.__name__, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except BudgetExceededError as exc:
                span.attrs = {"budget_nodes": exc.nodes}
                raise
            finally:
                self._close(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return wrapper

    # -- observers: attributes and witness checks -------------------------------

    def _observe_count_rainbow_pm(self, span, args, kwargs, report):
        if report.method == count.METHOD_BRUTE:
            span.attrs = {"nodes": report.nodes}
            if len(self.count_instances) < self._keep:
                self.count_instances.append((args[0], report.value))

    def _observe_find_rainbow_pm(self, span, args, kwargs, M):
        span.attrs = {"found": M is not None}
        if M is not None:
            H = args[0]
            self._check(lambda: is_perfect_matching(H, M) and is_rainbow(M),
                        "find_rainbow_pm returned a witness that is not a rainbow perfect matching")

    def _observe_find_rainbow_hc(self, span, args, kwargs, hc):
        span.attrs = {"found": hc is not None}
        if hc is not None:
            G = args[0]
            self._check(lambda: is_rainbow_hamilton_cycle(G, hc),
                        "find_rainbow_hc returned a cycle that is not a rainbow Hamilton cycle")

    def _observe_run_deletion_process(self, span, args, kwargs, trace):
        span.attrs = {"steps": len(trace.steps)}

    def _observe_contract_color_delete(self, span, args, kwargs, result):
        self._graph_of_map[id(result[1])] = args[0]

    def _observe_lift_cycle(self, span, args, kwargs, lifted):
        G = self._graph_of_map.pop(id(args[1]), None)
        if lifted is not None and G is not None:
            self._check(lambda: is_rainbow_hamilton_cycle(G, lifted),
                        "lift_cycle returned a cycle that is not a rainbow Hamilton cycle")

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the layer functions in the package's modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "rainbowmatch" or name.startswith("rainbowmatch.")]
        for layer, (home, names) in LAYERS.items():
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()
        self._graph_of_map.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.attrs]) + "\n")


def layer_metrics(spans: list[Span], trials: int) -> dict[str, float]:
    """Per-layer numbers from the spans of `trials` traced trials.  Counts and
    times are per trial, so they compare across commits however many trials
    a run fits in; rates and fractions are over the whole run."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    found: dict[str, int] = defaultdict(int)
    budget_outs: dict[str, int] = defaultdict(int)
    budget_nodes: dict[str, int] = defaultdict(int)
    nodes = steps = process_counts = 0
    run_wall = 0.0
    for s, st in zip(spans, selfs):
        calls[s.name] += 1
        self_s[s.name] += st
        attrs = s.attrs or {}
        found[s.name] += attrs.get("found", False)
        if "budget_nodes" in attrs:
            budget_outs[s.name] += 1
            budget_nodes[s.name] += attrs["budget_nodes"]
        if s.name == "count.count":
            nodes += attrs.get("nodes", 0)
            process_counts += _inside(spans, s, "process.run")
        elif s.name == "process.run":
            steps += attrs.get("steps", 0)
            run_wall += s.end - s.start

    kernel_calls = calls["count.count"] + calls["count.find"]
    kernel_budget_outs = budget_outs["count.count"] + budget_outs["count.find"]
    totals = {
        "model.sample.calls": calls["model.sample"],
        "model.sample.self_s": self_s["model.sample"],
        "model.restrict.calls": calls["model.restrict"],
        "model.restrict.self_s": self_s["model.restrict"],
        "count.count.calls": calls["count.count"],
        "count.count.self_s": self_s["count.count"],
        "count.count.nodes": nodes,
        "count.find.calls": calls["count.find"],
        "count.find.self_s": self_s["count.find"],
        "count.find.found": found["count.find"],
        "count.find.absent": calls["count.find"] - found["count.find"] - budget_outs["count.find"],
        "count.find.budget_nodes": budget_nodes["count.find"],
        "count.budget_outs": kernel_budget_outs,
        "process.steps": steps,
        "process.run.self_s": self_s["process.run"],
        "process.weight_profile.calls": calls["process.weight_profile"],
        "process.weight_profile.self_s": self_s["process.weight_profile"],
        "hamilton.hc.calls": calls["hamilton.hc"],
        "hamilton.hc.self_s": self_s["hamilton.hc"],
        "hamilton.hc.found": found["hamilton.hc"],
        "hamilton.hc.budget_outs": budget_outs["hamilton.hc"],
        "hamilton.hc.budget_nodes": budget_nodes["hamilton.hc"],
        "hamilton.assemble.calls": calls["hamilton.assemble"],
        "hamilton.assemble.self_s": self_s["hamilton.assemble"],
        "hamilton.contract_lift.self_s": self_s["hamilton.contract_lift"],
        "experiments.driver.self_s": self_s["experiments.driver"],
        "experiments.render.self_s": self_s["experiments.render"],
        "bench.check_s": self_s[CHECK],
        "trace.attributed_s": sum(selfs),
    }
    m = {name: value / trials for name, value in totals.items()}
    m["count.count.nodes_per_s"] = nodes / self_s["count.count"] if self_s["count.count"] else 0.0
    m["count.answered_frac"] = (
        (kernel_calls - kernel_budget_outs) / kernel_calls if kernel_calls else 0.0
    )
    m["process.step_s"] = run_wall / steps if steps else 0.0
    m["process.count_calls_per_step"] = process_counts / steps if steps else 0.0
    return m


def _inside(spans: list[Span], span: Span, name: str) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
