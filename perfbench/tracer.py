"""Outside-in tracing of the lotsize layers.

The tracer wraps every public function of each layer module, a few public
methods, and the two scipy entry points the LP layer goes through
(``linprog`` and the compiled HiGHS wrapper it calls). While it is active,
each wrapped call records one span: name, start, end, parent span and the
instance id the benchmark set. Counts read from return values (B&B nodes,
cuts added, feasible patterns, DP periods, LSTM FLOPs) are attached to the
span that produced them. ``layer_metrics`` turns the spans into the
per-layer figures.

Wrapping works by rebinding module-level names, so calls made inside the
package through ``from .x import f`` imports are seen too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# The layers, named after their modules under ``lotsize``.
LAYERS = (
    "generate",
    "solvers.dp",
    "solvers.bnb",
    "solvers.lp",
    "solvers.cuts",
    "solvers.pattern",
    "core",
    "pipeline",
    "nn.lstm",
    "nn.train",
    "nn.standardize",
    "dataio",
)
METHODS = {
    "solvers.lp": ("LpWorkspace.__init__", "LpWorkspace.solve"),
    "nn.standardize": ("Standardizer.transform",),
}
# Elementwise helper called for every gate of every step; a span per call
# would cost more than the call itself.
UNTRACED = {"nn.lstm.sigmoid"}
SCIPY = (
    ("scipy.optimize._linprog", "linprog", "scipy.linprog"),
    ("scipy.optimize._linprog_highs", "_highs_wrapper", "scipy.highs"),
)
# Modules whose references to a wrapped function are rebound.
REBIND_PREFIXES = ("lotsize", "scipy.optimize")

PLAN_SPANS = (
    "pipeline.select_predictions",
    "pipeline.soft_fix_plan",
    "pipeline.repair_prediction",
)


def rebind(original, replacement, prefixes=REBIND_PREFIXES) -> list[tuple[object, str, object]]:
    """Point every module-level reference to ``original`` at ``replacement``.

    Returns the (module, attribute, old value) triples needed to undo it.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(prefixes):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def _lstm_flops(cache) -> dict:
    """Matrix-multiply FLOPs of one forward pass, computed from array sizes."""
    flop = 0
    for pair in cache.direction_caches:
        for direction in pair:
            B, T, n_in = direction.X.shape
            gates = direction.gates.shape[2]
            flop += 2 * B * T * gates * (n_in + gates // 4)
    B, T, head_in = cache.head_input.shape
    flop += 2 * B * T * head_in
    return {"batch": B, "flop": flop}


RESULT_HOOKS = {
    "solvers.bnb.branch_and_bound": lambda r: {"nodes": r.stats.nodes_explored},
    "solvers.cuts.root_cut_loop": lambda r: {"cuts": len(r[0])},
    "solvers.pattern.solve_for_pattern": lambda r: {"feasible": r is not None},
    "solvers.dp.solve_dp": lambda r: {"periods": len(r.y)},
    "nn.lstm.forward_batch": _lstm_flops,
}


class Tracer:
    """Span recorder; spans are kept in memory and written out at the end."""

    def __init__(self):
        # Each span: [name, start, end, parent index, instance id, extras].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.active = False
        self.instance = ""

    def begin(self, instance: str) -> None:
        self.instance = instance
        self.active = True

    def end(self) -> None:
        self.active = False

    def _wrap(self, fn, name: str):
        hook = RESULT_HOOKS.get(name)
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.instance, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                span[5] = hook(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and the scipy LP entry points."""
        for layer in LAYERS:
            module = importlib.import_module(f"lotsize.{layer}")
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                self._undo += rebind(fn, self._wrap(fn, name))
            for qualname in METHODS.get(layer, ()):
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                setattr(cls, meth, self._wrap(original, f"{layer}.{qualname}"))
                self._undo.append((cls, meth, original))
        for module_name, attr, name in SCIPY:
            original = getattr(importlib.import_module(module_name), attr)
            self._undo += rebind(original, self._wrap(original, name))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, instance, extras) in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": name,
                    "start": round(start - t0, 9),
                    "end": round(end - t0, 9),
                    "parent": parent,
                    "instance": instance,
                }
                if extras:
                    row["counts"] = extras
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


class _Agg:
    __slots__ = ("n", "total", "self_time", "durations", "extras")

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []
        self.extras: list[dict] = []


def aggregate(spans) -> dict[str, _Agg]:
    """Per span name: calls, inclusive time, self time, durations, extras.

    Self time is a span's duration minus its children's; calls are
    synchronous, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, _Agg] = defaultdict(_Agg)
    for i, (name, start, end, _, _, extras) in enumerate(spans):
        agg = by_name[name]
        dur = end - start
        agg.n += 1
        agg.total += dur
        agg.self_time += dur - child_time[i]
        agg.durations.append(dur)
        if extras:
            agg.extras.append(extras)
    return by_name


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans; 0 where a workload bypasses a layer."""
    agg = aggregate(spans)
    empty = _Agg()

    def get(name: str) -> _Agg:
        return agg.get(name, empty)

    def layer_self(layer: str) -> float:
        return float(sum(a.self_time for n, a in agg.items() if n.startswith(layer + ".")))

    def extra_sum(name: str, key: str) -> float:
        return float(sum(e[key] for e in get(name).extras))

    # Flow tests made while drawing instances are generation attempts.
    index_name = [s[0] for s in spans]
    attempts = sum(
        1
        for s in spans
        if s[0] == "core.flow_feasible" and s[3] >= 0
        and index_name[s[3]] == "generate.generate_instance"
    )
    plan_s = sum(
        s[2] - s[1]
        for s in spans
        if s[0] in PLAN_SPANS and (s[3] < 0 or index_name[s[3]] not in PLAN_SPANS)
    )

    dp = get("solvers.dp.solve_dp")
    bnb = get("solvers.bnb.branch_and_bound")
    nodes = extra_sum("solvers.bnb.branch_and_bound", "nodes")
    ws_init = get("solvers.lp.LpWorkspace.__init__")
    lp_solve = get("solvers.lp.LpWorkspace.solve")
    pattern = get("solvers.pattern.solve_for_pattern")
    flow = get("core.flow_feasible")
    fwd = get("nn.lstm.forward_batch")
    bwd = get("nn.lstm.backward_batch")
    flop = extra_sum("nn.lstm.forward_batch", "flop")
    batched = [(d, e["batch"]) for d, e in zip(fwd.durations, fwd.extras) if e["batch"] > 1]
    single = [d for d, e in zip(fwd.durations, fwd.extras) if e["batch"] == 1]
    steps = [
        a + b
        for a, b in zip(
            get("nn.train.batch_loss_and_grads").durations, get("nn.train.adam_step").durations
        )
    ]
    standardize = [a for n, a in agg.items() if n.startswith("nn.standardize.")]
    write = get("dataio.write_dataset")
    read = get("dataio.read_dataset")
    return {
        "generate.attempts": (float(attempts), "count"),
        "generate.accept_ratio": (_ratio(get("generate.generate_instance").n, attempts), "ratio"),
        "generate.self_s": (layer_self("generate"), "s"),
        "dp.calls": (float(dp.n), "count"),
        "dp.self_s": (layer_self("solvers.dp"), "s"),
        "dp.p50_ms": (1e3 * _median(dp.durations), "ms"),
        "dp.ms_per_period": (
            1e3 * _ratio(dp.total, extra_sum("solvers.dp.solve_dp", "periods")),
            "ms",
        ),
        "bnb.calls": (float(bnb.n), "count"),
        "bnb.self_s": (layer_self("solvers.bnb"), "s"),
        "bnb.nodes": (nodes, "count"),
        "bnb.nodes_per_solve": (_ratio(nodes, bnb.n), "count"),
        "lp.workspace_builds": (float(ws_init.n), "count"),
        "lp.workspace_build_s": (ws_init.total, "s"),
        "lp.solves": (float(lp_solve.n), "count"),
        "lp.self_s": (layer_self("solvers.lp"), "s"),
        "lp.linprog_wrapper_s": (get("scipy.linprog").self_time, "s"),
        "lp.highs_s": (get("scipy.highs").total, "s"),
        "lp.ms_per_solve": (1e3 * _ratio(lp_solve.total, lp_solve.n), "ms"),
        "cuts.loops": (float(get("solvers.cuts.root_cut_loop").n), "count"),
        "cuts.rounds": (float(get("solvers.cuts.separate_ls_cuts").n), "count"),
        "cuts.added": (extra_sum("solvers.cuts.root_cut_loop", "cuts"), "count"),
        "cuts.separate_s": (get("solvers.cuts.separate_ls_cuts").total, "s"),
        "pattern.calls": (float(pattern.n), "count"),
        "pattern.self_s": (layer_self("solvers.pattern"), "s"),
        "pattern.feasible_ratio": (
            _ratio(extra_sum("solvers.pattern.solve_for_pattern", "feasible"), pattern.n),
            "ratio",
        ),
        "core.flow_feasible_calls": (float(flow.n), "count"),
        "core.flow_feasible_s": (flow.total, "s"),
        "pipeline.plan_s": (plan_s, "s"),
        "lstm.forward_s": (fwd.total, "s"),
        "lstm.backward_s": (bwd.total, "s"),
        "lstm.forward_gflop": (flop / 1e9, "GFLOP"),
        "lstm.achieved_gflops": (_ratio(flop / 1e9, fwd.total), "GFLOP/s"),
        "lstm.batch_ms_per_inst": (
            1e3 * _ratio(sum(d for d, _ in batched), sum(b for _, b in batched)),
            "ms",
        ),
        "lstm.single_ms_per_inst": (1e3 * _ratio(sum(single), len(single)), "ms"),
        "train.step_p50_ms": (1e3 * _median(steps), "ms"),
        "train.adam_s": (get("nn.train.adam_step").total, "s"),
        "train.val_pass_s": (get("nn.train.accuracy_on_arrays").total, "s"),
        "standardize.calls": (float(sum(a.n for a in standardize)), "count"),
        "standardize.self_s": (layer_self("nn.standardize"), "s"),
        "dataio.write_s": (write.total, "s"),
        "dataio.read_s": (read.total, "s"),
    }
