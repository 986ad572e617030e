"""Per-layer tracing of `pne`, installed from outside the package.

A :class:`Tracer` replaces each public function named in :data:`LAYERS`, in
every loaded ``pne`` module that holds it by name (``pne.network.contract``,
``pne.models.contract``, ``pne.infinite.contract``, ...), with a wrapper
that records a span: layer, function, start, end and parent span. Spans are
kept in memory; counts are read from return values (``ContractionPlan``,
``BPState``, ``WeightState``, ``Expansion``, ``DominantEig``) as they come
back, so no result object is kept alive. Nothing is installed unless a
traced run asks for it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from dataclasses import dataclass

# layer -> (module, public functions of that module attributed to the layer)
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "models": ("pne.models", ("random_grid", "capped_patch", "uniform_fixed_point",
                              "symmetrize_uniform", "block_unit", "ising_unit_tensor")),
    "plan": ("pne.network", ("plan_order",)),
    "contract": ("pne.network", ("contract",)),
    "insert": ("pne.network", ("apply_insertions",)),
    "bp": ("pne.belief", ("run_bp",)),
    "symmetrize": ("pne.belief", ("symmetrize",)),
    "wp": ("pne.weights", ("run_weight_passing",)),
    "svd": ("pne.tensor", ("svd",)),
    "build": ("pne.expansion", ("build_linear", "build_combinatorial", "recursive_expand")),
    "evaluate": ("pne.expansion", ("evaluate",)),
    "preset": ("pne.presets", ("build_preset",)),
    "strips": ("pne.infinite", ("prepare_strips", "free_energy")),
    "transfer": ("pne.infinite", ("transfer_eigs",)),
    "eig": ("pne.tensor", ("dominant_eig",)),
    "patch": ("pne.infinite", ("patch_scalar",)),
}


@dataclass(slots=True)
class Span:
    layer: str
    name: str
    parent: int            # index of the enclosing span, -1 at top level
    outermost: bool        # no enclosing span of the same layer
    start: float = 0.0
    end: float = 0.0
    # Counts read from the return value (and, for plans, the argument).
    flops: int = 0
    peak_step_flops: int = 0
    peak_entries: int = 0
    key: int = 0
    iterations: int = 0
    converged: bool = True
    terms: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def structure_key(net) -> int:
    """Structural identity of a network as a planner sees it: node ids and
    shapes plus edge endpoints and dims (edge ids left out)."""
    nodes = tuple(sorted((n, t.shape) for n, t in net.nodes.items()))
    edges = tuple(sorted((e.endpoints, e.dim) for e in net.edges.values()))
    return hash((nodes, edges))


def _read_counts(span: Span, args, kwargs, result) -> None:
    layer = span.layer
    if layer == "plan":
        span.flops = result.total_flops
        span.peak_step_flops = result.peak_step_flops
        span.peak_entries = result.peak_result_entries
        span.key = structure_key(args[0] if args else kwargs["net"])
    elif layer == "contract":
        plan = kwargs.get("plan", args[2] if len(args) > 2 else None)
        if plan is not None:
            span.flops = plan.total_flops
    elif layer in ("bp", "wp"):
        span.iterations = result.iterations if layer == "bp" else result.sweeps
        span.converged = bool(result.converged)
    elif layer == "build":
        span.terms = len(result.terms)
    elif layer == "evaluate":
        span.terms = len(result.term_values)
    elif layer == "eig":
        span.iterations = result.iterations


class Tracer:
    """Span recorder; use as a context manager around the traced region."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {layer: 0 for layer in LAYERS}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, fn.__name__, stack[-1] if stack else -1, depth[layer] == 0)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            depth[layer] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                depth[layer] -= 1
                stack.pop()
            _read_counts(span, args, kwargs, result)
            if layer == "contract" and span.flops == 0:
                # No plan was passed: contract planned it in a child span.
                span.flops = sum(s.flops for s in spans[idx + 1:] if s.parent == idx and s.layer == "plan")
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pne" or name.startswith("pne."))]
        for layer, (modname, names) in LAYERS.items():
            home = importlib.import_module(modname)
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(layer, original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapped)
                        self._patched.append((mod, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Gzipped JSON lines, one array per span:
        [index, layer, function, parent, start, end]."""
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s.layer, s.name, s.parent, s.start, s.end]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span], wall_s: float, overhead: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from the spans of a
    traced loop that took ``wall_s`` seconds."""
    selfs = self_times(spans)
    by_layer: dict[str, list[int]] = {layer: [] for layer in LAYERS}
    for i, s in enumerate(spans):
        by_layer[s.layer].append(i)

    def calls(layer):
        return len(by_layer[layer])

    def busy(layer):
        return sum(spans[i].duration for i in by_layer[layer] if spans[i].outermost)

    def self_s(layer):
        return sum(selfs[i] for i in by_layer[layer])

    def total(layer, field, outermost=False):
        return sum(getattr(spans[i], field) for i in by_layer[layer]
                   if spans[i].outermost or not outermost)

    def ratio(a, b):
        return a / b if b else 0.0

    plans = [spans[i] for i in by_layer["plan"]]
    distinct = len({s.key for s in plans})
    return {
        "models.calls": calls("models"), "models.busy_s": busy("models"),
        "plan.calls": len(plans), "plan.busy_s": busy("plan"),
        "plan.share": ratio(busy("plan"), wall_s), "plan.distinct": distinct,
        "plan.repeat_share": ratio(len(plans) - distinct, len(plans)),
        "plan.total_flops": total("plan", "flops"),
        "plan.peak_step_flops_max": max((s.peak_step_flops for s in plans), default=0),
        "plan.peak_entries_max": max((s.peak_entries for s in plans), default=0),
        "contract.calls": calls("contract"), "contract.self_s": self_s("contract"),
        "contract.share": ratio(self_s("contract"), wall_s),
        "contract.gflops": ratio(total("contract", "flops"), self_s("contract")) / 1e9,
        "insert.calls": calls("insert"), "insert.busy_s": busy("insert"),
        "bp.calls": calls("bp"), "bp.busy_s": busy("bp"),
        "bp.iterations": total("bp", "iterations"),
        "bp.sweep_ms": 1e3 * ratio(busy("bp"), total("bp", "iterations")),
        "bp.nonconverged": sum(not spans[i].converged for i in by_layer["bp"]),
        "symmetrize.busy_s": busy("symmetrize"),
        "wp.busy_s": busy("wp"), "wp.sweeps": total("wp", "iterations"),
        "wp.sweep_ms": 1e3 * ratio(busy("wp"), total("wp", "iterations")),
        "wp.nonconverged": sum(not spans[i].converged for i in by_layer["wp"]),
        "svd.calls": calls("svd"), "svd.busy_s": busy("svd"),
        "build.self_s": self_s("build"), "build.terms": total("build", "terms", outermost=True),
        "evaluate.busy_s": busy("evaluate"), "evaluate.terms": total("evaluate", "terms"),
        "preset.self_s": self_s("preset"),
        "strips.busy_s": busy("strips"), "transfer.busy_s": busy("transfer"),
        "eig.iterations": total("eig", "iterations"),
        "patch.calls": calls("patch"), "patch.self_s": self_s("patch"),
        "trace.overhead": overhead,
    }


def split(spans: list[Span], wall_s: float) -> dict:
    """Self time per layer, the layer with the most, and the loop time no
    traced layer covers (instance checks and the benchmark's own code)."""
    selfs = self_times(spans)
    per = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, selfs):
        per[s.layer] += t
    covered = sum(s.duration for s in spans if s.parent < 0)
    return {
        "self_s": {k: round(v, 6) for k, v in per.items()},
        "largest": max(per, key=per.get),
        "untraced_s": round(wall_s - covered, 6),
    }
