"""In-memory span tracer and per-layer metrics for the torusred benchmark.

The tracer wraps the public functions of the package's layer modules
from outside: ``install`` replaces every module attribute that refers to
a wrapped function (including names that ``cli``, ``reduction``,
``models`` and ``bundle`` import from each other, and the package
namespace), and ``uninstall`` puts the originals back.  Nothing under
``src/`` is edited, and an untraced pass runs the original functions.

Each call becomes a span with its start, end, thread CPU time and parent.
Work submitted to the sweep thread pool starts on a thread with no open
span; such a span takes as parent the innermost span open on the main
thread at that moment, so lane spans hang under ``sweep_epsilon`` and
overlap one another.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("fourier", "bundle", "models", "reduction", "sim", "cli")

# Methods wrapped in addition to the public module-level functions.  The
# ``to_json_dict`` methods and ``cli._dump_json`` are the artifact
# serialisers; the grid methods are the FFT boundary of the Fourier layer.
EXTRA = {
    "fourier": ("TorusGrid.sample", "TorusGrid.project"),
    "bundle": ("TorusBundle.to_json_dict",),
    "reduction": ("ReductionResult.to_json_dict",),
    "sim": ("SweepResult.to_json_dict",),
    "cli": ("_dump_json",),
}

SERIALIZERS = frozenset({
    "cli._dump_json",
    "bundle.TorusBundle.to_json_dict",
    "reduction.ReductionResult.to_json_dict",
    "sim.SweepResult.to_json_dict",
    "sim.sweep_csv",
    "sim.trajectory_csv",
})

STAGES = {"euler": 1, "rk4": 4}


@dataclass
class Span:
    sid: int
    name: str
    thread: int
    start: float
    parent: int | None
    end: float = 0.0
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; all spans stay in memory."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()
        self._lanes = {}

    def open(self, name):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if (tid != self._main and main) else None
            span = Span(len(self.spans), name, tid, 0.0, parent.sid if parent else None)
            self.spans.append(span)
            stack.append(span)
        span.cpu = time.thread_time()
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        with self._lock:
            self._stacks[span.thread].pop()

    def register_lane(self, record, span):
        with self._lock:
            self._lanes[id(record)] = span

    def lane_of(self, record):
        with self._lock:
            return self._lanes.get(id(record))

    def to_json(self):
        """Spans as plain dicts, with self time, for writing out after a run."""
        own = self_times(self.spans)
        return [{"id": s.sid, "name": s.name, "parent": s.parent, "thread": s.thread,
                 "start": s.start, "end": s.end, "cpu": s.cpu, "self": own[s.sid],
                 **s.attrs} for s in self.spans]


# ----------------------------------------------------------------------
# self-time arithmetic


def union_length(intervals):
    """Total length covered by a set of ``(start, end)`` intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id to its duration minus the part its children cover.

    Children on other threads may overlap each other; the covered part is
    the union of their intervals, clipped to the parent's interval.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children[s.sid]]
        out[s.sid] = s.duration - union_length(clipped)
    return out


# ----------------------------------------------------------------------
# wrappers


def _bound(sig, args, kwargs):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _hook_project(span, a, result, tracer):
    span.attrs["nodes"] = a["self"].size
    span.attrs["fft_points"] = int(getattr(a["values"], "size", 0))


def _hook_sample(span, a, result, tracer):
    span.attrs["fft_points"] = a["self"].size * math.prod(a["fmap"].value_shape)


def _hook_convolve(span, a, result, tracer):
    span.attrs["pairs"] = len(a["f"].coeffs) * len(a["g"].coeffs)


def _hook_phase_reduce(span, a, result, tracer):
    span.attrs["embedding_coeffs"] = sum(len(t.coeffs) for t in result.embedding_terms)


def _lane_hook(kind):
    def hook(span, a, result, tracer):
        spec = a["spec"]
        span.attrs.update(kind=kind, scheme=spec.scheme, dt=spec.dt,
                          steps=int(round(float(result.t[-1]) / spec.dt)))
        tracer.register_lane(result, span)
    return hook


def _hook_measure_T01(span, a, result, tracer):
    if not a["use_envelope"] or not math.isfinite(result):
        return
    lane = tracer.lane_of(a["record"])
    if lane is not None:
        lane.attrs["t01_steps"] = int(round(result / lane.attrs["dt"]))


HOOKS = {
    "fourier.TorusGrid.project": _hook_project,
    "fourier.TorusGrid.sample": _hook_sample,
    "fourier.matmul": _hook_convolve,
    "fourier.multiply": _hook_convolve,
    "reduction.phase_reduce": _hook_phase_reduce,
    "sim.integrate_full": _lane_hook("full"),
    "sim.integrate_reduced": _lane_hook("reduced"),
    "sim.measure_T01": _hook_measure_T01,
}


def _wrap(tracer, fn, name):
    hook = HOOKS.get(name)
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook is not None:
            hook(span, _bound(sig, args, kwargs), result, tracer)
        return result

    return wrapper


def _targets(package):
    """(owner, attribute, span name) for every function the tracer wraps."""
    out = []
    for layer in LAYERS:
        mod = getattr(package, layer)
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((mod, attr, f"{layer}.{attr}"))
        for path in EXTRA.get(layer, ()):
            owner, _, attr = path.rpartition(".")
            out.append((getattr(mod, owner) if owner else mod, attr, f"{layer}.{path}"))
    return out


def install(tracer, package):
    """Wrap every target and repoint each module alias; returns an undo list."""
    modules = [package] + [getattr(package, layer) for layer in LAYERS]
    undo = []
    for owner, attr, name in _targets(package):
        original = vars(owner)[attr]
        wrapped = _wrap(tracer, original, name)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if inspect.isclass(owner):
            continue
        for mod in modules:
            for alias, obj in list(vars(mod).items()):
                if obj is original:
                    undo.append((mod, alias, original))
                    setattr(mod, alias, wrapped)
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# per-layer metrics


def _ancestors(span, by_id):
    names, p = set(), span.parent
    while p is not None:
        names.add(by_id[p].name)
        p = by_id[p].parent
    return names


def layer_metrics(spans):
    """Per-layer times (s) and counts from one traced pass."""

    def secs(*names):
        return sum(s.duration for s in spans if s.name in names)

    def calls(name):
        return sum(s.name == name for s in spans)

    def count(key, *names):
        return sum(s.attrs.get(key, 0) for s in spans if s.name in names)

    project, sample = "fourier.TorusGrid.project", "fourier.TorusGrid.sample"
    convolve = ("fourier.matmul", "fourier.multiply")
    m = {
        "fourier.project_s": secs(project),
        "fourier.project_calls": calls(project),
        "fourier.project_nodes": count("nodes", project),
        "fourier.sample_s": secs(sample),
        "fourier.sample_calls": calls(sample),
        "fourier.fft_points": count("fft_points", project, sample),
        "fourier.convolve_s": secs(*convolve),
        "fourier.convolve_pairs": count("pairs", *convolve),
        "fourier.jet_compose_s": secs("fourier.jet_compose"),
    }
    for fn in ("phase_reduce", "order_forcing", "split_forcing", "solve_tangential",
               "solve_normal", "conjugacy_residual"):
        m[f"reduction.{fn}_s"] = secs(f"reduction.{fn}")
    m["reduction.embedding_coeffs"] = count("embedding_coeffs", "reduction.phase_reduce")
    for name in ("bundle.validate_bundle", "bundle.floquet_decompose", "bundle.cycle_bundle",
                 "models.chain_bundle", "models.sl_bundle"):
        m[f"{name}_s"] = secs(name)
    m["bundle.validate_bundle_calls"] = calls("bundle.validate_bundle")

    lanes = [s for s in spans if "kind" in s.attrs]
    for kind in ("full", "reduced"):
        mine = [s for s in lanes if s.attrs["kind"] == kind]
        m[f"sim.integrate_{kind}_s"] = sum(s.duration for s in mine)
        m[f"sim.integrate_{kind}_steps"] = sum(s.attrs["steps"] for s in mine)
    for scheme in STAGES:
        mine = [s for s in lanes if s.attrs["scheme"] == scheme]
        steps = sum(s.attrs["steps"] for s in mine)
        m[f"sim.step_us.{scheme}"] = 1e6 * sum(s.cpu for s in mine) / steps if steps else 0.0
    m["sim.measure_T01_s"] = secs("sim.measure_T01")
    m["sim.lanes"] = len(lanes)
    m["sim.lane_threads"] = len({s.thread for s in lanes})
    steps = sum(s.attrs["steps"] for s in lanes)
    useful = sum(s.attrs.get("t01_steps", s.attrs["steps"]) for s in lanes)
    m["sim.useful_step_frac"] = useful / steps if steps else 0.0
    m["sim.lane_wait_s"] = sum(s.duration - s.cpu for s in lanes)
    m["models.rhs_evals"] = sum(s.attrs["steps"] * STAGES[s.attrs["scheme"]]
                                for s in lanes if s.attrs["kind"] == "full")

    by_id = {s.sid: s for s in spans}
    m["cli.run_s"] = secs("cli.run")
    m["cli.serialize_s"] = 0.0
    for s in spans:
        if s.name in SERIALIZERS:
            above = _ancestors(s, by_id)
            if "cli.run" in above and not above & SERIALIZERS:
                m["cli.serialize_s"] += s.duration

    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.sid] for s in spans if s.layer == layer)
    m["trace.spans"] = len(spans)
    return m
