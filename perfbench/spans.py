"""Spans around calls into curvipat's modules, and the per-layer metrics
derived from them.

Every span is taken from outside the program by replacing a module
attribute with a wrapper for the life of a ``Recorder`` block; the
program's own code is untouched.  A span is (name, start, end, parent);
its self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import defaultdict

import workloads  # noqa: F401  (imports curvipat from the checkout's src/)
from curvipat import cli, integrators, models, output, tensor

clock = time.perf_counter

COMPONENTS = ("u", "v", "r", "s")

# Plain spans: (module, attribute, span name).  eig_* and phi1_* are the
# names imported into ``integrators``, so only calls made by ``prepare``
# are seen.
SPANNED = (
    (models, "random_initial_condition", "models.random_initial_condition"),
    (integrators, "prepare", "integrators.prepare"),
    (integrators, "eig_theta", "operators.eig"),
    (integrators, "eig_tridiag", "operators.eig"),
    (integrators, "phi1_matrix", "phifun.phi1"),
    (integrators, "phi1_outer", "phifun.phi1"),
    (tensor, "mode_product", "tensor.mode_product"),
    (output, "write_snapshot", "output.write_snapshot"),
    (output, "write_heatmap", "output.write_heatmap"),
    (output, "write_timeseries", "output.write_timeseries"),
    (cli, "cmd_run", "cli.cmd_run"),
)


class Recorder:
    """Wraps curvipat module attributes inside a ``with`` block.

    With tracing off it only timestamps each step, through a wrapped
    ``system.kinetics`` (``run_simulation`` calls it once per step), and
    keeps the last built system and final fields for the correctness gate.
    With tracing on it also records a span around every wrapped call; spans
    accumulate over every block the recorder is entered for.  An attribute
    that does not exist is left alone and noted, and the layer metrics that
    need it are omitted.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []
        self.stamps: list[float] = []
        self.system = None
        self.fields = None
        self.installed: set[str] = set()
        self.notes: list[str] = []
        self._stack: list[int] = []
        self._component: dict[int, str] = {}
        self._saved: list[tuple] = []

    def reset_call(self) -> None:
        self.stamps = []
        self.system = None
        self.fields = None

    def call(self, name: str, fn, args, kwargs):
        if not self.trace:
            return fn(*args, **kwargs)
        span = [name, clock(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = clock()
            self._stack.pop()

    def __enter__(self):
        self.installed = set()
        self.notes = []
        self._patch(models, "build_system", "models.build_system", self._build_system)
        self._patch(
            integrators, "run_simulation", "integrators.run_simulation", self._run_simulation
        )
        self._patch(cli, "run_simulation", "integrators.run_simulation", self._run_simulation)
        if self.trace:
            for module, attr, name in SPANNED:
                self._patch(module, attr, name, self._spanned(name))
            for attr in ("step_split", "apply_diffusion"):
                name = f"integrators.{attr}"
                self._patch(integrators, attr, name, self._per_component(name))
            self._patch(models, "mean_diagnostics", "models.diagnostics", self._diagnostics)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, module, attr: str, name: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.notes.append(
                f"{module.__name__}.{attr} not found: metrics of {name} omitted"
            )
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))
        self.installed.add(name)

    def _spanned(self, name: str):
        def make(fn):
            return lambda *args, **kwargs: self.call(name, fn, args, kwargs)

        return make

    def _per_component(self, prefix: str):
        def make(fn):
            def wrapper(ops, *args, **kwargs):
                component = self._component.get(id(getattr(ops, "base", None)), "other")
                return self.call(f"{prefix}.{component}", fn, (ops, *args), kwargs)

            return wrapper

        return make

    def _build_system(self, fn):
        def wrapper(*args, **kwargs):
            system = self.call("models.build_system", fn, args, kwargs)
            self._component = {id(c.ops): c.name for c in system.components}
            self.system = dataclasses.replace(
                system, kinetics=self._kinetics(system.kinetics)
            )
            return self.system

        return wrapper

    def _kinetics(self, fn):
        def wrapper(states):
            self.stamps.append(clock())
            return self.call("models.kinetics", fn, (states,), {})

        return wrapper

    def _run_simulation(self, fn):
        def wrapper(*args, **kwargs):
            result = self.call("integrators.run_simulation", fn, args, kwargs)
            self.fields = result.fields
            return result

        return wrapper

    def _diagnostics(self, fn):
        def wrapper(system):
            evaluate = fn(system)
            return lambda states: self.call("models.diagnostics", evaluate, (states,), {})

        return wrapper


def aggregate(spans) -> dict[str, list]:
    """Per span name: [calls, inclusive seconds, self seconds]."""
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, _), inner in zip(spans, children):
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - inner
    return stats


# Mode of every mode product in one split step of each geometry (the
# diffusion action M W included) and the number of Hadamard products with
# a phi1 tensor.  A matrix product along one index of an order-2 field
# counts as a mode product.
STEP_KERNELS = {
    "disk": ((1, 2, 2, 2, 1), 1),
    "sphere": ((1, 2, 1, 2, 1), 1),
    "ball": ((1, 2, 3, 3, 3, 2, 2, 1), 2),
    "cylinder": ((1, 2, 3, 3, 2, 2, 1), 1),
}


def step_kernels(system) -> tuple[int, int, int]:
    """(mode products, flops, bytes) of one full system step, computed from
    the field shapes.  A mode product along a mode of n points on a field of
    N values costs 2 n N flops and moves the field in and out plus the
    n x n matrix; a Hadamard product costs N flops and moves three fields.
    Cache misses are ignored."""
    products = flops = nbytes = 0
    for c in system.components:
        shape = c.ops.shape
        size = math.prod(shape)
        modes, hadamards = STEP_KERNELS[c.ops.geometry.value]
        for mu in modes:
            n = shape[mu - 1]
            flops += 2 * n * size
            nbytes += 8 * (2 * size + n * n)
        flops += hadamards * size
        nbytes += 8 * 3 * size * hadamards
        products += len(modes)
    return products, flops, nbytes


def layer_metrics(
    recorder: Recorder,
    steps: int,
    calls: int,
    snapshot_bytes: int,
    kernels: tuple[int, int, int],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase as {name: (value, unit)}.

    ``steps`` counts system steps, ``calls`` workload calls, ``kernels`` is
    ``step_kernels`` of the workload's system; setup and output layers are
    reported per workload call, stepping layers per step.
    A layer that exists but did not run on this workload reads 0.
    """
    stats = aggregate(recorder.spans)  # a layer that never ran reads [0, 0.0, 0.0]
    have = recorder.installed
    out: dict[str, tuple[float, str]] = {}

    def count(name: str) -> int:
        return stats[name][0]

    def total(name: str) -> float:
        return stats[name][1]

    def own(name: str) -> float:
        return stats[name][2]

    for name in (
        "models.random_initial_condition",
        "integrators.prepare",
        "operators.eig",
        "phifun.phi1",
    ):
        if name in have:
            out[f"{name}.s"] = (total(name) / calls, "s")
    if "models.build_system" in have:
        out["models.kinetics.ms_per_step"] = (total("models.kinetics") * 1e3 / steps, "ms")
    split = "integrators.step_split"
    if split in have:
        for c in COMPONENTS:
            out[f"{split}.{c}.self_ms_per_step"] = (own(f"{split}.{c}") * 1e3 / steps, "ms")
    if "integrators.apply_diffusion" in have:
        for c in COMPONENTS:
            name = f"integrators.apply_diffusion.{c}"
            out[f"{name}.ms_per_step"] = (total(name) * 1e3 / steps, "ms")
    if "tensor.mode_product" in have:
        out["tensor.mode_product.calls_per_step"] = (
            count("tensor.mode_product") / steps,
            "count",
        )
        out["tensor.mode_product.ms_per_step"] = (
            total("tensor.mode_product") * 1e3 / steps,
            "ms",
        )
    products, flops, nbytes = kernels
    out[f"{split}.mode_products_per_step_computed"] = (products, "count")
    out[f"{split}.flops_per_step_computed"] = (flops, "flop")
    out[f"{split}.bytes_per_step_computed"] = (nbytes, "B")
    out[f"{split}.flops_per_byte_computed"] = (flops / nbytes, "flop/B")
    if split in have:
        split_s = sum(total(f"{split}.{c}") for c in (*COMPONENTS, "other")) / steps
        out[f"{split}.gflops_achieved"] = (flops / split_s / 1e9, "GFLOP/s")
    if "integrators.run_simulation" in have:
        out["integrators.run_simulation.self_ms_per_step"] = (
            own("integrators.run_simulation") * 1e3 / steps,
            "ms",
        )
    if "models.diagnostics" in have:
        n = count("models.diagnostics")
        out["models.diagnostics.ms_per_sample"] = (
            total("models.diagnostics") * 1e3 / n if n else 0.0,
            "ms",
        )
    snap = "output.write_snapshot"
    if snap in have:
        out[f"{snap}.s"] = (total(snap) / calls, "s")
        out[f"{snap}.calls"] = (count(snap) / calls, "count")
        out[f"{snap}.bytes"] = (snapshot_bytes / calls, "B")
        out[f"{snap}.mb_per_s"] = (
            snapshot_bytes / total(snap) / 1e6 if total(snap) else 0.0,
            "MB/s",
        )
    for name in ("output.write_heatmap", "output.write_timeseries"):
        if name in have:
            out[f"{name}.s"] = (total(name) / calls, "s")
    if "cli.cmd_run" in have:
        out["cli.cmd_run.self_s"] = (own("cli.cmd_run") / calls, "s")
    return out
