"""The module -> layer table and the span tracer that uses it.

Every module of the ``repro`` package belongs to exactly one layer.  The
table below lists them explicitly, module by module, so that a module
added later is *unmapped* until someone decides where it belongs:
:func:`check_table` names every unmapped or doubly mapped module and the
benchmark refuses to run until the table is fixed.

:class:`LayerTracer` attributes host time and call counts to those
layers from outside the program, with :func:`sys.setprofile`.  Each
Python-level call is attributed to the layer of the module that defines
the called code.  A call whose layer differs from the caller's opens a
*span* (layer, start, end, parent span); self time is a span's duration
minus the time covered by its child spans.  Code outside ``repro`` (the
standard library, dataclass-generated methods, builtins) opens no span,
so its time counts toward the calling layer.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: layer -> the ``repro`` modules it owns (package ``__init__`` modules
#: appear under their package name)
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": (
        "repro.sim", "repro.sim.component", "repro.sim.kernel",
        "repro.sim.rng", "repro.sim.stats", "repro.sim.trace",
    ),
    "switches": (
        "repro.switches", "repro.switches.base",
        "repro.switches.central_buffer", "repro.switches.input_buffer",
        "repro.switches.packed_central", "repro.switches.packed_input",
    ),
    "switches.link": ("repro.switches.link", "repro.flits.packed"),
    "switches.chunks": ("repro.switches.chunks",),
    "switches.arbiter": ("repro.switches.arbiter",),
    "host": (
        "repro.host", "repro.host.interface", "repro.host.node",
        "repro.host.packed_interface", "repro.host.software_multicast",
    ),
    "routing": (
        "repro.routing", "repro.routing.base", "repro.routing.reachability",
        "repro.routing.table", "repro.routing.updown",
        "repro.flits.encoding", "repro.flits.destset",
    ),
    "flits": (
        "repro.flits", "repro.flits.flit", "repro.flits.packet",
        "repro.flits.worm",
    ),
    "traffic": (
        "repro.traffic", "repro.traffic.base", "repro.traffic.bimodal",
        "repro.traffic.hotspot", "repro.traffic.multicast",
        "repro.traffic.schedules", "repro.traffic.trace",
        "repro.traffic.unicast",
    ),
    "collectives": (
        "repro.collectives", "repro.collectives.barrier",
        "repro.collectives.gather", "repro.collectives.reduction",
        "repro.collectives.reliable",
    ),
    "metrics": (
        "repro.metrics", "repro.metrics.ascii_chart",
        "repro.metrics.collectors", "repro.metrics.probe",
        "repro.metrics.report",
    ),
    "network": (
        "repro.network", "repro.network.builder", "repro.network.config",
        "repro.network.simulation",
    ),
    "topology": (
        "repro.topology", "repro.topology.bmin", "repro.topology.graph",
        "repro.topology.irregular", "repro.topology.umin",
    ),
    "core": (
        "repro", "repro.__main__", "repro._version", "repro.errors",
        "repro.core", "repro.core.contention", "repro.core.latency_model",
        "repro.core.path_model", "repro.core.schemes",
    ),
    "experiments": (
        "repro.experiments", "repro.experiments.ablations",
        "repro.experiments.bimodal", "repro.experiments.common",
        "repro.experiments.cross_topology",
        "repro.experiments.degree_sweep", "repro.experiments.extensions",
        "repro.experiments.length_sweep",
        "repro.experiments.multiple_multicast",
        "repro.experiments.parallel", "repro.experiments.parameters",
        "repro.experiments.runner", "repro.experiments.saturation",
        "repro.experiments.system_size",
        "repro.experiments.unicast_baseline",
    ),
    "store": (
        "repro.store", "repro.store.backend", "repro.store.cli",
        "repro.store.codec", "repro.store.hashing", "repro.store.journal",
        "repro.store.memo", "repro.store.runtime",
    ),
    "farm": (
        "repro.farm", "repro.farm.backends", "repro.farm.campaign",
        "repro.farm.protocol", "repro.farm.runtime", "repro.farm.scheduler",
        "repro.farm.transport", "repro.farm.worker",
    ),
    "obs": (
        "repro.obs", "repro.obs.harness", "repro.obs.inspect",
        "repro.obs.manifest", "repro.obs.registry", "repro.obs.runtime",
        "repro.obs.sampler", "repro.obs.sinks", "repro.obs.profile",
        "repro.obs.profile.chrome_trace", "repro.obs.profile.heatmap",
        "repro.obs.profile.kernel_profiler",
        "repro.obs.profile.lifecycle", "repro.obs.profile.runner",
        "repro.obs.profile.trend",
    ),
    "analysis": (
        "repro.analysis", "repro.analysis.baseline", "repro.analysis.cli",
        "repro.analysis.engine", "repro.analysis.findings",
        "repro.analysis.project", "repro.analysis.rules",
        "repro.analysis.source",
    ),
    "bench": ("repro.bench", "repro.bench.kernel", "repro.bench.store"),
}

LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS)

#: pseudo-layer for code outside ``repro`` at the top of the stack (the
#: benchmark itself); reported only as part of the traced total
OUTSIDE = "(outside)"

#: (layer, function name) pairs counted on their own as well as in
#: their layer: the numerators of the ratio metrics
WATCHED: Tuple[Tuple[str, str], ...] = (
    ("sim", "step"),
    ("switches", "tick"),
    ("network", "build_network"),
)

#: watched names whose inclusive time is measured as well
INCLUSIVE = frozenset({("network", "build_network")})

#: code-table encoding of watched names (layer indices stay below it)
STRIDE = 64


class LayerTableError(Exception):
    """The layer table does not map every ``repro`` module exactly once."""


def discover_modules(package_dir: Path) -> Dict[str, Path]:
    """Every module under ``package_dir`` (the ``repro`` directory)."""
    modules = {}
    root = package_dir.parent
    for path in sorted(package_dir.rglob("*.py")):
        parts = list(path.relative_to(root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def check_table(modules: Iterable[str]) -> Dict[str, str]:
    """``{module: layer}``; raises naming every unmapped/double module."""
    owner: Dict[str, str] = {}
    twice: List[str] = []
    for layer, names in LAYERS.items():
        for name in names:
            if name in owner:
                twice.append(f"{name} ({owner[name]} and {layer})")
            owner.setdefault(name, layer)
    unmapped = sorted(set(modules) - set(owner))
    problems = []
    if unmapped:
        problems.append("unmapped: " + ", ".join(unmapped))
    if twice:
        problems.append("mapped twice: " + ", ".join(twice))
    if problems:
        raise LayerTableError(
            "layer table out of date (costbench/layers.py): "
            + "; ".join(problems)
        )
    return owner


@dataclass
class TraceResult:
    """What one traced pass measured, per layer and per watched name."""

    calls: Dict[str, int]
    watched_calls: Dict[Tuple[str, str], int]
    self_seconds: Dict[str, float]
    inclusive_seconds: Dict[Tuple[str, str], float]
    wall_seconds: float
    spans: int


class LayerTracer:
    """Per-layer spans, self time and call counts via ``sys.setprofile``.

    The tracer keeps the layer of every active frame on a stack.  A call
    into another layer opens a span and a return to another layer closes
    it; the clock is read only at those crossings, and the time between
    two crossings is self time of the layer that was running.  The first
    ``max_spans`` spans are also stored as compact arrays (start, end,
    layer, parent); later spans are counted and timed but not stored.
    """

    def __init__(
        self, owner: Dict[str, str], modules: Dict[str, Path],
        max_spans: int = 200_000,
    ) -> None:
        self.layers: Tuple[str, ...] = (OUTSIDE,) + LAYER_NAMES
        index = {name: i for i, name in enumerate(self.layers)}
        self._file_layer = {
            str(path.resolve()): index[owner[module]]
            for module, path in modules.items()
        }
        self._watched = {
            (index[layer], name): slot
            for slot, (layer, name) in enumerate(WATCHED)
        }
        self.max_spans = max_spans
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_layer = array("b")
        self.span_parent = array("i")

    def _resolve(self, code) -> int:
        """The code's layer index, -1 outside ``repro``, or ``STRIDE *
        (watched slot + 1) + layer`` for a watched name."""
        try:
            layer = self._file_layer[str(Path(code.co_filename).resolve())]
        except (KeyError, OSError):
            return -1
        watch = self._watched.get((layer, code.co_name), -1)
        return layer if watch < 0 else STRIDE * (watch + 1) + layer

    def run(self, fn) -> TraceResult:
        """Call ``fn()`` under the tracer; spans from earlier runs drop."""
        starts, ends = self.span_start, self.span_end
        layers_of, parents = self.span_layer, self.span_parent
        for buf in (starts, ends, layers_of, parents):
            del buf[:]
        nlayers = len(self.layers)
        calls = [0] * nlayers
        self_time = [0.0] * nlayers
        watched_calls = [0] * len(WATCHED)
        inclusive_slots = [
            slot for slot, key in enumerate(WATCHED) if key in INCLUSIVE
        ]
        inclusive = [0.0] * len(WATCHED)
        inclusive_open: List[Tuple[object, int, float]] = []
        # keyed by id: hashing a code object hashes its whole contents
        codes: Dict[int, int] = {}
        seen: List[object] = []
        resolve = self._resolve
        clock = time.perf_counter
        cap = self.max_spans
        # layer of every active frame (seeded so that returns from frames
        # entered before the tracer started find a caller)
        frames = [0] * 64
        open_spans = [-1]
        spans = 0
        cur = 0
        last = clock()

        def profile(frame, event, _arg):
            nonlocal cur, last, spans
            if event == "call":
                code = frame.f_code
                layer = codes.get(id(code))
                if layer is None:
                    # keep the code alive so its id is never reused
                    seen.append(code)
                    layer = codes[id(code)] = resolve(code)
                if layer < 0:
                    frames.append(cur)
                    return
                if layer >= STRIDE:
                    slot = layer // STRIDE - 1
                    layer %= STRIDE
                    watched_calls[slot] += 1
                    if slot in inclusive_slots:
                        inclusive_open.append((frame, slot, clock()))
                calls[layer] += 1
                frames.append(layer)
                if layer != cur:
                    now = clock()
                    self_time[cur] += now - last
                    last = now
                    cur = layer
                    if spans < cap:
                        open_spans.append(spans)
                        starts.append(now)
                        ends.append(now)
                        layers_of.append(layer)
                        parents.append(open_spans[-2])
                    else:
                        open_spans.append(-1)
                    spans += 1
            elif event == "return":
                layer = frames.pop()
                caller = frames[-1]
                if inclusive_open and inclusive_open[-1][0] is frame:
                    _, slot, began = inclusive_open.pop()
                    inclusive[slot] += clock() - began
                if caller != layer:
                    now = clock()
                    self_time[layer] += now - last
                    last = now
                    cur = caller
                    if len(open_spans) > 1:
                        stored = open_spans.pop()
                        if stored >= 0:
                            ends[stored] = now

        started = clock()
        last = started
        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
        wall = clock() - started
        self_time[cur] += started + wall - last
        return TraceResult(
            calls={
                name: calls[i] for i, name in enumerate(self.layers) if i
            },
            watched_calls=dict(zip(WATCHED, watched_calls)),
            self_seconds=dict(zip(self.layers, self_time)),
            inclusive_seconds=dict(zip(WATCHED, inclusive)),
            wall_seconds=wall,
            spans=spans,
        )

    def write_spans(self, path: Path) -> int:
        """Write the stored spans, one ``index layer parent start end``
        line each (times in seconds from the first span)."""
        count = len(self.span_start)
        base = self.span_start[0] if count else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("# layers: " + " ".join(self.layers) + "\n")
            out.write("# columns: index layer parent start_s end_s\n")
            for i in range(count):
                out.write(
                    f"{i} {self.span_layer[i]} {self.span_parent[i]} "
                    f"{self.span_start[i] - base:.7f} "
                    f"{self.span_end[i] - base:.7f}\n"
                )
        return count


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 for an empty denominator."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    trace: TraceResult, cycles: int, flits: int
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metric rows derived from one traced pass."""
    kcycles = cycles / 1000.0
    total = sum(trace.self_seconds.values())
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.calls_per_kcycle"] = (
            ratio(trace.calls[layer], kcycles), "1/kcycle"
        )
        out[f"{layer}.self_s"] = (trace.self_seconds[layer], "s")
        out[f"{layer}.share"] = (
            ratio(trace.self_seconds[layer], total), "fraction"
        )
    out["sim.stepped_frac"] = (
        ratio(trace.watched_calls[("sim", "step")], cycles), "fraction"
    )
    out["switches.ticks_per_cycle"] = (
        ratio(trace.watched_calls[("switches", "tick")], cycles), "1/cycle"
    )
    out["switches.link.calls_per_flit"] = (
        ratio(trace.calls["switches.link"], flits), "1/flit"
    )
    out["network.build_share"] = (
        ratio(
            trace.inclusive_seconds[("network", "build_network")],
            trace.wall_seconds,
        ),
        "fraction",
    )
    return out


def same_counts(
    first: TraceResult, second: TraceResult, layers: Sequence[str]
) -> List[str]:
    """Layers (or watched names) whose call counts differ between runs."""
    diffs = [
        f"{layer}: {first.calls[layer]} != {second.calls[layer]}"
        for layer in layers
        if first.calls[layer] != second.calls[layer]
    ]
    diffs += [
        f"{'.'.join(key)}: {first.watched_calls[key]} != "
        f"{second.watched_calls[key]}"
        for key in WATCHED
        if key[0] in layers
        and first.watched_calls[key] != second.watched_calls[key]
    ]
    return diffs
