"""What each workload runs, and how its output is checked.

A workload is a list of :class:`Part`\\ s.  A part is one execution plan
built by an experiment's own ``plan_*`` function at quick scale, with
each spec's simulation seed rewritten from the workload seed (see
:func:`reseed`).  A whole experiment carries its ``reduce_*`` function,
so a pass can compare table rows; a sliced grid carries only specs and
is checked spec by spec against recorded digests.

The program only ever sees the generated plans: every pass goes through
``repro.experiments.parallel.run_outcomes`` (the serial path the
experiment runner uses with ``--jobs 1``) or through the farm's
``run_campaign``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: the seed whose specs are exactly the checked-in quick-scale grids
DEFAULT_SEED = 1

#: experiment id -> (module, plan function, reduce function), for every
#: experiment a workload draws on
EXPERIMENTS: Dict[str, Tuple[str, str, str]] = {
    "e1": ("multiple_multicast", "plan_multiple_multicast",
           "reduce_multiple_multicast"),
    "e2": ("degree_sweep", "plan_degree_sweep", "reduce_degree_sweep"),
    "e3": ("length_sweep", "plan_length_sweep", "reduce_length_sweep"),
    "e4": ("bimodal", "plan_bimodal", "reduce_bimodal"),
    "e5": ("system_size", "plan_system_size", "reduce_system_size"),
    "e6": ("unicast_baseline", "plan_unicast_baseline",
           "reduce_unicast_baseline"),
    "e7": ("parameters", "plan_parameters", "reduce_parameters"),
    "a1": ("ablations", "plan_cb_bandwidth_ablation",
           "reduce_cb_bandwidth_ablation"),
    "a2": ("ablations", "plan_routing_mode_ablation",
           "reduce_routing_mode_ablation"),
    "a3": ("ablations", "plan_encoding_ablation", "reduce_encoding_ablation"),
    "a4": ("ablations", "plan_replication_ablation",
           "reduce_replication_ablation"),
    "a5": ("ablations", "plan_equal_storage_ablation",
           "reduce_equal_storage_ablation"),
    "x1": ("extensions", "plan_barrier_scaling", "reduce_barrier_scaling"),
    "x2": ("extensions", "plan_hotspot", "reduce_hotspot"),
    "x3": ("extensions", "plan_buffer_occupancy", "reduce_buffer_occupancy"),
    "x4": ("cross_topology", "plan_cross_topology", "reduce_cross_topology"),
}

#: the short-multicast experiments, run whole
SHORT_MULTICAST = (
    "e1", "e2", "e3", "e5", "e7", "a1", "a2", "a3", "a4", "x1", "x4",
)

#: the loaded-sweep slice: one spec from each of four load-sweep grids,
#: together covering CB and IB switches, hardware and software multicast
#: and hot-spot traffic (keys are the seed-1 grid keys).  Chosen so that
#: its traced self-time shares of the switch, link, arbiter and chunk
#: layers match those of the five whole grids (e4, e6, a5, x2, x3); see
#: README.md
LOADED_SLICE: Tuple[Tuple[str, Tuple[Any, ...]], ...] = (
    ("e4", (0.4, "sw", 1)),                # CB, software multicast
    ("e6", (0.2, "ib-hw", 1)),             # IB, uniform unicast load
    ("a5", (0.45, "ib-2048-split", 1)),    # IB, equal-storage buffers
    ("x2", (0.1, "cb-hw", 1)),             # CB, 10% hot-spot traffic
)


@dataclasses.dataclass
class Part:
    """One plan of a workload; whole experiments carry their reduce step."""

    name: str
    plan: Any
    reduce: Optional[Callable[..., Any]] = None


def _experiment(exp_id: str) -> Tuple[Callable, Callable]:
    module, plan_name, reduce_name = EXPERIMENTS[exp_id]
    mod = importlib.import_module(f"repro.experiments.{module}")
    return getattr(mod, plan_name), getattr(mod, reduce_name)


def reseed(spec: Any, seed: int) -> Any:
    """``spec`` with its simulation seed moved by ``seed - DEFAULT_SEED``.

    A grid's seeds are ``1, 98, ...``; workload seed ``s`` turns them
    into ``s, s + 97, ...`` so repeats stay distinct.  Specs carry the
    seed in their ``config`` (most grids) or as a ``seed`` argument
    (the barrier grid); E7's calibration run fixes its own seed and is
    unchanged.  Keys stay as planned, so the reduce steps still find
    every value.
    """
    shift = seed - DEFAULT_SEED
    kwargs = dict(spec.kwargs)
    if "config" in kwargs:
        config = kwargs["config"]
        kwargs["config"] = config.derived(seed=config.seed + shift)
    elif "seed" in kwargs:
        kwargs["seed"] = kwargs["seed"] + shift
    else:
        return spec
    return dataclasses.replace(spec, kwargs=kwargs)


def build_parts(workload: str, seed: int) -> List[Part]:
    """The plans of one workload at one seed."""
    from repro.experiments.common import QUICK
    from repro.experiments.parallel import ExecutionPlan

    if workload == "loaded-sweep":
        plans: Dict[str, Any] = {}
        specs = []
        for exp_id, key in LOADED_SLICE:
            if exp_id not in plans:
                plans[exp_id] = _experiment(exp_id)[0](QUICK)
            (spec,) = [s for s in plans[exp_id].specs if s.key == key]
            specs.append(
                dataclasses.replace(
                    reseed(spec, seed), key=(exp_id,) + tuple(key)
                )
            )
        return [Part("loaded-sweep", ExecutionPlan("loaded-sweep", specs))]
    parts = []
    for exp_id in SHORT_MULTICAST:
        plan_fn, reduce_fn = _experiment(exp_id)
        plan = plan_fn(QUICK)
        plan.specs = [reseed(spec, seed) for spec in plan.specs]
        parts.append(Part(exp_id, plan, reduce_fn))
    return parts


def union_plan(parts: List[Part]) -> Any:
    """All parts' specs as one plan, keys prefixed by the part name."""
    from repro.experiments.parallel import ExecutionPlan

    return ExecutionPlan(
        "campaign",
        [
            dataclasses.replace(spec, key=(part.name,) + tuple(spec.key))
            for part in parts
            for spec in part.plan.specs
        ],
    )


def digest(value: Any) -> str:
    """A short content digest of one run's value (exact float reprs)."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def canonical_rows(rows: Any) -> Any:
    """Rows exactly as JSON stores them, as the golden files do."""
    return json.loads(json.dumps(rows))


def golden_rows(root: Path, exp_id: str) -> Any:
    """The checked-in quick-scale rows of one experiment."""
    path = root / "tests" / "experiments" / "golden" / f"{exp_id}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def recorded_digests(path: Path) -> Dict[str, str]:
    """Recorded per-spec digests of the loaded-sweep slice (seed 1)."""
    return json.loads(path.read_text(encoding="utf-8"))["digests"]


def key_label(key: Tuple[Any, ...]) -> str:
    """A spec key as one string (also the digest file's key)."""
    return "/".join(str(part) for part in key)
