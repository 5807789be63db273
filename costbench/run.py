"""Reproduction-cost benchmark: what regenerating the tables costs, and
which layer spends the time.

Run from the repository root::

    python3 costbench/run.py --workload loaded-sweep --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times the workload end to end with tracing off and prints
the end-to-end metrics.  ``--trace 1`` runs the untraced reference pass,
then the same pass twice more under the layer tracer (in two child
processes), checks that both traced passes made exactly the same calls
and simulated exactly the same cycles, and prints the per-layer
metrics.  Every pass's output is checked; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` and the
exit code is 0 only when every check passed.  See README.md next to
this file for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".costbench"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("loaded-sweep", "short-multicast", "campaign")
#: farm shards of the campaign workload.  One: on a 2-vCPU virtual
#: machine the second vCPU comes and goes (two CPU-bound processes ran
#: each at half speed in about a third of samples), which spread a
#: 2-shard cold phase by 28% across seeds; with one shard the cold phase
#: does the same simulation on one CPU as short-multicast, so their
#: difference is the campaign layer alone.
SHARDS = 1
#: repeats of each set-up step that can be repeated in one process
SETUP_REPEATS = 3
#: timed passes (cold campaigns) per run, even when one outlasts
#: ``--seconds``: a single pass would make the median one sample
MIN_PASSES = 2
#: on campaign, a batch of warm store answers follows every cold pass:
#: at least WARM_REPEATS answers and at least WARM_BATCH_S seconds;
#: warm_s is the median over the run's batches of their mean time per
#: answer
WARM_REPEATS = 5
WARM_BATCH_S = 1.0
#: a traced child pass that runs longer than this is killed
CHILD_TIMEOUT_S = 150.0
#: printed with --trace 0 but left out of the result line: failed_frac
#: is 0 on every correct run, and warm_s (campaign only; millisecond
#: store answers) swings with the host's speed far more than whole
#: passes do; it is reported as the per-layer store.warm_s instead
PRINTED_ONLY = ("warm_s", "failed_frac")


class SetupError(Exception):
    """The benchmark cannot run here (no sources, stale layer table)."""


# ----------------------------------------------------------------------
# helpers around the program
# ----------------------------------------------------------------------
class NetworkRecorder:
    """Collects every network built while active, to read the simulated
    cycles (``sim.now``) and link flits (``Link.flits_sent``) of each
    run after it finishes.  Patches ``Network.__init__`` for the
    duration of a ``with`` block and restores it on exit."""

    def __init__(self) -> None:
        from repro.network.builder import Network

        self._cls = Network
        self._original = Network.__init__
        self._built: List[Any] = []

    def __enter__(self) -> "NetworkRecorder":
        original, built = self._original, self._built

        def init(network: Any, *args: Any, **kwargs: Any) -> None:
            original(network, *args, **kwargs)
            built.append(network)

        self._cls.__init__ = init
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._cls.__init__ = self._original

    def take(self) -> Tuple[int, int]:
        """(cycles, flits) of the networks built since the last take."""
        cycles = sum(net.sim.now for net in self._built)
        flits = sum(
            link.flits_sent for net in self._built for link in net.links
        )
        self._built.clear()
        return cycles, flits


def make_started_pool(shards: int) -> Any:
    """A local-pool farm backend whose workers start now, not per
    campaign: worker start-up is set-up cost, outside the timed phase."""
    from repro.farm.backends import LocalPoolBackend, WorkerBackend

    class StartedPool(WorkerBackend):
        kind = LocalPoolBackend.kind

        def __init__(self) -> None:
            self.inner = LocalPoolBackend()
            self.inner.start(shards)

        def start(self, workers: int) -> None:
            if workers != shards:
                raise ValueError(f"pool has {shards} workers, not {workers}")

        def dispatch(self, worker: int, spec: Any) -> None:
            self.inner.dispatch(worker, spec)

        def collect(self) -> Any:
            return self.inner.collect()

        def close(self) -> None:
            """Kept open across campaigns; see :meth:`shutdown`."""

        def shutdown(self) -> None:
            self.inner.close()

    return StartedPool()


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def time_subprocess_import() -> float:
    """Seconds to import the package in a fresh interpreter."""
    code = (
        "import sys, time; t = time.perf_counter(); "
        f"sys.path.insert(0, {str(SRC)!r}); "
        "import repro.experiments.runner, repro.farm.campaign, "
        "repro.store.backend; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# passes and their checks
# ----------------------------------------------------------------------
#: error key of a pass that failed as a whole (every part fails)
WHOLE_PASS = "*"


@dataclass
class PassResult:
    """One pass over a workload: timing, outputs and run outcomes."""

    wall: float
    digests: Dict[str, str] = field(default_factory=dict)
    incomplete: Set[str] = field(default_factory=set)
    rows: Dict[str, Any] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    outcomes: Dict[str, Any] = field(default_factory=dict)
    cycles: Dict[str, int] = field(default_factory=dict)
    flits: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)


def label(part: Any, key: Tuple[Any, ...]) -> str:
    """A spec's label: its key, prefixed by the experiment for whole
    experiments (the loaded-sweep slice's keys already carry it)."""
    from workloads import key_label

    prefix = () if part.reduce is None else (part.name,)
    return key_label(prefix + tuple(key))


def labels(part: Any) -> List[Tuple[Any, str]]:
    """(plan key, label) of every spec of a part."""
    return [(spec.key, label(part, spec.key)) for spec in part.plan.specs]


def fold_outputs(result: PassResult, part: Any, values: Dict) -> None:
    """Record digests, completion and canonical rows of one part."""
    from workloads import canonical_rows, digest

    for key, name in labels(part):
        if key not in values:
            continue
        value = values[key]
        result.digests[name] = digest(value)
        if getattr(value, "completed", True) is False:
            result.incomplete.add(name)
    rows = result.rows.get(part.name)
    if rows is not None:
        result.rows[part.name] = canonical_rows(rows)


def serial_pass(
    parts: List[Any], recorder: Optional[NetworkRecorder]
) -> PassResult:
    """Run every part through the serial execution path, timed.

    Callers collect garbage first, so that no pass pays for the garbage
    of the pass before it."""
    from repro.experiments.parallel import resolve, run_outcomes

    per_part: Dict[str, Dict] = {}
    result = PassResult(wall=0.0)
    current: List[Any] = []
    progress = None
    if recorder is not None:
        def progress(outcome: Any, _done: int, _total: int) -> None:
            name = label(current[-1], outcome.key)
            result.cycles[name], result.flits[name] = recorder.take()
    started = time.perf_counter()
    for part in parts:
        current.append(part)
        try:
            outcomes = run_outcomes(part.plan, jobs=1, progress=progress)
            values = resolve(outcomes)
            if part.reduce is not None:
                result.rows[part.name] = part.reduce(part.plan, values).rows
        except Exception as error:  # a failed run is a measured outcome
            result.errors[part.name] = f"{type(error).__name__}: {error}"
            continue
        per_part[part.name] = values
        result.outcomes[part.name] = outcomes
    result.wall = time.perf_counter() - started
    for part in parts:
        if part.name in per_part:
            fold_outputs(result, part, per_part[part.name])
    return result


def split_union(parts: List[Any], values: Dict) -> Dict[str, Dict]:
    """Union-plan values regrouped per part, with the part's own keys."""
    grouped: Dict[str, Dict] = {part.name: {} for part in parts}
    for key, value in values.items():
        grouped[key[0]][tuple(key[1:])] = value
    return grouped


def campaign_pass(
    parts: List[Any], union: Any, backend: Any, store_dir: Path,
    warm: bool,
) -> PassResult:
    """One cold (fresh store, executes) or warm (reopened store, reads)
    campaign over the union plan, reduced per experiment, timed."""
    from repro.experiments.parallel import SOURCE_HIT, resolve
    from repro.farm.campaign import run_campaign
    from repro.store.backend import JournalStore

    result = PassResult(wall=0.0)
    if not warm:
        fresh_dir(store_dir)
    store = None
    started = time.perf_counter()
    try:
        store = JournalStore(store_dir, create=not warm)
        campaign = run_campaign(union, backend, SHARDS, store=store)
        grouped = split_union(parts, resolve(campaign.outcomes))
        for part in parts:
            result.rows[part.name] = part.reduce(
                part.plan, grouped[part.name]
            ).rows
    except Exception as error:  # a failed campaign is a measured outcome
        result.errors[WHOLE_PASS] = f"{type(error).__name__}: {error}"
        return result
    finally:
        if store is not None:
            store.close()
    result.wall = time.perf_counter() - started
    for part in parts:
        fold_outputs(result, part, grouped[part.name])
    result.extra["campaign"] = campaign
    result.extra["store_bytes"] = store.stats()["bytes"]
    hits = sum(1 for o in campaign.outcomes if o.source == SOURCE_HIT)
    result.extra["hit_frac"] = hits / len(campaign.outcomes)
    if warm and hits != len(campaign.outcomes):
        # a warm campaign that executes is wrong even when its rows are
        # right: the store failed to answer what it journalled
        result.errors[WHOLE_PASS] = (
            f"warm campaign answered {hits} of {len(campaign.outcomes)} "
            "specs from the store"
        )
    return result


@dataclass
class Reference:
    """What every pass of one run must reproduce."""

    digests: Optional[Dict[str, str]] = None
    rows: Optional[Dict[str, Any]] = None


class Checker:
    """Counts attempted and failed runs across every checked pass."""

    def __init__(self, parts: List[Any], reference: Reference) -> None:
        self.parts = parts
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, name: str, result: PassResult) -> None:
        """Fail every run that raised, did not complete, or differs."""
        ref = self.reference
        failed: Set[str] = set()
        for part in self.parts:
            part_labels = [name for _, name in labels(part)]
            self.attempted += len(part_labels)
            error = result.errors.get(part.name) or result.errors.get(
                WHOLE_PASS
            )
            if error:
                failed.update(part_labels)
                self.problems.append(f"{name}: {part.name} raised {error}")
                continue
            if (
                part.reduce is not None
                and ref.rows is not None
                and result.rows.get(part.name) != ref.rows[part.name]
            ):
                failed.update(part_labels)
                self.problems.append(f"{name}: {part.name} rows differ")
            for spec in part_labels:
                if spec in result.incomplete:
                    failed.add(spec)
                    self.problems.append(f"{name}: {spec} incomplete")
                elif spec not in result.digests or (
                    ref.digests is not None
                    and result.digests[spec] != ref.digests.get(spec)
                ):
                    failed.add(spec)
                    self.problems.append(f"{name}: {spec} output differs")
        self.failed += len(failed)

    def adopt(self, result: PassResult) -> None:
        """Take unset references from a checked pass (held-out seeds)."""
        if self.reference.digests is None:
            self.reference.digests = dict(result.digests)
        if self.reference.rows is None:
            self.reference.rows = dict(result.rows)


def initial_reference(workload: str, parts: List[Any], seed: int) -> Reference:
    """Recorded references at the default seed; none at other seeds."""
    from workloads import DEFAULT_SEED, golden_rows, recorded_digests

    if seed != DEFAULT_SEED:
        return Reference()
    if workload == "loaded-sweep":
        return Reference(digests=recorded_digests(DIGESTS))
    return Reference(
        rows={part.name: golden_rows(ROOT, part.name) for part in parts}
    )


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
@dataclass
class Setup:
    """The loaded program: plans, layer table, and the plan-build time."""

    parts: List[Any]
    owner: Dict[str, str]
    modules: Dict[str, Path]
    plan_s: float


def load_program(workload: str, seed: int) -> Setup:
    """Import the package, check the layer table, build the plans."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import layers
    import workloads

    modules = layers.discover_modules(SRC / "repro")
    try:
        owner = layers.check_table(modules)
    except layers.LayerTableError as error:
        raise SetupError(str(error)) from error
    import repro.experiments.runner  # noqa: F401  (the whole program)
    import repro.farm.campaign  # noqa: F401
    import repro.store.backend  # noqa: F401

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")
    plan_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        parts = workloads.build_parts(workload, seed)
        plan_times.append(time.perf_counter() - started)
    return Setup(parts, owner, modules, median(plan_times))


def child_command(workload: str, seed: int, out: Path) -> List[str]:
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--traced-pass", str(out),
    ]


def traced_child(workload: str, seed: int, out: Path) -> int:
    """Child mode: one traced pass; results go to ``out`` as JSON and the
    stored spans next to it."""
    import layers

    setup = load_program(workload, seed)
    tracer = layers.LayerTracer(setup.owner, setup.modules)
    report: Dict[str, Any] = {}
    passes: Dict[str, PassResult] = {}
    backend = None
    try:
        if workload == "campaign":
            from workloads import union_plan

            backend = make_started_pool(SHARDS)
            union = union_plan(setup.parts)
            store_dir = OUT_DIR / "stores" / f"traced-{os.getpid()}"

            def work() -> None:
                for name in ("cold", "warm"):
                    passes[name] = campaign_pass(
                        setup.parts, union, backend, store_dir,
                        warm=name == "warm",
                    )

            trace = tracer.run(work)
            shutil.rmtree(store_dir, ignore_errors=True)
        else:
            with NetworkRecorder() as recorder:
                trace = tracer.run(
                    lambda: passes.update(
                        serial=serial_pass(setup.parts, recorder)
                    )
                )
            report["cycles"] = sum(passes["serial"].cycles.values())
            report["flits"] = sum(passes["serial"].flits.values())
    finally:
        if backend is not None:
            backend.shutdown()
    spans_path = out.with_name(out.stem + "-spans.txt")
    report.update(
        calls=trace.calls,
        watched_calls={".".join(k): v for k, v in trace.watched_calls.items()},
        self_seconds=trace.self_seconds,
        inclusive_seconds={
            ".".join(k): v for k, v in trace.inclusive_seconds.items()
        },
        wall_seconds=trace.wall_seconds,
        spans=trace.spans,
        spans_file=str(spans_path),
        spans_written=tracer.write_spans(spans_path),
        passes={
            name: {
                "digests": p.digests, "incomplete": sorted(p.incomplete),
                "rows": p.rows, "errors": p.errors,
            }
            for name, p in passes.items()
        },
    )
    out.write_text(json.dumps(report), encoding="utf-8")
    return 0


def run_children(
    workload: str, seed: int, concurrent: bool
) -> List[Dict[str, Any]]:
    """Two traced child passes; concurrent for the serial workloads."""
    outs = [OUT_DIR / f"traced-{workload}-{i}.json" for i in (1, 2)]
    for out in outs:
        if out.exists():
            out.unlink()
    procs: List[subprocess.Popen] = []
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        for out in outs:
            procs.append(
                subprocess.Popen(
                    child_command(workload, seed, out),
                    stdout=subprocess.DEVNULL,
                )
            )
            if not concurrent:
                procs[-1].wait(timeout=max(1.0, deadline - time.monotonic()))
        for proc in procs:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    reports = []
    for proc, out in zip(procs, outs):
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(
                f"traced pass exited with code {proc.returncode}"
            )
        reports.append(json.loads(out.read_text(encoding="utf-8")))
    return reports


def as_pass(report: Dict[str, Any]) -> PassResult:
    return PassResult(
        wall=0.0, digests=report["digests"],
        incomplete=set(report["incomplete"]), rows=report["rows"],
        errors=report["errors"],
    )


def trace_result(report: Dict[str, Any]) -> Any:
    import layers

    def split(table: Dict[str, Any]) -> Dict[Tuple[str, str], Any]:
        return {tuple(k.rsplit(".", 1)): v for k, v in table.items()}

    return layers.TraceResult(
        calls=report["calls"],
        watched_calls=split(report["watched_calls"]),
        self_seconds=report["self_seconds"],
        inclusive_seconds=split(report["inclusive_seconds"]),
        wall_seconds=report["wall_seconds"],
        spans=report["spans"],
    )


@dataclass
class Measured:
    """The untraced measurements of one run."""

    wall_s: float
    warm_s: float
    setup_s: float
    untraced_wall: float
    run_walls: List[float]
    extra: Dict[str, float]


def warm_batch(
    answer: Callable[[], PassResult], checker: Checker, warms: List[float]
) -> PassResult:
    """Answer the workload from the store over and over for at least
    WARM_BATCH_S, checking every answer; appends the batch's mean time
    per answer to ``warms``.  A batch spans several of the host's speed
    swings, which single millisecond answers would each land in.  It
    stops at the first failed answer."""
    times: List[float] = []
    gc.collect()
    until = time.perf_counter() + WARM_BATCH_S
    while len(times) < WARM_REPEATS or time.perf_counter() < until:
        answered = answer()
        failed = checker.failed
        checker.check("warm answer", answered)
        times.append(answered.wall)
        if checker.failed != failed:
            break
    warms.append(statistics.mean(times))
    return answered


def measure_serial(
    args: argparse.Namespace, parts: List[Any], checker: Checker
) -> Measured:
    """Timed serial passes after the reference (warm-up) pass; one pass
    when traced, for the per-run times and the untraced wall."""
    walls: List[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        gc.collect()
        timed = serial_pass(parts, None)
        checker.check(f"timed pass {len(walls)}", timed)
        walls.append(timed.wall)
        if args.trace or (
            len(walls) >= MIN_PASSES and time.perf_counter() >= deadline
        ):
            break
    run_walls = sorted(
        o.wall_seconds for outs in timed.outcomes.values() for o in outs
    )
    return Measured(
        wall_s=median(walls), warm_s=0.0, setup_s=0.0,
        untraced_wall=median(walls), run_walls=run_walls, extra={},
    )


def measure_campaign(
    args: argparse.Namespace, parts: List[Any], checker: Checker,
    store_root: Path,
) -> Measured:
    """Timed cold campaigns, each followed by a batch of warm answers
    from its store."""
    from workloads import union_plan

    starts = []
    pool = None
    try:
        for _ in range(SETUP_REPEATS):
            if pool is not None:
                pool.shutdown()
            started = time.perf_counter()
            pool = make_started_pool(SHARDS)
            starts.append(time.perf_counter() - started)
        union = union_plan(parts)
        colds: List[float] = []
        warms: List[float] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            store_dir = store_root / f"cold-{len(colds)}"
            gc.collect()
            cold = campaign_pass(parts, union, pool, store_dir, warm=False)
            checker.check(f"cold campaign {len(colds)}", cold)
            colds.append(cold.wall)
            warm = warm_batch(
                lambda: campaign_pass(
                    parts, union, pool, store_dir, warm=True
                ),
                checker, warms,
            )
            shutil.rmtree(store_dir, ignore_errors=True)
            if args.trace or (
                len(colds) >= MIN_PASSES and time.perf_counter() >= deadline
            ):
                break
    finally:
        if pool is not None:
            pool.shutdown()
    extra = {"store.hit_frac": warm.extra.get("hit_frac", 0.0)}
    run_walls: List[float] = []
    campaign = cold.extra.get("campaign")
    if campaign is not None:
        sources = [o.source for o in campaign.outcomes]
        run_walls = sorted(
            o.wall_seconds for o in campaign.outcomes
            if o.source == "executed"
        )
        extra.update({
            "store.executed": float(sources.count("executed")),
            "store.coalesced": float(sources.count("coalesced")),
            "store.journal_bytes": float(cold.extra["store_bytes"]),
            "farm.utilisation": sum(
                w.work_seconds for w in campaign.workers
            ) / (cold.wall * SHARDS),
            "farm.requeues": float(campaign.requeues),
        })
    return Measured(
        wall_s=median(colds), warm_s=median(warms),
        setup_s=median(starts),
        untraced_wall=median(colds) + median(warms),
        run_walls=run_walls, extra=extra,
    )


#: units of the per-layer metrics that come from the untraced campaign
#: run; the serial workloads report them as 0
UNTRACED_UNITS = {
    "store.hit_frac": "fraction", "store.executed": "count",
    "store.coalesced": "count", "store.journal_bytes": "bytes",
    "farm.utilisation": "fraction", "farm.requeues": "count",
}


def layer_report(
    args: argparse.Namespace, checker: Checker, measured: Measured,
    cycles: int, flits: int,
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Run the two traced children, check them, derive layer metrics."""
    import layers

    serial = args.workload != "campaign"
    reports = run_children(args.workload, args.seed, concurrent=serial)
    traces = [trace_result(r) for r in reports]
    for i, report in enumerate(reports, start=1):
        for name, data in report["passes"].items():
            checker.check(f"traced {name} {i}", as_pass(data))
        if serial and (report["cycles"], report["flits"]) != (cycles, flits):
            checker.failed += 1
            checker.problems.append(
                f"traced pass {i} simulated {report['cycles']} cycles "
                f"/ {report['flits']} flits, untraced {cycles} / {flits}"
            )
    # the parent side of a campaign polls its workers, so only the
    # serial workloads promise farm call counts that repeat exactly
    exact = [n for n in layers.LAYER_NAMES if serial or n != "farm"]
    diffs = layers.same_counts(traces[0], traces[1], exact)
    if diffs:
        checker.failed += 1
        checker.problems.append(
            "traced call counts differ: " + "; ".join(diffs)
        )
    merged = layers.TraceResult(
        calls=traces[0].calls,
        watched_calls=traces[0].watched_calls,
        self_seconds={
            k: statistics.mean(t.self_seconds[k] for t in traces)
            for k in traces[0].self_seconds
        },
        inclusive_seconds={
            k: statistics.mean(t.inclusive_seconds[k] for t in traces)
            for k in traces[0].inclusive_seconds
        },
        wall_seconds=statistics.mean(t.wall_seconds for t in traces),
        spans=traces[0].spans,
    )
    metrics = layers.layer_metrics(merged, cycles, flits)
    walls = measured.run_walls
    metrics["experiments.run_p50_s"] = (median(walls), "s")
    metrics["experiments.run_max_s"] = (walls[-1] if walls else 0.0, "s")
    for name, unit in UNTRACED_UNITS.items():
        metrics[name] = (measured.extra.get(name, 0.0), unit)
    metrics["store.warm_s"] = (measured.warm_s, "s")
    metrics["trace_overhead"] = (
        layers.ratio(merged.wall_seconds, measured.untraced_wall), "ratio"
    )
    return metrics, [f"spans: {r['spans_file']}" for r in reports]


def run_workload(args: argparse.Namespace) -> Tuple[bool, int, int, Dict]:
    """Set up, measure and check one workload; returns the result."""
    from layers import ratio

    workload, seed = args.workload, args.seed
    setup = load_program(workload, seed)
    OUT_DIR.mkdir(exist_ok=True)
    parts = setup.parts
    setup_s = setup.plan_s
    if not args.trace:
        setup_s += median(
            [time_subprocess_import() for _ in range(SETUP_REPEATS)]
        )
    checker = Checker(parts, initial_reference(workload, parts, seed))
    with NetworkRecorder() as recorder:
        reference = serial_pass(parts, recorder)
    setup_s += reference.wall
    checker.check("reference pass", reference)
    checker.adopt(reference)
    cycles = sum(reference.cycles.values())
    flits = sum(reference.flits.values())
    if workload == "campaign":
        store_root = OUT_DIR / "stores" / f"run-{os.getpid()}"
        try:
            measured = measure_campaign(args, parts, checker, store_root)
        finally:
            shutil.rmtree(store_root, ignore_errors=True)
    else:
        measured = measure_serial(args, parts, checker)
    setup_s += measured.setup_s
    notes: List[str] = []
    if args.trace:
        metrics, notes = layer_report(args, checker, measured, cycles, flits)
    else:
        metrics = {
            "wall_s": (measured.wall_s, "s"),
            "sim_cycles_per_s": (ratio(cycles, measured.wall_s), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "failed_frac": (
                ratio(checker.failed, checker.attempted), "fraction"
            ),
        }
        if workload == "campaign":
            metrics["warm_s"] = (measured.warm_s, "s")
    for problem in checker.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = checker.failed == 0
    return correct, checker.attempted, checker.failed, {
        "metrics": metrics, "notes": notes,
    }


def record_digests(seed: int) -> int:
    """Write the loaded-sweep slice's per-spec digests (default seed)."""
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        print("digests are recorded at the default seed", file=sys.stderr)
        return 2
    setup = load_program("loaded-sweep", seed)
    result = serial_pass(setup.parts, None)
    if result.errors or result.incomplete:
        print(f"reference pass failed: {result.errors}", file=sys.stderr)
        return 1
    DIGESTS.write_text(
        json.dumps(
            {"seed": seed, "digests": result.digests}, indent=1,
            sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(result.digests)} digests to {DIGESTS}")
    return 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="rewrite digests.json from a loaded-sweep pass at seed 1",
    )
    parser.add_argument("--traced-pass", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if args.traced_pass is not None:
            return traced_child(args.workload, args.seed, args.traced_pass)
        if args.record_digests:
            return record_digests(args.seed)
        started = time.perf_counter()
        correct, attempted, failed, body = run_workload(args)
    except SetupError as error:
        print(f"costbench: {error}", file=sys.stderr)
        return 2
    metrics = body["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    for note in body["notes"]:
        print(note)
    from repro.obs.manifest import RunManifest

    manifest = RunManifest.collect(
        wall_seconds=time.perf_counter() - started,
        jobs=SHARDS if args.workload == "campaign" else 1,
        benchmark="costbench", workload=args.workload, seed=args.seed,
        seconds=args.seconds, trace=args.trace, correct=correct,
        attempted=attempted, failed=failed,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    stamp = OUT_DIR / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    manifest.write(str(stamp))
    print(f"manifest: {stamp}")
    reported = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
        if name not in PRINTED_ONLY
    }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
