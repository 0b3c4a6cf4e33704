"""The four benchmark workloads, each generated from a seed.

Every workload is closed-loop: a pass runs its simulations (or its sweep)
one after another, and the next pass starts only when the previous one
has finished.  A pass returns the raw ``RunSummary`` payloads; checking
them against the reference happens outside the timed region.

Inputs depend only on the seed.  A workload draws its runs from a few
consecutive seeds derived from it (``paper_replay``: 3*seed .. 3*seed+2;
``sweep_grid``: 2*seed and 2*seed+1), and each of those is both the
trace-synthesis seed and the protocol-jitter seed of its runs (the sweep
grid's ``seed`` axis, which folds into both).
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from check import RunRecord
from hostspeed import HostSpeed
from ledger import Instrumentation, LayerClock, Stamps

now = time.perf_counter


@dataclass
class PassResult:
    """What one pass measured and produced."""

    #: The whole pass, set-up included (``sweep_grid``: the cold pass).
    wall_s: float
    setup_s: float
    #: Runs (sweep jobs) the pass completed.
    runs: int
    #: Everything timed in the pass (``sweep_grid``: cold + warm passes);
    #: the traced/untraced ratio of this is ``obs.trace_overhead``.
    region_s: float
    records: list[RunRecord]
    summaries: list[dict[str, Any]]
    #: Per-layer values only the workload can see (pool start-up, resume
    #: time, cache hits...).
    extra: dict[str, float] = field(default_factory=dict)
    #: Sweep jobs attempted beyond ``records`` (warm resumes) and the
    #: reasons any of them failed.
    extra_attempted: int = 0
    problems: list[str] = field(default_factory=list)
    clock: LayerClock | None = None
    #: Reference seconds per host second over the timed region
    #: (``hostspeed``); 1.0 when the pass was not sampled.
    speed: float = 1.0


class PassContext:
    """How a pass is run: traced or not, sampling the host's speed or
    not, with how many sweep workers, where its scratch files go."""

    def __init__(self, api: Any, scratch: Path, traced: bool = False,
                 workers: int = 2, sampled: bool = False) -> None:
        self.api = api
        self.scratch = scratch
        self.traced = traced
        self.workers = workers
        self.sampled = sampled
        self.clock: LayerClock | None = None
        self.stamps: Stamps | None = None
        self.wall_s = 0.0
        self.speed = 1.0

    def call(self, layer: str, span: str | None, fn: Callable, *args, **kwargs):
        if self.clock is None:
            return fn(*args, **kwargs)
        return self.clock.call(layer, span, fn, *args, **kwargs)

    @contextmanager
    def timed(self) -> Iterator["PassContext"]:
        """The timed region of a pass.  Wrappers exist only inside it, so
        checking the outputs afterwards is neither timed nor traced."""
        self.clock = LayerClock() if self.traced else None
        with ExitStack() as stack:
            self.stamps = stack.enter_context(Stamps(self.api.Simulator))
            if self.clock is not None:
                stack.enter_context(Instrumentation(self.clock, self.api))
                self.clock.start()
            host = stack.enter_context(HostSpeed()) if self.sampled else None
            start = now()
            try:
                yield self
            finally:
                self.wall_s = now() - start
                if self.clock is not None:
                    self.clock.stop()
        self.speed = host.factor if host is not None else 1.0

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="pass", dir=self.scratch))


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every child process (pool workers) to end."""
    deadline = now() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - now()))


def kernel_kwargs(api: Any, kernel: str) -> dict[str, str]:
    """``kernel=...`` while ``SimulationConfig`` still has that field."""
    names = {f.name for f in dataclasses.fields(api.SimulationConfig)}
    return {"kernel": kernel} if kernel != "python" and "kernel" in names else {}


# ----------------------------------------------------------------------
# Simulation workloads: synthesize, then run_trace each case
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Replay:
    """Run ``run_trace`` over seeded traces; one pass = every case once."""

    name: str
    #: ``groups(api, seed, kernel)`` -> [(synthesize, [(run id, protocol,
    #: config), ...]), ...]; one synthesis is shared by its runs.
    groups: Callable[[Any, int, str], list[tuple[Callable, list[tuple]]]]

    def run_pass(self, ctx: PassContext, seed: int, kernel: str = "python") -> PassResult:
        api = ctx.api
        done: list[tuple[str, Any]] = []
        synth_s = build_s = 0.0
        with ctx.timed():
            for synthesize, runs in self.groups(api, seed, kernel):
                start = now()
                synthetic = ctx.call("traces", "traces.synth_s", synthesize)
                synth_s += now() - start
                for run_id, protocol, config in runs:
                    start = now()
                    try:
                        result = ctx.call(
                            "harness", None, api.run_trace, synthetic, protocol, config
                        )
                        build_s += ctx.stamps.run_entry - start
                        done.append((run_id, api.RunSummary.from_result(result)))
                    except Exception:  # a failed run is counted, not fatal
                        done.append((run_id, traceback.format_exc()))
        records, summaries = [], []
        for run_id, outcome in done:
            if isinstance(outcome, str):
                records.append(RunRecord.failed(run_id, outcome))
                continue
            summary = outcome.to_dict()
            summaries.append(summary)
            records.append(RunRecord.from_summary(run_id, summary))
        return PassResult(
            wall_s=ctx.wall_s,
            setup_s=synth_s + build_s,
            runs=len(done),
            region_s=ctx.wall_s,
            records=records,
            summaries=summaries,
            extra={"harness.build_s": build_s},
            clock=ctx.clock,
            speed=ctx.speed,
        )


#: Per-trace replay length for ``paper_replay``.
PAPER_PACKETS = 200
#: Synthesized traces per figure trace.  Each draw has its own tree, and
#: a tree's shape sets the events per packet, so one long draw per trace
#: left the pass's work varying 5% (CV) from seed to seed; three short
#: draws average that down to 2%.
PAPER_DRAWS = 3


def paper_groups(api: Any, seed: int, kernel: str) -> list[tuple[Callable, list[tuple]]]:
    groups = []
    for draw in range(PAPER_DRAWS * seed, PAPER_DRAWS * (seed + 1)):
        config = api.SimulationConfig(
            seed=draw, max_packets=PAPER_PACKETS, **kernel_kwargs(api, kernel)
        )
        groups.extend(
            (
                functools.partial(
                    api.synthesize_trace,
                    api.trace_meta(name),
                    seed=draw,
                    max_packets=PAPER_PACKETS,
                ),
                [(f"{name}/seed={draw}/{protocol}", protocol, config)
                 for protocol in ("srm", "cesrm")],
            )
            for name in api.FIGURE_TRACES
        )
    return groups


def topology_groups(spec: str, **config: Any):
    def groups(api: Any, seed: int, kernel: str) -> list[tuple[Callable, list[tuple]]]:
        settings = dict(config)
        settings.update(kernel_kwargs(api, settings.pop("kernel", kernel)))
        run_config = api.SimulationConfig(seed=seed, **settings)
        synthesize = functools.partial(api.synthesize_topology_trace, spec, seed=seed)
        return [(synthesize, [(f"{spec}/cesrm", "cesrm", run_config)])]

    return groups


SESSION_SPEC = "transit_stub:transits=2,stubs=5,hosts=12,packets=8,loss=1e-9"
FLOOD_SPEC = "transit_stub:transits=10,stubs=15,hosts=100,packets=16,loss=1e-9"


# ----------------------------------------------------------------------
# The sweep workload: a cold grid pass, then warm resumes
# ----------------------------------------------------------------------
#: Per-job replay length of the sweep grid (8 s of trace at 80 ms).
SWEEP_PACKETS = 100
#: Grid seeds per pass.  A seed's churn schedule and crash recovery set
#: most of a job's work, and all jobs of one seed move together, so with
#: one seed the pass's work varied 13% (CV) from seed to seed; two seeds
#: bring that to 5%.
SWEEP_SEEDS = 2
#: Warm resume passes after each cold pass.
SWEEP_RESUMES = 3

#: ``r2`` is down from 2.5 s to 6 s, inside the 8 s of trace.
SWEEP_FAULTS = {
    "events": [
        {"type": "packet-duplicate", "rate": 0.01},
        {"type": "node-crash", "host": "r2", "at": 2.5, "restart_after": 3.5},
    ]
}


def sweep_grid_spec(seed: int) -> dict[str, Any]:
    """The 64-job grid, inline (no spec file is read)."""
    return {
        "name": "perfbench-sweep",
        "defaults": {"max_packets": SWEEP_PACKETS},
        "grid": {
            "protocol": ["srm", "cesrm"],
            "trace": ["WRN951128", "RFV960419"],
            "cache": ["", "lru:capacity=4"],
            "churn": ["", "churn:rate=0.5"],
            "faults": ["", SWEEP_FAULTS],
            "seed": list(range(SWEEP_SEEDS * seed, SWEEP_SEEDS * (seed + 1))),
        },
    }


def case_id(case: Any) -> str:
    return "/".join(
        (
            case.protocol,
            case.trace,
            f"cache={case.cache or '-'}",
            f"churn={case.churn or '-'}",
            f"faults={'plan' if case.faults else '-'}",
            f"seed={case.seed}",
        )
    )


@dataclass(frozen=True)
class Sweep:
    name: str

    def run_pass(self, ctx: PassContext, seed: int, kernel: str = "python") -> PassResult:
        api = ctx.api
        directory = ctx.fresh_dir()
        cache = api.RunCache(directory / "cache")
        resumes: list[float] = []
        with ctx.timed():
            start = now()
            spec = ctx.call("sweep", "sweep.compile_s", api.compile_sweep, sweep_grid_spec(seed))
            compile_s = now() - start
            pool_before = ctx.stamps.pool_start_s
            store = ctx.call("sweep", None, api.SweepStore, directory / "runs.sqlite")
            try:
                cold = ctx.call(
                    "sweep", None, api.run_sweep, spec,
                    api.ExecutionEngine(jobs=ctx.workers, cache=cache), store,
                )
                wall_s = now() - start
                pool_start_s = ctx.stamps.pool_start_s - pool_before
                ctx.call("exec", None, reap_children)
                warm = []
                for _ in range(SWEEP_RESUMES):
                    begin = now()
                    warm.append(
                        ctx.call(
                            "sweep", None, api.run_sweep, spec,
                            api.ExecutionEngine(jobs=ctx.workers, cache=cache), store,
                        )
                    )
                    resumes.append(now() - begin)
                rows = store.counts(cold.digest)["ok"]
            finally:
                store.close()
        fingerprint = api.source_fingerprint()
        records, summaries, problems = [], [], []
        for case in spec.cases:
            summary = cache.get(case.job, fingerprint)
            if summary is None:
                records.append(RunRecord.failed(case_id(case), "job left no result"))
                continue
            summaries.append(summary)
            records.append(RunRecord.from_summary(case_id(case), summary))
        for report in warm:
            if report.cached != report.total:
                problems.extend(
                    [f"resume re-ran a job ({report.describe()})"]
                    * (report.total - report.cached)
                )
        shutil.rmtree(directory)
        return PassResult(
            wall_s=wall_s,
            setup_s=compile_s + pool_start_s,
            runs=cold.total - cold.failed,
            region_s=ctx.wall_s,
            records=records,
            summaries=summaries,
            extra={
                "exec.pool_start_s": pool_start_s,
                "exec.resume_s": statistics.median(resumes),
                "exec.cache_hits": sum(report.cached for report in warm),
                "exec.retries": cold.retried + sum(r.retried for r in warm),
                "sweep.rows": rows,
            },
            extra_attempted=sum(report.total for report in warm),
            problems=problems,
            clock=ctx.clock,
            speed=ctx.speed,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Replay("paper_replay", paper_groups),
        Replay("session_scale", topology_groups(SESSION_SPEC)),
        Replay(
            "flood_primed",
            topology_groups(FLOOD_SPEC, prime_distances=True, kernel="vector"),
        ),
        Sweep("sweep_grid"),
    )
}
