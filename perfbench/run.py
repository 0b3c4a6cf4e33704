"""The repository benchmark: one workload, one seed, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_replay --seed 0 --seconds 15 --trace 0

``--trace 0`` times untraced passes for ``--seconds`` seconds and prints
the end-to-end metrics; ``--trace 1`` runs one untraced pass, then
traced passes, and prints the per-layer ledger.  Either way every run is
checked against the committed reference (``reference.json``) when the
seed has one, else against a pass made in a fresh child process, and the
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import ReferenceFile, RunRecord, failure, reference_of, sends_of_kind  # noqa: E402
from ledger import UNATTRIBUTED  # noqa: E402
from workloads import WORKLOADS, PassContext, PassResult, Sweep, reap_children  # noqa: E402

REFERENCE = HERE / "reference.json"
#: Timed passes made even when ``--seconds`` runs out first.
MIN_PASSES = 3

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "jobs_per_s": "1/s"}

#: Layers whose exclusive time the ledger reports as ``<layer>.self_s``.
SELF_LAYERS = ("harness", "sim", "net", "faults", "srm", "core", "churn", "exec", "sweep")
#: Inclusive spans of wrapped entry points.
SPANS = (
    "traces.synth_s",
    "net.index_build_s",
    "srm.agent_build_s",
    "metrics.summary_s",
    "exec.cache_read_s",
    "sweep.compile_s",
    "sweep.store_s",
)
#: Counts the wrappers make.
WRAPPER_COUNTS = ("net.sends", "net.deliveries", "faults.hop_checks", "faults.drops",
                  "srm.timer_fires")
#: Values the sweep workload reports itself.
WORKLOAD_EXTRAS = ("exec.cache_hits", "exec.retries", "sweep.rows")

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
    **{span: "s" for span in SPANS},
    **{count: "count" for count in WRAPPER_COUNTS + WORKLOAD_EXTRAS},
    "traces.losses": "count",
    "harness.build_s": "s",
    "sim.events": "count",
    "sim.self_ns_per_event": "ns",
    "net.crossings": "count",
    "net.self_ns_per_crossing": "ns",
    "srm.session_msgs": "count",
    "srm.requests": "count",
    "srm.replies": "count",
    "core.expedited_requests": "count",
    "core.expedited_replies": "count",
    "core.expedited_ratio": "ratio",
    "churn.ops": "count",
    "recovery.rtt_p50": "rtt",
    "recovery.rtt_p99": "rtt",
    "recovery.samples": "count",
    "recovery.crossings": "count",
    "exec.pool_start_s": "s",
    "exec.resume_s": "s",
    "obs.trace_overhead": "ratio",
    "obs.unattributed_s": "s",
    "obs.traced_wall_s": "s",
}


def load_api() -> Any:
    """``repro.api`` from this checkout's ``src`` (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "repro" / "api.py").is_file():
        sys.exit(f"perfbench: no program sources at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro.api as api

    if Path(api.__file__).resolve().parents[1] != src.resolve():
        sys.exit(f"perfbench: imported repro from {api.__file__}, not {src}")
    return api


class Tally:
    """Runs attempted and failed, against one reference."""

    def __init__(self, reference: dict[str, dict[str, Any]] | None) -> None:
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, result: PassResult) -> None:
        self.add_records(result.records)
        self.attempted += result.extra_attempted
        self.failures.extend(result.problems)

    def add_records(self, records: list[RunRecord]) -> None:
        if self.reference is None:
            self.reference = reference_of(records)
        self.attempted += len(records)
        for record in records:
            reason = failure(record, self.reference)
            if reason:
                self.failures.append(reason)

    def report(self, metrics: dict[str, Any]) -> dict[str, Any]:
        for reason in self.failures[:10]:
            print(f"perfbench: FAILED {reason}", file=sys.stderr)
        return {
            "correct": not self.failures and self.attempted > 0,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
        }


def run_passes(workload, ctx: PassContext, seed: int, seconds: float, kernel: str,
               tally: Tally, minimum: int = 1) -> list[PassResult]:
    """Back-to-back passes until ``seconds`` are spent (at least ``minimum``)."""
    passes: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < minimum or time.perf_counter() < deadline:
        gc.collect()
        result = workload.run_pass(ctx, seed, kernel)
        reap_children()
        tally.add(result)
        passes.append(result)
    return passes


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def probe(args: argparse.Namespace) -> dict[str, Any]:
    """One pass in a fresh child process: its peak RSS and its records."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--kernel", args.kernel, "--probe"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_run(workload, args, api, scratch: Path, reference) -> dict[str, Any]:
    child = probe(args)
    tally = Tally(reference)
    tally.add_records([RunRecord(**record) for record in child["records"]])
    ctx = PassContext(api, scratch, workers=2, sampled=True)
    passes = run_passes(workload, ctx, args.seed, args.seconds, args.kernel, tally,
                        minimum=MIN_PASSES)
    # Timings in reference seconds: each pass scaled by the host speed
    # sampled while it ran (hostspeed.py).
    metrics = {
        "wall_s": median([p.wall_s * p.speed for p in passes]),
        "setup_s": median([p.setup_s * p.speed for p in passes]),
        "peak_rss_mb": child["peak_rss_mb"],
        "jobs_per_s": median([p.runs / (p.wall_s * p.speed) for p in passes]),
    }
    extras = {
        "host.wall_s": median([p.wall_s for p in passes]),
        "host.speed": median([p.speed for p in passes]),
    }
    if "exec.resume_s" in passes[0].extra:
        extras["exec.resume_s"] = median([p.extra["exec.resume_s"] * p.speed
                                          for p in passes])
    describe(args, len(passes), tally, {**metrics, **extras, **outcome_metrics(passes[0])})
    return tally.report({name: {"value": metrics[name], "unit": unit}
                         for name, unit in END_TO_END.items()})


def traced_run(workload, args, api, scratch: Path, reference) -> dict[str, Any]:
    tally = Tally(reference)
    start = time.perf_counter()
    baseline = run_passes(workload, PassContext(api, scratch, workers=2), args.seed, 0,
                          args.kernel, tally)
    extras = dict(baseline[0].extra)
    untraced = baseline
    if isinstance(workload, Sweep):
        # The traced sweep runs its jobs in-process (one worker) so the
        # ledger sees them; compare it with an untraced one-worker pass.
        untraced = run_passes(workload, PassContext(api, scratch, workers=1), args.seed,
                              0, args.kernel, tally)
    remaining = args.seconds - (time.perf_counter() - start)
    traced = run_passes(workload, PassContext(api, scratch, traced=True, workers=1),
                        args.seed, remaining, args.kernel, tally)
    metrics = ledger_metrics(traced, untraced, extras)
    n_passes = len(traced) + len(baseline) + (len(untraced) if untraced is not baseline else 0)
    describe(args, n_passes, tally, metrics)
    return tally.report({name: {"value": metrics[name], "unit": PER_LAYER_UNITS[name]}
                         for name in PER_LAYER_UNITS})


def ledger_metrics(traced: list[PassResult], untraced: list[PassResult],
                   extras: dict[str, float]) -> dict[str, float]:
    """Per-layer values: medians over traced passes, exact counts from the
    summaries, and the workload's own values from the untraced pass."""

    def med(get) -> float:
        return median([get(p) for p in traced])

    metrics: dict[str, float] = {}
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = med(lambda p: p.clock.self_s.get(layer, 0.0))
    for span in SPANS:
        metrics[span] = med(lambda p: p.clock.spans.get(span, 0.0))
    for count in WRAPPER_COUNTS:
        metrics[count] = med(lambda p: p.clock.counts.get(count, 0))
    metrics["harness.build_s"] = med(lambda p: p.extra.get("harness.build_s", 0.0))
    for name in WORKLOAD_EXTRAS:
        metrics[name] = med(lambda p: p.extra.get(name, 0))
    metrics["exec.pool_start_s"] = extras.get("exec.pool_start_s", 0.0)
    metrics["exec.resume_s"] = extras.get("exec.resume_s", 0.0)
    metrics.update(outcome_metrics(traced[0]))
    events, crossings = metrics["sim.events"], metrics["net.crossings"]
    metrics["sim.self_ns_per_event"] = (
        metrics["sim.self_s"] / events * 1e9 if events else 0.0
    )
    metrics["net.self_ns_per_crossing"] = (
        metrics["net.self_s"] / crossings * 1e9 if crossings else 0.0
    )
    traced_wall = med(lambda p: p.region_s)
    metrics["obs.traced_wall_s"] = traced_wall
    metrics["obs.trace_overhead"] = traced_wall / median([p.region_s for p in untraced])
    metrics["obs.unattributed_s"] = med(lambda p: p.clock.self_s.get(UNATTRIBUTED, 0.0))
    return metrics


def outcome_metrics(result: PassResult) -> dict[str, float]:
    """Exact simulated counts and recovery figures of one pass."""
    summaries = result.summaries
    latencies: list[float] = []
    expedited = 0
    for summary in summaries:
        rtts = summary["rtt_to_source"]
        for host, rows in summary["recoveries"].items():
            rtt = rtts.get(host, 0.0)
            for _seq, latency, was_expedited, _requests in rows:
                expedited += bool(was_expedited)
                if rtt > 0:
                    latencies.append(latency / rtt)
    latencies.sort()

    def rank(q: float) -> float:
        return latencies[max(0, math.ceil(q * len(latencies)) - 1)] if latencies else 0.0

    def total(kind: str) -> int:
        return sum(sends_of_kind(s, kind) for s in summaries)

    expedited_requests = total("erqst")
    return {
        "traces.losses": sum(s["total_losses"] for s in summaries),
        "sim.events": sum(s["events_processed"] for s in summaries),
        "net.crossings": sum(c for s in summaries for _k, _c, c in s["crossings"]),
        "srm.session_msgs": total("session"),
        "srm.requests": total("rqst"),
        "srm.replies": total("repl"),
        "core.expedited_requests": expedited_requests,
        "core.expedited_replies": total("erepl"),
        "core.expedited_ratio": expedited / expedited_requests if expedited_requests else 0.0,
        "churn.ops": sum(
            s["churn"]["joins"] + s["churn"]["leaves"] for s in summaries if s.get("churn")
        ),
        "recovery.rtt_p50": rank(0.50),
        "recovery.rtt_p99": rank(0.99),
        "recovery.samples": len(latencies),
        "recovery.crossings": sum(sum(s["overhead"].values()) for s in summaries),
    }


def describe(args, n_passes: int, tally: Tally, metrics: dict[str, float]) -> None:
    frac = len(tally.failures) / tally.attempted if tally.attempted else 1.0
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={n_passes} "
          f"attempted={tally.attempted} failed={len(tally.failures)} failed_frac={frac:g}")
    units = {**END_TO_END, **PER_LAYER_UNITS, "host.wall_s": "s", "host.speed": "ratio"}
    for name, value in metrics.items():
        print(f"#   {name:28s} {value:14.6g} {units.get(name, '')}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--kernel", choices=("python", "vector"), default="python",
                        help="forwarding kernel of the replay workloads (a record, not gated)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--write-reference", action="store_true",
                      help="run one pass and store its records as the seed's reference")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    api = load_api()
    workload = WORKLOADS[args.workload]
    references = ReferenceFile(REFERENCE)
    # The kernel is stripped from digests, so a vector run answers to the
    # same reference as the python one.
    reference = references.get(args.workload, args.seed)
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        if args.probe or args.write_reference:
            ctx = PassContext(api, scratch, workers=2)
            result = workload.run_pass(ctx, args.seed, args.kernel)
            reap_children()
            if args.write_reference:
                broken = [r.error for r in result.records if r.error] + result.problems
                if broken:
                    sys.exit(f"perfbench: not writing a reference: {broken[0]}")
                references.put(args.workload, args.seed, reference_of(result.records))
                return 0
            output = {
                "peak_rss_mb": peak_rss_mb(),
                "records": [dataclasses.asdict(r) for r in result.records],
            }
        elif args.trace:
            output = traced_run(workload, args, api, scratch, reference)
        else:
            output = timed_run(workload, args, api, scratch, reference)
    finally:
        reap_children()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
