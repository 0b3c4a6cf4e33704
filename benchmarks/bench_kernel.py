"""End-to-end forwarding-kernel benchmark (the ISSUE-4 speedup gate).

Two sections, each gating one kernel generation:

* ``test_kernel_sweep_speedup`` (v1) times the standard SRM+CESRM trace
  sweep — every Table 1 figure trace at 1200 packets — straight through
  ``run_trace`` (no cache, no process pool), so the number is the hot
  path itself: topology queries, per-hop forwarding, and the event
  engine.  The committed ``baseline`` section in ``BENCH_kernel.json``
  was recorded against the pre-refactor string/dict hot path; when a
  baseline is present the benchmark asserts the kernel is at least 2x
  faster end to end.

* ``test_delivery_wave_speedup`` (v2) times one trace on a
  propagation-heavy world — a deep binary tree, where per-hop forwarding
  used to pay one engine entry and one arrival callback per node and
  delivery waves fold all arrivals of a packet at one instant into one
  entry.  The committed ``v2.python`` record in ``BENCH_kernel.json``
  was recorded on the per-hop path (the retired ``kernel="python"``);
  the run must process exactly its event count (waves count their
  folded arrivals) and be at least ``V2_MIN_SPEEDUP`` faster.  A speedup
  below 1.0x means the wave path has fallen behind the per-hop record
  and fails loudly.

Each test merges its section into ``BENCH_kernel.json``, preserving the
other's.  Run via ``cesrm bench kernel`` (exits non-zero on any gate
failure) or directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py -q

Record fresh baselines (only for a deliberate re-baseline)::

    PYTHONPATH=src REPRO_BENCH_REBASELINE=1 python -m pytest benchmarks/bench_kernel.py -q
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro.harness.config import SimulationConfig
from repro.harness.runner import run_trace
from repro.traces.synthesize import synthesize_trace
from repro.traces.yajnik import FIGURE_TRACES, trace_meta
from repro.net.families import synthesize_topology_trace

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
PROTOCOLS = ("srm", "cesrm")
MAX_PACKETS = 1200
SEED = 0
MIN_SPEEDUP = 2.0
#: Repetitions per (trace, protocol); each run reports its fastest wall
#: time so one scheduler hiccup cannot flip the gate.  The committed
#: baseline was recorded with the identical min-of-N methodology.
REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))

#: The v2 world: a deep binary tree maximizes forwarding hops per
#: delivery (2 router hops per receiver against ~1 for a wide
#: transit-stub), which is exactly the work wave batching removes.
#: Near-zero loss keeps the run propagation-dominated — the recovery
#: path is protocol logic that waves do not touch, so heavy loss would
#: only dilute the measurement.
V2_SPEC = "tree:depth=12,fanout=2,loss=1e-9,packets=80"
V2_PACKETS = 80
V2_PROTOCOL = "cesrm"
V2_MIN_SPEEDUP = 2.0


def _sweep(reps: int = REPS) -> dict:
    """Run the sweep ``reps`` times; keep each run's fastest wall time.

    The garbage collector is paused around each timed run (and collected
    between runs) so collection pauses land outside the timings.  Every
    repetition must process the identical event count — the sweep doubles
    as a determinism check.
    """
    config = SimulationConfig(seed=SEED, max_packets=MAX_PACKETS)
    runs = {}
    total = 0.0
    gc_was_enabled = gc.isenabled()
    try:
        for name in FIGURE_TRACES:
            synthetic = synthesize_trace(
                trace_meta(name), seed=SEED, max_packets=MAX_PACKETS
            )
            for protocol in PROTOCOLS:
                best = None
                events = None
                for _ in range(reps):
                    gc.collect()
                    gc.disable()
                    start = time.perf_counter()
                    result = run_trace(synthetic, protocol, config)
                    elapsed = time.perf_counter() - start
                    gc.enable()
                    if events is None:
                        events = result.events_processed
                    elif events != result.events_processed:
                        raise AssertionError(
                            f"{name}/{protocol}: event count varied across "
                            f"repetitions ({events} vs {result.events_processed})"
                        )
                    if best is None or elapsed < best:
                        best = elapsed
                runs[f"{name}/{protocol}"] = {
                    "wall_time": round(best, 4),
                    "events_processed": events,
                }
                total += best
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "max_packets": MAX_PACKETS,
        "seed": SEED,
        "reps": reps,
        "runs": runs,
        "total_wall_time": round(total, 4),
    }


def _merge_payload(update: dict) -> None:
    """Merge ``update`` into ``BENCH_kernel.json``, preserving the other
    section's keys (the v1 sweep and the v2 kernel race are independent
    gates that can run separately)."""
    payload = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    payload.update(update)
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_kernel_sweep_speedup():
    previous = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    baseline = previous.get("baseline")

    current = _sweep()
    if baseline is None or os.environ.get("REPRO_BENCH_REBASELINE"):
        baseline = current

    speedup = baseline["total_wall_time"] / current["total_wall_time"]
    _merge_payload(
        {
            "benchmark": "kernel",
            "traces": list(FIGURE_TRACES),
            "protocols": list(PROTOCOLS),
            "baseline": baseline,
            "current": current,
            "speedup": round(speedup, 3),
            "min_speedup": MIN_SPEEDUP,
        }
    )

    # Same total work regardless of implementation: the refactor must not
    # change how many events the sweep processes.
    for key, row in baseline["runs"].items():
        assert (
            current["runs"][key]["events_processed"] == row["events_processed"]
        ), f"{key}: event count diverged from baseline"

    if baseline is not current:  # a real pre-refactor baseline exists
        assert speedup >= MIN_SPEEDUP, (
            f"kernel sweep speedup {speedup:.2f}x is below the "
            f"{MIN_SPEEDUP:.1f}x gate (baseline "
            f"{baseline['total_wall_time']:.2f}s, current "
            f"{current['total_wall_time']:.2f}s)"
        )


def _v2_run(trace, reps: int = REPS) -> dict:
    """Min-of-``reps`` wall time on the v2 world, gc paused around each
    timed run, event count checked across reps."""
    config = SimulationConfig(
        max_packets=V2_PACKETS, prime_distances=True, drain_time=2.0
    )
    best = None
    events = None
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(reps):
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            result = run_trace(trace, V2_PROTOCOL, config)
            elapsed = time.perf_counter() - start
            gc.enable()
            if events is None:
                events = result.events_processed
            elif events != result.events_processed:
                raise AssertionError(
                    f"event count varied across repetitions "
                    f"({events} vs {result.events_processed})"
                )
            if best is None or elapsed < best:
                best = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "wall_time": round(best, 4),
        "events_processed": events,
        "events_per_sec": round(events / best),
    }


def test_delivery_wave_speedup():
    previous = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    baseline = previous.get("v2", {}).get("python")

    trace = synthesize_topology_trace(V2_SPEC, seed=SEED, max_packets=V2_PACKETS)
    current = _v2_run(trace)
    if baseline is None or os.environ.get("REPRO_BENCH_REBASELINE"):
        baseline = current

    speedup = baseline["wall_time"] / current["wall_time"]
    _merge_payload(
        {
            "v2": {
                "spec": V2_SPEC,
                "protocol": V2_PROTOCOL,
                "max_packets": V2_PACKETS,
                "seed": SEED,
                "reps": REPS,
                "python": baseline,
                "current": current,
                "speedup": round(speedup, 3),
                "min_speedup": V2_MIN_SPEEDUP,
            }
        }
    )

    # One wave entry folds N arrivals, but events_processed counts them
    # all — the run must perform exactly the recorded per-hop work.
    assert current["events_processed"] == baseline["events_processed"], (
        "delivery-wave event count diverged from the per-hop record"
    )
    if baseline is not current:  # a real per-hop baseline exists
        assert speedup >= 1.0, (
            f"delivery waves are SLOWER than the per-hop record "
            f"({speedup:.2f}x); the wave hot path has regressed"
        )
        assert speedup >= V2_MIN_SPEEDUP, (
            f"delivery-wave speedup {speedup:.2f}x is below the "
            f"{V2_MIN_SPEEDUP:.1f}x gate (per-hop "
            f"{baseline['wall_time']:.2f}s, waves "
            f"{current['wall_time']:.2f}s)"
        )
