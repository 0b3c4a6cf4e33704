"""Fast tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import repro.api as api  # noqa: E402
from check import RunRecord, normalize, reference_of, summary_digest  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, HostSpeed  # noqa: E402
from ledger import UNATTRIBUTED, Instrumentation, LayerClock  # noqa: E402
from run import Tally  # noqa: E402
from workloads import (  # noqa: E402
    FLOOD_SPEC,
    SESSION_SPEC,
    PassContext,
    PassResult,
    Replay,
    paper_groups,
    sweep_grid_spec,
    topology_groups,
)


class FakeTimer:
    """A clock that reads the given instants, in order."""

    def __init__(self, *instants: float) -> None:
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


# ----------------------------------------------------------------------
# The layer clock
# ----------------------------------------------------------------------
def test_nested_push_pop_charges_exclusive_time():
    #        start push(a) push(b) pop(b) pop(a) stop
    clock = LayerClock(FakeTimer(0.0, 1.0, 3.0, 7.0, 8.0, 10.0))
    clock.start()
    clock.push("a")
    clock.push("b")
    clock.pop()
    clock.pop()
    clock.stop()
    assert clock.self_s["a"] == pytest.approx(2.0 + 1.0)  # [1,3) + [7,8)
    assert clock.self_s["b"] == pytest.approx(4.0)  # [3,7)
    assert clock.self_s[UNATTRIBUTED] == pytest.approx(1.0 + 2.0)  # [0,1) + [8,10)
    assert clock.wall_s == pytest.approx(10.0)
    assert sum(clock.self_s.values()) == pytest.approx(clock.wall_s)


def test_spans_count_only_the_outermost_call():
    clock = LayerClock(FakeTimer(0.0, 1.0, 2.0, 4.0, 6.0, 9.0))
    clock.start()
    clock.enter("srm", "build")
    clock.enter("core", "build")  # a subclass constructor calling super()
    clock.exit("build")
    clock.exit("build")
    clock.stop()
    assert clock.spans["build"] == pytest.approx(5.0)  # [1, 6)


def _tiny_groups(api, seed, kernel):
    params = api.SynthesisParams(
        name="perfbench-tiny",
        n_receivers=6,
        tree_depth=3,
        period=0.1,
        n_packets=40,
        target_losses=10,
    )
    synthesize = lambda: api.synthesize_trace(params, seed=seed)  # noqa: E731
    config = api.SimulationConfig(seed=seed)
    return [(synthesize, [("tiny/srm", "srm", config), ("tiny/cesrm", "cesrm", config)])]


def test_traced_layers_sum_to_wall_and_wrappers_come_off(tmp_path):
    originals = (api.Network.multicast, api.Simulator.run, api.SrmAgent.receive)
    workload = Replay("tiny", _tiny_groups)
    untraced = workload.run_pass(PassContext(api, tmp_path), seed=3)
    traced = workload.run_pass(PassContext(api, tmp_path, traced=True), seed=3)
    clock = traced.clock
    assert sum(clock.self_s.values()) == pytest.approx(clock.wall_s)
    assert clock.self_s[UNATTRIBUTED] < 0.05 * clock.wall_s
    for layer in ("sim", "net", "srm", "traces", "harness"):
        assert clock.self_s[layer] > 0, layer
    assert clock.counts["net.deliveries"] > 0
    # Tracing changes no simulated byte, and every wrapper is removed.
    assert [r.digest for r in traced.records] == [r.digest for r in untraced.records]
    assert (api.Network.multicast, api.Simulator.run, api.SrmAgent.receive) == originals


def test_instrumentation_restores_classmethods():
    before = api.RunSummary.__dict__["from_dict"]
    with Instrumentation(LayerClock(), api):
        assert api.RunSummary.__dict__["from_dict"] is not before
        assert isinstance(api.RunSummary.__dict__["from_dict"], classmethod)
    assert api.RunSummary.__dict__["from_dict"] is before


# ----------------------------------------------------------------------
# Host-speed sampling
# ----------------------------------------------------------------------
def test_host_speed_factor_scales_by_the_mean_probe_time():
    before = signal.getsignal(signal.SIGALRM)
    # No period passes inside the block, so it takes one sample on exit.
    with HostSpeed(period=60, timer=FakeTimer(0.0, 2 * REFERENCE_PROBE_S)) as host:
        pass
    assert host.factor == pytest.approx(0.5)  # the host ran at half speed
    host.samples = [REFERENCE_PROBE_S, 3 * REFERENCE_PROBE_S]
    assert host.factor == pytest.approx(0.5)
    # A probe descheduled for a whole time slice is not host slowness.
    host.samples = [REFERENCE_PROBE_S] * 5 + [20 * REFERENCE_PROBE_S]
    assert host.factor == pytest.approx(1.0)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_sampled_pass_keeps_its_outputs(tmp_path):
    workload = Replay("tiny", _tiny_groups)
    plain = workload.run_pass(PassContext(api, tmp_path), seed=3)
    sampled = workload.run_pass(PassContext(api, tmp_path, sampled=True), seed=3)
    assert plain.speed == 1.0 and sampled.speed > 0
    assert [r.digest for r in sampled.records] == [r.digest for r in plain.records]


# ----------------------------------------------------------------------
# Digest normalization
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def summary() -> dict:
    result = api.run_trace(_tiny_groups(api, 5, "python")[0][0](), "cesrm",
                           api.SimulationConfig(seed=5))
    return api.RunSummary.from_result(result).to_dict()


def test_digest_ignores_host_dependent_fields(summary):
    digest = summary_digest(summary)
    varied = dict(summary, wall_time=summary["wall_time"] + 12.5, schema=99)
    varied["config"] = dict(summary["config"], kernel="vector")
    varied["obs"] = {"profile": {"events": 1}}
    varied["ledger"] = {"net_s": 0.25}  # a host-dependent field added later
    assert summary_digest(varied) == digest
    assert "wall_time" not in normalize(varied)


def test_digest_sees_behaviour(summary):
    digest = summary_digest(summary)
    assert summary_digest(dict(summary, events_processed=summary["events_processed"] + 1)) != digest
    assert summary_digest(dict(summary, config=dict(summary["config"], seed=6))) != digest


# ----------------------------------------------------------------------
# Seed determinism of the workload generators
# ----------------------------------------------------------------------
def _trace_identity(synthetic) -> tuple:
    trace = synthetic.trace
    return (trace.name, trace.tree.receivers, trace.total_losses,
            sorted((seq, sorted(links)) for seq, links in synthetic.link_combos.items()))


@pytest.mark.parametrize("groups", [paper_groups, topology_groups(SESSION_SPEC),
                                    topology_groups(FLOOD_SPEC, prime_distances=True,
                                                    kernel="vector")],
                         ids=["paper_replay", "session_scale", "flood_primed"])
def test_replay_inputs_depend_only_on_the_seed(groups):
    first, again, other = groups(api, 7, "python"), groups(api, 7, "python"), groups(api, 8, "python")
    runs = [[runs for _synth, runs in g] for g in (first, again, other)]
    assert runs[0] == runs[1] != runs[2]
    # One synthesis per workload is enough to pin the trace inputs.
    (synth_a, _), (synth_b, _), (synth_c, _) = first[-1], again[-1], other[-1]
    assert _trace_identity(synth_a()) == _trace_identity(synth_b())
    if groups is paper_groups:  # transit-stub shapes ignore the seed
        assert _trace_identity(synth_a()) != _trace_identity(synth_c())


def test_sweep_grid_depends_only_on_the_seed():
    digests = [api.compile_sweep(sweep_grid_spec(seed)).digest() for seed in (7, 7, 8)]
    assert digests[0] == digests[1] != digests[2]
    assert len(api.compile_sweep(sweep_grid_spec(7)).cases) == 64


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def _record(run_id: str, digest: str = "d", unrecovered: int = 0) -> RunRecord:
    return RunRecord(run_id, digest, events=10, crossings=20, session_msgs=3,
                     unrecovered=unrecovered)


def _pass(*records: RunRecord) -> PassResult:
    return PassResult(1.0, 0.1, len(records), 1.0, list(records), [])


def test_tampered_digest_counts_as_a_failure():
    tally = Tally(reference_of([_record("a"), _record("b")]))
    tally.add(_pass(_record("a"), _record("b", digest="tampered")))
    report = tally.report({})
    assert (report["attempted"], report["failed"], report["correct"]) == (2, 1, False)


def test_drifted_counts_and_new_unrecovered_losses_fail():
    tally = Tally(reference_of([_record("a"), _record("b")]))
    drifted = RunRecord("a", "d", events=11, crossings=20, session_msgs=3)
    tally.add(_pass(drifted, _record("b", unrecovered=1), RunRecord.failed("c", "boom")))
    assert (tally.attempted, len(tally.failures)) == (3, 3)


def test_first_pass_is_the_reference_when_none_is_committed():
    tally = Tally(None)
    tally.add(_pass(_record("a")))
    tally.add(_pass(_record("a")))
    tally.add(_pass(_record("a", digest="other")))
    assert (tally.attempted, len(tally.failures)) == (3, 1)
