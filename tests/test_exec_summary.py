"""RunSummary must round-trip every statistic the report layer consumes."""

import json

import pytest

from repro.exec.summary import (
    RunSummary,
    SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
)
from repro.harness.config import SimulationConfig
from repro.harness.runner import run_trace
from repro.srm.constants import SrmParams
from repro.traces.synthesize import synthesize_trace
from repro.traces.yajnik import trace_meta

TINY = 300


@pytest.fixture(scope="module")
def result():
    config = SimulationConfig(seed=0, max_packets=TINY)
    synthetic = synthesize_trace(trace_meta("WRN951113"), seed=0, max_packets=TINY)
    return run_trace(synthetic, "cesrm", config)


@pytest.fixture(scope="module")
def rehydrated(result):
    summary = RunSummary.from_result(result)
    return RunSummary.from_json(summary.to_json()).to_result()


class TestConfigSerialization:
    def test_round_trip_defaults(self):
        config = SimulationConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_round_trip_customized(self):
        config = SimulationConfig(
            params=SrmParams(c1=1.5, d3=2.0),
            seed=7,
            max_packets=123,
            policy="most-frequent",
            lossy_recovery=True,
            verify_period=0.5,
        )
        assert config_from_dict(config_to_dict(config)) == config

    # Wire-format migration: configs and cached summaries written while
    # the forwarding kernel was a run axis may carry a ``kernel`` key.

    def test_vector_kernel_round_trips(self, result):
        """A ``"kernel": "vector"`` config or cached summary decodes to
        today's single delivery path and re-serializes without the key."""
        data = config_to_dict(SimulationConfig(seed=0))
        data["kernel"] = "vector"
        assert config_from_dict(data) == SimulationConfig(seed=0)
        assert "kernel" not in config_to_dict(config_from_dict(data))

        cached = RunSummary.from_result(result).to_dict()
        cached["config"]["kernel"] = "vector"
        rewritten = RunSummary.from_result(
            RunSummary.from_dict(cached).to_result()
        ).to_dict()
        assert "kernel" not in rewritten["config"]

    def test_default_kernel_omitted_from_wire(self):
        # Digest stability: no kernel key ever serializes, so an explicit
        # ``"kernel": "python"`` entry re-serializes to the default shape.
        assert "kernel" not in config_to_dict(SimulationConfig())
        data = config_to_dict(SimulationConfig())
        data["kernel"] = "python"
        assert config_to_dict(config_from_dict(data)) == config_to_dict(
            SimulationConfig()
        )

    def test_pre_v2_wire_format_decodes_to_python_kernel(self):
        """Entries serialized before the kernel axis existed (no
        ``kernel`` key) decode to the same config as a python-kernel
        entry."""
        data = config_to_dict(SimulationConfig())
        assert "kernel" not in data  # genuinely the old shape
        python = dict(data, kernel="python")
        assert config_from_dict(data) == config_from_dict(python)
        assert config_from_dict(data) == SimulationConfig()

    def test_unknown_kernel_rejected(self):
        data = config_to_dict(SimulationConfig())
        data["kernel"] = "cuda"
        with pytest.raises(ValueError, match="unknown kernel"):
            config_from_dict(data)


class TestJsonRoundTrip:
    def test_summary_equality(self, result):
        summary = RunSummary.from_result(result)
        assert RunSummary.from_json(summary.to_json()) == summary

    def test_json_is_plain_data(self, result):
        # must survive a strict JSON round trip with no custom encoding
        text = RunSummary.from_result(result).to_json()
        json.loads(text)

    def test_schema_mismatch_rejected(self, result):
        data = RunSummary.from_result(result).to_dict()
        data["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            RunSummary.from_dict(data)

    def test_unknown_field_rejected(self, result):
        data = RunSummary.from_result(result).to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            RunSummary.from_dict(data)


class TestResultRehydration:
    """Every field the figures/tables read must survive exactly."""

    def test_identity_and_structure(self, result, rehydrated):
        assert rehydrated.protocol == result.protocol
        assert rehydrated.trace_name == result.trace_name
        assert rehydrated.config == result.config
        assert rehydrated.receivers == result.receivers
        assert rehydrated.source == result.source
        assert rehydrated.hosts == result.hosts

    def test_figure1_latencies(self, result, rehydrated):
        for receiver in result.receivers:
            assert rehydrated.normalized_latencies(receiver) == (
                result.normalized_latencies(receiver)
            )
            assert rehydrated.avg_normalized_recovery_time(receiver) == (
                result.avg_normalized_recovery_time(receiver)
            )

    def test_figure2_gaps(self, result, rehydrated):
        for receiver in result.receivers:
            assert rehydrated.expedited_gap(receiver) == result.expedited_gap(
                receiver
            )

    def test_figure34_packet_counts(self, result, rehydrated):
        for host in result.hosts:
            assert rehydrated.request_counts(host) == result.request_counts(host)
            assert rehydrated.reply_counts(host) == result.reply_counts(host)

    def test_figure5_overhead_and_success(self, result, rehydrated):
        assert rehydrated.overhead == result.overhead
        assert (
            rehydrated.metrics.expedited_success_rate
            == result.metrics.expedited_success_rate
        )
        assert (
            rehydrated.metrics.expedited_requests_sent
            == result.metrics.expedited_requests_sent
        )

    def test_router_assist_crossings(self, result, rehydrated):
        assert rehydrated.crossings_snapshot == result.crossings_snapshot

    def test_metrics_collections(self, result, rehydrated):
        assert rehydrated.metrics.sends == result.metrics.sends
        assert rehydrated.metrics.recoveries == result.metrics.recoveries
        assert (
            rehydrated.metrics.losses_detected == result.metrics.losses_detected
        )
        assert rehydrated.metrics.unrecovered == result.metrics.unrecovered
        assert (
            rehydrated.metrics.rounds_histogram()
            == result.metrics.rounds_histogram()
        )

    def test_unrecovered_and_scalars(self, result, rehydrated):
        assert rehydrated.unrecovered == result.unrecovered
        assert rehydrated.unrecovered_losses == result.unrecovered_losses
        assert rehydrated.recovered_losses == result.recovered_losses
        assert rehydrated.rtt_to_source == result.rtt_to_source
        assert rehydrated.n_packets == result.n_packets
        assert rehydrated.total_losses == result.total_losses
        assert rehydrated.sim_time == result.sim_time
        assert rehydrated.events_processed == result.events_processed
        assert rehydrated.wall_time == result.wall_time

    def test_timeline_render_identical(self, result, rehydrated):
        from repro.harness.report import render_recovery_timeline

        receiver = max(
            result.receivers,
            key=lambda r: len(result.metrics.recoveries.get(r, [])),
        )
        assert render_recovery_timeline(
            rehydrated, receiver
        ) == render_recovery_timeline(result, receiver)
