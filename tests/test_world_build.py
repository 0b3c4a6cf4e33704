"""The world build allocates per-host state only when a run uses it.

``build_simulation`` hands each agent the run's registry instead of a
ready stream, primed distance estimators share the oracle without a
per-host closure, session timers exist only once sessions start, and
the cyclic collector is paused for the build and then restored.
"""

import gc
import random

import pytest

from repro.harness import runner
from repro.harness.config import SimulationConfig
from repro.harness.runner import build_simulation
from repro.net.families import synthesize_topology_trace
from repro.sim.rng import RngRegistry
from tests.helpers import line_tree, make_world

LOSSLESS = "transit_stub:transits=2,stubs=3,hosts=4,packets=16,loss=1e-9"
#: 4 transits x 5 stubs x 100 hosts = 2,000 receivers.
WIDE = "transit_stub:transits=4,stubs=5,hosts=100,packets=16,loss=1e-9"


class TestLazyStreams:
    @pytest.mark.parametrize("protocol", ["srm", "cesrm"])
    def test_first_draw_matches_the_named_stream(self, protocol):
        synthetic = synthesize_topology_trace(LOSSLESS, seed=3)
        config = SimulationConfig(seed=11)
        simulation = build_simulation(synthetic, protocol, config)
        name = synthetic.trace.name
        for host in synthetic.trace.tree.hosts[:4]:
            fresh = (
                RngRegistry(11).fork(f"run:{protocol}:{name}").stream(f"agent:{host}")
            )
            assert simulation.agents[host].rng.uniform(0.5, 2.0) == fresh.uniform(
                0.5, 2.0
            )

    def test_agent_built_with_a_random_keeps_it(self):
        world = make_world(line_tree())
        agent = world.agents["r1"]
        assert isinstance(agent.rng, random.Random)
        assert agent.rng is agent.rng

    def test_lossless_primed_run_makes_no_stream_or_session_timer(self):
        synthetic = synthesize_topology_trace(LOSSLESS, seed=0)
        assert synthetic.trace.total_losses == 0
        config = SimulationConfig(seed=0, prime_distances=True)
        simulation = build_simulation(synthetic, "cesrm", config)
        simulation.sim.run(until=simulation.end_time)
        registry = simulation.faults.registry
        assert not [name for name in registry._streams if name.startswith("agent:")]
        for agent in simulation.agents.values():
            assert agent._session_timer is None
            assert agent._rng is registry
            agent.stop()  # end-of-run teardown works without a timer

    def test_session_timer_exists_once_sessions_start(self):
        synthetic = synthesize_topology_trace(LOSSLESS, seed=0)
        simulation = build_simulation(synthetic, "srm", SimulationConfig(seed=0))
        for agent in simulation.agents.values():
            assert agent._session_timer.running


def test_primed_world_tracks_at_most_twelve_objects_per_host():
    synthetic = synthesize_topology_trace(WIDE, seed=0)
    hosts = len(synthetic.trace.tree.hosts)
    assert hosts > 2000
    config = SimulationConfig(seed=0, prime_distances=True)
    gc.collect()
    before = len(gc.get_objects())
    simulation = build_simulation(synthetic, "cesrm", config)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(simulation.agents) == hosts
    assert added / hosts <= 12


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_build_restores_the_callers_setting(self, enabled):
        synthetic = synthesize_topology_trace(LOSSLESS, seed=0)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            build_simulation(synthetic, "cesrm", SimulationConfig())
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_failed_build_restores_the_callers_setting(self, enabled, monkeypatch):
        synthetic = synthesize_topology_trace(LOSSLESS, seed=0)
        seen = []

        def failing_get_spec(protocol):
            seen.append(gc.isenabled())
            raise ValueError(f"unknown protocol {protocol!r}")

        monkeypatch.setattr(runner, "get_spec", failing_get_spec)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            with pytest.raises(ValueError):
                build_simulation(synthetic, "srm", SimulationConfig())
            assert seen == [False]  # it raised inside the paused build
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
