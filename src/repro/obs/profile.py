"""Lightweight sim-engine profiler.

Attach a :class:`SimProfiler` to ``Simulator.profiler`` and every fired
event's callback is timed with ``perf_counter`` and attributed to a
handler label (``SrmAgent._request_timer_fired``, ``Network._wave``,
...).  The result — events processed and wall-clock per handler — answers
"where does sim wall-clock go?" without any external tooling, and exports
as plain JSON through ``RunSummary.obs``.

The profiler costs two clock reads per event while attached; a detached
engine (``profiler is None``, the default) pays only the branch.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

from repro.obs.events import callback_label


class SimProfiler:
    """Per-handler event counts and cumulative wall-clock."""

    def __init__(self) -> None:
        #: label -> [events fired, wall-clock seconds in the handler].
        self.handlers: dict[str, list[float]] = {}
        self.events = 0
        self.wall_s = 0.0
        #: The profiled :class:`~repro.sim.engine.Simulator` (set by
        #: ``run_trace``).  An engine entry counts the events it adds to
        #: ``events_processed``: a network delivery wave is one entry
        #: standing for every arrival it folds.  Unbound, each entry
        #: counts one.
        self.sim = None

    def record_call(
        self, callback: Callable[..., Any], args: tuple[Any, ...]
    ) -> None:
        """Invoke ``callback(*args)``, timing and attributing it."""
        sim = self.sim
        before = 0 if sim is None else sim.events_processed
        start = perf_counter()
        try:
            callback(*args)
        finally:
            elapsed = perf_counter() - start
            events = 1 if sim is None else 1 + sim.events_processed - before
            label = callback_label(callback)
            entry = self.handlers.get(label)
            if entry is None:
                self.handlers[label] = [events, elapsed]
            else:
                entry[0] += events
                entry[1] += elapsed
            self.events += events
            self.wall_s += elapsed

    def summary(self) -> dict[str, Any]:
        """Per-handler profile, hottest first (JSON-serializable)."""
        return {
            "events": self.events,
            "wall_s": round(self.wall_s, 6),
            "handlers": {
                label: {"events": int(count), "wall_s": round(seconds, 6)}
                for label, (count, seconds) in sorted(
                    self.handlers.items(), key=lambda kv: -kv[1][1]
                )
            },
        }

    def describe(self, top: int = 10) -> str:
        """An ASCII table of the ``top`` hottest handlers."""
        lines = [
            f"profile: {self.events} events, {self.wall_s:.3f}s in handlers",
            f"  {'handler':<44} {'events':>9} {'wall_s':>9}",
        ]
        ranked = sorted(self.handlers.items(), key=lambda kv: -kv[1][1])
        for label, (count, seconds) in ranked[:top]:
            lines.append(f"  {label:<44} {int(count):>9} {seconds:>9.4f}")
        return "\n".join(lines)
