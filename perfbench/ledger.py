"""Outside-in layer ledger: an exclusive-time clock fed by wrappers.

The ledger is built entirely from the benchmark's side of the API.  A
:class:`LayerClock` keeps a stack of layer names; every wrapped public
entry point pushes its layer on entry and pops it on exit, and each
interval between two clock readings is charged to the layer on top of
the stack.  Time with an empty stack is charged to ``obs.unattributed``
(the benchmark's own glue).  The per-layer self times therefore add up
to the traced wall time exactly, by construction.

:class:`Instrumentation` installs the wrappers (class attributes of
classes exported by ``repro.api``) and restores the originals on exit.
:class:`Stamps` marks the two phase boundaries untraced passes need too:
the entry to ``Simulator.run`` and pool start-up
(``ProcessPoolExecutor.submit``).
:class:`LayerProfiler` is the engine hook: ``Simulator.profiler`` calls
its ``record_call`` for every event, and it charges the callback to the
layer of the module that owns the callback's target (a timer counts for
the layer of the callback it fires).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterator

UNATTRIBUTED = "obs.unattributed"


class LayerClock:
    """Exclusive (self) time per layer, from push/pop at layer crossings."""

    def __init__(self, timer: Callable[[], float] = time.perf_counter) -> None:
        self.timer = timer
        #: layer -> exclusive seconds.
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: span name -> inclusive seconds of its outermost calls.
        self.spans: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.wall_s = 0.0
        self._stack: list[str] = []
        self._depth: Counter[str] = Counter()
        self._span_start: dict[str, float] = {}
        self._start = 0.0
        self._last = 0.0

    def start(self) -> None:
        self._stack.clear()
        self._start = self._last = self.timer()

    def stop(self) -> float:
        """Charge the open interval and return the wall time measured."""
        now = self.timer()
        self.self_s[self._stack[-1] if self._stack else UNATTRIBUTED] += (
            now - self._last
        )
        self._last = now
        self.wall_s += now - self._start
        return self.wall_s

    def push(self, layer: str) -> float:
        now = self.timer()
        stack = self._stack
        self.self_s[stack[-1] if stack else UNATTRIBUTED] += now - self._last
        stack.append(layer)
        self._last = now
        return now

    def pop(self) -> float:
        now = self.timer()
        self.self_s[self._stack.pop()] += now - self._last
        self._last = now
        return now

    def enter(self, layer: str, span: str | None = None) -> None:
        now = self.push(layer)
        if span is not None:
            if not self._depth[span]:
                self._span_start[span] = now
            self._depth[span] += 1

    def exit(self, span: str | None = None) -> None:
        now = self.pop()
        if span is not None:
            self._depth[span] -= 1
            if not self._depth[span]:
                self.spans[span] += now - self._span_start[span]

    def call(self, layer: str, span: str | None, fn: Callable, *args, **kwargs):
        """Call ``fn`` with ``layer`` on top of the stack."""
        self.enter(layer, span)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(span)


def module_layer(module: str | None) -> str:
    """``repro.net.network`` -> ``net``; anything outside repro -> ``sim``."""
    parts = (module or "").split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return "sim"


class LayerProfiler:
    """The ``Simulator.profiler`` hook: charge each engine callback to
    the layer that owns its target."""

    def __init__(self, clock: LayerClock, timer_types: tuple[type, ...]) -> None:
        self.clock = clock
        self.timer_types = timer_types
        self._layers: dict[Any, str] = {}

    def layer_of(self, callback: Callable) -> tuple[str, bool]:
        """``(layer, fired_by_timer)`` for one engine callback."""
        target = callback
        owner = getattr(callback, "__self__", None)
        fired_by_timer = isinstance(owner, self.timer_types)
        if fired_by_timer:
            target = getattr(owner, "_callback", callback)
        while hasattr(target, "func"):  # functools.partial
            target = target.func
        func = getattr(target, "__func__", target)
        layer = self._layers.get(func)
        if layer is None:
            layer = module_layer(getattr(func, "__module__", None))
            self._layers[func] = layer
        return layer, fired_by_timer

    def record_call(self, callback: Callable, args: tuple) -> None:
        layer, fired_by_timer = self.layer_of(callback)
        if fired_by_timer and layer in ("srm", "core"):
            self.clock.counts["srm.timer_fires"] += 1
        clock = self.clock
        clock.push(layer)
        try:
            callback(*args)
        finally:
            clock.pop()

    def summary(self) -> dict:
        return {}


class Patches:
    """Replace class attributes and put the originals back on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, Any]] = []

    def replace(self, owner: type, name: str, make: Callable[[Any], Any]) -> None:
        """Wrap ``owner.name`` with ``make(function)`` (classmethods stay
        classmethods)."""
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        if isinstance(original, classmethod):
            function = original.__func__
            setattr(owner, name, classmethod(functools.wraps(function)(make(function))))
        else:
            setattr(owner, name, functools.wraps(original)(make(original)))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Stamps(Patches):
    """The two phase boundaries every pass needs, traced or not: when
    ``Simulator.run`` is entered (the end of a run's set-up) and how long
    process-pool start-up took.  Two clock reads per run or submit."""

    def __init__(self, simulator_cls: type) -> None:
        super().__init__()
        self.run_entry = 0.0
        self.pool_start_s = 0.0

        def run(original):
            def wrapper(sim, *args, **kwargs):
                self.run_entry = time.perf_counter()
                return original(sim, *args, **kwargs)

            return wrapper

        def submit(original):
            def wrapper(pool, *args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(pool, *args, **kwargs)
                finally:
                    self.pool_start_s += time.perf_counter() - start

            return wrapper

        self.replace(simulator_cls, "run", run)
        self.replace(ProcessPoolExecutor, "submit", submit)


def _layered(clock: LayerClock, layer: str, span: str | None = None,
             count: str | None = None):
    def make(original):
        def wrapper(*args, **kwargs):
            if count is not None:
                clock.counts[count] += 1
            clock.enter(layer, span)
            try:
                return original(*args, **kwargs)
            finally:
                clock.exit(span)

        return wrapper

    return make


def _layered_generator(clock: LayerClock, layer: str):
    def make(original):
        def wrapper(*args, **kwargs) -> Iterator:
            iterator = original(*args, **kwargs)
            while True:
                clock.push(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    clock.pop()
                yield item

        return wrapper

    return make


class Instrumentation(Patches):
    """Wrap every layer's public entry points with ``clock`` push/pop.

    ``api`` is the ``repro.api`` module; only names it exports (and
    public methods of those classes) are touched.
    """

    def __init__(self, clock: LayerClock, api: Any) -> None:
        super().__init__()
        self.clock = clock
        self.profiler = LayerProfiler(clock, (api.Timer, api.PeriodicTimer))
        profiler = self.profiler
        counts = clock.counts

        for name in ("multicast", "unicast", "unicast_then_subcast"):
            self.replace(api.Network, name, _layered(clock, "net", count="net.sends"))
        self.replace(api.Network, "__init__", _layered(clock, "net", "net.index_build_s"))

        agent_classes: list[type] = []
        for spec in api.all_protocol_specs():
            for cls in spec.agent_cls.__mro__:
                if cls is not object and cls not in agent_classes:
                    agent_classes.append(cls)
        for cls in agent_classes:
            layer = module_layer(cls.__module__)
            if "receive" in cls.__dict__:
                self.replace(cls, "receive", _layered(clock, layer, count="net.deliveries"))
            if "__init__" in cls.__dict__:
                self.replace(cls, "__init__", _layered(clock, layer, "srm.agent_build_s"))

        def on_hop(original):
            def wrapper(injector, u, v, packet):
                clock.push("faults")
                try:
                    effect = original(injector, u, v, packet)
                finally:
                    clock.pop()
                counts["faults.hop_checks"] += 1
                if effect is not None and effect.drop:
                    counts["faults.drops"] += 1
                return effect

            return wrapper

        self.replace(api.FaultInjector, "on_hop", on_hop)

        def run(original):
            def wrapper(sim, *args, **kwargs):
                if sim.profiler is None:
                    sim.profiler = profiler
                clock.push("sim")
                try:
                    return original(sim, *args, **kwargs)
                finally:
                    clock.pop()
                    if sim.profiler is profiler:
                        sim.profiler = None

            return wrapper

        self.replace(api.Simulator, "run", run)

        for name in ("from_result", "to_dict", "from_dict"):
            self.replace(api.RunSummary, name, _layered(clock, "metrics", "metrics.summary_s"))
        self.replace(api.RunCache, "get", _layered(clock, "exec", "exec.cache_read_s"))
        self.replace(api.RunCache, "put", _layered(clock, "exec"))
        self.replace(api.ExecutionEngine, "map_unordered", _layered_generator(clock, "exec"))
        for name in ("__init__", "begin_sweep", "record"):
            self.replace(api.SweepStore, name, _layered(clock, "sweep", "sweep.store_s"))
