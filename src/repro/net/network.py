"""Packet delivery over the multicast tree.

The network forwards packets hop-by-hop through the tree with per-direction
FIFO queueing (:class:`~repro.net.link.LinkState`), applies an optional
loss-injection hook on every directed hop, delivers packets to the agents
attached at host nodes, and accounts one cost unit per link crossing — the
transmission-overhead metric of §4.4.

Three propagation modes exist, mirroring the paper:

* ``multicast`` — flood of the shared tree from the sending host: every
  node forwards to all neighbours except the one the packet arrived on.
  This models SRM/CESRM's use of IP multicast where every request/reply
  reaches the entire group.
* ``unicast`` — along the unique tree path (CESRM's expedited requests).
* ``subcast`` — downstream flood from a router (router-assisted CESRM,
  §3.3), reaching only the subtree below the turning point.

Internally every mode runs on integer node ids interned once through the
tree's :class:`~repro.net.index.TopologyIndex`; each directed hop is a
prebuilt record carrying its endpoint names, :class:`LinkState` and int
key.  Floods and subcasts travel as *delivery waves*: one engine entry
holds every arrival of one packet at one instant, and firing it delivers
and forwards node by node in exactly the order per-hop arrival entries
would (see :meth:`Network._wave`).  Unicast walks a precomputed integer
path as a chain of per-hop entries.  Loss hooks, fault-injector hop
rules, and trace events see every hop of every mode, with string node
ids and in per-hop order, through :meth:`Network._cross`; waves take a
hop inline only when none of them can see it.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from repro.net.link import LinkState
from repro.net.packet import Cast, Packet, PacketKind
from repro.net.topology import MulticastTree, NodeKind
from repro.obs.events import EventKind
from repro.sim.engine import Simulator

#: Loss-injection hook: ``(from_node, to_node, packet) -> True`` to drop the
#: packet on that directed hop.
DropFn = Callable[[str, str, Packet], bool]

#: Dense ``(kind, cast)`` slot numbering for the crossing counter: the hot
#: path resolves a packet's slot once per send primitive and every hop then
#: counts with plain list-index arithmetic — no enum hashing per crossing.
_DATA_KIND = PacketKind.DATA
_KINDS = tuple(PacketKind)
_CASTS = tuple(Cast)
_N_CAST = len(_CASTS)
_N_SLOTS = len(_KINDS) * _N_CAST
_KIND_INDEX = {kind: i for i, kind in enumerate(_KINDS)}
_CAST_INDEX = {cast: i for i, cast in enumerate(_CASTS)}
_MULTICAST_COL = _CAST_INDEX[Cast.MULTICAST]
_UNICAST_COL = _CAST_INDEX[Cast.UNICAST]
_SUBCAST_COL = _CAST_INDEX[Cast.SUBCAST]
#: slot -> (kind row, cast column) and snapshot key, precomputed.
_SLOT_ROW = tuple(slot // _N_CAST for slot in range(_N_SLOTS))
_SLOT_COL = tuple(slot % _N_CAST for slot in range(_N_SLOTS))
_SLOT_KEYS = tuple(
    (kind.value, cast.value) for kind in _KINDS for cast in _CASTS
)
#: Kind rows whose crossings feed the Figure 5b overhead categories.
_RETRANSMISSION_ROWS = tuple(
    _KIND_INDEX[k] for k in _KINDS if k.is_retransmission
)
_RECOVERY_CONTROL_ROWS = tuple(
    _KIND_INDEX[k] for k in _KINDS if k.is_recovery_control
)
_UNICAST_CONTROL_SLOTS = tuple(
    row * _N_CAST + _UNICAST_COL for row in _RECOVERY_CONTROL_ROWS
)

#: Directed hops are keyed ``u << _HOP_SHIFT | v`` — a fixed-stride int
#: key that stays valid as membership churn appends node ids (the old
#: ``u * n + v`` keying broke the moment ``n`` grew).  2^21 node ids is
#: comfortably above the topology registry's receiver cap.
_HOP_SHIFT = 21

#: One directed hop, resolved once at build time: ``(to_id, from_name,
#: to_name, link, hop_key)`` — everything one crossing touches.
HopRecord = tuple[int, str, str, LinkState, int]


class Agent(Protocol):
    """What the network requires of an attached host agent."""

    def receive(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class CrossingCounter:
    """Counts link crossings per ``(kind, cast)`` — 1 unit per link (§4.4).

    Counts live in flat lists indexed by a dense ``(kind, cast)`` slot;
    running per-kind and per-cast totals are maintained in :meth:`record` /
    :meth:`record_slot`, so :meth:`by_kind` / :meth:`by_cast` /
    :meth:`total` are O(1) lookups instead of scans over the distinct-key
    set.  The network resolves a packet's slot once per send primitive and
    calls :meth:`record_slot` per hop; :meth:`record` is the enum-keyed
    convenience path for external callers.
    """

    __slots__ = ("_slots", "_kind_counts", "_cast_counts", "_total")

    def __init__(self) -> None:
        self._slots = [0] * _N_SLOTS
        self._kind_counts = [0] * len(_KINDS)
        self._cast_counts = [0] * _N_CAST
        self._total = 0

    @staticmethod
    def slot_of(kind: PacketKind, cast: Cast) -> int:
        """The dense slot for ``(kind, cast)`` — resolve once, count often."""
        return _KIND_INDEX[kind] * _N_CAST + _CAST_INDEX[cast]

    def record(self, packet: Packet) -> None:
        self.record_slot(
            _KIND_INDEX[packet.kind] * _N_CAST + _CAST_INDEX[packet.cast]
        )

    def record_slot(self, slot: int) -> None:
        self._slots[slot] += 1
        self._kind_counts[_SLOT_ROW[slot]] += 1
        self._cast_counts[_SLOT_COL[slot]] += 1
        self._total += 1

    def total(self) -> int:
        return self._total

    def by_kind(self, kind: PacketKind) -> int:
        return self._kind_counts[_KIND_INDEX[kind]]

    def by_cast(self, cast: Cast) -> int:
        return self._cast_counts[_CAST_INDEX[cast]]

    def get(self, kind: PacketKind, cast: Cast) -> int:
        return self._slots[_KIND_INDEX[kind] * _N_CAST + _CAST_INDEX[cast]]

    @property
    def retransmission_crossings(self) -> int:
        """Link crossings by repair replies (payload-carrying)."""
        kind_counts = self._kind_counts
        return sum(kind_counts[row] for row in _RETRANSMISSION_ROWS)

    @property
    def multicast_control_crossings(self) -> int:
        """Link crossings by multicast repair requests."""
        kind_counts = self._kind_counts
        return (
            sum(kind_counts[row] for row in _RECOVERY_CONTROL_ROWS)
            - self.unicast_control_crossings
        )

    @property
    def unicast_control_crossings(self) -> int:
        """Link crossings by unicast (expedited) repair requests."""
        slots = self._slots
        return sum(slots[slot] for slot in _UNICAST_CONTROL_SLOTS)

    def snapshot(self) -> dict[tuple[str, str], int]:
        """Nonzero counts keyed ``(kind.value, cast.value)``, in dense slot
        (kind-major) order.  Consumers sort or aggregate; iteration order is
        not part of the contract."""
        return {
            _SLOT_KEYS[slot]: count
            for slot, count in enumerate(self._slots)
            if count
        }


class Network:
    """Hop-by-hop packet delivery over a static multicast tree.

    Parameters
    ----------
    sim:
        The simulation engine supplying the clock and event queue.
    tree:
        The multicast tree topology.
    propagation_delay:
        One-way per-link propagation delay in seconds (paper default 20 ms).
    bandwidth_bps:
        Per-link bandwidth (paper default 1.5 Mbps).
    """

    def __init__(
        self,
        sim: Simulator,
        tree: MulticastTree,
        propagation_delay: float = 0.020,
        bandwidth_bps: float = 1.5e6,
    ) -> None:
        self.sim = sim
        self.tree = tree
        self.propagation_delay = propagation_delay
        self.bandwidth_bps = bandwidth_bps
        self.drop_fn: DropFn | None = None
        #: Optional :class:`~repro.faults.inject.FaultInjector`: consulted on
        #: every directed hop for blocked links and drop/duplicate/delay
        #: rules.  None (or an injector with no rules) costs one branch.
        self.faults = None
        self.crossings = CrossingCounter()
        self.packets_dropped = 0
        self.packets_delivered = 0
        self._agents: dict[str, Agent] = {}
        self._links: dict[tuple[str, str], LinkState] = {}
        #: Node ids removed by :meth:`detach_subtree` (membership churn).
        #: Unicasts addressed to them — or crossing their removed links
        #: mid-flight — die like any other loss instead of erroring.
        self._detached_ids: set[int] = set()

        index = tree.index
        self._index = index
        n = index.n
        self._n = n
        self._ids = index.ids
        self._names = index.names
        #: Agent slot per interned node id (None at routers / unattached).
        self._agents_by_id: list[Agent | None] = [None] * n
        #: Directed-hop records by hop key.  ``_adj`` fans out
        #: children-first-then-parent (the flood order); ``_child_adj`` is
        #: the downstream-only fan-out for subcast.
        hop_record: dict[int, HopRecord] = {}
        names = index.names
        for parent_id, kids in enumerate(index.children):
            for child_id in kids:
                for u, v in ((parent_id, child_id), (child_id, parent_id)):
                    link = LinkState(
                        bandwidth_bps=bandwidth_bps,
                        propagation_delay=propagation_delay,
                    )
                    self._links[(names[u], names[v])] = link
                    key = u << _HOP_SHIFT | v
                    hop_record[key] = (v, names[u], names[v], link, key)
        self._hop_record = hop_record
        self._child_adj: list[tuple[HopRecord, ...]] = [
            tuple(
                hop_record[node << _HOP_SHIFT | child]
                for child in index.children[node]
            )
            for node in range(n)
        ]
        self._adj: list[tuple[HopRecord, ...]] = [
            tuple(hop_record[node << _HOP_SHIFT | nb] for nb in index.neighbors[node])
            for node in range(n)
        ]
        #: ``(injector, rule count, link_combos tables or None)`` the drop
        #: keys below were built for (see :meth:`_hop_check`).
        self._drop_tables: tuple[Any, int, tuple | None] = (None, 0, None)
        #: seqno -> hop keys on which that DATA packet dies.
        self._drop_keys: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, host_id: str, agent: Agent) -> None:
        """Attach a protocol agent at a host node (source or receiver)."""
        if self.tree.kind(host_id) is NodeKind.ROUTER:
            raise ValueError(f"cannot attach an agent at router {host_id!r}")
        self._agents[host_id] = agent
        self._agents_by_id[self._ids[host_id]] = agent

    def agent(self, host_id: str) -> Agent:
        return self._agents[host_id]

    # ------------------------------------------------------------------
    # Membership churn
    # ------------------------------------------------------------------
    def _rebuild_adjacency(self, node: int) -> None:
        index = self._index
        hop_record = self._hop_record
        self._child_adj[node] = tuple(
            hop_record[node << _HOP_SHIFT | child] for child in index.children[node]
        )
        self._adj[node] = tuple(
            hop_record[node << _HOP_SHIFT | nb] for nb in index.neighbors[node]
        )

    def attach_receiver(self, name: str, parent: str) -> int:
        """Grow the network for a joining receiver: patch the tree and
        index, create the two directed links, and extend the adjacency
        records.  The caller attaches the agent afterwards (normally via
        the agent's constructor).  Returns the receiver's node id."""
        self.tree.attach_receiver(name, parent)
        index = self._index
        nid = self._ids[name]
        pid = self._ids[parent]
        self._detached_ids.discard(nid)
        while len(self._agents_by_id) < index.n:
            self._agents_by_id.append(None)
            self._adj.append(())
            self._child_adj.append(())
        names = self._names
        hop_record = self._hop_record
        for u, v in ((pid, nid), (nid, pid)):
            # A rejoining receiver gets fresh links: the old attachment
            # point (and its carried-bytes accounting) may differ.
            link = LinkState(
                bandwidth_bps=self.bandwidth_bps,
                propagation_delay=self.propagation_delay,
            )
            self._links[(names[u], names[v])] = link
            key = u << _HOP_SHIFT | v
            hop_record[key] = (v, names[u], names[v], link, key)
        self._rebuild_adjacency(nid)
        self._rebuild_adjacency(pid)
        self._drop_keys.clear()
        return nid

    def detach_subtree(self, name: str) -> tuple[str, ...]:
        """Shrink the network for a leaving receiver (or router subtree):
        patch the tree and index, drop agents, links and adjacency of
        everything below.  Returns the detached node ids."""
        index = self._index
        pid = index.parent[self._ids[name]]
        removed = self.tree.detach_subtree(name)
        names = self._names
        ids = self._ids
        hop_record = self._hop_record
        for rname in removed:
            rid = ids[rname]
            self._detached_ids.add(rid)
            self._agents.pop(rname, None)
            self._agents_by_id[rid] = None
            self._adj[rid] = ()
            self._child_adj[rid] = ()
            prid = index.parent[rid]  # tombstones keep their parent pointer
            for u, v in ((prid, rid), (rid, prid)):
                self._links.pop((names[u], names[v]), None)
                hop_record.pop(u << _HOP_SHIFT | v, None)
        self._rebuild_adjacency(pid)
        self._drop_keys.clear()
        return removed

    def link_state(self, u: str, v: str) -> LinkState:
        """The directed link state for the hop ``u -> v``."""
        return self._links[(u, v)]

    # ------------------------------------------------------------------
    # Latency helpers
    # ------------------------------------------------------------------
    def control_delay(self, a: str, b: str) -> float:
        """One-way latency of a 0-byte control packet from ``a`` to ``b``
        over an idle network: pure propagation."""
        return self.tree.hop_distance(a, b) * self.propagation_delay

    def rtt(self, a: str, b: str) -> float:
        """Round-trip control latency between two nodes."""
        return 2.0 * self.control_delay(a, b)

    # ------------------------------------------------------------------
    # Send primitives
    # ------------------------------------------------------------------
    def multicast(self, packet: Packet) -> Packet:
        """Flood ``packet`` over the tree from ``packet.origin``."""
        packet.cast = Cast.MULTICAST
        packet.sent_at = self.sim._now
        if self.sim.tracer is not None:
            self._trace_send(packet)
        slot = _KIND_INDEX[packet.kind] * _N_CAST + _MULTICAST_COL
        origin = self._ids[packet.origin]
        self._wave(packet, slot, self._adj, origin, [origin], [-1])
        return packet

    def unicast(self, dest: str, packet: Packet) -> Packet:
        """Send ``packet`` from ``packet.origin`` to ``dest`` along the
        unique tree path."""
        if dest == packet.origin:
            raise ValueError("unicast to self")
        packet.cast = Cast.UNICAST
        packet.sent_at = self.sim._now
        if self.sim.tracer is not None:
            self._trace_send(packet, dest=dest)
        dest_id = self._ids[dest]
        if dest_id in self._detached_ids:
            # The destination left the group after the sender learned its
            # name (stale cache entry / request under churn); the packet
            # dies in the network like any other loss.
            self.packets_dropped += 1
            return packet
        slot = _KIND_INDEX[packet.kind] * _N_CAST + _UNICAST_COL
        path = self._index.path_ints(self._ids[packet.origin], dest_id)
        self._unicast_hop(path, 0, packet, False, slot)
        return packet

    def unicast_then_subcast(self, turning_point: str, packet: Packet) -> Packet:
        """Router-assisted reply (§3.3): unicast from ``packet.origin`` up to
        the ``turning_point`` router, which then subcasts downstream."""
        packet.cast = Cast.SUBCAST
        packet.sent_at = self.sim._now
        packet.turning_point = turning_point
        if self.sim.tracer is not None:
            self._trace_send(packet, turning_point=turning_point)
        slot = _KIND_INDEX[packet.kind] * _N_CAST + _SUBCAST_COL
        origin_id = self._ids[packet.origin]
        if turning_point == packet.origin:
            self._wave(packet, slot, self._child_adj, origin_id, [origin_id], [-1])
            return packet
        path = self._index.path_ints(origin_id, self._ids[turning_point])
        self._unicast_hop(path, 0, packet, True, slot)
        return packet

    # ------------------------------------------------------------------
    # Delivery waves
    # ------------------------------------------------------------------
    def _wave(
        self,
        packet: Packet,
        slot: int,
        adj: list[tuple[HopRecord, ...]],
        skip: int,
        nodes: list[int],
        froms: list[int],
    ) -> None:
        """Fire one delivery wave: every arrival of ``packet`` at one
        instant, as parallel ``nodes``/``froms`` lists in arrival order.

        Each node in turn is delivered to (unless it is ``skip``, or its
        ``from`` is -1: the node the packet starts from), then forwards
        over ``adj`` — the full adjacency for a flood, the children for a
        subcast — skipping the link it arrived on.  Each forwarded hop
        joins the last wave this firing opened if it arrives at that
        wave's instant while the wave is still the last entry of its
        bucket, and opens a new wave otherwise, so the queue holds
        exactly the per-hop arrival entries it would hold one by one,
        merely grouped.
        """
        sim = self.sim
        # One engine entry stands for len(nodes) arrivals.
        sim._events_processed += len(nodes) - 1
        check = self._hop_check(packet)
        tracer = sim.tracer
        # Hops that no drop_fn, on_hop rule or tracer can see skip
        # straight to the drop keys and the link queue.
        plain = check is not True and self.drop_fn is None and tracer is None
        now = sim._now
        size = packet.size_bytes
        agents = self._agents_by_id
        buckets = sim._buckets
        # The wave this firing opened last: sibling hops mostly share an
        # arrival instant.
        last_at = -1.0
        last_bucket = last_entry = last_nodes = last_froms = None
        hops = 0
        delivered = 0
        for node, frm in zip(nodes, froms):
            if frm >= 0:
                agent = agents[node]
                # A flood never revisits its origin; a subcast can sweep
                # back over the replier itself (``skip``).
                if agent is not None and node != skip:
                    delivered += 1
                    if tracer is not None:
                        self._trace_deliver(node, packet)
                    agent.receive(packet)
            for record in adj[node]:
                to = record[0]
                if to == frm:
                    continue
                hops += 1
                copy_at = None
                if not plain:
                    at = self._cross(record, packet, slot, check)
                    if at is None:
                        continue
                    if at.__class__ is tuple:
                        at, copy_at = at
                elif check is not None and record[4] in check:
                    self._record_drop(record[1], record[2], packet, None)
                    continue
                else:
                    # Inline of LinkState.enqueue — identical float-op
                    # order, minus a method call on the hottest line in
                    # the simulator.  The 0-byte control branch skips the
                    # arithmetic that is a no-op there.
                    link = record[3]
                    busy = link.busy_until
                    start = busy if busy > now else now
                    link.queueing_delay_total += start - now
                    if size > 0:
                        end = start + size * 8.0 / link.bandwidth_bps
                        link.bytes_carried += size
                    else:
                        end = start
                    link.busy_until = end
                    link.packets_carried += 1
                    at = end + link.propagation_delay
                # Join the last wave while it is still its bucket's tail;
                # otherwise open a new one behind whatever was queued.
                if at == last_at and last_bucket[-1] is last_entry:
                    last_nodes.append(to)
                    last_froms.append(node)
                else:
                    last_at = at
                    last_nodes = [to]
                    last_froms = [node]
                    last_entry = (
                        self._wave,
                        (packet, slot, adj, skip, last_nodes, last_froms),
                    )
                    last_bucket = buckets.get(at)
                    if last_bucket is not None:
                        last_bucket.append(last_entry)
                    else:
                        # ``at`` >= now: queueing and propagation never run back.
                        last_bucket = sim._open_bucket(at, last_entry)
                if copy_at is not None:
                    # A fault rule duplicated the packet on this hop: the
                    # copy is its own arrival entry, right behind.
                    sim.schedule_raw(
                        copy_at, self._wave, (packet, slot, adj, skip, [to], [node])
                    )
        # Inline of CrossingCounter.record_slot: one update per wave.
        crossings = self.crossings
        crossings._slots[slot] += hops
        crossings._kind_counts[_SLOT_ROW[slot]] += hops
        crossings._cast_counts[_SLOT_COL[slot]] += hops
        crossings._total += hops
        self.packets_delivered += delivered

    # ------------------------------------------------------------------
    # Unicast: a per-hop chain
    # ------------------------------------------------------------------
    def _unicast_hop(
        self,
        path: tuple[int, ...],
        index: int,
        packet: Packet,
        then_subcast: bool,
        slot: int,
    ) -> None:
        record = self._hop_record.get(path[index] << _HOP_SHIFT | path[index + 1])
        if record is None:
            # The next hop detached mid-flight (membership churn tore the
            # link down under this packet); it dies here.
            self.packets_dropped += 1
            return
        self.crossings.record_slot(slot)
        at = self._cross(record, packet, slot, self._hop_check(packet))
        if at is None:
            return
        args = (path, index, packet, then_subcast, slot)
        for copy_at in at if at.__class__ is tuple else (at,):
            self.sim.schedule_raw(copy_at, self._unicast_arrival, args)

    def _unicast_arrival(
        self,
        path: tuple[int, ...],
        index: int,
        packet: Packet,
        then_subcast: bool,
        slot: int,
    ) -> None:
        if index + 2 < len(path):
            self._unicast_hop(path, index + 1, packet, then_subcast, slot)
            return
        node = path[index + 1]
        if then_subcast:
            self._wave(
                packet, slot, self._child_adj, self._ids[packet.origin], [node], [-1]
            )
            return
        agent = self._agents_by_id[node]
        if agent is None:
            if node in self._detached_ids:
                self.packets_dropped += 1
                return
            raise RuntimeError(
                f"unicast destination {self._names[node]!r} has no agent"
            )
        self._deliver(node, agent, packet)

    # ------------------------------------------------------------------
    # Crossing one hop
    # ------------------------------------------------------------------
    def _hop_check(self, packet: Packet) -> set[int] | bool | None:
        """How ``packet``'s hops consult the fault injector right now:
        None — not at all; True — :meth:`FaultInjector.on_hop` per hop;
        or the set of hop keys on which the packet deterministically
        dies, when the trace-drop tables (``rule.link_combos``) are the
        only rules that can see it.  Constant within one wave: only
        scheduled events change an injector's outages or rules."""
        faults = self.faults
        if faults is None:
            return None
        if faults._down or not faults._rules_data_only:
            return True
        if packet.kind is not _DATA_KIND:
            # Every rule is data-only: on_hop would return None.
            return None
        rules = faults._hop_rules
        cached = self._drop_tables
        if cached[0] is not faults or cached[1] != len(rules):
            tables = tuple(getattr(rule, "link_combos", None) for rule in rules)
            if None in tables:
                tables = None
            cached = self._drop_tables = (faults, len(rules), tables)
            self._drop_keys.clear()
        tables = cached[2]
        if tables is None:
            return True
        seqno = packet.seqno
        keys = self._drop_keys.get(seqno)
        if keys is None:
            ids = self._ids
            keys = set()
            for table in tables:
                for u, v in table.get(seqno, ()):
                    if u in ids and v in ids:
                        keys.add(ids[u] << _HOP_SHIFT | ids[v])
            self._drop_keys[seqno] = keys
        return keys or None

    def _cross(
        self,
        record: HopRecord,
        packet: Packet,
        slot: int,
        check: set[int] | bool | None,
    ) -> float | tuple[float, float] | None:
        """Carry ``packet`` over one directed hop: apply ``drop_fn``, the
        fault check (see :meth:`_hop_check`) and tracer events, and queue
        it on the hop's :class:`LinkState`.  The caller counts the
        crossing (a lost packet still crossed); a duplicate copy is
        counted here.  Waves take the hops none of the three can see
        inline.

        Returns the arrival instant at the far end, an ``(original,
        copy)`` pair of instants when a fault rule duplicates it, or None
        when the packet is lost on the hop.
        """
        _, u, v, link, key = record
        sim = self.sim
        tracer = sim.tracer
        if self.drop_fn is not None and self.drop_fn(u, v, packet):
            self._record_drop(u, v, packet, tracer)
            return None
        duplicate = False
        extra_delay = 0.0
        if check is not None:
            if check is True:
                effect = self.faults.on_hop(u, v, packet)
                if effect is not None:
                    if effect.drop:
                        self._record_drop(u, v, packet, tracer)
                        return None
                    duplicate = effect.duplicate
                    extra_delay = effect.extra_delay
            elif key in check:
                self._record_drop(u, v, packet, tracer)
                return None
        now = sim._now
        if tracer is not None:
            wait = link.busy_until - now
            tracer.emit(
                now,
                EventKind.NET_HOP,
                node=v,
                source=packet.source,
                seqno=packet.seqno,
                pkt=packet.kind.value,
                cast=packet.cast.value,
                link=f"{u}->{v}",
            )
            if wait > 0:
                tracer.emit(
                    now,
                    EventKind.NET_QUEUE,
                    node=v,
                    source=packet.source,
                    seqno=packet.seqno,
                    link=f"{u}->{v}",
                    wait=wait,
                )
                tracer.observe("net.queueing_delay", wait)
        size = packet.size_bytes
        arrival = link.enqueue(now, size) + extra_delay
        if duplicate:
            # The copy serializes behind the original on the same link and
            # continues with the same forwarding behaviour downstream.
            self.crossings.record_slot(slot)
            return arrival, link.enqueue(now, size) + extra_delay
        return arrival

    def _record_drop(self, u: str, v: str, packet: Packet, tracer) -> None:
        self.packets_dropped += 1
        if tracer is not None:
            tracer.emit(
                self.sim._now,
                EventKind.NET_DROP,
                node=v,
                source=packet.source,
                seqno=packet.seqno,
                pkt=packet.kind.value,
                link=f"{u}->{v}",
            )

    def _deliver(self, node: int, agent: Agent, packet: Packet) -> None:
        self.packets_delivered += 1
        if self.sim.tracer is not None:
            self._trace_deliver(node, packet)
        agent.receive(packet)

    def _trace_deliver(self, node: int, packet: Packet) -> None:
        now = self.sim._now
        self.sim.tracer.emit(
            now,
            EventKind.NET_DELIVER,
            node=self._names[node],
            source=packet.source,
            seqno=packet.seqno,
            pkt=packet.kind.value,
            cast=packet.cast.value,
            origin=packet.origin,
            latency=now - packet.sent_at,
        )

    def _trace_send(self, packet: Packet, **detail: Any) -> None:
        self.sim.tracer.emit(
            self.sim.now,
            EventKind.NET_SEND,
            node=packet.origin,
            source=packet.source,
            seqno=packet.seqno,
            pkt=packet.kind.value,
            cast=packet.cast.value,
            **detail,
        )
