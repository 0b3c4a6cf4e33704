"""Per-direction link state: bandwidth, propagation delay, FIFO queue.

§4.3 fixes every link at 1.5 Mbps with a uniform propagation delay (the
published results use 20 ms).  Payload packets take a store-and-forward
transmission delay of ``size * 8 / bandwidth`` (≈5.46 ms for 1 KB); control
packets are 0 KB and therefore experience pure propagation.  Each direction
of a link transmits serially, so back-to-back payloads queue behind one
another (``busy_until`` tracking).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class LinkState:
    """State of a single *direction* of a duplex link."""

    bandwidth_bps: float
    propagation_delay: float
    busy_until: float = 0.0
    packets_carried: int = 0
    bytes_carried: int = 0
    queueing_delay_total: float = 0.0

    def transmission_time(self, size_bytes: int) -> float:
        """Serialization delay for a packet of ``size_bytes``."""
        if size_bytes <= 0:
            return 0.0
        return size_bytes * 8.0 / self.bandwidth_bps

    def enqueue(self, now: float, size_bytes: int) -> float:
        """Admit a packet at local time ``now``; return its arrival time at
        the far end (queueing + transmission + propagation)."""
        busy = self.busy_until
        start = busy if busy > now else now
        self.queueing_delay_total += start - now
        if size_bytes > 0:
            end = start + size_bytes * 8.0 / self.bandwidth_bps
            self.bytes_carried += size_bytes
        else:
            # A 0-byte control packet: no serialization, nothing carried.
            end = start
        self.busy_until = end
        self.packets_carried += 1
        return end + self.propagation_delay

    @property
    def mean_queueing_delay(self) -> float:
        if not self.packets_carried:
            return 0.0
        return self.queueing_delay_total / self.packets_carried
