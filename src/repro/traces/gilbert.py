"""The Gilbert two-state bursty loss process.

Packet losses on MBone links are bursty, not independent: the temporal-
dependence studies the paper cites (Yajnik et al. '96/'99, Bolot et al.,
Handley) all report loss runs far longer than a Bernoulli process would
produce.  CESRM's whole premise — that the *location* of the next loss
matches the location of recent losses — relies on this locality, so the
synthetic traces must reproduce it.

The classic Gilbert model is a two-state Markov chain (GOOD / BAD); packets
are dropped exactly while the chain sits in BAD.  With transition
probabilities ``p_gb`` (GOOD→BAD) and ``p_bg`` (BAD→GOOD):

* marginal loss rate      ``π_B = p_gb / (p_gb + p_bg)``
* mean loss-burst length  ``1 / p_bg``
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class GilbertModel:
    """A two-state Gilbert loss process.

    Attributes
    ----------
    p_gb:
        Probability of moving GOOD → BAD at each packet slot.
    p_bg:
        Probability of moving BAD → GOOD at each packet slot.
    """

    p_gb: float
    p_bg: float

    def __post_init__(self) -> None:
        for name, p in (("p_gb", self.p_gb), ("p_bg", self.p_bg)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p!r}")

    @classmethod
    def from_rate_and_burst(cls, loss_rate: float, mean_burst: float) -> "GilbertModel":
        """Build a model with the given marginal ``loss_rate`` and mean
        loss-burst length ``mean_burst`` (in packets, must be >= 1)."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate!r}")
        if mean_burst < 1.0:
            raise ValueError(f"mean_burst must be >= 1, got {mean_burst!r}")
        if loss_rate == 0.0:
            return cls(p_gb=0.0, p_bg=1.0)
        p_bg = 1.0 / mean_burst
        # pi_B = p_gb / (p_gb + p_bg)  =>  p_gb = pi_B * p_bg / (1 - pi_B)
        p_gb = loss_rate * p_bg / (1.0 - loss_rate)
        return cls(p_gb=min(p_gb, 1.0), p_bg=p_bg)

    @property
    def loss_rate(self) -> float:
        """Stationary marginal loss probability."""
        total = self.p_gb + self.p_bg
        if total == 0.0:
            return 0.0
        return self.p_gb / total

    @property
    def mean_burst_length(self) -> float:
        """Expected length of a loss run, in packets."""
        if self.p_bg == 0.0:
            return float("inf")
        return 1.0 / self.p_bg

    def sample_slots(self, n: int, rng: random.Random) -> bytes:
        """Reference slot-by-slot sampler; returns bytes with 1 = dropped.

        The chain starts in its stationary distribution so short samples are
        unbiased.  Emit-then-transition: the state at slot i decides the
        drop, then the chain steps for slot i+1.
        """
        out = bytearray(n)
        if n == 0 or self.p_gb == 0.0:
            return bytes(out)
        bad = rng.random() < self.loss_rate
        rand = rng.random
        p_gb, p_bg = self.p_gb, self.p_bg
        for i in range(n):
            if bad:
                out[i] = 1
                if rand() < p_bg:
                    bad = False
            elif rand() < p_gb:
                bad = True
        return bytes(out)

    def sample_mask(self, n: int, rng: random.Random) -> int:
        """Fast run-length sampler; returns an int bitmask (bit i = drop).

        Distributionally identical to :meth:`sample_slots`: run lengths of
        an emit-then-transition two-state chain are geometric with the
        respective exit probabilities, and by memorylessness the residual
        first run under a stationary start is geometric too.  Runtime is
        O(number of runs), which for low loss rates is far below O(n).
        """
        if n == 0 or self.p_gb == 0.0:
            return 0
        mask = 0
        pos = 0
        bad = rng.random() < self.loss_rate
        while pos < n:
            if bad:
                run = _geometric(self.p_bg, rng, limit=n - pos)
                mask |= ((1 << run) - 1) << pos
            else:
                run = _geometric(self.p_gb, rng, limit=n - pos)
            pos += run
            bad = not bad
        return mask

    def sample(self, n: int, rng: random.Random) -> bytes:
        """Sample ``n`` packet slots as bytes with 1 = dropped (fast path)."""
        return bytes_from_bitmask(self.sample_mask(n, rng), n)

    def scaled(self, factor: float) -> "GilbertModel":
        """A model with the marginal rate scaled by ``factor`` and the mean
        burst length preserved."""
        new_rate = min(self.loss_rate * factor, 0.95)
        return GilbertModel.from_rate_and_burst(new_rate, self.mean_burst_length)


def _geometric(p: float, rng: random.Random, limit: int) -> int:
    """A Geometric(p) draw on {1, 2, ...}, capped at ``limit``."""
    if p >= 1.0:
        return 1
    if p <= 0.0 or 1.0 - p == 1.0:
        # 1 - p rounds to 1.0 for p <= 2**-54, so log(1 - p) is 0; the
        # expected run outlasts any trace.
        return limit
    # Inverse transform: ceil(log(U) / log(1 - p)) has the geometric law.
    u = rng.random()
    if u <= 0.0:
        return limit
    draw = int(math.log(u) / math.log(1.0 - p)) + 1
    return min(draw, limit)


#: Per-byte expansion table: byte value -> 8 bytes of its bits (LSB first).
_BIT_TABLE = [bytes((b >> j) & 1 for j in range(8)) for b in range(256)]


def bytes_from_bitmask(mask: int, n: int) -> bytes:
    """Expand an int bitmask into ``n`` bytes of 0/1 (bit i -> byte i)."""
    if n == 0:
        return b""
    raw = mask.to_bytes((n + 7) // 8, "little")
    return b"".join(_BIT_TABLE[b] for b in raw)[:n]


def bitmask_from_bytes(seq: bytes) -> int:
    """Inverse of :func:`bytes_from_bitmask` for 0/1 byte sequences."""
    mask = 0
    for i, b in enumerate(seq):
        if b:
            mask |= 1 << i
    return mask


def iter_set_bits(mask: int):
    """Yield the positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
