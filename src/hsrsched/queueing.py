"""Deadline-bucket queues, drop accounting and deficit counters.

Packets of one service sit in buckets indexed by frames-to-go r = 1..m.  A
frame proceeds admit -> schedule -> serve_and_age -> deficit update; unserved
r=1 packets expire when the queue ages.  Buckets hold plain counts: packets of
a cohort are interchangeable, so identity is never tracked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class ContractViolation(RuntimeError):
    """An operation was fed state that breaks its contract."""


class DeadlineQueue:
    """Per-service queue with one bucket per remaining-lifetime value."""

    def __init__(self, service_id: int, deadline: int):
        if deadline < 1:
            raise ValueError("deadline must be at least 1")
        self.service_id = service_id
        self.deadline = deadline
        # buckets[i] holds packets with r = i + 1 frames to go
        self.buckets = [0] * deadline

    def admit(self, arrivals: int) -> None:
        """Place one frame's arrivals in the top bucket (r = deadline)."""
        if arrivals < 0:
            raise ValueError("arrivals must be non-negative")
        if self.buckets[-1] != 0:
            raise ContractViolation(
                f"service {self.service_id}: top bucket not cleared before admit"
            )
        self.buckets[-1] = arrivals

    def serve_and_age(self, served: Sequence[int]) -> int:
        """Remove served packets, expire the rest of bucket r=1, shift down.

        ``served[i]`` is the count taken from bucket r = i + 1.  Returns the
        number of dropped (expired) packets.  Total is conserved:
        old total == served + dropped + new total.
        """
        if len(served) != self.deadline:
            raise ContractViolation("served vector length != deadline")
        for i, x in enumerate(served):
            if x < 0 or x > self.buckets[i]:
                raise ContractViolation(
                    f"service {self.service_id}: served {x} from bucket r={i + 1} "
                    f"holding {self.buckets[i]}"
                )
        dropped = self.buckets[0] - served[0]
        for i in range(self.deadline - 1):
            self.buckets[i] = self.buckets[i + 1] - served[i + 1]
        self.buckets[-1] = 0
        return dropped

    def backlog(self) -> int:
        return sum(self.buckets)


@dataclass
class DeficitQueue:
    """Excess-drop counter for one service, starting at zero.

    Kept exactly as one integer, ``num`` = deficit * q for the loss allowance
    p/q, so verification of the counter algebra is free of round-off even
    after millions of frames.  A frame with ``d`` drops maps it to
    ``max(num - p, 0) + d * q``.
    """

    service_id: int
    loss_allowance: Fraction
    num: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.loss_allowance, (int, Fraction)):
            raise TypeError("loss_allowance must be an int or a Fraction")
        if self.loss_allowance < 0:
            raise ValueError("loss_allowance must be non-negative")
        self._p, self._q = self.loss_allowance.as_integer_ratio()

    def update(self, dropped: int) -> None:
        if dropped < 0:
            raise ValueError("dropped must be non-negative")
        num = self.num - self._p
        self.num = (num if num > 0 else 0) + dropped * self._q
