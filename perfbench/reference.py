"""A fixed reference computation, sampled while the program's commands run.

This machine shares its cores, and its speed drifts by a fifth or more within
a second while the CPU time of a command stays equal to its wall time.  So a
worker measures the speed of the moment beside every command: ``Sampler``
runs a small fixed piece of work from a SIGALRM handler every few
milliseconds of the command, and ``wall_norm`` divides the command's own time
(its wall time less the samples) by the mean time of one sample.  A drift
that slows both cancels; a change to the program does not.

The set-up time of a fresh worker is scaled the same way, by the samples
taken right after it, to the speed at which one sample takes ``SAMPLE_S``.

The reference imports nothing from ``hsrsched`` and never changes with it.
Its mix follows the program's frame loop: Python loops over small dicts and
lists, integer arithmetic, numpy scalar reads and writes, and number
formatting.
"""

import signal
import time

import numpy as np

FRAMES = 48  # frames of the loop below per sample, about 1.5 ms
SERVICES = 3
DEPTH = 10
INTERVAL_S = 0.025  # between samples while a command runs
LEAD_SAMPLES = 8  # taken right before each command
SETUP_SAMPLES = 32  # taken right after a worker's set-up
# the time of one sample on the machine the reference figures come from
# (README.md); set-up time is scaled to that speed
SAMPLE_S = 0.0013

_rng = np.random.default_rng(12345)
_ARRIVALS = _rng.poisson(40.0, size=(FRAMES, SERVICES))
_CAPACITY = _rng.integers(60, 140, size=FRAMES)


def _frame_loop() -> int:
    served = np.zeros((FRAMES, SERVICES), dtype=np.int64)
    deficit = np.zeros((FRAMES, SERVICES), dtype=float)
    queues = {s: [0] * DEPTH for s in range(SERVICES)}
    debt = {s: 0.0 for s in range(SERVICES)}
    lines = []
    for k in range(FRAMES):
        room = int(_CAPACITY[k])
        for s in range(SERVICES):
            queues[s][-1] += int(_ARRIVALS[k, s])
        for s in sorted(queues, key=lambda s: -debt[s]):
            buckets = queues[s]
            got = 0
            for i, b in enumerate(buckets):
                take = min(b, room)
                buckets[i] -= take
                room -= take
                got += take
            dropped = buckets.pop(0)
            buckets.append(0)
            debt[s] = max(debt[s] - 4.0, 0.0) + dropped
            served[k, s] = got
            deficit[k, s] = debt[s]
        lines.append(",".join(f"{v:.6g}" for v in deficit[k]))
    return int(served.sum()) + len("".join(lines))


class Sampler:
    """Times one run of the reference loop now and then while a command runs.

    ``with sampler:`` around a command; afterwards ``samples`` holds the
    durations of the samples taken right before and during it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        _frame_loop()  # warm-up

    def _sample(self, *_args) -> None:
        start = time.perf_counter()
        _frame_loop()
        self.samples.append(time.perf_counter() - start)

    def take(self, n: int) -> float:
        """Take ``n`` samples now, in place of any before; their mean time."""
        self.samples = []
        for _ in range(n):
            self._sample()
        return self.mean_s()

    def __enter__(self) -> "Sampler":
        self.take(LEAD_SAMPLES)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def in_command_s(self) -> float:
        """Time the samples took inside the command (all but the lead ones)."""
        return sum(self.samples[LEAD_SAMPLES:])

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)
