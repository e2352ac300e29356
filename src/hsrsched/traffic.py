"""Traffic model: per-service truncated-Poisson arrivals and the service mix check.

Arrivals are i.i.d. across frames.  Each service draws from a Poisson
distribution truncated at the smallest burst bound whose tail mass falls below
``tail_eps`` and renormalized, so per-frame arrivals are bounded by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

DEFAULT_TAIL_EPS = 1e-6


def truncated_poisson_pmf(rate: float, tail_eps: float = DEFAULT_TAIL_EPS) -> np.ndarray:
    """Truncated, renormalized Poisson pmf.

    Its support is {0..a}, where ``a`` is the smallest integer whose Poisson
    upper-tail mass beyond it is below ``tail_eps``, and it sums to 1.
    """
    if rate <= 0:
        raise ValueError("rate must be strictly positive")
    if not 0 < tail_eps < 1:
        raise ValueError("tail_eps must be in (0, 1)")
    log_rate = math.log(rate)

    def term(i: int) -> float:
        # evaluated in log space so large rates cannot underflow near the mode
        return math.exp(i * log_rate - rate - math.lgamma(i + 1))

    terms = [term(0)]
    cdf = terms[0]
    i = 0
    # tail mass beyond i is 1 - cdf; stop at the first i where it drops below eps
    while 1.0 - cdf >= tail_eps:
        i += 1
        t = term(i)
        terms.append(t)
        cdf += t
        if t == 0.0 and i > rate:
            raise ValueError("tail_eps below float resolution for this rate")
    pmf = np.array(terms, dtype=float)
    pmf /= pmf.sum()
    return pmf


@dataclass(frozen=True)
class ServiceSpec:
    """Traffic and QoS parameters of one service.

    arrival_rate: mean packets per frame (Poisson rate)
    deadline: packet lifetime in frames; unserved packets drop after it
    delivery_ratio: required long-run delivered fraction, in (0, 1)
    tail_eps: tail mass threshold for the arrival burst bound
    """

    arrival_rate: float
    deadline: int
    delivery_ratio: float
    tail_eps: float = DEFAULT_TAIL_EPS

    def __post_init__(self) -> None:
        if not 0 < self.arrival_rate < math.inf:
            raise ValueError("arrival_rate must be strictly positive and finite")
        if self.deadline < 1:
            raise ValueError("deadline must be at least one frame")
        if not 0.0 < self.delivery_ratio < 1.0:
            raise ValueError("delivery_ratio must be in (0, 1)")
        if not 0 < self.tail_eps < 1:
            raise ValueError("tail_eps must be in (0, 1)")
        if self.max_arrivals < math.ceil(self.arrival_rate):
            raise ValueError("burst bound below mean arrival rate; decrease tail_eps")

    @cached_property
    def loss_allowance(self) -> Fraction:
        """Allowed drops per frame, (1 - delivery_ratio) * arrival_rate, exact
        from the decimal values as written (their shortest float repr), so
        ratio 0.99 at rate 100 allows exactly 1, not 1.0000000000000009."""
        ratio, rate = (Fraction(repr(float(x))) for x in (self.delivery_ratio, self.arrival_rate))
        return (1 - ratio) * rate

    @cached_property
    def pmf(self) -> np.ndarray:
        return truncated_poisson_pmf(self.arrival_rate, self.tail_eps)

    @cached_property
    def max_arrivals(self) -> int:
        """Largest possible per-frame arrival count."""
        return len(self.pmf) - 1


class ArrivalGenerator:
    """Seeded arrival stream for a fixed list of services.

    Uses numpy's PCG64 generator (stable, versioned stream for a given seed).
    Draw order is frame-major, service-minor: one uniform per service per
    frame, services in list order, so equal seeds and equal spec lists
    reproduce the exact same stream.
    """

    def __init__(self, specs, seed: int):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        # the last cdf value is left out: it may round below 1, and a draw
        # above it must still land on the burst bound, not one past it
        self._cdfs = [np.cumsum(s.pmf)[:-1] for s in specs]

    def sample_run(self, num_frames: int) -> np.ndarray:
        """All arrivals of a run at once: one row per frame, services in list order."""
        u = self._rng.random((num_frames, len(self._cdfs)))
        out = np.empty((num_frames, len(self._cdfs)), dtype=np.int64)
        for j, cdf in enumerate(self._cdfs):
            out[:, j] = np.searchsorted(cdf, u[:, j], side="right")
        return out


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    margin: float
    mean_capacity: float
    required_rate: float


def feasibility_check(specs, capacities) -> FeasibilityReport:
    """Check the service mix against the mean of the per-frame ``capacities``.

    The mix is feasible when the summed rate-weighted delivery requirements do
    not exceed the mean per-frame capacity; the (signed) slack is returned
    either way.
    """
    if len(capacities) < 1:
        raise ValueError("capacity profile is empty")
    required = sum(s.arrival_rate * s.delivery_ratio for s in specs)
    mean_cap = sum(capacities) / len(capacities)
    margin = mean_cap - required
    return FeasibilityReport(
        feasible=required <= mean_cap,
        margin=margin,
        mean_capacity=mean_cap,
        required_rate=required,
    )
