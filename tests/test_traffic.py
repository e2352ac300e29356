import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LinkSim
from hsrsched import (
    ArrivalGenerator,
    ServiceSpec,
    build_capacity_profile,
    run,
    traffic,
    truncated_poisson_pmf,
)
from hsrsched.engine import INT64_MAX


def _poisson_tail_bound(rate, eps):
    # smallest a with upper-tail mass beyond a below eps, summed directly
    term = math.exp(-rate)
    cdf = term
    a = 0
    while 1.0 - cdf >= eps:
        a += 1
        term *= rate / a
        cdf += term
    return a


@pytest.mark.parametrize("rate", [0.3, 1.0, 5.0, 20.0, 100.0])
def test_pmf_sums_to_one(rate):
    pmf = truncated_poisson_pmf(rate)
    assert abs(pmf.sum() - 1.0) <= 1e-12


def test_truncation_bound_rate_one():
    pmf = truncated_poisson_pmf(1.0)
    # support 0..9
    assert len(pmf) == 10
    assert len(pmf) - 1 == _poisson_tail_bound(1.0, 1e-6)
    assert pmf[-1] > 0.0


@pytest.mark.parametrize("rate", [1.0, 5.0, 20.0])
def test_pmf_mean_close_to_rate(rate):
    # the tail cut at 1e-6 moves the mean by less than 1e-4
    pmf = truncated_poisson_pmf(rate)
    mean = float(np.arange(len(pmf)) @ pmf)
    assert abs(mean - rate) < 1e-4


def test_near_zero_rate_concentrates_at_zero():
    pmf = truncated_poisson_pmf(1e-9)
    assert len(pmf) == 1
    assert pmf[0] == 1.0


def test_large_rate_does_not_underflow(monkeypatch):
    # exp(-rate) alone is below float range here
    pmf = truncated_poisson_pmf(1000.0)
    assert len(pmf) - 1 > 1000
    assert abs(pmf.sum() - 1.0) <= 1e-12
    assert abs(float(np.arange(len(pmf)) @ pmf) - 1000.0) < 1e-2
    # the sum stalling short of 1 - TAIL_EPS raises instead of looping: at
    # TAIL_EPS it takes a rate near 1e9, so the tail is cut below float
    # resolution here instead
    monkeypatch.setattr(traffic, "TAIL_EPS", 1e-320)
    with pytest.raises(ValueError, match="rate beyond float resolution"):
        truncated_poisson_pmf(1000.0)


def test_pmf_argument_validation():
    with pytest.raises(ValueError):
        truncated_poisson_pmf(0.0)
    with pytest.raises(ValueError):
        truncated_poisson_pmf(-1.0)
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            truncated_poisson_pmf(rate)


def test_service_spec_validation():
    with pytest.raises(ValueError):
        ServiceSpec(arrival_rate=0.0, deadline=5, delivery_ratio=0.9)
    with pytest.raises(ValueError):
        ServiceSpec(arrival_rate=10.0, deadline=0, delivery_ratio=0.9)
    with pytest.raises(ValueError):
        ServiceSpec(arrival_rate=10.0, deadline=5, delivery_ratio=1.0)
    with pytest.raises(ValueError):
        ServiceSpec(arrival_rate=10.0, deadline=5, delivery_ratio=0.0)


def test_building_a_service_walks_no_pmf(monkeypatch):
    def walk(rate):
        raise AssertionError(f"walked the pmf of rate {rate}")

    monkeypatch.setattr(traffic, "truncated_poisson_pmf", walk)
    # 1e9's walk would take about a billion steps; 1e-7 is the tiny-rate error
    for rate in (130.0, 1e9):
        ServiceSpec(arrival_rate=rate, deadline=5, delivery_ratio=0.9)
    with pytest.raises(ValueError, match="burst bound below mean arrival rate"):
        ServiceSpec(arrival_rate=1e-7, deadline=5, delivery_ratio=0.9)
    # the pmf is walked when it is first read
    spec = ServiceSpec(arrival_rate=130.0, deadline=5, delivery_ratio=0.9)
    with pytest.raises(AssertionError, match="rate 130.0"):
        spec.max_arrivals


# the rate where 1 - exp(-rate) crosses TAIL_EPS
_TINY_RATE_EDGE = -math.log1p(-1e-6)


@settings(max_examples=300, deadline=None)
@given(
    rate=st.one_of(
        st.floats(math.log(1e-9), math.log(1e4)).map(math.exp),
        st.floats(_TINY_RATE_EDGE * (1 - 1e-9), _TINY_RATE_EDGE * (1 + 1e-9)),
    )
)
def test_tiny_rate_check_agrees_with_the_walk(rate):
    if len(truncated_poisson_pmf(rate)) - 1 < math.ceil(rate):
        with pytest.raises(ValueError, match="burst bound below mean arrival rate"):
            ServiceSpec(arrival_rate=rate, deadline=1, delivery_ratio=0.9)
    else:
        ServiceSpec(arrival_rate=rate, deadline=1, delivery_ratio=0.9)


def test_spec_derived_quantities():
    spec = ServiceSpec(arrival_rate=60.0, deadline=10, delivery_ratio=0.90)
    assert spec.loss_allowance == 6
    assert spec.max_arrivals >= math.ceil(spec.arrival_rate)
    assert len(spec.pmf) == spec.max_arrivals + 1


# every (lambda, delivery_ratio) pair of the shipped configs, with the float
# product each allowance used to carry
@pytest.mark.parametrize(
    "rate, ratio, allowance",
    [
        (100.0, 0.99, 1),  # 1.0000000000000009
        (60.0, 0.9, 6),  # 5.999999999999998
        (20.0, 0.95, 1),  # 1.0000000000000009
        (40.0, 0.9, 4),  # 3.999999999999999
        (50.0, 0.8, 10),  # 9.999999999999998
        (90.0, 0.9, 9),  # 8.999999999999998
        (130.0, 0.9, 13),  # 12.999999999999996
    ],
)
def test_shipped_loss_allowances_are_exact(rate, ratio, allowance):
    spec = ServiceSpec(arrival_rate=rate, deadline=5, delivery_ratio=ratio)
    assert spec.loss_allowance == allowance
    assert isinstance(spec.loss_allowance, Fraction)


def test_sampling_bounded_by_burst_limit(two_services):
    gen = ArrivalGenerator(two_services, seed=3)
    arr = gen.sample_run(20000)
    for j, spec in enumerate(two_services):
        assert arr[:, j].max() <= spec.max_arrivals
        assert arr[:, j].min() >= 0


def test_sampling_deterministic(two_services):
    a = ArrivalGenerator(two_services, seed=42).sample_run(5000)
    b = ArrivalGenerator(two_services, seed=42).sample_run(5000)
    assert np.array_equal(a, b)
    c = ArrivalGenerator(two_services, seed=43).sample_run(5000)
    assert not np.array_equal(a, c)


def test_per_frame_and_bulk_sampling_agree(two_services):
    # reference drawn straight from PCG64: per frame one uniform per service,
    # in id order, mapped to the number of cdf values at or below it, the
    # last value left out so a draw never passes the burst bound
    bulk = ArrivalGenerator(two_services, seed=11).sample_run(500)
    rng = np.random.Generator(np.random.PCG64(11))
    cdfs = [np.cumsum(s.pmf)[:-1] for s in two_services]
    for k in range(500):
        u = rng.random(len(two_services))
        assert tuple(bulk[k]) == tuple(int((cdf <= x).sum()) for cdf, x in zip(cdfs, u))


def test_draw_above_the_last_cdf_value_stays_on_the_support():
    # at rate 130 the summed pmf rounds to 1 - 4.4e-16, below the largest draw
    spec = ServiceSpec(arrival_rate=130.0, deadline=1, delivery_ratio=0.9)
    top = np.nextafter(1.0, 0.0)
    assert np.cumsum(spec.pmf)[-1] < top
    gen = ArrivalGenerator((spec,), seed=0)
    gen._rng = SimpleNamespace(random=lambda shape: np.full(shape, top))
    assert gen.sample_run(3).tolist() == [[spec.max_arrivals]] * 3


def test_empirical_mean_within_three_standard_errors():
    spec = ServiceSpec(arrival_rate=5.0, deadline=3, delivery_ratio=0.9)
    n = 100_000
    arr = ArrivalGenerator([spec], seed=1234).sample_run(n)
    se = math.sqrt(spec.arrival_rate / n)
    assert abs(arr.mean() - spec.arrival_rate) < 3 * se


def _feasibility(trace):
    """The four feasibility lines of ``trace``'s ``summary.txt``, by key."""
    lines = trace.summary_text().splitlines()
    assert [line.split(" = ")[0] for line in lines[3:7]] == [
        "feasible",
        "feasibility_margin",
        "mean_capacity",
        "required_rate",
    ]
    return dict(line.split(" = ") for line in lines[3:7])


def test_feasibility_single_service_slack(table1_traj, table1_radio):
    spec = ServiceSpec(arrival_rate=1.0, deadline=2, delivery_ratio=0.5)
    trace = run(LinkSim(table1_traj, table1_radio, (spec,), seed=5, num_frames=10, profile=(1,) * 10))
    assert _feasibility(trace) == {
        "feasible": "True",
        "feasibility_margin": "0.5",
        "mean_capacity": "1",
        "required_rate": "0.5",
    }


def test_feasibility_boundary_is_feasible(table1_traj, table1_radio):
    # requirement exactly equals mean capacity: non-strict inequality
    spec = ServiceSpec(arrival_rate=2.0, deadline=2, delivery_ratio=0.5)
    trace = run(LinkSim(table1_traj, table1_radio, (spec,), seed=5, num_frames=5, profile=(1,) * 5))
    assert _feasibility(trace) == {
        "feasible": "True",
        "feasibility_margin": "0",
        "mean_capacity": "1",
        "required_rate": "1",
    }


def test_feasibility_default_mix_is_infeasible(table1_traj, table1_radio, two_services, table1_trace):
    # 100 * 0.99 + 60 * 0.9 = 153 packets a frame, one more than the link holds
    trace = run(LinkSim(table1_traj, table1_radio, two_services, seed=5, num_frames=20, profile=(152,) * 20))
    assert _feasibility(trace) == {
        "feasible": "False",
        "feasibility_margin": "-1",
        "mean_capacity": "152",
        "required_rate": "153",
    }
    # over the shipped link's whole trip the mean is the profile's
    caps = build_capacity_profile(table1_traj, table1_radio)
    mean = sum(caps) / len(caps)
    assert mean == pytest.approx(119.79836666666667, rel=1e-12)
    assert _feasibility(table1_trace) == {
        "feasible": "False",
        "feasibility_margin": f"{mean - 153.0:.9g}",
        "mean_capacity": f"{mean:.9g}",
        "required_rate": "153",
    }


def test_feasibility_mean_capacity_is_exact_at_the_int64_limit(table1_traj, table1_radio, two_services):
    # three frames of 2**63 - 1 sum past int64; a wrapped sum would read 2**63 - 3
    trace = run(LinkSim(table1_traj, table1_radio, two_services, seed=5, num_frames=3, profile=(INT64_MAX,) * 3))
    assert _feasibility(trace)["mean_capacity"] == f"{INT64_MAX:.9g}" == "9.22337204e+18"
