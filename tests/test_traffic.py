import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hsrsched import (
    ArrivalGenerator,
    ServiceSpec,
    build_capacity_profile,
    feasibility_check,
    truncated_poisson_pmf,
)


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
    pmf = truncated_poisson_pmf(1.0, tail_eps=1e-6)
    # support 0..9
    assert len(pmf) == 10
    assert len(pmf) - 1 == _poisson_tail_bound(1.0, 1e-6)
    assert pmf[-1] > 0.0


@pytest.mark.parametrize("rate", [1.0, 5.0, 20.0])
def test_pmf_mean_close_to_rate(rate):
    pmf = truncated_poisson_pmf(rate, tail_eps=1e-9)
    mean = float(np.arange(len(pmf)) @ pmf)
    assert abs(mean - rate) < 1e-3


def test_near_zero_rate_concentrates_at_zero():
    pmf = truncated_poisson_pmf(1e-9, tail_eps=1e-6)
    assert len(pmf) == 1
    assert pmf[0] == 1.0


def test_large_rate_does_not_underflow():
    # exp(-rate) alone is below float range here
    pmf = truncated_poisson_pmf(1000.0)
    assert len(pmf) - 1 > 1000
    assert abs(pmf.sum() - 1.0) <= 1e-12
    assert abs(float(np.arange(len(pmf)) @ pmf) - 1000.0) < 1e-2
    with pytest.raises(ValueError):
        truncated_poisson_pmf(1000.0, tail_eps=1e-320)


def test_pmf_argument_validation():
    with pytest.raises(ValueError):
        truncated_poisson_pmf(0.0)
    with pytest.raises(ValueError):
        truncated_poisson_pmf(1.0, tail_eps=0.0)
    with pytest.raises(ValueError):
        truncated_poisson_pmf(1.0, tail_eps=1.0)


def test_service_spec_validation():
    with pytest.raises(ValueError):
        ServiceSpec(arrival_rate=0.0, deadline=5, delivery_ratio=0.9)
    with pytest.raises(ValueError):
        ServiceSpec(arrival_rate=10.0, deadline=0, delivery_ratio=0.9)
    with pytest.raises(ValueError):
        ServiceSpec(arrival_rate=10.0, deadline=5, delivery_ratio=1.0)
    with pytest.raises(ValueError):
        ServiceSpec(arrival_rate=10.0, deadline=5, delivery_ratio=0.0)


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


def test_feasibility_single_service_slack():
    spec = ServiceSpec(arrival_rate=1.0, deadline=2, delivery_ratio=0.5)
    report = feasibility_check([spec], (1,) * 10)
    assert report.feasible
    assert report.margin == pytest.approx(0.5)


def test_feasibility_boundary_is_feasible():
    # requirement exactly equals mean capacity: non-strict inequality
    spec = ServiceSpec(arrival_rate=2.0, deadline=2, delivery_ratio=0.5)
    report = feasibility_check([spec], (1,) * 5)
    assert report.required_rate == pytest.approx(1.0)
    assert report.feasible
    assert report.margin == pytest.approx(0.0)


def test_feasibility_default_mix_is_infeasible(table1_traj, table1_radio, two_services):
    report = feasibility_check(two_services, build_capacity_profile(table1_traj, table1_radio))
    assert report.required_rate == pytest.approx(153.0)
    assert report.mean_capacity == pytest.approx(119.79836666666667, rel=1e-12)
    assert not report.feasible
    assert report.margin == pytest.approx(119.79836666666667 - 153.0, rel=1e-12)


def test_feasibility_rejects_empty_profile(two_services):
    with pytest.raises(ValueError):
        feasibility_check(two_services, ())
