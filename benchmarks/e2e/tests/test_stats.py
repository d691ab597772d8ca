import statistics

import pytest

import stats


def test_quartiles_match_the_acceptance_drivers_definition():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


@pytest.mark.parametrize(
    "count, percentile, supported",
    [(200, 95, True), (199, 95, False), (100, 90, True), (99, 90, False),
     (40, 75, True), (39, 75, False)],
)
def test_a_percentile_needs_ten_samples_beyond_it(count, percentile, supported):
    assert stats.percentile_supported(count, percentile) is supported


def test_tail_is_the_named_percentile_or_an_error():
    samples = list(range(1, 201))
    assert stats.tail(samples, 95) == 190.0
    assert stats.tail(samples[:100], 90) == 90.0
    with pytest.raises(ValueError, match="p95 needs 200 samples, got 199"):
        stats.tail(samples[:199], 95)
    assert (stats.samples_needed(95), stats.samples_needed(90)) == (200, 100)


def test_percentile_is_nearest_rank_so_it_is_an_observed_value():
    samples = [10.0, 20.0, 30.0, 1000.0]
    assert stats.percentile(samples, 50) == 20.0
    assert stats.percentile(samples, 75) == 30.0
    assert stats.percentile(samples, 99) == 1000.0
