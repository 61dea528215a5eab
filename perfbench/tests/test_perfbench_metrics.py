import pytest

import metrics


@pytest.mark.parametrize(
    "n, rank",
    [
        (1, 1),
        (5, 3),       # fewer than 21 samples: the upper median
        (19, 10),
        (20, 11),
        (21, 11),     # the median has exactly ten samples beyond it
        (40, 30),
        (100, 90),
        (1000, 990),
    ],
)
def test_tail_rank(n, rank):
    assert metrics.tail_rank(n) == rank


@pytest.mark.parametrize("n", range(21, 400, 17))
def test_the_tail_has_ten_beyond_and_no_higher_sample_does(n):
    rank = metrics.tail_rank(n)
    assert n - rank == 10
    assert rank >= (n + 1) / 2


@pytest.mark.parametrize("n", range(1, 21))
def test_short_series_fall_back_to_the_upper_median(n):
    samples = [float(i) for i in range(n)]
    out = metrics.timing(samples)
    assert out["tail"] >= out["p50"]
    assert out["tail_beyond"] == n - metrics.tail_rank(n) < 10


def test_timing_reports_the_tail_and_its_sample_counts():
    samples = [float(i) for i in range(100, 0, -1)]
    out = metrics.timing(samples)
    assert out["p50"] == 50.5
    assert out["tail"] == 90.0
    assert out["tail_percentile"] == 90.0
    assert out["tail_beyond"] == 10
    assert out["samples"] == 100


def test_nearest_rank_matches_the_cdf_rule():
    values = [0.3, 0.1, 0.2, 0.4]
    assert metrics.nearest_rank(values, 0.5) == 0.2
    assert metrics.nearest_rank(values, 0.95) == 0.4
    assert metrics.nearest_rank(values, 0.25) == 0.1


def test_accuracy_metrics():
    records = [
        {"global_rmse": 0.1, "clusters": {"a": 0.2, "b": "uncalibrated"},
         "beacon_errors": [0.1, 0.3]},
        {"global_rmse": 0.9, "clusters": {"a": 0.4, "b": 0.6},
         "beacon_errors": [0.4, 0.4, 0.5, 0.7]},
    ]
    out = metrics.accuracy(records, clusters_per_run=2)
    assert out["global_rmse_p50_m"] == pytest.approx(0.5)
    assert out["global_rmse_p90_m"] == 0.9
    assert out["nondiverged_frac"] == 0.5
    assert out["worst_cluster_mean_m"] == pytest.approx(0.6)
    assert out["beacon_err_p95_m"] == 0.7
    assert out["calibrated_frac"] == 0.75
