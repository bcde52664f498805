"""Acceptable-delay scoring and mean/std aggregation."""

import numpy as np
import pytest

from driftbench import DriftScore, aggregate, score_run


def oracle_score(alarms, drifts, accept_delay):
    """Region-membership oracle: set arithmetic instead of the scan."""
    tp = 0
    delays = []
    claimed = set()
    for d in drifts:
        region = [a for a in alarms if d < a <= d + accept_delay]
        claimed.update(region)
        if region:
            tp += 1
            delays.append(min(region) - d)
        else:
            delays.append(accept_delay)
    fp = len([a for a in alarms if a not in claimed])
    return delays, tp, fp, len(drifts) - tp


class TestScoreRun:
    def test_alarm_inside_region(self):
        score = score_run([20_100], [20_000], 250, 100_000)
        assert (score.tp, score.fp, score.fn) == (1, 0, 0)
        assert score.delays == (100,)

    def test_late_alarm_is_miss_and_false_alarm(self):
        score = score_run([20_300], [20_000], 250, 100_000)
        assert (score.tp, score.fp, score.fn) == (0, 1, 1)
        assert score.delays == (250,)

    def test_only_first_alarm_in_region_counts(self):
        score = score_run([20_050, 20_110], [20_000], 250, 100_000)
        assert (score.tp, score.fp, score.fn) == (1, 0, 0)
        assert score.delays == (50,)

    def test_alarm_at_drift_position_is_outside_region(self):
        score = score_run([20_000], [20_000], 250, 100_000)
        assert (score.tp, score.fp, score.fn) == (0, 1, 1)

    def test_no_alarms(self):
        score = score_run([], [10, 20_000], 100, 100_000)
        assert (score.tp, score.fp, score.fn) == (0, 0, 2)
        assert score.delays == (100, 100)
        assert score.mean_delay == 100

    def test_alarm_outside_all_regions_only_adds_fp(self):
        base = score_run([5_100], [5_000], 250, 100_000)
        extra = score_run([2_000, 5_100], [5_000], 250, 100_000)
        assert extra.tp == base.tp and extra.fn == base.fn
        assert extra.fp == base.fp + 1
        assert extra.delays == base.delays

    def test_tp_plus_fn_is_drift_count(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            drifts = sorted(rng.choice(50_000, size=rng.integers(1, 6),
                                       replace=False).tolist())
            alarms = sorted(rng.choice(60_000, size=rng.integers(0, 21),
                                       replace=False).tolist())
            score = score_run(alarms, drifts, 250, 100_000)
            assert score.tp + score.fn == len(drifts)

    def test_matches_region_membership_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            n_drifts = int(rng.integers(0, 6))
            drifts = sorted(rng.choice(5_000, size=n_drifts, replace=False)
                            .tolist()) if n_drifts else []
            # Keep regions disjoint, as the scoring contract requires.
            drifts = [d for i, d in enumerate(drifts)
                      if i == 0 or d - drifts[i - 1] > 300]
            n_alarms = int(rng.integers(0, 21))
            alarms = sorted(rng.choice(6_000, size=n_alarms, replace=False)
                            .tolist()) if n_alarms else []
            score = score_run(alarms, drifts, 300, 10_000)
            delays, tp, fp, fn = oracle_score(alarms, drifts, 300)
            assert score.delays == tuple(delays)
            assert (score.tp, score.fp, score.fn) == (tp, fp, fn)

    def test_unsorted_inputs_rejected(self):
        with pytest.raises(ValueError):
            score_run([30, 20], [10], 5, 100)
        with pytest.raises(ValueError):
            score_run([5], [20, 10], 5, 100)
        with pytest.raises(ValueError):
            score_run([5], [10], 0, 100)


class TestAggregate:
    def test_single_run_has_zero_std(self):
        row = aggregate([DriftScore((100,), 1, 0, 0, 0.9)])
        assert row.delay_std == 0.0
        assert row.tp_std == row.fp_std == row.fn_std == row.accuracy_std == 0.0
        assert row.runs == 1

    def test_two_runs_sample_std(self):
        scores = [DriftScore((100,), 1, 0, 0, 0.9),
                  DriftScore((200,), 1, 0, 0, 0.9)]
        row = aggregate(scores)
        assert row.delay_mean == pytest.approx(150.0)
        assert row.delay_std == pytest.approx(70.71067811865476, rel=1e-10)

    def test_identical_runs_exactly_zero_std(self):
        scores = [DriftScore((40, 60), 2, 1, 0, 0.85)] * 7
        row = aggregate(scores)
        assert row.delay_std == 0.0
        assert row.delay_mean == 50.0
        assert row.fp_mean == 1.0

    def test_per_run_delay_is_mean_of_per_drift_delays(self):
        score = DriftScore((10, 20, 250), 2, 0, 1, 0.8)
        assert score.mean_delay == pytest.approx((10 + 20 + 250) / 3)

    def test_alarm_counts_passthrough(self):
        row = aggregate([DriftScore((10,), 1, 2, 0, 0.5)], stream="s",
                        detector="d", alarm_counts=[9])
        assert row.alarms_mean == 9.0
        assert row.stream == "s" and row.detector == "d"

    def test_default_alarm_count_includes_ignored_alarms(self):
        # 1020 and 1030 fall inside the drift's region after its first alarm.
        row = aggregate([score_run([1010, 1020, 1030, 5000], [1000], 250, 10000)])
        assert (row.tp_mean, row.fp_mean, row.alarms_mean) == (1.0, 1.0, 4.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
