"""Scoring detector alarms against scheduled drifts.

A drift scheduled at position d owns the acceptable region
(d, d + accept_delay].  The first alarm inside the region is the
drift's true positive and its delay; later alarms in the same region
are ignored.  A drift with no alarm in its region is a false negative
and contributes the full acceptable delay to the delay statistic, which
keeps that statistic bounded.  Every alarm outside all regions is a
false positive, so an alarm that arrives late counts against both
tallies.  Aggregation over runs reports mean and sample (n-1) standard
deviation, with a single run reported as deviation 0.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class DriftScore:
    """Per-run evaluation against the ground-truth drift schedule;
    ``alarms`` is the run's alarm count, None in a score built without it."""

    delays: tuple[int, ...]
    tp: int
    fp: int
    fn: int
    accuracy: float = 0.0
    alarms: Optional[int] = None

    @property
    def mean_delay(self) -> float:
        return sum(self.delays) / len(self.delays) if self.delays else 0.0


@dataclass(frozen=True)
class AggregateRow:
    """Mean and std of the run metrics for one (stream, detector) cell.

    The delay/tp/fp/fn fields are None for streams without ground-truth
    drift positions, where only alarms and accuracy are meaningful.
    """

    stream: str
    detector: str
    runs: int
    delay_mean: Optional[float]
    delay_std: Optional[float]
    tp_mean: Optional[float]
    tp_std: Optional[float]
    fp_mean: Optional[float]
    fp_std: Optional[float]
    fn_mean: Optional[float]
    fn_std: Optional[float]
    accuracy_mean: float
    accuracy_std: float
    alarms_mean: float
    alarms_std: float


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def score_run(alarms: Sequence[int], drifts: Sequence[int], accept_delay: int,
              stream_length: int, accuracy: float = 0.0) -> DriftScore:
    """Score one run's alarm positions against the drift schedule."""
    if accept_delay < 1:
        raise ValueError(f"accept_delay must be >= 1, got {accept_delay}")
    alarms = list(alarms)
    drifts = list(drifts)
    if any(b <= a for a, b in zip(alarms, alarms[1:])):
        raise ValueError("alarm positions must be strictly increasing")
    if any(b <= a for a, b in zip(drifts, drifts[1:])):
        raise ValueError("drift positions must be strictly increasing")
    delays, claimed, tp = [], set(), 0   # claimed: indices of alarms inside a region
    for drift in drifts:
        first, end = bisect_right(alarms, drift), bisect_right(alarms, drift + accept_delay)
        claimed.update(range(first, end))
        tp += end > first
        delays.append(alarms[first] - drift if end > first else accept_delay)
    return DriftScore(tuple(delays), tp, len(alarms) - len(claimed), len(drifts) - tp,
                      accuracy, len(alarms))


def aggregate(scores: Sequence[DriftScore], stream: str = "",
              detector: str = "", alarm_counts: Optional[Sequence[int]] = None) -> AggregateRow:
    """Aggregate per-run scores into a mean +/- std row.  The alarm counts
    default to each score's ``alarms``, or tp + fp where that is None."""
    if not scores:
        raise ValueError("aggregate needs at least one score")
    delay = _mean_std([s.mean_delay for s in scores])
    tp = _mean_std([s.tp for s in scores])
    fp = _mean_std([s.fp for s in scores])
    fn = _mean_std([s.fn for s in scores])
    acc = _mean_std([s.accuracy for s in scores])
    if alarm_counts is None:
        alarm_counts = [s.tp + s.fp if s.alarms is None else s.alarms for s in scores]
    alarms = _mean_std(alarm_counts)
    return AggregateRow(stream, detector, len(scores),
                        delay[0], delay[1], tp[0], tp[1], fp[0], fp[1],
                        fn[0], fn[1], acc[0], acc[1], alarms[0], alarms[1])


def unscored_row(stream: str, detector: str, accuracies: Sequence[float],
                 alarm_counts: Sequence[int]) -> AggregateRow:
    """Aggregate row for streams without known drift positions."""
    if not accuracies:
        raise ValueError("unscored_row needs at least one run")
    acc = _mean_std(accuracies)
    alarms = _mean_std(alarm_counts)
    return AggregateRow(stream, detector, len(accuracies),
                        None, None, None, None, None, None, None, None,
                        acc[0], acc[1], alarms[0], alarms[1])
