"""Incremental Naive Bayes and the prequential test-then-train loop.

The classifier keeps sufficient statistics only (per-class counts,
per-class sums and squared sums for numeric attributes, per-class value
counts for nominal ones), so training is one pass in O(attributes) per
instance under constant memory.  Numeric likelihoods are Gaussian with
a variance floor; nominal likelihoods are Laplace-smoothed; ties in the
posterior break toward the lowest class code.

``prequential_run`` drives a stream through predict -> record bit ->
detector -> train.  Internally it works block-wise: within a stretch
where the model is not reset, the predictions of every class are
vectorised over ``(classes, block)`` arrays by seeding row-wise NumPy
cumulative sums with the model's current statistics, which reproduces
the per-instance arithmetic bit for bit (cumsum accumulates left to
right exactly like repeated ``+=``).  Nominal counts take one cumsum per
attribute over a one-hot of (value, class) pairs; blocks are shorter
than ``_BLOCK`` only where that one-hot would exceed ``_ONEHOT_CELLS``.
On a Drift verdict the adaptation policy decides whether the model
restarts.  A reset throws away the rest of its block, so the next block
is no longer than the stretch between the last two resets (at least
``_FIRST_BLOCK`` rows) and then doubles: alarm cascades waste little,
rare alarms keep full blocks, and the cost stays linear in the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .detectors.base import DriftDetector
from .errors import UsageError
from .streams import NOMINAL, NUMERIC, Stream, StreamSchema

VARIANCE_FLOOR = 1e-6
_TWO_PI = 2.0 * math.pi
_BLOCK = 4096
_FIRST_BLOCK = 64  # shortest block after a detector-driven reset
_ONEHOT_CELLS = 1 << 17  # a wider nominal one-hot shortens the blocks below _BLOCK


class NotTrainedError(RuntimeError):
    """Raised when predicting before any training instance was seen."""


class NaiveBayes:
    """Incremental Naive Bayes over a fixed attribute schema."""

    def __init__(self, schema: StreamSchema):
        self.schema = schema
        self.n_classes = schema.n_classes
        self._numeric = [j for j, k in enumerate(schema.kinds) if k == NUMERIC]
        self._nominal = [(j, schema.cardinalities[j])
                         for j, k in enumerate(schema.kinds) if k == NOMINAL]
        self.reset()

    def reset(self) -> None:
        """Discard all sufficient statistics (back to untrained)."""
        m = self.n_classes
        self.total = 0
        self.class_counts = np.zeros(m)
        self.num_sums = np.zeros((m, len(self._numeric)))
        self.num_sumsqs = np.zeros((m, len(self._numeric)))
        self.nom_counts = [np.zeros((m, card)) for _, card in self._nominal]

    @property
    def is_trained(self) -> bool:
        return self.total > 0

    def train(self, attributes, label: int) -> None:
        """Absorb one labelled instance."""
        if len(attributes) != len(self.schema.kinds):
            raise ValueError(
                f"expected {len(self.schema.kinds)} attributes, "
                f"got {len(attributes)}")
        if not 0 <= label < self.n_classes:
            raise ValueError(f"label {label} outside 0..{self.n_classes - 1}")
        self.total += 1
        self.class_counts[label] += 1.0
        for slot, j in enumerate(self._numeric):
            x = float(attributes[j])
            self.num_sums[label, slot] += x
            self.num_sumsqs[label, slot] += x * x
        for slot, (j, card) in enumerate(self._nominal):
            v = int(attributes[j])
            if not 0 <= v < card:
                raise ValueError(
                    f"attribute {j} value {v} outside its cardinality {card}")
            self.nom_counts[slot][label, v] += 1.0

    def class_scores(self, attributes) -> np.ndarray:
        """Unnormalised log-posterior per class (-inf for unseen classes)."""
        if self.total == 0:
            raise NotTrainedError("model has not seen any training instance")
        cc = self.class_counts
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.log(cc / self.total)
            safe = np.where(cc > 0, cc, 1.0)
            for slot, j in enumerate(self._numeric):
                x = float(attributes[j])
                mean = self.num_sums[:, slot] / safe
                var = self.num_sumsqs[:, slot] / safe - mean * mean
                var = np.maximum(var, VARIANCE_FLOOR)
                d = x - mean
                scores += -0.5 * np.log(_TWO_PI * var) - d * d / (2.0 * var)
            for slot, (j, card) in enumerate(self._nominal):
                v = int(attributes[j])
                counts = self.nom_counts[slot][:, v] if 0 <= v < card else np.zeros_like(cc)
                scores += np.log((counts + 1.0) / (cc + card))
        return np.where(cc > 0, scores, -np.inf)

    def predict(self, attributes) -> int:
        """Most probable class for the attribute vector."""
        return int(np.argmax(self.class_scores(attributes)))


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one prequential run."""

    alarms: tuple[int, ...]
    accuracy: float
    n_instances: int
    bits: Optional[np.ndarray] = None


def _seeded_rows(seeds: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row-wise prefix sums: column k of row r holds ``seeds[r]`` plus the
    first k values of row r, accumulated left to right exactly like +=."""
    out = np.empty((values.shape[0], values.shape[1] + 1))
    out[:, 0] = seeds
    out[:, 1:] = values
    return np.cumsum(out, axis=1, out=out)


def _block_bits(model: NaiveBayes, X: np.ndarray, y: np.ndarray):
    """Prediction-correctness bits for a block, plus end-of-block stats.

    Reproduces, per instance, exactly what predict-then-train would
    compute.  A nominal slot's one-hot has one row per (value, class),
    keyed ``value * classes + class``; its counts are integers held in
    float64, so the summation order cannot change them.
    """
    B = y.shape[0]
    m = model.n_classes
    totals = model.total + np.arange(B)
    classes = np.arange(m)[:, None]
    mask = (y == classes).astype(np.float64)
    cc_all = _seeded_rows(model.class_counts, mask)
    cc = cc_all[:, :B]
    end_sums = np.empty_like(model.num_sums)
    end_sumsqs = np.empty_like(model.num_sumsqs)
    end_nom = []
    # Flat offset of (class c, column i) in a slot's count rows; adding
    # value * m * (B + 1) selects the row of the instance's own value.
    own = classes * (B + 1) + np.arange(B)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.log(cc / totals)
        safe = np.where(cc > 0, cc, 1.0)
        for slot, j in enumerate(model._numeric):
            x = X[:, j]
            s_all = _seeded_rows(model.num_sums[:, slot], x * mask)
            q_all = _seeded_rows(model.num_sumsqs[:, slot], (x * x) * mask)
            end_sums[:, slot] = s_all[:, B]
            end_sumsqs[:, slot] = q_all[:, B]
            mean = s_all[:, :B] / safe
            var = q_all[:, :B] / safe - mean * mean
            var = np.maximum(var, VARIANCE_FLOOR)
            d = x - mean
            score += -0.5 * np.log(_TWO_PI * var) - d * d / (2.0 * var)
        for slot, (j, card) in enumerate(model._nominal):
            codes = X[:, j].astype(np.int64)
            onehot = codes * m + y == np.arange(card * m)[:, None]
            cnt_all = _seeded_rows(model.nom_counts[slot].T.ravel(), onehot)
            end_nom.append(cnt_all[:, B].reshape(card, m).T.copy())
            counts = np.take(cnt_all, codes * (m * (B + 1)) + own)
            score += np.log((counts + 1.0) / (cc + card))
        score = np.where(cc > 0, score, -np.inf)
    bits = (np.argmax(score, axis=0) == y) & (totals > 0)
    return bits, (cc_all[:, B].copy(), end_sums, end_sumsqs, end_nom)


def _parse_policy(policy: str):
    if policy == "reset":
        return "reset", 0
    if policy == "none":
        return "none", 0
    if policy.startswith("blind:"):
        try:
            period = int(policy.split(":", 1)[1])
        except ValueError:
            period = 0
        if period < 1:
            raise UsageError(f"blind policy needs a positive period, got {policy!r}")
        return "blind", period
    raise UsageError(f"unknown adaptation policy {policy!r}; use 'reset', "
                     "'none', or 'blind:<period>'")


def prequential_run(stream: Stream, model: Optional[NaiveBayes] = None,
                    detector: Optional[DriftDetector] = None,
                    policy: str = "reset", keep_bits: bool = False) -> RunRecord:
    """Test-then-train over a stream, feeding prediction bits to a detector.

    Every instance is first predicted (an untrained model predicts
    incorrectly by convention, including right after a reset), the
    correctness bit goes to the detector, and the instance then trains
    the model.  On a Drift verdict the alarm position is recorded and
    the policy applies: ``reset`` restarts the model, ``none`` only
    records, and ``blind:<period>`` ignores the detector entirely and
    restarts the model every ``period`` instances (alarms at the
    multiples of the period).  Warnings are never acted on.  Accuracy
    counts every prediction.
    """
    kind, period = _parse_policy(policy)
    if kind == "blind" and detector is not None:
        raise UsageError("the blind policy runs without a detector")
    if model is None:
        model = NaiveBayes(stream.schema)
    X, y = stream.X, stream.y
    n = y.shape[0]
    alarms: list[int] = []
    bits_out = np.zeros(n, dtype=bool) if keep_bits else None
    correct = 0
    t = 0
    widest = model.n_classes * max((card for _, card in model._nominal), default=1)
    longest = min(_BLOCK, max(_FIRST_BLOCK, _ONEHOT_CELLS // widest))
    size = longest
    last_reset = 0
    while t < n:
        block_end = min(n, t + size)
        if kind == "blind":
            block_end = min(block_end, ((t // period) + 1) * period)
        bits, end_stats = _block_bits(model, X[t:block_end], y[t:block_end])
        if keep_bits:
            bits_out[t:block_end] = bits
        cut = None
        if detector is not None:
            offset = 0
            while offset < bits.size:
                hit = detector.scan(bits[offset:])
                if hit is None:
                    break
                position = t + offset + hit
                alarms.append(position)
                if kind == "reset":
                    cut = offset + hit
                    break
                offset += hit + 1
        if cut is None:
            correct += int(bits.sum())
            model.total += bits.size
            model.class_counts, model.num_sums, model.num_sumsqs, model.nom_counts = end_stats
            t = block_end
            size = min(2 * size, longest)
            if kind == "blind" and t < n and t % period == 0:
                alarms.append(t)
                model.reset()
        else:
            correct += int(bits[:cut + 1].sum())
            position = t + cut
            # The alarming instance still trains the restarted model.
            model.reset()
            model.train(X[position], y[position])
            t = position + 1
            size = min(max(position - last_reset, _FIRST_BLOCK), longest)
            last_reset = position
    accuracy = correct / n if n else 0.0
    return RunRecord(tuple(alarms), accuracy, n, bits_out)
