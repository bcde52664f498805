"""Incremental Naive Bayes and the prequential test-then-train loop.

The classifier keeps sufficient statistics only (per-class counts,
per-class sums and squared sums for numeric attributes, per-class value
counts for nominal ones), so training is one pass in O(attributes) per
instance under constant memory.  Numeric likelihoods are Gaussian with
a variance floor; nominal likelihoods are Laplace-smoothed; ties in the
posterior break toward the lowest class code.

``prequential_runs`` drives a stream through predict -> record bit ->
detector -> train for several detectors at once, and ``prequential_run``
is its one-detector call.  Under the ``reset`` policy the model after a
reset at position p is ``reset()`` + ``train(X[p])`` whatever came
before, so the learner state at t depends only on t and the last reset
position.  Detectors whose last reset is at the same position therefore
share one *timeline*: one model and one block of bits, which each member
scans.  An alarm at p moves its detector to the timeline keyed p, made
on first use (from the parent's model when no member is left on the
parent) and joined by every later detector that resets at p; timelines
advance in order of their next position, so the one keyed p is still at
p + 1 when they join.  Under ``none`` and ``blind`` every detector stays
on one timeline.

Each timeline works block-wise: within a stretch where the model is not
reset, the predictions of every class are vectorised over the block.  The
class counts and every numeric slot's sums and squared sums come from one
running-sum table, a row per (statistic, class) and, after a column of the
model's statistics, a column per block instance: one NumPy cumsum along
the rows adds left to right exactly like ``NaiveBayes.train``'s ``+=``,
so the per-instance arithmetic is reproduced bit for bit and block
boundaries never change a bit.  The nominal counts of a block come from
a second table with a row per (attribute, value) pair and, grouped by
class, a seed column per class and a column per block instance: one
cumsum serves every attribute and class, and the Laplace terms take one
log per table cell rather than one per (instance, class, attribute).
Blocks are one scan slice, ``_SCAN_SLICE``, or shorter where either table
would exceed ``_TABLE_CELLS``.  A reset throws away the rest of the block
for the detector that fired, so a timeline made at a reset starts with a
block no longer than the stretch since its parent's reset (at least
``_FIRST_BLOCK`` rows), which then doubles: alarm cascades waste little,
rare alarms keep full blocks, and the cost stays linear in the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .detectors.base import _SCAN_SLICE, DriftDetector
from .errors import UsageError
from .streams import NOMINAL, NUMERIC, Stream, StreamSchema

VARIANCE_FLOOR = 1e-6
_TWO_PI = 2.0 * math.pi
_FIRST_BLOCK = 64  # shortest block after a detector-driven reset
# Cap on the cells (8 bytes each) of each of a block's tables: nominal counts,
# Σcard rows by block + classes columns, and running sums, classes x (1 + 2
# numeric slots) rows by block columns.  A wider schema or more classes get
# shorter blocks (no shorter than _FIRST_BLOCK), keeping each within 1 MB.
_TABLE_CELLS = 1 << 17


class NaiveBayes:
    """Incremental Naive Bayes over a fixed attribute schema."""

    def __init__(self, schema: StreamSchema):
        self.schema = schema
        self.n_classes = schema.n_classes
        self._numeric = [j for j, k in enumerate(schema.kinds) if k == NUMERIC]
        self._nominal = [(j, schema.cardinalities[j])
                         for j, k in enumerate(schema.kinds) if k == NOMINAL]
        # Each nominal attribute's first column in nom_counts and row in a block's table.
        cards = np.array([card for _, card in self._nominal], dtype=np.int64)
        self._cards, self._offsets = cards, np.cumsum(cards) - cards
        self.reset()

    def reset(self) -> None:
        """Discard all sufficient statistics (back to untrained)."""
        m = self.n_classes
        self.total = 0
        self.class_counts = np.zeros(m)
        self.num_sums = np.zeros((m, len(self._numeric)))
        self.num_sumsqs = np.zeros((m, len(self._numeric)))
        self.nom_counts = np.zeros((m, int(self._cards.sum())))

    @property
    def is_trained(self) -> bool:
        return self.total > 0

    def train(self, attributes, label: int) -> None:
        """Absorb one labelled instance; one it rejects changes nothing."""
        if len(attributes) != len(self.schema.kinds):
            raise ValueError(
                f"expected {len(self.schema.kinds)} attributes, "
                f"got {len(attributes)}")
        if not 0 <= label < self.n_classes:
            raise ValueError(f"label {label} outside 0..{self.n_classes - 1}")
        codes = [int(attributes[j]) for j, _ in self._nominal]
        for (j, card), v in zip(self._nominal, codes):
            if not 0 <= v < card:
                raise ValueError(
                    f"attribute {j} value {v} outside its cardinality {card}")
        self.total += 1
        self.class_counts[label] += 1.0
        for slot, j in enumerate(self._numeric):
            x = float(attributes[j])
            self.num_sums[label, slot] += x
            self.num_sumsqs[label, slot] += x * x
        for offset, v in zip(self._offsets, codes):
            self.nom_counts[label, offset + v] += 1.0


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one prequential run."""

    alarms: tuple[int, ...]
    accuracy: float
    n_instances: int
    bits: Optional[np.ndarray] = None


def _block_bits(model: NaiveBayes, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Prediction-correctness bits for a block; ``model`` ends trained on it.

    Reproduces, per instance, exactly what predict-then-train would
    compute (see ``_nominal_scores`` for the nominal attributes);
    ``tests/test_learners.py`` keeps the per-instance predictor as the
    reference it is compared against.  An out-of-range nominal code
    raises ``ValueError`` before any statistic is written.  The running-sum
    table's rows are the class counts, each numeric slot's sums, then its
    squared sums, a row per class each; column i holds them before instance i.
    """
    B, m, k = y.shape[0], model.n_classes, len(model._numeric)
    totals = model.total + np.arange(B)
    x = X[:, model._numeric].T[:, None]
    mask = y == np.arange(m)[:, None]
    table = np.empty((1 + 2 * k, m, B + 1))
    cc_all, sums, sqs = table[0], table[1:k + 1], table[k + 1:]
    cc_all[:, 0], cc_all[:, 1:] = model.class_counts, mask
    sums[..., 0], sqs[..., 0] = model.num_sums.T, model.num_sumsqs.T
    np.multiply(x, mask, out=sums[..., 1:])
    np.multiply(x * x, mask, out=sqs[..., 1:])
    np.cumsum(table, axis=2, out=table)
    cc = cc_all[:, :B]
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.log(cc / totals)
        safe = np.where(cc > 0, cc, 1.0)
        if k:  # -0.5 log(2 pi var) - d * d / (2 var), d = x - mean, in place in the table
            mean = np.divide(sums[..., :B], safe, out=sums[..., :B])
            var = np.divide(sqs[..., :B], safe, out=sqs[..., :B])
            terms = mean * mean
            np.maximum(np.subtract(var, terms, out=var), VARIANCE_FLOOR, out=var)
            np.log(np.multiply(var, _TWO_PI, out=terms), out=terms)
            terms *= -0.5
            d2 = np.square(np.subtract(x, mean, out=mean), out=mean)
            terms -= np.divide(d2, np.multiply(var, 2.0, out=var), out=d2)
            for term in terms:
                score += term  # slot after slot, as the per-instance sum runs
        if model._nominal:
            model.nom_counts = _nominal_scores(model, X, y, cc_all, score)
        score = np.where(cc > 0, score, -np.inf)
    model.total += B
    model.class_counts[:] = cc_all[:, B]
    model.num_sums[:], model.num_sumsqs[:] = sums[..., B].T, sqs[..., B].T
    return (np.argmax(score, axis=0) == y) & (totals > 0)


def _nominal_scores(model: NaiveBayes, X: np.ndarray, y: np.ndarray,
                    cc_all: np.ndarray, score: np.ndarray):
    """Add every nominal slot's Laplace term to ``score`` in place, in
    slot order, and return the end-of-block ``nom_counts``.

    All nominal counts of the block live in one table with a row per
    (attribute, value) pair and its columns grouped by class: class c's
    segment is a seed column at ``start[c]`` and then one column per
    class-c instance of the block, in block order.  Seeds are differenced
    against the previous segment's end, so one cumsum along the columns
    leaves class c's counts after its first r block instances in column
    ``start[c] + r``; ``nom_counts``, whose columns are the table's rows,
    seeds it as it is.  The counts are integers held in float64, so the
    summation order cannot change them, and the Laplace term is computed
    once per table cell from the same floats the per-instance path uses.
    """
    B = y.shape[0]
    m = model.n_classes
    cards = model._cards
    codes = X[:, [j for j, _ in model._nominal]].T.astype(np.int64)
    if codes.min() < 0 or (codes.max(axis=1) >= cards).any():
        i, slot = np.argwhere(((codes < 0) | (codes >= cards[:, None])).T)[0]
        j = model._nominal[slot][0]
        value = codes[slot, i] if np.isfinite(X[i, j]) else X[i, j]
        raise ValueError(f"attribute {j} value {value} outside its cardinality {cards[slot]}")
    lengths = (cc_all[:, B] - model.class_counts).astype(np.int64) + 1
    start = np.cumsum(lengths) - lengths
    shift = model.class_counts - start
    # Column of class c's counts before instance i.
    where = (cc_all[:, :B] - shift[:, None]).astype(np.int64)
    R = B + m
    value_rows = (codes + model._offsets[:, None]) * R
    table = np.zeros((int(cards.sum()), R))
    table.ravel()[value_rows + where.ravel()[y * B + np.arange(B)] + 1] = 1.0
    ends = model.nom_counts + np.add.reduceat(table, start, axis=1).T
    table[:, start[0]] = model.nom_counts[0]
    table[:, start[1:]] = (model.nom_counts[1:] - ends[:-1]).T
    np.cumsum(table, axis=1, out=table)
    # Each column's class count: the float cc holds for its instances.
    col_counts = np.repeat(shift, lengths) + np.arange(float(R))
    table += 1.0
    for a, card in zip(model._offsets, cards):
        table[a:a + card] /= col_counts + card
    logs = np.log(table, out=table).ravel()
    for slot_rows in value_rows:
        score += np.take(logs, where + slot_rows)
    return ends


def _parse_policy(policy: str):
    """``(kind, period)`` of a policy string; a bad one is a usage error."""
    if policy in ("reset", "none"):
        return policy, 0
    kind, colon, period = policy.partition(":")
    if kind == "blind" and colon:
        try:
            period = int(period)
        except ValueError:
            period = 0
        if period < 1:
            raise UsageError(f"blind policy needs a positive period, got {policy!r}")
        return "blind", period
    raise UsageError(f"unknown adaptation policy {policy!r}; use 'reset', "
                     "'none', or 'blind:<period>'")


@dataclass
class _Timeline:
    """One learner history shared by the detectors in ``members``: the
    model since the reset at ``start`` (0 for the root), advanced to ``t``."""

    model: NaiveBayes
    start: int
    t: int
    size: int  # rows in its next block
    members: list[int]


def prequential_runs(stream: Stream, detectors: Sequence[Optional[DriftDetector]],
                     policy: str = "reset", keep_bits: bool = False,
                     model: Optional[NaiveBayes] = None) -> list[RunRecord]:
    """Test-then-train over a stream, once per detector; one record each.

    Every instance is first predicted (an untrained model predicts
    incorrectly by convention, including right after a reset), the
    correctness bit goes to the detector, and the instance then trains
    the model.  On a Drift verdict the alarm position is recorded and
    the policy applies: ``reset`` restarts the model, ``none`` only
    records, and ``blind:<period>`` ignores the detector entirely and
    restarts the model every ``period`` instances (alarms at the
    multiples of the period).  Warnings are never acted on.  Accuracy
    counts every prediction.

    Each record is what a run of its detector alone would give: the
    detectors only share the Naive Bayes work of equal learner histories
    (see the module docstring), so they must be distinct objects (``None``
    runs without one).  ``model`` is the root timeline's model, a fresh
    one by default.
    """
    kind, period = _parse_policy(policy)
    if kind == "blind" and any(detector is not None for detector in detectors):
        raise UsageError("the blind policy runs without a detector")
    if repeated := [i for i, d in enumerate(detectors) if d is not None and d in detectors[:i]]:
        raise ValueError(f"detector objects must be distinct; positions {repeated} repeat")
    if model is None:
        model = NaiveBayes(stream.schema)
    X, y = stream.X, stream.y
    n = y.shape[0]
    alarms: list[list[int]] = [[] for _ in detectors]
    correct = [0] * len(detectors)
    bits_out = [np.zeros(n, dtype=bool) if keep_bits else None for _ in detectors]
    m, width = model.n_classes, max(int(model._cards.sum()), 1)
    cap = min(_TABLE_CELLS // width - m, _TABLE_CELLS // max(m * (1 + 2 * len(model._numeric)), 1))
    longest = min(_SCAN_SLICE, max(_FIRST_BLOCK, cap))
    # Live timelines keyed by their last reset position, the root by None.
    live = {None: _Timeline(model, 0, 0, longest, list(range(len(detectors))))}
    while live:
        key, line = min(live.items(), key=lambda item: item[1].t)
        t = line.t
        if t >= n:
            break
        block_end = min(n, t + line.size)
        if kind == "blind":
            block_end = min(block_end, ((t // period) + 1) * period)
        bits = _block_bits(line.model, X[t:block_end], y[t:block_end])
        stay, moves = [], []
        for i in line.members:
            detector = detectors[i]
            cut = None
            offset = 0
            while detector is not None and offset < bits.size:
                hit = detector.scan(bits[offset:])
                if hit is None:
                    break
                alarms[i].append(t + offset + hit)
                if kind == "reset":
                    cut = offset + hit
                    break
                offset += hit + 1
            used = bits if cut is None else bits[:cut + 1]
            correct[i] += int(used.sum())
            if keep_bits:
                bits_out[i][t:t + used.size] = used
            if cut is None:
                stay.append(i)
            else:
                moves.append((i, t + cut))
        spare = None
        if stay:
            line.members = stay
            line.t = block_end
            line.size = min(2 * line.size, longest)
            if kind == "blind" and block_end < n and block_end % period == 0:
                for i in stay:
                    alarms[i].append(block_end)
                line.model.reset()
        else:
            del live[key]
            spare = line.model
        for i, position in moves:
            # Timelines advance in order of t, so one keyed position is
            # still at position + 1.
            if position not in live:
                fork = spare if spare is not None else NaiveBayes(stream.schema)
                spare = None
                # The alarming instance still trains the restarted model.
                fork.reset()
                fork.train(X[position], y[position])
                size = min(max(position - line.start, _FIRST_BLOCK), longest)
                live[position] = _Timeline(fork, position, position + 1, size, [])
            live[position].members.append(i)
    return [RunRecord(tuple(a), c / n if n else 0.0, n, b)
            for a, c, b in zip(alarms, correct, bits_out)]


def prequential_run(stream: Stream, model: Optional[NaiveBayes] = None,
                    detector: Optional[DriftDetector] = None,
                    policy: str = "reset", keep_bits: bool = False) -> RunRecord:
    """The one-detector case of :func:`prequential_runs`; ``model`` (a
    fresh one by default) ends in the state the run leaves it in."""
    return prequential_runs(stream, [detector], policy, keep_bits, model)[0]
