"""Synthetic drifting data streams and CSV stream ingestion.

Four seedable generator families are provided, each emitting labelled
instances whose concept changes at scheduled positions:

* ``sine1``  - two uniform numeric attributes; positive when the point
  lies strictly under the sine curve; the rule flips at every drift.
* ``mixed``  - two boolean and two numeric attributes; positive when at
  least two of three conditions hold; the rule flips at every drift.
* ``circles`` - two numeric attributes; positive inside (boundary
  included) one of four circles of growing radius, one per concept.
* ``led``    - a digit on a seven-segment display among 24 binary
  attributes; drifts relocate the segment attributes.

Concept transitions are stochastic: near a drift position each instance
is drawn from the incoming concept with a sigmoid probability whose
slope is set by the transition length, which makes short transitions
abrupt and long ones gradual.  Class noise flips labels uniformly.

Generation is a pure function of (spec, seed): the single documented
PRNG is NumPy's 64-bit-seeded PCG64, whose output is stable across
platforms, and every random draw happens in a fixed documented order
(attributes, then one concept draw per drift position, then the noise
mask, then noise values).
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataFormatError, UsageError

NUMERIC = "numeric"
NOMINAL = "nominal"

DEFAULT_LENGTH = 100_000
# Longest stream a StreamSpec accepts, 1000x the paper's streams.  Every
# instance is a float64 row held in memory, so a longer stream is refused
# as a usage error before anything is built rather than failing to allocate.
MAX_LENGTH = 100_000_000
# Largest k a CSV header's "name:nominal:<k>" mark may declare.  Naive Bayes
# sizes its per-class arrays by the label's k and keeps a (classes, k)
# count table per nominal attribute before any row is read, so a larger
# mark is refused as a data error rather than failing to allocate.
MAX_CARDINALITY = 4096
DEFAULT_NOISE = 0.10

# Circle concepts: ((center_x, center_y), radius), one per concept.
CIRCLES = (
    ((0.2, 0.5), 0.15),
    ((0.4, 0.5), 0.20),
    ((0.6, 0.5), 0.25),
    ((0.8, 0.5), 0.30),
)

# Seven-segment encoding of the digits 0-9.
LED_SEGMENTS = np.array([
    [1, 1, 1, 0, 1, 1, 1],  # 0
    [0, 0, 1, 0, 0, 1, 0],  # 1
    [1, 0, 1, 1, 1, 0, 1],  # 2
    [1, 0, 1, 1, 0, 1, 1],  # 3
    [0, 1, 1, 1, 0, 1, 0],  # 4
    [1, 1, 0, 1, 0, 1, 1],  # 5
    [1, 1, 0, 1, 1, 1, 1],  # 6
    [1, 0, 1, 0, 0, 1, 0],  # 7
    [1, 1, 1, 1, 1, 1, 1],  # 8
    [1, 1, 1, 1, 0, 1, 1],  # 9
], dtype=np.int64)

LED_ATTRIBUTES = 24

# Attribute positions holding the seven segment bits, per concept.  The
# default layout starts at positions 0-6 and successive concepts swap
# 3, then 1, then 3 of them with previously irrelevant positions; a
# different reading of the drift magnitudes only needs a different
# layout tuple here.
LED_DEFAULT_LAYOUT = (
    (0, 1, 2, 3, 4, 5, 6),
    (7, 8, 9, 3, 4, 5, 6),
    (10, 8, 9, 3, 4, 5, 6),
    (11, 12, 13, 3, 4, 5, 6),
)

_INT_LABEL = re.compile(r"^\d+$")
# A CSV header field "name:nominal:<cardinality>" marks a nominal column
# whose values are the integer codes 0..cardinality-1.
_NOMINAL_MARK = re.compile(r"^(.*):nominal:([1-9]\d*)$")


@dataclass(frozen=True)
class ConceptSchedule:
    """Drift positions (0-based instance indices) and transition length."""

    positions: tuple[int, ...]
    transition: int

    def __post_init__(self):
        if self.transition < 1:
            raise UsageError(f"transition length must be >= 1, got {self.transition}")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise UsageError("drift positions must be strictly increasing")

    @property
    def concepts(self) -> int:
        return len(self.positions) + 1


# Drift spacing and transition length of the stock schedules: abrupt
# (sine1/mixed) and gradual (circles/led).
_STOCK_SCHEDULES = {"sine1": (20_000, 50), "mixed": (20_000, 50),
                    "circles": (25_000, 500), "led": (25_000, 500)}


def default_schedule(family: str, length: int, every: Optional[int] = None,
                     transition: Optional[int] = None) -> ConceptSchedule:
    """The stock schedule: abrupt every 20k (sine1/mixed, transition 50),
    gradual every 25k (circles/led, transition 500).  ``every`` and
    ``transition`` replace the family's drift spacing and transition
    length."""
    if family not in _STOCK_SCHEDULES:
        raise UsageError(f"no default schedule for stream family {family!r}")
    stock_every, stock_transition = _STOCK_SCHEDULES[family]
    every = stock_every if every is None else every
    if every < 1:
        raise UsageError(f"drift spacing must be >= 1, got {every}")
    return ConceptSchedule(tuple(range(every, length, every)),
                           stock_transition if transition is None else transition)


@dataclass(frozen=True)
class StreamSpec:
    """Recipe for one synthetic stream."""

    family: str
    length: int = DEFAULT_LENGTH
    noise: float = DEFAULT_NOISE
    schedule: Optional[ConceptSchedule] = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", self.family.lower())
        if self.family not in ("sine1", "mixed", "circles", "led"):
            raise UsageError(f"unknown stream family {self.family!r}")
        if not 1 <= self.length <= MAX_LENGTH:
            raise UsageError(
                f"stream length must lie in [1, {MAX_LENGTH}], got {self.length}")
        if not 0.0 <= self.noise < 1.0:
            raise UsageError(f"noise rate must lie in [0, 1), got {self.noise}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")

    def resolved_schedule(self) -> ConceptSchedule:
        sched = self.schedule or default_schedule(self.family, self.length)
        if sched.positions and sched.positions[-1] >= self.length:
            raise UsageError(
                f"drift position {sched.positions[-1]} is beyond the stream "
                f"length {self.length}")
        return sched


@dataclass(frozen=True)
class StreamSchema:
    """Attribute layout of a stream."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]           # NUMERIC or NOMINAL per attribute
    cardinalities: tuple[int, ...]   # nominal value count, 0 for numeric
    n_classes: int


@dataclass
class Stream:
    """A materialised stream: attribute matrix, labels, and ground truth.

    ``X`` stores every attribute as float64 (nominal attributes hold
    integer codes).  ``drift_positions`` and ``concepts`` are harness
    ground truth; CSV streams have no such truth and leave them empty.
    ``y_clean`` holds the pre-noise labels of synthetic streams.
    """

    name: str
    X: np.ndarray
    y: np.ndarray
    schema: StreamSchema
    drift_positions: tuple[int, ...] = ()
    concepts: Optional[np.ndarray] = None
    y_clean: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.y.shape[0]


# Below x = -746 and above x = 40 the logistic 1 / (1 + e^-x) is exactly 0
# and exactly 1 in float64 (see _concept_draws).
_SIGMOID_ZERO = -746.0
_SIGMOID_ONE = 40.0


def _logistic(x):
    """1 / (1 + e^-x); where e^-x overflows to inf the result is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def drift_probability(t, t0, zeta: int):
    """Probability that instance ``t`` is drawn from the post-drift concept.

    A sigmoid centred on the drift position ``t0`` with slope 4/zeta, so
    the transition effectively spans about ``zeta`` instances.  Accepts
    scalars or arrays.
    """
    if zeta < 1:
        raise UsageError(f"transition length must be >= 1, got {zeta}")
    t = np.asarray(t, dtype=np.float64)
    out = _logistic(4.0 * (t - t0) / zeta)
    return float(out) if out.ndim == 0 else out


def sine1_label(x: float, y: float, concept: int) -> int:
    """1 when (x, y) lies strictly under sin(x); flipped on odd concepts."""
    under = y < math.sin(x)
    return int(under ^ (concept % 2 == 1))


def mixed_label(v: int, w: int, x: float, y: float, concept: int) -> int:
    """1 when at least two of {v, w, y < 0.5 + 0.3 sin(3 pi x)} hold;
    flipped on odd concepts."""
    conditions = int(bool(v)) + int(bool(w)) + int(y < 0.5 + 0.3 * math.sin(3.0 * math.pi * x))
    return int((conditions >= 2) ^ (concept % 2 == 1))


def circles_label(x: float, y: float, concept: int) -> int:
    """1 when (x, y) lies inside concept's circle, boundary included."""
    if not 0 <= concept < len(CIRCLES):
        raise UsageError(f"circles supports concepts 0..3, got {concept}")
    (cx, cy), r = CIRCLES[concept]
    return int((x - cx) ** 2 + (y - cy) ** 2 <= r * r)


def _concept_draws(n: int, schedule: ConceptSchedule, rng: np.random.Generator) -> np.ndarray:
    """Active concept index per instance; one Bernoulli draw per drift.

    A scheduled position marks where the transition to the incoming
    concept begins: the sigmoid midpoint sits half a transition length
    after it, so instances before the position are effectively pure old
    concept and the mix is complete about one transition length later.

    The sigmoid is evaluated only on the span where it can be neither
    exactly 0 nor exactly 1.  With x = 4 (t - mid) / zeta, e^-x
    overflows to inf below x = -709.78, so the probability is exactly
    0 and no draw in [0, 1) falls under it; above x = 53 ln 2 = 36.74,
    e^-x is below 2^-53, so 1 + e^-x rounds to 1 and every draw falls
    under it.
    The span x in [-746, 40] keeps a wide margin on both sides and is
    clamped to [0, n).  Every drift still takes its full ``rng.random(n)``
    draw, so the concepts are bit for bit those of a full-length
    evaluation.
    """
    concept = np.zeros(n, dtype=np.int64)
    draws = np.empty(n)
    zeta = schedule.transition
    for pos in schedule.positions:
        mid = pos + 0.5 * zeta
        rng.random(out=draws)
        lo = min(max(math.floor(mid + _SIGMOID_ZERO * zeta / 4.0), 0), n)
        hi = min(max(math.ceil(mid + _SIGMOID_ONE * zeta / 4.0) + 1, lo), n)
        p = drift_probability(np.arange(lo, hi, dtype=np.float64), mid, zeta)
        concept[lo:hi] += draws[lo:hi] < p
        concept[hi:] += 1
    return concept


def _binary_noise(y: np.ndarray, noise: float, rng: np.random.Generator) -> np.ndarray:
    flip = rng.random(y.shape[0]) < noise
    return np.where(flip, 1 - y, y)


def generate_stream(spec: StreamSpec) -> Stream:
    """Materialise the synthetic stream described by ``spec``."""
    schedule = spec.resolved_schedule()
    rng = np.random.default_rng(spec.seed)
    n = spec.length
    family = spec.family

    if family == "sine1":
        xy = rng.random((n, 2))
        concept = _concept_draws(n, schedule, rng)
        base = (xy[:, 1] < np.sin(xy[:, 0])).astype(np.int64)
        y_clean = base ^ (concept % 2)
        y = _binary_noise(y_clean, spec.noise, rng)
        schema = StreamSchema(("x", "y"), (NUMERIC, NUMERIC), (0, 0), 2)
        X = xy

    elif family == "mixed":
        vw = rng.integers(0, 2, size=(n, 2))
        xy = rng.random((n, 2))
        concept = _concept_draws(n, schedule, rng)
        third = xy[:, 1] < 0.5 + 0.3 * np.sin(3.0 * np.pi * xy[:, 0])
        base = ((vw[:, 0] + vw[:, 1] + third) >= 2).astype(np.int64)
        y_clean = base ^ (concept % 2)
        y = _binary_noise(y_clean, spec.noise, rng)
        schema = StreamSchema(("v", "w", "x", "y"),
                              (NOMINAL, NOMINAL, NUMERIC, NUMERIC),
                              (2, 2, 0, 0), 2)
        X = np.empty((n, 4))  # filled in place: no float copy of vw
        X[:, :2] = vw
        X[:, 2:] = xy

    elif family == "circles":
        if schedule.concepts > len(CIRCLES):
            raise UsageError(
                f"circles supports at most {len(CIRCLES) - 1} drifts, "
                f"schedule has {len(schedule.positions)}")
        xy = rng.random((n, 2))
        concept = _concept_draws(n, schedule, rng)
        params = np.array([(cx, cy, r) for (cx, cy), r in CIRCLES])
        cx, cy, r = (params[concept, j] for j in range(3))
        y_clean = (((xy[:, 0] - cx) ** 2 + (xy[:, 1] - cy) ** 2) <= r * r).astype(np.int64)
        y = _binary_noise(y_clean, spec.noise, rng)
        schema = StreamSchema(("x", "y"), (NUMERIC, NUMERIC), (0, 0), 2)
        X = xy

    else:  # led
        if schedule.concepts > len(LED_DEFAULT_LAYOUT):
            raise UsageError(
                f"led layout defines {len(LED_DEFAULT_LAYOUT)} concepts, schedule needs "
                f"{schedule.concepts}")
        digits = rng.integers(0, 10, size=n)
        attrs = rng.integers(0, 2, size=(n, LED_ATTRIBUTES))
        concept = _concept_draws(n, schedule, rng)
        for c in range(schedule.concepts):
            rows = np.nonzero(concept == c)[0]
            if rows.size:
                attrs[np.ix_(rows, list(LED_DEFAULT_LAYOUT[c]))] = LED_SEGMENTS[digits[rows]]
        y_clean = digits.astype(np.int64)
        flip = rng.random(n) < spec.noise
        offsets = rng.integers(1, 10, size=n)
        y = np.where(flip, (y_clean + offsets) % 10, y_clean)
        schema = StreamSchema(tuple(f"a{j + 1}" for j in range(LED_ATTRIBUTES)),
                              (NOMINAL,) * LED_ATTRIBUTES,
                              (2,) * LED_ATTRIBUTES, 10)
        X = attrs.astype(np.float64)

    return Stream(name=family, X=X, y=y.astype(np.int64, copy=False), schema=schema,
                  drift_positions=schedule.positions,
                  concepts=concept, y_clean=y_clean.astype(np.int64, copy=False))


def load_csv_stream(path) -> Stream:
    """Materialise a CSV stream for the benchmark harness.

    The first row is a header; the last column is the class label.
    Attribute columns are numeric when their first data value parses as
    a float, nominal otherwise.  A numeric value must be finite: ``nan``,
    ``inf`` or an overflowing literal such as ``1e400`` is a
    :class:`DataFormatError`.  Nominal values get integer codes in
    first-seen order.  Labels that are nonnegative integers are taken
    verbatim as class codes (so dumped streams load back with identical
    labels); otherwise labels are class names, coded in first-seen order.
    The first label decides which, and a label column mixing the two is a
    :class:`DataFormatError`.  A file of r data rows holds at most r
    classes, so a code above r is a :class:`DataFormatError` too (0- and
    1-based codes always pass).

    A header field ``name:nominal:<k>`` (as :func:`dump_stream` writes
    for nominal attributes and the label) marks a column of integer codes
    ``0..k-1``: an attribute so marked is nominal with cardinality ``k``
    and the label column has ``k`` classes, even when some codes never
    occur in the file.  Marked values are taken verbatim; anything else
    in a marked column is a :class:`DataFormatError`, and so is a ``k``
    above :data:`MAX_CARDINALITY`.

    Blank rows are skipped, a header-only file is an empty stream, and
    an error in a data row names its line.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file, expected a header row")
        if len(header) < 2:
            raise DataFormatError(
                f"{path}: need at least one attribute column and a label column")
        marks = [_NOMINAL_MARK.match(name) for name in header]
        header = [m.group(1) if m else name for m, name in zip(marks, header)]
        for name, m in zip(header, marks):
            # Compared as digits first: int() refuses strings over 4300 digits.
            digits = m.group(2) if m else "0"
            if len(digits) > len(str(MAX_CARDINALITY)) or int(digits) > MAX_CARDINALITY:
                raise DataFormatError(
                    f"{path}: line 1: column {name!r}: marked cardinality {digits} is above "
                    f"the largest supported, {MAX_CARDINALITY}")
        *marked, label_mark = [int(m.group(2)) if m else 0 for m in marks]
        # Kinds and whether labels are codes come from the first data row.
        kinds = label_is_code = None
        codes = [{} for _ in marked]   # nominal value -> code, per attribute
        label_codes: dict[str, int] = {}
        rows, labels = [], []
        top_code = top_line = -1   # the largest label code and its first line
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: line {line}: expected {len(header)} fields, got {len(row)}")
            if kinds is None:
                kinds = [NOMINAL if card else _inferred_kind(value)
                         for card, value in zip(marked, row)]
                label_is_code = bool(_INT_LABEL.match(row[-1]))
            attrs = []
            for j, value in enumerate(row[:-1]):
                if marked[j]:
                    attrs.append(_marked_code(path, line, header[j], value, marked[j]))
                elif kinds[j] == NUMERIC:
                    attrs.append(_finite(path, line, header[j], value))
                else:
                    attrs.append(codes[j].setdefault(value, len(codes[j])))
            raw_label = row[-1]
            if label_mark:
                labels.append(_marked_code(path, line, header[-1], raw_label, label_mark))
            elif bool(_INT_LABEL.match(raw_label)) != label_is_code:
                # Names are coded from 0, so an integer code in the same
                # column could share a name's code.
                raise DataFormatError(
                    f"{path}: line {line}: label {raw_label!r} mixes integer class "
                    "codes with class names")
            elif label_is_code:
                labels.append(int(raw_label))
                if labels[-1] > top_code:
                    top_code, top_line = labels[-1], line
            else:
                labels.append(label_codes.setdefault(raw_label, len(label_codes)))
            rows.append(attrs)
    if top_code > len(labels):
        # Each class code sizes the learner's per-class arrays.
        raise DataFormatError(
            f"{path}: line {top_line}: label {top_code} is a class code above the "
            f"file's {len(labels)} data rows")
    if kinds is None:
        kinds = [NOMINAL if card else NUMERIC for card in marked]
    cards = tuple((card or len(values)) if kind == NOMINAL else 0
                  for kind, card, values in zip(kinds, marked, codes))
    n_classes = max(max(labels, default=-1) + 1, label_mark)
    return Stream(name=path.stem,
                  X=np.array(rows, dtype=np.float64).reshape(-1, len(marked)),
                  y=np.array(labels, dtype=np.int64),
                  schema=StreamSchema(tuple(header[:-1]), tuple(kinds), cards, n_classes))


def _inferred_kind(value: str) -> str:
    try:
        float(value)
        return NUMERIC
    except ValueError:
        return NOMINAL


def _finite(path: Path, line: int, column: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise DataFormatError(
            f"{path}: line {line}: column {column!r}: {value!r} is not numeric") from exc
    if not math.isfinite(number):
        raise DataFormatError(
            f"{path}: line {line}: column {column!r}: {value!r} is not a finite number")
    return number


def _marked_code(path: Path, line: int, column: str, value: str, card: int) -> int:
    if _INT_LABEL.match(value) and int(value) < card:
        return int(value)
    raise DataFormatError(
        f"{path}: line {line}: column {column!r}: {value!r} is not a code below its "
        f"marked cardinality {card}")


def dump_stream(spec, path) -> None:
    """Write a synthetic stream (or an already materialised one) to CSV.

    Numeric attributes use shortest round-trip formatting so a reload
    reproduces them exactly; nominal attributes and labels are written
    as integer codes under a ``name:nominal:<cardinality>`` header, so a
    reload keeps them nominal with the full cardinality and class count
    (Laplace smoothing divides by both, even where a short file misses a
    value).  Identical specs produce byte-identical files.
    """
    stream = generate_stream(spec) if isinstance(spec, StreamSpec) else spec
    schema = stream.schema
    kinds = schema.kinds
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([name if kind == NUMERIC else f"{name}:nominal:{card}"
                         for name, kind, card in zip(schema.names, kinds, schema.cardinalities)]
                        + [f"label:nominal:{schema.n_classes}"])
        for t in range(len(stream)):
            row = stream.X[t]
            fields = [repr(float(row[j])) if kinds[j] == NUMERIC else str(int(row[j]))
                      for j in range(len(kinds))]
            fields.append(str(int(stream.y[t])))
            writer.writerow(fields)
