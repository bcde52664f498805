"""The traced run: the same cells as ``run_matrix``, driven layer by layer.

``traced_matrix`` replays one matrix call through the public functions
of each layer (``streams.generate_stream``, ``learners.prequential_run``,
``DriftDetector.scan``, ``evaluation.score_run`` / ``aggregate`` and
``experiments.write_run_csv`` / ``write_aggregate_csv``) and records a
span around each call.  ``scan`` is timed by wrapping the detector
instance handed to ``prequential_run``.  Spans stay in memory and are
written out when the benchmark ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

from driftbench import (DataFormatError, DriftDetector, NaiveBayes, StreamSpec, UsageError,
                        aggregate, generate_stream, prequential_run, score_run)
from driftbench.experiments import RunResult, write_aggregate_csv, write_run_csv

from checks import MatrixOutput
from workloads import DETECTORS, Matrix, Workload


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]   # index of the enclosing span
    run: Optional[str]      # run id "<stream>,<detector>,<seed>" or None


class Tracer:
    """Spans and counters, kept in memory until ``write``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, run: Optional[str] = None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, 0.0, parent, run))
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            span = self.spans[index]
            span.start, span.end = start, end

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def busy(self, name: str, since: int = 0) -> float:
        return sum(s.end - s.start for s in self.spans[since:] if s.name == name)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


class TimedDetector:
    """Forwards to a detector and records a span around every ``scan``;
    any other attribute the learner reads is the detector's own."""

    def __init__(self, inner: DriftDetector, tracer: Tracer, run: str):
        self.inner = inner
        self._tracer = tracer
        self._run = run

    def scan(self, bits):
        with self._tracer.span("detectors.scan", self._run):
            hit = self.inner.scan(bits)
        offered = len(bits)
        consumed = offered if hit is None else hit + 1
        self._tracer.count("detectors.scan_calls")
        self._tracer.count("detectors.bits", consumed)
        # Under the reset policy the rows after an alarm were computed by
        # the learner and are thrown away with the model.
        self._tracer.count("learners.discarded_rows", offered - consumed)
        return hit

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


def traced_matrix(workload: Workload, matrix: Matrix, base_seed: int, length: int,
                  tracer: Tracer, out: Path) -> MatrixOutput:
    """Replay ``run_matrix(matrix.streams, matrix.detectors, ...)`` with spans."""
    all_runs: list[RunResult] = []
    aggregates = []
    errors = []
    with tracer.span("experiments.matrix"):
        for stream_name in matrix.streams:
            for detector_name in matrix.detectors:
                try:
                    cell = []
                    for i in range(workload.runs):
                        seed = base_seed + i
                        run = f"{stream_name},{detector_name},{seed}"
                        with tracer.span("experiments.run", run):
                            with tracer.span("streams.generate_stream", run):
                                stream = generate_stream(
                                    StreamSpec(stream_name, length=length, seed=seed))
                            tracer.count("streams.instances", len(stream))
                            detector = TimedDetector(
                                DETECTORS[detector_name](workload.window, matrix.delta),
                                tracer, run)
                            with tracer.span("learners.prequential_run", run):
                                record = prequential_run(
                                    stream, NaiveBayes(stream.schema), detector)
                            tracer.count("learners.instances", record.n_instances)
                            tracer.count("learners.resets", len(record.alarms))
                            with tracer.span("evaluation.score_run", run):
                                score = score_run(record.alarms, stream.drift_positions,
                                                  workload.accept_delay, len(stream),
                                                  record.accuracy)
                            tracer.count("evaluation.calls")
                        cell.append(RunResult(stream_name, detector_name, seed, i,
                                              record.alarms, record.accuracy, score))
                    with tracer.span("evaluation.aggregate"):
                        aggregates.append(aggregate(
                            [r.score for r in cell], stream=stream_name,
                            detector=detector_name,
                            alarm_counts=[len(r.alarms) for r in cell]))
                    tracer.count("evaluation.calls")
                    all_runs.extend(cell)
                except (UsageError, DataFormatError, OSError):
                    errors.append((stream_name, detector_name))
        agg_path = out.with_name(out.stem + "_aggregate.csv")
        with tracer.span("experiments.write_csv"):
            write_run_csv(out, all_runs)
            write_aggregate_csv(agg_path, aggregates)
    return MatrixOutput(matrix, base_seed, workload.runs, all_runs, errors,
                        out.read_text(), agg_path.read_text())


def layer_metrics(tracer: Tracer, since: int) -> tuple[dict[str, float], float]:
    """Busy seconds per layer, and the traced wall time, over the spans
    recorded from index ``since``."""
    generate = tracer.busy("streams.generate_stream", since)
    detect = tracer.busy("detectors.scan", since)
    learn = tracer.busy("learners.prequential_run", since) - detect
    evaluate = tracer.busy("evaluation.score_run", since) + tracer.busy("evaluation.aggregate", since)
    return {
        "streams.generate_s": generate,
        "learners.busy_s": learn,
        "detectors.busy_s": detect,
        "evaluation.busy_s": evaluate,
        "experiments.csv_write_s": tracer.busy("experiments.write_csv", since),
    }, tracer.busy("experiments.matrix", since)
