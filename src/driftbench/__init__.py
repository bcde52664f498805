"""Streaming concept-drift detection and benchmarking.

The package bundles four pieces that compose into a benchmark: drift
detectors over prediction-bit streams, synthetic drifting-stream
generators (plus CSV ingestion), an incremental Naive Bayes learner
with a prequential test-then-train loop, and acceptable-delay scoring
with mean/std aggregation over seeds.
"""

from .detectors import (
    ADWIN,
    CUSUM,
    DDM,
    EDDM,
    MDDM,
    RDDM,
    Arithmetic,
    DriftDetector,
    Euler,
    Geometric,
    PageHinkley,
    Uniform,
    Verdict,
    WeightScheme,
    build_weights,
    compute_epsilon,
    fhddm,
)
from .errors import DataFormatError, UsageError
from .evaluation import AggregateRow, DriftScore, aggregate, score_run
from .experiments import ExperimentConfig, ExperimentResult, MatrixReport, run_matrix
from .learners import NaiveBayes, RunRecord, prequential_run, prequential_runs
from .streams import (
    ConceptSchedule,
    Stream,
    StreamSchema,
    StreamSpec,
    default_schedule,
    drift_probability,
    dump_stream,
    generate_stream,
    load_csv_stream,
)

__version__ = "0.1.0"

__all__ = [
    "ADWIN", "AggregateRow", "Arithmetic", "ConceptSchedule", "CUSUM",
    "DataFormatError", "DDM", "DriftDetector", "DriftScore", "EDDM", "Euler",
    "ExperimentConfig", "ExperimentResult", "Geometric", "MatrixReport",
    "MDDM", "NaiveBayes", "PageHinkley", "RDDM",
    "RunRecord", "Stream", "StreamSchema", "StreamSpec", "Uniform",
    "UsageError", "Verdict", "WeightScheme", "aggregate", "build_weights",
    "compute_epsilon", "default_schedule", "drift_probability",
    "dump_stream", "fhddm", "generate_stream", "load_csv_stream",
    "prequential_run", "prequential_runs", "run_matrix", "score_run",
]
