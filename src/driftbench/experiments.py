"""Experiment runner: multi-seed cells of (stream x detector) with CSV output.

A cell runs R independent prequential runs (run i uses seed base + i),
scores synthetic runs against the stream's drift schedule, and
aggregates into a mean +/- std row.  CSV streams have no ground-truth
drift positions, so their rows carry only alarms and accuracy.  Cells
of a matrix fail independently, and only while they are built: one
failing cell does not stop the others, and a run has no error path.

Execution is stream-major and seed-parallel, in three phases.  First
the parent builds every stream's cells: each cell's configuration and
detector, and the stream's recipe with its schedule checked (a CSV
stream is loaded once).  Then each (stream, run seed) is one task, which
generates that seed's stream and runs it through every live cell of the
stream with one ``prequential_runs`` call.  When there is more than one
task, the tasks run in ``min(available cores, tasks)`` processes forked
for the call, which inherit the built cells and take one task at a time,
so each process holds one stream at a time; a single task, one available
core or a platform without ``fork`` runs the tasks in-process.  Last, the
parent puts the runs back in (stream, run) order, scores and aggregates
them.  Output order stays cell-major (cells in the given order, runs by
index), and every run sees the same stream, a fresh learner and a reset
detector, exactly as a cell run alone would, so identical
configurations produce byte-identical CSV output on any number of cores.
"""

from __future__ import annotations

import csv
import os
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path
from typing import Optional

from .detectors import (ADWIN, CUSUM, DDM, EDDM, MDDM, RDDM, Arithmetic, DriftDetector, Euler,
                        Geometric, PageHinkley, fhddm)
from .detectors.mddm import DEFAULT_DELTA
from .errors import DataFormatError, UsageError, as_int, open_output
from .evaluation import AggregateRow, DriftScore, aggregate, score_run, unscored_row
from .learners import _parse_policy, prequential_runs
from .streams import (DEFAULT_LENGTH, DEFAULT_NOISE, FAMILIES, Stream, StreamSpec,
                      default_schedule, generate_stream, load_csv_stream)

# Window sizes and acceptable delays per stream family; wider windows and
# delays suit the gradually drifting streams, CSV streams behave like the
# abrupt ones.
WINDOW_DEFAULTS = {"sine1": 25, "mixed": 25, "circles": 100, "led": 100, "csv": 25}
ACCEPT_DELAY_DEFAULTS = {"sine1": 250, "mixed": 250, "circles": 1000, "led": 1000}


def _mddm(scheme):
    """Constructor of an MDDM whose weight scheme takes the extra keywords."""
    def build(n, delta, **scheme_params):
        return MDDM(scheme(**scheme_params), n=n, delta=delta)
    return build


# name -> (constructor, {--set key: constructor keyword}).  Only the keys
# the user set are passed, so every default is the constructor's own.
# "none" runs without a detector.
DETECTORS = {
    "mddm_a": (_mddm(Arithmetic), {"d": "d", "delta": "delta"}),
    "mddm_g": (_mddm(Geometric), {"r": "r", "delta": "delta"}),
    "mddm_e": (_mddm(Euler), {"lambda": "rate", "delta": "delta"}),
    "fhddm": (fhddm, {"delta": "delta"}),
    "cusum": (CUSUM, {"delta": "slack", "lambda": "threshold",
                      "min_instances": "min_instances"}),
    "page_hinkley": (PageHinkley, {"delta": "slack", "lambda": "threshold"}),
    "ddm": (DDM, {"warning_level": "warning_level", "drift_level": "drift_level",
                  "min_instances": "min_instances"}),
    "eddm": (EDDM, {"alpha": "alpha", "beta": "beta", "min_errors": "min_errors"}),
    "rddm": (RDDM, {"warning_level": "warning_level", "drift_level": "drift_level",
                    "max_concept": "max_concept", "min_stable": "min_stable",
                    "warn_limit": "warn_limit", "min_instances": "min_instances"}),
    "adwin": (ADWIN, {"delta": "delta", "max_window": "max_window"}),
    "none": (None, {}),
}

# The windowed detectors also take the cell's window as ``n`` and the
# --delta confidence as ``delta``; an explicit --set delta wins.
WINDOWED = frozenset({"mddm_a", "mddm_g", "mddm_e", "fhddm"})

# Stream --set keys that reshape the family's stock schedule, mapped to
# the keywords of streams.default_schedule.
SCHEDULE_KEYS = {"drift_every": "every", "zeta": "transition"}
STREAM_PARAM_KEYS = frozenset({"length", *SCHEDULE_KEYS})

RUN_CSV_FIELDS = ("stream", "detector", "seed", "run", "delay_mean", "tp",
                  "fp", "fn", "accuracy", "alarm_count")
AGG_CSV_FIELDS = ("stream", "detector", "runs",
                  "delay_mean_mean", "delay_mean_std", "tp_mean", "tp_std",
                  "fp_mean", "fp_std", "fn_mean", "fn_std",
                  "accuracy_mean", "accuracy_std", "alarms_mean", "alarms_std")


@dataclass(frozen=True)
class ExperimentConfig:
    """One (stream x detector) cell of the experiment matrix."""

    stream: str
    detector: str = "none"
    runs: int = 100
    seed: int = 1
    window_size: Optional[int] = None
    delta: float = DEFAULT_DELTA
    accept_delay: Optional[int] = None
    noise: float = DEFAULT_NOISE
    policy: str = "reset"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        name = self.detector.lower()
        object.__setattr__(self, "detector", name)
        kind, _ = _parse_policy(self.policy)
        if kind == "blind" and name != "none":
            raise UsageError("the blind policy runs without a detector; "
                             "use --detector none")
        if name not in DETECTORS:
            raise UsageError(
                f"unknown detector {self.detector!r}; valid names: "
                f"{', '.join(sorted(DETECTORS))}")
        if self.runs < 1:
            raise UsageError(f"runs must be >= 1, got {self.runs}")
        for name in ("window_size", "accept_delay"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise UsageError(f"{name} must be >= 1, got {value}")
        # Keys only need to be meaningful to SOME detector so one --set can
        # serve a whole matrix; each detector takes the keys it understands.
        known = STREAM_PARAM_KEYS.union(*(keys for _, keys in DETECTORS.values()))
        unknown = set(self.params) - known
        if unknown:
            raise UsageError(
                f"unknown parameter(s) {sorted(unknown)}; known keys: "
                f"{sorted(known)}")

    @property
    def is_csv(self) -> bool:
        return self.stream.lower() not in FAMILIES


@dataclass(frozen=True)
class RunResult:
    """Flat record of one run, ready for the per-run CSV."""

    stream: str
    detector: str
    seed: int
    run: int
    alarms: tuple[int, ...]
    accuracy: float
    score: Optional[DriftScore]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    aggregate: AggregateRow
    runs: list[RunResult]


def _stream_family(config: ExperimentConfig) -> str:
    return config.stream.lower() if not config.is_csv else "csv"


def _build_stream_spec(config: ExperimentConfig, seed: int) -> StreamSpec:
    params = config.params
    try:
        length = as_int("length", params.get("length", DEFAULT_LENGTH))
        reshape = {kw: as_int(key, params[key]) for key, kw in SCHEDULE_KEYS.items()
                   if key in params}
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # The spec checks the length before the schedule enumerates its drifts.
    spec = StreamSpec(family=config.stream, length=length, noise=config.noise, seed=seed)
    spec = replace(spec, schedule=default_schedule(spec.family, spec.length, **reshape))
    spec.resolved_schedule()  # before any stream is generated
    return spec


def _build_detector(config: ExperimentConfig, window: int):
    """The cell's detector, or None; out-of-domain values are usage errors."""
    constructor, keys = DETECTORS[config.detector]
    if constructor is None:
        return None
    kwargs = {"n": window, "delta": config.delta} if config.detector in WINDOWED else {}
    kwargs.update((kw, config.params[key]) for key, kw in keys.items() if key in config.params)
    try:
        return constructor(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _window(config: ExperimentConfig, length: int) -> int:
    """The cell's window; a windowed detector's must fit in the stream,
    or it could never fill and the detector never fire."""
    window = (WINDOW_DEFAULTS[_stream_family(config)] if config.window_size is None
              else config.window_size)
    if config.detector in WINDOWED and window > length:
        raise UsageError(f"window size {window} is longer than the stream "
                         f"({length} instances), so {config.detector} could never fire")
    return window


@dataclass(frozen=True)
class CellResult:
    """One matrix cell: its result, or the error that stopped it."""

    stream: str
    detector: str
    result: Optional[ExperimentResult]
    error: Optional[Exception]


@dataclass
class MatrixReport:
    """Results of a stream x detector matrix; failed cells keep their error."""

    cells: list[CellResult]

    @property
    def aggregates(self) -> list[AggregateRow]:
        return [c.result.aggregate for c in self.cells if c.result is not None]

    @property
    def errors(self) -> list[CellResult]:
        return [c for c in self.cells if c.error is not None]


# Errors that fail a cell while it is built, without stopping the matrix.
CELL_ERRORS = (UsageError, DataFormatError, OSError)


@dataclass(eq=False)
class _Cell:
    """A plan's cell: its configuration and detector, or what failed it."""

    name: str
    config: Optional[ExperimentConfig] = None
    detector: Optional[DriftDetector] = None
    error: Optional[Exception] = None


@dataclass
class _StreamPlan:
    """One stream's cells, built by the parent before any run, and its
    stream: ``spec`` of run 0 (run i takes seed + i) or ``csv_stream``."""

    stream: str
    cells: list[_Cell]
    spec: Optional[StreamSpec] = None
    csv_stream: Optional[Stream] = None

    @property
    def live(self) -> list[_Cell]:
        return [cell for cell in self.cells if cell.error is None]


def _plan_stream(stream: str, detectors: list[str], base: ExperimentConfig) -> _StreamPlan:
    """Build one stream's cells, ``base`` with the stream and each detector.

    This is the only place a cell fails.  The cells differ only in their
    detector, so the stream's recipe, its schedule checked, comes from the
    first valid configuration, and a recipe or CSV file that fails fails
    every cell.  Then a bad detector parameter fails its own cell, and so
    does a window longer than the stream, refused before any weights are
    built.
    """
    plan = _StreamPlan(stream, [])
    for name in detectors:
        try:
            plan.cells.append(_Cell(name, replace(base, stream=stream, detector=name)))
        except CELL_ERRORS as exc:
            plan.cells.append(_Cell(name, error=exc))
    if not plan.live:
        return plan
    first = plan.live[0].config
    try:
        if first.is_csv:
            plan.csv_stream = load_csv_stream(first.stream)
        else:
            plan.spec = _build_stream_spec(first, first.seed)
    except CELL_ERRORS as exc:
        for cell in plan.live:
            cell.error = exc
        return plan
    length = len(plan.csv_stream) if first.is_csv else plan.spec.length
    for cell in plan.live:
        try:
            cell.detector = _build_detector(cell.config, _window(cell.config, length))
        except CELL_ERRORS as exc:
            cell.error = exc
    return plan


def _run_seed(plan: _StreamPlan, run: int):
    """Run ``run`` of every live cell of ``plan``: one stream, one
    ``prequential_runs`` call.  Returns each live cell's ``(alarms,
    accuracy)`` with the stream's drift positions and length."""
    live = plan.live
    config = live[0].config
    data = (plan.csv_stream if plan.csv_stream is not None
            else generate_stream(replace(plan.spec, seed=config.seed + run)))
    for cell in live:
        if cell.detector is not None:
            cell.detector.reset()
    records = prequential_runs(data, [cell.detector for cell in live], policy=config.policy)
    return [(r.alarms, r.accuracy) for r in records], data.drift_positions, len(data)


# The plans of the call that forked this process, filled in by the pool's
# initializer; the parent's list stays empty.
_worker_plans: list[_StreamPlan] = []


def _run_in_worker(task: tuple[int, int]):
    plan, run = task
    return _run_seed(_worker_plans[plan], run)


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on this platform
        return os.cpu_count() or 1


def _run_tasks(plans: list[_StreamPlan], tasks: list[tuple[int, int]]) -> list:
    """Each ``(plan index, run)`` task's outcome, in task order.

    With more than one task and core, the tasks run in ``min(cores,
    tasks)`` processes forked for the call, one task at a time.  Fork
    lets them inherit the built plans and the imported package, which a
    fresh interpreter would rebuild; a task sends back only its outcome.
    Otherwise, and where fork is missing, the tasks run in this process.
    The workers are joined before this returns, also when a task raises
    or a worker dies.
    """
    processes = min(_cores(), len(tasks))
    if processes > 1:
        # Imported here: a call of one task needs no pool, and a cold
        # import of multiprocessing costs about 20 ms.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(processes, multiprocessing.get_context("fork"),
                                       _worker_plans.extend, (plans,))
            try:
                return list(pool.map(_run_in_worker, tasks))
            finally:
                pool.shutdown(cancel_futures=True)
    return [_run_seed(plans[plan], run) for plan, run in tasks]


def _run_plans(plans: list[_StreamPlan]) -> list[CellResult]:
    """Every plan's cells, in order: one task per (stream, run), the
    results gathered back in (stream, run) order."""
    tasks = [(p, run) for p, plan in enumerate(plans) if plan.live
             for run in range(plan.live[0].config.runs)]
    outcomes = _run_tasks(plans, tasks)
    cells = []
    for p, plan in enumerate(plans):
        runs, live = [o for (q, _), o in zip(tasks, outcomes) if q == p], plan.live
        for cell in plan.cells:
            result = None if cell.error else _cell_result(cell.config, runs, live.index(cell))
            cells.append(CellResult(plan.stream, cell.name, result, cell.error))
    return cells


def _cell_result(config: ExperimentConfig, outcomes: list, k: int) -> ExperimentResult:
    """Live cell ``k``'s runs, scored, and their aggregate."""
    family = _stream_family(config)
    accept_delay = (ACCEPT_DELAY_DEFAULTS.get(family) if config.accept_delay is None
                    else config.accept_delay)
    runs = []
    for run, (records, drift_positions, length) in enumerate(outcomes):
        alarms, accuracy = records[k]
        score = None if config.is_csv else score_run(
            alarms, drift_positions, accept_delay, length, accuracy)
        runs.append(RunResult(config.stream, config.detector, config.seed + run, run,
                              alarms, accuracy, score))
    alarm_counts = [len(r.alarms) for r in runs]
    if config.is_csv:
        agg = unscored_row(config.stream, config.detector,
                           [r.accuracy for r in runs], alarm_counts)
    else:
        agg = aggregate([r.score for r in runs], stream=config.stream,
                        detector=config.detector, alarm_counts=alarm_counts)
    return ExperimentResult(config, agg, runs)


def run_matrix(streams: list[str], detectors: list[str],
               base: ExperimentConfig, out: Optional[str] = None) -> MatrixReport:
    """Run every (stream, detector) cell of ``base``; cell failures are isolated.
    ``out`` names the per-run CSV, written with its ``_aggregate`` twin."""
    _probe_outputs(out)
    report = MatrixReport(_run_plans([_plan_stream(s, detectors, base) for s in streams]))
    if out:
        write_run_csv(out, [run for c in report.cells if c.result is not None
                            for run in c.result.runs])
        write_aggregate_csv(_aggregate_path(out), report.aggregates)
    return report


def _probe_outputs(out) -> None:
    """Open both output paths of ``out`` to append, which creates them and
    truncates nothing, so an unwritable one fails before any run."""
    if out:
        for path in (out, _aggregate_path(out)):
            open_output(path, "a").close()


def _aggregate_path(out) -> Path:
    path = Path(out)
    return path.with_name(path.stem + "_aggregate" + (path.suffix or ".csv"))


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def write_run_csv(path, runs: list[RunResult]) -> None:
    with open_output(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RUN_CSV_FIELDS)
        for r in runs:
            s = r.score
            scored = (s.mean_delay, s.tp, s.fp, s.fn) if s else (None,) * 4
            writer.writerow([r.stream, r.detector, r.seed, r.run,
                             *map(_fmt, scored), _fmt(r.accuracy), len(r.alarms)])


def write_aggregate_csv(path, rows: list[AggregateRow]) -> None:
    with open_output(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(AGG_CSV_FIELDS)
        for row in rows:  # AggregateRow's fields are in AGG_CSV_FIELDS order
            writer.writerow([_fmt(value) for value in astuple(row)])


def format_console_table(rows: list[AggregateRow]) -> str:
    """Fixed-width summary grouped by stream, accuracy shown in percent."""
    lines = []
    header = (f"{'stream':<12} {'detector':<14} {'delay':>18} {'tp':>12} "
              f"{'fp':>14} {'fn':>12} {'accuracy %':>16} {'alarms':>14}")
    current = None
    for row in rows:
        if row.stream != current:
            if current is not None:
                lines.append("")
            lines.append(header)
            lines.append("-" * len(header))
            current = row.stream
        def pair(mean, std, scale=1.0):
            if mean is None:
                return "-"
            return f"{mean * scale:.2f} ± {std * scale:.2f}"
        lines.append(
            f"{row.stream:<12} {row.detector:<14} "
            f"{pair(row.delay_mean, row.delay_std):>18} "
            f"{pair(row.tp_mean, row.tp_std):>12} "
            f"{pair(row.fp_mean, row.fp_std):>14} "
            f"{pair(row.fn_mean, row.fn_std):>12} "
            f"{pair(row.accuracy_mean, row.accuracy_std, 100.0):>16} "
            f"{pair(row.alarms_mean, row.alarms_std):>14}")
    return "\n".join(lines)
