"""Experiment runner: multi-seed cells of (stream x detector) with CSV output.

A cell runs R independent prequential runs (run i uses seed base + i),
scores synthetic runs against the stream's drift schedule, and
aggregates into a mean +/- std row.  CSV streams have no ground-truth
drift positions, so their rows carry only alarms and accuracy.  Cells
of a matrix fail independently: one failing cell does not stop the
others.

Execution is stream-major and seed-parallel, in three phases.  First
the parent builds every stream's cells: each cell's configuration and
detector, and the stream's recipe (a CSV stream is loaded once).  Then
each (stream, run seed) is one task, which generates that seed's stream
and runs it through every live cell of the stream with one
``prequential_runs`` call.  When there is more than one task, the tasks
run in ``min(available cores, tasks)`` processes forked for the call,
which inherit the built cells and take one task at a time, so each
process holds one stream at a time; a single task, one available core
or a platform without ``fork`` runs the tasks in-process.  Last, the
parent puts the runs back in (stream, run) order, scores and aggregates
them.  Output order stays cell-major (cells in the given order, runs by
index), and every run sees the same stream, a fresh learner and a reset
detector, exactly as a cell run alone would, so identical
configurations produce byte-identical CSV output on any number of cores.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from .detectors import ADWIN, CUSUM, DDM, EDDM, MDDM, RDDM, Arithmetic, Euler, Geometric, PageHinkley, fhddm
from .detectors.mddm import DEFAULT_DELTA
from .errors import DataFormatError, UsageError, as_int
from .evaluation import AggregateRow, DriftScore, aggregate, score_run, unscored_row
from .learners import prequential_runs
from .streams import (DEFAULT_LENGTH, DEFAULT_NOISE, Stream, StreamSpec, default_schedule,
                      generate_stream, load_csv_stream)

SYNTHETIC_FAMILIES = ("sine1", "mixed", "circles", "led")

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
    out: Optional[str] = None

    def __post_init__(self):
        name = self.detector.lower()
        object.__setattr__(self, "detector", name)
        if self.policy.startswith("blind") and name != "none":
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
        return self.stream.lower() not in SYNTHETIC_FAMILIES


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
    return replace(spec, schedule=default_schedule(spec.family, spec.length, **reshape))


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


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute one cell: R runs, scoring, aggregation, optional CSV output.

    This is the one-cell case of :func:`run_matrix`; the cell's error, if
    any, is raised.
    """
    cell, = _run_plans([_plan_stream(config.stream, [config.detector],
                                     lambda detector: config)])
    if cell.error is not None:
        raise cell.error
    if config.out:
        write_run_csv(config.out, cell.result.runs)
        write_aggregate_csv(_aggregate_path(config.out), [cell.result.aggregate])
    return cell.result


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


# Errors that fail a cell without stopping the matrix.
CELL_ERRORS = (UsageError, DataFormatError, OSError)


@dataclass
class _StreamPlan:
    """One stream's cells, built by the parent before any run.

    ``cells`` holds, per name in ``detectors``, the cell's ``(config,
    detector)`` or the error that failed it.  The runs read ``first``, the
    first valid configuration, and either ``spec``, the stream of run 0
    (run i takes seed + i), or ``csv_stream``, loaded once.
    """

    stream: str
    detectors: list[str]
    cells: list
    first: Optional[ExperimentConfig] = None
    spec: Optional[StreamSpec] = None
    csv_stream: Optional[Stream] = None

    @property
    def live(self) -> list:
        return [cell for cell in self.cells if not isinstance(cell, Exception)]


def _plan_stream(stream: str, detectors: list[str],
                 config_of: Callable[..., ExperimentConfig]) -> _StreamPlan:
    """Build one stream's cells, ``config_of(detector=name)`` each.

    The cells differ only in their detector, so the stream's recipe comes
    from the first valid configuration, and a recipe or CSV file that
    fails fails every cell.  Then each cell's detector is built: a bad
    parameter fails its own cell before any run, and so does a window
    longer than the stream, refused before any weights are built.
    """
    cells: list = []
    for name in detectors:
        try:
            cells.append(config_of(detector=name))
        except CELL_ERRORS as exc:
            cells.append(exc)
    configs = [cell for cell in cells if not isinstance(cell, Exception)]
    if not configs:
        return _StreamPlan(stream, detectors, cells)
    first = configs[0]
    spec = csv_stream = None
    try:
        if first.is_csv:
            csv_stream = load_csv_stream(first.stream)
        else:
            spec = _build_stream_spec(first, first.seed)
    except CELL_ERRORS as exc:
        return _StreamPlan(stream, detectors,
                           [cell if isinstance(cell, Exception) else exc for cell in cells])
    length = len(csv_stream) if csv_stream is not None else spec.length
    for k, cell in enumerate(cells):
        if not isinstance(cell, Exception):
            try:
                cells[k] = (cell, _build_detector(cell, _window(cell, length)))
            except CELL_ERRORS as exc:
                cells[k] = exc
    return _StreamPlan(stream, detectors, cells, first, spec, csv_stream)


def _run_seed(plan: _StreamPlan, run: int):
    """Run ``run`` of every live cell of ``plan``: one stream, one
    ``prequential_runs`` call.  Returns each live cell's ``(alarms,
    accuracy)`` with the stream's drift positions and length, or the cell
    error that stopped the run."""
    detectors = [detector for _, detector in plan.live]
    try:
        data = (plan.csv_stream if plan.csv_stream is not None
                else generate_stream(replace(plan.spec, seed=plan.first.seed + run)))
        for detector in detectors:
            if detector is not None:
                detector.reset()
        records = prequential_runs(data, detectors, policy=plan.first.policy)
    except CELL_ERRORS as exc:
        return exc
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
             for run in range(plan.first.runs)]
    outcomes = _run_tasks(plans, tasks)
    cells, done = [], 0
    for plan in plans:
        runs = plan.first.runs if plan.live else 0
        cells += _collect(plan, outcomes[done:done + runs])
        done += runs
    return cells


def _collect(plan: _StreamPlan, outcomes: list) -> list[CellResult]:
    """The plan's cells from its runs' outcomes, in run order.  A cell
    error in any run fails every live cell with the error of the lowest
    run index, as a loop over the runs that stopped there would."""
    failed = next((o for o in outcomes if isinstance(o, Exception)), None)
    cells, k = [], 0
    for name, cell in zip(plan.detectors, plan.cells):
        if isinstance(cell, Exception) or failed is not None:
            error = cell if isinstance(cell, Exception) else failed
            cells.append(CellResult(plan.stream, name, None, error))
        else:
            cells.append(CellResult(plan.stream, name, _cell_result(cell[0], outcomes, k), None))
            k += 1
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
    """Run every (stream, detector) cell; cell failures are isolated."""
    report = MatrixReport(_run_plans([
        _plan_stream(stream, detectors, partial(replace, base, stream=stream, out=None))
        for stream in streams]))
    if out:
        write_run_csv(out, [run for c in report.cells if c.result is not None
                            for run in c.result.runs])
        write_aggregate_csv(_aggregate_path(out), report.aggregates)
    return report


def _aggregate_path(out) -> Path:
    path = Path(out)
    return path.with_name(path.stem + "_aggregate" + (path.suffix or ".csv"))


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def write_run_csv(path, runs: list[RunResult]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RUN_CSV_FIELDS)
        for r in runs:
            score = r.score
            writer.writerow([
                r.stream, r.detector, r.seed, r.run,
                _fmt(score.mean_delay if score else None),
                _fmt(score.tp if score else None),
                _fmt(score.fp if score else None),
                _fmt(score.fn if score else None),
                _fmt(r.accuracy), len(r.alarms),
            ])


def write_aggregate_csv(path, rows: list[AggregateRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(AGG_CSV_FIELDS)
        for row in rows:
            writer.writerow([
                row.stream, row.detector, row.runs,
                _fmt(row.delay_mean), _fmt(row.delay_std),
                _fmt(row.tp_mean), _fmt(row.tp_std),
                _fmt(row.fp_mean), _fmt(row.fp_std),
                _fmt(row.fn_mean), _fmt(row.fn_std),
                _fmt(row.accuracy_mean), _fmt(row.accuracy_std),
                _fmt(row.alarms_mean), _fmt(row.alarms_std),
            ])


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
