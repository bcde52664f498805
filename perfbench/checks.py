"""Output checks: invariants on every run, digests against a reference.

The unit of failure is one prequential run, named by a key
``"<matrix label>|<stream>,<detector>,<seed>"``.  A run fails if its
cell raised, its row is missing from the per-run CSV, it breaks an
invariant (alarms strictly increasing and inside the stream, TP + FN
equal to the scheduled drifts), or its CSV row, or the aggregate row of
its cell, differs from an expected digest.  Expected digests come from
``reference.json`` (recorded at the default seed) or, in the traced
run, from the untraced run of the same round.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from driftbench import default_schedule

from workloads import Matrix

REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class MatrixOutput:
    """What one matrix call produced: run records, failed cells, CSV text."""

    matrix: Matrix
    base_seed: int
    runs: int                       # runs per cell
    records: list                   # experiments.RunResult, in row order
    errors: list[tuple[str, str]]   # (stream, detector) of cells that raised
    run_csv: str
    agg_csv: str

    def run_keys(self, stream: str, detector: str) -> list[str]:
        return [f"{self.matrix.label}|{stream},{detector},{self.base_seed + i}"
                for i in range(self.runs)]

    def all_run_keys(self) -> list[str]:
        return [k for s in self.matrix.streams for d in self.matrix.detectors
                for k in self.run_keys(s, d)]


def _digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def digests(out: MatrixOutput) -> tuple[dict, dict]:
    """Digest of every per-run row and every aggregate row, by key."""
    label = out.matrix.label
    rows = {}
    for line in out.run_csv.splitlines()[1:]:
        stream, detector, seed = line.split(",")[:3]
        rows[f"{label}|{stream},{detector},{seed}"] = _digest(line)
    aggs = {}
    for line in out.agg_csv.splitlines()[1:]:
        stream, detector = line.split(",")[:2]
        aggs[f"{label}|{out.base_seed}|{stream},{detector}"] = _digest(line)
    return rows, aggs


def invariant_failures(out: MatrixOutput, length: int) -> set[str]:
    """Runs that raised, lack a CSV row, or break a scoring invariant."""
    bad = set()
    for stream, detector in out.errors:
        bad.update(out.run_keys(stream, detector))
    label = out.matrix.label
    for record in out.records:
        key = f"{label}|{record.stream},{record.detector},{record.seed}"
        drifts = len(default_schedule(record.stream, length).positions)
        alarms = record.alarms
        if (any(b <= a for a, b in zip(alarms, alarms[1:]))
                or any(not 0 <= a < length for a in alarms)
                or record.score is None
                or record.score.tp + record.score.fn != drifts):
            bad.add(key)
    rows, _ = digests(out)
    bad.update(k for k in out.all_run_keys() if k not in rows)
    return bad


def mismatches(out: MatrixOutput, expected_rows: dict, expected_aggs: dict) -> set[str]:
    """Runs whose row, or whose cell's aggregate row, differs from the
    expected digest; keys absent from the expectation are not judged."""
    rows, aggs = digests(out)
    bad = {k for k, d in rows.items() if expected_rows.get(k, d) != d}
    for stream in out.matrix.streams:
        for detector in out.matrix.detectors:
            key = f"{out.matrix.label}|{out.base_seed}|{stream},{detector}"
            if key in aggs and expected_aggs.get(key, aggs[key]) != aggs[key]:
                bad.update(out.run_keys(stream, detector))
    return bad


def load_reference(workload: str) -> tuple[dict, dict]:
    entry = json.loads(REFERENCE.read_text()).get(workload, {}) if REFERENCE.exists() else {}
    return entry.get("rows", {}), entry.get("aggregates", {})


def record_reference(workload: str, outputs: list[MatrixOutput]) -> None:
    """Merge the digests of ``outputs`` into the stored reference."""
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    entry = stored.setdefault(workload, {"rows": {}, "aggregates": {}})
    for out in outputs:
        rows, aggs = digests(out)
        entry["rows"].update(rows)
        entry["aggregates"].update(aggs)
    REFERENCE.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")
