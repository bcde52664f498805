"""Smoke test of the benchmark in its quick mode (short streams).

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _sections(stdout: str) -> dict:
    """Output of ``--workload all``, split by its ``== <name> trace=<t>`` headers."""
    sections, current = {}, None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = sections.setdefault(line[3:], [])
        elif current is not None:
            current.append(line)
    return sections


def test_quick_run_reports_every_metric_with_its_unit():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "1", "--length", "3000"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    sections = _sections(done.stdout)
    for workload in BENCHMARK["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            lines = sections[f"{workload['name']} trace={trace}"]
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
            table = {parts[0]: parts[1:] for parts in map(str.split, lines[1:-1])
                     if len(parts) == 3}
            for name, unit in expected.items():
                assert table[name][1] == unit, name
            assert table["fail_ratio"] == ["0", "ratio"]


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "abrupt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
