"""Checks of the benchmark itself; run with `python -m pytest bench`."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args):
    return subprocess.run(
        [sys.executable, str(RUN), *args], capture_output=True, text=True, timeout=600
    )


def test_smoke_runs_every_workload_without_failures():
    done = _run("--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    for workload in SPEC["workloads"]:
        assert f"{workload['name']}:" in done.stdout


def test_list_names_every_metric_with_its_unit():
    done = _run("--list")
    assert done.returncode == 0, done.stderr
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"{metric['name']} [{metric['unit']}]" in done.stdout
