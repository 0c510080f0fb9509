"""netform benchmark: whole CLI commands on three seeded workloads.

    python3 bench/run.py --workload full-search --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --list      # every metric with its unit and prediction
    python3 bench/run.py --smoke     # tiny inputs, each workload once

Run from anywhere inside a checkout; it works in the checkout root and
writes only under `.bench_work/` and the bytecode cache in `src/`.  One closed-loop client runs one
command at a time, each as a fresh `python -m netform.cli` process with
`PYTHONPATH=src` (a cold pass), then the same list in this process
through `netform.cli.main(argv)` (a warm pass).  Every output is checked
after the pass that produced it, outside the timed region.

The end-to-end times are in nominal seconds.  On a shared 2-vCPU VM the
host's speed changed by up to 1.7x for minutes at a time, which no
median within a run can take out.  So each timed sample (a set-up, a
cold command, a command of a warm pass) is preceded by a yardstick: a
bare isolated interpreter start (`python -I -c pass`, which no file of
the repository can reach).  The sample is scaled by NOMINAL_START_S over
the yardstick's time.  The program's own time moves the scaled value as
it moves the raw one; the host's speed moves both the sample and its
yardstick.  The record keeps the median yardstick and the unscaled
medians.  Per-module metrics are raw seconds.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-module metrics, from warm passes run with every call into the
engine's modules wrapped in a span (see tracing.py).  The last line of
stdout is the result object; the line before it, and
`.bench_work/<workload>/result-seed<seed>-trace<t>.json`, hold the record
(revision, interpreter, inputs, predictions, failures).
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, the working directory
ENV = dict(os.environ, PYTHONPATH=str(SRC))
# commands run with a bytecode cache, as an installed package does, whatever
# the calling shell says; the cache lands in src/netform/__pycache__
ENV.pop("PYTHONDONTWRITEBYTECODE", None)
SETUP_CODE = "import netform.cli as c; c.build_parser()"
YARDSTICK = [sys.executable, "-I", "-c", "pass"]
NOMINAL_START_S = 0.05  # about the yardstick's time on an idle 2-vCPU VM
YARDSTICK_EVERY_S = 0.2  # a sample starting sooner reuses the last yardstick

MIN_PASSES = 4  # cold passes per timed run, whatever --seconds says
WARM_MIN_S = 1.0  # warm passes repeat within an iteration until this long
SETUP_EACH = 2  # set-up samples per timed pass
SETUP_EACH_TRACED = 5  # set-up and bare start-up samples per traced pass
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
COMMAND_TIMEOUT_S = 60  # a command still running then is killed and counts as failed

# which end-to-end metric, on which workload, each per-module metric
# should move when its module gets faster
PREDICTIONS = {
    "interpreter.start_s": "attributes setup_s and cmd_p50_s gains on bundled-cli",
    "import.netform_s": "setup_s and cmd_p50_s on bundled-cli",
    "instance_io.load_s": "pass_s on large-batch",
    "instance_io.load_bytes": "pass_s on large-batch",
    "model.validate_s": "pass_s on large-batch",
    "instance_io.save_s": "pass_s and peak_rss_mb on large-batch",
    "instance_io.save_bytes": "pass_s and peak_rss_mb on large-batch",
    "datasets.random_instance_s": "pass_s and peak_rss_mb on large-batch",
    "datasets.candidates": "pass_s and peak_rss_mb on large-batch",
    "formation.form_s": "pass_s on large-batch",
    "formation.calls": "pass_s on large-batch",
    "formation.arcs": "pass_s on large-batch",
    "payoffs.payoff_vector_s": "pass_s on large-batch",
    "payoffs.calls": "pass_s on large-batch",
    "payoffs.active_ratio": "pass_s on large-batch",
    "stability.is_stable_s": "pass_s, warm_pass_s and cmd_p50_s on full-search",
    "stability.is_stable_calls": "pass_s, warm_pass_s and cmd_p50_s on full-search",
    "stability.search_space": "pass_s, warm_pass_s and cmd_p50_s on full-search",
    "stability.unstable_ratio": "pass_s, warm_pass_s and cmd_p50_s on full-search",
    "stability.restricted_s": "pass_s on large-batch",
    "stability.restricted_pairs": "pass_s on large-batch",
    "stability.reachable_ratio": "pass_s on large-batch",
    "stability.check_disjoint_s": "pass_s on large-batch",
    "compromise.solution_s": "pass_s on large-batch",
    "compromise.cells": "pass_s on large-batch",
    "cli.self_s": "warm_pass_s on large-batch and bundled-cli",
    "cli.pass_s": "pass_s on the same workload (the --jobs 1 pass beside cli.pool_pass_s)",
    "cli.pool_pass_s": "none: the --jobs 2 pass, kept to decide whether --jobs stays",
    "trace.overhead_s": "none: the cost of tracing itself",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


# ---- running commands


def run_cold(argv, out_path: Path, err_path: Path) -> tuple[float, int, int]:
    """Wall seconds, exit code and max RSS (KiB) of one fresh CLI process."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "netform.cli", *argv], stdout=out, stderr=err, env=ENV
        )
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def run_python(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=ENV, check=True)
    return time.perf_counter() - start


def yardstick_s() -> float:
    """Mean time of two bare starts: back to back, two starts differ by
    about 15%, which one start alone would add to every scaled sample."""
    start = time.perf_counter()
    for _ in range(2):
        subprocess.run(YARDSTICK, check=True)
    return (time.perf_counter() - start) / 2


def run_warm(main, argv) -> tuple[float, int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, reported with its traceback
            traceback.print_exc()
            code = None
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def problem(cmd, code, out: str, err: str) -> str | None:
    if "Traceback (most recent call last)" in err:
        return "traceback on stderr: " + err.strip().splitlines()[-1]
    if code != cmd.expect_code:
        return f"exit code {code}, expected {cmd.expect_code}"
    try:
        return cmd.check(out)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


class Run:
    """Samples and failures of one benchmark run of one workload."""

    def __init__(self, workload, work: Path):
        self.wl = workload
        self.work = work
        self.attempted = 0
        self.failures: list[dict] = []
        self.cmd_samples: list[float] = []
        self.rss_kib = 0
        self.yardsticks: list[float] = []
        self._yardstick_at = 0.0
        self.raw: dict[str, list[float]] = {"setup": [], "cmd": [], "pass": [], "warm": []}
        self._allowed = os.sched_getaffinity(0)
        self._cpus = itertools.cycle(sorted(self._allowed))

    def pin(self) -> None:
        """Move this process, and so the next child it starts, to the next
        allowed CPU.  On a shared VM each virtual CPU has slow spells of its
        own lasting minutes; taking each cold command, set-up sample and warm
        pass on the next CPU in turn averages them instead of letting one CPU's spell set a whole run.
        On a 2-vCPU VM this cut the spread of 30 s medians of the
        large-batch pass time from 0.17-0.28 to 0.06-0.11."""
        os.sched_setaffinity(0, {next(self._cpus)})

    def scale(self, scaled: bool) -> float:
        """Nominal seconds per second of this host, now: 1 when unscaled,
        else from the yardstick taken just before, unless the last one is
        recent.  The host's speed changes within a second: on a 2-vCPU VM
        the yardstick just before a cold command tracked it better than a
        median of the last 3 to 25 did, and scaling each command of a
        3-second warm pass by its own yardstick left 0.035 of the pass
        time's variation, against 0.136 for one yardstick per pass."""
        if not scaled:
            return 1.0
        if not self.yardsticks or time.perf_counter() - self._yardstick_at > YARDSTICK_EVERY_S:
            self.yardsticks.append(yardstick_s())
            self._yardstick_at = time.perf_counter()
        return NOMINAL_START_S / self.yardsticks[-1]

    def timed_python(self, code: str, scaled: bool = False) -> float:
        self.pin()
        factor = self.scale(scaled)
        seconds = run_python(code)
        if scaled:
            self.raw["setup"].append(seconds)
        return seconds * factor

    def _judge(self, phase: str, cmd, code, out: str, err: str) -> None:
        self.attempted += 1
        why = problem(cmd, code, out, err)
        if why:
            self.failures.append({"phase": phase, "argv": cmd.argv, "problem": why})

    def cold_pass(self, extra=None, phase: str = "cold", scaled: bool = False) -> float:
        """One fresh process per command; `extra` holds added arguments per
        command.  Returns the sum of the command times: the pass's time
        without the yardsticks between commands.  Only the plain cold pass
        feeds the command samples.  The pool pass keeps every CPU, so that
        its workers can spread."""
        extra = extra or [[] for _ in self.wl.commands]
        results = []
        for k, cmd in enumerate(self.wl.commands):
            out, err = self.work / f"cmd{k}.out", self.work / f"cmd{k}.err"
            if phase == "pool":
                os.sched_setaffinity(0, self._allowed)
            else:
                self.pin()
            factor = self.scale(scaled)
            results.append((factor, *run_cold(cmd.argv + extra[k], out, err)))
        for k, (cmd, (factor, seconds, code, rss)) in enumerate(zip(self.wl.commands, results)):
            out = (self.work / f"cmd{k}.out").read_text(encoding="utf-8")
            err = (self.work / f"cmd{k}.err").read_text(encoding="utf-8")
            self._judge(phase, cmd, code, out, err)
            if phase == "cold":
                self.cmd_samples.append(seconds * factor)
                self.rss_kib = max(self.rss_kib, rss)
        if scaled:
            self.raw["cmd"] += [seconds for _, seconds, _, _ in results]
            self.raw["pass"].append(sum(seconds for _, seconds, _, _ in results))
        return sum(factor * seconds for factor, seconds, _, _ in results)

    def warm_pass(self, main, phase: str = "warm", scaled: bool = False) -> float:
        """The sum of the command times, each scaled on its own."""
        results = []
        self.pin()  # once per pass: moving between commands would cool the caches
        for cmd in self.wl.commands:
            factor = self.scale(scaled)
            results.append((factor, *run_warm(main, cmd.argv)))
        for cmd, (_, _, code, out, err) in zip(self.wl.commands, results):
            self._judge(phase, cmd, code, out, err)
        if scaled:
            self.raw["warm"].append(sum(seconds for _, seconds, _, _, _ in results))
        return sum(factor * seconds for factor, seconds, _, _, _ in results)


def tail_percentile(samples_at_least: int) -> int:
    """Highest whole percentile that leaves TAIL_BEYOND samples above it."""
    return max(1, min(99, math.floor(100 * (1 - TAIL_BEYOND / samples_at_least))))


def percentile(samples, p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def compile_once() -> None:
    run_python(SETUP_CODE)  # writes the bytecode cache, untimed


def jobs_flag(cli, argv) -> list:
    """`--jobs 2` when the command accepts the flag, else nothing."""
    with redirect_stderr(io.StringIO()):
        try:
            cli.build_parser().parse_args(argv + ["--jobs", "2"])
        except SystemExit:
            return []
    return ["--jobs", "2"]


def measure_end_to_end(run: Run, seconds: float, min_passes: int, setup_each: int) -> tuple[dict, dict]:
    from netform import cli

    compile_once()
    setup, passes, warm = [], [], []
    began = time.perf_counter()
    while True:
        # set-up samples are spread over the run like every other sample,
        # so a slow spell on the host weighs on all metrics alike
        setup += [run.timed_python(SETUP_CODE, scaled=True) for _ in range(setup_each)]
        passes.append(run.cold_pass(scaled=True))
        warm_began = time.perf_counter()
        while True:
            warm.append(run.warm_pass(cli.main, scaled=True))
            if time.perf_counter() - warm_began >= min(WARM_MIN_S, seconds):
                break
        elapsed = time.perf_counter() - began
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    p = tail_percentile(min_passes * len(run.wl.commands))
    metrics = {
        "setup_s": statistics.median(setup),
        "cmd_p50_s": statistics.median(run.cmd_samples),
        "cmd_tail_s": percentile(run.cmd_samples, p),
        "pass_s": statistics.median(passes),
        "warm_pass_s": statistics.median(warm),
        "peak_rss_mb": run.rss_kib / 1024,
        "ok_ratio": (run.attempted - len(run.failures)) / run.attempted,
    }
    record = {
        "cold_passes": len(passes),
        "warm_passes": len(warm),
        "cmd_samples": len(run.cmd_samples),
        "cmd_tail_percentile": p,
        "failed_ratio": len(run.failures) / run.attempted,
        "yardstick_median_s": statistics.median(run.yardsticks),
        "unscaled_medians_s": {k: statistics.median(v) for k, v in run.raw.items()},
    }
    return metrics, record


def measure_layers(run: Run, seconds: float, setup_each: int) -> tuple[dict, dict]:
    from netform import cli
    from tracing import Tracer, instrument, layer_metrics

    compile_once()
    setup, start = [], []
    pool = [jobs_flag(cli, cmd.argv) for cmd in run.wl.commands]
    has_pool = any(pool)
    rows, began, tracer = [], time.perf_counter(), None
    while True:
        for _ in range(setup_each):
            setup.append(run.timed_python(SETUP_CODE))
            start.append(run.timed_python("pass"))
        tracer = Tracer()
        with instrument(tracer):
            traced = run.warm_pass(tracer.wrap("cli.main", cli.main), phase="traced")
        plain = run.warm_pass(cli.main)
        row = layer_metrics(tracer)
        row["trace.overhead_s"] = traced - plain
        row["cli.pass_s"] = run.cold_pass(phase="cold-trace")
        if has_pool:
            row["cli.pool_pass_s"] = run.cold_pass(pool, phase="pool")
        rows.append(row)
        elapsed = time.perf_counter() - began
        if elapsed * (len(rows) + 1) / len(rows) > seconds:
            break
    metrics = {
        "interpreter.start_s": statistics.median(start),
        "import.netform_s": statistics.median(setup) - statistics.median(start),
    }
    metrics.update({name: statistics.median(r[name] for r in rows) for name in rows[0]})
    _, own = tracer.totals()
    record = {
        "traced_passes": len(rows),
        "self_s_by_span": dict(sorted(own.items(), key=lambda kv: -kv[1])),
        "count_errors": tracer.counts["trace.count_errors"],
        "absent": [] if has_pool else ["cli.pool_pass_s"],
    }
    (run.work / "spans.json").write_text(
        json.dumps({"fields": ["id", "parent", "name", "start", "end"], "spans": tracer.spans}),
        encoding="utf-8",
    )
    return metrics, record


# ---- the record


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def with_units(values: dict, declared: list) -> dict:
    units = {m["name"]: m["unit"] for m in declared}
    return {name: {"value": values[name], "unit": units[name]} for name in units if name in values}


def prepare(name: str, seed: int, small: bool):
    if not (SRC / "netform" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        fail(f"no netform source under {ROOT}: expected src/netform and tests/oracles.py")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import workloads

    work = WORK / name / ("smoke" if small else "")
    wl = workloads.build(name, seed, work, small)
    # the expected answers are many small objects; keep the collector from
    # scanning them during warm passes, where it would bill them to netform
    gc.collect()
    gc.freeze()
    return wl, work


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl, work = prepare(name, seed, small=False)
    run = Run(wl, work)
    if trace:
        metrics, record = measure_layers(run, seconds, SETUP_EACH_TRACED)
        declared = spec["per_layer"]
    else:
        metrics, record = measure_end_to_end(run, seconds, MIN_PASSES, SETUP_EACH)
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    missing = [m for m in missing if m not in record.get("absent", [])]
    if missing:
        fail(f"metrics not measured: {missing}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        git_sha=git_sha(),
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        why=why[name],
        predictions=PREDICTIONS,
        inputs=wl.inputs,
        commands=[cmd.argv for cmd in wl.commands],
        failures=run.failures[:20],
    )
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": with_units(metrics, declared),
    }
    record["result"] = result
    (work / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    for f in run.failures[:5]:
        print(f"bench: failed {f['phase']} {' '.join(f['argv'])}: {f['problem']}", file=sys.stderr)
    return {"record": record, "result": result}


def list_metrics(spec: dict) -> None:
    for w in spec["workloads"]:
        print(f"workload {w['name']}: {w['why']}")
    for m in spec["end_to_end"]:
        print(f"end_to_end {m['name']} [{m['unit']}] {m['better']} is better, bound {m['bound']}")
    for m in spec["per_layer"]:
        print(f"per_layer {m['name']} [{m['unit']}] -> {PREDICTIONS[m['name']]}")


def smoke(spec: dict) -> int:
    """Each workload's command list once at tiny sizes, both metric sets."""
    bad = 0
    for w in spec["workloads"]:
        wl, work = prepare(w["name"], 0, small=True)
        run = Run(wl, work)
        e2e, _ = measure_end_to_end(run, 0, 1, 1)
        layers, record = measure_layers(run, 0, 1)
        got = set(e2e) | set(layers) | set(record["absent"])
        missing = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] if m["name"] not in got]
        status = "ok" if not run.failures and not missing else "FAILED"
        bad += status != "ok"
        print(f"{w['name']}: {run.attempted} commands, {len(run.failures)} failed, missing {missing}: {status}")
        for f in run.failures[:5]:
            print(f"  {f['phase']} {' '.join(f['argv'])}: {f['problem']}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric with its unit")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, each workload once")
    args = parser.parse_args()
    os.chdir(ROOT)
    spec = load_spec()
    if args.list:
        list_metrics(spec)
        return 0
    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    out = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": {k: out["record"][k] for k in ("workload", "seed", "git_sha", "python", "nproc", "inputs")}}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
