"""gtflow benchmark: three CLI workloads, end-to-end metrics, per-layer spans.

Usage, from the repository root:

    python3 perfbench/run.py --workload dsvm-logq --seed 0 --seconds 42 --trace 0

Every repetition runs the real CLI (``python -m gtflow.cli`` with ``src`` on
PYTHONPATH) in a fresh single process with one BLAS/OpenMP thread. The
workload's config comes from ``perfbench/workloads/<name>.json``; input
variant ``v`` adds ``v`` to every seed field of that config, so variant 0
is the config as written. The seed selects ``SPAN`` consecutive variants,
``seed``, ``seed + 1``, ... modulo ``VARIANTS``, and successive repetitions
cycle through them: the run time depends on the input (on
``spectral-sweep`` one variant runs up to 15% longer than another), and
medians over several inputs keep that out of the spread across seeds.
Sweeps run serially (no ``--jobs``).

``--trace 0`` alternates two timed runs until ``--seconds`` have passed:
``gtflow bounds`` on the same config (the set-up phase: interpreter start,
import, config parse, dataset, partition and cost build, bound report) and
the workload itself, with a run of ``reference.py`` (fixed work that never
imports gtflow) before and after each. It reports medians:

- ``wall_s``: wall time of the workload command;
- ``setup_s``: wall time of the ``bounds`` command;
- ``work_per_s``: integration steps (``run`` workloads) or sweep cells
  (``sweep`` workloads) per second of ``wall_s - setup_s``;
- ``peak_rss_mb``: peak resident memory of the workload process.

The times are given at reference speed: each timed run is divided by the
mean time of the two reference runs around it and multiplied by
``REFERENCE_S``, so the times read as seconds on a machine where the
reference takes exactly ``REFERENCE_S``. On the shared two-core machine the
benchmark was defined on, the speed of every process swings by up to 1.7x
from one second to the next; that swing, not gtflow, set the spread of the
measured times across runs, and only a reference run close in time tracks
it. The measured times are printed in the report lines.

``--trace 1`` alternates an untraced run with a run under ``traced.py``,
which wraps each layer's public functions, checks that both give
byte-identical artifacts, and reports the traced run's per-layer metrics
(medians for times, as measured) plus the tracing overhead.

Every untraced run is checked against ``golden.json`` (recorded by
``make_golden.py``): ``distance_to_oracle`` and the final agent states of
``dsvm-logq`` within ``RTOL``; on the sweeps, each cell's stable/diverged
verdict exactly and its ``SWEEP_VALUES`` columns of ``sweep.csv`` within
``RTOL`` (with an absolute floor ``ATOL``). ``trace.csv`` must be
byte-identical across the runs of one invocation.

Operations are the workload runs and their sweep cells; the reference,
bounds and warm-up runs only serve the timing. A run fails on an unexpected
exit code or a failed run-level check, a cell when it ended in ``error:`` or
differs from golden; a traced run fails when its artifacts differ from the
untraced run's, and the traced invocation's shape check (the work the
workload was chosen for) is one more operation. ``correct`` is false when
anything failed, the timing runs included.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``. The lines before it are a readable
report that also records the thread settings, core count, Python and numpy
versions and the ``src/`` line count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# workload -> (CLI subcommand, unit of work)
WORKLOADS = {
    "dsvm-logq": ("run", "steps"),
    "quad-sweep": ("sweep", "cells"),
    "spectral-sweep": ("sweep", "cells"),
}
VARIANTS = 32
RTOL = 1e-6  # relative tolerance of every golden number
ATOL = 1e-12  # absolute floor of that tolerance, for values at rounding level
# sweep.csv columns pinned per cell besides the verdict
SWEEP_VALUES = {"quad-sweep": ("final_grad_sum_norm",),
                "spectral-sweep": ("zero_count", "max_nonzero_real")}
SPAN = 3  # input variants per invocation
MIN_REPS = 3
DEADLINE_S = 170.0  # the whole invocation stays below 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
REFERENCE_S = 0.4  # nominal run time of reference.py; see the module docstring


def workload_config(name: str, variant: int) -> dict:
    """The workload's config with every seed shifted by the input variant."""
    with open(HERE / "workloads" / f"{name}.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["seed"] += variant
    for section in cfg.values():
        if isinstance(section, dict) and "seed" in section:
            section["seed"] += variant
    return cfg


def work_units(cfg: dict, unit: str) -> int:
    if unit == "cells":
        return math.prod(len(values) for values in cfg["sweep"]["axes"].values())
    return round(cfg["solver"]["t_end"] / cfg["solver"]["eta"])


def cli_args(argv: list[str], out: Path, summary: Path | None = None) -> list[str]:
    """Interpreter arguments that run the CLI into an emptied out directory.

    With a summary path the CLI runs under traced.py, which writes the
    per-layer metrics there.
    """
    shutil.rmtree(out, ignore_errors=True)
    head = ["-m", "gtflow.cli"] if summary is None else [str(HERE / "traced.py"), str(summary)]
    return [*head, *argv, "--out", str(out)]


class Runner:
    """Starts Python processes one at a time and measures each one."""

    def __init__(self, work: Path, deadline: float | None = None):
        self.work = work
        self.deadline = deadline  # perf_counter time by which a child is killed
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)

    def run(self, args: list[str]):
        """Runs ``python ARGS``; returns (wall seconds, exit code, peak RSS in MB)."""
        cmd = [sys.executable, *args]
        with open(self.work / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = None
            if self.deadline is not None:
                watchdog = threading.Timer(max(1.0, self.deadline - start), proc.kill)
                watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: end the child first
                proc.kill()
                proc.wait()
                raise
            finally:
                if watchdog is not None:
                    watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


# ------------------------------------------------------------ output checks

def observe(name: str, out: Path) -> dict:
    """The outputs of one run that golden.json pins, plus the sweep's error cells."""
    if name in SWEEP_VALUES:
        with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        seen = {"stable": "".join("T" if r["stable"] == "True" else "F" for r in rows),
                "errors": [i for i, r in enumerate(rows)
                           if r.get("status", "").startswith("error:")]}
        for column in SWEEP_VALUES[name]:
            seen[column] = [float(r[column]) for r in rows]
        return seen
    meta = {}
    for line in (out / "metadata.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.strip().partition(": ")
        meta[key] = value
    n = sum(key.startswith("agent_") for key in meta)
    return {"distance_to_oracle": float(meta["distance_to_oracle"]),
            "final_x": [float(v) for i in range(n) for v in meta[f"agent_{i}_final"].split()]}


def close(x: float, g: float) -> bool:
    """x equals the golden g within tolerance; NaN equals NaN and inf equals inf."""
    return (x == g or (math.isnan(x) and math.isnan(g))
            or abs(x - g) <= RTOL * abs(g) + ATOL)


def check(seen: dict, golden: dict) -> tuple[list[str], list[str]]:
    """Compare one run's observations with the golden ones.

    Returns the run-level problems and the problems of single sweep cells,
    one entry per failed cell.
    """
    problems, cells = [], []
    if "stable" in golden:
        n = len(golden["stable"])
        if len(seen["stable"]) != n:
            return [f"{len(seen['stable'])} sweep cells, golden has {n}"], []
        for i in range(n):
            wrong = [column for column in golden if column != "stable"
                     and not close(seen[column][i], golden[column][i])]
            if seen["stable"][i] != golden["stable"][i]:
                wrong.insert(0, "verdict")
            if i in seen["errors"]:
                wrong.insert(0, "error")
            if wrong:
                cells.append(f"cell {i}: {', '.join(wrong)}")
    if "distance_to_oracle" in golden:
        d, g = seen["distance_to_oracle"], golden["distance_to_oracle"]
        if abs(d - g) > RTOL * abs(g):
            problems.append(f"distance_to_oracle {d!r} != golden {g!r}")
        a, g = seen["final_x"], golden["final_x"]
        scale = max(abs(v) for v in g)
        if len(a) != len(g) or max(abs(x - y) for x, y in zip(a, g)) > RTOL * scale:
            problems.append("final agent states differ from golden")
    return problems, cells


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


# ------------------------------------------------------------------ report

def environment() -> dict:
    import numpy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "gtflow").rglob("*.py")))
    return {**THREAD_ENV, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_lines": src_lines}


def minmax(values: list[float]) -> str:
    return f"min {min(values):.4g} max {max(values):.4g} n {len(values)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "gtflow" / "cli.py").is_file():
        print(f"error: no gtflow sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)[args.workload]

    name = args.workload
    command, unit = WORKLOADS[name]
    variants = [(args.seed + i) % VARIANTS for i in range(SPAN)]
    work = WORK / f"{name}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_paths = {}
    for variant in variants:
        cfg = workload_config(name, variant)
        cfg_paths[variant] = work / f"config-{variant}.json"
        cfg_paths[variant].write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    units_of_work = work_units(cfg, unit)  # the same for every variant
    cells = units_of_work if unit == "cells" else 0
    runner = Runner(work, started + DEADLINE_S)
    attempted = failed = 0
    notes: list[str] = []  # every failure, the timing runs' included

    def account(label, code, cells=0, problems=(), failed_cells=()):
        """Counts one run and its cells as operations; True if the run passed.

        A run-level problem leaves no cell checked, so every cell fails too.
        """
        nonlocal attempted, failed
        attempted += 1 + cells
        problems = list(problems) + ([f"exit code {code}"] if code != 0 else [])
        bad_cells = cells if problems else len(failed_cells)
        failed += bool(problems) + bad_cells
        notes.extend(f"{label}: {problem}" for problem in problems)
        if bad_cells:
            notes.append(f"{label}: {bad_cells}/{cells} cells failed  "
                         + "; ".join(failed_cells[:5]))
        return not problems

    def timing_run(label, argv):
        """A run that only serves the timing; a failure is noted, not counted."""
        wall, code, _ = runner.run(argv)
        if code != 0:
            notes.append(f"{label}: exit code {code}")
        return wall, code

    first_trace: dict[int, str] = {}  # trace.csv digest of each variant's first run
    first_seen: dict[int, dict] = {}

    def argv(subcommand, variant):
        return [subcommand, "--config", str(cfg_paths[variant])]

    def run_checked(label, out, variant):
        """One untraced workload run plus its output checks; returns (code, wall, rss).

        A run that exits 0 is timed even when its outputs fail a check; the
        failure shows in ``failed`` and ``correct``.
        """
        wall, code, rss = runner.run(cli_args(argv(command, variant), out))
        problems, failed_cells = [], []
        if code == 0:
            seen = observe(name, out)
            first_seen.setdefault(variant, seen)
            problems, failed_cells = check(seen, golden[str(variant)])
            if (out / "trace.csv").is_file():
                digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
                if first_trace.setdefault(variant, digest) != digest:
                    problems.append("trace.csv differs from the first run's")
        account(label, code, cells, problems, failed_cells)
        return code, wall, rss

    # fills the bytecode and file caches; not timed
    timing_run("warm-up bounds", cli_args(argv("bounds", variants[0]), work / "warm"))

    elapsed = lambda: time.perf_counter() - started
    walls, setups, refs, rsss, traced_walls, layer_runs = [], [], [], [], [], []
    wall_ratios, setup_ratios = [], []  # times over the reference time around them

    def reference():
        """Time of one reference.py run, or None if it failed."""
        wall, code = timing_run("reference", [str(HERE / "reference.py")])
        return wall if code == 0 else None

    def relative(wall, ratios):
        """Time wall over the mean of the reference runs just before and after it."""
        if None not in refs[-2:]:
            ratios.append(2.0 * wall / (refs[-2] + refs[-1]))

    if args.trace == 0:
        refs.append(reference())
    for rep in itertools.count():
        pair_start = elapsed()
        variant = variants[rep % SPAN]
        if args.trace == 0:
            wall, code = timing_run("bounds", cli_args(argv("bounds", variant), work / "bounds"))
            refs.append(reference())
            if code == 0:
                setups.append(wall)
                relative(wall, setup_ratios)
            code, wall, rss = run_checked("run", work / "out", variant)
            refs.append(reference())
            if code == 0:
                walls.append(wall)
                rsss.append(rss)
                relative(wall, wall_ratios)
        else:
            code, wall, _ = run_checked("untraced run", work / "out", variant)
            if code == 0:
                walls.append(wall)
                untraced = digests(work / "out")
            summary = work / "layers.json"
            wall, code, _ = runner.run(cli_args(argv(command, variant), work / "traced", summary))
            problems = []
            if code == 0 and walls and digests(work / "traced") != untraced:
                problems.append("traced artifacts differ from the untraced run's")
            if account("traced run", code, problems=problems):
                traced_walls.append(wall)
                layer_runs.append(json.loads(summary.read_text(encoding="utf-8")))
        pair_s = elapsed() - pair_start
        reps = len(walls)
        if reps >= MIN_REPS and elapsed() + pair_s > args.seconds:
            break
        if elapsed() + pair_s > DEADLINE_S - 10 or (reps == 0 and len(notes) >= 3):
            break

    env = environment()
    print(f"workload {name}  seed {args.seed}  variants {variants}  "
          f"{command} {unit}={units_of_work}  trace {args.trace}")
    print("environment " + json.dumps(env))

    if args.trace == 0:
        if not (wall_ratios and setup_ratios):
            print("error: no successful run to measure", file=sys.stderr)
            return 1
        refs = [ref for ref in refs if ref is not None]
        wall_s = statistics.median(wall_ratios) * REFERENCE_S
        setup_s = statistics.median(setup_ratios) * REFERENCE_S
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "work_per_s": units_of_work / (wall_s - setup_s),
            "peak_rss_mb": statistics.median(rsss),
        }
        print(f"reference    {statistics.median(refs):10.4f} s     measured {minmax(refs)}")
        print(f"wall_s       {wall_s:10.4f} s     measured {minmax(walls)}")
        print(f"setup_s      {setup_s:10.4f} s     measured {minmax(setups)}")
        print(f"work_per_s   {metrics['work_per_s']:10.2f} 1/s   "
              f"({unit.rstrip('s')}s_per_s)")
        print(f"peak_rss_mb  {metrics['peak_rss_mb']:10.2f} MB    {minmax(rsss)}")
    else:
        if not walls or not layer_runs:
            print("error: no successful traced run", file=sys.stderr)
            return 1
        metrics = {key: statistics.median(run[key] for run in layer_runs)
                   for key in layer_runs[0]}
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        metrics["svmlab.distance_to_oracle"] = first_seen.get(variants[0], {}).get(
            "distance_to_oracle", 0.0)
        for key in sorted(metrics):
            print(f"{key:40s} {metrics[key]:14.6g} {units.get(key, '?')}")
        text, met = shape_check(name, metrics)
        print(f"shape {text} -> {'ok' if met else 'NOT MET'}")
        account("shape check", 0, problems=[] if met else [f"not met: {text}"])

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} "
              "are not both measured and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    for note in notes:
        print("FAILED " + note)
    print(f"failed_ops {failed}/{attempted}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another invocation's directory is still there
        pass
    result = {
        "correct": not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit_}
                    for key, unit_ in units.items()},
    }
    print(json.dumps(result))
    return 0


def shape_check(name: str, m: dict) -> tuple[str, bool]:
    """Whether the traced run shows the work the workload was chosen for.

    Each check reads ``small <= large``; the text gives both sides measured.
    """
    if name == "dsvm-logq":
        small, large, text = (0.5 * m["engine.integrate.busy_s"], m["cost.hessian.busy_s"],
                              "0.5 * engine.integrate.busy_s <= cost.hessian.busy_s")
    elif name == "spectral-sweep":
        small, large, text = (0.75 * m["cli.main_s"], m["spectral.spectral_report.busy_s"],
                              "0.75 * cli.main_s <= spectral.spectral_report.busy_s")
    else:
        small, large, text = (m["graph.graph_at.calls"], m["engine.steps"] / 20,
                              "graph.graph_at.calls <= engine.steps / 20")
    return f"{text}: {small:.4g} <= {large:.4g}", small <= large


if __name__ == "__main__":
    sys.exit(main())
