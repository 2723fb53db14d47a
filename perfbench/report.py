"""Run every workload over several seeds and print one table of all metrics.

Usage, from the repository root:

    python3 perfbench/report.py

For each workload, ``run.py --trace 0`` runs once per seed in ``SEEDS`` for
the ``run_seconds`` of BENCHMARK.json; each end-to-end metric is printed by
name and unit with its median over the seeds and its quartile spread (third
minus first quartile over the median) beside the bound in BENCHMARK.json.
Then one ``run.py --trace 1`` run on the first seed prints the per-layer
metrics. ``failed_ops`` is failed operations over operations attempted,
summed over all runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return lines[:-1], json.loads(lines[-1])


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    attempted = failed = 0
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            _, result = bench_run(workload, seed, bench["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        print(f"== {workload}: end-to-end over seeds {list(SEEDS)}")
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            print(f"  {metric['name']:12s} {median:12.5g} {metric['unit']:4s} "
                  f"spread {(q3 - q1) / median:6.3f}  bound {metric['bound']}")
        lines, result = bench_run(workload, SEEDS[0], bench["run_seconds"], 1)
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"== {workload}: per-layer, traced run on seed {SEEDS[0]}")
        for line in lines:
            print("  " + line)
    print(f"failed_ops {failed}/{attempted} = {failed / attempted:.4g}")


if __name__ == "__main__":
    main()
