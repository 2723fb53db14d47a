"""Record golden.json: the outputs each workload's checks compare against.

Usage, from the repository root:

    python3 perfbench/make_golden.py

Runs every workload once per input variant (seeds 0 to VARIANTS - 1) with
the current sources and stores what ``run.observe`` reads: the verdict string
and the ``SWEEP_VALUES`` columns of each sweep cell, and the distance to the
oracle and final agent states of the runs. Regenerate it only when a change
is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import shutil

from run import (HERE, VARIANTS, WORK, WORKLOADS, Runner, cli_args, observe,
                 workload_config)


def main() -> None:
    golden = {}
    work = WORK / "golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    for name in sorted(WORKLOADS):
        command = WORKLOADS[name][0]
        entries = {}
        for variant in range(VARIANTS):
            cfg_path = work / "config.json"
            cfg_path.write_text(json.dumps(workload_config(name, variant)), encoding="utf-8")
            _, code, _ = runner.run(cli_args([command, "--config", str(cfg_path)],
                                             work / "out"))
            if code != 0:
                raise SystemExit(f"{name} variant {variant}: exit code {code}")
            seen = observe(name, work / "out")
            if seen.pop("errors", []):
                raise SystemExit(f"{name} variant {variant}: sweep cells ended in error")
            entries[str(variant)] = seen
            print(name, variant, flush=True)
        golden[name] = entries
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
