"""Fixed reference program that gauges the machine's current speed.

It starts the interpreter, imports numpy and repeats the kind of work that
bounds most gtflow runs: small numpy calls driven from Python loops (a link
map, a Laplacian product, per-agent Hessian products) plus number formatting.
It never imports gtflow, so no change to ``src/`` changes its run time.
``run.py`` times it between workload runs and scales the workload times by
how fast it ran.
"""

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    lap = rng.uniform(-0.1, 0.1, size=(5, 5))
    x = rng.uniform(0.0, 1.0, size=(5, 4))
    shards = [rng.uniform(-1.0, 1.0, size=(40, 4)) for _ in range(5)]
    lines = []
    for step in range(5000):
        q = np.sign(x) * np.exp(np.round(np.log(np.abs(x) + 1e-12)))
        dx = lap @ q - 0.01 * x
        rows = []
        for i, U in enumerate(shards):
            curv = 1.0 / (1.0 + np.exp(-(U @ x[i])))
            rows.append(((U.T * curv) @ U) @ dx[i])
        x = x + 1e-3 * (dx + 1e-3 * np.stack(rows))
        if step % 50 == 0:
            lines.append(",".join(format(v, ".17g") for v in x.ravel()))
    if not np.isfinite(x).all() or len(lines) != 100:
        raise SystemExit("reference computation went wrong")


if __name__ == "__main__":
    main()
