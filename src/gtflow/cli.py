"""Command-line experiment runner.

Subcommands: ``run`` (one experiment), ``bounds`` (step-size bound report),
``sweep`` (stability grids), ``verify`` (property corpus), ``preset``
(list shipped configurations). All artifacts land under ``--out`` and are
byte-reproducible: re-running an identical config yields identical CSVs.

Exit codes: 0 success, 1 property-suite failure or internal error,
2 divergence, 3 a bad command line, configuration or output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import spectral, svg
from .config import ConfigError, ExperimentConfig, parse_config
from .cost import aggregate_hessian, infinity_norm
from .engine import SolverBatch, agreement_ratio, integrate
from .graph import laplacian
from .nonlinear import SectorBounds, sector_bounds
from .svmlab import OracleStalled, dsvm_experiment

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_DIVERGED = 2
EXIT_CONFIG = 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:  # argparse has printed the usage and the problem
        return EXIT_OK if stop.code == 0 else EXIT_CONFIG
    if args.command is None:
        parser.print_help()
        return EXIT_OK
    if "out" in args:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            print(f"gtflow: cannot use --out {str(args.out)!r}: {err.strerror}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        return args.handler(args)
    except ConfigError as err:
        print(err, file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as err:  # an accepted config too large for this machine
        print(f"gtflow: out of memory: {err}".removesuffix(": "), file=sys.stderr)
        return EXIT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtflow",
        description="gradient-tracking consensus optimization experiments",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=Path, help="path to a JSON config")
        src.add_argument("--preset", help="name of a shipped preset")
        p.add_argument("--out", type=Path, default=Path("out"), help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_run = sub.add_parser("run", help="execute one experiment")
    add_common(p_run)
    p_run.set_defaults(handler=cmd_run)

    p_bounds = sub.add_parser("bounds", help="report the step-size bounds")
    add_common(p_bounds)
    p_bounds.set_defaults(handler=cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="stability sweep over config axes")
    add_common(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the property corpus")
    p_verify.set_defaults(handler=cmd_verify)

    p_preset = sub.add_parser("preset", help="preset utilities")
    p_preset.add_argument("action", choices=["list"])
    p_preset.set_defaults(handler=cmd_preset)
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.preset:
        text = cfgmod.load_preset(args.preset)
    else:
        try:
            text = args.config.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError([f"cannot read config {str(args.config)!r}: {err}"])
    cfg = parse_config(text)
    if args.seed is not None:
        raw = cfg.normalized()
        raw["seed"] = args.seed
        cfg = parse_config(json.dumps(raw))
    return cfg


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8")


def _classifier_text(x: np.ndarray, **metadata) -> str:
    """The classifier x = [w; nu] as ``omega_<i>`` and ``nu`` lines, then the metadata."""
    lines = [f"omega_{i}: {format(v, '.17g')}" for i, v in enumerate(x[:-1])]
    lines += [f"nu: {format(x[-1], '.17g')}"] + [f"{k}: {v}" for k, v in metadata.items()]
    return "\n".join(lines) + "\n"


SATURATION_DOMAIN = 100.0  # operating interval for domain-relative bounds


def _combined_sector(cfg: ExperimentConfig, mode: str = "linearized") -> SectorBounds:
    """Sector bounds of the link map both dynamics lines apply.

    Saturation is only sector-bounded on a bounded interval; its bounds are
    evaluated on the default operating domain and the run report warns when
    the trajectory left it.
    """
    g = cfgmod.build_nonlinearity(cfg["nonlinearity"])
    domain = ((-SATURATION_DOMAIN, SATURATION_DOMAIN)
              if g.kind == "saturation" else (-np.inf, np.inf))
    return sector_bounds(g, domain, mode=mode)


def _initial_state(cfg: ExperimentConfig, n: int, m: int) -> np.ndarray:
    return np.random.default_rng(cfg.seed + 5).uniform(0.0, 1.0, size=(n, m))


def _bound_report(cfg: ExperimentConfig, schedule, costs, x0):
    """Step-size bounds at the initial operating point."""
    lap = laplacian(schedule.base_graph)
    hess = aggregate_hessian(costs, x0)
    slowest, radius = spectral.laplacian_rates(lap)
    sector = _combined_sector(cfg)
    if sector.kappa <= 0:
        # dead-zone links: no positive lower sector slope exists; report the
        # bounds for the identity envelope and flag it
        kappa_eff = 1e-9
        flagged = True
    else:
        kappa_eff, flagged = sector.kappa, False
    bounds = spectral.step_size_bounds(
        kappa_eff, sector.upper, infinity_norm(hess), slowest, radius,
        schedule.base_graph.n, x0.shape[1])
    return bounds, flagged


def _bounds_lines(cfg, bounds, flagged) -> list[str]:
    alpha = cfg["solver"]["alpha"]
    adm = bounds.admissible(alpha)
    num = lambda v: format(float(v), ".17g")
    lines = [
        f"kappa: {num(bounds.kappa)}",
        f"upper_sector: {num(bounds.upper)}",
        f"gamma: {num(bounds.gamma)}",
        f"slowest_decay: {num(bounds.slowest_decay)}",
        f"spectral_radius: {num(bounds.spectral_radius)}",
        f"eigen_ratio: {num(bounds.spectral_radius / bounds.slowest_decay)}",
        f"sector_ratio: {num(bounds.upper / bounds.kappa)}",
        f"alpha_bar_matching: {num(bounds.matching)}",
        f"alpha_bar_spectral: {num(bounds.spectral)}",
        f"alpha_bar_tight: {num(bounds.tight)}",
        f"alpha: {num(alpha)}",
        f"alpha_admissible_matching: {adm['matching']}",
        f"alpha_admissible_spectral: {adm['spectral']}",
        f"alpha_admissible_tight: {adm['tight']}",
    ]
    if flagged:
        lines.append("warning: lower sector slope is zero (dead zone); bounds "
                     "use a nominal epsilon and certify nothing")
    return lines


def cmd_bounds(args) -> int:
    cfg = _load_config(args)
    costs, x0, _ = _build_costs(cfg)
    lines = _bounds_lines(cfg, *_bound_report(cfg, cfgmod.build_schedule(cfg), costs, x0))
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write(args.out, "bounds.txt", text)
    return EXIT_OK


def _build_costs(cfg: ExperimentConfig):
    """Returns (costs, x0, context) where context carries svm data when present."""
    if cfg["cost"]["kind"] == "quadratic":
        costs = cfgmod.build_quadratic_costs(cfg)
        m = cfg["cost"]["m"]
        x0 = _initial_state(cfg, len(costs), m)
        return costs, x0, None
    data = cfgmod.build_dataset(cfg)
    part = cfgmod.build_partition(cfg, data)
    costs = cfgmod.build_svm_costs(cfg, data, part)
    x0 = _initial_state(cfg, len(costs), costs[0].m)
    return costs, x0, (data, part)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = args.out
    meta = ["config:"] + ["  " + ln for ln in cfg.to_json().splitlines()]

    costs, x0, context = _build_costs(cfg)
    schedule = cfgmod.build_schedule(cfg)
    bound_lines = _bounds_lines(cfg, *_bound_report(cfg, schedule, costs, x0))
    meta += ["", "bounds:"] + ["  " + ln for ln in bound_lines]

    solver = cfgmod.build_solver(cfg, schedule)

    if context is None:
        q_sum = sum(c.Q for c in costs)
        x_star = np.linalg.solve(q_sum, sum(c.Q @ c.b for c in costs))
        reference = np.tile(x_star, (len(costs), 1))
        trace = integrate(costs, x0, solver, reference=reference)
        meta += ["", "result:",
                 f"  status: {trace.status}",
                 f"  optimizer: {' '.join(format(v, '.17g') for v in x_star)}",
                 f"  final_grad_sum_norm: {format(float(trace.grad_sum_norm[-1]), '.17g')}",
                 f"  final_consensus_error: {format(float(trace.consensus_error[-1]), '.17g')}"]
    else:
        data, _ = context
        cost_cfg = cfg["cost"]
        try:
            report = dsvm_experiment(data, costs, solver, x0,
                                     regularizer_mode=cost_cfg["regularizer_mode"],
                                     oracle_tol=cost_cfg["oracle_tol"])
        except OracleStalled as err:
            raise ConfigError([f"cost.oracle_tol {cost_cfg['oracle_tol']!r} is out of reach: "
                               f"the centralized oracle {err}"]) from None
        trace = report.trace
        meta += ["", "result:"] + ["  " + ln for ln in report.summary_lines()]
        _write(out, "oracle_classifier.txt", _classifier_text(
            report.oracle.x, objective=report.oracle.objective, accuracy=report.oracle_accuracy))
        _write(out, "consensus_classifier.txt",
               _classifier_text(report.consensus, accuracy=report.consensus_accuracy))

    # the final agreement ratio reads against the sector ratio: quantized
    # links agree only up to it
    at = next(i for i, ln in enumerate(meta) if ln.startswith("  sector_ratio: ")) + 1
    meta.insert(at, f"  agreement_ratio: {format(agreement_ratio(trace), '.17g')}")
    meta += [f"  final_conservation_drift: {format(float(trace.conservation[-1]), '.17g')}",
             f"  max_abs_state: {format(trace.max_abs_state, '.17g')}",
             f"  eta_used: {format(trace.eta, '.17g')}",
             f"  steps: {trace.steps}",
             f"  derivative_evaluations: {trace.derivative_evaluations}",
             f"  topology_switches: {trace.topology_switches}",
             "  fixed_point_time: " + ("none" if trace.fixed_point_time is None
                                       else format(trace.fixed_point_time, ".17g")),
             "  divergence_time: " + ("none" if trace.divergence_time is None
                                      else format(trace.divergence_time, ".17g")),
             f"  divergence_entry: {trace.divergence_entry or 'none'}"]
    if cfg["nonlinearity"]["kind"] == "saturation" and trace.max_abs_state > SATURATION_DOMAIN:
        meta.append(f"  warning: trajectory left the declared sector domain "
                    f"[-{SATURATION_DOMAIN:g}, {SATURATION_DOMAIN:g}]; the "
                    "saturation bounds above do not cover it")

    _write(out, "trace.csv", trace.to_csv())
    _write(out, "metadata.txt", "\n".join(meta) + "\n")

    if cfg["outputs"]["plots"]:
        n, m = trace.states.shape[2:]
        state_series = {
            f"agent{i}[{j}]": (trace.times, trace.states[:, 0, i, j])
            for i in range(n) for j in range(m)
        }
        _write(out, "states.svg", svg.line_chart(state_series, "agent states", "t", "x"))
        _write(out, "cost.svg", svg.line_chart(
            {"F(x)": (trace.times, trace.cost)}, "stacked cost", "t", "F"))
        _write(out, "grad_sum.svg", svg.line_chart(
            {"|sum grad|": (trace.times, trace.grad_sum_norm)},
            "gradient-sum norm", "t", "norm", log_y=True))

    print(f"status: {trace.status}  (artifacts in {out})")
    if trace.status == "completed":
        return EXIT_OK
    print(f"gtflow: the run diverged at t = {format(trace.divergence_time, '.17g')}, at "
          f"{trace.divergence_entry} (that state's first NaN, else its largest magnitude)",
          file=sys.stderr)
    return EXIT_DIVERGED


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    axes = dict(cfg["sweep"]["axes"])
    if not axes:
        return cmd_run(args)
    mode = cfg["sweep"]["mode"]
    rows = (_sweep_spectral if mode == "spectral" else _sweep_dynamics)(cfg, axes)

    header = list(rows[0].keys())
    csv_lines = [",".join(header)]
    for row in rows:
        csv_lines.append(",".join(_csv_cell(row[k]) for k in header))
    _write(args.out, "sweep.csv", "\n".join(csv_lines) + "\n")

    if cfg["outputs"]["plots"]:
        _write(args.out, "sweep.svg", _stability_map(rows, sorted(axes), mode))

    stable = sum(1 for r in rows if r["stable"])
    print(f"sweep: {stable}/{len(rows)} cells stable  (artifacts in {args.out})")
    return EXIT_OK


def _stability_map(rows: list[dict], axis_names: list[str], mode: str) -> str:
    """Heat map over the first two axes of the share of stable cells.

    Each map cell averages the verdicts over the remaining axes, so a
    three-axis sweep shows 0.5 where half of its third-axis values are stable.
    """
    a_name, b_name = (axis_names + [None])[:2]
    a_vals = sorted({row[a_name] for row in rows})
    b_vals = sorted({row[b_name] for row in rows}) if b_name else [0]
    stable = np.zeros((len(b_vals), len(a_vals)))
    total = np.zeros_like(stable)
    for row in rows:
        at = (b_vals.index(row[b_name]) if b_name else 0, a_vals.index(row[a_name]))
        stable[at] += row["stable"]
        total[at] += 1
    return svg.heat_map(
        stable / total, [f"{v:g}" for v in a_vals],
        [f"{v:g}" for v in b_vals] if b_name else [""],
        title=f"stability frontier ({mode})", x_label=a_name, y_label=b_name or "")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _axis_grid(axes: dict) -> list[dict]:
    names = sorted(axes)
    cells = [{}]
    for name in names:
        cells = [{**cell, name: float(v)} for cell in cells for v in axes[name]]
    return cells


def _run_cells(cells, evaluate, shared) -> list[dict]:
    """Sweep rows in grid order; cells whose configs agree on ``shared`` form a group.

    ``cells`` holds (cell, cell_cfg) pairs. ``evaluate`` is called once per
    group with the group's pairs and returns the result columns of each cell.
    """
    groups: dict = {}
    for i, (_, cell_cfg) in enumerate(cells):
        groups.setdefault(shared(cell_cfg), []).append(i)
    rows = [None] * len(cells)
    for group in groups.values():
        for i, columns in zip(group, evaluate([cells[i] for i in group]), strict=True):
            rows[i] = {**cells[i][0], **columns}
    return rows


def _sweep_spectral(cfg: ExperimentConfig, axes: dict) -> list[dict]:
    """Frozen-gain eigenvalue verdicts per cell.

    For each cell the gains are pinned at the sector edges, at one and at a
    seeded random draw inside the sector; the cell is stable only if every
    regime is. The gains live in the tight (envelope) sector; the tabulated
    ratio uses the linearized convention. Cells that share khop and alpha
    share the Laplacian and the unit-gain verdict, computed once per group.
    """
    costs, x0, _ = _build_costs(cfg)
    n, m = x0.shape
    hess = aggregate_hessian(costs, x0)

    def evaluate(group):
        lap = laplacian(cfgmod.build_schedule(group[0][1]).base_graph)
        alpha = group[0][1]["solver"]["alpha"]
        verdict = lambda gains: spectral.spectral_report(spectral.assemble(lap, hess, gains, alpha), m)
        unit = verdict(np.ones(n * m))
        results = []
        for cell, cell_cfg in group:
            tight = _combined_sector(cell_cfg, mode="tight")
            kappa, upper = max(tight.kappa, 1e-9), tight.upper
            rng = np.random.default_rng([cfg.seed + 11, *(int(v * 1e6) for v in cell.values())])
            reports = (verdict(np.full(n * m, kappa)), unit, verdict(np.full(n * m, upper)),
                       verdict(rng.uniform(kappa, upper, size=n * m)))
            worst = min(reports, key=lambda r: r.stable)
            results.append({"sector_ratio": _combined_sector(cell_cfg).ratio,
                            "zero_count": worst.zero_count,
                            "max_nonzero_real": worst.max_nonzero_real,
                            "stable": all(r.stable for r in reports)})
        return results

    cells = [(cell, cfgmod.sweep_cell(cfg, cell)) for cell in _axis_grid(axes)]
    return _run_cells(cells, evaluate, lambda c: (c["network"]["khop"], c["solver"]["alpha"]))


def _sweep_dynamics(cfg: ExperimentConfig, axes: dict) -> list[dict]:
    """Integration verdict per cell, over ``sweep.t_end``.

    Cells that share ``eta`` and ``khop`` differ only in alpha and the link
    level, so each such group runs as one ``SolverBatch`` in lock step.
    """
    costs, x0, _ = _build_costs(cfg)

    def evaluate(group):
        schedule = cfgmod.build_schedule(group[0][1])
        batch = SolverBatch(tuple(cfgmod.build_solver(c, schedule) for _, c in group))
        return [{"status": trace.status,
                 "final_grad_sum_norm": float(trace.grad_sum_norm[-1]),
                 "stable": trace.status == "completed"}
                for trace in integrate(costs, x0, batch)]

    cells = [(cell, cfgmod.sweep_cell(cfg, cell)) for cell in _axis_grid(axes)]
    return _run_cells(cells, evaluate, lambda c: (c["solver"]["eta"], c["network"]["khop"]))


def cmd_verify(args) -> int:
    from . import verify  # only this command needs the property corpus

    results = verify.run_all()
    for res in results:
        print(res.line())
        for failure in res.failures[:5]:
            print(f"        {failure}")
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_FAILURE


def cmd_preset(args) -> int:
    for name in cfgmod.preset_names():
        cfg = parse_config(cfgmod.load_preset(name))
        print(f"{name}: {cfg.description}" if cfg.description else name)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
