"""Run the gtflow CLI in-process with each layer's public calls wrapped in spans.

Usage (with ``src`` on PYTHONPATH):

    python traced.py SUMMARY.json run --config CFG.json --out DIR

The wrappers replace names at their call sites, for example
``gtflow.engine.apply`` or ``SvmHingeCost.hessian``; no file under ``src/``
is edited, so the artifacts must match an untraced run byte for byte. Spans
are aggregated in memory while the command runs, per (parent, name) edge:
call count, total time and self time (duration minus the time covered by
child spans). Busy time of a set of names leaves out a span whose parent is
in the set. When the command returns, the per-layer metrics derived from
them are written to SUMMARY.json and the CLI's exit code is passed through.

Sweeps must run serially (no ``--jobs``): the span stack is not per thread.
"""

from __future__ import annotations

import json
import sys
import time

perf = time.perf_counter


class Tracer:
    """Span stack plus running aggregates; one per traced process.

    A span's name starts with its layer, as in ``graph.graph_at``.
    """

    def __init__(self):
        self.stack: list[list] = [["", 0.0, 0.0]]  # open spans: [name, child time, start]
        self.edges: dict[str, dict[str, list]] = {}  # name -> parent -> [calls, total, self]
        self.values: dict[str, float] = {}

    def traced(self, fn, name, observe=None):
        """Return fn wrapped in a span; observe(tracer, args, result) runs after."""
        by_parent = self.edges.setdefault(name, {})
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = [name, 0.0, perf()]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - span[2]
                stack.pop()
                parent[1] += dur
                edge = by_parent.get(parent[0])
                if edge is None:
                    edge = by_parent[parent[0]] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - span[1]
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def wrap(self, owner, attr, name, observe=None):
        """Replace owner.attr (a module function or a class method) in place."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.traced(fn, name, observe))

    def add(self, key, amount):
        self.values[key] = self.values.get(key, 0) + amount

    # -------------------------------------------------------------- queries

    def calls(self, name) -> int:
        return sum(e[0] for e in self.edges.get(name, {}).values())

    def busy(self, *names) -> float:
        """Time inside spans of these names, not counting one nested in another."""
        return sum(e[1] for n in names
                   for parent, e in self.edges.get(n, {}).items() if parent not in names)

    def self_s(self, name) -> float:
        return sum(e[2] for e in self.edges.get(name, {}).values())

    def edge(self, parent, name) -> list:
        return self.edges.get(name, {}).get(parent, [0, 0.0, 0.0])


LAYERS = ("config", "graph", "nonlinear", "cost", "engine", "spectral",
          "svmlab", "svg", "cli")
COMMANDS = ("cli.cmd_run", "cli.cmd_sweep", "cli.cmd_bounds")
SETUP_CALLS = ("cli._load_config", "cli._build_costs", "cli._bound_report")
BUILDERS = tuple(f"config.build_{kind}" for kind in (
    "nonlinearity", "dataset", "partition", "schedule", "solver", "quadratic_costs",
    "svm_costs"))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer at the names callers use."""
    from gtflow import cli, config, cost, engine, graph, spectral, svg, svmlab

    def length(key):
        return lambda t, args, result: t.add(key, len(result))

    def count_steps(t, args, result):
        # integrate evaluates the derivative once per Euler step, 4 times per RK4 step
        evals = t.calls("engine.derivative")
        stages = 4 if args[2].method == "rk4" else 1
        t.add("engine.steps", (evals - t.values.get("_evals", 0)) // stages)
        t.values["_evals"] = evals

    w = tracer.wrap
    w(cli, "parse_config", "config.parse_config")
    for fn in BUILDERS:
        w(config, fn[7:], fn)

    w(engine, "graph_at", "graph.graph_at")
    w(engine, "laplacian", "graph.laplacian")
    w(cli, "laplacian", "graph.laplacian")
    w(graph.WeightedGraph, "__post_init__", "graph.validate")

    w(engine, "apply", "nonlinear.apply")
    w(cli, "sector_bounds", "nonlinear.sector_bounds")

    for cls in (cost.SvmHingeCost, cost.QuadraticCost):
        for method in ("hessian", "gradient", "value"):
            w(cls, method, f"cost.{method}")
    w(cli, "aggregate_hessian", "cost.aggregate_hessian")
    w(engine, "global_cost", "cost.global_cost")
    w(engine, "sum_gradient", "cost.sum_gradient")

    w(cli, "integrate", "engine.integrate", observe=count_steps)
    w(svmlab, "integrate", "engine.integrate", observe=count_steps)
    w(engine, "derivative", "engine.derivative")
    w(engine.Trace, "to_csv", "engine.to_csv", observe=length("engine.to_csv.bytes"))

    w(spectral, "assemble", "spectral.assemble")
    w(spectral, "spectral_report", "spectral.spectral_report")
    w(spectral, "step_size_bounds", "spectral.step_size_bounds")

    w(config, "generate_ellipse_data", "svmlab.generate_ellipse_data")
    w(svmlab, "centralized_oracle", "svmlab.centralized_oracle",
      observe=lambda t, args, result: t.add("svmlab.oracle_iterations", result.iterations))
    w(cli, "dsvm_experiment", "svmlab.dsvm_experiment")

    w(svg, "line_chart", "svg.line_chart", observe=length("svg.bytes"))
    w(svg, "heat_map", "svg.heat_map", observe=length("svg.bytes"))

    for fn in COMMANDS + SETUP_CALLS:
        w(cli, fn[4:], fn)
    w(cli, "_write", "cli._write",
      observe=lambda t, args, result: t.add("cli.artifact_bytes", len(args[2].encode())))
    w(cli, "main", "cli.main")

    run_cells = cli._run_cells

    def traced_run_cells(cells, worker, jobs):
        return run_cells(cells, tracer.traced(worker, "cli.cell"), jobs)

    cli._run_cells = traced_run_cells


def per_layer_metrics(t: Tracer, import_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced process, keyed by metric name."""
    def ratio(a, b):
        return a / b if b else 0.0

    steps = t.values.get("engine.steps", 0)
    cells = t.calls("cli.cell")
    switch_calls = t.edge("engine.integrate", "graph.graph_at")
    switch_lap = t.edge("engine.integrate", "graph.laplacian")
    integrate_busy = t.busy("engine.integrate")
    integrate_self = t.self_s("engine.integrate")
    setup_in_commands = sum(t.edge(c, s)[1] for c in COMMANDS for s in SETUP_CALLS)

    m = {
        "config.import_s": import_s,
        "config.parse.busy_s": t.busy("config.parse_config"),
        "config.build.busy_s": t.busy(*BUILDERS),

        "graph.graph_at.calls": t.calls("graph.graph_at"),
        "graph.graph_at.busy_s": t.busy("graph.graph_at"),
        "graph.laplacian.calls": t.calls("graph.laplacian"),
        "graph.validations": t.calls("graph.validate"),
        "graph.validations_per_step": ratio(
            t.edge("graph.graph_at", "graph.validate")[0], steps),
        "graph.switch_us": 1e6 * ratio(switch_calls[1] + switch_lap[1], switch_calls[0]),

        "nonlinear.apply.calls": t.calls("nonlinear.apply"),
        "nonlinear.apply.busy_s": t.busy("nonlinear.apply"),
        "nonlinear.apply_us": 1e6 * ratio(t.busy("nonlinear.apply"), t.calls("nonlinear.apply")),
        "nonlinear.sector_bounds.busy_s": t.busy("nonlinear.sector_bounds"),

        "cost.hessian.calls": t.calls("cost.hessian"),
        "cost.hessian.busy_s": t.busy("cost.hessian"),
        "cost.gradient.calls": t.calls("cost.gradient"),
        "cost.gradient.busy_s": t.busy("cost.gradient"),
        "cost.value.calls": t.calls("cost.value"),
        "cost.value.busy_s": t.busy("cost.value"),
        "cost.aggregate_hessian.busy_s": t.busy("cost.aggregate_hessian"),

        "engine.steps": steps,
        "engine.derivative.calls": t.calls("engine.derivative"),
        "engine.derivative.busy_s": t.busy("engine.derivative"),
        "engine.derivative_us": 1e6 * ratio(t.busy("engine.derivative"),
                                            t.calls("engine.derivative")),
        "engine.integrate.busy_s": integrate_busy,
        "engine.integrate.self_s": integrate_self,
        "engine.integrate.child_share": ratio(integrate_busy - integrate_self, integrate_busy),
        "engine.record.rows": t.calls("cost.global_cost"),
        "engine.record.busy_s": t.busy("cost.global_cost", "cost.sum_gradient"),
        "engine.to_csv.busy_s": t.busy("engine.to_csv"),
        "engine.to_csv.bytes": t.values.get("engine.to_csv.bytes", 0),

        "spectral.assemble.calls": t.calls("spectral.assemble"),
        "spectral.assemble.busy_s": t.busy("spectral.assemble"),
        "spectral.spectral_report.calls": t.calls("spectral.spectral_report"),
        "spectral.spectral_report.busy_s": t.busy("spectral.spectral_report"),
        "spectral.report_us": 1e6 * ratio(t.busy("spectral.spectral_report"),
                                          t.calls("spectral.spectral_report")),
        "spectral.reports_per_cell": ratio(
            t.edge("cli.cell", "spectral.spectral_report")[0], cells),
        "spectral.step_size_bounds.busy_s": t.busy("spectral.step_size_bounds"),

        "svmlab.generate_ellipse_data.busy_s": t.busy("svmlab.generate_ellipse_data"),
        "svmlab.centralized_oracle.busy_s": t.busy("svmlab.centralized_oracle"),
        "svmlab.oracle_iterations": t.values.get("svmlab.oracle_iterations", 0),

        "svg.busy_s": t.busy("svg.line_chart", "svg.heat_map"),
        "svg.bytes": t.values.get("svg.bytes", 0),

        "cli.cells": cells,
        "cli.cell_us": 1e6 * ratio(t.busy("cli.cell"), cells),
        "cli.artifact_bytes": t.values.get("cli.artifact_bytes", 0),
        "cli.main_s": t.busy(*COMMANDS) - setup_in_commands,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t.self_s(n) for n in t.edges if n.split(".")[0] == layer)
    return m


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    start = perf()
    import gtflow.cli
    import_s = perf() - start
    tracer = Tracer()
    install(tracer)
    code = gtflow.cli.main(argv)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(per_layer_metrics(tracer, import_s), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
