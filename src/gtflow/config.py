"""Experiment configuration: JSON schema, validation, and builders.

A config is one JSON object with a mandatory top-level ``seed`` and optional
sections, every field defaulted. Unknown sections or keys are hard errors
(anti-typo), and validation reports every violation at once rather than the
first. The normalized form (defaults filled in) round-trips: parse, echo,
parse again yields the identical structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .cost import QuadraticCost, SvmHingeCost
from .engine import MAX_SIZE, MAX_STEPS, SolverConfig, aligned_step
from .graph import SwitchingSchedule, SwitchMode, make_khop_ring
from .nonlinear import (LinkNonlinearity, identity, log_quantizer, saturation,
                        uniform_quantizer)
from .svmlab import (LabeledDataset, dataset_from_csv, feature_map, generate_ellipse_data,
                     partition)

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_preset",
           "preset_names"]


class ConfigError(ValueError):
    """Carries every validation violation found in one pass."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))


_BOOL = ("bool", lambda v: isinstance(v, bool))
_INT = ("integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_NUM = ("number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
_STR = ("string", lambda v: isinstance(v, str))
_LIST = ("list of numbers", lambda v: isinstance(v, list)
         and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v))

SCHEMA = {
    "data": {
        "kind": (_STR, "ellipse"),
        "n_points": (_INT, 200),
        "radius": (_NUM, 0.8),
        "margin_gap": (_NUM, 0.3),
        "seed": (_INT, None),
        "path": (_STR, None),
    },
    "partition": {
        "n_agents": (_INT, 5),
        "mode": (_STR, "stratified"),
        "seed": (_INT, None),
    },
    "network": {
        "khop": (_INT, 2),
        "total_weight": (_NUM, 0.8),
        "switch_period": (_NUM, 0.001),
        "switch_mode": (_STR, "permute"),
        "directed": (_BOOL, False),
        "seed": (_INT, None),
    },
    "nonlinearity": {
        "kind": (_STR, "identity"),
        "rho": (_NUM, 1.0),
        "limit": (_NUM, 1.0),
    },
    "cost": {
        "kind": (_STR, "svm"),
        "C": (_NUM, 1.0),
        "mu": (_NUM, 2.0),
        "eps_nu": (_NUM, 1e-6),
        "regularizer_mode": (_STR, "matched"),
        "oracle_tol": (_NUM, 1e-6),
        "m": (_INT, 2),
        "curvature_scale": (_NUM, 1.0),
    },
    "solver": {
        "alpha": (_NUM, 6.0),
        "eta": (_NUM, 0.001),
        "t_end": (_NUM, 80.0),
        "method": (_STR, "rk4"),
        "y_init": (_STR, "gradient"),
        "sample_stride": (_INT, 100),
    },
    "outputs": {
        "plots": (_BOOL, True),
    },
    "sweep": {
        "mode": (_STR, "spectral"),
        "axes": (("object", lambda v: isinstance(v, dict)), {}),
        "t_end": (_NUM, 60.0),
    },
}

_ENUMS = {
    ("data", "kind"): ("ellipse", "csv"),
    ("partition", "mode"): ("stratified", "contiguous"),
    ("network", "switch_mode"): ("fixed", "permute"),
    ("nonlinearity", "kind"): ("identity", "log_quantizer", "uniform_quantizer", "saturation"),
    ("cost", "kind"): ("svm", "quadratic"),
    ("cost", "regularizer_mode"): ("matched", "literal"),
    ("solver", "method"): ("euler", "rk4"),
    ("solver", "y_init"): ("gradient", "zero"),
    ("sweep", "mode"): ("spectral", "dynamics"),
}

_SWEEP_AXES = ("alpha", "rho", "khop", "eta")

# the link-map parameter each kind reads
_LEVEL_KEY = {"log_quantizer": "rho", "uniform_quantizer": "rho", "saturation": "limit"}
_QUANTIZERS = {"log_quantizer", "uniform_quantizer"}
# the least axis value whose spectral cell seed int(value * 1e6) overflows
_SEED_LIMIT = float(np.finfo(float).max) / 1e6


def sweep_cell(cfg: ExperimentConfig, cell: dict) -> ExperimentConfig:
    """The config of one sweep cell, built and run like any other config.

    ``alpha`` and ``eta`` go to the solver, ``khop`` to the network and
    ``rho`` to the quantizer's level; the solver horizon becomes
    ``sweep.t_end``. The cell is built from cfg's validated sections, the
    changed ones copied, without a second parse: parsing cfg checked every
    axis value a cell can take, each ``eta`` against ``sweep.t_end`` included.
    """
    solver = {**cfg["solver"], "t_end": cfg["sweep"]["t_end"]}
    solver.update((axis, cell[axis]) for axis in ("alpha", "eta") if axis in cell)
    network, link = dict(cfg["network"]), dict(cfg["nonlinearity"])
    if "khop" in cell:
        network["khop"] = int(cell["khop"])
    if "rho" in cell:
        link["rho"] = cell["rho"]
    sections = {**cfg.sections, "solver": solver, "network": network, "nonlinearity": link}
    return ExperimentConfig(cfg.seed, sections, cfg.description)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-defaulted configuration."""

    seed: int
    sections: dict
    description: str = ""

    def __getitem__(self, name: str) -> dict:
        return self.sections[name]

    def normalized(self) -> dict:
        out: dict = {"seed": self.seed}
        if self.description:
            out["description"] = self.description
        for name, body in self.sections.items():
            out[name] = dict(body)
        return out

    def to_json(self) -> str:
        return json.dumps(self.normalized(), indent=2, sort_keys=True) + "\n"

    # derived seeds: stable offsets keep sections independently reproducible
    def section_seed(self, section: str, offset: int) -> int:
        explicit = self.sections.get(section, {}).get("seed")
        return int(explicit) if explicit is not None else int(self.seed) + offset


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config, applying defaults."""
    try:
        raw = json.loads(text)
    except ValueError as err:  # a decode error, or an integer literal of over 4300 digits
        raise ConfigError([f"not valid JSON: {err}"]) from err
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])

    problems: list[str] = []
    if "seed" not in raw:
        problems.append("top-level 'seed' is mandatory")
    elif not _INT[1](raw["seed"]):
        problems.append("'seed' must be an integer")
    description = raw.get("description", "")
    if not isinstance(description, str):
        problems.append("'description' must be a string")
        description = ""

    sections: dict = {}
    for name, keys in SCHEMA.items():
        body = raw.get(name, {})
        if not isinstance(body, dict):
            problems.append(f"section '{name}' must be an object")
            body = {}
        filled = {}
        for key, ((type_name, ok), default) in keys.items():
            if key in body:
                value = body[key]
                if not ok(value) and not (value is None and default is None):
                    article = "an" if type_name[0] in "aeiou" else "a"
                    problems.append(f"{name}.{key} must be {article} {type_name}")
                    value = default
                elif type_name == "number" and not _finite(value):
                    problems.append(f"{name}.{key} must be finite")
                    value = default
            else:
                value = default
            filled[key] = value
        for key in body:
            if key not in keys:
                problems.append(f"unknown key {name}.{key}")
        sections[name] = filled

    for name in raw:
        if name not in SCHEMA and name not in ("seed", "description"):
            problems.append(f"unknown section '{name}'")

    for (sec, key), allowed in _ENUMS.items():
        val = sections[sec][key]
        if val not in allowed:
            problems.append(f"{sec}.{key} must be one of {allowed}, got {val!r}")

    _validate_values(raw.get("seed"), sections, problems)

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(int(raw["seed"]), sections, description)


def _finite(v) -> bool:
    """Whether a JSON number is finite as a float; an integer literal beyond the float range is not."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _validate_values(seed, sections, problems):
    data, net, cost, solver = (sections[k] for k in ("data", "network", "cost", "solver"))
    # numpy's seeded generators take non-negative seeds only
    seeds = [("seed", seed)] + [(f"{name}.seed", body["seed"])
                                for name, body in sections.items() if "seed" in body]
    problems += [f"{name}={value} must be non-negative"
                 for name, value in seeds if _INT[1](value) and value < 0]
    if data["kind"] == "ellipse":
        if not (0 < data["radius"] < 1):
            problems.append("data.radius must lie in (0, 1)")
        if data["margin_gap"] < 0:
            problems.append("data.margin_gap must be non-negative")
        if data["n_points"] < 2:
            problems.append("data.n_points must be at least 2")
    if data["kind"] == "csv" and not data["path"]:
        problems.append("data.path is required when data.kind is 'csv'")
    n_agents = sections["partition"]["n_agents"]
    # larger sizes would exhaust memory or loop for ages in the builders
    sizes = [("data.n_points", data["n_points"]), ("partition.n_agents", n_agents),
             ("cost.m", cost["m"])]
    problems += [f"{name} must be at most {MAX_SIZE}" for name, value in sizes if value > MAX_SIZE]
    if n_agents < 1:
        problems.append("partition.n_agents must be positive")
    if cost["kind"] == "svm" and data["kind"] == "ellipse" and n_agents > data["n_points"]:
        problems.append(f"partition.n_agents={n_agents} exceeds data.n_points={data['n_points']}")
    if not (0 < net["total_weight"] < 1):
        problems.append("network.total_weight must lie in (0, 1)")
    if net["switch_period"] <= 0:
        problems.append("network.switch_period must be positive")
    if solver["alpha"] <= 0:
        problems.append("solver.alpha must be positive")
    if solver["eta"] <= 0:
        problems.append("solver.eta must be positive")
    if solver["t_end"] <= 0:
        problems.append("solver.t_end must be positive")
    if solver["sample_stride"] < 1:
        problems.append("solver.sample_stride must be at least 1")
    if cost["C"] <= 0 or cost["mu"] <= 0 or cost["eps_nu"] < 0:
        problems.append("cost requires C > 0, mu > 0, eps_nu >= 0")
    if cost["m"] < 1:
        problems.append("cost.m must be at least 1")
    if cost["curvature_scale"] <= 0:
        problems.append("cost.curvature_scale must be positive")
    link = sections["nonlinearity"]
    key = _LEVEL_KEY.get(link["kind"])
    if key is not None and link[key] <= 0:
        problems.append(f"nonlinearity.{key} must be positive")
    elif link["kind"] == "log_quantizer" and link["rho"] >= 2:
        problems.append(f"nonlinearity.rho={link['rho']} must be below 2: the "
                        "log_quantizer's linearized lower bound 1 - rho/2 must be positive")
    if sections["sweep"]["t_end"] <= 0:
        problems.append("sweep.t_end must be positive")
    khops = [("network.khop", net["khop"])]
    for axis, values in sections["sweep"]["axes"].items():
        if _LIST[1](values):
            # a repeated value would run the same cell twice
            problems += [f"sweep.axes.{axis} repeats the value {v}"
                         for v in sorted({v for i, v in enumerate(values) if v in values[:i]})]
        if axis not in _SWEEP_AXES:
            problems.append(f"sweep axis {axis!r} not in {_SWEEP_AXES}")
        elif not _LIST[1](values) or not values:
            problems.append(f"sweep.axes.{axis} must be a non-empty list of numbers")
        elif not all(_finite(v) for v in values):
            problems.append(f"sweep.axes.{axis} values must be finite")
        elif axis == "khop":
            khops += [("sweep.axes.khop", k) for k in values]
            problems += [f"sweep.axes.khop={k} must be an integer"
                         for k in values if not _INT[1](k)]
        else:
            if min(values) <= 0:
                problems.append(f"sweep.axes.{axis} values must be positive")
            if sections["sweep"]["mode"] == "spectral" and max(values) >= _SEED_LIMIT:
                problems.append(f"sweep.axes.{axis}={max(values)} is too large: a spectral sweep "
                                "seeds each cell's random gains with int(value * 1e6)")
            if axis == "eta" and sections["sweep"]["mode"] == "spectral":
                problems.append("sweep.axes.eta sets the integration step, which a spectral "
                                "sweep never reads: it needs sweep.mode 'dynamics'")
            elif axis == "rho" and link["kind"] not in _QUANTIZERS:
                problems.append("sweep.axes.rho sets the quantizer level, but no nonlinearity "
                                "line is a log_quantizer or uniform_quantizer")
            elif axis == "rho" and link["kind"] == "log_quantizer" and max(values) >= 2:
                problems.append(f"sweep.axes.rho={max(values)} must be below 2: the "
                                "log_quantizer's linearized lower bound 1 - rho/2 must be "
                                "positive")
    # the integrator takes round(t_end / step) steps of the aligned step;
    # a sweep's cells run over sweep.t_end with each eta axis value
    runs = [("solver.t_end", solver["t_end"], "solver.eta", solver["eta"])]
    axes = sections["sweep"]["axes"]
    if axes:
        etas = ([("sweep.axes.eta", v) for v in axes["eta"]] if _LIST[1](axes.get("eta"))
                else [("solver.eta", solver["eta"])])
        runs += [("sweep.t_end", sections["sweep"]["t_end"], *e) for e in etas]
    period = net["switch_period"]
    for t_name, t_end, eta_name, eta in runs:
        if min(period, t_end, eta) <= 0:
            continue  # reported above
        step = aligned_step(eta, period, net["switch_mode"])
        steps = t_end / step if step else float("inf")
        # only a permuting network's period shrinks the step
        shrinks = (f" and network.switch_period={period:g}"
                   if net["switch_mode"] == SwitchMode.PERMUTE else "")
        implies = f"{t_name}={t_end:g} with {eta_name}={eta:g}{shrinks} (step {step:g}) implies"
        if steps > MAX_STEPS + 0.5:
            problems.append(f"{implies} {steps:.3g} steps, above the limit of {MAX_STEPS:.0e}")
        elif round(steps) == 0:
            # a run of no steps would report its initial state as completed
            problems.append(f"{implies} 0 steps: {t_name} must exceed half the step")
    # the k-hop ring links each node to k neighbours per side
    k_max = (n_agents - 1) // 2
    for name, k in khops:
        if not 1 <= k <= k_max:
            problems.append(f"{name}={k} out of range: partition.n_agents={n_agents} "
                            f"needs 1 <= khop <= (n_agents - 1)//2 = {k_max}")


# ------------------------------------------------------------------ builders

def build_nonlinearity(spec: dict) -> LinkNonlinearity:
    kind = spec["kind"]
    if kind == "identity":
        return identity()
    if kind == "log_quantizer":
        return log_quantizer(float(spec["rho"]))
    if kind == "uniform_quantizer":
        return uniform_quantizer(float(spec["rho"]))
    return saturation(float(spec["limit"]))


def build_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    data = cfg["data"]
    if data["kind"] == "csv":
        try:
            with open(data["path"], encoding="utf-8") as fh:
                return dataset_from_csv(fh.read())
        except (OSError, ValueError) as err:
            raise ConfigError([f"data.path {data['path']!r}: {err}"]) from err
    try:
        return generate_ellipse_data(
            data["n_points"],
            cfg.section_seed("data", 1),
            radius=data["radius"],
            margin_gap=data["margin_gap"],
        )
    except ValueError as err:
        raise ConfigError([f"data: {err}"]) from err


def build_partition(cfg: ExperimentConfig, data: LabeledDataset) -> list[np.ndarray]:
    part = cfg["partition"]
    try:
        return partition(data, part["n_agents"], part["mode"], cfg.section_seed("partition", 2))
    except ValueError as err:
        raise ConfigError([f"partition.n_agents={part['n_agents']}: {err}"]) from err


def build_schedule(cfg: ExperimentConfig) -> SwitchingSchedule:
    net = cfg["network"]
    base = make_khop_ring(cfg["partition"]["n_agents"], net["khop"],
                          net["total_weight"], directed=net["directed"])
    return SwitchingSchedule(base, net["switch_period"],
                             rng_seed=cfg.section_seed("network", 3),
                             mode=SwitchMode(net["switch_mode"]))


def build_solver(cfg: ExperimentConfig, schedule: SwitchingSchedule) -> SolverConfig:
    solver = cfg["solver"]
    return SolverConfig(
        alpha=solver["alpha"],
        eta=solver["eta"],
        t_end=solver["t_end"],
        schedule=schedule,
        g=build_nonlinearity(cfg["nonlinearity"]),
        method=solver["method"],
        y_init=solver["y_init"],
        sample_stride=solver["sample_stride"],
    )


def build_quadratic_costs(cfg: ExperimentConfig) -> list[QuadraticCost]:
    n = cfg["partition"]["n_agents"]
    m = cfg["cost"]["m"]
    scale = cfg["cost"]["curvature_scale"]
    rng = np.random.default_rng(cfg.section_seed("cost", 4))
    costs = []
    for _ in range(n):
        diag = rng.uniform(0.3, 1.0, size=m) * scale
        costs.append(QuadraticCost(np.diag(diag), rng.normal(size=m)))
    return costs


def build_svm_costs(cfg: ExperimentConfig, data: LabeledDataset,
                    part: list[np.ndarray]) -> list[SvmHingeCost]:
    cost = cfg["cost"]
    feats = feature_map(data.points)
    return [SvmHingeCost(feats[idx], data.labels[idx],
                         C=cost["C"], mu=cost["mu"], eps_nu=cost["eps_nu"]) for idx in part]


# ------------------------------------------------------------------- presets

def preset_names() -> list[str]:
    root = resources.files("gtflow").joinpath("presets")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> str:
    path = resources.files("gtflow").joinpath("presets", f"{name}.json")
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError([f"unknown preset {name!r}; available: {preset_names()}"])
