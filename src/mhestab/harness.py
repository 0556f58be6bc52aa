"""Experiment harness: configuration, scenario sweeps, bound traces, reports.

An experiment wires one plant, one certificate, one cost, one estimator kind,
and a list of disturbance scenarios into a verified run: simulate the truth,
run the estimator, certify every window's suboptimality against the truth,
and check the claimed error bound at every certified step.  Everything an
experiment writes is deterministic in (config, seed), down to the bytes of
the CSV artifacts, so regressions show up as diffs.

Exit-code contract (enforced by the CLI): 0 all margins and analyses pass,
2 configuration/fixture/analysis failure (before any simulation), 3 solver
infeasibility, 4 bound violation with the worst step recorded.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from .comparison import (
    DomainError,
    PlusMode,
    TriangleGrowth,
    parse_klfn,
    plus_reduce,
    triangle_constant,
)
from .systems import (
    DisturbanceScenario,
    SystemModel,
    builtin_model,
    generate_scenario,
    simulate,
)
from .certificates import (
    CostSpec,
    DerivedBounds,
    IossCertificate,
    builtin_certificate,
    check_compatibility,
    check_ioss_on_pair,
    default_cost_from_certificate,
    derive_bcd,
    eval_rgas_rhs,
)
from .estimator import (
    CertificationRecord,
    SolverConfig,
    certify_suboptimality,
    run_fie,
    run_mhe,
    seq_norms,
)
from .stability import (
    ContractionAnalysis,
    HatBounds,
    build_bar_bounds,
    build_hat_bounds,
    eval_mhe_bound,
    find_contraction_max,
    find_contraction_sum,
)

REPORT_SCHEMA = "mhestab-report-v1"
MARGIN_TOL = 1e-9


class ConfigError(ValueError):
    """Invalid or unresolvable experiment configuration (exit code 2)."""


class AnalysisError(RuntimeError):
    """A required stability analysis failed before simulation (exit code 2)."""


class BoundViolationError(RuntimeError):
    """A certified step violated its error bound (exit code 4)."""

    def __init__(self, message: str, worst: dict):
        super().__init__(message)
        self.worst = worst


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ScenarioSpec:
    name: str
    kind: str
    amplitude: float = 0.0
    rate: float = 0.0
    time: int = 0
    magnitude: float = 0.0

    def instantiate(self, seed: int, horizon: int) -> DisturbanceScenario:
        return DisturbanceScenario(self.kind, seed, horizon, self.amplitude,
                                   self.rate, self.time, self.magnitude)


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    plant: str = "s1"
    certificate: str = "default"
    mode: str = "max"
    cost: str = "default"
    cost_beta_hat: str = ""
    cost_gamma_hat: str = ""
    cost_delta_hat: str = ""
    a_factor: float = 1.05
    estimator: str = "fie"
    horizon: int = 4
    sweep: Tuple[int, ...] = ()
    t_final: int = 30
    seeds: Tuple[int, ...] = (0,)
    x0: float = 0.5
    prior_offset: float = 1.0
    t_max_fie: int = 200
    scenarios: List[ScenarioSpec] = field(default_factory=lambda: [ScenarioSpec("zero", "zero")])
    solver: SolverConfig = field(default_factory=SolverConfig)
    probe_delta: float = 0.5
    probe_step: int = 2
    grid_r_min: float = 1e-6
    grid_r_max: float = 1e3
    grid_points_per_decade: int = 48
    out_dir: str = "out"
    jobs: int = 1

    def plus_mode(self) -> PlusMode:
        try:
            return PlusMode(self.mode)
        except ValueError:
            raise ConfigError(f"unknown plus mode {self.mode!r}") from None

    def validate(self):
        if self.estimator not in ("fie", "mhe"):
            raise ConfigError(f"unknown estimator kind {self.estimator!r}")
        if self.estimator == "mhe" and self.horizon < 1:
            raise ConfigError("moving-horizon estimator needs horizon >= 1")
        if self.t_final < 1:
            raise ConfigError("t_final must be >= 1")
        if self.estimator == "fie" and self.t_final > self.t_max_fie:
            raise ConfigError(f"t_final = {self.t_final} exceeds the full-information "
                              f"horizon cap t_max_fie = {self.t_max_fie}")
        if not self.seeds:
            raise ConfigError("seeds selects no seed")
        if any(k < 1 for k in self.sweep):
            raise ConfigError(f"sweep horizons must be >= 1, got {list(self.sweep)}")
        if self.a_factor < 1.0:
            raise ConfigError("a_factor must be >= 1")
        if not self.scenarios:
            raise ConfigError("at least one scenario is required")
        kinds = {s.name for s in self.scenarios}
        if len(kinds) != len(self.scenarios):
            raise ConfigError("scenario names must be unique")
        self.plus_mode()

    def echo(self) -> dict:
        d = asdict(self)
        d["solver"] = asdict(self.solver)
        d["scenarios"] = [asdict(s) for s in self.scenarios]
        return d


def _parse_seeds(text: str) -> Tuple[int, ...]:
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":")
        return tuple(range(int(lo), int(hi)))
    return tuple(int(p) for p in text.split(",") if p.strip())


def _parse_sweep(text: str) -> Tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise ConfigError(f"sweep has an empty entry: {text!r}")
    return tuple(int(p) for p in parts)


#: The keys :func:`load_config` reads, per section; ``scenario`` stands for
#: every ``[scenario.NAME]`` section.  Any other key or section is an error.
CONFIG_KEYS = {
    "experiment": ("name", "plant", "certificate", "mode", "cost", "a_factor", "estimator",
                   "horizon", "sweep", "t_final", "seeds", "x0", "prior_offset", "t_max_fie"),
    "cost": ("beta_hat", "gamma_hat", "delta_hat"),
    "scenario": ("kind", "amplitude", "rate", "time", "magnitude"),
    "solver": ("method", "multistart", "max_iter", "tol", "seed", "use_structured",
               "level_passes"),
    "grid": ("r_min", "r_max", "points_per_decade"),
    "probe": ("delta", "step"),
    "output": ("dir",),
}


def _check_keys(parser: configparser.ConfigParser, path: str):
    for section in parser.sections():
        kind = "scenario" if section.startswith("scenario.") else section
        if kind not in CONFIG_KEYS:
            raise ConfigError(f"unknown section [{section}] in {path!r}")
        unknown = sorted(set(parser[section]) - set(CONFIG_KEYS[kind]))
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in section [{section}] of {path!r}")


def load_config(path: str) -> ExperimentConfig:
    """Read the flat key-value config format (typed sections, one file per
    experiment).  Unknown sections or keys and unparsable values raise
    :class:`ConfigError`."""
    try:
        return _read_config(path)
    except ConfigError:
        raise
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"invalid config file {path!r}: {exc}") from None


def _read_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if not parser.has_section("experiment"):
        raise ConfigError(f"config file {path!r} has no [experiment] section")
    _check_keys(parser, path)
    cfg = ExperimentConfig()
    if parser.has_section("experiment"):
        sec = parser["experiment"]
        cfg.name = sec.get("name", cfg.name)
        cfg.plant = sec.get("plant", cfg.plant)
        cfg.certificate = sec.get("certificate", cfg.certificate)
        cfg.mode = sec.get("mode", cfg.mode)
        cfg.cost = sec.get("cost", cfg.cost)
        cfg.a_factor = sec.getfloat("a_factor", cfg.a_factor)
        cfg.estimator = sec.get("estimator", cfg.estimator)
        cfg.horizon = sec.getint("horizon", cfg.horizon)
        if "sweep" in sec:
            cfg.sweep = _parse_sweep(sec["sweep"])
        cfg.t_final = sec.getint("t_final", cfg.t_final)
        if "seeds" in sec:
            cfg.seeds = _parse_seeds(sec["seeds"])
        cfg.x0 = sec.getfloat("x0", cfg.x0)
        cfg.prior_offset = sec.getfloat("prior_offset", cfg.prior_offset)
        cfg.t_max_fie = sec.getint("t_max_fie", cfg.t_max_fie)
    if parser.has_section("cost"):
        sec = parser["cost"]
        cfg.cost_beta_hat = sec.get("beta_hat", "")
        cfg.cost_gamma_hat = sec.get("gamma_hat", "")
        cfg.cost_delta_hat = sec.get("delta_hat", "")
        if cfg.cost_beta_hat:
            cfg.cost = "explicit"
    scen = []
    for section in parser.sections():
        if section.startswith("scenario."):
            sec = parser[section]
            scen.append(ScenarioSpec(
                section.split(".", 1)[1],
                sec.get("kind", "zero"),
                sec.getfloat("amplitude", 0.0),
                sec.getfloat("rate", 0.0),
                sec.getint("time", 0),
                sec.getfloat("magnitude", 0.0),
            ))
    if scen:
        cfg.scenarios = scen
    if parser.has_section("solver"):
        sec = parser["solver"]
        cfg.solver = SolverConfig(
            method=sec.get("method", "gauss_newton_penalty"),
            multistart=sec.getint("multistart", 4),
            max_iter=sec.getint("max_iter", 60),
            tol=sec.getfloat("tol", 1e-10),
            seed=sec.getint("seed", 0),
            use_structured=sec.getboolean("use_structured", True),
            level_passes=sec.getint("level_passes", 4),
        )
    if parser.has_section("grid"):
        sec = parser["grid"]
        cfg.grid_r_min = sec.getfloat("r_min", cfg.grid_r_min)
        cfg.grid_r_max = sec.getfloat("r_max", cfg.grid_r_max)
        cfg.grid_points_per_decade = sec.getint("points_per_decade", cfg.grid_points_per_decade)
    if parser.has_section("probe"):
        sec = parser["probe"]
        cfg.probe_delta = sec.getfloat("delta", cfg.probe_delta)
        cfg.probe_step = sec.getint("step", cfg.probe_step)
    if parser.has_section("output"):
        cfg.out_dir = parser["output"].get("dir", cfg.out_dir)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Resolution: fixtures -> derivation chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ResolvedExperiment:
    config: ExperimentConfig
    model: SystemModel
    cert: IossCertificate
    cost: CostSpec
    n_map: TriangleGrowth
    bounds: DerivedBounds
    witness_B: float


def resolve(config: ExperimentConfig) -> ResolvedExperiment:
    """Resolve ids to fixtures and build the bound-derivation chain."""
    config.validate()
    mode = config.plus_mode()
    try:
        model = builtin_model(config.plant)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    cert_name = config.plant if config.certificate == "default" else config.certificate
    try:
        cert = builtin_certificate(cert_name, mode)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    n_map = triangle_constant(cert.beta, mode)
    if config.cost == "default":
        cost = default_cost_from_certificate(cert, n_map)
    else:
        if not (config.cost_beta_hat and config.cost_gamma_hat and config.cost_delta_hat):
            raise ConfigError("explicit cost needs beta_hat, gamma_hat, delta_hat")
        try:
            cost = CostSpec(mode, parse_klfn(config.cost_beta_hat),
                            parse_klfn(config.cost_gamma_hat),
                            parse_klfn(config.cost_delta_hat),
                            summability=None if mode is PlusMode.MAX else _explicit_summability(
                                config.cost_gamma_hat, config.cost_delta_hat))
        except DomainError as exc:
            raise ConfigError(f"invalid explicit cost: {exc}") from None
    witness = check_compatibility(cert, cost, n_map)
    if not witness.passed:
        raise AnalysisError(
            f"cost is not compatible with certificate (worst ratio {witness.worst_ratio:.3g})")
    bounds = derive_bcd(cert, cost, witness, config.a_factor)
    return ResolvedExperiment(config, model, cert, cost, n_map, bounds, witness.B)


def _explicit_summability(gamma_text: str, delta_text: str):
    from .comparison import LinearK, check_summable
    out = {}
    for key, text in (("gamma_hat", gamma_text), ("delta_hat", delta_text)):
        fn = parse_klfn(text)
        # derive a cheap geometric cap from the tail at zero horizon
        cap = fn(1.0, 0) + fn.sum_tail(1.0, 0)
        record = check_summable(fn, LinearK(max(cap * 4.0, 1e-9)))
        if not record.passed:
            raise ConfigError(f"explicit {key} failed its summability check")
        out[key] = record
    return out


def contraction_for(resolved: ResolvedExperiment, K: int) -> ContractionAnalysis:
    if resolved.bounds.mode is PlusMode.MAX:
        return find_contraction_max(resolved.bounds, resolved.cert.alpha, K)
    return find_contraction_sum(resolved.bounds, resolved.cert.alpha, K)


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

@dataclass
class CellResult:
    scenario: str
    seed: int
    horizon: int           # 0 for FIE
    rows: List[dict]
    min_margin: float
    certified_steps: int
    total_steps: int
    worst: dict

    def key(self):
        return (self.scenario, self.seed, self.horizon)


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def trace_to_csv(rows: List[dict], state_dim: int) -> str:
    header = ["t"]
    header += [f"xhat{i}" for i in range(state_dim)]
    header += [f"x_true{i}" for i in range(state_dim)]
    header += ["error", "rhs", "margin", "window_margin", "achieved_cost",
               "certified_ratio", "certified", "status"]
    lines = [",".join(header)]
    for row in rows:
        parts = [str(row["t"])]
        parts += [_fmt(v) for v in row["xhat"]]
        parts += [_fmt(v) for v in row["x_true"]]
        parts += [_fmt(row["error"]), _fmt(row["rhs"]), _fmt(row["margin"]),
                  _fmt(row.get("window_margin")), _fmt(row["achieved_cost"]),
                  _fmt(row["certified_ratio"]), str(int(row["certified"])), row["status"]]
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def _slope_table(fn, s_max: int) -> Optional[np.ndarray]:
    from .estimator import cached_slope
    slopes = [cached_slope(fn, s) for s in range(s_max + 1)]
    if any(s is None for s in slopes):
        return None
    return np.asarray(slopes, dtype=float)


def _rhs_trace_fie(bounds: DerivedBounds, d0: float, w_norms: np.ndarray,
                   v_norms: np.ndarray, T: int) -> np.ndarray:
    """Vectorized bound trace; falls back to the reference fold when the gain
    slices are not linear in r."""
    c_sl = _slope_table(bounds.c, T)
    d_sl = _slope_table(bounds.d, T)
    out = np.empty(T + 1)
    if c_sl is None or d_sl is None:
        for t in range(T + 1):
            out[t] = eval_rgas_rhs(bounds, d0, w_norms[:t, None], v_norms[:t, None], t)
        return out
    is_sum = bounds.mode is PlusMode.SUM
    for t in range(T + 1):
        b_term = bounds.b(d0, t)
        if t == 0:
            out[t] = b_term
            continue
        c_terms = c_sl[1:t + 1] * w_norms[t - 1::-1]
        d_terms = d_sl[1:t + 1] * v_norms[t - 1::-1]
        if is_sum:
            out[t] = b_term + float(c_terms.sum() + d_terms.sum())
        else:
            out[t] = max(b_term, float(c_terms.max()), float(d_terms.max()))
    return out


def _rhs_trace_mhe(hat: HatBounds, d0: float, w_norms: np.ndarray,
                   v_norms: np.ndarray, T: int) -> np.ndarray:
    c_sl = _slope_table(hat.c_hat, T)
    d_sl = _slope_table(hat.d_hat, T)
    out = np.empty(T + 1)
    if c_sl is None or d_sl is None:
        for t in range(T + 1):
            out[t] = eval_mhe_bound(hat, d0, w_norms[:t, None], v_norms[:t, None], t)
        return out
    for t in range(T + 1):
        b_term = hat.b_hat(d0, t)
        if t == 0:
            out[t] = b_term
            continue
        c_terms = c_sl[1:t + 1] * w_norms[t - 1::-1]
        d_terms = d_sl[1:t + 1] * v_norms[t - 1::-1]
        # the outer combination is a maximum in both formulations
        out[t] = max(b_term, float(c_terms.max()), float(d_terms.max()))
    return out


def run_cell(resolved: ResolvedExperiment, scenario: ScenarioSpec, seed: int,
             hat: Optional[HatBounds] = None, horizon: Optional[int] = None) -> CellResult:
    """Simulate, estimate, certify, and evaluate bounds for one sweep cell."""
    config = resolved.config
    model, cert, cost, bounds = resolved.model, resolved.cert, resolved.cost, resolved.bounds
    T = config.t_final
    K = horizon if horizon is not None else config.horizon
    spec = scenario.instantiate(seed, T + 1)
    w, v = generate_scenario(spec, model.process_noise_dim, model.meas_noise_dim)
    # the unstable plant starts at its equilibrium; others at the configured x0
    x0 = np.full(model.state_dim, 0.0 if config.plant == "s2" else config.x0)
    u = np.zeros((T + 1, model.input_dim))
    sol = simulate(model, x0, u, w, v, T + 1)
    prior0 = x0 + config.prior_offset
    is_mhe = config.estimator == "mhe"
    if is_mhe:
        results = run_mhe(model, cost, prior0, u[:T], sol.y[:T], K, config.a_factor,
                          config.solver)
    else:
        results = run_fie(model, cost, prior0, u[:T], sol.y[:T], config.a_factor,
                          config.solver, t_max=config.t_max_fie)
    d0 = model.dist(sol.x[0], prior0)
    w_norms = seq_norms(sol.w)
    v_norms = seq_norms(sol.v)
    if is_mhe and hat is not None:
        rhs_trace = _rhs_trace_mhe(hat, d0, w_norms, v_norms, T)
    else:
        rhs_trace = _rhs_trace_fie(bounds, d0, w_norms, v_norms, T)
    rows = []
    chain_certified = True
    certified_steps = 0
    min_margin = math.inf
    worst = {}
    errors = []
    for t in range(T + 1):
        res = results[t]
        err = cert.alpha(model.dist(sol.x[t], res.published))
        errors.append(err)
        if t == 0:
            record = CertificationRecord(True, 1.0, 0.0, 0.0)
        else:
            start = 0 if (not is_mhe or t <= K) else t - K
            reference = sol.window(start, t)
            record = certify_suboptimality(res, reference, cost, config.a_factor)
        if is_mhe:
            chain_certified = chain_certified and record.passed
            certified = chain_certified
        else:
            certified = record.passed
        rhs = float(rhs_trace[t])
        margin = rhs - err
        window_margin = None
        if is_mhe and t > K and certified and hat is not None:
            prev_err = errors[t - K]
            terms = [hat.analysis.kappa(prev_err)]
            for tau in range(1, K + 1):
                j = t - tau
                terms.append(bounds.c(float(w_norms[j]), tau))
                terms.append(bounds.d(float(v_norms[j]), tau))
            window_margin = plus_reduce(bounds.mode, terms) - err
        if certified:
            certified_steps += 1
            eff = margin if window_margin is None else min(margin, window_margin)
            if eff < min_margin:
                min_margin = eff
                worst = {"t": t, "scenario": scenario.name, "seed": seed,
                         "margin": eff, "error": err, "rhs": rhs}
        rows.append({
            "t": t,
            "xhat": list(map(float, res.published)),
            "x_true": list(map(float, sol.x[t])),
            "error": err,
            "rhs": rhs,
            "margin": margin,
            "window_margin": window_margin,
            "achieved_cost": res.cost,
            "certified_ratio": record.ratio if math.isfinite(record.ratio) else -1.0,
            "certified": certified,
            "status": res.status,
        })
    return CellResult(scenario.name, seed, K if is_mhe else 0, rows,
                      min_margin if certified_steps else math.inf,
                      certified_steps, T + 1, worst)


_WORKER_CACHE: Dict[tuple, tuple] = {}


def _cell_worker(payload) -> CellResult:
    """Process-pool entry point: re-resolves the (picklable) config once per
    worker and runs one cell; results reduce deterministically by cell key."""
    config, scenario, seed, horizon = payload
    K = horizon or config.horizon
    cache_key = (config.plant, config.certificate, config.mode, config.cost,
                 config.cost_beta_hat, config.cost_gamma_hat, config.cost_delta_hat,
                 config.a_factor, config.estimator, K)
    if cache_key not in _WORKER_CACHE:
        resolved = resolve(config)
        hat = None
        if config.estimator == "mhe":
            analysis = contraction_for(resolved, K)
            hat = build_hat_bounds(analysis, resolved.bounds)
        _WORKER_CACHE[cache_key] = (resolved, hat)
    resolved, hat = _WORKER_CACHE[cache_key]
    return run_cell(resolved, scenario, seed, hat, horizon)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    status: str
    report_path: str
    cells: List[CellResult]
    analysis: dict
    out_dir: str


def _analysis_summary(resolved: ResolvedExperiment,
                      analyses: Dict[int, ContractionAnalysis]) -> dict:
    from .certificates import certificate_to_text, cost_to_text
    summary = {
        "mode": resolved.config.mode,
        "plant": resolved.model.name,
        "certificate": certificate_to_text(resolved.cert),
        "cost": cost_to_text(resolved.cost),
        "triangle_growth": list(resolved.n_map.values),
        "compat_B": resolved.witness_B,
        "a_factor": resolved.config.a_factor,
        "contractions": {},
    }
    for K, analysis in sorted(analyses.items()):
        summary["contractions"][str(K)] = {
            "passed": analysis.passed,
            "linear_rate": analysis.linear_rate,
            "worst_margin": analysis.worst_margin,
            "worst_r": analysis.worst_r,
            "r_range": list(analysis.r_range),
            "notes": analysis.notes,
        }
    return summary


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _plot_spec(cells: List[CellResult], out_name: str) -> dict:
    series = []
    for cell in cells:
        label = f"{cell.scenario}-seed{cell.seed}" + (f"-K{cell.horizon}" if cell.horizon else "")
        csv = f"trace_{label}.csv"
        series.append({"csv": csv, "x": "t", "y": "error", "label": f"error {label}"})
        series.append({"csv": csv, "x": "t", "y": "rhs", "label": f"bound {label}",
                       "style": "dashed"})
    return {
        "schema": "mhestab-plot-v1",
        "title": out_name,
        "axes": {"x": "t", "y": "alpha(error)", "y_scale": "log"},
        "series": series,
    }


def run_experiment(config: ExperimentConfig, out_dir: Optional[str] = None) -> ExperimentReport:
    """Execute one experiment: analysis gate, scenario x seed sweep, margin
    verification, and artifact emission."""
    resolved = resolve(config)
    out = os.path.join(out_dir or config.out_dir, config.name)
    analyses: Dict[int, ContractionAnalysis] = {}
    hat = None
    if config.estimator == "mhe":
        analysis = contraction_for(resolved, config.horizon)
        analyses[config.horizon] = analysis
        if not analysis.passed:
            raise AnalysisError(
                f"no contraction at horizon {config.horizon}: {analysis.notes} "
                f"(worst margin {analysis.worst_margin:.3g} at r={analysis.worst_r})")
        hat = build_hat_bounds(analysis, resolved.bounds)
    keys = [(scenario, seed) for scenario in config.scenarios for seed in config.seeds]
    if config.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        payloads = [(config, scenario, seed, None) for scenario, seed in keys]
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            cells = list(pool.map(_cell_worker, payloads))
    else:
        cells = [run_cell(resolved, scenario, seed, hat) for scenario, seed in keys]
    cells.sort(key=lambda c: c.key())
    violations = []
    for cell in cells:
        if cell.certified_steps and cell.min_margin < -MARGIN_TOL:
            violations.append(cell.worst)
    for cell in cells:
        label = f"{cell.scenario}-seed{cell.seed}" + (f"-K{cell.horizon}" if cell.horizon else "")
        _write(os.path.join(out, f"trace_{label}.csv"),
               trace_to_csv(cell.rows, resolved.model.state_dim))
    report = {
        "schema": REPORT_SCHEMA,
        "config": config.echo(),
        "analysis": _analysis_summary(resolved, analyses),
        "cells": [{
            "scenario": c.scenario, "seed": c.seed, "horizon": c.horizon,
            "min_margin": None if not math.isfinite(c.min_margin) else c.min_margin,
            "certified_steps": c.certified_steps, "total_steps": c.total_steps,
            "worst": c.worst,
        } for c in cells],
        "violations": violations,
        "status": "bound-violation" if violations else "pass",
    }
    report_path = os.path.join(out, "report.json")
    _write(report_path, json.dumps(report, sort_keys=True, indent=2) + "\n")
    _write(os.path.join(out, "plots.json"),
           json.dumps(_plot_spec(cells, config.name), sort_keys=True, indent=2) + "\n")
    if violations:
        worst = min(violations, key=lambda w: w["margin"])
        raise BoundViolationError(
            f"bound violated at t={worst['t']} ({worst['scenario']}, seed {worst['seed']}): "
            f"margin {worst['margin']:.3e}", worst)
    return ExperimentReport("pass", report_path, cells, report["analysis"], out)


def analyze(config: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Certificate + contraction analysis only; no simulation."""
    resolved = resolve(config)
    ks = config.sweep or ((config.horizon,) if config.estimator == "mhe" else ())
    analyses = {K: contraction_for(resolved, K) for K in ks}
    summary = _analysis_summary(resolved, analyses)
    out = os.path.join(out_dir or config.out_dir, config.name)
    _write(os.path.join(out, "analysis.json"),
           json.dumps({"schema": REPORT_SCHEMA, "analysis": summary,
                       "config": config.echo()}, sort_keys=True, indent=2) + "\n")
    failing = [K for K, a in analyses.items() if not a.passed]
    if failing:
        raise AnalysisError(f"contraction analysis failed at horizons {sorted(failing)}")
    return summary


def horizon_sweep(config: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Sweep the moving horizon: per-K analyses, bar-bound envelopes, and
    overlaid empirical traces; failing horizons are excluded and reported."""
    if not config.sweep:
        raise ConfigError("horizon sweep needs a sweep = K1,K2,... entry")
    resolved = resolve(config)
    out = os.path.join(out_dir or config.out_dir, config.name)
    analyses = {}
    passing = []
    for K in sorted(set(config.sweep)):
        analysis = contraction_for(resolved, K)
        analyses[K] = analysis
        if analysis.passed:
            passing.append(K)
    if not passing:
        raise AnalysisError("no swept horizon admits a contraction")
    K0, K_max = min(passing), max(passing)
    hat_family = {}
    for K in range(K0, K_max + 1):
        analysis = analyses.get(K) or contraction_for(resolved, K)
        analyses.setdefault(K, analysis)
        if not analysis.passed:
            raise AnalysisError(f"horizon {K} inside the sweep range fails its contraction")
        hat_family[K] = build_hat_bounds(analysis, resolved.bounds, check_grid=False)
    bars = build_bar_bounds(hat_family, K0, K_max, resolved.bounds)
    probe_r = (1.0, 10.0)
    probe_t = (0, 1, 2, 3)
    gain_table = []
    for r in probe_r:
        for t in probe_t:
            row = {"r": r, "t": t, "fie_b": resolved.bounds.b(r, t)}
            for K in sorted(set(config.sweep)):
                if K in hat_family:
                    row[f"bar_b_K{K}"] = bars.b_bar(K, r, t)
            gain_table.append(row)
    cells = []
    for K in sorted(set(config.sweep)):
        if K not in hat_family:
            continue
        for scenario in config.scenarios:
            for seed in config.seeds:
                cells.append(run_cell(resolved, scenario, seed, hat_family[K], horizon=K))
    cells.sort(key=lambda c: c.key())
    for cell in cells:
        label = f"{cell.scenario}-seed{cell.seed}-K{cell.horizon}"
        _write(os.path.join(out, f"trace_{label}.csv"),
               trace_to_csv(cell.rows, resolved.model.state_dim))
    violations = [c.worst for c in cells if c.certified_steps and c.min_margin < -MARGIN_TOL]
    summary = {
        "schema": REPORT_SCHEMA,
        "config": config.echo(),
        "analysis": _analysis_summary(resolved, analyses),
        "excluded_horizons": [K for K in config.sweep if not analyses[K].passed],
        "minimal_passing_horizon": K0,
        "bar_convergence_gap": bars.convergence_gap,
        "gain_table": gain_table,
        "violations": violations,
        "status": "bound-violation" if violations else "pass",
    }
    _write(os.path.join(out, "sweep.json"), json.dumps(summary, sort_keys=True, indent=2) + "\n")
    if violations:
        worst = min(violations, key=lambda w: w["margin"])
        raise BoundViolationError("sweep bound violation", worst)
    return summary


def deviant_output_probe(config: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Perturb one measurement and verify the pair inequality with the output
    discrepancy terms included.

    The estimator consumes the perturbed stream; the certificate inequality is
    then evaluated between the true solution and the estimator's window
    solution, whose output channel reproduces the perturbed measurements, so
    the perturbation enters exactly like a disturbance.
    """
    resolved = resolve(config)
    model, cert, cost = resolved.model, resolved.cert, resolved.cost
    T = config.t_final
    out = os.path.join(out_dir or config.out_dir, config.name)
    results = {}
    for scenario in config.scenarios:
        spec = scenario.instantiate(config.seeds[0], T + 1)
        w, v = generate_scenario(spec, model.process_noise_dim, model.meas_noise_dim)
        x0 = np.full(model.state_dim, 0.0 if config.plant == "s2" else config.x0)
        u = np.zeros((T + 1, model.input_dim))
        sol = simulate(model, x0, u, w, v, T + 1)
        y_pert = sol.y[:T].copy()
        step = min(max(config.probe_step, 0), T - 1)
        y_pert[step, 0] += config.probe_delta
        prior0 = x0 + config.prior_offset
        est = run_fie(model, cost, prior0, u[:T], y_pert, config.a_factor, config.solver,
                      t_max=config.t_max_fie)
        final = est[T]
        est_sol = final.as_solution(model, u[:T])
        truth = sol.window(0, T)
        margin = check_ioss_on_pair(cert, model, truth, est_sol)
        out_of_range = abs(config.probe_delta) > cert.r_range[1]
        results[scenario.name] = {
            "min_margin": margin.min_margin,
            "worst_t": margin.worst_t,
            "passed": bool(margin.passed),
            "out_of_range": out_of_range,
            "perturbation": config.probe_delta,
            "step": step,
        }
    summary = {"schema": REPORT_SCHEMA, "config": config.echo(), "probe": results,
               "status": "pass" if all(r["passed"] for r in results.values()) else "probe-violation"}
    _write(os.path.join(out, "probe.json"), json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary
