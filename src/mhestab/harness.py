"""Experiment harness: configuration, scenario sweeps, bound traces, reports.

An experiment wires one plant, one certificate, one cost, one estimator kind,
and a list of disturbance scenarios into a verified run: simulate the truth,
run the estimator, certify every window's suboptimality against the truth,
and check the claimed error bound at every certified step.  Everything an
experiment writes is deterministic in (config, seed), down to the bytes of
the CSV artifacts, so regressions show up as diffs.

:func:`load_config` builds each ``[scenario.NAME]`` section as a
:class:`DisturbanceScenario`, whose constructor checks it, so a bad scenario
fails as a :class:`ConfigError` under every verb, before any simulation.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .comparison import (
    DomainError,
    PlusMode,
    TriangleGrowth,
    parse_klfn,
    plus_fold,
    plus_reduce,
    seq_norms,
    triangle_constant,
)
from .systems import (
    DisturbanceScenario,
    SolutionTuple,
    SystemModel,
    builtin_model,
    generate_scenario,
    row_distances,
    simulate,
)
from .certificates import (
    CostSpec,
    DerivedBounds,
    IossCertificate,
    bound_trace,
    builtin_certificate,
    check_compatibility,
    check_ioss_on_pair,
    default_cost_from_certificate,
    derive_bcd,
)
from .estimator import (
    GENERIC_GROUP_ROW_STEPS,
    EstimateResult,
    SolverConfig,
    _step_windows,
    _structured_engine,
    _window_costs,
    certification_record,
    run_fie,
    run_mhe,
)
from .stability import (
    ContractionAnalysis,
    HatBounds,
    build_bar_bounds,
    build_hat_bounds,
    find_contraction_max,
    find_contraction_sum,
)

REPORT_SCHEMA = "mhestab-report-v1"
MARGIN_TOL = 1e-9

#: The size rule refuses a run expected to need more bytes (:func:`_check_size`).
SIZE_BUDGET = 4 << 30


class ConfigError(ValueError):
    """Invalid or unresolvable experiment configuration (exit code 2)."""


class AnalysisError(RuntimeError):
    """A required stability analysis failed before simulation (exit code 2)."""


class NonFiniteStepError(RuntimeError):
    """A step whose achieved or reference cost, or a certified step whose
    error or bound, is not finite (exit code 3)."""


class BoundViolationError(RuntimeError):
    """A certified step violated its error bound (exit code 4)."""

    def __init__(self, message: str, worst: dict):
        super().__init__(message)
        self.worst = worst


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

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
    scenarios: List[DisturbanceScenario] = field(
        default_factory=lambda: [DisturbanceScenario("zero")])
    solver: SolverConfig = field(default_factory=SolverConfig)
    probe_delta: float = 0.5
    probe_step: int = 2
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
        if self.cost not in ("default", "explicit"):
            raise ConfigError(f"unknown cost {self.cost!r}: choose default or explicit")
        if self.estimator == "mhe" and self.horizon < 1:
            raise ConfigError("moving-horizon estimator needs horizon >= 1")
        if self.t_final < 1:
            raise ConfigError("t_final must be >= 1")
        _check_size(self)
        if self.estimator == "fie" and self.t_final > self.t_max_fie:
            raise ConfigError(f"t_final = {self.t_final} exceeds the full-information "
                              f"horizon cap t_max_fie = {self.t_max_fie}")
        if not self.seeds:
            raise ConfigError("seeds selects no seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be unique, got {list(self.seeds)}")
        if not all(0 <= seed < 2 ** 128 for seed in self.seeds):
            raise ConfigError(f"seeds must be in [0, 2**128), got {list(self.seeds)}")
        if any(k < 1 for k in self.sweep):
            raise ConfigError(f"sweep horizons must be >= 1, got {list(self.sweep)}")
        floats = {"a_factor": self.a_factor, "x0": self.x0, "prior_offset": self.prior_offset,
                  "probe delta": self.probe_delta}
        for key, value in floats.items():
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.a_factor < 1.0:
            raise ConfigError("a_factor must be >= 1")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if not self.scenarios:
            raise ConfigError("at least one scenario is required")
        kinds = {s.name for s in self.scenarios}
        if len(kinds) != len(self.scenarios):
            raise ConfigError("scenario names must be unique")
        self.plus_mode()

    def echo(self) -> dict:
        return asdict(self)


def _check_size(config: ExperimentConfig, model: Optional[SystemModel] = None,
                cost: Optional[CostSpec] = None):
    """Refuse a run expected, by peak resident sizes of ``s1`` and ``s4`` runs,
    to need over ``SIZE_BUDGET`` bytes: 2 kB a step, 256 bytes a cell step and
    72 per entry of its window, and, where ``model`` and ``cost`` need a generic
    engine, 9 kB + 384 per window entry for each start and entry of the group
    being solved (at most ``GENERIC_GROUP_ROW_STEPS`` or one step of the cells)."""
    T, seeds = config.t_final, config.seeds
    # a lo:hi range of seeds stays a range until the rule admits it
    count = max(0, seeds.stop - seeds.start) if isinstance(seeds, range) else len(seeds)
    cells = len(config.scenarios) * count
    W = T if config.estimator == "fie" else min(T, max((config.horizon,) + tuple(config.sweep)))
    need = (T + 1) * (2048 + cells * (256 + 72 * W))
    generic = model is not None and _structured_engine(model, cost, W) is None
    if generic:
        need += config.solver.multistart * (9216 + 384 * W) * min(
            cells * (T + 1) * W, max(GENERIC_GROUP_ROW_STEPS, cells * W))
    if need > SIZE_BUDGET:
        raise ConfigError(
            f"the run needs about {need >> 30} GiB, beyond the size budget of "
            f"{SIZE_BUDGET >> 30} GiB: t_final = {T}, {len(config.scenarios)} scenarios x "
            f"{count} seeds, window {W}"
            + (f", [solver] multistart = {config.solver.multistart}" if generic else ""))


def _parse_seeds(text: str) -> Sequence[int]:
    text = text.strip()
    if ":" in text:
        lo, hi = (int(part) for part in text.split(":"))
        return range(lo, hi)
    return _parse_list(text, "seeds")


def _parse_list(text: str, key: str = "sweep") -> Tuple[int, ...]:
    """The integers of the comma list of ``key``; an empty entry is an error."""
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise ConfigError(f"{key} has an empty entry: {text!r}")
    return tuple(int(p) for p in parts)


def _named_as_fields(**parsers) -> dict:
    """Schema entries for keys named as the fields they set."""
    return {key: (key, parse) for key, parse in parsers.items()}


#: The config schema: per section, each key maps to the field it sets and the
#: parser of its text.  ``scenario`` stands for every ``[scenario.NAME]``
#: section and sets a :class:`DisturbanceScenario`, ``solver`` sets the
#: :class:`SolverConfig` and the rest set :class:`ExperimentConfig`.  Any
#: other section or key is an error; a missing key keeps its field's default.
CONFIG_KEYS = {
    "experiment": _named_as_fields(
        name=str, plant=str, certificate=str, mode=str, cost=str, a_factor=float,
        estimator=str, horizon=int, sweep=_parse_list, t_final=int, seeds=_parse_seeds,
        x0=float, prior_offset=float, t_max_fie=int),
    "cost": {key: ("cost_" + key, str) for key in ("beta_hat", "gamma_hat", "delta_hat")},
    "scenario": _named_as_fields(kind=str, amplitude=float, rate=float, time=int,
                                 magnitude=float),
    "solver": _named_as_fields(method=str, multistart=int, max_iter=int, tol=float, seed=int),
    "probe": {"delta": ("probe_delta", float), "step": ("probe_step", int)},
    "output": {"dir": ("out_dir", str)},
}


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
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    if not parser.has_section("experiment"):
        raise ConfigError(f"config file {path!r} has no [experiment] section")
    fields, scenarios = {}, []
    for section in parser.sections():
        kind, _, name = section.partition(".")
        if kind != "scenario":
            kind, name = section, ""
        if kind not in CONFIG_KEYS or (kind == "scenario") != bool(name):
            raise ConfigError(f"unknown section [{section}] in {path!r}")
        schema = CONFIG_KEYS[kind]
        values = {}
        for key, text in parser[section].items():
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path!r}")
            target, parse = schema[key]
            values[target] = parse(text)
        if name:
            scenarios.append(DisturbanceScenario(name, **values))
        elif kind == "solver":
            fields["solver"] = SolverConfig(**values)
        else:
            fields.update(values)
    if scenarios:
        fields["scenarios"] = scenarios
    cfg = ExperimentConfig(**fields)
    cfg.validate()
    cfg.seeds = tuple(cfg.seeds)
    if cfg.cost_beta_hat or cfg.cost_gamma_hat or cfg.cost_delta_hat:
        if cfg.cost == "default" and parser.has_option("experiment", "cost"):
            raise ConfigError(f"cost = default conflicts with the [cost] section of {path!r}: "
                              "set cost = explicit, or drop one of them")
        cfg.cost = "explicit"
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
        texts = {key: getattr(config, "cost_" + key) for key in ("beta_hat", "gamma_hat", "delta_hat")}
        if not all(texts.values()):
            raise ConfigError("explicit cost needs beta_hat, gamma_hat, delta_hat; [cost] lacks "
                              + ", ".join(key for key, text in texts.items() if not text))
        try:
            gains = {key: parse_klfn(text) for key, text in texts.items()}
            cost = CostSpec(mode, **gains)
        except DomainError as exc:
            raise ConfigError(f"invalid explicit cost: {exc}") from None
    _check_size(config, model, cost)
    witness = check_compatibility(cert, cost, n_map)
    if not witness.passed:
        raise AnalysisError(
            f"cost is not compatible with certificate (worst ratio {witness.worst_ratio:.3g})")
    bounds = derive_bcd(cert, cost, witness, config.a_factor)
    return ResolvedExperiment(config, model, cert, cost, n_map, bounds)


def contraction_for(resolved: ResolvedExperiment, K: int) -> ContractionAnalysis:
    if resolved.bounds.mode is PlusMode.MAX:
        return find_contraction_max(resolved.bounds, resolved.cert.alpha, K)
    return find_contraction_sum(resolved.bounds, resolved.cert.alpha, K)


def hat_bounds_for(resolved: ResolvedExperiment, K: int,
                   analysis: Optional[ContractionAnalysis] = None,
                   check_grid: bool = True) -> HatBounds:
    """The moving-horizon bounds at horizon K, built from ``analysis`` when
    given; a failing contraction is an :class:`AnalysisError`."""
    if analysis is None:
        analysis = contraction_for(resolved, K)
    if not analysis.passed:
        raise AnalysisError(
            f"no contraction at horizon {K}: {analysis.notes} "
            f"(worst margin {analysis.worst_margin:.3g} at r={analysis.worst_r})")
    return build_hat_bounds(analysis, resolved.bounds, check_grid=check_grid)


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CellResult:
    """One cell's check as columns over t = 0..T: ``xhat`` and ``x_true`` of
    shape (T + 1, n) and the other arrays of length T + 1.  ``window_margin``
    holds a value only where ``window_mask`` is set."""

    scenario: str
    seed: int
    horizon: int           # 0 for FIE
    xhat: np.ndarray
    x_true: np.ndarray
    error: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    window_margin: np.ndarray
    window_mask: np.ndarray
    achieved_cost: np.ndarray
    certified_ratio: np.ndarray
    certified: np.ndarray
    min_margin: float
    certified_steps: int
    total_steps: int
    worst: dict

    def key(self):
        return (self.scenario, self.seed, self.horizon)

    @property
    def label(self) -> str:
        """The cell's name in its trace file ``trace_<label>.csv``."""
        return f"{self.scenario}-seed{self.seed}" + (f"-K{self.horizon}" if self.horizon else "")


def trace_to_csv(cell: CellResult) -> str:
    """The cell's trace CSV, each column formatted once (floats by ``repr``);
    every window solved is a solution of the plant, so ``status`` is ``ok``."""
    n = cell.xhat.shape[1]
    header = ["t", *(f"xhat{i}" for i in range(n)), *(f"x_true{i}" for i in range(n)),
              "error", "rhs", "margin", "window_margin", "achieved_cost", "certified_ratio",
              "certified", "status"]

    def fmt(col: np.ndarray):
        return map(repr, col.tolist())

    window = [repr(m) if checked else "" for m, checked in
              zip(cell.window_margin.tolist(), cell.window_mask.tolist())]
    columns = [map(str, range(cell.total_steps)), *map(fmt, cell.xhat.T),
               *map(fmt, cell.x_true.T), fmt(cell.error), fmt(cell.rhs), fmt(cell.margin),
               window, fmt(cell.achieved_cost), fmt(cell.certified_ratio),
               map(str, cell.certified.astype(int).tolist()), ["ok"] * cell.total_steps]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    return "\n".join(lines) + "\n"


def _initial(config: ExperimentConfig, model: SystemModel) -> Tuple[np.ndarray, np.ndarray]:
    """The true initial state and the estimator's initial prior."""
    # the unstable plant starts at its equilibrium; others at the configured x0
    x0 = np.full(model.state_dim, 0.0 if config.plant == "s2" else config.x0)
    return x0, x0 + config.prior_offset


def _truths(config: ExperimentConfig, model: SystemModel, cells) -> SolutionTuple:
    """The simulated true solutions of the (scenario, seed) cells over
    t_final + 1 steps, with zero inputs: one :func:`simulate` of the stack."""
    T = config.t_final
    draws = [generate_scenario(scenario, seed, T + 1, model.process_noise_dim,
                               model.meas_noise_dim) for scenario, seed in cells]
    x0 = np.tile(_initial(config, model)[0], (len(cells), 1))
    return simulate(model, x0, np.zeros((T + 1, model.input_dim)),
                    np.stack([w for w, _ in draws]), np.stack([v for _, v in draws]), T + 1)


def _estimate(resolved: ResolvedExperiment, u: np.ndarray, y: np.ndarray, K: int):
    """The configured estimator's results for t = 0..T of the (C, T, p)
    measurement stack y: one stacked result of C rows per step."""
    config, model, cost = resolved.config, resolved.model, resolved.cost
    prior0 = _initial(config, model)[1]
    if config.estimator == "mhe":
        return run_mhe(model, cost, prior0, u, y, K, config.solver)
    return run_fie(model, cost, prior0, u, y, config.solver, t_max=config.t_max_fie)


def _check_group(resolved: ResolvedExperiment, cells, hat: Optional[HatBounds], K: int,
                 truths: SolutionTuple, estimates: List[EstimateResult]) -> List[CellResult]:
    """Certify and evaluate the bounds of the (scenario, seed) cells of
    horizon K, from the stack of their truths and the estimator's stacked
    result of each step, as one :class:`CellResult` of columns per cell.

    Each per-step quantity is one array pass over the (C, T + 1) steps: alpha
    of the error; the reference costs, one ragged :func:`_window_costs` call
    over the stacked (step, cell) rows, judged by one
    :func:`certification_record`; the moving-horizon chain, a running
    AND; the bound traces, one :func:`bound_trace` call; each window bound,
    one gain call per age; and the margins, as Python's ``min`` takes them.
    A cell's worst step is its first certified step of least margin, never
    a NaN one.  Every number is what the cell gives alone, and a cell's NaN
    bound or NaN or negative window term at a certified step raises
    :class:`DomainError` as that cell alone raises it, the first cell first.
    """
    config = resolved.config
    model, cert, cost, bounds = resolved.model, resolved.cert, resolved.cost, resolved.bounds
    T = config.t_final
    is_mhe = config.estimator == "mhe"
    x, w, v = truths.x, truths.w, truths.v                             # (C, T + 1, .)
    published = np.stack([step.published for step in estimates], axis=1)   # (C, T + 1, n)
    achieved = np.stack([step.cost for step in estimates], axis=1)
    w_norms, v_norms = seq_norms(w), seq_norms(v)
    d0 = row_distances(x[:, 0], _initial(config, model)[1])
    if is_mhe:
        # the sum formulation's outer combination is a maximum, as in max mode
        rhs = bound_trace(PlusMode.MAX, hat.b_hat, d0, (hat.c_hat, w_norms[:, :T]),
                          (hat.d_hat, v_norms[:, :T]))
    else:
        rhs = bound_trace(bounds.mode, bounds.b, d0, (bounds.c, w_norms[:, :T]),
                          (bounds.d, v_norms[:, :T]))
    errors = cert.alpha(row_distances(x, published))
    j_ref = np.zeros_like(achieved)
    # the reference window of every step t, stacked step-major: x at its
    # start (a window of one step), and w and v over it
    L = np.array([step.horizon for step in estimates[1:]])
    stops = np.arange(1, T + 1)
    j_ref[:, 1:] = _window_costs(
        cost, np.concatenate([step.prior for step in estimates[1:]]),
        _step_windows(x, stops - L + 1, np.ones_like(L))[:, 0], _step_windows(w, stops, L),
        _step_windows(v, stops, L), np.repeat(L, len(cells))).reshape(T, -1).T
    # t = 0 publishes the prior: no cost against none, it passes with ratio 1
    record = certification_record(np.insert(achieved[:, 1:], 0, 0.0, axis=1), j_ref,
                                  config.a_factor)
    certified = np.logical_and.accumulate(record.passed, axis=1) if is_mhe else record.passed
    margin = rhs - errors
    window_margin = np.full_like(margin, math.nan)
    window_mask = np.zeros(margin.shape, dtype=bool)
    bad_terms = np.zeros_like(window_mask)      # a NaN or negative term at a checked step
    if is_mhe and T > K:
        # the terms of window_margin at t = K+1..T: kappa of the error K
        # steps back, then c and d of the disturbances at ages 1..K
        window_terms = [hat.analysis.kappa(errors[:, 1:T - K + 1])]
        for tau in range(1, K + 1):
            window_terms.append(bounds.c(w_norms[:, K + 1 - tau:T + 1 - tau], tau))
            window_terms.append(bounds.d(v_norms[:, K + 1 - tau:T + 1 - tau], tau))
        window_mask[:, K + 1:] = certified[:, K + 1:]
        window_margin[:, K + 1:] = np.where(window_mask[:, K + 1:], plus_fold(
            bounds.mode, window_terms) - errors[:, K + 1:], math.nan)
        bad_terms[:, K + 1:] = window_mask[:, K + 1:] & ~np.all(
            [term >= 0.0 for term in window_terms], axis=0)
    # Python's min(margin, window_margin): NaN where no window was checked
    effective = np.where(window_margin < margin, window_margin, margin)
    ranked = np.where(certified & (effective < math.inf), effective, math.inf)
    worst_t = np.argmin(ranked, axis=1).tolist()
    ratio = np.where(np.isfinite(record.ratio), record.ratio, -1.0)
    out = []
    # an overflowed cost can neither pass nor fail certification, nor an
    # overflowed error or bound a check
    overflowed = ~(np.isfinite(achieved) & np.isfinite(j_ref)) | (
        certified & ~(np.isfinite(errors) & np.isfinite(rhs)))
    for c, (scenario, seed) in enumerate(cells):
        if np.isnan(rhs[c]).any():      # a NaN margin would never count as violated
            raise DomainError(f"error bound is NaN at t = {int(np.argmax(np.isnan(rhs[c])))}")
        if overflowed[c].any():
            t = int(np.argmax(overflowed[c]))
            raise NonFiniteStepError(
                f"cell ({scenario.name}, seed {seed}) step t = {t}: error "
                f"{float(errors[c, t])!r}, bound {float(rhs[c, t])!r}, cost "
                f"{float(achieved[c, t])!r}, reference cost {float(j_ref[c, t])!r}; a step's "
                "costs, and a certified step's error and bound, must be finite")
        if bad_terms[c].any():
            i = int(np.argmax(bad_terms[c])) - K - 1
            plus_reduce(bounds.mode, [term[c, i] for term in window_terms])
        t = worst_t[c]
        min_margin = float(ranked[c, t])
        worst = {} if min_margin == math.inf else {
            "t": t, "scenario": scenario.name, "seed": seed, "margin": min_margin,
            "error": float(errors[c, t]), "rhs": float(rhs[c, t])}
        out.append(CellResult(scenario.name, seed, K if is_mhe else 0, published[c], x[c],
                              errors[c], rhs[c], margin[c], window_margin[c], window_mask[c],
                              achieved[c], ratio[c], certified[c], min_margin,
                              int(certified[c].sum()), T + 1, worst))
    return out


def run_cell(resolved: ResolvedExperiment, scenario: DisturbanceScenario, seed: int,
             hat: Optional[HatBounds] = None, horizon: Optional[int] = None) -> CellResult:
    """Simulate, estimate, certify and check one sweep cell: a group of one
    (see :func:`_check_group`).  A moving-horizon cell is checked against the
    hat bounds of its horizon, ``hat`` or, when that is None, those
    :func:`_cell_hat` builds."""
    K = horizon if horizon is not None else resolved.config.horizon
    if hat is None:
        hat = _cell_hat(resolved, K)
    return _run_group(resolved, [(scenario, seed)], {K: hat})[0]


def _cell_hat(resolved: ResolvedExperiment, K: int) -> Optional[HatBounds]:
    """The hat bounds a cell of horizon K checks; none for full information."""
    return hat_bounds_for(resolved, K) if resolved.config.estimator == "mhe" else None


def _run_group(resolved: ResolvedExperiment, cells,
               hats: Dict[int, Optional[HatBounds]]) -> List[CellResult]:
    """The (scenario, seed) cells at every horizon K of ``hats``: one
    simulation of the cells, then per horizon one group estimate and one
    group check against the hat bounds ``hats[K]``."""
    T = resolved.config.t_final
    truths = _truths(resolved.config, resolved.model, cells)
    out = []
    for K, hat in hats.items():
        # the estimates of one horizon go once it is checked, before the next
        out += _check_group(resolved, cells, hat, K, truths,
                            _estimate(resolved, truths.u[:T], truths.y[:, :T], K))
    return out


def _group_worker(payload) -> List[CellResult]:
    """Process-pool entry point: resolves the (picklable) config and runs one
    chunk of cells at every horizon of ``hats``, against the hat bounds the
    parent built; results reduce deterministically by cell key."""
    config, hats, cells = payload
    return _run_group(resolve(config), cells, hats)


def run_cells(resolved: ResolvedExperiment, horizons,
              hats: Optional[Dict[int, Optional[HatBounds]]] = None) -> List[CellResult]:
    """Run every (horizon, scenario, seed) cell of the experiment, sorted by
    cell key, against the hat bounds ``hats[K]``, or those :func:`_cell_hat`
    builds when ``hats`` is None; they are built here once, however the
    cells run.  Each (scenario, seed) cell is simulated once, and its truth
    serves every horizon; the cells of one horizon are estimated and checked
    as one group.  With ``config.jobs > 1`` the cells are split into at most
    that many chunks, each run at every horizon on a pool of one worker
    process per chunk (it may fork them all up front); otherwise they run
    here.  A diverging truth raises the :class:`DivergenceError` of the
    first diverging cell."""
    config = resolved.config
    cells = [(scenario, seed) for scenario in config.scenarios for seed in config.seeds]
    hats = {K: _cell_hat(resolved, K) if hats is None else hats[K] for K in horizons}
    if config.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        size = math.ceil(len(cells) / config.jobs)
        payloads = [(config, hats, cells[i:i + size]) for i in range(0, len(cells), size)]
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(payloads))) as pool:
            out = [cell for group in pool.map(_group_worker, payloads) for cell in group]
    else:
        out = _run_group(resolved, cells, hats)
    out.sort(key=CellResult.key)
    return out


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
        "compat_B": resolved.bounds.B,
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


def _write_json(path: str, obj: dict):
    _write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_traces(out: str, cells: List[CellResult]) -> dict:
    """Write every cell's trace CSV; return the report's violations (the
    worst step of every cell with a negative certified margin) and status."""
    for cell in cells:
        _write(os.path.join(out, f"trace_{cell.label}.csv"), trace_to_csv(cell))
    violations = [c.worst for c in cells if c.certified_steps and c.min_margin < -MARGIN_TOL]
    return {"violations": violations, "status": "bound-violation" if violations else "pass"}


def _write_report(out: str, name: str, config: ExperimentConfig, **fields) -> dict:
    """Write the JSON report ``name``: the schema, the config echo and
    ``fields``.  Violations among the fields raise
    :class:`BoundViolationError` at the worst step once the report is written."""
    report = {"schema": REPORT_SCHEMA, "config": config.echo(), **fields}
    _write_json(os.path.join(out, name), report)
    if report.get("violations"):
        worst = min(report["violations"], key=lambda w: w["margin"])
        raise BoundViolationError(
            f"bound violated at t={worst['t']} ({worst['scenario']}, seed {worst['seed']}): "
            f"margin {worst['margin']:.3e}", worst)
    return report


def _plot_spec(cells: List[CellResult], out_name: str) -> dict:
    series = []
    for cell in cells:
        csv = f"trace_{cell.label}.csv"
        series.append({"csv": csv, "x": "t", "y": "error", "label": f"error {cell.label}"})
        series.append({"csv": csv, "x": "t", "y": "rhs", "label": f"bound {cell.label}",
                       "style": "dashed"})
    return {
        "schema": "mhestab-plot-v1",
        "title": out_name,
        "axes": {"x": "t", "y": "alpha(error)", "y_scale": "log"},
        "series": series,
    }


def run_experiment(config: ExperimentConfig, out_dir: Optional[str] = None) -> ExperimentReport:
    """Execute one experiment: analysis gate, scenario x seed sweep, margin
    verification, and artifact emission (trace CSVs, ``plots.json``,
    ``report.json``)."""
    resolved = resolve(config)
    out = os.path.join(out_dir or config.out_dir, config.name)
    hat = _cell_hat(resolved, config.horizon)
    cells = run_cells(resolved, (config.horizon,), {config.horizon: hat})
    verdict = _write_traces(out, cells)
    _write_json(os.path.join(out, "plots.json"), _plot_spec(cells, config.name))
    analysis = _analysis_summary(resolved, {hat.K: hat.analysis} if hat else {})
    _write_report(out, "report.json", config, analysis=analysis, cells=[{
        "scenario": c.scenario, "seed": c.seed, "horizon": c.horizon,
        "min_margin": None if not math.isfinite(c.min_margin) else c.min_margin,
        "certified_steps": c.certified_steps, "total_steps": c.total_steps,
        "worst": c.worst,
    } for c in cells], **verdict)
    return ExperimentReport("pass", os.path.join(out, "report.json"), cells, analysis, out)


def analyze(config: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Certificate + contraction analysis only; no simulation.  Writes
    ``analysis.json``."""
    resolved = resolve(config)
    ks = config.sweep or ((config.horizon,) if config.estimator == "mhe" else ())
    analyses = {K: contraction_for(resolved, K) for K in ks}
    summary = _analysis_summary(resolved, analyses)
    out = os.path.join(out_dir or config.out_dir, config.name)
    _write_report(out, "analysis.json", config, analysis=summary)
    failing = [K for K, a in analyses.items() if not a.passed]
    if failing:
        raise AnalysisError(f"contraction analysis failed at horizons {sorted(failing)}")
    return summary


def horizon_sweep(config: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Sweep the moving horizon: per-K analyses, bar-bound envelopes, and
    overlaid empirical traces; failing horizons are excluded and reported.
    Each (scenario, seed) cell is simulated once and its truth checked at
    every passing horizon (see :func:`run_cells`).  Writes one trace CSV per
    cell and horizon and ``sweep.json``."""
    if not config.sweep:
        raise ConfigError("horizon sweep needs a sweep = K1,K2,... entry")
    resolved = resolve(config)
    swept = sorted(set(config.sweep))
    analyses = {K: contraction_for(resolved, K) for K in swept}
    passing = [K for K in swept if analyses[K].passed]
    if not passing:
        raise AnalysisError("no swept horizon admits a contraction")
    K0, K_max = passing[0], passing[-1]
    hat_family = {K: hat_bounds_for(resolved, K, analyses.get(K), check_grid=False)
                  for K in range(K0, K_max + 1)}
    analyses.update((K, hat.analysis) for K, hat in hat_family.items())
    bars = build_bar_bounds(hat_family, K0, K_max, resolved.bounds)
    probe_r = (1.0, 10.0)
    probe_t = (0, 1, 2, 3)
    gain_table = []
    for r in probe_r:
        for t in probe_t:
            row = {"r": r, "t": t, "fie_b": resolved.bounds.b(r, t)}
            row.update((f"bar_b_K{K}", bars.b_bar(K, r, t)) for K in passing)
            gain_table.append(row)
    out = os.path.join(out_dir or config.out_dir, config.name)
    # full-information cells do not depend on the horizon: run them once
    cells = run_cells(resolved, passing if config.estimator == "mhe" else passing[:1],
                      hat_family)
    verdict = _write_traces(out, cells)
    return _write_report(
        out, "sweep.json", config,
        analysis=_analysis_summary(resolved, analyses),
        excluded_horizons=[K for K in config.sweep if not analyses[K].passed],
        minimal_passing_horizon=K0, bar_convergence_gap=bars.convergence_gap,
        gain_table=gain_table, **verdict)


def deviant_output_probe(config: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Perturb one measurement and verify the pair inequality with the output
    discrepancy terms included.  Writes ``probe.json``.

    Each scenario runs on the first configured seed only.  The configured
    estimator consumes the perturbed streams of all scenarios as one stack,
    as a run does, and a failing window raises what that stacked run
    raises.  The certificate inequality is then evaluated between the true
    solution and the estimator's solution of a window that holds the
    perturbed step: the whole run for full
    information; for a moving horizon of length K, the window it solved at
    t = min(step + K, T), which is the last window holding the step.  The
    window solution's output channel reproduces the perturbed measurements,
    so the perturbation enters exactly like a disturbance.
    """
    resolved = resolve(config)
    model, cert = resolved.model, resolved.cert
    T, K, step = config.t_final, config.horizon, config.probe_step
    if not 0 <= step < T:
        raise ConfigError(f"probe step must be in [0, t_final = {T}), got {step}")
    out = os.path.join(out_dir or config.out_dir, config.name)
    t = min(step + K, T) if config.estimator == "mhe" else T
    results = {}
    truths = _truths(config, model, [(scenario, config.seeds[0]) for scenario in config.scenarios])
    y_pert = truths.y[:, :t].copy()
    y_pert[:, step, 0] += config.probe_delta
    final = _estimate(resolved, truths.u[:t], y_pert, K)[t]
    for c, scenario in enumerate(config.scenarios):
        sol, solved = truths.cell(c), final.cell(c)
        start = t - solved.horizon
        margin = check_ioss_on_pair(cert, model, sol.window(start, t),
                                    solved.as_solution(model, sol.u[start:t]))
        out_of_range = abs(config.probe_delta) > cert.r_range[1]
        results[scenario.name] = {
            "min_margin": margin.min_margin,
            "worst_t": margin.worst_t,
            "passed": bool(margin.passed),
            "out_of_range": out_of_range,
            "perturbation": config.probe_delta,
            "step": step,
        }
    return _write_report(
        out, "probe.json", config, probe=results,
        status="pass" if all(r["passed"] for r in results.values()) else "probe-violation")
