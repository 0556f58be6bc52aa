"""Workload definitions: each workload is a list of CLI experiments built from
the workload seed.

The workload seed only chooses the experiment seeds, that is the draws of the
``bounded_uniform`` and ``decaying_geometric`` disturbances.  Seeds are taken
modulo ``SEED_SETS`` so that every input set a run can meet has its certified
counts and margins recorded in ``expected.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

SEED_SETS = 16

ACCEPTANCE_SCENARIOS = """
[scenario.zero]
kind = zero

[scenario.uniform]
kind = bounded_uniform
amplitude = 0.1

[scenario.decay]
kind = decaying_geometric
amplitude = 1.0
rate = 0.8

[scenario.impulse]
kind = impulse
time = 5
magnitude = 1.0
"""

UNIFORM_SCENARIO = """
[scenario.uniform]
kind = bounded_uniform
amplitude = 0.1
"""


@dataclass(frozen=True)
class Experiment:
    """One CLI call: ``mhestab <verb> --config <name>.ini --jobs 1``."""

    name: str
    verb: str          # "run" or "sweep"
    plant: str
    mode: str          # "max" or "sum"
    estimator: str     # "fie" or "mhe"
    t_final: int
    seeds: Tuple[int, ...]
    scenarios: str
    horizon: int = 4
    sweep: Tuple[int, ...] = ()
    method: str = "gauss_newton_penalty"

    def config_text(self) -> str:
        lines = ["[experiment]",
                 f"name = {self.name}",
                 f"plant = {self.plant}",
                 f"mode = {self.mode}",
                 f"estimator = {self.estimator}",
                 f"horizon = {self.horizon}",
                 f"t_final = {self.t_final}",
                 "seeds = " + ",".join(str(s) for s in self.seeds)]
        if self.sweep:
            lines.append("sweep = " + ",".join(str(k) for k in self.sweep))
        lines += ["", "[solver]", f"method = {self.method}"]
        return "\n".join(lines) + "\n" + self.scenarios

    @property
    def horizons(self) -> Tuple[int, ...]:
        """Window lengths whose cells the experiment writes (0 for FIE)."""
        if self.verb == "sweep":
            return tuple(sorted(set(self.sweep)))
        return (self.horizon,) if self.estimator == "mhe" else (0,)

    def cells(self) -> int:
        return len(self.horizons) * self.scenarios.count("[scenario.") * len(self.seeds)

    def steps(self) -> int:
        """Time steps the experiment verifies: cells x (T + 1)."""
        return self.cells() * (self.t_final + 1)


def _seed_block(seed: int, per_set: int) -> Tuple[int, ...]:
    base = (seed % SEED_SETS) * per_set
    return tuple(range(base, base + per_set))


def fie_max_scalar(seed: int, tiny: bool) -> List[Experiment]:
    # Criterion 1's shape: growing windows up to T=60 on the max-interval engine.
    seeds = _seed_block(seed, 1)
    return [Experiment(f"fie-max-{plant}", "run", plant, "max", "fie", 8 if tiny else 60,
                       seeds, ACCEPTANCE_SCENARIOS)
            for plant in ("s1", "s2", "s3")]


def mhe_sweep_s1(seed: int, tiny: bool) -> List[Experiment]:
    # Short shifting windows: resolve, bar bounds, the bound trace and the
    # solve share the run.
    seeds = _seed_block(seed, 1 if tiny else 4)
    return [Experiment(f"mhe-sweep-s1-{mode}", "sweep", "s1", mode, "mhe", 12 if tiny else 60,
                       seeds, ACCEPTANCE_SCENARIOS, sweep=(2, 4, 8))
            for mode in ("max", "sum")]


def generic_nonlinear(seed: int, tiny: bool) -> List[Experiment]:
    # No structured engine applies: finite-difference Gauss-Newton and compass
    # on growing (FIE) and shifting (MHE) windows.  Gauss-Newton iteration
    # counts vary with the noise draw, so its experiments average two seeds.
    seeds = _seed_block(seed, 1 if tiny else 2)
    one = _seed_block(seed, 1)
    t = (3, 6, 2, 2, 2) if tiny else (5, 8, 3, 4, 3)
    return [
        Experiment("s3-sum-fie", "run", "s3", "sum", "fie", t[0], seeds, UNIFORM_SCENARIO),
        Experiment("s3-sum-mhe", "run", "s3", "sum", "mhe", t[1], seeds, UNIFORM_SCENARIO,
                   horizon=4),
        Experiment("s4-max-fie", "run", "s4", "max", "fie", t[2], seeds, UNIFORM_SCENARIO),
        Experiment("s4-sum-fie", "run", "s4", "sum", "fie", t[3], seeds, UNIFORM_SCENARIO),
        Experiment("s4-max-fie-compass", "run", "s4", "max", "fie", t[4], one,
                   UNIFORM_SCENARIO, method="multistart_local"),
    ]


WORKLOADS = {
    "fie-max-scalar": fie_max_scalar,
    "mhe-sweep-s1": mhe_sweep_s1,
    "generic-nonlinear": generic_nonlinear,
}


def experiments(workload: str, seed: int, tiny: bool = False) -> List[Experiment]:
    """The workload's experiments for this seed; ``tiny`` shrinks the horizons
    and seed counts for the benchmark's own smoke tests."""
    try:
        build = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}") from None
    return build(seed, tiny)
