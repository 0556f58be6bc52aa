"""The one evaluation path of the discounted window quantities: the error
bounds (``bound_trace``) and the window cost (``_window_costs``).

``golden_bounds.json`` pins the full-information and moving-horizon bound
traces and the window costs of the catalog fixtures: every float as its
``repr``.  Re-record the file only for a change that is meant to move these
bytes::

    PYTHONPATH=src python tests/test_bound_path.py
"""

import dataclasses
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

import mhestab.harness
from mhestab import certificates, estimator
from mhestab.certificates import CostSpec, DerivedBounds, bound_trace
from mhestab.comparison import (
    IteratedKL,
    KLFn,
    LinearK,
    PlusMode,
    DomainError,
    PowerK,
    SeparableGeometric,
)
from mhestab.harness import (
    AnalysisError,
    ExperimentConfig,
    hat_bounds_for,
    resolve,
    run_cell,
)
from mhestab.systems import DisturbanceScenario, builtin_model, generate_scenario

from reference_folds import mhe_bound, rgas_rhs, window_cost
from test_estimator import one_window_cost

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_bounds.json")
T_TRACE = 30
D0 = 0.7
DRAWS = {  # (scenario, seed) of each draw
    "uniform": (DisturbanceScenario("uniform", "bounded_uniform", amplitude=0.1), 3),
    "impulse": (DisturbanceScenario("impulse", "impulse", time=4, magnitude=1.0), 0),
}
TRACE_PLANTS = ("s1", "s2", "s3")
COST_PLANTS = ("s1", "s2", "s3", "s4")
MODES = ("max", "sum")
HORIZONS = (2, 4, 8)
COST_WINDOWS = (1, 3, 7)


def _reprs(values):
    return [repr(float(x)) for x in values]


def _norms(draw):
    scenario, seed = DRAWS[draw]
    w, v = generate_scenario(scenario, seed, T_TRACE, 1, 1)
    return estimator.seq_norms(w), estimator.seq_norms(v)


def _fie_trace(bounds, d0, w_norms, v_norms):
    return certificates.bound_trace(bounds.mode, bounds.b, d0, (bounds.c, w_norms),
                                    (bounds.d, v_norms))


def _mhe_trace(hat, d0, w_norms, v_norms):
    # the sum formulation's outer combination is a maximum, as in max mode
    return certificates.bound_trace(PlusMode.MAX, hat.b_hat, d0, (hat.c_hat, w_norms),
                                    (hat.d_hat, v_norms))


def _cost_window(plant, K):
    model = builtin_model(plant)
    gen = np.random.Generator(np.random.Philox(key=100 + K))
    n, q, m = model.state_dim, model.process_noise_dim, model.meas_noise_dim
    return (gen.uniform(-1.0, 1.0, n), gen.uniform(-1.0, 1.0, n),
            gen.uniform(-1.0, 1.0, (K, q)), gen.uniform(-1.0, 1.0, (K, m)))


def _snapshots():
    """Case name -> the values pinned for it."""
    out = {}
    for plant in COST_PLANTS:
        for mode in MODES:
            resolved = resolve(ExperimentConfig(plant=plant, mode=mode))
            for K in COST_WINDOWS:
                out[f"cost-{plant}-{mode}-K{K}"] = _reprs(
                    [one_window_cost(resolved.cost, *_cost_window(plant, K))])
            if plant not in TRACE_PLANTS:
                continue
            hats = {}
            for K in HORIZONS:
                try:
                    hats[K] = hat_bounds_for(resolved, K)
                except AnalysisError:
                    hats[K] = None
            for draw in DRAWS:
                wn, vn = _norms(draw)
                out[f"fie-{plant}-{mode}-{draw}"] = _reprs(
                    _fie_trace(resolved.bounds, D0, wn, vn))
                for K, hat in hats.items():
                    out[f"mhe-{plant}-{mode}-K{K}-{draw}"] = (
                        "no contraction" if hat is None
                        else _reprs(_mhe_trace(hat, D0, wn, vn)))
    return out


def _record():
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(_snapshots(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def test_traces_and_costs_reproduce_the_pinned_bytes():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = _snapshots()
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], name


# ---------------------------------------------------------------------------
# Nonlinear gains: per-term calls, one fold, the scalar fold's values
# ---------------------------------------------------------------------------

SQUARE = SeparableGeometric(1.0, 2.0, 0.5)                  # r^2 / 2^s
ITERATED = IteratedKL(LinearK(0.5), PowerK(1.0, 1.5))       # 0.5^s r^1.5
GEOMETRIC = SeparableGeometric(2.0, 1.0, 0.5)               # linear in r


def _draw(key, T, dim):
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.uniform(-1.0, 1.0, (T, dim)), gen.uniform(-1.0, 1.0, (T, dim))


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@pytest.mark.parametrize("mode", [PlusMode.MAX, PlusMode.SUM])
@pytest.mark.parametrize("dim", [1, 2])
def test_bounds_match_the_scalar_folds_on_nonlinear_gains(mode, dim):
    T = 12
    w, v = _draw(dim, T, dim)
    bounds = DerivedBounds(mode, GEOMETRIC, SQUARE, ITERATED, 1.0, 1.0, ("test", "test"))
    hat = SimpleNamespace(b_hat=ITERATED, c_hat=ITERATED, d_hat=SQUARE)
    fie = _fie_trace(bounds, 0.7, estimator.seq_norms(w), estimator.seq_norms(v))
    mhe = _mhe_trace(hat, 0.7, estimator.seq_norms(w), estimator.seq_norms(v))
    for t in range(T + 1):
        assert _close(fie[t], rgas_rhs(bounds, 0.7, w, v, t))
        assert _close(mhe[t], mhe_bound(hat, 0.7, w, v, t))


def test_time_zero_and_empty_windows_give_the_initial_term():
    bounds = DerivedBounds(PlusMode.SUM, ITERATED, SQUARE, SQUARE, 1.0, 1.0, ("test", "test"))
    empty = np.zeros(0)
    assert list(_fie_trace(bounds, 0.7, empty, empty)) == [ITERATED(0.7, 0)]
    hat = SimpleNamespace(b_hat=SQUARE, c_hat=ITERATED, d_hat=ITERATED)
    assert list(_mhe_trace(hat, 0.7, empty, empty)) == [SQUARE(0.7, 0)]


class _NanGain(KLFn):
    """A gain with a hole: r at age 0, and NaN at every r > 0 from age 1 on."""

    def _eval(self, r, s):
        out = np.where(r > 0.0, np.nan, 0.0) if s > 0 else r
        return float(out) if type(r) is float else out


@pytest.mark.parametrize("mode", [PlusMode.MAX, PlusMode.SUM])
def test_a_nan_term_makes_the_bound_nan(mode):
    trace = bound_trace(mode, GEOMETRIC, 0.7, (_NanGain(), np.ones(6)), (GEOMETRIC, np.zeros(6)))
    assert trace[0] == GEOMETRIC(0.7, 0)
    assert np.isnan(trace[1:]).all()


def test_a_cell_with_a_nan_bound_is_an_error():
    config = ExperimentConfig(plant="s1", mode="sum", t_final=8)
    resolved = resolve(config)
    nan_bounds = dataclasses.replace(resolved.bounds, c=_NanGain())
    noise = DisturbanceScenario("uniform", "bounded_uniform", amplitude=0.1)
    with pytest.raises(DomainError, match="NaN at t = 1"):
        run_cell(dataclasses.replace(resolved, bounds=nan_bounds), noise, 0)


def _nonlinear_cost(mode):
    return CostSpec(mode, ITERATED, SQUARE, ITERATED)


@pytest.mark.parametrize("mode", [PlusMode.MAX, PlusMode.SUM])
@pytest.mark.parametrize("dim", [1, 2])
def test_cost_matches_the_scalar_fold_on_nonlinear_gains(mode, dim):
    cost = _nonlinear_cost(mode)
    prior = np.full(dim, 0.2)
    for K in (1, 2, 5):
        omega, nu = _draw(10 * K + dim, K, dim)
        chi0 = omega[0] + 0.3
        assert _close(one_window_cost(cost, prior, chi0, omega, nu),
                      window_cost(cost, prior, chi0, omega, nu))


# ---------------------------------------------------------------------------
# Catalog gains stay on the slope tables
# ---------------------------------------------------------------------------

class _Counting(KLFn):
    """A gain that counts its calls and keeps the wrapped gain's slopes."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, r, s):
        self.calls += 1
        return self.fn(r, s)

    def r_slope(self, s):
        return self.fn.r_slope(s)

    def _tail(self, r, start):
        return self.fn.sum_tail(r, start)


@pytest.mark.parametrize("plant", ["s1", "s3", "s4"])
@pytest.mark.parametrize("mode", ["max", "sum"])
def test_catalog_gains_are_never_called_term_by_term(plant, mode):
    resolved = resolve(ExperimentConfig(plant=plant, mode=mode))
    bounds, cost = resolved.bounds, resolved.cost
    wn, vn = _norms("uniform")
    gains = [_Counting(fn) for fn in (bounds.c, bounds.d, cost.gamma_hat, cost.delta_hat)]
    trace = bound_trace(bounds.mode, bounds.b, D0, (gains[0], wn), (gains[1], vn))
    assert list(trace) == list(_fie_trace(bounds, D0, wn, vn))
    counted = dataclasses.replace(cost, gamma_hat=gains[2], delta_hat=gains[3])
    gains[2].calls = gains[3].calls = 0     # the summability check reads every age once
    window = _cost_window(plant, 5)
    assert one_window_cost(counted, *window) == one_window_cost(cost, *window)
    if plant != "s4":
        hat = hat_bounds_for(resolved, 4)
        hat_gains = [_Counting(hat.c_hat), _Counting(hat.d_hat)]
        bound_trace(PlusMode.MAX, hat.b_hat, D0, (hat_gains[0], wn), (hat_gains[1], vn))
        gains += hat_gains
    assert [g.calls for g in gains] == [0] * len(gains)


def test_the_harness_knows_nothing_about_slopes():
    for name in ("slope_table", "_rhs_trace_fie", "_rhs_trace_mhe"):
        assert not hasattr(mhestab.harness, name), name


if __name__ == "__main__":
    _record()
