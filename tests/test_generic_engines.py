"""The generic window engines (Gauss-Newton and compass) and their batched
objective.

``golden_generic.json`` pins what the engines return on a small set of
windows: every float as its ``repr``, plus the iteration and start counts.
The engines evaluate candidates in batches, and these tests hold them to
the iterates of the one-candidate-at-a-time algorithm they replace, bit for
bit.  Re-record the file only for a change that is meant to move the
iterates::

    PYTHONPATH=src python tests/test_generic_engines.py
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mhestab.estimator as E
from mhestab.comparison import (
    DomainError,
    KLFn,
    N_ONE,
    N_TWO,
    PlusMode,
    SeparableGeometric,
    plus_reduce,
)
from mhestab.certificates import CostSpec, builtin_certificate, default_cost_from_certificate
from mhestab.estimator import EstimationProblem, SolverConfig
from mhestab.systems import PLANT_NAMES, builtin_model, simulate

from reference_folds import generic_objective

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_generic.json")


def _cost(plant, mode):
    cert = builtin_certificate(plant, mode)
    return default_cost_from_certificate(cert, N_TWO if mode is PlusMode.MAX else N_ONE)


def _window(plant, mode, K, key):
    model = builtin_model(plant)
    cost = _cost(plant, mode)
    gen = np.random.Generator(np.random.Philox(key=key))
    n, q = model.state_dim, model.process_noise_dim
    w = gen.uniform(-0.1, 0.1, (K, q))
    v = gen.uniform(-0.1, 0.1, (K, model.meas_noise_dim))
    u = gen.uniform(-0.5, 0.5, (K, model.input_dim))
    x0 = gen.uniform(-0.5, 0.5, n)
    sol = simulate(model, x0, u, w, v, K)
    return EstimationProblem(model, cost, x0 + 0.3, u, sol.y, K)


def _cases():
    """(name, problem, solver) of every pinned window solve."""
    out = []
    methods = (("gn", "gauss_newton_penalty"), ("compass", "multistart_local"))
    for plant, K in (("s3", 4), ("s4", 3)):
        for mode in (PlusMode.MAX, PlusMode.SUM):
            for tag, method in methods:
                solver = SolverConfig(method=method, multistart=3, max_iter=40)
                out.append((f"{plant}-{mode.value}-{tag}", _window(plant, mode, K, 7), solver))
            # one start: the prior rollout, whose iterates the result then shows
            solver = SolverConfig(multistart=1, max_iter=40)
            out.append((f"{plant}-{mode.value}-gn-1", _window(plant, mode, K, 7), solver))
    return out


def _snapshot(res):
    floats = lambda a: [repr(float(x)) for x in np.asarray(a).ravel()]
    return {"engine": res.engine, "xhat": floats(res.xhat), "what": floats(res.what),
            "vhat": floats(res.vhat), "cost": repr(float(res.cost)),
            "iterations": res.iterations, "starts_used": res.starts_used}


def _generic(problem, solver):
    """The configured generic engine's solve, also on windows a structured
    engine would take."""
    engine = E._solve_gauss_newton if solver.method == "gauss_newton_penalty" \
        else E._solve_multistart_local
    return engine(E._Rows.of([problem]), solver).cell(0)


def _record():
    golden = {name: _snapshot(_generic(problem, solver))
              for name, problem, solver in _cases()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


@pytest.mark.parametrize("name,problem,solver",
                         [pytest.param(*case, id=case[0]) for case in _cases()])
def test_engines_reproduce_the_pinned_iterates(name, problem, solver):
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)[name]
    assert _snapshot(_generic(problem, solver)) == expected


# ---------------------------------------------------------------------------
# The batched objective against the one-candidate fold
# ---------------------------------------------------------------------------

_finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(plant=st.sampled_from(PLANT_NAMES),
       mode=st.sampled_from((PlusMode.MAX, PlusMode.SUM)),
       K=st.integers(1, 5), key=st.integers(0, 50), data=st.data())
def test_batched_rows_equal_the_scalar_fold(plant, mode, K, key, data):
    problem = _window(plant, mode, K, key)
    objective = E._Objective(E._Rows.of([problem]))
    B = data.draw(st.integers(1, 6))
    Z = np.array(data.draw(st.lists(st.lists(_finite, min_size=objective.dim,
                                             max_size=objective.dim),
                                    min_size=B, max_size=B)), dtype=float).reshape(B, -1)
    terms = objective.evaluate(Z, np.zeros(B, dtype=int))
    _, values = E._compass_derive(objective, terms, None, None)
    for b in range(B):
        ref_terms = generic_objective(problem, Z[b])
        assert terms[b].tolist() == ref_terms.tolist()
        assert values[b] == plus_reduce(problem.cost.mode, ref_terms)


@pytest.mark.parametrize("plant", PLANT_NAMES)
def test_plant_maps_accept_a_batch_axis(plant):
    model = builtin_model(plant)
    gen = np.random.Generator(np.random.Philox(key=3))
    B = 64
    X = gen.normal(0.0, 2.0, (B, model.state_dim))
    W = gen.normal(0.0, 2.0, (B, model.process_noise_dim))
    V = gen.normal(0.0, 2.0, (B, model.meas_noise_dim))
    u = gen.normal(0.0, 1.0, model.input_dim)
    batched = {"f": model.f(X, u, W), "f_nominal": model.f_nominal(X, u),
               "h": model.h(X, u, V), "h_nominal": model.h_nominal(X, u)}
    assert batched["f"].shape == (B, model.state_dim)
    assert batched["h"].shape == (B, model.output_dim)
    for b in range(B):
        assert batched["f"][b].tolist() == np.atleast_1d(model.f(X[b], u, W[b])).tolist()
        assert batched["f_nominal"][b].tolist() == np.atleast_1d(model.f_nominal(X[b], u)).tolist()
        assert batched["h"][b].tolist() == np.atleast_1d(model.h(X[b], u, V[b])).tolist()
        assert batched["h_nominal"][b].tolist() == np.atleast_1d(model.h_nominal(X[b], u)).tolist()


# ---------------------------------------------------------------------------
# Rejected candidates, and gains that raise
# ---------------------------------------------------------------------------

def _one_batch(objective, Z, derive, stage):
    """The batch of one pass over the candidates Z of window 0."""
    return E._evaluate_pass(objective, derive, [(Z, 0, stage)])[0]


@pytest.mark.parametrize("mode", [PlusMode.SUM, PlusMode.MAX], ids=["sum", "max"])
def test_a_rejected_row_scores_inf_and_is_never_accepted(mode):
    problem = _window("s3", mode, 3, 1)
    objective = E._Objective(E._Rows.of([problem]))
    good = np.linspace(-0.4, 0.4, objective.dim)
    nan_row = good.copy()
    nan_row[1] = math.inf           # sin(inf) makes every later state NaN
    inf_row = good.copy()
    inf_row[-1] = 1e308             # the last disturbance only overflows its cost term
    Z = np.array([nan_row, inf_row, good])
    terms = objective.evaluate(Z, np.zeros(3, dtype=int))
    assert np.isnan(generic_objective(problem, nan_row)).all()     # the reference rejects it
    assert (terms[0] == math.inf).all()
    assert terms[2].tolist() == generic_objective(problem, good).tolist()
    for derive, stage in ((E._compass_derive, None), (E._gauss_newton_derive, 2.0)):
        batch = _one_batch(objective, Z, derive, stage)
        assert batch.scores[0] == batch.scores[1] == math.inf
        assert batch.first_below(math.inf) == 2


class Refused(Exception):
    """What :class:`RefusingCube` raises."""


class RefusingCube(KLFn):
    """The gain ``SeparableGeometric(1, 3, 0.5)``, which refuses an r above
    1e100: it raises :class:`Refused`, for a Python float or for an array
    that holds one.  A gain that fails on some rows of a pass."""

    cube = SeparableGeometric(1.0, 3.0, 0.5)

    def _eval(self, r, s):
        if np.any(np.asarray(r) > 1e100):
            raise Refused(f"r above 1e100 at age {s}")
        return self.cube._eval(r, s)


def test_a_gain_that_fails_on_a_pass_raises_its_own_error():
    # the gain raises on a huge distance, for the whole pass
    problem = _window("s3", PlusMode.MAX, 2, 1)
    cube = RefusingCube()
    problem = EstimationProblem(problem.model, CostSpec(PlusMode.MAX, cube, cube, cube),
                                problem.prior, problem.u_win, problem.y_win, 2)
    objective = E._Objective(E._Rows.of([problem]))
    good = np.array([0.1, 0.2, -0.1])
    huge = np.array([1e150, 0.0, 0.0])
    with pytest.raises(Refused) as raised:
        objective.evaluate(np.array([good, huge]), np.zeros(2, dtype=int))
    with pytest.raises(Refused) as alone:
        generic_objective(problem, huge)
    assert str(raised.value) == str(alone.value)
    terms = objective.evaluate(good[None, :], np.zeros(1, dtype=int))
    assert terms[0].tolist() == generic_objective(problem, good).tolist()


class NegatedCube(KLFn):
    """A broken gain: minus ``SeparableGeometric(1, 3, 0.5)``."""

    def _eval(self, r, s):
        return -RefusingCube.cube._eval(r, s)


def test_a_negative_term_is_a_domain_error_not_a_rejection():
    problem = _window("s3", PlusMode.MAX, 2, 1)
    cube = NegatedCube()
    problem = EstimationProblem(problem.model, CostSpec(PlusMode.MAX, cube, cube, cube),
                                problem.prior, problem.u_win, problem.y_win, 2)
    objective = E._Objective(E._Rows.of([problem]))
    good = np.array([0.1, 0.2, -0.1])
    with pytest.raises(DomainError, match="cost terms must be nonnegative"):
        objective.evaluate(good[None, :], np.zeros(1, dtype=int))
    with pytest.raises(DomainError, match="nonnegative values"):
        generic_objective(problem, good)


def _reference_line_search(problem, z, step, f0, power):
    alpha = 1.0
    for _ in range(25):
        cand = z + alpha * step
        terms = generic_objective(problem, cand)
        rc = np.sqrt(np.power(terms + 1e-12, power))
        if float(rc @ rc) < f0 - 1e-300:
            return alpha, cand, rc
        alpha *= 0.5
    return None


def test_far_line_search_candidates_that_go_non_finite_change_nothing():
    # z lies so far out that max mode's power-8 surrogate overflows: f0 is
    # inf.  Step length 1 lands on -z (inf again, rejected), so the halvings
    # are asked for, and 1/2 lands on 0, which is accepted.  The other 23
    # halvings, evaluated in the same batch, overflow too; the one-candidate
    # search never evaluates them.
    problem = _window("s3", PlusMode.MAX, 3, 2)
    objective = E._Objective(E._Rows.of([problem]))
    derive = E._gauss_newton_derive
    stage = 8.0                     # the second surrogate power of max mode
    z = np.full(objective.dim, 1e100)
    step = -2.0 * z
    start = _one_batch(objective, z[None, :], derive, stage)
    f0 = float(start.rows[0] @ start.rows[0])
    assert f0 == math.inf
    far = _one_batch(objective, z + np.array([[0.25], [2.0 ** -24]]) * step, derive, stage)
    assert not np.isfinite(far.rows).any()
    with np.errstate(all="ignore"):
        expected = _reference_line_search(problem, z, step, f0, 8.0)
    ahead = _one_batch(objective, E._with_probes(z + step), derive, stage)
    assert ahead.scores[0] == math.inf            # step length 1 is rejected
    batch = _one_batch(objective, z + E._HALVINGS[:, None] * step, derive, stage)
    j = batch.first_below(f0 - 1e-300)
    assert j == 0 and E._HALVINGS[j] == expected[0] == 0.5
    assert batch.Z[j].tolist() == expected[1].tolist()
    assert batch.rows[j].tolist() == expected[2].tolist()


def test_gauss_newton_asks_for_the_halvings_only_after_step_length_1_fails(monkeypatch):
    # each pair asks for a point and its Jacobian points (J), step length 1
    # and its Jacobian points (S), or the 24 halvings (H).  A stage runs J S,
    # then S while step length 1 is accepted, and H J S when it is not.
    problem = _window("s4", PlusMode.MAX, 3, 7)
    dim = E._Objective(E._Rows.of([problem])).dim
    logs = []
    real = E._gauss_newton_pair

    def recorded(objective, window, z, cfg):
        log, pair, batch = [], real(objective, window, z, cfg), None
        logs.append(log)
        while True:
            try:
                Z, window, stage = pair.send(batch)
            except StopIteration as stop:
                return stop.value
            batch = yield Z, window, stage
            log.append((len(Z), stage, batch.scores[0]))

    monkeypatch.setattr(E, "_gauss_newton_pair", recorded)
    E._solve_gauss_newton(E._Rows.of([problem]), SolverConfig(multistart=3, max_iter=40))
    monkeypatch.undo()
    kinds = []              # (kind, whether an S ask's point is below f0)
    for log in logs:
        assert {size for size, _, _ in log} <= {dim + 1, len(E._HALVINGS)}
        pair = []
        for i, (size, stage, score) in enumerate(log):
            if size == len(E._HALVINGS):
                kind = "H"
            elif i == 0 or pair[-1][0] == "H" or stage != log[i - 1][1]:
                kind = "J"
            else:
                kind = "S"
            pair.append((kind, bool(kind == "S" and score < f0 - 1e-300)))
            if kind != "H":
                f0 = score
        for (kind, below), (following, _) in zip(pair, pair[1:] + [(None, False)]):
            assert (following == "H") == (kind == "S" and not below)
        kinds += pair
    assert ("S", True) in kinds and ("H", False) in kinds


if __name__ == "__main__":
    _record()
