"""The benchmark's child process: import ``mhestab`` once, then fork one
sample per request.

    python3 child.py PLAN

``PLAN`` is the JSON written by ``run.py``: the experiments with their config
paths.  The child imports ``mhestab`` and writes one JSON line to standard
output: ``import_s``, the CPU time of the import, and ``module``, the file it
was imported from.  Then it reads requests from standard input, one JSON
object a line, until end of input:

- ``{"verb": "setup", "result": R}`` times ``resolve`` and the contraction,
  hat and bar construction of every experiment;
- ``{"verb": "run", "result": R, "out": OUT, "spans": S}`` times one
  ``mhestab.cli.main`` call per experiment, up to the last artifact written
  under ``OUT``, and records each call's exit code; with ``spans`` (a path or
  null) the run is traced and the spans are written there at the end.

Each request runs in a process forked from the importer, so every sample
starts from the state a fresh interpreter has right after ``import mhestab``
and leaves nothing behind for the next.  The sample writes its result to
``R``: ``elapsed_s`` (process CPU time, the benchmark's timing basis),
``wall_s`` and, for a run, ``codes``.
The child answers each request with one JSON line: the sample's exit code and
peak resident memory.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def _setup(plan) -> dict:
    from mhestab.harness import contraction_for, load_config, resolve
    from mhestab.stability import build_bar_bounds, build_hat_bounds

    t0, c0 = time.perf_counter(), time.process_time()
    for exp in plan["experiments"]:
        config = load_config(exp["config"])
        resolved = resolve(config)
        if exp["verb"] == "sweep":
            analyses = {K: contraction_for(resolved, K) for K in sorted(set(config.sweep))}
            passing = [K for K, a in analyses.items() if a.passed]
            K0, K_max = min(passing), max(passing)
            hats = {}
            for K in range(K0, K_max + 1):
                analysis = analyses.get(K) or contraction_for(resolved, K)
                hats[K] = build_hat_bounds(analysis, resolved.bounds, check_grid=False)
            build_bar_bounds(hats, K0, K_max, resolved.bounds)
        elif config.estimator == "mhe":
            build_hat_bounds(contraction_for(resolved, config.horizon), resolved.bounds)
    return {"elapsed_s": time.process_time() - c0, "wall_s": time.perf_counter() - t0}


def _run(plan, out, spans_path) -> dict:
    from mhestab import cli

    t0, c0 = time.perf_counter(), time.process_time()
    tracer = None
    if spans_path:
        from tracer import Tracer  # this file's directory leads sys.path
        tracer = Tracer()
        tracer.install()
    codes = {}
    try:
        for exp in plan["experiments"]:
            argv = [exp["verb"], "--config", exp["config"], "--out", out, "--jobs", "1"]
            try:
                codes[exp["name"]] = cli.main(argv)
            except Exception:  # a traceback is a failed call, not a crashed benchmark
                traceback.print_exc()
                codes[exp["name"]] = 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed, wall = time.process_time() - c0, time.perf_counter() - t0
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return {"elapsed_s": elapsed, "wall_s": wall, "codes": codes}


def _sample(plan, request) -> int:
    """Body of a forked sample; returns its exit code."""
    # The CLI's pass lines must not reach the reply channel on fd 1.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    try:
        if request["verb"] == "setup":
            result = _setup(plan)
        else:
            result = _run(plan, request["out"], request.get("spans"))
        with open(request["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    except BaseException:
        traceback.print_exc()
        return 1


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    c0 = time.process_time()
    import mhestab
    from mhestab import cli, harness, stability  # noqa: F401  (what the samples use)

    _reply({"import_s": time.process_time() - c0, "module": mhestab.__file__})
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = _sample(plan, request)
            finally:
                sys.stderr.flush()
                os._exit(code)
        _, status, usage = os.wait4(pid, 0)
        _reply({"code": os.waitstatus_to_exitcode(status), "rss_mb": usage.ru_maxrss / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
