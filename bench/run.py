"""mhestab benchmark: verified CLI runs, timed end to end and traced by layer.

    python3 bench/run.py --workload fie-max-scalar --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  A fresh interpreter (``child.py``) imports ``mhestab`` and forks
one process per sample, so every sample starts from a fresh interpreter's
state after the import.  A run sample calls ``mhestab.cli.main`` once per
experiment of the workload with ``--jobs 1`` (a closed loop: one client, one
process, the next experiment starts when the previous returns); a set-up
sample does what the CLI does before its first cell.  Times are CPU seconds.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` forks one
untraced and one traced run and prints the per-layer metrics.  Every run's
artifacts are checked: each CLI call exits 0, cells and certified steps are
non-zero, repeated runs write identical bytes, and the certified counts and
margins equal the values recorded in ``expected.json``.  The last line of
standard output is one JSON object; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import itertools
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH_DIR / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402
from tracer import layer_metrics  # noqa: E402

MIN_RUNS, MIN_SETUPS = 2, 2   # per measurement, however short --seconds is
SAMPLES = ("run", "setup")  # forked from one importer, then a fresh one
TIME_LIMIT_S = 170.0          # the whole invocation; children are killed after it
MARGIN_TOL = 1e-9        # the harness's own tolerance on a certified margin
MARGIN_REL_TOL = 1e-9    # margins may move by rounding only
MARGIN_ABS_TOL = 1e-12
COUNT_KEYS = ("cells", "steps", "certified_steps")
MARGIN_KEYS = ("min_margin", "min_rel_margin")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, broken spec)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _child_env() -> Dict[str, str]:
    # A fixed hash seed removes one source of run-to-run timing noise, and one
    # BLAS thread keeps the run to one core and its CPU time to one thread.
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class Importer:
    """A ``child.py`` process that has imported ``mhestab`` and forks one
    sample per request (see ``child.py``).  Every read waits at most until
    ``deadline`` (``time.monotonic``); past it, the process group is killed.
    ``ready`` holds the import time and module path, or None on failure."""

    def __init__(self, plan: Path, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), str(plan)],
                                     cwd=str(ROOT), env=_child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, start_new_session=True)
        self.ready = self._reply()

    def _reply(self) -> Optional[dict]:
        timeout = max(0.0, self.deadline - time.monotonic())
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            self.close()
            return None
        return json.loads(line)

    def request(self, **req) -> Optional[dict]:
        """Fork one sample; return ``{"code", "rss_mb"}`` or None."""
        if self.proc.poll() is not None:
            return None
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
        except OSError:
            self.close()
            return None
        return self._reply()

    def close(self) -> None:
        """End the process: end of input when it is idle, else SIGKILL to its
        whole group (the importer and a forked sample); wait for both."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        for _ in range(500):  # a killed sample is reaped by init
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def read_json(path: Path) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class Workspace:
    """Config files, plan and per-run output directories under ``.bench_work``."""

    def __init__(self, workload: str, exps: List[workloads.Experiment], deadline: float):
        self.deadline = deadline
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "configs").mkdir(parents=True)
        plan = []
        for exp in exps:
            path = self.dir / "configs" / f"{exp.name}.ini"
            path.write_text(exp.config_text(), encoding="utf-8")
            plan.append({"name": exp.name, "verb": exp.verb, "config": str(path)})
        self.plan = self.dir / "plan.json"
        self.plan.write_text(json.dumps({"experiments": plan}), encoding="utf-8")
        self.exps = exps
        self._n = 0

    def importer(self) -> Optional[Importer]:
        """A fresh importer, or None when it failed or imported mhestab
        from outside ``src/``."""
        imp = Importer(self.plan, self.deadline)
        if imp.ready is None or not _under_src(imp.ready.get("module")):
            imp.close()
            return None
        print(f"bench: import: {imp.ready['import_s']:.3f} s CPU", file=sys.stderr)
        return imp

    def setup(self, imp: Importer) -> Optional[float]:
        """CPU seconds of one forked set-up, or None when it failed."""
        result = self.dir / "setup.json"
        result.unlink(missing_ok=True)
        reply = imp.request(verb="setup", result=str(result))
        data = read_json(result)
        if reply is None or reply["code"] != 0 or data is None:
            return None
        print(f"bench: set-up: {data['elapsed_s']:.3f} s CPU, {data['wall_s']:.3f} s wall",
              file=sys.stderr)
        return data["elapsed_s"]

    def run(self, imp: Importer, traced: bool = False) -> dict:
        """One forked run; returns its timing, exit codes, checked artifact
        summary and artifact digest."""
        self._n += 1
        out = self.dir / f"out{self._n}"
        result = self.dir / f"run{self._n}.json"
        spans = self.dir / f"spans{self._n}.json"
        reply = imp.request(verb="run", result=str(result), out=str(out),
                            spans=str(spans) if traced else None)
        data = read_json(result) or {}
        codes = data.get("codes", {})
        run = {"elapsed_s": data.get("elapsed_s"),
               "rss_mb": reply["rss_mb"] if reply else None,
               "ok": reply is not None and reply["code"] == 0,
               "codes": {e.name: codes.get(e.name, 1) for e in self.exps},
               "summary": {e.name: summarize(out / e.name, e) if codes.get(e.name) == 0 else None
                           for e in self.exps},
               "digest": digest(out)}
        if traced:
            run["spans"] = read_json(spans)
        if run["elapsed_s"] is not None:
            print(f"bench: run{' (traced)' if traced else ''}: {run['elapsed_s']:.3f} s CPU, "
                  f"{data['wall_s']:.3f} s wall", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return run


def _under_src(module: Optional[str]) -> bool:
    return bool(module) and Path(module).resolve().is_relative_to(SRC.resolve())


# ---------------------------------------------------------------------------
# Artifact checks
# ---------------------------------------------------------------------------

def digest(out: Path) -> str:
    h = hashlib.sha256()
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _trace_rows(exp_dir: Path):
    for path in sorted(exp_dir.glob("trace_*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            yield list(csv.DictReader(fh))


def summarize(exp_dir: Path, exp: workloads.Experiment) -> Optional[dict]:
    """Cells, steps, certified steps and worst certified margins of one
    experiment's artifacts, or None when they are missing or unreadable.

    ``min_margin`` is ``min(margin, window_margin)`` over certified steps, as
    in ``run_cell``; for ``run`` it comes from ``report.json`` and for
    ``sweep`` (whose ``sweep.json`` has no per-cell counts) from the trace
    CSVs.  ``min_rel_margin`` is the same slack as a share of its bound, over
    certified steps whose bound is positive.
    """
    try:
        traces = list(_trace_rows(exp_dir))
        rel = math.inf
        for rows in traces:
            for row in rows:
                if row["certified"] != "1":
                    continue
                err, rhs, margin = float(row["error"]), float(row["rhs"]), float(row["margin"])
                if rhs > 0:
                    rel = min(rel, margin / rhs)
                if row["window_margin"]:
                    window = float(row["window_margin"])
                    if window + err > 0:
                        rel = min(rel, window / (window + err))
        if exp.verb == "run":
            with open(exp_dir / "report.json", encoding="utf-8") as fh:
                report = json.load(fh)
            if report["status"] != "pass":
                return None
            cells = report["cells"]
            summary = {"cells": len(cells),
                       "steps": sum(c["total_steps"] for c in cells),
                       "certified_steps": sum(c["certified_steps"] for c in cells),
                       "min_margin": min((c["min_margin"] for c in cells
                                          if c["min_margin"] is not None), default=math.inf)}
        else:
            certified = steps = 0
            worst = math.inf
            for rows in traces:
                steps += len(rows)
                for row in rows:
                    if row["certified"] != "1":
                        continue
                    certified += 1
                    worst = min(worst, float(row["margin"]))
                    if row["window_margin"]:
                        worst = min(worst, float(row["window_margin"]))
            summary = {"cells": len(traces), "steps": steps, "certified_steps": certified,
                       "min_margin": worst}
    except (OSError, KeyError, ValueError) as exc:
        print(f"bench: unreadable artifacts in {exp_dir}: {exc}", file=sys.stderr)
        return None
    summary["min_rel_margin"] = rel
    return summary


def check_summary(name: str, exp: workloads.Experiment, got: Optional[dict]) -> List[str]:
    """Problems with one experiment's artifacts on their own; empty when they
    are complete and every certified margin holds."""
    if got is None:
        return [f"{name}: no readable artifacts"]
    problems = []
    if got["cells"] != exp.cells() or got["steps"] != exp.steps():
        problems.append(f"{name}: {got['cells']} cells / {got['steps']} steps, "
                        f"expected {exp.cells()} / {exp.steps()}")
    if got["cells"] == 0 or got["certified_steps"] == 0:
        problems.append(f"{name}: nothing certified ({got['certified_steps']} steps)")
    if got["min_margin"] < -MARGIN_TOL:
        problems.append(f"{name}: negative certified margin {got['min_margin']!r}")
    return problems


def compare_record(name: str, got: dict, want: Optional[dict]) -> List[str]:
    """Differences between an experiment's summary and its recorded values."""
    if want is None:
        return [f"{name}: no recorded values for this input set"]
    problems = [f"{name}: {key} {got[key]} != recorded {want[key]}"
                for key in COUNT_KEYS if got[key] != want[key]]
    problems += [f"{name}: {key} {got[key]!r} != recorded {want[key]!r}"
                 for key in MARGIN_KEYS
                 if not math.isclose(got[key], want[key], rel_tol=MARGIN_REL_TOL,
                                     abs_tol=MARGIN_ABS_TOL)]
    return problems


def check_runs(runs: List[dict], exps, recorded: Dict[str, dict]):
    """Check every run; return (failed CLI calls, problems)."""
    failed = 0
    problems = []
    for i, run in enumerate(runs):
        if not run["ok"]:
            problems.append(f"run {i}: child process failed or imported mhestab from outside src/")
        for exp in exps:
            code, got = run["codes"][exp.name], run["summary"][exp.name]
            if code != 0:
                found = [f"{exp.name}: exit code {code}"]
            else:
                found = check_summary(exp.name, exp, got) or compare_record(
                    exp.name, got, recorded.get(exp.name))
            failed += bool(found)
            problems += [f"run {i}: {p}" for p in found]
    if len({run["digest"] for run in runs}) > 1:
        problems.append("artifacts differ between runs of the same inputs")
    return failed, problems


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def measure_end_to_end(ws: Workspace, seconds: float):
    """Samples in the order ``SAMPLES`` from one importer, then the same from
    a fresh importer, and so on.

    Once there are ``MIN_RUNS`` runs and ``MIN_SETUPS`` set-ups, the next
    sample is taken only if it is expected to end within ``seconds`` (at the
    longest duration its kind, and a fresh importer, have taken so far), so an
    invocation lasts about ``seconds``.  Times are CPU seconds: time the host
    gives to other tenants is not counted, and with one BLAS thread CPU time
    equals wall time on an idle machine.  Each timing is the slowest sample
    of its kind: the import, a run after it, a set-up after it.  The host's
    CPU runs at a steady speed with spells up to ~1.4x faster; the slowest
    sample tracks the steady speed, where a median follows the share of fast
    spells in the invocation (see README.md).
    """
    imports, runs, setups, problems = [], [], [], []
    took = {"import": [0.0], "run": [0.0], "setup": [0.0]}
    start = time.perf_counter()
    imp = None
    try:
        for i in itertools.count():
            kind = SAMPLES[i % len(SAMPLES)]
            fresh = i % len(SAMPLES) == 0
            need = max(took[kind]) + (max(took["import"]) if fresh else 0.0)
            if (len(runs) >= MIN_RUNS and len(setups) >= MIN_SETUPS
                    and time.perf_counter() - start + need > seconds):
                break
            t0 = time.perf_counter()
            if fresh:
                if imp is not None:
                    imp.close()
                imp = ws.importer()
                if imp is None:
                    problems.append("the importer failed or imported mhestab from outside src/")
                    break
                imports.append(imp.ready["import_s"])
                took["import"].append(time.perf_counter() - t0)
                t0 = time.perf_counter()
            if kind == "setup":
                setups.append(ws.setup(imp))
            else:
                runs.append(ws.run(imp))
            took[kind].append(time.perf_counter() - t0)
    finally:
        if imp is not None:
            imp.close()
    metrics = {}
    if None in setups:
        problems.append("a set-up failed")
    elif runs and all(r["elapsed_s"] for r in runs):
        steps = sum(e.steps() for e in ws.exps)
        good = [s for s in runs[0]["summary"].values() if s is not None]
        certified = sum(s["certified_steps"] for s in good)
        import_s = max(imports)
        metrics = {
            "setup_s": import_s + max(setups),
            "steps_per_cpu_s": steps / (import_s + max(r["elapsed_s"] for r in runs)),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
            "certified_steps": certified,
            "verified_step_share": certified / steps,
            "min_rel_margin": min((s["min_rel_margin"] for s in good), default=0.0),
        }
    return runs, metrics, problems


def import_probe(deadline: float) -> Dict[str, float]:
    """Import times from ``python -X importtime`` in a fresh interpreter:
    the whole package, and the self time of ``comparison`` and of
    ``certificates`` (whose catalog is built at import)."""
    try:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mhestab"],
                              cwd=str(ROOT), env=_child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("import probe timed out") from None
    own, total = {}, {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            try:
                us_self, us_total = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue
            own[parts[2].strip()] = us_self * 1e-6
            total[parts[2].strip()] = us_total * 1e-6
    if proc.returncode != 0 or "mhestab" not in total:
        raise BenchError(f"import probe failed: {proc.stderr[-500:]}")
    return {"mhestab.import_s": total["mhestab"],
            "comparison.import_s": own.get("mhestab.comparison", 0.0),
            "certificates.import_s": own.get("mhestab.certificates", 0.0)}


def measure_layers(ws: Workspace):
    """One untraced and one traced run of the same inputs, forked from one
    importer, plus the import probe; the traced run's artifacts must equal
    the untraced run's."""
    imp = ws.importer()
    if imp is None:
        return [], {}, ["the importer failed or imported mhestab from outside src/"]
    try:
        plain = ws.run(imp)
        traced = ws.run(imp, traced=True)
    finally:
        imp.close()
    runs = [plain, traced]
    spans = traced.get("spans")
    if not spans or plain["elapsed_s"] is None or traced["elapsed_s"] is None:
        return runs, {}, ["traced run produced no spans"]
    if spans["missing"]:
        print(f"bench: not traced (absent): {', '.join(spans['missing'])}", file=sys.stderr)
    metrics = layer_metrics(spans["spans"])
    metrics.update(import_probe(ws.deadline))
    metrics["trace.run_s"] = traced["elapsed_s"]
    metrics["trace.overhead_s"] = traced["elapsed_s"] - plain["elapsed_s"]
    return runs, metrics, []


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _spec_units(trace: bool) -> Dict[str, str]:
    spec = read_json(SPEC)
    if spec is None:
        raise BenchError(f"cannot read {SPEC.name}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrunken inputs, for the benchmark's own smoke tests")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if not (SRC / "mhestab" / "__init__.py").is_file():
            raise BenchError(f"no mhestab sources under {SRC}")
        units = _spec_units(bool(args.trace))
        compileall.compile_dir(str(SRC), quiet=1)
        exps = workloads.experiments(args.workload, args.seed, tiny=args.tiny)
        recorded = (read_json(EXPECTED) or {}).get("tiny" if args.tiny else "full", {}) \
            .get(args.workload, {}).get(str(args.seed % workloads.SEED_SETS), {})
        ws = Workspace(args.workload, exps, deadline)
        if args.trace:
            runs, metrics, problems = measure_layers(ws)
        else:
            runs, metrics, problems = measure_end_to_end(ws, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    failed, found = check_runs(runs, exps, recorded)
    problems += found
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} disagree with {SPEC.name}")
    for line in problems:
        print(f"bench: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(runs) * len(exps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
