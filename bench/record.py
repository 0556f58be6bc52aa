"""Record the certified counts and margins that ``run.py`` checks against.

    python3 bench/record.py [WORKLOAD ...]

Runs every input set (``workloads.SEED_SETS`` of them, full and tiny sizes) of
the named workloads (default: all) in this interpreter and merges the
per-experiment summaries into ``bench/expected.json``.  Re-record only when a
change is meant to alter certified counts or margins, and say why.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run as bench
import workloads


def record(workload: str, tiny: bool) -> dict:
    sys.path.insert(0, str(bench.SRC))
    from mhestab import cli

    out = bench.WORK / "record" / workload
    table = {}
    for residue in range(workloads.SEED_SETS):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        exps = workloads.experiments(workload, residue, tiny=tiny)
        table[str(residue)] = {}
        for exp in exps:
            config = out / f"{exp.name}.ini"
            config.write_text(exp.config_text(), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([exp.verb, "--config", str(config), "--out", str(out),
                                 "--jobs", "1"])
            summary = bench.summarize(out / exp.name, exp)
            problems = bench.check_summary(exp.name, exp, summary)
            if code != 0 or problems:
                raise SystemExit(f"{workload} set {residue}: exit {code}, {problems}")
            table[str(residue)][exp.name] = summary
        print(f"recorded {workload} {'tiny' if tiny else 'full'} set {residue}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    return table


def main(names) -> int:
    data = bench.read_json(bench.EXPECTED) or {}
    for name in names or sorted(workloads.WORKLOADS):
        for size in ("full", "tiny"):
            data.setdefault(size, {})[name] = record(name, size == "tiny")
    bench.EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
