"""Command-line experiment runner.

Verbs and what each writes under ``OUT/NAME/``: ``analyze`` (certificate +
contraction only; ``analysis.json``), ``run`` (single experiment; one trace
CSV per cell, ``plots.json``, ``report.json``), ``sweep`` (horizon sweep; one
trace CSV per cell, ``sweep.json``), ``probe`` (deviant-output check of the
configured estimator on the first seed; ``probe.json``).  ``--jobs N`` runs
the cells of ``run`` and ``sweep`` on N worker processes.
Exit codes are part of the contract; every failure maps onto one of them:

==  ===========================================================================
0   every analysis and margin passed
2   configuration, fixture or analysis failure: ``ConfigError``,
    ``AnalysisError``, ``DomainError``, ``CapabilityError`` (a comparison
    function lacks an operation the run needs), ``HorizonCapError`` (a
    full-information window beyond ``t_max_fie``)
3   infeasible or divergent run: ``InfeasibleWindowError``,
    ``DivergenceError`` (the simulated state left the floats),
    ``NonFiniteStepError`` (a step whose achieved or reference cost, or a
    certified step whose error or bound, is not finite)
4   bound violation (``BoundViolationError``), worst step in the report
==  ===========================================================================
"""

from __future__ import annotations

import argparse
import sys

from .comparison import CapabilityError, DomainError
from .estimator import HorizonCapError, InfeasibleWindowError
from .harness import (
    AnalysisError,
    BoundViolationError,
    ConfigError,
    NonFiniteStepError,
    analyze,
    deviant_output_probe,
    horizon_sweep,
    load_config,
    run_experiment,
)
from .systems import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VIOLATION = 4


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mhestab",
                                     description="Estimator bound-verification harness")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, doc in (("analyze", "certificate and contraction analysis only"),
                      ("run", "run a single experiment"),
                      ("sweep", "moving-horizon sweep"),
                      ("probe", "deviant-output probe")):
        p = sub.add_parser(verb, help=doc)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="run a single seed")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for the cells of run and sweep")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seeds = (args.seed,)
        if args.jobs is not None:
            config.jobs = args.jobs
        if args.verb == "analyze":
            summary = analyze(config, args.out)
            print(f"analysis pass: {config.name} "
                  f"(B={summary['compat_B']}, mode={summary['mode']})")
        elif args.verb == "run":
            report = run_experiment(config, args.out)
            certified = sum(c.certified_steps for c in report.cells)
            total = sum(c.total_steps for c in report.cells)
            print(f"run pass: {config.name} cells={len(report.cells)} "
                  f"certified={certified}/{total} report={report.report_path}")
        elif args.verb == "sweep":
            summary = horizon_sweep(config, args.out)
            print(f"sweep pass: {config.name} K0={summary['minimal_passing_horizon']} "
                  f"gap={summary['bar_convergence_gap']:.3e}")
        else:
            summary = deviant_output_probe(config, args.out)
            print(f"probe {summary['status']}: {config.name}")
    except (ConfigError, AnalysisError, DomainError, CapabilityError, HorizonCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleWindowError, DivergenceError, NonFiniteStepError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BoundViolationError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
