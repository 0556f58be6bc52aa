"""Byte identity of the written artifacts.

``golden_artifacts.json`` holds the sha256 of every file that a small
moving-horizon sweep on ``s1`` (max and sum, K in {2, 4}, T = 12, the four
acceptance scenarios) and an ``s3`` sum-mode moving-horizon run write.
``golden_probe.json`` holds the same for the ``probe.json`` of three
max-mode deviant-output probes: ``s1`` moving horizon (K = 2), ``s2`` and
``s4`` full information.  ``golden_analysis.json`` holds the same for the
``analysis.json`` that ``analyze`` writes for an ``s1`` max-mode moving
horizon with ``sweep = 2,4,8`` and an ``s3`` sum-mode one with K = 4.  A
change that claims the same numbers must leave every digest as it is.
Re-record the files only for a change that is meant to move these bytes::

    PYTHONPATH=src python tests/test_golden_artifacts.py
"""

import hashlib
import json
import os

import pytest

from mhestab.harness import (
    ExperimentConfig,
    analyze,
    deviant_output_probe,
    horizon_sweep,
    run_experiment,
)
from mhestab.systems import DisturbanceScenario

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_artifacts.json")
GOLDEN_PROBE = os.path.join(os.path.dirname(__file__), "golden_probe.json")
GOLDEN_ANALYSIS = os.path.join(os.path.dirname(__file__), "golden_analysis.json")

ACCEPTANCE = [
    DisturbanceScenario("zero", "zero"),
    DisturbanceScenario("uniform", "bounded_uniform", amplitude=0.1),
    DisturbanceScenario("decay", "decaying_geometric", amplitude=1.0, rate=0.8),
    DisturbanceScenario("impulse", "impulse", time=5, magnitude=1.0),
]


def _experiments():
    """(verb, config) of every pinned experiment."""
    out = [(horizon_sweep, ExperimentConfig(
        name=f"s1-{mode}-sweep", plant="s1", mode=mode, estimator="mhe", sweep=(2, 4),
        t_final=12, seeds=(0, 1), scenarios=list(ACCEPTANCE))) for mode in ("max", "sum")]
    out.append((run_experiment, ExperimentConfig(
        name="s3-sum-mhe", plant="s3", mode="sum", estimator="mhe", horizon=4, t_final=7,
        seeds=(0,), scenarios=[DisturbanceScenario("uniform", "bounded_uniform", amplitude=0.1)])))
    return out


def _probes():
    """(verb, config) of every pinned probe."""
    return [(deviant_output_probe, ExperimentConfig(
        name=f"{plant}-{estimator}-probe", plant=plant, mode="max", estimator=estimator,
        horizon=2, t_final=t_final, scenarios=list(ACCEPTANCE)))
        for plant, estimator, t_final in (("s1", "mhe", 12), ("s2", "fie", 10), ("s4", "fie", 8))]


def _analyses():
    """(verb, config) of every pinned analysis."""
    return [
        (analyze, ExperimentConfig(name="s1-max-analysis", plant="s1", mode="max",
                                   estimator="mhe", sweep=(2, 4, 8), scenarios=list(ACCEPTANCE))),
        (analyze, ExperimentConfig(
            name="s3-sum-analysis", plant="s3", mode="sum", estimator="mhe", horizon=4,
            scenarios=[DisturbanceScenario("uniform", "bounded_uniform", amplitude=0.1)])),
    ]


def _digests(out_dir, experiments):
    """{relative path: sha256} of every file the given experiments write."""
    for verb, config in experiments:
        verb(config, out_dir)
    digests = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def _record(out_dir):
    for path, experiments in ((GOLDEN, _experiments()), (GOLDEN_PROBE, _probes()),
                               (GOLDEN_ANALYSIS, _analyses())):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_digests(os.path.join(out_dir, os.path.basename(path)), experiments),
                      fh, indent=1, sort_keys=True)
            fh.write("\n")


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return _digests(str(tmp_path_factory.mktemp("artifacts")), _experiments())


def test_every_pinned_file_is_written(digests):
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert sorted(digests) == sorted(expected)


def test_every_artifact_has_its_pinned_bytes(digests):
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    moved = [path for path in expected if digests.get(path) != expected[path]]
    assert not moved, moved


def test_every_probe_has_its_pinned_bytes(tmp_path):
    with open(GOLDEN_PROBE, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert _digests(str(tmp_path), _probes()) == expected


def test_every_analysis_has_its_pinned_bytes(tmp_path):
    with open(GOLDEN_ANALYSIS, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert _digests(str(tmp_path), _analyses()) == expected


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        _record(tmp)
