"""The per-layer benchmark (``bench/tracer.py``) wraps mhestab functions by
name and reports a missing one only as ``not traced (absent)``.  These tests
fail instead when a rename in ``src`` leaves one of its bindings behind, or
when ``harness._write`` no longer takes the text the tracer measures."""

import ast
import importlib
import inspect
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _targets():
    # parsed rather than imported, so nothing is written under bench/
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_traced_binding_resolves_to_a_callable():
    targets = _targets()
    assert len(targets) >= 18
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing, missing


def test_the_write_binding_takes_the_artifact_text_as_text():
    # the tracer sizes each artifact from _write's second argument, read by
    # position or as the keyword text
    from mhestab import harness
    assert list(inspect.signature(harness._write).parameters)[1] == "text"
