"""The benchmark's child process (``bench/child.py``) and its recorder
(``bench/record.py``) call mhestab by name.  A renamed function or a removed
parameter would only show up as a failed benchmark sample; these tests fail
instead.  Both files are parsed, not imported, so nothing is written under
``bench/``."""

import ast
import importlib
import inspect
import os

import pytest

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
FILES = ("child.py", "record.py")


def _imported(module: str, name: str):
    """What ``from module import name`` binds: an attribute, else a submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def _parse(filename):
    """The file's mhestab bindings (local name -> (module, name)) and its
    calls, as ``(line, callee, positional count, keywords)``; the callee is
    the name called or a ``(name, attribute)`` pair."""
    with open(os.path.join(BENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bindings, calls = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mhestab":
            for alias in node.names:
                bindings[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mhestab":
                    bindings[alias.asname or alias.name] = (alias.name, None)
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                callee = f.id
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                callee = (f.value.id, f.attr)
            else:
                continue
            calls.append((node.lineno, callee, node.args, node.keywords))
    return bindings, calls


def _resolve(binding):
    module, name = binding
    return importlib.import_module(module) if name is None else _imported(module, name)


def _resolved(bindings):
    """The bindings that resolve, as local name -> object; the import test
    reports the others."""
    out = {}
    for local, binding in bindings.items():
        try:
            out[local] = _resolve(binding)
        except (ImportError, AttributeError):
            pass
    return out


@pytest.mark.parametrize("filename", FILES)
def test_every_mhestab_import_of_the_benchmark_resolves(filename):
    bindings, _ = _parse(filename)
    assert bindings, f"bench/{filename} imports nothing from mhestab"
    objects = _resolved(bindings)
    missing = [f"{local} = {binding}" for local, binding in sorted(bindings.items())
               if local not in objects]
    assert not missing, missing


@pytest.mark.parametrize("filename", FILES)
def test_every_mhestab_call_of_the_benchmark_fits_its_signature(filename):
    bindings, calls = _parse(filename)
    objects = _resolved(bindings)
    checked, bad = 0, []
    for line, callee, args, keywords in calls:
        if isinstance(callee, str):
            if callee not in objects:
                continue
            target = objects[callee]
        else:
            owner = objects.get(callee[0])
            if not inspect.ismodule(owner):
                continue
            target = getattr(owner, callee[1], None)
            if target is None:
                bad.append(f"line {line}: {callee[0]}.{callee[1]} does not exist")
                continue
        assert not any(isinstance(a, ast.Starred) for a in args), line
        assert all(k.arg is not None for k in keywords), line
        try:
            inspect.signature(target).bind(*([None] * len(args)),
                                           **{k.arg: None for k in keywords})
        except TypeError as exc:
            bad.append(f"line {line}: {callee}: {exc}")
        checked += 1
    assert checked, f"bench/{filename} makes no mhestab call"
    assert not bad, bad
