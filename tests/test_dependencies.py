"""numpy is the only runtime dependency: every import in the package names a
standard-library module, numpy or the package itself."""

import ast
import pathlib
import sys

import mhestab

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mhestab"}


def _imported_roots(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    package = pathlib.Path(mhestab.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    outside = {(path.name, root) for path in sources for root in _imported_roots(path)
               if root not in ALLOWED}
    assert not outside
