"""The README's library examples run as written: every block fenced as
``python`` is executed, so an API change that leaves one stale fails here.
Its table of comparison-function text forms lists exactly the forms the
parser knows, and every name it quotes from a package module exists."""

import importlib
import re
from pathlib import Path

import pytest

from mhestab.comparison import TEXT_FORMS

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
MODULES = ("certificates", "cli", "comparison", "estimator", "harness", "stability", "systems")
# a backticked `module.name`, or `mhestab.module.name`, with any further attributes
NAMES = sorted(set(re.findall(rf"`(?:mhestab\.)?((?:{'|'.join(MODULES)})(?:\.[A-Za-z_]\w*)+)",
                              TEXT)))


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_lists_exactly_the_text_forms():
    section = TEXT.split("## Comparison-function text forms\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([a-z]+)\(", section, re.MULTILINE)
    assert len(names) == len(set(names))
    assert set(names) == set(TEXT_FORMS)


def test_readme_quotes_names_of_the_package():
    assert len(NAMES) >= 10


@pytest.mark.parametrize("name", NAMES)
def test_readme_names_resolve(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"mhestab.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
