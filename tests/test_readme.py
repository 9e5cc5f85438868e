"""The README's documented API and its examples, checked against the package."""

import re
from pathlib import Path

import pytest

import copulaboot

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def documented_names():
    """Backticked names on the bullet lines of the "Public API" section."""
    section = README.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*?(?=^- |\Z)", section, re.M | re.S)
    return [name for b in bullets for name in re.findall(r"`(\w+)`", b)]


def test_all_is_the_documented_api():
    names = documented_names()
    assert len(names) == len(set(names)) == 29
    assert set(copulaboot.__all__) == set(names)
    assert len(copulaboot.__all__) == len(set(copulaboot.__all__))


def test_star_import_gives_the_documented_api():
    namespace = {}
    exec("from copulaboot import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(documented_names())


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize(
    "code", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))]
)
def test_python_block_runs(code):
    exec(compile(code, "README.md", "exec"), {})
