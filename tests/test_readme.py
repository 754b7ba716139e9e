"""README.md's Python examples run as written, from the checkout root."""

import os
import re

import pytest
from conftest import CONFIGS

ROOT = os.path.dirname(CONFIGS)

with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as _handle:
    BLOCKS = re.findall(r"^```python\n(.*?)^```$", _handle.read(),
                        flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    # Guards the parametrization below against a pattern that finds none.
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_example_runs(monkeypatch, index):
    monkeypatch.chdir(ROOT)
    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {})
