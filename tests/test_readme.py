"""README.md's Python examples run as written, from the checkout root; its
configuration table names every config key, and its package layout names
every module once."""

import os
import re

import pytest
from conftest import CONFIGS

ROOT = os.path.dirname(CONFIGS)

with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as _handle:
    README = _handle.read()

BLOCKS = re.findall(r"^```python\n(.*?)^```$", README,
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    # Guards the parametrization below against a pattern that finds none.
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_example_runs(monkeypatch, index):
    monkeypatch.chdir(ROOT)
    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {})


def test_readme_config_table_names_every_key():
    from caginalp_control.config import _KNOWN_KEYS

    rows = dict(re.findall(r"^\| `\[(\w+)\]` \|(.*)\|$", README,
                           flags=re.MULTILINE))
    assert set(rows) == set(_KNOWN_KEYS)
    for section, keys in _KNOWN_KEYS.items():
        missing = [key for key in keys if f"`{key}`" not in rows[section]]
        assert not missing, f"[{section}] row lacks {missing}"


def test_readme_package_layout_names_every_module_once():
    block = re.search(r"^## Package layout\n\n```\n(.*?)^```$", README,
                      flags=re.MULTILINE | re.DOTALL).group(1)
    package = os.path.join(ROOT, "src", "caginalp_control")
    modules = sorted(name for name in os.listdir(package)
                     if name.endswith(".py"))
    named = re.findall(r"^ +(\w+\.py) ", block, flags=re.MULTILINE)
    assert sorted(named) == modules
