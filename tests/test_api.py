"""Every name `allg` exports has a caller outside the tests."""

import ast
import glob
import os
import re

import allg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _callers() -> list:
    """The package's modules but `__init__`, the benchmark's modules and the README's
    python examples, as source texts."""
    paths = [p for p in glob.glob(os.path.join(ROOT, "src", "allg", "*.py"))
             if os.path.basename(p) != "__init__.py"]
    paths += glob.glob(os.path.join(ROOT, "bench", "*.py"))
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        texts += re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    return texts


def test_every_public_name_has_a_caller():
    # a name is used where it appears as a Name or an Attribute; a def or class
    # statement alone does not count
    used = set()
    for text in _callers():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(allg.__all__) - {"__version__"} - used) == []
