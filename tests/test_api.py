"""Every name `allg` exports, and every module-level name of `src/allg`, has a caller
outside the tests."""

import ast
import glob
import os
import re

import allg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = [p for p in glob.glob(os.path.join(ROOT, "src", "allg", "*.py"))
           if os.path.basename(p) != "__init__.py"]


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _used() -> set:
    """The names used in the package's modules but `__init__`, the benchmark's modules and
    the README's python examples.

    A name is used where it appears as a Name or an Attribute; a def or class statement,
    an assignment to it or an import alone does not count.
    """
    texts = [_read(p) for p in MODULES + glob.glob(os.path.join(ROOT, "bench", "*.py"))]
    texts += re.findall(r"^```python\n(.*?)^```", _read(os.path.join(ROOT, "README.md")),
                        re.M | re.S)
    used = set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    assert sorted(set(allg.__all__) - {"__version__"} - _used()) == []


def test_every_module_level_name_has_a_caller():
    # functions, classes and constants defined at the top level of each module
    defined = set()
    for path in MODULES:
        for node in ast.parse(_read(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    assert sorted(defined - _used()) == []
