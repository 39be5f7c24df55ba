"""Import hygiene: every name a package module imports is used in it, and
every module-level private function or class is used somewhere in the package.

``__init__.py`` is left out of the first check: its imports are the public API.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stitlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other name in the source reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_finds_unused_names():
    source = "import os\nimport math as m\nfrom typing import Any, Sequence\nx: Sequence = [m.pi]\n"
    assert unused_imports(source) == ["Any", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_privates(sources: dict[str, str]) -> list[str]:
    """Module-level ``_``-prefixed functions and classes that no module reads.

    A read is a name load, an attribute or an imported name anywhere in the
    given sources; the definition itself is not one.
    """
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined.append((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_private_detector_finds_unused_definitions():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\nclass _Kept: pass\n",
        "b": "from a import _used\nimport a\nx = a._Kept\n",
    }
    assert unused_privates(sources) == ["a._dead"]


def test_every_private_definition_is_used():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unused_privates(sources) == []
