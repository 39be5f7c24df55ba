"""Import hygiene: every name a package module imports is used in it, and
every module-level function or class is read somewhere in the package.

``__init__.py`` is left out of the first check: its imports are the public API.
They count as reads in the second, so a public name passes it by being
exported, and a private one or an unexported public one by being read.
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


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes that no module reads.

    A read is a name load, an attribute or an imported name anywhere in the
    given sources; the definition itself is not one.
    """
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
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
    assert unread_definitions(sources) == ["a._dead"]


def test_public_detector_finds_unexported_unread_definitions():
    sources = {
        "__init__": "from .a import exported\n",
        "a": "def exported(): pass\ndef helper(): pass\ndef dead(): pass\nclass Dead: pass\n",
        "b": "from .a import helper\nhelper()\n",
    }
    assert unread_definitions(sources) == ["a.Dead", "a.dead"]


def test_every_definition_is_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_definitions(sources) == []
