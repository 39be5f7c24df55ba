"""Import hygiene: every name a package module imports is used in it, and
every module-level function or class is read somewhere in the package.

``__init__.py`` is left out of the first check: its imports are the public API.
They count as reads in the second, so a public name passes it by being
exported, and a private one or an unexported public one by being read.

The import path is gated too, in fresh interpreters: importing the package
and its CLI loads neither numpy nor the ``validate`` suite, every
command but ``validate`` runs with numpy blocked, and ``validate`` then
exits 2 with one error line.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
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


def run_python(code: str, cwd: Path, **env: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from this checkout, with ``env`` set."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_import_loads_neither_numpy_nor_the_validate_suite(tmp_path):
    code = "import sys, stitlab, stitlab.cli; print(sorted({'numpy', 'stitlab.checks'} & set(sys.modules)))"
    result = run_python(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


SQUARE = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
WINDOW = {"vertices": [[-0.3, -0.3], [1.3, -0.3], [1.3, 1.3], [-0.3, 1.3]]}
ISO = {"isotropic_mass": 6.283185307179586, "atoms": []}
SMALL_CONFIGS = {
    "measure": {"measure": ISO, "set": "unit_square"},
    "simulate": {"measure": ISO, "window": WINDOW, "a": 1.0, "seed": 1},
    "capacity": {"measure": ISO, "set": "unit_square", "a": 1.0, "n": 50, "seed": 17},
    "mixing": {
        "measure": ISO,
        "A": "unit_segment",
        "B": "unit_segment",
        "direction": [1, 0],
        "distances": [5, 10],
        "a": 1.0,
        "mc_n": 20,
        "seed": 3,
    },
    "iterate": {"measure": ISO, "window": WINDOW, "set": SQUARE, "a": 0.5, "a2": 0.5, "n": 400, "seed": 11},
}


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
def test_command_runs_without_numpy(tmp_path, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIGS[command]))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    code = f"import sys; sys.modules['numpy'] = None; from stitlab.cli import main; sys.exit(main({argv!r}))"
    result = run_python(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out").stat().st_size > 0


def test_validate_without_numpy_exits_2_with_one_line(tmp_path):
    code = "import sys; sys.modules['numpy'] = None; from stitlab.cli import main; sys.exit(main(['validate']))"
    result = run_python(code, tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and "numpy" in result.stderr
    assert result.stderr.count("\n") == 1


def test_validate_loads_numpy_and_passes(tmp_path):
    code = (
        "import sys; from stitlab.cli import main; code = main(['validate', 'fast', '--out', 'v.json']);"
        " print(code, 'numpy' in sys.modules)"
    )
    result = run_python(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 True\n"
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["failed"] == 0 and report["passed"] == len(report["checks"]) > 10
