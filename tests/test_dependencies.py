"""The runtime needs numpy and click only; scipy is a test oracle."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_scipy():
    # a fresh interpreter, so that the test suite's own scipy imports do not count
    probe = ("import sys, seqvol, seqvol.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(deps):
        return {dep.split(">")[0].split("=")[0] for dep in deps}

    runtime = names(project["dependencies"])
    test = names(project["optional-dependencies"]["test"])
    assert runtime == {"numpy", "click"}
    # every third-party module the tests import comes with the test extras
    imported = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {"seqvol"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
    assert imported - set(sys.stdlib_module_names) - local <= runtime | test
    assert "scipy" in test
