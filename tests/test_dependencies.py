"""The runtime needs numpy and click only; scipy is a test oracle. The README's
library quick start runs as written."""

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


def test_every_import_is_used():
    # a name a seqvol module or a test file imports is used there, or its line
    # is marked "# noqa: F401" (kept for a caller outside the module); a string
    # spelling the name (a quoted annotation, an __all__ entry) counts as a use
    unused = []
    for path in sorted([*(ROOT / "src" / "seqvol").glob("*.py"),
                        *(ROOT / "tests").glob("*.py")]):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a, (a.asname or a.name).split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [(a, a.asname or a.name) for a in node.names]
            else:
                continue
            unused += [f"{path.parent.name}/{path.name}:{alias.lineno}: {name}"
                       for alias, name in bound
                       if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]]
    assert unused == []


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    namespace = {}
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), namespace)
    assert namespace["record"].t == 1 and len(namespace["records"]) == 300
