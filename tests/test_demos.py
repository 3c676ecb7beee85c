"""Smoke test: every script under demos/ runs to the end without error.
The demos exercise the public API, so a rename or a changed signature
that the unit tests miss shows up here."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_imports_public_names_only(script):
    # demos/02 read P_n through the private wavefun._recurrence
    private = []
    for node in ast.walk(ast.parse(script.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        # __future__ is the language's, not a private susy_pt name
        private += [n for n in names if n != "__future__" and any(p.startswith("_") for p in n.split("."))]
    assert private == []
