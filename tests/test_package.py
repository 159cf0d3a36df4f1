"""The package's API is its submodules, and each stands on its own.

`import divprog` runs only the package docstring, so a module that used a
name without importing it, relying on the package to have loaded it
first, would fail only when imported alone.  Each import below runs in a
fresh interpreter, where nothing else has loaded the package yet.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "divprog").glob("*.py") if p.stem != "__init__")


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT)


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_on_its_own(name):
    proc = _run(f"import divprog.{name}")
    assert proc.returncode == 0, proc.stderr


def test_importing_the_package_loads_no_submodule():
    proc = _run("import sys, divprog; print(sorted(m for m in sys.modules if m.startswith('divprog.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
