"""The narrative demos run to the end and print their story.

The two table generators (generate_*_table.py) need mpmath at high
precision and write the frozen tables; they are not run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "bilinear_exponents.py",
    "character_poisson.py",
    "error_gallery.py",
    "hyperbola_identity.py",
    "kloosterman_tour.py",
    "voronoi_reconstruction.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), name


def test_every_narrative_demo_is_listed():
    scripts = {p.name for p in (ROOT / "demos").glob("*.py")}
    assert scripts - set(DEMOS) == {"generate_bessel_table.py", "generate_kronrod_table.py"}
