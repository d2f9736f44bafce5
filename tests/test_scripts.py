import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# small arguments per script, so each run takes about a second
SCRIPTS = {
    "gelfand_convergence.py": ["--dim", "2", "--tuples", "1", "--k-max", "5"],
    "radial_norm_profile.py": ["--max-len", "2", "--symbols", "1", "--aux-dim", "2"],
    "weight_growth.py": ["--max-len", "2"],
}


def test_every_script_has_arguments():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPTS)


def python(argv: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from src/."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def launch(script: str, args: list[str]) -> subprocess.CompletedProcess:
    return python([str(ROOT / "scripts" / script), *args])


def run_script(script: str) -> str:
    proc = launch(script, SCRIPTS[script])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    assert run_script(script).strip()


def test_gelfand_prints_each_k_once():
    # --k-max 5 is one of the fixed checkpoints 1, 2, 5, 10, 20
    lines = [line.split(":")[0].strip() for line in
             run_script("gelfand_convergence.py").splitlines() if "k=" in line]
    assert lines == ["k=  1", "k=  2", "k=  5"]


@pytest.mark.parametrize("bad", [["--k-max", "0"], ["--k-max", "-2"], ["--dim", "0"]])
def test_gelfand_rejects_nonpositive_sizes(bad):
    proc = launch("gelfand_convergence.py", ["--tuples", "1", *bad])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "must be >= 1" in proc.stderr


def test_readme_quick_start_runs():
    """The README "Quick start" block, run exactly as written: the Fock
    dimension and a positive norm, then True."""
    section = (ROOT / "README.md").read_text().split("\n## Quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.splitlines()
    dimension, norm = first.split()
    assert dimension == "63" and float(norm) > 0
    assert second == "True"
