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


def test_weight_growth_without_levels_reports_no_ratio():
    """At depth 0 there is no level, so no ratio is computed: n/a, not 0."""
    proc = launch("weight_growth.py", ["--spec", "mixed_n2_m1", "--max-len", "0"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == [
        "letter 1: max ratio n/a; per-level maxima []",
        "letter 2: max ratio n/a; per-level maxima []"]


BAD_INTEGERS = [
    ("gelfand_convergence.py", ["--k-max", "0"], 1),
    ("gelfand_convergence.py", ["--k-max", "-2"], 1),
    ("gelfand_convergence.py", ["--dim", "0"], 1),
    ("gelfand_convergence.py", ["--tuples", "-1"], 1),
    ("gelfand_convergence.py", ["--seed", "-1"], 0),
    ("radial_norm_profile.py", ["--max-len", "0"], 1),
    ("radial_norm_profile.py", ["--symbols", "0"], 1),
    ("radial_norm_profile.py", ["--aux-dim", "0"], 1),
    ("radial_norm_profile.py", ["--seed", "-1"], 0),
    ("weight_growth.py", ["--max-len", "-1"], 0),
]


@pytest.mark.parametrize("script, bad, least", BAD_INTEGERS,
                         ids=[f"{script}{flag}={value}" for script, (flag, value), _
                              in BAD_INTEGERS])
def test_scripts_reject_out_of_range_integers(script, bad, least):
    """An integer argument below its bound: exit 2 with the usage and one
    error line, no traceback."""
    proc = launch(script, [*SCRIPTS[script], *bad])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("usage:") == 1
    assert proc.stderr.splitlines()[-1].endswith(
        f"error: argument {bad[0]}: must be >= {least}, got {int(bad[1])}")


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
