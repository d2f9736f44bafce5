"""The benchmark's traced runs wrap every function perfbench/spans.py lists,
at every ncdomains site that binds it.  A renamed or removed listed function,
or an import site the tracer cannot rebind, should fail here rather than only
when a traced benchmark runs.  perfbench/ is read, never written."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# argv[1:] names listed functions to delete before the tracer is installed
TRACED_VERIFY_ALL = """
import importlib, sys
import spans
import ncdomains.cli
for name in sys.argv[1:]:
    mod, attr = name.split(".", 1)
    delattr(importlib.import_module("ncdomains." + mod), attr)
spans.install(spans.Tracer())
sys.exit(ncdomains.cli.main(["verify-all", "--max-len", "2"]))
"""


def traced_verify_all(*deleted: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", TRACED_VERIFY_ALL, *deleted],
                          env=env, capture_output=True, text=True, timeout=300)


def test_traced_verify_all_runs():
    proc = traced_verify_all()
    assert proc.returncode == 0, proc.stderr


def test_tracer_rejects_a_missing_listed_function():
    proc = traced_verify_all("berezin.hereditary_model_operator")
    assert proc.returncode != 0
    assert "in install" in proc.stderr
    assert "no attribute 'hereditary_model_operator'" in proc.stderr
