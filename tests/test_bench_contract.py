"""The benchmark's traced runs wrap every function perfbench/spans.py lists,
at every ncdomains site that binds it.  A renamed or removed listed function,
or an import site the tracer cannot rebind, should fail here rather than only
when a traced benchmark runs.  perfbench/ is read, never written."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ncdomains.corpus import builtin_corpus, random_gated_tuple, random_symbol
from ncdomains.serialization import dump_json, symbol_to_json, tuple_to_json

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


# the two toeplitz commands of the cli_files_n7 workload that pass through
# the operator file; prints the exit codes and the traced serialization calls
TRACED_FILE_COMMANDS = """
import json
import spans
import ncdomains.cli
tracer = spans.Tracer()
spans.install(tracer)
common = ["toeplitz", "--spec", "mixed_n2_m2", "--max-len", "3"]
codes = [ncdomains.cli.main([*common, "--symbol", "sym.json", "--out", "op.json"]),
         ncdomains.cli.main([*common, "--op", "op.json"])]
calls = {name: f["calls"] for name, f in tracer.summary()["functions"].items()
         if name.startswith("serialization.")}
print(json.dumps({"codes": codes, "calls": calls}))
"""

# each suite subcommand once, at depth 2; prints the exit codes and the
# traced suite calls
TRACED_SUITE_COMMANDS = """
import json
import spans
import ncdomains.cli
tracer = spans.Tracer()
spans.install(tracer)
names = ["model", "toeplitz", "berezin", "pluriharmonic", "cauchy"]
codes = [ncdomains.cli.main([name, "--spec", "mixed_n2_m1", "--max-len", "2"])
         for name in names]
calls = {name: f["calls"] for name, f in tracer.summary()["functions"].items()
         if name.startswith("verify.")}
print(json.dumps({"codes": codes, "calls": calls}))
"""


# one cauchy command, its arguments given as argv[1:]; prints the exit code,
# the traced cauchy calls and the number of Lanczos runs
TRACED_CAUCHY = """
import json
import sys
import spans
import ncdomains.cli
from ncdomains import lanczos
runs = []
helper = lanczos.top_singular_value
lanczos.top_singular_value = lambda *args: runs.append(1) or helper(*args)
tracer = spans.Tracer()
spans.install(tracer)
code = ncdomains.cli.main(["cauchy", "--spec", "mixed_n2_m2", *sys.argv[1:]])
calls = {name: f["calls"] for name, f in tracer.summary()["functions"].items()
         if name.startswith("cauchy.")}
print(json.dumps({"code": code, "calls": calls, "lanczos_runs": len(runs)}))
"""


def traced(script: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)

def test_traced_verify_all_runs():
    proc = traced(TRACED_VERIFY_ALL)
    assert proc.returncode == 0, proc.stderr


def test_tracer_rejects_a_missing_listed_function():
    proc = traced(TRACED_VERIFY_ALL, "berezin.hereditary_model_operator")
    assert proc.returncode != 0
    assert "in install" in proc.stderr
    assert "no attribute 'hereditary_model_operator'" in proc.stderr


def test_traced_operator_file_commands_run(tmp_path):
    """toeplitz --symbol ... --out op.json, then toeplitz --op op.json, run
    traced and read and write the files through the listed functions."""
    sym = random_symbol(np.random.default_rng(0), 2, max_len=2, aux_dim=2)
    dump_json(symbol_to_json(sym), tmp_path / "sym.json")
    proc = traced(TRACED_FILE_COMMANDS, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0]
    assert got["calls"] == {"serialization.load_json": 2, "serialization.dump_json": 1,
                            "serialization.operator_to_json": 1,
                            "serialization.operator_from_json": 1,
                            "serialization.symbol_from_json": 1,
                            "serialization.tuple_from_json": 0}


def test_traced_suite_commands_call_their_suite():
    """Each suite subcommand runs its suite through the name the tracer
    rebinds, so a traced run records exactly one call of it."""
    proc = traced(TRACED_SUITE_COMMANDS)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0] * 5
    assert got["calls"] == {f"verify.{name}_suite": 1 for name in
                            ("model", "toeplitz", "berezin", "pluriharmonic", "cauchy")
                            } | {"verify.weights_suite": 0}


def test_traced_cauchy_tuple_calls_the_listed_functions(tmp_path):
    """cauchy --tuple at N = 7 with tuple dim 3 (side 765) takes the radius
    inequality's Krylov path, one Lanczos run per power, on R's nonzeros
    from its terms: the dense R of reconstruction_operator is not formed."""
    spec = builtin_corpus()["mixed_n2_m2"]
    X = random_gated_tuple(np.random.default_rng(0), spec, dim=3, target_radius=0.6)
    dump_json(tuple_to_json(X), tmp_path / "Xg.json")
    proc = traced(TRACED_CAUCHY, "--max-len", "7", "--tuple", "Xg.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == 0
    assert got["calls"]["cauchy.reconstruction_operator"] == 0
    assert got["calls"]["cauchy.radius_inequality_check"] == 1
    assert got["lanczos_runs"] == 7


def test_traced_cauchy_suite_calls_reconstruction_operator():
    """The cauchy suite at depth 5, as in the corpus_n5 workload, keeps the
    radius inequality below the Krylov cut-over (side 189): each check
    assembles R through the listed reconstruction_operator, so the spans
    list's function is still called."""
    proc = traced(TRACED_CAUCHY, "--max-len", "5")
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == 0
    checks = got["calls"]["cauchy.radius_inequality_check"]
    assert checks > 0
    assert got["calls"]["cauchy.reconstruction_operator"] == checks
    assert got["lanczos_runs"] == 0
