"""One iteration of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR [--trace] [--setup-only]

Set-up (package imports, spec construction, seeded input generation) is timed
first, then the timed phase runs and every output is checked.  The result is
written to WORKDIR/result.json; run.py aggregates iterations into metrics.
The package is timed only from outside, through its public functions and its
command line.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import ncdomains  # noqa: E402
import ncdomains.cli  # noqa: E402
from ncdomains import (berezin, cauchy, corpus, fock, pluriharmonic,  # noqa: E402
                       serialization, toeplitz, weights)

if not os.path.abspath(ncdomains.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"ncdomains imported from {ncdomains.__file__}, not {SRC}")

from ncdomains.words import fock_dimension  # noqa: E402

import spans  # noqa: E402

# corpus_n5: the certificate run over the builtin corpus
CORPUS_N = 5

# deep_n8: one API session at depth 8
DEEP_SPEC = "mixed_n2_m2"
DEEP_N = 8
DEEP_AUX = 2            # symbol aux dim: Dk = 1022
DEEP_K = 3              # tuple dim: Dk = 1533
DEEP_RADIUS = 0.9
DEEP_WARM_PASSES = 1
SCHUR_RADII = (0.5, 0.9)
TRANSFORM_WORD_LEN = 1  # Cauchy transform reproduced on every word up to this length

# cli_files_n7: six commands, each in its own process
CLI_SPEC = "mixed_n2_m2"
CLI_N = 7
CLI_AUX = 2             # makes op.json about 9 MB
CLI_K = 3
CLI_RADIUS = 0.9


class Checks:
    """Output checks; every mismatch is counted, none passes silently."""

    def __init__(self):
        self.items: list[dict] = []

    def __call__(self, name: str, ok: bool, **detail) -> None:
        self.items.append({"name": name, "ok": bool(ok), **detail})

    def within(self, name: str, residual: float, tol: float) -> None:
        self(name, residual <= tol, residual=float(residual), tol=tol)


def peak_rss_mb(usage) -> float:
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


def full_symbol(rng, n: int, aux_dim: int, antianalytic: bool = True):
    """Seeded symbol with a block on every word of length <= 2 (the B part on
    the nonempty ones), so every seed asks for the same work; only the
    values change."""
    def blk():
        return (rng.standard_normal((aux_dim, aux_dim))
                + 1j * rng.standard_normal((aux_dim, aux_dim)))
    words = ncdomains.enumerate_words(n, 2)
    A = {w: blk() for w in words}
    B = {w: blk() for w in words if w} if antianalytic else {}
    return toeplitz.MultiToeplitzSymbol(aux_dim, A, B)


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------- corpus_n5

def corpus_setup(seed: int, work: str) -> dict:
    specs = ncdomains.builtin_corpus()
    return {"seed": seed, "out": os.path.join(work, "report.json"),
            "dims": {"specs": len(specs), "n": sorted({s.n for s in specs.values()}),
                     "N": CORPUS_N,
                     "D": sorted({fock_dimension(s.n, CORPUS_N) for s in specs.values()}),
                     "aux_dim": 1, "k": 3}}


def corpus_run(inp: dict, checks: Checks) -> dict:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = ncdomains.cli.main(["verify-all", "--max-len", str(CORPUS_N),
                                   "--seed", str(inp["seed"]), "--out", inp["out"]])
    wall = time.perf_counter() - t0
    checks("exit_code", code == 0, code=code)
    with open(os.path.join(HERE, "golden_corpus_n5.json")) as fh:
        golden = [tuple(g) for g in json.load(fh)["checks"]]
    with open(inp["out"]) as fh:
        got = [(c["check_id"], c["status"], c["tolerance"])
               for c in json.load(fh)["checks"]]
    for i, want in enumerate(golden):
        have = got[i] if i < len(got) else None
        checks(f"golden[{i}]", have == want, want=list(want), got=have)
    if len(got) > len(golden):
        checks("golden.extra_checks", False, extra=got[len(golden):])
    return {"wall_s": wall, "peak_rss_mb": peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF))}


# ------------------------------------------------------------------ deep_n8

def deep_setup(seed: int, work: str) -> dict:
    spec = ncdomains.builtin_corpus()[DEEP_SPEC]
    rng = np.random.default_rng(seed)
    passes = []
    for _ in range(1 + DEEP_WARM_PASSES):
        passes.append({
            "sym": full_symbol(rng, spec.n, DEEP_AUX),
            "X": corpus.random_nilpotent_tuple(rng, spec, dim=DEEP_K),
            "Xg": corpus.random_gated_tuple(rng, spec, dim=DEEP_K, target_radius=0.6),
            "F": pluriharmonic.PluriharmonicFunction(
                full_symbol(rng, spec.n, DEEP_AUX, antianalytic=False)),
        })
    return {"spec": spec, "passes": passes,
            "dims": {"n": spec.n, "N": DEEP_N, "D": fock_dimension(spec.n, DEEP_N),
                     "aux_dim": DEEP_AUX, "k": DEEP_K,
                     "warm_passes": DEEP_WARM_PASSES}}


def scaled_symbol(sym, r: float):
    return toeplitz.MultiToeplitzSymbol(
        sym.aux_dim,
        {w: blk * r ** len(w) for w, blk in sym.A.items()},
        {w: blk * r ** len(w) for w, blk in sym.B.items()})


def deep_pass(spec, table, inp: dict, checks: Checks):
    """The session chain; a cold pass (table None) derives the weights first."""
    N, r = DEEP_N, DEEP_RADIUS
    if table is None:
        table = weights.weights_by_factorization(spec, N)
        conv = weights.weights_by_convolution(spec, N)
        checks("weights.tables_equal", table.b == conv.b)
    W = fock.creation_tuple(table, N, left=True)
    fock.creation_tuple(table, N, left=False)
    ident = fock.verify_model_identities(spec, table, N)
    checks("model.identities", ident.passed)

    sym = inp["sym"]
    op = toeplitz.symbol_to_operator(sym, table, r, N)
    rep = toeplitz.is_multi_toeplitz(op, table, tol=1e-12)
    checks.within("toeplitz.structure", max(rep.worst_structure_residual,
                                            rep.worst_incomparable_entry), 1e-12)
    rec = toeplitz.fourier_coefficients(op, table, N)
    checks.within("toeplitz.fourier_roundtrip",
                  toeplitz.max_block_difference(scaled_symbol(sym, r), rec), 1e-10)
    # the spectral norm bounds every entry from above
    nrm = op.norm()
    checks("toeplitz.norm_bounds_entries",
           nrm >= float(np.max(np.abs(op.matrix))) * (1 - 1e-12), norm=nrm)

    X = inp["X"]
    K = berezin.berezin_kernel(spec, X, table, N)
    checks.within("berezin.kernel_isometry",
                  float(np.linalg.norm(K.conj().T @ K - np.eye(X.dim), 2)), 1e-10)
    got = berezin.berezin_transform(spec, X, op, table)
    want = pluriharmonic.evaluate_symbol(sym, X.matrices, r)
    checks.within("berezin.transform_of_symbol",
                  float(np.linalg.norm(got - want, 2)), 1e-8)

    Xg = inp["Xg"]
    C = cauchy.cauchy_kernel(spec, Xg, N, table)
    checks.within("cauchy.vacuum_column",
                  cauchy.cauchy_kernel_fourier_residual(C, Xg, table), 1e-10)
    worst = 0.0
    for alpha in ncdomains.enumerate_words(spec.n, TRANSFORM_WORD_LEN):
        got = cauchy.cauchy_transform(spec, Xg, fock.word_operator(W, alpha), N, table, C=C)
        worst = max(worst, float(np.linalg.norm(got - Xg.word(alpha), 2)))
    checks.within("cauchy.transform_reproducing", worst, 1e-10)

    srep = pluriharmonic.schur_positivity_test(inp["F"], table, SCHUR_RADII, N - 2, N)
    checks.within("pluriharmonic.gamma_identity", max(srep.equality_residuals), 1e-12)
    return table


def deep_run(inp: dict, checks: Checks) -> dict:
    spec = inp["spec"]
    passes = []
    t0 = time.perf_counter()
    table = None
    for p in inp["passes"]:
        ts = time.perf_counter()
        table = deep_pass(spec, table, p, checks)
        passes.append(time.perf_counter() - ts)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "cold_pass_s": passes[0], "warm_pass_s": passes[1:],
            "peak_rss_mb": peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF))}


# ------------------------------------------------------------- cli_files_n7

def cli_setup(seed: int, work: str) -> dict:
    spec = ncdomains.builtin_corpus()[CLI_SPEC]
    rng = np.random.default_rng(seed)
    sym = full_symbol(rng, spec.n, CLI_AUX)
    X = corpus.random_nilpotent_tuple(rng, spec, dim=CLI_K)
    Xg = corpus.random_gated_tuple(rng, spec, dim=CLI_K, target_radius=0.6)
    serialization.dump_json(serialization.symbol_to_json(sym), os.path.join(work, "sym.json"))
    serialization.dump_json(serialization.tuple_to_json(X), os.path.join(work, "X.json"))
    serialization.dump_json(serialization.tuple_to_json(Xg), os.path.join(work, "Xg.json"))
    common = ["--spec", CLI_SPEC, "--max-len", str(CLI_N)]
    commands = [
        ["weights", *common, "--out", "w.csv"],
        ["model", *common],
        ["toeplitz", *common, "--symbol", "sym.json", "--radius", str(CLI_RADIUS),
         "--out", "op.json"],
        ["toeplitz", *common, "--op", "op.json", "--out", "back.json"],
        ["berezin", *common, "--tuple", "X.json"],
        ["cauchy", *common, "--tuple", "Xg.json"],
    ]
    return {"sym": sym, "work": work, "commands": commands, "trace_dir": None,
            "dims": {"n": spec.n, "N": CLI_N, "D": fock_dimension(spec.n, CLI_N),
                     "aux_dim": CLI_AUX, "k": CLI_K}}


def cli_run(inp: dict, checks: Checks) -> dict:
    work, trace_dir = inp["work"], inp["trace_dir"]
    launcher = os.path.join(HERE, "launch.py")
    per_command = []
    rss = []
    t0 = time.perf_counter()
    for i, argv in enumerate(inp["commands"]):
        env = dict(os.environ)
        if trace_dir:
            env["PERFBENCH_TRACE_OUT"] = os.path.join(trace_dir, f"cmd{i}-{argv[0]}")
        ts = time.perf_counter()
        with open(os.path.join(work, f"cmd{i}.log"), "w") as log:
            proc = subprocess.Popen([sys.executable, launcher, *argv], cwd=work,
                                    env=env, stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        per_command.append(time.perf_counter() - ts)
        rss.append(peak_rss_mb(usage))
        checks(f"exit_code.{i}.{argv[0]}", proc.returncode == 0, code=proc.returncode)
    wall = time.perf_counter() - t0

    rows = None
    if os.path.exists(os.path.join(work, "w.csv")):
        with open(os.path.join(work, "w.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
    checks("weights.csv_rows", rows == inp["dims"]["D"], rows=rows)
    back_path = os.path.join(work, "back.json")
    if os.path.exists(back_path):
        back = serialization.symbol_from_json(serialization.load_json(back_path))
        checks.within("toeplitz.back_equals_scaled_symbol", toeplitz.max_block_difference(
            scaled_symbol(inp["sym"], CLI_RADIUS), back), 1e-10)
    else:
        checks("toeplitz.back_equals_scaled_symbol", False, missing="back.json")
    return {"wall_s": wall, "per_command_s": per_command, "peak_rss_mb": max(rss)}


WORKLOADS = {
    "corpus_n5": (corpus_setup, corpus_run),
    "deep_n8": (deep_setup, deep_run),
    "cli_files_n7": (cli_setup, cli_run),
}


def merge_summaries(trace_dir: str) -> dict:
    """Sum the span summaries the command processes wrote."""
    out = {"functions": {}, "counters": dict.fromkeys(spans.COUNTERS, 0)}
    for name in sorted(os.listdir(trace_dir)):
        if not name.endswith(".summary.json"):
            continue
        with open(os.path.join(trace_dir, name)) as fh:
            part = json.load(fh)
        for fn, agg in part["functions"].items():
            tot = out["functions"].setdefault(fn, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in tot:
                tot[key] += agg[key]
        for key, v in part["counters"].items():
            out["counters"][key] += v
    return out


def main(argv: list[str]) -> int:
    workload, seed, work = argv[0], int(argv[1]), argv[2]
    setup, run = WORKLOADS[workload]
    inp = setup(seed, work)
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s, "dims": inp["dims"], "env": environment()}
    if "--setup-only" not in argv[3:]:
        checks = Checks()
        trace_dir = os.path.join(work, "trace") if "--trace" in argv[3:] else None
        tracer = None
        if trace_dir:
            os.makedirs(trace_dir)
            if workload == "cli_files_n7":
                inp["trace_dir"] = trace_dir  # each command process traces itself
            else:
                tracer = spans.Tracer()
                spans.install(tracer)
        result.update(run(inp, checks))
        result["checks"] = checks.items
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.dump(os.path.join(trace_dir, "spans.json"),
                        {"workload": workload, "seed": seed})
        elif trace_dir:
            result["trace"] = merge_summaries(trace_dir)
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
