"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from ./src,
nothing is installed.  Each iteration runs in a fresh worker process
(perfbench/worker.py), so every iteration pays the package imports and starts
cold.  Iterations repeat, with the same seeded inputs, while the next one is
expected to end within T seconds; at least one runs.  With --trace 0,
set-up-only processes run between the iterations and fill the rest of the T
seconds, at least SETUP_SAMPLES of them; their time counts in the T seconds.

With --trace 0 the last line of standard output reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 untraced and traced iterations
alternate, and it reports the per-layer metrics of the traced ones plus the
tracing overhead.  The line before it carries the environment and the
workload's dimensions.  The full result, and with --trace 1 the recorded
spans, are kept under .bench_work/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402

WORKLOADS = ("corpus_n5", "deep_n8", "cli_files_n7")
SETUP_SAMPLES = 16  # set-up-only processes per untraced run, at least
SETUP_BATCH = 8     # of them run after each iteration until there are enough
DEADLINE_S = 170.0  # the whole run must end within 180 s


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def child_env() -> dict:
    """One generating process at a time, BLAS threads capped at nproc."""
    env = dict(os.environ)
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(env.get(var, cap))
        except ValueError:
            want = cap
        env[var] = str(max(1, min(want, cap)))
    env.pop("PERFBENCH_TRACE_OUT", None)
    return env


def run_worker(workload: str, seed: int, work: str, deadline: float,
               traced: bool = False, setup_only: bool = False) -> dict:
    os.makedirs(work)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), work]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} iteration did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{out}")
    with open(os.path.join(work, "result.json")) as fh:
        res = json.load(fh)
    res["iteration_s"] = time.perf_counter() - t0
    return res


def keep_trace(work: str, dest: str) -> None:
    src = os.path.join(work, "trace")
    if os.path.isdir(src):
        shutil.move(src, dest)


def e2e_metrics(untraced: list[dict], setups: list[float]) -> dict:
    checks = [c for it in untraced for c in it["checks"]]
    attempted = len(checks)
    passed = sum(c["ok"] for c in checks)
    return {
        "setup_s": median(setups),
        "wall_s": median([it["wall_s"] for it in untraced]),
        "peak_rss_mb": median([it["peak_rss_mb"] for it in untraced]),
        "pass_frac": passed / attempted,
    }


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over traced iterations of each per-layer value."""
    wanted = {m["name"] for m in spans.per_layer_metrics()}
    per_it = []
    for it in traced:
        funcs = it["trace"]["functions"]
        vals = {}
        for name in spans.span_names():
            agg = funcs.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in ("calls", "self_s", "total_s"):
                if f"{name}.{key}" in wanted:
                    vals[f"{name}.{key}"] = agg[key]
        for layer in spans.LISTED:
            own = sum(v["self_s"] for k, v in funcs.items() if spans.layer_of(k) == layer)
            vals[f"{layer}.self_share"] = own / it["wall_s"]
        cnt = it["trace"]["counters"]
        calls = cnt["words.compare_right.calls"]
        vals["words.compare_right.calls"] = calls
        vals["words.compare_right.comparable_frac"] = (
            cnt["words.compare_right.comparable"] / calls if calls else 0.0)
        per_it.append(vals)
    out = {k: median([v[k] for v in per_it]) for k in per_it[0]}
    out["trace_overhead_s"] = (median([it["wall_s"] for it in traced])
                               - median([it["wall_s"] for it in untraced]))
    return out


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared_metrics(trace: bool) -> dict[str, str]:
    bench = load_benchmark()
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "ncdomains", "__init__.py")):
        raise BenchError(f"no package source at {ROOT}/src/ncdomains")
    declared = declared_metrics(trace)
    deadline = time.monotonic() + DEADLINE_S
    base = os.path.join(ROOT, ".bench_work")
    work = os.path.join(base, f"{workload}-{os.getpid()}")
    trace_dest = os.path.join(base, "traces", f"{workload}-seed{seed}")
    if trace:
        shutil.rmtree(trace_dest, ignore_errors=True)
        os.makedirs(trace_dest)
    untraced, traced, setups, setup_walls = [], [], [], []

    def sample_setup() -> None:
        res = run_worker(workload, seed, os.path.join(work, f"setup{len(setup_walls)}"),
                         deadline, setup_only=True)
        setups.append(res["setup_s"])
        setup_walls.append(res["iteration_s"])

    try:
        t0 = time.monotonic()
        while True:
            as_traced = trace and len(traced) < len(untraced)
            it_dir = os.path.join(work, f"it{len(untraced) + len(traced)}")
            res = run_worker(workload, seed, it_dir, deadline, traced=as_traced)
            setups.append(res["setup_s"])
            (traced if as_traced else untraced).append(res)
            if as_traced:
                keep_trace(it_dir, os.path.join(trace_dest, f"it{len(traced) - 1}"))
            owed = 0.0
            if not trace:
                for _ in range(min(SETUP_BATCH, SETUP_SAMPLES - len(setup_walls))):
                    sample_setup()
                owed = (SETUP_SAMPLES - len(setup_walls)) * median(setup_walls)
            done = untraced and (traced or not trace)
            est = median([r["iteration_s"] for r in untraced + traced])
            if done and time.monotonic() - t0 + est + owed > seconds:
                break
        # the set-up samples still owed, then as many more as fit in the T seconds
        while not trace and (len(setup_walls) < SETUP_SAMPLES or
                             time.monotonic() - t0 + median(setup_walls) <= seconds):
            sample_setup()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    iterations = untraced + traced
    checks = [c for it in iterations for c in it["checks"]]
    failed = [c for c in checks if not c["ok"]]
    values = layer_metrics(traced, untraced) if trace else e2e_metrics(untraced, setups)
    if set(values) != set(declared):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(declared))}")
    first = iterations[0]
    context = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "numpy": first["env"]["numpy"],
        "blas": first["env"]["blas"], "blas_threads": first["env"]["threads"],
        "nproc": nproc(), "git_commit": git_commit(), "dims": first["dims"],
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples": len(setups),
    }
    if workload == "deep_n8":
        context["cold_pass_s"] = median([it["cold_pass_s"] for it in untraced])
        context["warm_pass_s"] = median([w for it in untraced for w in it["warm_pass_s"]])
    if workload == "cli_files_n7":
        per_cmd = list(zip(*[it["per_command_s"] for it in untraced]))
        context["per_command_s"] = [median(c) for c in per_cmd]
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": declared[k]} for k in declared},
    }
    record = {"context": context, "result": result, "failed_checks": failed[:20],
              "samples": {"setup_s": setups,
                          "wall_s": [it["wall_s"] for it in untraced],
                          "traced_wall_s": [it["wall_s"] for it in traced]}}
    if trace:
        record["traces"] = [it["trace"] for it in traced]
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    with open(os.path.join(base, "results",
                           f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"context": context}))
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
