"""Run every workload untraced and traced, and print all their metrics.

    python3 perfbench/summary.py [--seed S]

Every run measures for the run_seconds of BENCHMARK.json.  Prints each
workload's end-to-end metrics by name with their units, then a table of the
per-layer metrics of the traced runs with the tracing overhead of each
workload.  Exits 1 when a run fails, an output check fails, or a
listed function has zero calls on every workload (a missed import site).
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
from run import WORKLOADS, load_benchmark  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    seconds = load_benchmark()["run_seconds"]

    ok = True
    layers: dict[str, dict] = {}
    calls: dict[str, int] = {name: 0 for name in spans.span_names()}
    for wl in WORKLOADS:
        ctx, res = run_one(wl, args.seed, seconds, 0)
        print(f"== {wl}  seed={args.seed}  dims={json.dumps(ctx['dims'])}")
        print(f"   python {ctx['python']}, numpy {ctx['numpy']}, blas {ctx['blas']}, "
              f"threads {ctx['blas_threads']}, nproc {ctx['nproc']}, commit {ctx['git_commit']}")
        for name, m in res["metrics"].items():
            print(f"   {name:14s} {fmt(m['value']):>12s} {m['unit']}")
        for key in ("cold_pass_s", "warm_pass_s"):
            if key in ctx:
                print(f"   {key:14s} {fmt(ctx[key]):>12s} s (not a gated metric)")
        print(f"   checks: {res['attempted']} attempted, {res['failed']} failed")
        ok &= res["correct"]
        _, tres = run_one(wl, args.seed, seconds, 1)
        ok &= tres["correct"]
        layers[wl] = tres["metrics"]
        with open(os.path.join(ROOT, ".bench_work", "results",
                               f"{wl}-seed{args.seed}-trace1.json")) as fh:
            first = json.load(fh)["traces"][0]["functions"]
        for name in calls:
            calls[name] += first.get(name, {}).get("calls", 0)

    print("\n== per-layer metrics (traced runs)")
    print(f"   {'metric':48s}" + "".join(f"{wl:>14s}" for wl in WORKLOADS))
    for m in spans.per_layer_metrics():
        row = "".join(f"{fmt(layers[wl][m['name']]['value']):>14s}" for wl in WORKLOADS)
        print(f"   {m['name']:48s}{row}  {m['unit']}")
    never = [name for name, n in calls.items() if n == 0]
    if never:
        print(f"error: listed functions with zero calls on every workload: {never}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
