"""Span tracer for the benchmark's traced runs.

Every listed function is wrapped by rebinding each module attribute (and, for
methods, the class attribute) that refers to the original function object,
so calls made inside the package are caught too, including calls through
imports done at call time.  Spans (name, parent, start, end) stay in memory
and are written out once, when the traced process ends.

``words.compare_right`` gets a counter only, no span: it is called once per
index pair in the Toeplitz and Gamma-kernel scans, and the counter measures
how many of those pairs are comparable (useful) at all.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer (module) -> functions recorded with calls and self time
LISTED: dict[str, tuple[str, ...]] = {
    "weights": ("weights_by_factorization", "weights_by_convolution",
                "ratio_bound_check"),
    "fock": ("creation_tuple", "word_operator", "cp_map_apply",
             "verify_model_identities", "weighted_space_conjugation",
             "TruncatedOperator.norm"),
    "toeplitz": ("symbol_to_operator", "is_multi_toeplitz",
                 "fourier_coefficients", "norm_profile"),
    "berezin": ("domain_membership", "berezin_kernel", "berezin_transform",
                "intertwining_residual", "hereditary_model_operator",
                "mean_value_check"),
    "cauchy": ("joint_spectral_radius", "reconstruction_operator",
               "cauchy_kernel", "cauchy_transform",
               "analytic_functional_calculus", "radius_inequality_check"),
    "pluriharmonic": ("gamma_kernel", "schur_positivity_test", "distance",
                      "weierstrass_limit"),
    "serialization": ("load_json", "dump_json", "operator_to_json",
                      "operator_from_json", "symbol_from_json",
                      "tuple_from_json"),
    "verify": ("weights_suite", "model_suite", "toeplitz_suite",
               "berezin_suite", "pluriharmonic_suite", "cauchy_suite"),
    "cli": ("main",),
}

# functions that call other listed ones; they also get a total (inclusive) time
CALLERS = frozenset({
    "fock.verify_model_identities", "fock.weighted_space_conjugation",
    "toeplitz.symbol_to_operator", "toeplitz.norm_profile",
    "berezin.berezin_transform", "berezin.intertwining_residual",
    "berezin.mean_value_check",
    "cauchy.reconstruction_operator", "cauchy.cauchy_kernel",
    "cauchy.cauchy_transform", "cauchy.analytic_functional_calculus",
    "cauchy.radius_inequality_check",
    "pluriharmonic.schur_positivity_test", "pluriharmonic.distance",
    "pluriharmonic.weierstrass_limit",
    "verify.weights_suite", "verify.model_suite", "verify.toeplitz_suite",
    "verify.berezin_suite", "verify.pluriharmonic_suite",
    "verify.cauchy_suite",
})

# `cli.main` is recorded per subcommand; these are the ones the workloads run
CLI_COMMANDS = ("verify-all", "weights", "model", "toeplitz", "berezin",
                "cauchy")

COUNTERS = ("words.compare_right.calls", "words.compare_right.comparable")


def span_names() -> list[str]:
    names = []
    for mod, funcs in LISTED.items():
        for fn in funcs:
            if (mod, fn) == ("cli", "main"):
                names += [f"cli.main.{c}" for c in CLI_COMMANDS]
            else:
                names.append(f"{mod}.{fn}")
    return names


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# call counts fixed by the command sequence of a workload are not reported
_FIXED_CALLS = ("serialization.", "verify.", "cli.")


def per_layer_metrics() -> list[dict]:
    """The per-layer metrics of a traced run, as BENCHMARK.json lists them."""
    out = []
    for name in span_names():
        if not name.startswith(_FIXED_CALLS):
            out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
        if name in CALLERS or name.startswith("cli."):
            out.append({"name": f"{name}.total_s", "unit": "s", "better": "lower"})
    out += [{"name": f"{layer}.self_share", "unit": "fraction", "better": "lower"}
            for layer in LISTED]
    out += [
        {"name": "words.compare_right.calls", "unit": "count", "better": "lower"},
        {"name": "words.compare_right.comparable_frac", "unit": "fraction",
         "better": "higher"},
        {"name": "trace_overhead_s", "unit": "s", "better": "lower"},
    ]
    return out


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        # [name, parent index, start, end, outermost call of this name]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name: str, fn, label=None):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = label(args, kwargs) if label else name
            depth = active.get(span_name, 0)
            active[span_name] = depth + 1
            rec = [span_name, stack[-1] if stack else -1, clock(), 0.0, depth == 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                active[span_name] = depth

        return wrapper

    def count_comparisons(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(omega, gamma):
            res = fn(omega, gamma)
            counters["words.compare_right.calls"] += 1
            if res.relation != "incomparable":
                counters["words.compare_right.comparable"] += 1
            return res

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, self time and total (outermost) time."""
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for name in span_names()}
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, _, start, end, outermost) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child_time[i]
            if outermost:
                agg["total_s"] += end - start
        return {"functions": out, "counters": dict(self.counters)}

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "parent", "start", "end"],
                       "spans": [s[:4] for s in self.spans]}, fh)


def _cli_label(args, kwargs) -> str:
    argv = kwargs.get("argv", args[0] if args else None)
    if argv is None:
        argv = sys.argv[1:]
    return f"cli.main.{argv[0]}" if argv else "cli.main"


def _rebind(original, wrapper) -> None:
    """Point every ncdomains module attribute bound to `original` at `wrapper`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ncdomains" or mod_name.startswith("ncdomains.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every listed function at every ncdomains site that binds it."""
    originals = []
    for mod_name in ("words", *LISTED):
        importlib.import_module(f"ncdomains.{mod_name}")
    for mod_name, funcs in LISTED.items():
        mod = sys.modules[f"ncdomains.{mod_name}"]
        for qual in funcs:
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                setattr(cls, meth, tracer.wrap(name, fn))
            else:
                fn = getattr(mod, qual)
                label = _cli_label if name == "cli.main" else None
                _rebind(fn, tracer.wrap(name, fn, label))
            originals.append((name, fn))
    fn = sys.modules["ncdomains.words"].compare_right
    _rebind(fn, tracer.count_comparisons(fn))
    originals.append(("words.compare_right", fn))
    _require_no_unwrapped(originals)


def _require_no_unwrapped(originals) -> None:
    """Fail when any loaded module still holds an unwrapped listed function:
    its calls would go unrecorded."""
    missed = []
    for name, fn in originals:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None:
                continue
            try:
                items = list(vars(mod).items())
            except TypeError:
                continue
            missed += [f"{name} via {mod_name}.{attr}"
                       for attr, value in items if value is fn]
    if missed:
        raise RuntimeError("unwrapped import sites: " + ", ".join(missed))
