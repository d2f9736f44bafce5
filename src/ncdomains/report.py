"""Machine-readable check records and run reports."""
from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field, asdict
from typing import Sequence

import numpy as np

PASS = "pass"
FAIL = "fail"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """Python and numpy versions, the BLAS numpy was built against, and the
    BLAS thread settings, which change run times severalfold."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):      # numpy < 1.25 has no mode="dicts"
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES}}


@dataclass
class CheckRecord:
    check_id: str
    identity: str          # plain-language statement of what is certified
    status: str
    residual: float | None
    tolerance: float | None
    elapsed: float
    detail: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    """The records of one run and the run's clock: each record's elapsed time
    is the time since the report's previous record, or since the report was
    created, so the records tile the run."""
    config: dict
    checks: list[CheckRecord] = field(default_factory=list)

    def __post_init__(self):
        self.started = self._last = time.perf_counter()

    @property
    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.status == FAIL]

    @property
    def passed(self) -> bool:
        return not self.failures

    def elapsed(self) -> float:
        """Seconds since the report was created."""
        return time.perf_counter() - self.started

    def _record(self, check_id: str, identity: str, ok: bool,
                residual: float | None, tolerance: float | None,
                detail: dict | None) -> CheckRecord:
        now = time.perf_counter()
        rec = CheckRecord(check_id, identity, PASS if ok else FAIL, residual,
                          tolerance, now - self._last, detail or {})
        self._last = now
        self.checks.append(rec)
        return rec

    def check(self, check_id: str, identity: str, residuals: float | Sequence[float],
              tolerance: float, detail: dict | None = None) -> CheckRecord:
        """Record the largest of `residuals` (one number or a sequence, one
        entry per case the check covers), and at least 0; it passes when that
        is <= tolerance.  A NaN case makes the residual NaN, so the record
        fails; an empty sequence gives 0.0.  The record's detail adds the
        margin, tolerance - residual (NaN with the residual)."""
        residual = float(np.max(residuals, initial=0.0))
        tolerance = float(tolerance)
        return self._record(check_id, identity, residual <= tolerance, residual, tolerance,
                            {**(detail or {}), "margin": tolerance - residual})

    def flag(self, check_id: str, identity: str, ok: bool,
             detail: dict | None = None) -> CheckRecord:
        return self._record(check_id, identity, ok, None, None, detail)

    def to_json(self) -> dict:
        """The config, the records, and a summary with each suite's elapsed
        total and, for check ids suite.check.spec (verify.full_suite's
        labels), each spec's per-suite totals."""
        suite_elapsed: dict[str, float] = {}
        spec_elapsed: dict[str, dict[str, float]] = {}
        for c in self.checks:
            suite, _, rest = c.check_id.partition(".")
            suite_elapsed[suite] = suite_elapsed.get(suite, 0.0) + c.elapsed
            spec = rest.partition(".")[2]
            if spec:
                spans = spec_elapsed.setdefault(spec, {})
                spans[suite] = spans.get(suite, 0.0) + c.elapsed
        return {
            "config": {**self.config, "environment": environment()},
            "summary": {
                "total": len(self.checks),
                "pass": sum(c.status == PASS for c in self.checks),
                "fail": len(self.failures),
                "elapsed": suite_elapsed,
                "elapsed_by_spec": spec_elapsed,
            },
            "checks": [asdict(c) for c in self.checks],
        }
