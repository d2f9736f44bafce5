"""A check's residual is one fold over its cases: the largest, at least 0,
and NaN when any case is NaN, so that a NaN case fails the record; its
margin is tolerance - residual."""
import math

import numpy as np
import pytest

from ncdomains import verify
from ncdomains.corpus import builtin_corpus, random_spec
from ncdomains.report import FAIL, PASS, VerificationReport
from ncdomains.weights import hyperball_spec


@pytest.mark.parametrize("residuals, status, residual", [
    ([1e-12, np.nan, 0.0], FAIL, math.nan),
    ([], PASS, 0.0),
    ([-0.5], PASS, 0.0),
    (3e-11, PASS, 3e-11),
    (2e-10, FAIL, 2e-10),
])
def test_check_folds_residuals(residuals, status, residual):
    rec = VerificationReport({}).check("suite.case", "identity", residuals, 1e-10,
                                       {"seed": 3})
    assert rec.status == status
    assert type(rec.residual) is float
    np.testing.assert_equal(rec.residual, residual)
    np.testing.assert_equal(rec.detail, {"seed": 3, "margin": 1e-10 - residual})


def _statuses(source=None, monkeypatch=None) -> dict[str, tuple[str, float]]:
    """Status and residual of every record of the full suite on mixed_n2_m1
    at depth 4; with `source`, that residual source of verify returns NaN on
    its second call."""
    if source is not None:
        real = getattr(verify, source)
        calls = []

        def nan_on_second_call(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(source)
            if len(calls) != 2:
                return out
            return (out[0], math.nan) if isinstance(out, tuple) else math.nan

        monkeypatch.setattr(verify, source, nan_on_second_call)
    report = VerificationReport({})
    verify.full_suite(builtin_corpus()["mixed_n2_m1"], 4, report)
    return {c.check_id: (c.status, c.residual) for c in report.checks}


@pytest.fixture(scope="module")
def clean_statuses():
    return _statuses()


@pytest.mark.parametrize("source, check_id", [
    ("max_block_difference", "toeplitz.roundtrip"),
    ("intertwining_residual", "berezin.intertwining"),
    ("mean_value_check", "berezin.mean_value"),
    ("distance", "pluriharmonic.metric_axioms"),
    ("cauchy_kernel_fourier_residual", "cauchy.kernel_fourier"),
])
def test_nan_case_fails_its_record(monkeypatch, clean_statuses, source, check_id):
    got = _statuses(source, monkeypatch)
    assert list(got) == list(clean_statuses)
    status, residual = got.pop(check_id)
    assert status == FAIL and math.isnan(residual)
    assert clean_statuses[check_id][0] == PASS
    assert {k: s for k, (s, _) in got.items()} == {
        k: s for k, (s, _) in clean_statuses.items() if k != check_id}


def test_radius_record_carries_smallest_margin(monkeypatch):
    """cauchy.radius_inequality records the smallest margin
    ||Phi^k(I)||^(1/2) - ||R_N^k|| over its tuples and powers."""
    margins = []
    real = verify.radius_inequality_check

    def spy(*args):
        out = real(*args)
        margins.extend(out.margins)
        return out

    monkeypatch.setattr(verify, "radius_inequality_check", spy)
    report = VerificationReport({})
    verify.cauchy_suite(verify.build_table(builtin_corpus()["mixed_n2_m2"], 4), report,
                        n_tuples=3)
    rec = next(c for c in report.checks if c.check_id == "cauchy.radius_inequality")
    assert len(margins) == 12
    assert rec.status == PASS and rec.detail == {"min_margin": min(margins)}
    assert min(margins) > 0


@pytest.mark.parametrize("spec", [
    hyperball_spec(3, 2),
    hyperball_spec(4, 1),
    random_spec(np.random.default_rng(83), 2, 2),
    random_spec(np.random.default_rng(89), 3, 2),
], ids=["hyperball_n3_m2", "hyperball_n4_m1", "random_n2_m2", "random_n3_m2"])
def test_full_suite_off_corpus(spec):
    """Every suite passes at N = 3 on specs outside the builtin corpus, whose
    specs have at most two letters and unit linear coefficients."""
    report = VerificationReport({})
    verify.full_suite(spec, 3, report)
    assert report.checks and report.passed, [c.check_id for c in report.failures]


def test_elapsed_by_spec_splits_each_suite():
    """summary.elapsed_by_spec gives each labelled spec's elapsed total per
    suite, and per suite the specs' totals sum to summary.elapsed."""
    report = VerificationReport({})
    corpus = builtin_corpus()
    for name in ("hyperball_n1_m1", "mixed_n2_m1"):
        verify.full_suite(corpus[name], 2, report, label=f".{name}")
    summary = report.to_json()["summary"]
    by_spec = summary["elapsed_by_spec"]
    assert list(by_spec) == ["hyperball_n1_m1", "mixed_n2_m1"]
    for name, spans in by_spec.items():
        assert list(spans) == list(summary["elapsed"])
        assert spans == {suite: pytest.approx(sum(
            c.elapsed for c in report.checks if c.check_id.startswith(f"{suite}.")
            and c.check_id.endswith(f".{name}")), rel=1e-12) for suite in spans}
    for suite, total in summary["elapsed"].items():
        assert sum(spans[suite] for spans in by_spec.values()) == pytest.approx(total,
                                                                              rel=1e-12)
