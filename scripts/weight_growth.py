#!/usr/bin/env python3
"""Print the per-letter growth ratios b_{g_i alpha} / b_alpha level by level.

Bounded ratios are the hypothesis behind the absence of nonzero compact
weighted right multi-Toeplitz operators; this experiment shows the trend on
any builtin or user-supplied domain spec.
"""
import argparse
from dataclasses import dataclass
from fractions import Fraction

from ncdomains.cli import resolve_spec
from ncdomains.weights import WeightTable, weights_by_factorization
from ncdomains.words import enumerate_words


@dataclass
class CompactnessRatioReport:
    """Per-letter max of b_{g_i alpha} / b_alpha plus the deepest-level trend.

    Bounded ratios are the hypothesis under which no nonzero compact weighted
    right multi-Toeplitz operator exists; a finite table can only exhibit
    evidence, so the last two level maxima are reported as a trend.
    """

    max_ratio: dict[int, Fraction]
    level_max: dict[int, list[Fraction]]  # per letter, max ratio at each |alpha|

    def trend(self, letter: int) -> tuple[Fraction, Fraction] | None:
        levels = self.level_max[letter]
        if len(levels) < 2:
            return None
        return levels[-2], levels[-1]


def compactness_ratio_test(table: WeightTable) -> CompactnessRatioReport:
    n = table.spec.n
    max_ratio: dict[int, Fraction] = {}
    level_max: dict[int, list[Fraction]] = {}
    for i in range(1, n + 1):
        levels: list[Fraction] = []
        for k in range(table.N):
            best = Fraction(0)
            for alpha in enumerate_words(n, k):
                if len(alpha) != k:
                    continue
                ratio = table.b[(i,) + alpha] / table.b[alpha]
                if ratio > best:
                    best = ratio
            levels.append(best)
        level_max[i] = levels
        max_ratio[i] = max(levels) if levels else Fraction(0)
    return CompactnessRatioReport(max_ratio, level_max)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", default="hyperball_n2_m2")
    ap.add_argument("--max-len", type=int, default=6)
    args = ap.parse_args()

    spec = resolve_spec(args.spec)
    table = weights_by_factorization(spec, args.max_len)
    report = compactness_ratio_test(table)
    print(f"spec: {args.spec}  (n={spec.n}, m={spec.m}), depth {args.max_len}")
    for i in range(1, spec.n + 1):
        levels = ", ".join(f"{float(v):.4f}" for v in report.level_max[i])
        print(f"letter {i}: max ratio {float(report.max_ratio[i]):.4f}; "
              f"per-level maxima [{levels}]")


if __name__ == "__main__":
    main()
