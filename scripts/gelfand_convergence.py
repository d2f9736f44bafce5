#!/usr/bin/env python3
"""Convergence of ||Phi^k(I)||^(1/2k) toward the linearized joint spectral
radius for seeded random tuples.

The linearized value (eigenvalues of the k^2 x k^2 matrix of the CP map) is
exact; the Gelfand sequence converges slowly and is reported per k.
"""
import argparse

import numpy as np

from ncdomains.berezin import OperatorTuple
from ncdomains.cauchy import joint_spectral_radius
from ncdomains.cli import nonnegative_int, positive_int, resolve_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", default="hyperball_n2_m2")
    ap.add_argument("--dim", type=positive_int, default=4)
    ap.add_argument("--tuples", type=positive_int, default=3)
    ap.add_argument("--k-max", type=positive_int, default=40)
    ap.add_argument("--seed", type=nonnegative_int, default=0)
    args = ap.parse_args()

    spec = resolve_spec(args.spec)
    rng = np.random.default_rng(args.seed)
    for t in range(args.tuples):
        mats = [0.25 * (rng.standard_normal((args.dim, args.dim))
                        + 1j * rng.standard_normal((args.dim, args.dim)))
                for _ in range(spec.n)]
        X = OperatorTuple(spec, mats)
        report = joint_spectral_radius(spec, X, k_max=args.k_max)
        print(f"tuple {t}: exact r = {report.r_exact:.6f}")
        for k in sorted({1, 2, 5, 10, 20, args.k_max}):
            if k <= len(report.r_sequence):
                v = report.r_sequence[k - 1]
                print(f"  k={k:3d}: {v:.6f}  (gap {v - report.r_exact:+.2e})")


if __name__ == "__main__":
    main()
