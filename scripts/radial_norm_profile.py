#!/usr/bin/env python3
"""Radial norm profiles ||phi(r W_N)|| for seeded random symbols.

The profile must be nondecreasing in r; the script prints it on a grid and
flags any violation (none expected).
"""
import argparse

import numpy as np

from ncdomains.cli import nonnegative_int, positive_int, resolve_spec
from ncdomains.corpus import random_symbol
from ncdomains.toeplitz import norm_profile
from ncdomains.weights import weights_by_factorization


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", default="hyperball_n2_m2")
    ap.add_argument("--max-len", type=positive_int, default=4)
    ap.add_argument("--symbols", type=positive_int, default=5)
    ap.add_argument("--seed", type=nonnegative_int, default=0)
    ap.add_argument("--aux-dim", type=positive_int, default=1,
                    help="coefficient dimension of the symbols (default 1)")
    args = ap.parse_args()

    spec = resolve_spec(args.spec)
    table = weights_by_factorization(spec, args.max_len)
    rng = np.random.default_rng(args.seed)
    radii = [k / 10 for k in range(1, 11)]
    print("r:      " + "  ".join(f"{r:6.2f}" for r in radii))
    for s in range(args.symbols):
        sym = random_symbol(rng, spec.n, max_len=min(2, args.max_len - 1),
                            aux_dim=args.aux_dim)
        norms, violations = norm_profile(sym, table, radii, args.max_len)
        line = "  ".join(f"{v:6.3f}" for v in norms)
        flag = "  MONOTONICITY VIOLATION" if violations else ""
        print(f"sym {s}:  {line}{flag}")


if __name__ == "__main__":
    main()
