#!/usr/bin/env python3
"""Show the exponential growth of the violation ratio along linear chains.

For chains past the exact-search cap the chain bound (a minimum over
bridge partitions into exactly-solved pieces) certifies an upper bound on
the normalized classical value d, i.e. a lower bound on the violation ratio
1/d achieved by the chain's graph state.
"""

import argparse
from fractions import Fraction

from graphbell import chain_bound


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-length", type=int, default=60)
    parser.add_argument("--step", type=int, default=5)
    args = parser.parse_args()
    if args.step < 1:
        parser.error(f"--step must be at least 1, got {args.step}")

    print(f"{'length':>6s}  {'bound on d':>14s}  {'1/d at least':>14s}")
    for length in range(5, args.max_length + 1, args.step):
        bound = chain_bound(length)
        ratio = Fraction(1) / bound
        print(f"{length:6d}  {str(bound):>14s}  {float(ratio):14.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
