#!/usr/bin/env python3
"""Print the cyclic N-roots system in the input format.

    python3 scripts/cyclic.py 5 > cyclic5.sys

Equation k < N is the sum over i of x_i x_{i+1} ... x_{i+k-1}, indices
taken cyclically; the last equation is x_1 x_2 ... x_N - 1.
"""

import argparse


def cyclic(n: int) -> str:
    names = [f"x{i + 1}" for i in range(n)]
    lines = [f"# Cyclic {n}-roots system.", str(n), "*"]
    for k in range(1, n):
        terms = ["*".join(names[(i + j) % n] for j in range(k)) for i in range(n)]
        lines.append(" + ".join(terms) + ";")
    lines.append("*".join(names) + " - 1;")
    return "\n".join(lines) + "\n"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("n", type=int, help="number of variables")
    args = ap.parse_args()
    if args.n < 1:
        ap.error("n must be positive")
    print(cyclic(args.n), end="")


if __name__ == "__main__":
    main()
