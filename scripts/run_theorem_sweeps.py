#!/usr/bin/env python3
"""Run the full theorem suite over the desk-scale groups and write a report.

Usage: python scripts/run_theorem_sweeps.py [out.json]
"""

import sys

from coxex import make_config, parse_descriptor, run_suite
from coxex.descriptors import CoxeterDescriptor

GROUPS = ["A3", "A4", "B3", "B4", "D4", "D5", "H3", "H4", "F4",
          "I2(5)", "I2(6)", "I2(7)", "I2(8)"]
PRODUCTS = [(CoxeterDescriptor("A", 2), CoxeterDescriptor("A", 1)),
            (CoxeterDescriptor("A", 1), CoxeterDescriptor("A", 1),
             CoxeterDescriptor("A", 1))]


def main(argv) -> int:
    if len(argv) > 1 or argv and argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    out = argv[0] if argv else None
    descriptors = [parse_descriptor(tok) for tok in GROUPS] + PRODUCTS
    config = make_config(descriptors)
    result = run_suite(config)
    text = result.to_json()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    for check in result.checks:
        marker = {"pass": ".", "fail": "F", "skip": "s"}[check.status]
        print(f"{marker} {check.descriptor:10s} {check.theorem} "
              f"({check.passes} ok, {check.failures} bad)", file=sys.stderr)
    print(f"failures_total={result.failures_total} "
          f"wall_clock={result.wall_clock_s:.1f}s", file=sys.stderr)
    return 1 if result.failures_total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
