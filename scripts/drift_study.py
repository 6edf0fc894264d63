#!/usr/bin/env python3
"""Drift of the reduced word length across a batch of seeded walks.

Runs walks with class tracking off, so each walk is pure integer
cancellation bookkeeping and thousands of steps cost nothing.
The final drift estimates are compared with the prediction for uniform
letters over r generators and their inverses: a fresh letter cancels
the top of the stack with probability 1/(2r), so the reduced length
grows at rate (r-1)/r letters per step and the degree of the composite
at ((r-1)/r) log 2 per step.
"""

import argparse
import csv
import math
import random
import statistics
import sys

from birwalk.maps import sample_generators
from birwalk.walk import run_walk


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--generators", type=int, default=2,
                    help="number of generators r (default 2)")
    ap.add_argument("--height", type=int, default=5,
                    help="max |entry| of the conjugating matrices (default 5)")
    ap.add_argument("--sample-seed", type=int, default=1,
                    help="seed for drawing the generator tuple (default 1)")
    ap.add_argument("--walks", type=int, default=10,
                    help="number of independent walks (default 10)")
    ap.add_argument("--steps", type=int, default=2000,
                    help="steps per walk (default 2000)")
    ap.add_argument("--first-seed", type=int, default=1,
                    help="walk seeds are first-seed, first-seed+1, ... (default 1)")
    ap.add_argument("--csv", help="optional path for the per-walk table")
    args = ap.parse_args(argv)

    gens = sample_generators(args.generators, args.height,
                             random.Random(args.sample_seed))
    predicted = (args.generators - 1) / args.generators * math.log(2.0)

    rows = []
    for k in range(args.walks):
        seed = args.first_seed + k
        report = run_walk(gens, args.steps, seed=seed, track_classes=False)
        drift = report.rows[-1].drift_estimate
        rows.append((seed, report.final_reduced_len, drift))
        print(f"seed {seed:6d}  reduced length {report.final_reduced_len:6d}  "
              f"drift {drift:.6f}")

    drifts = [d for _s, _l, d in rows]
    mean = statistics.fmean(drifts)
    spread = statistics.stdev(drifts) if len(drifts) > 1 else 0.0
    print(f"\nwalks {args.walks}  steps {args.steps}  generators {args.generators}")
    print(f"mean drift      {mean:.6f}")
    print(f"stdev           {spread:.6f}")
    print(f"predicted       {predicted:.6f}")
    print(f"relative error  {abs(mean - predicted) / predicted:.4%}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("seed", "final_reduced_len", "drift_estimate"))
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
