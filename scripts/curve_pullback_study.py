#!/usr/bin/env python3
"""Distance series of pulled-back curve classes along itinerary prefixes.

For each seed the script draws an itinerary, takes the exact class of
the curve's strict transform under every prefix from the walk's own
classes, truncates and normalizes it, and prints its coefficient
distance to the boundary approximant at the reference horizon
``--max-len`` together with the squared-multiplicity bound of the
strict transform.  The closed form column is sqrt(4^-l - 4^-L), with l
the row's reduced length (the first column is its prefix length) and L
the reduced length of the whole itinerary.  On a cancellation-free
itinerary the distance column of a generic curve follows it on the
nose, so the printed series is also a quick visual check of full
genericity.  A seed whose series passes the degree cap prints the
prefix, the degree and the cap, and the script goes on.  A series that
ends at the first prefix contracting the whole curve is printed with a
note naming that prefix.
"""

import argparse
import math
import random
import sys

from birwalk.curves import PlaneCurve, equidist_diagnostic, write_equidist_csv
from birwalk.errors import DegenerateConfiguration, DegreeCapExceeded
from birwalk.maps import sample_generators
from birwalk.walk import random_itinerary, reduced_middle_length


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--generators", type=int, default=2)
    ap.add_argument("--height", type=int, default=5)
    ap.add_argument("--sample-seed", type=int, default=1)
    ap.add_argument("--curve", default="x + y + z",
                    help="defining form of the curve (default a generic line)")
    ap.add_argument("--max-len", type=int, default=6,
                    help="deepest prefix length (default 6)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[2, 4, 7, 11, 13],
                    help="itinerary seeds (defaults are cancellation free "
                         "for the default tuple)")
    ap.add_argument("--csv-prefix",
                    help="write one CSV per seed to PREFIX_seedNN.csv")
    args = ap.parse_args(argv)

    gens = sample_generators(args.generators, args.height,
                             random.Random(args.sample_seed))
    curve = PlaneCurve.parse(args.curve)

    for seed in args.seeds:
        itinerary = random_itinerary(args.generators, args.max_len,
                                     random.Random(seed))
        try:
            rows = equidist_diagnostic(gens, itinerary, curve,
                                       max_len=args.max_len)
        except (DegenerateConfiguration, DegreeCapExceeded) as exc:
            print(f"seed {seed}: {exc}")
            continue
        print(f"seed {seed}  curve {curve}  "
              f"itinerary {' '.join(f'{i}{(chr(43), chr(45))[s < 0]}' for i, s in itinerary)}")
        print("  l  deg  distance       closed form    step residue   mult bound")
        horizon = reduced_middle_length(itinerary, 0, args.max_len)
        for r in rows:
            closed = math.sqrt(max(4.0 ** -r.reduced_len - 4.0 ** -horizon, 0.0))
            print(f"  {r.prefix_len}  {r.strict_degree:3d}  "
                  f"{r.distance:.6e}  {closed:.6e}  "
                  f"{r.distance_step:.3e}  {r.bound_lhs} <= {r.bound_rhs}")
        if len(rows) < args.max_len + 1:
            print(f"  contracted at prefix length {len(rows)}; partial series")
        if args.csv_prefix:
            path = f"{args.csv_prefix}_seed{seed:02d}.csv"
            write_equidist_csv(rows, path)
            print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
