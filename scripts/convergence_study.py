#!/usr/bin/env python3
"""Convergence of the normalized pullback classes toward a boundary class.

For each seed the walk records, at every checkpoint, the coefficient
distance between consecutive normalized classes.  A geometric fit to
that increment series estimates the contraction rate per step; the
script prints the per-seed rate together with how much the increments
shrink over five checkpoints, and then pairs the final classes of the
first two walks over one shared registry to show their limits are
distinct (the coincidence controls are each walk's own normalized
self-pairing 4^-length).  The walks are exact at every depth: their
chains hop on residues and build no integers, and past the build budget
a walk would abort rather than merge points.  At the default 600 steps
they reach reduced length about 300, in under a second each.
"""

import argparse
import random
import sys

from birwalk.maps import sample_generators
from birwalk.picard import PointRegistry
from birwalk.walk import (
    boundary_compare,
    fit_geometric_rate,
    run_walk,
    transversality_ratio_series,
)


def _show(value):
    # a control past reduced length 537 is below the least float
    return "below 2^-1074" if value is None else f"{value:.6e}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--generators", type=int, default=2)
    ap.add_argument("--height", type=int, default=5)
    ap.add_argument("--sample-seed", type=int, default=1)
    ap.add_argument("--walks", type=int, default=10)
    ap.add_argument("--steps", type=int, default=600)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    gens = sample_generators(args.generators, args.height,
                             random.Random(args.sample_seed))

    print("per-seed geometric fit of the checkpoint increment series")
    for k in range(args.walks):
        seed = args.first_seed + k
        report = run_walk(gens, args.steps, seed=seed, checkpoint_every=1)
        if report.aborted is not None:
            print(f"seed {seed:6d}  aborted at step {report.aborted_at}: "
                  f"{report.aborted}")
            continue
        series = [(r.n, r.cauchy_increment) for r in report.rows
                  if r.cauchy_increment is not None]
        _scale, rho = fit_geometric_rate(series)
        print(f"seed {seed:6d}  rate/step {rho:.4f}  "
              f"shrink over 5 steps {rho ** 5:.4f}  "
              f"final reduced length {report.final_reduced_len}")

    # two independent walks over one registry: distinct limits show up as
    # a cross pairing far above both coincidence controls
    registry = PointRegistry()
    walk_a = run_walk(gens, args.steps, seed=args.first_seed,
                      checkpoint_every=1, keep_classes=True,
                      track_pushforward=True, registry=registry)
    walk_b = run_walk(gens, args.steps, seed=args.first_seed + 1,
                      registry=registry)
    if walk_a.aborted or walk_b.aborted:
        print("pairing skipped: one of the reference walks aborted")
        return 1
    result = boundary_compare(walk_a, walk_b)
    print(f"\ncross pairing      {_show(result['pairing'])}")
    print(f"control walk a     {_show(result['control_a'])}")
    print(f"control walk b     {_show(result['control_b'])}")

    ratios = transversality_ratio_series(
        walk_b.final_class, walk_b.final_reduced_len, walk_a)
    floor = min(v for _n, v in ratios)
    print(f"transversality ratio floor over {len(ratios)} checkpoints: "
          f"{floor:.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
