"""Benchmark for birwalk: one workload per process, result as a JSON line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Untraced (--trace 0) it times whole rounds of the workload until the next
round would overrun --seconds (at least one round) and reports the
end-to-end metrics.  Traced (--trace 1) it runs one untraced round, then
one round with spans around the program's layers, and reports the
per-layer metrics and the tracing overhead.  Every answer timed is
checked afterwards; the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run outputs go under .perfbench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    GENERATOR_COUNT, HEIGHT, PAIR_SEED, WORKLOADS, Ops)

SETUP_REPEATS = 5
PHASE_METRICS = {
    "sample": "cmd.sample_s",
    "crosscheck": "cmd.crosscheck_s",
    "pullback": "cmd.pullback_s",
    "equidist": "cmd.equidist_s",
    "classwalk": "cmd.classwalk_s",
    "walk_cli": "cmd.walk_cli_s",
}


def setup(workload: str, seed: int, workdir: Path):
    """Fresh import, generator document round trip, input generation."""
    for name in [m for m in sys.modules
                 if m == "birwalk" or m.startswith("birwalk.")]:
        del sys.modules[name]
    bw = types.SimpleNamespace(**{
        mod: importlib.import_module(f"birwalk.{mod}")
        for mod in ("cli", "config", "curves", "maps", "walk")})
    gens = bw.maps.sample_generators(GENERATOR_COUNT, HEIGHT,
                                     random.Random(PAIR_SEED))
    gen_path = workdir / "generators.json"
    bw.config.dump_json(gen_path, bw.config.generators_to_jsonable(gens))
    gens = bw.config.generators_from_jsonable(bw.config.load_json(gen_path))
    return WORKLOADS[workload](bw, gens, gen_path, seed, workdir)


class Rounds:
    """Runs whole rounds; keeps the first round's answers, fingerprints the rest."""

    def __init__(self, wl, ops: Ops, sampler=None):
        self.wl = wl
        self.ops = ops
        self.sampler = sampler
        self.walls = []
        self.factors = []
        self.phases = []
        self.first = None
        self.first_print = None
        self.changed = []

    def one(self) -> float:
        """One round; returns its time, scaled to reference speed when a
        speed sampler runs."""
        start = time.perf_counter()
        out = self.wl.round(self.ops)
        end = time.perf_counter()
        self.walls.append(end - start)
        factor = 1.0 if self.sampler is None \
            else self.sampler.factor(start, end)
        self.factors.append(factor)
        phases = {k: v * factor for k, v in self.ops.take_phases().items()}
        self.phases.append(phases)
        fingerprint = self.wl.fingerprint(out)
        if self.first is None:
            self.first, self.first_print = out, fingerprint
        elif fingerprint != self.first_print:
            self.changed.append(len(self.phases) - 1)
        return sum(phases.values())

    def fill(self, seconds: float) -> None:
        """Rounds until the next one would overrun `seconds` (at least
        the workload's minimum)."""
        start = time.perf_counter()
        while True:
            self.one()
            typical = statistics.median(self.walls)
            elapsed = time.perf_counter() - start
            if len(self.phases) >= self.wl.min_rounds \
                    and elapsed + typical > seconds:
                return

    def totals(self):
        return [sum(p.values()) for p in self.phases]

    def problems(self) -> list:
        out = [f"round {r} answered differently from round 0"
               for r in self.changed]
        if self.first is not None:
            try:
                self.wl.check(self.first)
            except checks.CheckFailed as exc:
                out.append(str(exc))
            except ImportError as exc:
                out.append(f"a check could not run: {exc}")
        return out


def phase_metrics(phases: dict, wl) -> dict:
    out = {metric: (phases.get(phase, 0.0), "s")
           for phase, metric in PHASE_METRICS.items()}
    drift_s = phases.get("drift")
    steps = getattr(wl, "DRIFT_STEPS", 0) * getattr(wl, "DRIFT_TRIALS", 0)
    out["cmd.drift_steps_per_s"] = (steps / drift_s if drift_s else 0.0,
                                    "steps/s")
    return out


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-",
                                    dir=OUT))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            before = speed.calibration_sample()
            t0 = time.perf_counter()
            wl = setup(args.workload, args.seed, workdir)
            took = time.perf_counter() - t0
            after = speed.calibration_sample()
            setup_times.append(
                took * (speed.REF_S / before + speed.REF_S / after) / 2)
        loaded = Path(sys.modules["birwalk"].__file__).resolve()
        if SRC.resolve() not in loaded.parents:
            raise RuntimeError(f"birwalk imported from {loaded}, not {SRC}")
        shown = {}
        with speed.SpeedSampler() as sampler:
            ops = Ops(excluded=lambda: sampler.spent)
            rounds = Rounds(wl, ops, sampler)
            if args.trace:
                plain = rounds.one()
                # span times leave the calibration samples out, as
                # operation times do
                tr = tracing.Tracer(
                    clock=lambda: time.perf_counter() - sampler.spent)
                undo = tracing.install(tr)
                try:
                    traced = rounds.one()
                finally:
                    tracing.uninstall(undo)
            else:
                rounds.fill(args.seconds)
        if args.trace:
            metrics = tracing.layer_metrics(tr)
            metrics["trace.overhead_s"] = (traced - plain, "s")
            metrics["trace.overhead_ratio"] = (traced / plain - 1.0, "ratio")
            metrics.update(phase_metrics(rounds.phases[0], wl))
            with open(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                      "w") as fh:
                json.dump({"spans": tr.summary(), "counters": tr.counters,
                           "gauges": tr.gauges, "untraced_round_s": plain,
                           "traced_round_s": traced}, fh, indent=1,
                          sort_keys=True)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "round_s": (statistics.median(rounds.totals()), "s"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            }
            shown = {name: v for name, v in
                     phase_metrics(median_phases(rounds.phases), wl).items()
                     if v[0]}
            shown["wall_round_s"] = (statistics.median(rounds.walls), "s")
            shown["speed_vs_reference"] = (
                statistics.median(rounds.factors), "ratio")
        problems = rounds.problems()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in ops.errors:
        print(err, file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds.phases)} round(s), "
          f"{ops.attempted} operations attempted, {ops.failed} failed")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def median_phases(phases) -> dict:
    """Median time per phase over the rounds."""
    names = {name for p in phases for name in p}
    return {name: statistics.median(p.get(name, 0.0) for p in phases)
            for name in names}


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "birwalk" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
