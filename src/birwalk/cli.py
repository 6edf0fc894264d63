"""Command line driver: sample, walk, crosscheck, equidist, compare.

Exit codes: 0 means every check passed or was cleanly skipped, 1 means a
mathematical degeneracy aborted the computation (a property of the
configuration, not a bug), 2 means an invariant that should hold for any
input failed.  All outputs are JSON and CSV with sorted keys and no
wall-clock fields, so identical configurations produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from pathlib import Path
from typing import List, Optional

from .config import (
    WALK_ARTIFACT_VERSION,
    RunConfig,
    build_generators,
    certificate_to_jsonable,
    dump_json,
    dumps_json,
    embedded_config,
    generators_from_jsonable,
    generators_to_jsonable,
    load_config,
    load_json,
    stamp,
)
from .curves import (
    PlaneCurve,
    equidist_diagnostic,
    write_equidist_csv,
)
from .errors import (
    CurveContracted,
    DegenerateConfiguration,
    DegreeCapExceeded,
    IncompatibleArtifacts,
    SamplingExhausted,
)
from .genericity import check_genericity
from .picard import PointRegistry
from .walk import (
    boundary_compare,
    crosscheck_words,
    random_itinerary,
    run_walk,
    write_rows_csv,
)

EXIT_OK = 0
EXIT_DEGENERATE = 1
EXIT_INVARIANT = 2


class MalformedDocument(Exception):
    """A malformed input document: ``main`` prints it and exits 2."""


def _read_json(path) -> dict:
    try:
        doc = load_json(path)
    except ValueError as exc:
        raise MalformedDocument(f"{path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedDocument(f"{path} is not a JSON object")
    return doc


def _read_generators(path):
    try:
        return generators_from_jsonable(_read_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(
            f"{path} is not a valid generator document: {exc}") from None


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for name in ("r", "height", "seed", "steps", "trials",
                 "checkpoint_every", "max_len", "out_dir", "curve"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "no_classes", False):
        overrides["track_classes"] = False
    return load_config(args.config, overrides)


def _out_dir(config: RunConfig) -> Path:
    path = Path(config.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- sample -------------------------------------------------------------


def cmd_sample(args) -> int:
    config = _config_from_args(args)
    try:
        gens = build_generators(config)
    except SamplingExhausted as exc:
        print(f"sampling failed: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    report = check_genericity(gens, config.max_len)
    doc = generators_to_jsonable(gens)
    doc["config"] = embedded_config(config)
    doc["certificate"] = certificate_to_jsonable(report)
    if not report.ok:
        for f in report.failures:
            print(f"certificate failure on word {list(f.word)}: {f.reason}",
                  file=sys.stderr)
        cut = (f", tree stopped after {report.words_checked} words at the "
               f"failure cap" if report.truncated else "")
        print(f"refusing to emit an uncertified tuple "
              f"({len(report.failures)} failing words at max_len "
              f"{config.max_len}{cut})", file=sys.stderr)
        return EXIT_DEGENERATE
    dump_json(args.out, doc)
    print(f"certified tuple written to {args.out}: "
          f"{report.words_checked} words checked, 0 failures")
    return EXIT_OK


# -- walk ---------------------------------------------------------------


def cmd_walk(args) -> int:
    config = _config_from_args(args)
    gens = _read_generators(args.generators)
    out = _out_dir(config)
    artifact = stamp("birwalk-artifact")
    artifact["version"] = WALK_ARTIFACT_VERSION
    artifact["config"] = embedded_config(config)
    artifact["generators"] = generators_to_jsonable(gens)
    trials = []
    aborts = []
    for i, wseed in enumerate(config.walk_seeds()):
        report = run_walk(gens, config.steps, seed=wseed,
                          checkpoint_every=config.checkpoint_every,
                          track_classes=config.track_classes,
                          keep_classes=config.track_classes)
        try:
            trials.append(report.to_jsonable())
        except DegenerateConfiguration as exc:  # a read past the budget
            print(f"trial {i} (seed {wseed}) cannot be written: {exc}",
                  file=sys.stderr)
            return EXIT_DEGENERATE
        write_rows_csv(report.rows, out / f"walk_trial{i:02d}_seed{wseed}.csv")
        if report.aborted is not None:
            aborts.append({"trial": i, "seed": wseed,
                           "aborted_at": report.aborted_at,
                           "message": report.aborted})
    artifact["trials"] = trials
    artifact["aborts"] = aborts
    dump_json(out / "artifact.json", artifact)
    for a in aborts:
        print(f"trial {a['trial']} (seed {a['seed']}) aborted at step "
              f"{a['aborted_at']}: {a['message']}", file=sys.stderr)
    print(f"{len(trials)} trial(s) written to {out}/artifact.json, "
          f"{len(aborts)} aborted")
    return EXIT_OK if not aborts else EXIT_DEGENERATE


# -- crosscheck ---------------------------------------------------------


def cmd_crosscheck(args) -> int:
    config = _config_from_args(args)
    gens = _read_generators(args.generators)
    counts, failures = crosscheck_words(gens, config.max_len)
    doc = stamp("birwalk-crosscheck")
    doc["max_len"] = config.max_len
    doc["checks"] = counts
    doc["failures"] = failures
    doc["ok"] = not failures
    out = _out_dir(config)
    dump_json(out / "crosscheck.json", doc)
    total = sum(counts.values())
    print(f"{total} checks over words up to length {config.max_len}: "
          f"{len(failures)} failure(s)")
    for f in failures[:10]:
        print(f"  word {f['word']} [{f['check']}]: {f['detail']}",
              file=sys.stderr)
    if not failures:
        return EXIT_OK
    degenerate = all("degenerate" in f["detail"] for f in failures)
    return EXIT_DEGENERATE if degenerate else EXIT_INVARIANT


# -- equidist -----------------------------------------------------------


def cmd_equidist(args) -> int:
    config = _config_from_args(args)
    gens = _read_generators(args.generators)
    try:
        curve = PlaneCurve.parse(config.curve)
    except ValueError as exc:
        print(f"bad curve: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    itinerary = random_itinerary(len(gens), config.max_len,
                                 random.Random(config.seed))
    warnings = []
    try:
        rows = equidist_diagnostic(gens, itinerary, curve,
                                   max_len=config.max_len,
                                   degree_cap=config.degree_cap,
                                   on_contracted="truncate")
    except DegenerateConfiguration as exc:
        print(f"degenerate configuration: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except DegreeCapExceeded as exc:
        print(f"equidist stopped: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    if len(rows) < config.max_len + 1:
        warnings.append({
            "error": "CurveContracted",
            "prefix_len": len(rows),
            "detail": "the curve is fully contracted at this prefix; "
                      "series truncated"})
        print(f"warning: curve contracted at prefix length {len(rows)}; "
              f"partial series written", file=sys.stderr)
    out = _out_dir(config)
    write_equidist_csv(rows, out / "equidist.csv")
    doc = stamp("birwalk-equidist")
    doc["config"] = embedded_config(config)
    doc["curve"] = str(curve)
    doc["itinerary"] = [[i, s] for i, s in itinerary]
    doc["rows"] = [dataclasses.asdict(r) for r in rows]
    doc["warnings"] = warnings
    dump_json(out / "equidist.json", doc)
    print(f"{len(rows)} rows written to {out}/equidist.csv")
    return EXIT_OK


# -- compare ------------------------------------------------------------


def _trial_zero(artifact: dict) -> dict:
    trials = artifact.get("trials") or []
    if not trials:
        raise IncompatibleArtifacts("artifact has no trials to compare")
    return trials[0]


def cmd_compare(args) -> int:
    doc_a = _read_json(args.artifact_a)
    doc_b = _read_json(args.artifact_b)
    for doc, name in ((doc_a, args.artifact_a), (doc_b, args.artifact_b)):
        if doc.get("format") != "birwalk-artifact":
            print(f"{name} is not a walk artifact", file=sys.stderr)
            return EXIT_INVARIANT
    try:
        if doc_a["generators"]["generators"] != doc_b["generators"]["generators"]:
            raise IncompatibleArtifacts(
                "artifacts come from different generator tuples")
        trial_a = _trial_zero(doc_a)
        trial_b = _trial_zero(doc_b)
        for trial in (trial_a, trial_b):
            if trial["mode"] != "exact":
                raise IncompatibleArtifacts(
                    f"{trial['mode']} mode is retired and its walks cannot be "
                    f"replayed; rerun them with `birwalk walk`, whose exact "
                    f"walks reach any depth")
        if not (trial_a["track_classes"] and trial_b["track_classes"]):
            raise IncompatibleArtifacts(
                "comparison needs class tracking in both artifacts")
        itineraries = [tuple((i, s) for i, s in trial["itinerary"])
                       for trial in (trial_a, trial_b)]
        gens = generators_from_jsonable(doc_a["generators"])
    except IncompatibleArtifacts as exc:
        print(f"incompatible artifacts: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(
            f"malformed walk artifact: missing or invalid field {exc}") from None
    registry = PointRegistry()
    reports = []
    for itinerary in itineraries:
        report = run_walk(gens, len(itinerary), itinerary=itinerary,
                          keep_classes=True, registry=registry)
        if report.aborted is not None:
            print(f"replay aborted at step {report.aborted_at}: "
                  f"{report.aborted}", file=sys.stderr)
            return EXIT_DEGENERATE
        reports.append(report)
    result = boundary_compare(reports[0], reports[1])
    doc = stamp("birwalk-compare")
    doc.update(result)
    doc["steps"] = [reports[0].steps_done, reports[1].steps_done]
    doc["reduced_len"] = [reports[0].final_reduced_len,
                          reports[1].final_reduced_len]
    print(dumps_json(doc))
    if args.out:
        dump_json(args.out, doc)
    return EXIT_OK


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birwalk",
        description="exact random products of plane birational maps")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None,
                       help="JSON config file (defaults otherwise)")
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--height", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--checkpoint-every", dest="checkpoint_every",
                       type=int, default=None)
        p.add_argument("--max-len", dest="max_len", type=int, default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None)

    p = sub.add_parser("sample", help="sample and certify a generator tuple")
    common(p)
    p.add_argument("--out", default="generators.json")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("walk", help="run random walk trials")
    common(p)
    p.add_argument("--generators", required=True)
    p.add_argument("--no-classes", dest="no_classes", action="store_true",
                   help="pure length bookkeeping (fast drift runs)")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("crosscheck",
                       help="verify class calculus against polynomials")
    common(p)
    p.add_argument("--generators", required=True)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("equidist", help="curve pullback distance series")
    common(p)
    p.add_argument("--generators", required=True)
    p.add_argument("--curve", default=None,
                   help="defining form, e.g. 'x + y + z'")
    p.set_defaults(func=cmd_equidist)

    p = sub.add_parser("compare", help="pair boundary classes of two runs")
    p.add_argument("artifact_a")
    p.add_argument("artifact_b")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MalformedDocument as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
