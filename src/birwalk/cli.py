"""Command line driver: sample, walk, crosscheck, equidist, compare.

Exit codes: 0 means every check passed or was cleanly skipped, 1 means a
mathematical degeneracy aborted the computation (a property of the
configuration, not a bug), 2 means an invariant that should hold for any
input failed.  All outputs are JSON and CSV with sorted keys and no
wall-clock fields, so identical configurations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .config import (
    RunConfig,
    build_generators,
    certificate_to_jsonable,
    config_to_dict,
    dump_json,
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
    ExactLengthCap,
    IncompatibleArtifacts,
    SamplingExhausted,
)
from .genericity import check_genericity
from .maps import IDENTITY_COMPONENTS, compose_letter
from .picard import OperatorCache, PointRegistry, WeilClass
from .walk import (
    WalkState,
    boundary_compare,
    random_itinerary,
    run_walk,
    write_rows_csv,
)

EXIT_OK = 0
EXIT_DEGENERATE = 1
EXIT_INVARIANT = 2


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for name in ("r", "height", "seed", "mode", "steps", "trials",
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
    doc["config"] = config_to_dict(config)
    doc["certificate"] = certificate_to_jsonable(report)
    if not report.ok:
        for f in report.failures:
            print(f"certificate failure on word {list(f.word)}: {f.reason}",
                  file=sys.stderr)
        print(f"refusing to emit an uncertified tuple "
              f"({len(report.failures)} failing words at max_len "
              f"{config.max_len})", file=sys.stderr)
        return EXIT_DEGENERATE
    dump_json(args.out, doc)
    print(f"certified tuple written to {args.out}: "
          f"{report.words_checked} words checked, 0 failures")
    return EXIT_OK


# -- walk ---------------------------------------------------------------


def cmd_walk(args) -> int:
    config = _config_from_args(args)
    gens = generators_from_jsonable(load_json(args.generators))
    out = _out_dir(config)
    artifact = stamp("birwalk-artifact")
    artifact["config"] = config_to_dict(config)
    artifact["generators"] = generators_to_jsonable(gens)
    trials = []
    aborts = []
    for i, wseed in enumerate(config.walk_seeds()):
        try:
            report = run_walk(
                gens, config.steps, seed=wseed, mode=config.mode,
                eps=config.epsilon, checkpoint_every=config.checkpoint_every,
                exact_len_cap=config.exact_len_cap,
                float_steps_cap=config.float_steps_cap,
                track_classes=config.track_classes,
                keep_classes=config.track_classes)
        except ExactLengthCap as exc:
            print(f"trial {i} (seed {wseed}) stopped: {exc}", file=sys.stderr)
            return EXIT_DEGENERATE
        trials.append(report.to_jsonable(include_classes=True))
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


def _crosscheck_words(gens, max_len: int, failure_cap: int = 50):
    """DFS over reduced words verifying the class calculus word by word.

    The walk state carries the pullback class; popping by the formal
    inverse restores it bit-exactly, so one state serves the whole tree.
    Each word checks: polynomial degree vs class degree on both the
    pullback and forward tracks, unit self-intersection, the one-letter
    degree recursion against the forward image's multiplicities at the
    new letter's base points, adjointness through a probe exceptional
    class, and the two-walk pairing identity against every ancestor.
    """
    registry = PointRegistry("exact")
    cache = OperatorCache(gens, registry)
    state = WalkState(gens, mode="exact", exact_len_cap=max(16, max_len),
                      track_classes=True, registry=registry, cache=cache)
    probe_pid = cache.get(0, 1).base_ids[0]
    probe = WeilClass.exceptional_class(probe_pid)
    counts = {"degree": 0, "isometry": 0, "noether": 0, "adjoint": 0,
              "gram": 0}
    failures: List[dict] = []
    letters = [(i, s) for i in range(len(gens)) for s in (1, -1)]

    def fail(word, check, detail):
        failures.append({"word": [list(l) for l in word], "check": check,
                         "detail": detail})

    def visit(word: Tuple, comps, pushed: WeilClass, push_line: WeilClass,
              ancestors):
        if len(word) >= max_len or len(failures) >= failure_cap:
            return
        for letter in letters:
            if word and letter == (word[-1][0], -word[-1][1]):
                continue
            new_word = word + (letter,)
            prev_line = state.pull_class.line_coeff
            depth_before = len(state.stack)
            try:
                op = cache.get(letter[0], letter[1])
                # the degree recursion consumes the multiplicities the
                # forward image class carries at the new letter's own
                # indeterminacy points
                base_mult = sum(push_line.point_part.get(pid, 0)
                                for pid in op.base_ids)
                state.step(letter)
            except DegenerateConfiguration as exc:
                fail(new_word, "degree", f"degenerate: {exc}")
                if len(state.stack) > depth_before:
                    state.step((letter[0], -letter[1]))
                continue
            cls = state.pull_class
            new_comps = compose_letter(
                *gens[letter[0]].letter_matrices(letter[1]), comps)
            poly_degree = next(p.degree for p in new_comps if not p.is_zero)
            try:
                inv = cache.get(letter[0], -letter[1])
                new_pushed = inv.pullback(pushed)
                new_push_line = inv.pullback(push_line)
            except DegenerateConfiguration as exc:
                fail(new_word, "adjoint", f"probe transport degenerate: {exc}")
                state.step((letter[0], -letter[1]))
                continue
            counts["degree"] += 1
            if poly_degree != cls.line_coeff \
                    or poly_degree != new_push_line.line_coeff \
                    or poly_degree != 2 ** len(new_word):
                fail(new_word, "degree",
                     f"poly {poly_degree} vs class {cls.line_coeff} "
                     f"vs forward class {new_push_line.line_coeff} "
                     f"vs expected {2 ** len(new_word)}")
            counts["isometry"] += 1
            if cls.self_intersection() != 1:
                fail(new_word, "isometry",
                     f"self-intersection {cls.self_intersection()}")
            counts["noether"] += 1
            if cls.line_coeff != 2 * prev_line - base_mult:
                fail(new_word, "noether",
                     f"degree recursion broken: {cls.line_coeff} != "
                     f"2*{prev_line} - {base_mult}")
            counts["adjoint"] += 1
            # <w*[L], E_q> = <[L], w_* E_q>: pullback multiplicity at the
            # probe point vs line coefficient of the pushed probe
            left = cls.intersect(probe)
            right = new_pushed.line_coeff
            if left != right:
                fail(new_word, "adjoint",
                     f"<w*L, E> = {left} but <L, w_*E> = {right}")
            counts["gram"] += 1
            for anc_len, anc_class in ancestors:
                middle = len(new_word) - anc_len
                if cls.intersect(anc_class) != 2 ** middle:
                    fail(new_word, "gram",
                         f"pairing with length-{anc_len} ancestor is "
                         f"{cls.intersect(anc_class)}, expected 2^{middle}")
            visit(new_word, new_comps, new_pushed, new_push_line,
                  ancestors + [(len(new_word), cls)])
            state.step((letter[0], -letter[1]))

    visit((), IDENTITY_COMPONENTS, probe, WeilClass.line_class(),
          [(0, WeilClass.line_class())])
    return counts, failures


def cmd_crosscheck(args) -> int:
    config = _config_from_args(args)
    gens = generators_from_jsonable(load_json(args.generators))
    counts, failures = _crosscheck_words(gens, config.max_len)
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
    gens = generators_from_jsonable(load_json(args.generators))
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
    doc["config"] = config_to_dict(config)
    doc["curve"] = str(curve)
    doc["itinerary"] = [[i, s] for i, s in itinerary]
    doc["rows"] = [
        {"prefix_len": r.prefix_len, "reduced_len": r.reduced_len,
         "raw_degree": r.raw_degree, "strict_degree": r.strict_degree,
         "distance": r.distance, "distance_step": r.distance_step,
         "bound_lhs": r.bound_lhs, "bound_rhs": r.bound_rhs}
        for r in rows
    ]
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
    doc_a = load_json(args.artifact_a)
    doc_b = load_json(args.artifact_b)
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
        if trial_a["mode"] != trial_b["mode"]:
            raise IncompatibleArtifacts("artifacts ran in different modes")
        if not (trial_a["track_classes"] and trial_b["track_classes"]):
            raise IncompatibleArtifacts(
                "comparison needs class tracking in both artifacts")
    except IncompatibleArtifacts as exc:
        print(f"incompatible artifacts: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    gens = generators_from_jsonable(doc_a["generators"])
    mode = trial_a["mode"]
    eps = float(doc_a["config"]["epsilon"])
    registry = PointRegistry(mode, eps)
    cache = OperatorCache(gens, registry)
    reports = []
    for trial in (trial_a, trial_b):
        itinerary = tuple((i, s) for i, s in trial["itinerary"])
        report = run_walk(gens, len(itinerary), itinerary=itinerary,
                          mode=mode, eps=eps, keep_classes=True,
                          registry=registry, cache=cache)
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
    print(json.dumps(doc, sort_keys=True, indent=2))
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
        p.add_argument("--mode", choices=("exact", "float"), default=None)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
