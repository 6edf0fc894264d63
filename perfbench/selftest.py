"""Quick self-test of the benchmark's own machinery (a few seconds).

    python3 perfbench/selftest.py

It checks the tracer's self-time arithmetic on nested spans with a fake
clock, that installing the tracer wraps and uninstalling restores the
program's functions, that every correctness check passes a right
answer made by the program and rejects a planted wrong one, and that a
round answering differently from the first one is caught.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import Ops, Workload, letter_matrices, run_cli  # noqa: E402

RESULTS = []


def expect(name: str, fn, should_pass: bool) -> None:
    try:
        fn()
        ok = should_pass
    except CheckFailed:
        ok = not should_pass
    RESULTS.append((name, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {name}")


def good_and_planted(name: str, check, good, plant) -> None:
    """The check passes on good and fails once plant has edited a copy."""
    expect(f"{name}: right answer passes", lambda: check(good), True)
    bad = copy.deepcopy(good)
    plant(bad)
    expect(f"{name}: planted wrong answer fails", lambda: check(bad), False)


# -- tracer -------------------------------------------------------------------


def test_self_time() -> None:
    now = [0.0]
    tr = tracing.Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    def leaf():
        advance(1.0)

    def inner():
        advance(1.0)
        wrapped_leaf()
        advance(2.0)

    def outer():
        advance(1.0)
        wrapped_inner()
        advance(3.0)
        wrapped_inner()
        advance(1.0)

    wrapped_leaf = tracing.span_wrapper(tr, leaf, "leaf")
    wrapped_inner = tracing.span_wrapper(tr, inner, "inner")
    tracing.span_wrapper(tr, outer, "outer")()
    table = tr.summary()
    want = {"outer": (1, 13.0, 5.0), "inner": (2, 8.0, 6.0),
            "leaf": (2, 2.0, 2.0)}
    for name, (calls, total, self_s) in want.items():
        row = table[name]
        ok = (row["calls"], row["total_s"], row["self_s"]) \
            == (calls, total, self_s)
        RESULTS.append((f"tracer self time of {name}", ok))
        print(f"{'ok  ' if ok else 'FAIL'} tracer self time of {name}: {row}")


def test_install_round_trip() -> None:
    import birwalk.cli  # noqa: F401  (install patches every module)
    import birwalk.curves
    import birwalk.poly as poly
    mul = poly.HomPoly.__dict__["__mul__"]
    mult = poly.multiplicity_at
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        wrapped = (birwalk.curves.multiplicity_at is not mult
                   and poly.multiplicity_at is birwalk.curves.multiplicity_at)
        p = poly.parse_poly("x + y")
        poly.multiplicity_at(p * p, (0, 0, 1))
    finally:
        tracing.uninstall(undo)
    table = tr.summary()
    ok = (wrapped and table["poly.mul"]["calls"] == 1
          and table["poly.multiplicity"]["calls"] == 1
          and poly.HomPoly.__dict__["__mul__"] is mul
          and birwalk.curves.multiplicity_at is mult)
    RESULTS.append(("tracer installs and uninstalls", ok))
    print(f"{'ok  ' if ok else 'FAIL'} tracer installs and uninstalls")


# -- checks -------------------------------------------------------------------


def test_checks(work: Path) -> None:
    from birwalk import cli
    from birwalk.config import dump_json, generators_to_jsonable
    from birwalk.curves import PlaneCurve, lelong_crosscheck, pullback_curve
    from birwalk.maps import sample_generators
    from birwalk.walk import run_walk

    gens = sample_generators(2, 5, random.Random(1))
    gen_path = work / "generators.json"
    gen_doc = generators_to_jsonable(gens)
    dump_json(gen_path, gen_doc)

    def run(*argv):
        rc, out, _err = run_cli(cli.main, list(argv))
        assert rc in (0, 1), (argv, rc)
        return out

    # certify
    run("sample", "--max-len", 3, "--out", work / "s.json")
    sample_doc = json.loads((work / "s.json").read_text())
    good_and_planted(
        "word count", lambda d: checks.check_certificate(d, 2, 3), sample_doc,
        lambda d: d["certificate"].__setitem__("words_checked", 51))
    matrices = [(g.a_rows, g.b_rows) for g in gens]
    good_and_planted(
        "round trip",
        lambda d: checks.check_round_trip(d, sample_doc, matrices), sample_doc,
        lambda d: d["generators"][0]["a"][0].__setitem__(0, 99))
    run("crosscheck", "--generators", gen_path, "--max-len", 2,
        "--out-dir", work)
    good_and_planted(
        "crosscheck counts", lambda d: checks.check_crosscheck(d, 2, 2),
        json.loads((work / "crosscheck.json").read_text()),
        lambda d: d["checks"].__setitem__("gram", 15))
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    (work / "ident.json").write_text(json.dumps(
        {"r": 2, "matrices": [[ident, ident], [ident, ident]]}))
    rc, _out, err = run_cli(cli.main, [
        "sample", "--config", str(work / "ident.json"), "--max-len", "2",
        "--out", str(work / "refused.json")])
    refused = [rc, (work / "refused.json").exists(), err]
    good_and_planted(
        "negative control", lambda a: checks.check_refused(*a, 2), refused,
        lambda a: a.__setitem__(0, 0))
    # exit 1 with no document, but not from the certificate
    good_and_planted(
        "negative control refusal", lambda a: checks.check_refused(*a, 2),
        refused, lambda a: a.__setitem__(2, "sampling failed: exhausted\n"))
    lm = letter_matrices(gen_doc)
    words = checks.reduced_words(2, 1)
    good_and_planted(
        "sympy degrees", lambda m: checks.check_sympy_degrees(m, words), lm,
        lambda m: m.__setitem__((0, -1), m[(1, -1)]))

    # curves
    curve = PlaneCurve.parse("x + y + z")
    word = ((0, 1), (1, -1))
    rep = pullback_curve(gens, word, curve)
    rows = lelong_crosscheck(gens, word, curve, report=rep)
    pull = {"removed": [(g.degree, e) for g, e in rep.removed],
            "base": [(m, nu) for _c, m, nu in rep.base_points],
            "lelong": [(r.nu_poly, r.nu_class) for r in rows],
            "strict": rep.strict_degree}

    def check_pull(p):
        checks.check_pullback(2, 1, p["strict"], p["removed"], p["base"],
                              p["lelong"], "pullback")

    good_and_planted("lelong routes agree", check_pull, pull,
                     lambda p: p["lelong"].__setitem__(
                         0, (p["lelong"][0][0], p["lelong"][0][1] + 1)))
    good_and_planted("degree bookkeeping", check_pull, pull,
                     lambda p: p.__setitem__("strict", p["strict"] - 1))
    good_and_planted("squared multiplicity bound", check_pull, pull,
                     lambda p: (p.__setitem__("base", [(1, 9)] * len(p["base"])),
                                p.__setitem__("lelong", [(9, 9)] * len(p["base"]))))
    good_and_planted(
        "strict transform vs sympy",
        lambda t: checks.check_strict_sympy(lm, word, "x + y + z", t,
                                            "strict", {}),
        list(rep.strict_poly.terms),
        lambda t: t.__setitem__(0, (t[0][0], t[0][1] + 1)))
    run("equidist", "--generators", gen_path, "--max-len", 3, "--seed", 2,
        "--out-dir", work)
    eq = json.loads((work / "equidist.json").read_text())
    good_and_planted(
        "equidist exactness witness",
        lambda d: checks.check_equidist(d, 2, 2, 3), eq,
        lambda d: d["rows"][2].__setitem__("distance_step", 1e-17))
    good_and_planted(
        "equidist closed form",
        lambda d: checks.check_equidist(d, 2, 2, 3), eq,
        lambda d: d["rows"][1].__setitem__("distance",
                                           d["rows"][1]["distance"] + 1e-9))

    # walks
    rep = run_walk(gens, 12, seed=5, mode="exact", checkpoint_every=4,
                   keep_classes=True)
    itin = checks.replica_itinerary(2, 12, 5)
    cps = [(n, ln, (c.line_coeff, dict(c.point_part)))
           for n, ln, c, _e in rep.checkpoint_classes]

    def noether_plant(c):
        _d, mults = c[-1][2]
        pid = next(iter(mults))
        mults[pid] += 1

    good_and_planted("Noether identities",
                     lambda c: checks.check_checkpoints(itin, c, "walk"), cps,
                     noether_plant)
    good_and_planted("reduced length vs replica",
                     lambda c: checks.check_checkpoints(itin, c, "walk"), cps,
                     lambda c: c.__setitem__(-1, (c[-1][0], c[-1][1] + 2,
                                                  c[-1][2])))
    def pairing_plant(c):
        # swapping two unequal multiplicities keeps both Noether identities
        # of the class but moves its pairings with earlier checkpoints
        mults = c[-1][2][1]
        k1, k2 = sorted(mults, key=lambda k: (mults[k], k))[::len(mults) - 1]
        mults[k1], mults[k2] = mults[k2], mults[k1]

    good_and_planted("pairing identity",
                     lambda c: checks.check_checkpoints(itin, c, "walk"), cps,
                     pairing_plant)
    for seed in (7, 8):
        run("walk", "--generators", gen_path, "--seed", seed, "--steps", 8,
            "--trials", 2, "--out-dir", work / f"w{seed}")
    arts = [json.loads((work / f"w{s}" / "artifact.json").read_text())
            for s in (7, 8)]
    good_and_planted(
        "walk artifact", lambda a: checks.check_walk_artifact(a, 2, 8, True),
        arts[0], lambda a: a["trials"][1].__setitem__(
            "final_reduced_len", a["trials"][1]["final_reduced_len"] + 2))
    result = json.loads(run("compare", work / "w7" / "artifact.json",
                            work / "w8" / "artifact.json"))
    good_and_planted(
        "compare pairing",
        lambda r: checks.check_compare(r, arts[0]["trials"][0],
                                       arts[1]["trials"][0]), result,
        lambda r: r.__setitem__("pairing", r["pairing"] * (1 + 1e-9)))
    drift = {"trials": [{"final_reduced_len": 2500}] * 4}
    good_and_planted("drift", lambda d: checks.check_drift(d, 5000), drift,
                     lambda d: d.__setitem__(
                         "trials", [{"final_reduced_len": 2300}] * 4))


class _Repeating:
    """A stand-in workload whose answers can be changed between rounds."""

    min_rounds = 1
    fingerprint = staticmethod(Workload.fingerprint)

    def __init__(self, answers):
        self.answers = list(answers)

    def round(self, ops):
        return {"artifact": self.answers.pop(0)}

    def check(self, out):
        pass


def test_rounds_compare() -> None:
    from run import Rounds
    for answers, should_pass in (([b"abc", b"abc"], True),
                                 ([b"abc", b"abd"], False)):
        rounds = Rounds(_Repeating(answers), Ops())
        rounds.one()
        rounds.one()
        ok = (not rounds.problems()) == should_pass
        name = ("identical rounds pass" if should_pass
                else "a round that answers differently fails")
        RESULTS.append((name, ok))
        print(f"{'ok  ' if ok else 'FAIL'} {name}")

def main() -> int:
    out = HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        test_self_time()
        test_install_round_trip()
        test_checks(work)
        test_rounds_compare()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)} of {len(RESULTS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
