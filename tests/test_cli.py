"""End-to-end command line behavior: artifacts, exit codes, determinism."""

import csv
import hashlib
import json
import math
import random

import pytest

from birwalk import picard, projective
from birwalk.cli import EXIT_DEGENERATE, EXIT_INVARIANT, EXIT_OK, main
from birwalk.config import (
    ARTIFACT_VERSION,
    WALK_ARTIFACT_VERSION,
    _any_int_digits,
    config_to_dict,
    dump_json,
    generators_to_jsonable,
    load_json,
    RunConfig,
)
from birwalk.maps import generator_from_matrices
from birwalk.poly import format_poly
from birwalk.walk import random_itinerary, run_walk

IDENTITY_ROWS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.fixture(scope="module")
def sigma_pair_file(tmp_path_factory):
    # two copies of the bare involution: every length-two word collapses
    gens = (generator_from_matrices(0, IDENTITY_ROWS, IDENTITY_ROWS),
            generator_from_matrices(1, IDENTITY_ROWS, IDENTITY_ROWS))
    path = tmp_path_factory.mktemp("sigma") / "generators.json"
    dump_json(path, generators_to_jsonable(gens))
    return path


# -- sample -------------------------------------------------------------


def test_sample_writes_certified_doc(tmp_path, capsys):
    out = tmp_path / "gen.json"
    code = main(["sample", "--r", "2", "--height", "5", "--seed", "1",
                 "--max-len", "3", "--out", str(out)])
    assert code == EXIT_OK
    doc = load_json(out)
    assert doc["format"] == "birwalk-generators"
    assert doc["generator_count"] == 2
    assert doc["certificate"]["ok"] is True
    assert doc["certificate"]["failures"] == []
    assert doc["config"]["seed"] == 1
    assert "0 failures" in capsys.readouterr().out


def test_sample_is_byte_deterministic(tmp_path):
    argv = ["sample", "--r", "2", "--height", "5", "--seed", "1",
            "--max-len", "2"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_refuses_uncertified_tuple(tmp_path, capsys):
    config = RunConfig(matrices=((IDENTITY_ROWS, IDENTITY_ROWS),
                                 (IDENTITY_ROWS, IDENTITY_ROWS)),
                       max_len=2)
    cfg_path = tmp_path / "config.json"
    dump_json(cfg_path, config_to_dict(config))
    out = tmp_path / "gen.json"
    code = main(["sample", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_DEGENERATE
    assert not out.exists()
    err = capsys.readouterr().err
    assert "refusing" in err
    assert "failure cap" not in err


def test_sample_refusal_says_the_tree_stopped_at_the_cap(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    dump_json(cfg_path, config_to_dict(RunConfig(seed=2, max_len=5)))
    out = tmp_path / "gen.json"
    code = main(["sample", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_DEGENERATE
    assert not out.exists()
    assert ("(20 failing words at max_len 5, tree stopped after 142 words "
            "at the failure cap)") in capsys.readouterr().err


def test_sample_reports_exhausted_sampler(tmp_path, capsys):
    # height-one matrices collide on base points; one try cannot succeed here
    cfg_path = tmp_path / "config.json"
    dump_json(cfg_path, config_to_dict(RunConfig(height=1, retry_budget=1)))
    code = main(["sample", "--config", str(cfg_path),
                 "--out", str(tmp_path / "gen.json")])
    assert code == EXIT_DEGENERATE
    assert "sampling failed" in capsys.readouterr().err


# -- walk ---------------------------------------------------------------


def test_walk_writes_artifact_and_csvs(tmp_path, generators_file):
    out = tmp_path / "run"
    code = main(["walk", "--generators", str(generators_file),
                 "--steps", "8", "--trials", "2",
                 "--checkpoint-every", "4", "--out-dir", str(out)])
    assert code == EXIT_OK
    artifact = load_json(out / "artifact.json")
    assert artifact["format"] == "birwalk-artifact"
    assert len(artifact["trials"]) == 2
    assert artifact["aborts"] == []
    assert [t["seed"] for t in artifact["trials"]] == [1000, 1001]
    for i, seed in enumerate((1000, 1001)):
        csv_path = out / f"walk_trial{i:02d}_seed{seed}.csv"
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0].startswith("n,reduced_len,log2_deg")
        assert len(lines) == 8 + 2  # header plus step rows including step 0


def test_walk_zero_trials_writes_empty_artifact(tmp_path, generators_file):
    out = tmp_path / "run"
    code = main(["walk", "--generators", str(generators_file),
                 "--trials", "0", "--out-dir", str(out)])
    assert code == EXIT_OK
    artifact = load_json(out / "artifact.json")
    assert artifact["trials"] == []
    assert artifact["aborts"] == []


def test_walk_abort_sets_degenerate_exit(tmp_path, sigma_pair_file, capsys):
    out = tmp_path / "run"
    code = main(["walk", "--generators", str(sigma_pair_file),
                 "--steps", "4", "--out-dir", str(out)])
    assert code == EXIT_DEGENERATE
    artifact = load_json(out / "artifact.json")
    assert len(artifact["aborts"]) == 1
    assert "aborted" in capsys.readouterr().err


def test_an_aborted_trial_is_written_at_its_last_completed_step(
        tmp_path, sigma_pair_file):
    # trial 0 fails at step 2: its document describes step 1, whose
    # reduced length is the last row of its CSV
    out = tmp_path / "run"
    assert main(["walk", "--generators", str(sigma_pair_file), "--steps", "6",
                 "--trials", "2", "--out-dir", str(out)]) == EXIT_DEGENERATE
    trial = load_json(out / "artifact.json")["trials"][0]
    assert (trial["aborted_at"], trial["steps_done"]) == (2, 1)
    with open(out / f"walk_trial00_seed{trial['seed']}.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert trial["final_reduced_len"] == int(last["reduced_len"]) == 1
    assert trial["final_support_size"] == 3


def test_walk_no_classes_runs_long(tmp_path, generators_file):
    out = tmp_path / "run"
    code = main(["walk", "--generators", str(generators_file),
                 "--steps", "300", "--no-classes",
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    trial = load_json(out / "artifact.json")["trials"][0]
    assert trial["track_classes"] is False
    assert trial["steps_done"] == 300


def _leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for value in obj:
            yield from _leaves(value)
    else:
        yield obj


def _stdlib_text(doc) -> str:
    with _any_int_digits():
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("extra", [["--no-classes", "--steps", "300"],
                                   ["--steps", "10"]])
def test_walk_artifact_is_the_stdlib_text(tmp_path, certified_tuple,
                                          generators_file, extra):
    out = tmp_path / "run"
    assert main(["walk", "--generators", str(generators_file),
                 "--trials", "2", "--out-dir", str(out)] + extra) == EXIT_OK
    path = out / "artifact.json"
    doc = load_json(path)
    assert path.read_bytes() == _stdlib_text(doc).encode()
    # the per-step rows live in the CSVs only
    steps = int(extra[-1])
    for i, trial in enumerate(doc["trials"]):
        assert "rows" not in trial
        csv_path = out / f"walk_trial{i:02d}_seed{trial['seed']}.csv"
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == steps + 1
        replay = run_walk(certified_tuple, steps, seed=trial["seed"],
                          track_classes=False)
        assert [(int(r["n"]), int(r["reduced_len"])) for r in rows] \
            == [(r.n, r.reduced_len) for r in replay.rows]
    if "--no-classes" not in extra:
        # checkpoint classes with big coordinates, coordinates as strings
        classes = [c for t in doc["trials"] for c in t["checkpoint_classes"]]
        assert any(c["class"]["point_entries"] for c in classes)
        assert max(abs(v) for v in _leaves(classes)
                   if type(v) is int) > 2 ** 64
        tops = [t["top_coefficients"] for t in doc["trials"]]
        assert any(type(v) is str and len(v) > 3 for v in _leaves(tops))


# -- crosscheck ---------------------------------------------------------


def test_crosscheck_certified_tuple_clean(tmp_path, generators_file, capsys):
    out = tmp_path / "x"
    code = main(["crosscheck", "--generators", str(generators_file),
                 "--max-len", "2", "--out-dir", str(out)])
    assert code == EXIT_OK
    doc = load_json(out / "crosscheck.json")
    assert doc["ok"] is True
    assert doc["failures"] == []
    assert set(doc["checks"]) == {"degree", "isometry", "noether",
                                  "adjoint", "gram"}
    assert all(v == 16 for v in doc["checks"].values())  # 4 + 4*3 words


def test_crosscheck_involution_pair_reports_failures(tmp_path,
                                                     sigma_pair_file):
    out = tmp_path / "x"
    code = main(["crosscheck", "--generators", str(sigma_pair_file),
                 "--max-len", "2", "--out-dir", str(out)])
    assert code == EXIT_DEGENERATE
    doc = load_json(out / "crosscheck.json")
    assert doc["ok"] is False
    assert doc["failures"]
    assert all("degenerate" in f["detail"] for f in doc["failures"])


def test_crosscheck_depth_four_document_is_frozen(tmp_path, generators_file):
    # sha256 of the document written by exact composition at every node
    out = tmp_path / "x"
    assert main(["crosscheck", "--generators", str(generators_file),
                 "--max-len", "4", "--out-dir", str(out)]) == EXIT_OK
    digest = hashlib.sha256((out / "crosscheck.json").read_bytes()).hexdigest()
    assert digest == ("f8ff0ea2bec678961bde9f5f8a36353d"
                      "4c08afcbb17ea36823ca220cf09289cd")


def test_crosscheck_depth_five_certified_tuple(tmp_path, generators_file):
    out = tmp_path / "x"
    assert main(["crosscheck", "--generators", str(generators_file),
                 "--max-len", "5", "--out-dir", str(out)]) == EXIT_OK
    doc = load_json(out / "crosscheck.json")
    assert doc["ok"] is True
    assert doc["checks"] == dict.fromkeys(
        ("degree", "isometry", "noether", "adjoint", "gram"), 484)


def test_crosscheck_length_zero_is_vacuous(tmp_path, generators_file):
    out = tmp_path / "x"
    code = main(["crosscheck", "--generators", str(generators_file),
                 "--max-len", "0", "--out-dir", str(out)])
    assert code == EXIT_OK
    doc = load_json(out / "crosscheck.json")
    assert doc["ok"] is True
    assert all(v == 0 for v in doc["checks"].values())


# -- equidist -----------------------------------------------------------


def test_equidist_writes_series(tmp_path, generators_file):
    out = tmp_path / "eq"
    code = main(["equidist", "--generators", str(generators_file),
                 "--seed", "2", "--max-len", "3", "--out-dir", str(out)])
    assert code == EXIT_OK
    doc = load_json(out / "equidist.json")
    assert doc["warnings"] == []
    rows = doc["rows"]
    assert len(rows) == 4
    dists = [r["distance"] for r in rows]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    for r in rows:
        expect = math.sqrt(4.0 ** -r["prefix_len"] - 4.0 ** -3)
        assert abs(r["distance"] - expect) < 1e-12
    csv_lines = (out / "equidist.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "l,deg,distance,bound_lhs,bound_rhs,distance_step"
    assert len(csv_lines) == 5


def test_equidist_bytes_do_not_depend_on_out_dir(tmp_path, generators_file):
    # one run names its directory in a config file, the other overrides it
    # with a longer one on the command line; where a document goes is not
    # part of the run, so both write the same bytes
    short = tmp_path / "a"
    config = tmp_path / "config.json"
    dump_json(config, config_to_dict(RunConfig(out_dir=str(short))))
    long = tmp_path / "a much longer directory name" / "eq"
    argv = ["equidist", "--generators", str(generators_file),
            "--seed", "2", "--max-len", "3"]
    assert main(argv + ["--config", str(config)]) == EXIT_OK
    assert main(argv + ["--config", str(config),
                        "--out-dir", str(long)]) == EXIT_OK
    for name in ("equidist.json", "equidist.csv"):
        assert (short / name).read_bytes() == (long / name).read_bytes()
    assert "out_dir" not in load_json(short / "equidist.json")["config"]


def test_equidist_depth_six_documents_are_frozen(tmp_path, generators_file):
    # sha256 of both documents on the seed-2 itinerary: the rows, their
    # float distances to the last bit, and the document layout
    out = tmp_path / "eq"
    assert main(["equidist", "--generators", str(generators_file),
                 "--seed", "2", "--max-len", "6",
                 "--out-dir", str(out)]) == EXIT_OK
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("equidist.json", "equidist.csv")}
    assert digests == {
        "equidist.json": "07cd2861d80707e24f0339ce78bbfe98"
                         "1837b5a1a8ff92b17ed5cf022ec51315",
        "equidist.csv": "39ce60a3e75eda22e4bda78aa1f6bd4c"
                        "696d88a5557386db0427e839f4449880",
    }


def test_equidist_contracted_curve_warns(tmp_path, generators_file,
                                         certified_tuple, capsys):
    # the first stepped letter contracts the lines cut out by its inner
    # matrix rows; feeding one of them in truncates the series at once
    itinerary = random_itinerary(2, 3, random.Random(9))
    idx, sign = itinerary[0]
    _outer, inner = certified_tuple[idx].letter_matrices(sign)
    from birwalk.poly import HomPoly
    row = inner[0]
    curve = format_poly(HomPoly({(1, 0, 0): row[0], (0, 1, 0): row[1],
                                 (0, 0, 1): row[2]}))
    out = tmp_path / "eq"
    code = main(["equidist", "--generators", str(generators_file),
                 "--seed", "9", "--max-len", "3", "--curve", curve,
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    doc = load_json(out / "equidist.json")
    assert doc["warnings"] and doc["warnings"][0]["error"] == "CurveContracted"
    assert len(doc["rows"]) < 4
    assert "contracted" in capsys.readouterr().err


def test_equidist_degree_cap_exits_degenerate(tmp_path, generators_file,
                                              capsys):
    config = tmp_path / "config.json"
    dump_json(config, {"degree_cap": 4})
    out = tmp_path / "eq"
    code = main(["equidist", "--config", str(config),
                 "--generators", str(generators_file),
                 "--seed", "2", "--max-len", "3", "--out-dir", str(out)])
    assert code == EXIT_DEGENERATE
    err = capsys.readouterr().err.strip().split("\n")
    assert err == ["equidist stopped: pullback degree 8 exceeds the cap 4 "
                   "at prefix length 3"]
    assert not out.exists()


def test_equidist_rejects_bad_curve(tmp_path, generators_file, capsys):
    code = main(["equidist", "--generators", str(generators_file),
                 "--curve", "x^2", "--out-dir", str(tmp_path / "eq")])
    assert code == EXIT_INVARIANT
    assert "bad curve" in capsys.readouterr().err
    # a zero denominator names no curve
    code = main(["equidist", "--generators", str(generators_file),
                 "--curve", "1/0*x + y", "--out-dir", str(tmp_path / "eq")])
    assert code == EXIT_INVARIANT
    assert "zero denominator" in capsys.readouterr().err


def test_equidist_reads_a_fractional_curve_up_to_scale(tmp_path,
                                                        generators_file):
    docs = {}
    for name, curve in (("frac", "1/2*x + y"), ("int", "x + 2*y")):
        out = tmp_path / name
        assert main(["equidist", "--generators", str(generators_file),
                     "--curve", curve, "--max-len", "4",
                     "--out-dir", str(out)]) == EXIT_OK
        docs[name] = load_json(out / "equidist.json")
    assert docs["frac"]["curve"] == docs["int"]["curve"] == "x + 2*y"
    assert docs["frac"]["config"]["curve"] == "1/2*x + y"
    assert docs["frac"]["rows"] == docs["int"]["rows"]
    assert len(docs["frac"]["rows"]) == 5
    assert (tmp_path / "frac" / "equidist.csv").read_bytes() == \
        (tmp_path / "int" / "equidist.csv").read_bytes()


# -- documents ----------------------------------------------------------


def _assert_no_format_version(doc):
    if isinstance(doc, dict):
        assert "format_version" not in doc
        for value in doc.values():
            _assert_no_format_version(value)
    elif isinstance(doc, list):
        for value in doc:
            _assert_no_format_version(value)


def test_every_document_carries_one_version_key(tmp_path, generators_file):
    gen = tmp_path / "gen.json"
    walk, cross, eq = tmp_path / "w", tmp_path / "x", tmp_path / "e"
    assert main(["sample", "--max-len", "2", "--out", str(gen)]) == EXIT_OK
    source = ["--generators", str(generators_file)]
    assert main(["walk", *source, "--steps", "4", "--trials", "2",
                 "--out-dir", str(walk)]) == EXIT_OK
    assert main(["crosscheck", *source, "--max-len", "1",
                 "--out-dir", str(cross)]) == EXIT_OK
    assert main(["equidist", *source, "--max-len", "2",
                 "--out-dir", str(eq)]) == EXIT_OK
    artifact = load_json(walk / "artifact.json")
    assert len(artifact["trials"]) == 2
    docs = [load_json(gen), artifact, *artifact["trials"],
            load_json(cross / "crosscheck.json"),
            load_json(eq / "equidist.json")]
    for doc in docs:
        walk_doc = doc["format"] in ("birwalk-artifact", "birwalk-walk")
        want = WALK_ARTIFACT_VERSION if walk_doc else ARTIFACT_VERSION
        assert doc["version"] == want, doc["format"]
        _assert_no_format_version(doc)
        assert "out_dir" not in doc.get("config", {})


# -- compare ------------------------------------------------------------


def _walk_artifact(tmp_path, generators_file, name, seed):
    out = tmp_path / name
    assert main(["walk", "--generators", str(generators_file),
                 "--steps", "6", "--seed", str(seed),
                 "--out-dir", str(out)]) == EXIT_OK
    return out / "artifact.json"


def test_compare_same_artifact_gives_exact_control(tmp_path, generators_file,
                                                   capsys):
    art = _walk_artifact(tmp_path, generators_file, "A", 1)
    capsys.readouterr()
    code = main(["compare", str(art), str(art)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["pairing"] == doc["control_a"] == doc["control_b"]
    assert doc["pairing"] == 4.0 ** -doc["reduced_len"][0]


def test_compare_two_runs_and_out_file(tmp_path, generators_file, capsys):
    art_a = _walk_artifact(tmp_path, generators_file, "A", 1)
    art_b = _walk_artifact(tmp_path, generators_file, "B", 2)
    result = tmp_path / "compare.json"
    code = main(["compare", str(art_a), str(art_b), "--out", str(result)])
    assert code == EXIT_OK
    doc = load_json(result)
    assert doc["pairing"] > 0.0
    assert doc["steps"] == [6, 6]


def test_compare_prints_its_out_document(tmp_path, generators_file, capsys):
    art_a = _walk_artifact(tmp_path, generators_file, "A", 1)
    art_b = _walk_artifact(tmp_path, generators_file, "B", 2)
    result = tmp_path / "compare.json"
    capsys.readouterr()
    assert main(["compare", str(art_a), str(art_b),
                 "--out", str(result)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed == _stdlib_text(json.loads(printed))
    assert result.read_text() == printed


def test_compare_rejects_different_tuples(tmp_path, generators_file, capsys):
    other_gens = tmp_path / "other.json"
    from birwalk.maps import sample_generators
    dump_json(other_gens,
              generators_to_jsonable(sample_generators(2, 5,
                                                       random.Random(3))))
    art_a = _walk_artifact(tmp_path, generators_file, "A", 1)
    art_b = _walk_artifact(tmp_path, other_gens, "B", 1)
    code = main(["compare", str(art_a), str(art_b)])
    assert code == EXIT_INVARIANT
    assert "different generator tuples" in capsys.readouterr().err


def test_compare_rejects_non_artifact(tmp_path, generators_file, capsys):
    art = _walk_artifact(tmp_path, generators_file, "A", 1)
    code = main(["compare", str(generators_file), str(art)])
    assert code == EXIT_INVARIANT
    assert "not a walk artifact" in capsys.readouterr().err


def _one_stderr_line(capsys):
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1, err
    return err


def test_compare_rejects_a_malformed_artifact(tmp_path, capsys):
    # the format tag alone: no generators, no trials
    bare = tmp_path / "a.json"
    dump_json(bare, {"format": "birwalk-artifact"})
    assert main(["compare", str(bare), str(bare)]) == EXIT_INVARIANT
    assert "malformed walk artifact" in _one_stderr_line(capsys)


@pytest.mark.parametrize("doc", [{"format": "birwalk-artifact"},
                                 {"format": "birwalk-generators"},
                                 [1, 2, 3]])
@pytest.mark.parametrize("command", ["walk", "crosscheck", "equidist"])
def test_a_non_generator_document_exits_invariant(tmp_path, capsys, doc,
                                                  command):
    path = tmp_path / "not_generators.json"
    dump_json(path, doc)
    depth = ["--steps", "2"] if command == "walk" else ["--max-len", "2"]
    code = main([command, "--generators", str(path), *depth,
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_INVARIANT
    assert str(path) in _one_stderr_line(capsys)


def test_a_generators_file_that_is_not_json_exits_invariant(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format": ')
    assert main(["walk", "--generators", str(path)]) == EXIT_INVARIANT
    assert "is not JSON" in _one_stderr_line(capsys)


@pytest.mark.parametrize("case", [
    "config_not_json", "config_not_an_object", "config_unknown_field",
    "config_retired_field", "negative_steps", "zero_height",
    "negative_checkpoints", "missing_config", "missing_generators",
    "missing_artifact"])
def test_unreadable_or_malformed_input_exits_invariant(tmp_path, capsys,
                                                       generators_file, case):
    config = tmp_path / "config.json"
    texts = {"config_not_json": '{"steps": ', "config_not_an_object": "[1, 2]",
             "config_unknown_field": '{"bogus": 1}',
             "config_retired_field": '{"mode": "exact"}'}
    if case in texts:
        config.write_text(texts[case])
    missing = str(tmp_path / "absent.json")
    walk = ["walk", "--generators", str(generators_file),
            "--out-dir", str(tmp_path / "out")]
    argv, named = {
        "negative_steps": (walk + ["--steps", "-1"], "steps"),
        "zero_height": (["sample", "--height", "0"], "height"),
        "negative_checkpoints": (walk + ["--checkpoint-every", "-3"],
                                 "checkpoint_every"),
        "missing_config": (walk + ["--config", missing], missing),
        "missing_generators": (["crosscheck", "--generators", missing],
                               missing),
        "missing_artifact": (["compare", missing, missing], missing),
    }.get(case, (walk + ["--config", str(config)], str(config)))
    assert main(argv) == EXIT_INVARIANT
    line = _one_stderr_line(capsys)
    assert named in line
    if case.endswith("field"):
        assert ("bogus" if "unknown" in case else "mode") in line


@pytest.mark.parametrize("argv", [
    ["crosscheck", "--steps", "2"], ["crosscheck", "--seed", "2"],
    ["walk", "--r", "3"], ["walk", "--max-len", "2"],
    ["equidist", "--trials", "2"], ["sample", "--out-dir", "x"]])
def test_a_command_refuses_an_option_it_does_not_read(generators_file, capsys,
                                                      argv):
    if argv[0] != "sample":
        argv = argv + ["--generators", str(generators_file)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_compare_of_walks_whose_replay_aborts_exits_degenerate(
        tmp_path, sigma_pair_file, capsys):
    out = tmp_path / "run"
    assert main(["walk", "--generators", str(sigma_pair_file), "--steps", "4",
                 "--out-dir", str(out)]) == EXIT_DEGENERATE
    capsys.readouterr()
    art = str(out / "artifact.json")
    assert main(["compare", art, art]) == EXIT_DEGENERATE
    assert "replay aborted at step" in _one_stderr_line(capsys)


def test_compare_of_an_artifact_without_trials_exits_invariant(
        tmp_path, generators_file, capsys):
    out = tmp_path / "empty"
    assert main(["walk", "--generators", str(generators_file),
                 "--trials", "0", "--out-dir", str(out)]) == EXIT_OK
    capsys.readouterr()
    art = str(out / "artifact.json")
    assert main(["compare", art, art]) == EXIT_INVARIANT
    assert "no trials to compare" in _one_stderr_line(capsys)


def test_compare_needs_class_tracking(tmp_path, generators_file, capsys):
    out = tmp_path / "light"
    assert main(["walk", "--generators", str(generators_file),
                 "--steps", "20", "--no-classes",
                 "--out-dir", str(out)]) == EXIT_OK
    art = out / "artifact.json"
    code = main(["compare", str(art), str(art)])
    assert code == EXIT_INVARIANT
    assert "class tracking" in capsys.readouterr().err


def _as_older_version(art, tmp_path, version):
    """The artifact as version 1 or 2 wrote it: float-mode fields in the
    config and the trials, and at version 1 the per-step rows too."""
    doc = load_json(art)
    doc["version"] = version
    doc["config"].update(epsilon=1e-9, float_steps_cap=5000)
    for trial in doc["trials"]:
        trial.update(version=version, registry_merges=0,
                     registry_min_separation=None)
        if version == 1:
            trial["rows"] = []
    path = tmp_path / f"v{version}_{art.parent.name}.json"
    dump_json(path, doc)
    return path


@pytest.mark.parametrize("version", [1, 2])
def test_compare_reads_older_exact_artifacts(tmp_path, generators_file,
                                            capsys, version):
    assert WALK_ARTIFACT_VERSION == 3
    art_a = _walk_artifact(tmp_path, generators_file, "A", 1)
    art_b = _walk_artifact(tmp_path, generators_file, "B", 2)
    capsys.readouterr()
    assert main(["compare", str(art_a), str(art_b)]) == EXIT_OK
    want = capsys.readouterr().out
    old_a = _as_older_version(art_a, tmp_path, version)
    old_b = _as_older_version(art_b, tmp_path, version)
    assert main(["compare", str(old_a), str(old_b)]) == EXIT_OK
    assert capsys.readouterr().out == want
    assert main(["compare", str(old_a), str(art_b)]) == EXIT_OK
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("mode", ["float", "modp"])
def test_compare_refuses_a_retired_mode_artifact(tmp_path, generators_file,
                                                 capsys, mode):
    art = _walk_artifact(tmp_path, generators_file, "A", 1)
    old = _as_older_version(art, tmp_path, 2)
    doc = load_json(old)
    doc["trials"][0]["mode"] = mode
    dump_json(old, doc)
    capsys.readouterr()
    for pair in ((old, old), (art, old)):
        assert main(["compare", *map(str, pair)]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert f"{mode} mode is retired" in err and "rerun" in err


def test_deep_walk_and_compare(tmp_path, generators_file, capsys):
    arts = []
    for name, seed in (("A", 1), ("B", 2)):
        out = tmp_path / name
        assert main(["walk", "--generators", str(generators_file),
                     "--steps", "40", "--seed", str(seed),
                     "--out-dir", str(out)]) == EXIT_OK
        arts.append(out / "artifact.json")
        trial = load_json(arts[-1])["trials"][0]
        assert trial["mode"] == "exact"
        # past reduced length 16 points are named by their residues
        assert trial["residue_prime"] == projective.FINGERPRINT_P
        assert trial["final_reduced_len"] > 16
    capsys.readouterr()
    assert main(["compare", *map(str, arts)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["pairing"] > 10.0 * max(doc["control_a"], doc["control_b"])


def test_deep_walk_documents_are_byte_stable(tmp_path, generators_file):
    docs = []
    for name in ("A", "B"):
        out = tmp_path / name
        assert main(["walk", "--generators", str(generators_file),
                     "--steps", "40", "--trials", "2",
                     "--out-dir", str(out)]) == EXIT_OK
        docs.append((out / "artifact.json").read_bytes())
    assert docs[0] == docs[1]
    trials = json.loads(docs[0])["trials"]
    assert max(t["final_reduced_len"] for t in trials) > 16


@pytest.mark.parametrize("prime", [101, None])
def test_walk_past_the_build_budget_exits_degenerate(
        tmp_path, generators_file, capsys, monkeypatch, prime):
    # under a budget of 1,000 bits a trial that reaches reduced length 16
    # cannot be decided at the prime 101, where its hops meet zeros, and
    # at the real prime cannot be written, since its document reads
    # integers of 273,068 bits; either way the command says so
    if prime:
        monkeypatch.setattr(projective, "FINGERPRINT_P", prime)
    monkeypatch.setattr(picard, "BUILD_BITS", 1000)
    out = tmp_path / "run"
    assert main(["walk", "--generators", str(generators_file),
                 "--steps", "16", "--trials", "8",
                 "--out-dir", str(out)]) == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert "undecided: " in err and "budget of 1000 bits" in err
    assert ("a zero mod p" in err) == bool(prime)
    assert ("cannot be written: undecided: reading" in err) != bool(prime)


def test_mode_flag_is_gone(generators_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["walk", "--generators", str(generators_file),
              "--mode", "exact"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


# sha256 of artifact.json from `walk --trials 8` on the certified pair: the
# exact coordinates of every point in every trial's checkpoint classes
_WALK_DIGESTS = {
    (1, 10): "817431a3fa4cda7dbea7954cd0b78072edbfc8608884dcfef51f03d4fac9c5b9",
    (2, 10): "9b1db4d0f933f6ec6ddc7c47834ff0a5d296a424cab63e422818eed09e55ea36",
    (1, 16): "6c6ffc21728de1ffccdd7e43c7476b69a330448c6be7ef4752d1fcae9c038ba4",
}
_COMPARE_DIGEST = \
    "1eebcb068023d12ef74b560dd5a87006fb8e3fbf77300f8693120d80236c96a2"


def test_exact_walk_documents_are_frozen(tmp_path, generators_file, capsys):
    arts = {}
    for seed, steps in _WALK_DIGESTS:
        out = tmp_path / f"s{seed}_{steps}"
        assert main(["walk", "--generators", str(generators_file),
                     "--seed", str(seed), "--steps", str(steps),
                     "--trials", "8", "--out-dir", str(out)]) == EXIT_OK
        arts[seed, steps] = out / "artifact.json"
        digest = hashlib.sha256(arts[seed, steps].read_bytes()).hexdigest()
        assert digest == _WALK_DIGESTS[seed, steps], (seed, steps)
    capsys.readouterr()
    assert main(["compare", str(arts[1, 10]), str(arts[2, 10])]) == EXIT_OK
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode()).hexdigest() == _COMPARE_DIGEST
