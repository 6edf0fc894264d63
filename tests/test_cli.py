"""End-to-end command line behavior: artifacts, exit codes, determinism."""

import json
import math
import random

import pytest

from birwalk.cli import EXIT_DEGENERATE, EXIT_INVARIANT, EXIT_OK, main
from birwalk.config import (
    config_to_dict,
    dump_json,
    generators_to_jsonable,
    load_json,
    RunConfig,
)
from birwalk.maps import generator_from_matrices
from birwalk.poly import format_poly
from birwalk.walk import random_itinerary

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
    assert "refusing" in capsys.readouterr().err


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
                 "--mode", "exact", "--steps", "8", "--trials", "2",
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
                 "--mode", "exact", "--steps", "4", "--out-dir", str(out)])
    assert code == EXIT_DEGENERATE
    artifact = load_json(out / "artifact.json")
    assert len(artifact["aborts"]) == 1
    assert "aborted" in capsys.readouterr().err


def test_walk_exact_length_cap_exits_degenerate(tmp_path, generators_file,
                                               capsys):
    config = tmp_path / "config.json"
    dump_json(config, {"exact_len_cap": 3})
    code = main(["walk", "--config", str(config),
                 "--generators", str(generators_file), "--mode", "exact",
                 "--steps", "12", "--out-dir", str(tmp_path / "run")])
    assert code == EXIT_DEGENERATE
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert err[0].startswith("trial 0 (seed 1000) stopped:")
    assert "cap 3" in err[0]


def test_walk_no_classes_runs_long_float(tmp_path, generators_file):
    out = tmp_path / "run"
    code = main(["walk", "--generators", str(generators_file),
                 "--mode", "float", "--steps", "300", "--no-classes",
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    trial = load_json(out / "artifact.json")["trials"][0]
    assert trial["track_classes"] is False
    assert trial["steps_done"] == 300


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


def test_equidist_rejects_bad_curve(tmp_path, generators_file, capsys):
    code = main(["equidist", "--generators", str(generators_file),
                 "--curve", "x^2", "--out-dir", str(tmp_path / "eq")])
    assert code == EXIT_INVARIANT
    assert "bad curve" in capsys.readouterr().err


# -- compare ------------------------------------------------------------


def _walk_artifact(tmp_path, generators_file, name, seed):
    out = tmp_path / name
    assert main(["walk", "--generators", str(generators_file),
                 "--mode", "exact", "--steps", "6", "--seed", str(seed),
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


def test_compare_needs_class_tracking(tmp_path, generators_file, capsys):
    out = tmp_path / "light"
    assert main(["walk", "--generators", str(generators_file),
                 "--mode", "float", "--steps", "20", "--no-classes",
                 "--out-dir", str(out)]) == EXIT_OK
    art = out / "artifact.json"
    code = main(["compare", str(art), str(art)])
    assert code == EXIT_INVARIANT
    assert "class tracking" in capsys.readouterr().err
