import json

import pytest

from hodgecheck.cli import main
from hodgecheck.errors import ConfigInvalid, SuiteUnknown
from hodgecheck.report import canonical_json
from hodgecheck.suites import SUITES, RunConfig, run_suites


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        RunConfig(genus_list=()).validate()
    with pytest.raises(ConfigInvalid):
        RunConfig(genus_list=(0,)).validate()
    with pytest.raises(ConfigInvalid):
        RunConfig(genus_list=(2,), n_samples=10).validate()
    with pytest.raises(ConfigInvalid):
        RunConfig(genus_list=(2,), tolerances={"identity": -1.0}).validate()
    with pytest.raises(ConfigInvalid):
        RunConfig(genus_list=(2,), tolerances={"mystery": 1.0}).validate()
    with pytest.raises(SuiteUnknown):
        RunConfig(genus_list=(2,), suites=("nope",)).validate()
    RunConfig(genus_list=(1, 2)).validate()


def test_run_suites_structure():
    cfg = RunConfig(genus_list=(2,), suites=("slice-embed", "rank-locus"),
                    seed=5, eval_trials=5, rank_pairs=5)
    result = run_suites(cfg)
    assert result["passed"] is True
    assert list(result["suites"]) == ["rank-locus", "slice-embed"]
    for name, body in result["suites"].items():
        assert body["suite"] == name
        assert body["passed"] is True
    assert result["config"]["seed"] == 5
    assert "schema_version" in result


@pytest.mark.parametrize("seed", [49, 51])
def test_rank_locus_pencils_have_independent_endpoints(seed):
    # at these seeds the stream first draws a proportional pair of rank-one
    # factors: for the genus-3 rank-one recovery at 49, for a pencil at 51
    cfg = RunConfig(genus_list=(2, 3, 4), suites=("rank-locus",), seed=seed)
    result = run_suites(cfg)
    assert result["passed"] is True


@pytest.mark.parametrize("suite,genus", [("rank-locus", 1), ("slice-embed", 1),
                                         ("curvature-fd", 9), ("dual-identity", 5),
                                         ("forms-identity", 5)])
def test_cli_run_that_verifies_nothing_exits_2(suite, genus, capsys):
    assert main(["--suite", suite, "--genus", str(genus)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert suite in captured.err and f"[{genus}]" in captured.err


def test_nothing_verified_names_each_suite_genera(capsys):
    assert main(["--suite", "dual-identity", "--suite", "rank-locus", "--genus", "5"]) == 2
    err = capsys.readouterr().err
    assert "dual-identity runs at genus 1-4" in err and "rank-locus runs at genus 2-4" in err
    assert main(["--suite", "slice-embed", "--genus", "1"]) == 2
    assert "slice-embed runs at genus 2 and up" in capsys.readouterr().err


def test_curvature_fd_checks_genus_4(tmp_path):
    out = tmp_path / "fd4.json"
    assert main(["--suite", "curvature-fd", "--genus", "4", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["suites"]["curvature-fd"]["checks"]
    assert len(checks) == 6 and all(c["name"].startswith("g4.") for c in checks)


def test_a_suite_runs_the_genera_of_its_row_in_the_config_order():
    cfg = RunConfig(genus_list=(9, 2, 1), suites=("curvature-fd", "rank-locus"), n_tau=1,
                    rank_pairs=2)
    result = run_suites(cfg)
    for name, genera in (("curvature-fd", [2, 1]), ("rank-locus", [2])):
        body = result["suites"][name]
        assert body["params"]["genus_list"] == genera
        filed = [c["name"].split(".")[0] for c in body["checks"]]
        assert list(dict.fromkeys(filed)) == [f"g{g}" for g in genera]


def test_suite_without_checks_is_null_and_does_not_fail_the_run():
    result = run_suites(RunConfig(genus_list=(1,)))
    verdicts = {name: body["passed"] for name, body in result["suites"].items()}
    assert verdicts.pop("rank-locus") is None
    assert verdicts.pop("slice-embed") is None
    assert all(v is True for v in verdicts.values())
    assert result["passed"] is True
    assert '"passed": null' in canonical_json(result)


def test_parallel_matches_serial():
    kwargs = dict(genus_list=(2,), suites=("slice-embed", "curvature-fd"),
                  seed=9, n_tau=2)
    serial = run_suites(RunConfig(**kwargs))
    parallel = run_suites(RunConfig(**kwargs, parallel=True))
    from hodgecheck.report import canonical_json, strip_timing
    assert canonical_json(strip_timing(serial["suites"])) == \
        canonical_json(strip_timing(parallel["suites"]))


def test_cli_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--suite", "slice-embed", "--genus", "2", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["config"]["genus_list"] == [2]
    assert doc["config"]["seed"] == 7


@pytest.mark.parametrize("where", ["missing-dir/report.json", "."])
def test_cli_unwritable_out_exits_2_naming_the_path(where, tmp_path, capsys):
    # a path in a directory that does not exist, and a directory itself
    out = tmp_path / where
    assert main(["--suite", "curvature-fd", "--genus", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hodgecheck: ") and str(out) in captured.err
    assert list(tmp_path.iterdir()) == []


def test_cli_stdout_report(capsys):
    code = main(["--suite", "rank-locus", "--genus", "2", "--seed", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True


def test_cli_unknown_suite(capsys):
    code = main(["--suite", "bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    for name in SUITES:
        assert name in err


def test_cli_bad_samples(capsys):
    assert main(["--samples", "3"]) == 2
    assert "100" in capsys.readouterr().err


def test_cli_bad_tolerance(capsys):
    assert main(["--tol", "bogus=1"]) == 2
    assert main(["--tol", "identity"]) == 2
    assert main(["--tol", "identity=abc"]) == 2


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["slice-embed"], "genus": [2],
                               "seed": 33}))
    code = main(["--config", str(cfg)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 33
    assert doc["config"]["suites"] == ["slice-embed"]


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["slice-embed"], "genus": [2],
                               "seed": 33}))
    code = main(["--config", str(cfg), "--seed", "44"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 44


def test_cli_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mystery": 1}))
    assert main(["--config", str(cfg)]) == 2
    assert "mystery" in capsys.readouterr().err


def test_cli_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VERIFY_SEED", "77")
    code = main(["--suite", "slice-embed", "--genus", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 77
    # explicit flag wins over the environment
    code = main(["--suite", "slice-embed", "--genus", "2", "--seed", "5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 5
    monkeypatch.setenv("VERIFY_SEED", "not-a-number")
    assert main(["--suite", "slice-embed", "--genus", "2"]) == 2


def test_negative_seed_exits_2_from_every_source(tmp_path, capsys, monkeypatch):
    with pytest.raises(ConfigInvalid):
        RunConfig(genus_list=(2,), seed=-1).validate()
    args = ["--suite", "slice-embed", "--genus", "2"]
    assert main(args + ["--seed", "-1"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -3}))
    assert main(args + ["--config", str(cfg)]) == 2
    monkeypatch.setenv("VERIFY_SEED", "-7")
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("non-negative") == 3


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0"])
def test_non_finite_or_zero_tolerance_exits_2(value, tmp_path, capsys):
    args = ["--suite", "forms-identity", "--genus", "1"]
    assert main(args + ["--tol", f"identity={value}"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"identity": float(value)}}))
    assert main(args + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("positive and finite") == 2


def test_config_file_tolerance_that_is_not_a_number_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"identity": "abc"}}))
    assert main(["--suite", "forms-identity", "--genus", "1",
                 "--config", str(cfg)]) == 2
    assert "numbers" in capsys.readouterr().err


def test_zero_rank_pairs_is_rejected():
    # with no pair drawn, every route-agreement check would pass on nothing
    with pytest.raises(ConfigInvalid, match="rank_pairs"):
        run_suites(RunConfig(suites=("rank-locus",), genus_list=(3,), rank_pairs=0))


def test_repeated_genus_or_suite_exits_2_from_every_source(tmp_path, capsys):
    # a repeated entry used to run its cells twice, with one report kept
    with pytest.raises(ConfigInvalid, match=r"repeated genus entries \[2\]"):
        RunConfig(genus_list=(2, 3, 2), suites=("slice-embed",)).validate()
    with pytest.raises(ConfigInvalid, match=r"repeated suite entries \['slice-embed'\]"):
        RunConfig(genus_list=(2,), suites=("slice-embed", "slice-embed")).validate()
    assert main(["--genus", "2", "--genus", "2", "--suite", "slice-embed"]) == 2
    assert main(["--genus", "2", "--suite", "slice-embed,slice-embed"]) == 2
    assert main(["--genus", "2", "--suite", "slice-embed", "--suite", "slice-embed"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["slice-embed", "slice-embed"], "genus": [2]}))
    assert main(["--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"suites": ["slice-embed"], "genus": [2, 2]}))
    assert main(["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("repeated suite entries ['slice-embed']") == 3
    assert captured.err.count("repeated genus entries [2]") == 2


@pytest.mark.parametrize("key,value", [
    ("n_tau", "three"), ("plane_trials", [1]), ("seed", True), ("genus", [True]),
    ("eval_trials", True), ("n_samples", 20000.5), ("rank_pairs", 0), ("rank_pairs", "25")])
def test_config_file_count_that_is_not_a_positive_integer_exits_2(key, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["forms-identity"], "genus": [1], key: value}))
    assert main(["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


@pytest.mark.parametrize("key,value,named", [
    ("tolerances", {"fd": True}, "fd"), ("tolerances", {"slice": "1e-10"}, "slice"),
    ("parallel", "no", "parallel"), ("parallel", 1, "parallel"),
    ("out", ["report.json"], "out")])
def test_config_file_value_of_the_wrong_json_type_exits_2(key, value, named, tmp_path, capsys):
    # file values reach validate() as JSON typed them: nothing casts them first
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["slice-embed"], "genus": [2], key: value}))
    assert main(["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


def test_vanishing_tolerance_is_the_annihilator_plane_bound(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--suite", "positivity-vanishing", "--genus", "3",
                 "--tol", "vanishing=1e-300", "--out", str(out)])
    checks = json.loads(out.read_text())["suites"]["positivity-vanishing"]["checks"]
    check = next(c for c in checks if c["name"] == "g3.annihilator-plane-vanishing")
    assert check["tolerance"] == 1e-300
    assert check["measured"] > 1e-300  # roundoff, about 1e-21
    assert code == 1
