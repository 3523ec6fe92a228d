import json

import pytest

from cstar_mixing import MethodDisagreement, __version__
from cstar_mixing import cli


def run(argv):
    return cli.main(argv)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_example1_flow(tmp_path, capsys):
    rc = run(["example", "1", "--d", "4", "--out", str(tmp_path)])
    assert rc == 0
    doc = read(tmp_path / "example1_d4.report.json")
    assert all(v is True for v in doc["verdicts"].values())
    assert doc["tool_version"] == __version__
    out = capsys.readouterr().out
    assert "ergodic" in out
    assert "report:" in out
    system = read(tmp_path / "example1_d4.json")
    assert system["algebra"]["blocks"] == [1, 1, 1, 1]


def test_classify_replays_a_written_system(tmp_path, capsys):
    assert run(["example", "1", "--d", "4", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "example1_d4.json"
    rc = run(["classify", str(path)])
    assert rc == 0
    doc = read(tmp_path / "example1_d4.report.json")
    assert doc["verdicts"]["exact"] is True
    assert "fixed-space dimension" in capsys.readouterr().out


def test_flags_override_file_config(tmp_path, capsys):
    assert run(["example", "1", "--d", "4", "--out", str(tmp_path)]) == 0
    path = str(tmp_path / "example1_d4.json")
    rc = run(["classify", path, "--tol-spectral", "1e-9",
              "--set", "estimator_n=1024", "--out",
              str(tmp_path / "tuned.json")])
    assert rc == 0
    doc = read(tmp_path / "tuned.json")
    assert doc["config"]["tol_spectral"] == 1e-9
    assert doc["config"]["estimator_n"] == 1024


def test_out_accepts_a_directory(tmp_path, capsys):
    assert run(["example", "1", "--d", "4", "--out", str(tmp_path)]) == 0
    path = str(tmp_path / "example1_d4.json")
    reports = tmp_path / "reports"
    reports.mkdir()
    assert run(["classify", path, "--out", str(reports)]) == 0
    assert (reports / "example1_d4.report.json").exists()
    assert run(["verify", "prop_4_4", "--shape", "2", "--trials", "2",
                "--out", str(reports)]) == 0
    doc = read(reports / "verify_prop_4_4_shape2_t2_s0.json")
    assert doc["passes"] == 2
    assert run(["probe-problem1", "--trials", "2", "--out",
                str(tmp_path / "probes") + "/"]) == 0
    assert (tmp_path / "probes" / "probe_problem1_shape2_t2_s0.json").exists()


def test_bad_set_flag_is_a_validation_error(tmp_path, capsys):
    assert run(["example", "1", "--d", "4", "--out", str(tmp_path)]) == 0
    path = str(tmp_path / "example1_d4.json")
    assert run(["classify", path, "--set", "no_such_field=1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("setting, named", [
    ("dyadic_window=0", "dyadic_window"),
    ("estimator_n=1", "estimator_n"),
    ("estimator_pairs=0", "estimator_pairs"),
    ("exact_power_n=1", "power horizon"),
    ("exact_power_n=24", "power horizon"),
])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_out_of_range_config_exits_2(tmp_path, capsys, setting, named, source):
    # horizons and counts the estimators cannot run with are bad input,
    # whether they come from --set or from a system file's config section
    if source == "flag":
        argv = ["example", "1", "--d", "4", "--out", str(tmp_path),
                "--set", setting]
    else:
        name, _, value = setting.partition("=")
        path = tmp_path / "system.json"
        path.write_text(json.dumps({
            "algebra": {"blocks": [1, 1]},
            "operator": {"kind": "stochastic",
                         "data": [[0.7, 0.3], [0.4, 0.6]]},
            "config": {name: int(value)},
        }))
        argv = ["classify", str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err


def test_invalid_stochastic_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "algebra": {"blocks": [1, 1]},
        "operator": {"kind": "stochastic",
                     "data": [[0.8, 0.3], [0.4, 0.6]]},
    }))
    assert run(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "row 0" in err


def test_unreadable_path_exits_2(tmp_path, capsys):
    assert run(["classify", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_method_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    assert run(["example", "1", "--d", "4", "--out", str(tmp_path)]) == 0
    capsys.readouterr()

    def boom(system, config, seed=0):
        raise MethodDisagreement("spectral and estimator split")
    monkeypatch.setattr(cli, "classify", boom)
    rc = run(["classify", str(tmp_path / "example1_d4.json")])
    assert rc == 3
    assert "method disagreement" in capsys.readouterr().err


def test_defective_peripheral_exits_4(tmp_path, capsys):
    # rank(M - I) = 1 but eigenvalue 1 has algebraic multiplicity 3: the
    # spectral machinery must refuse rather than classify
    path = tmp_path / "defective.json"
    path.write_text(json.dumps({
        "algebra": {"blocks": [1, 1, 1]},
        "operator": {"kind": "superoperator",
                     "data": [[1.0, 0.0, 0.0],
                              [1.0, 1.0, -1.0],
                              [0.0, 0.0, 1.0]]},
        "state": {"blocks": [[[0.5]], [[0.0]], [[0.5]]]},
    }))
    assert run(["classify", str(path)]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_verify_writes_record(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["verify", "prop_4_4", "--shape", "1,2", "--trials", "4",
              "--seed", "1"])
    assert rc == 0
    doc = read(tmp_path / "verify_prop_4_4_shape1x2_t4_s1.json")
    assert doc["theorem"] == "prop_4_4"
    assert doc["passes"] == 4
    assert doc["counterexample"] is None
    out = capsys.readouterr().out
    assert "4/4 trials passed" in out


def test_verify_unknown_theorem_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["verify", "thm_9_9", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert "unknown theorem" in err
    assert "thm_3_2" in err


def test_probe_labels_findings_as_empirical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run(["probe-problem1", "--shape", "2", "--trials", "4"])
    assert rc == 0
    doc = read(tmp_path / "probe_problem1_shape2_t4_s0.json")
    assert doc["label"] == "empirical evidence, not a mathematical answer"
    assert doc["no_counterexample"] is True
    assert "empirical evidence" in capsys.readouterr().out


def test_example2_reports_the_witness(tmp_path, capsys):
    rc = run(["example", "2", "--d", "6", "--k", "1", "--out", str(tmp_path)])
    assert rc == 0
    doc = read(tmp_path / "example2_d6_k1.report.json")
    wit = doc["witnesses"]["rotation_witness"]
    assert wit["residual"] <= 1e-12
    assert len(wit["functional"]["blocks"]) == 6
    assert doc["verdicts"]["strictly_ergodic"] is True
    assert doc["verdicts"]["weakly_mixing"] is False
    assert "rotation witness" in capsys.readouterr().out


def test_example3_flow(tmp_path, capsys):
    rc = run(["example", "3", "--L", "2", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("example3_K1.json", "example3_K1.report.json",
                 "example3_K2.json", "example3_K2.report.json",
                 "example3_chain.json"):
        assert (tmp_path / name).exists()
    chain = read(tmp_path / "example3_chain.json")
    assert chain["channels"]["K1"]["report"].endswith("example3_K1.report.json")
    assert chain["compatibility_residuals"]["K1"]["2"] <= 1e-10
    assert chain["distinct_states"]["volume"] == 2
    assert chain["distinct_states"]["distance"] > 0
    assert read(tmp_path / "example3_K1.report.json")["verdicts"]["exact"] is True
    out = capsys.readouterr().out
    assert "trace-norm distance" in out


def test_example3_validates_p_length(tmp_path, capsys):
    rc = run(["example", "3", "--P", "0.5,0.5", "--out", str(tmp_path)])
    assert rc == 2
    assert "--P expects four" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
