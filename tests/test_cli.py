import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sfpp
from sfpp import baselines, bench, calibrator, estimator
from sfpp.cli import ALL_BASELINES, _config_from_args, build_parser, main
from sfpp.errors import DegenerateInputError
from sfpp.ingest import write_array


def without_elapsed(path):
    """A report's bytes with its elapsed_ms value blanked out."""
    return re.sub(rb'"elapsed_ms": [^,\n]+', b'"elapsed_ms": _', Path(path).read_bytes())


def env_with_src():
    """The environment for child interpreters, with the directory `sfpp` was
    imported from, the checkout's `src/` or site-packages, first on PYTHONPATH."""
    src = str(Path(sfpp.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def logits_file(tmp_path):
    rng = np.random.default_rng(307)
    z = np.vstack([
        rng.normal(size=(30, 3)) + np.array([6.0, 0.0, 0.0]),
        rng.normal(size=(30, 3)) + np.array([0.0, 6.0, 0.0]),
        rng.normal(size=(30, 3)) + np.array([0.0, 0.0, 6.0]),
    ])
    p = tmp_path / "logits.npy"
    write_array(p, z)
    return p


@pytest.fixture
def val_files(tmp_path):
    rng = np.random.default_rng(311)
    val = rng.normal(size=(40, 3)) * 2.0
    labels = rng.integers(0, 3, size=40)
    pv, pl = tmp_path / "val.npy", tmp_path / "labels.npy"
    write_array(pv, val)
    write_array(pl, labels)
    return pv, pl


class TestPredict:
    def test_writes_report_and_prints(self, tmp_path, logits_file, capsys):
        out = tmp_path / "report.json"
        code = main(["predict", "--logits", str(logits_file), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        doc = json.loads(out.read_text())
        assert printed == f"{doc['predicted_accuracy']:.4f}"
        assert doc["method"] == "calibrated-gradnorm"
        assert doc["n_samples"] == 90

    def test_two_sample_fixture(self, tmp_path, capsys):
        p = tmp_path / "two.npy"
        write_array(p, np.array([[4.0, 0.0], [0.0, 4.0]]))
        out = tmp_path / "r.json"
        assert main(["predict", "--logits", str(p), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["predicted_accuracy"] in (0.0, 0.5, 1.0)

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["predict", "--logits", str(tmp_path / "nope.npy"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_shape_named_on_stderr(self, tmp_path, capsys):
        z = tmp_path / "z.npy"
        f = tmp_path / "f.npy"
        write_array(z, np.zeros((4, 2)))
        write_array(f, np.zeros((5, 3)))
        code = main(["predict", "--logits", str(z), "--features", str(f),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "target_features" in err and "target_logits" in err

    def test_manifest_input(self, tmp_path, logits_file, capsys):
        mf = tmp_path / "m.manifest"
        mf.write_text(f"target_logits = {logits_file}\n")
        out = tmp_path / "r.json"
        assert main(["predict", "--manifest", str(mf), "--out", str(out)]) == 0

    def test_manifest_with_byte_order_mark(self, tmp_path, logits_file, capsys):
        reports = []
        for tag, mark in (("plain", ""), ("bom", "\ufeff")):
            mf = tmp_path / f"{tag}.manifest"
            mf.write_text(f"{mark}target_logits = {logits_file}\n", encoding="utf-8")
            out = tmp_path / f"{tag}.json"
            assert main(["predict", "--manifest", str(mf), "--out", str(out)]) == 0
            reports.append(without_elapsed(out))
        assert (tmp_path / "bom.manifest").read_bytes()[:3] == b"\xef\xbb\xbf"
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("flag, name, raw", [
        ("--manifest", "m.manifest", b"target_logits = z\xe9.npy\n"),
        ("--logits", "z.csv", b"a,b\n1.0,2.0\n\xff,3.0\n"),
    ])
    def test_file_not_utf8_named_exit_2(self, tmp_path, capsys, flag, name, raw):
        p, out = tmp_path / name, tmp_path / "r.json"
        p.write_bytes(raw)
        assert main(["predict", flag, str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: not UTF-8 text: ")
        assert not out.exists()

    @pytest.mark.parametrize("scale, code", [(1e153, 0), (1e155, 2), (1e300, 2)])
    def test_overflowing_covariance_named_exit_2(self, tmp_path, scale, code):
        rng = np.random.default_rng(317)
        z = rng.normal(size=(50, 4))
        z[np.arange(50), rng.integers(0, 4, 50)] += 2.0
        p, out = tmp_path / "z.npy", tmp_path / "r.json"
        write_array(p, z * scale)
        proc = subprocess.run(
            [sys.executable, "-m", "sfpp.cli", "predict", "--logits", str(p), "--out", str(out)],
            capture_output=True, text=True, env=env_with_src(),
        )
        assert proc.returncode == code
        assert "Warning" not in proc.stderr
        if code == 2:
            assert proc.stderr == (
                "error: logits of shape (50, 4) are too large: their covariance overflows\n")
            assert not out.exists()

    def test_manifest_with_array_flag_exit_2(self, tmp_path, logits_file, capsys):
        other = tmp_path / "other.npy"
        write_array(other, np.zeros((4, 3)))
        mf = tmp_path / "m.manifest"
        mf.write_text(f"target_logits = {logits_file}\n")
        out = tmp_path / "r.json"
        code = main(["predict", "--manifest", str(mf), "--logits", str(other),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--manifest" in err and "target_logits" in err
        assert not out.exists()

    def test_repeated_manifest_key_exit_2(self, tmp_path, logits_file, capsys):
        mf = tmp_path / "m.manifest"
        mf.write_text(f"target_logits = {logits_file}\ntarget_logits = {logits_file}\n")
        code = main(["predict", "--manifest", str(mf), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"{mf}:2: manifest key 'target_logits' repeats line 1" in capsys.readouterr().err

    def test_bias_of_another_shape_exit_2(self, tmp_path, capsys):
        z, bias = tmp_path / "z.npy", tmp_path / "b.npy"
        write_array(z, np.random.default_rng(5).normal(size=(6, 4)))
        write_array(bias, np.zeros((2, 2)))
        code = main(["predict", "--logits", str(z), "--bias", str(bias),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "last_layer_bias" in err and "(2, 2)" in err

    def test_unknown_flag_is_hard_error(self, logits_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--logits", str(logits_file),
                  "--out", str(tmp_path / "r.json"), "--frobnicate"])
        assert exc.value.code == 2


class TestBaseline:
    def test_ac_uniform_prints_quarter(self, tmp_path, capsys):
        p = tmp_path / "u.npy"
        write_array(p, np.zeros((10, 4)))
        out = tmp_path / "r.json"
        code = main(["baseline", "--method", "ac", "--logits", str(p), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.2500"

    def test_source_based_without_val_exit_4(self, tmp_path, logits_file, capsys):
        code = main(["baseline", "--method", "doc", "--logits", str(logits_file),
                     "--out", str(tmp_path / "r.json")])
        assert code == 4

    def test_atc_with_val(self, tmp_path, logits_file, val_files, capsys):
        out = tmp_path / "r.json"
        code = main(["baseline", "--method", "atc-prob", "--logits", str(logits_file),
                     "--val-logits", str(val_files[0]), "--val-labels", str(val_files[1]),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["predicted_accuracy"] <= 1.0

    def test_bad_method_rejected_by_parser(self, logits_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "--method", "agree-score", "--logits", str(logits_file),
                  "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("method", baselines.SOURCE_BASED_METHODS)
    def test_empty_validation_split_named_exit_2(self, tmp_path, capsys, method):
        z, v, y = tmp_path / "z.npy", tmp_path / "v.npy", tmp_path / "y.npy"
        write_array(z, np.random.default_rng(313).normal(size=(50, 4)))
        write_array(v, np.zeros((0, 4)))
        write_array(y, np.zeros(0, dtype=np.int64))
        code = main(["baseline", "--method", method, "--logits", str(z),
                     "--val-logits", str(v), "--val-labels", str(y),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "val_logits" in err and "(0, 4)" in err

    @pytest.mark.parametrize("method", ALL_BASELINES)
    def test_every_method_writes_a_report(self, tmp_path, logits_file, val_files, capsys,
                                          method):
        features = tmp_path / "features.npy"
        write_array(features, np.random.default_rng(331).normal(size=(90, 8)))
        out = tmp_path / "r.json"
        code = main(["baseline", "--method", method, "--logits", str(logits_file),
                     "--features", str(features), "--val-logits", str(val_files[0]),
                     "--val-labels", str(val_files[1]), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == method and doc["n_samples"] == 90
        assert capsys.readouterr().out.strip() == f"{doc['predicted_accuracy']:.4f}"

    def test_csv_labels_as_integral_floats_under_a_header(self, tmp_path, logits_file,
                                                          val_files, capsys):
        val, labels = val_files
        csv = tmp_path / "labels.csv"
        np.savetxt(csv, np.load(labels), fmt="%.1f", header="label", comments="")
        text = csv.read_text()
        assert text.startswith("label\n") and ".0\n" in text
        reports = []
        for given in (labels, csv):
            out = tmp_path / f"{given.suffix[1:]}.json"
            assert main(["baseline", "--method", "doc", "--logits", str(logits_file),
                         "--val-logits", str(val), "--val-labels", str(given),
                         "--out", str(out)]) == 0
            reports.append(without_elapsed(out))
        assert reports[0] == reports[1]

    @pytest.mark.filterwarnings("error")  # no cast of 1e20 to int64
    def test_label_beyond_int64_named_as_read_exit_2(self, tmp_path, logits_file, capsys):
        v, y = tmp_path / "v.npy", tmp_path / "y.csv"
        write_array(v, np.zeros((4, 3)))
        y.write_text("label\n0\n1\n1e20\n2\n")
        code = main(["baseline", "--method", "doc", "--logits", str(logits_file),
                     "--val-logits", str(v), "--val-labels", str(y),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: val_labels must lie in [0, 3), found range [0, 1e+20]\n")


@pytest.mark.parametrize("command", [["predict"], ["baseline", "--method", "ac"]],
                         ids=["predict", "baseline"])
@pytest.mark.parametrize("seed_flag, want", [(["--seed", "7"], 7), ([], None)],
                         ids=["seed", "no-seed"])
def test_cli_stamps_the_seed(tmp_path, logits_file, capsys, command, seed_flag, want):
    out = tmp_path / "r.json"
    argv = [*command, "--logits", str(logits_file), *seed_flag, "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["seed"] == want


class TestNumericFlags:
    @pytest.mark.parametrize("argv, named", [
        (["predict", "--cov-jitter", "nan"], "cov_jitter"),
        (["predict", "--cov-jitter", "inf"], "cov_jitter"),
        (["dump-calibration", "--cov-jitter", "nan"], "cov_jitter"),
        (["baseline", "--method", "atc-energy", "--energy-temperature", "inf"], "energy_temperature"),
        (["baseline", "--method", "atc-energy", "--energy-temperature", "0"], "energy_temperature"),
        (["baseline", "--method", "atc-energy", "--energy-temperature", "nan"], "energy_temperature"),
        (["baseline", "--method", "atc-energy", "--energy-temperature=-1"], "energy_temperature"),
        (["baseline", "--method", "gradnorm", "--temperature", "inf"], "temperature"),
        (["baseline", "--method", "ac", "--temperature", "inf"], "temperature"),
        (["baseline", "--method", "ac", "--energy-temperature=-5"], "energy_temperature"),
        (["baseline", "--method", "nuclear", "--temperature", "0"], "temperature"),
        (["baseline", "--method", "gradnorm", "--energy-temperature", "nan"],
         "energy_temperature"),
        (["baseline", "--method", "doc", "--temperature=-1"], "temperature"),
    ], ids=["predict-jitter-nan", "predict-jitter-inf", "dump-jitter-nan", "energy-inf",
            "energy-zero", "energy-nan", "energy-negative", "gradnorm-temperature-inf",
            "ac-temperature-inf", "ac-energy-negative", "nuclear-temperature-zero",
            "gradnorm-energy-nan", "doc-temperature-negative"])
    def test_bad_value_named_exit_2(self, tmp_path, logits_file, val_files, capsys, argv, named):
        argv = argv + ["--logits", str(logits_file), "--out", str(tmp_path / "out")]
        if argv[0] == "baseline":
            argv += ["--val-logits", str(val_files[0]), "--val-labels", str(val_files[1])]
        assert main(argv) == 2
        assert f"{named} must be finite" in capsys.readouterr().err


class TestOverflowingTemperature:
    @pytest.mark.parametrize("method, flag, named", [
        ("gradnorm", "--temperature", "temperature"),
        ("atc-energy", "--energy-temperature", "energy_temperature"),
    ])
    def test_named_exit_2(self, tmp_path, logits_file, val_files, capsys, method, flag, named):
        argv = ["baseline", "--method", method, flag, "1e-320", "--logits", str(logits_file),
                "--val-logits", str(val_files[0]), "--val-labels", str(val_files[1]),
                "--out", str(tmp_path / "out.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert f"error: {named} 1e-320 overflows" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


class TestOverflowingFeatures:
    """Finite features whose norm squared overflows give no finite gradient
    factor; every command refuses them as a bundle fault, naming the first
    such row (predict and gradnorm used to exit 1 on the report's non-finite
    norms, and ac, which reads no features, to exit 0)."""

    @pytest.mark.parametrize("command", [["predict"], ["baseline", "--method", "gradnorm"],
                                         ["baseline", "--method", "ac"]],
                             ids=["predict", "gradnorm", "ac"])
    def test_named_exit_2(self, tmp_path, logits_file, capsys, command):
        features = np.ones((90, 4))
        features[7:] = 1e200
        f = tmp_path / "f.npy"
        write_array(f, features)
        out = tmp_path / "out.json"
        code = main([*command, "--logits", str(logits_file), "--features", str(f),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: target_features row 7: sqrt(||f||^2 + 1) is not finite\n")
        assert not out.exists()


class TestCalibrationDefaults:
    @pytest.mark.parametrize("command, config", [
        ("predict", estimator.EstimatorConfig),
        ("dump-calibration", calibrator.CalibratorConfig),
    ])
    def test_parsed_defaults_build_the_default_config(self, command, config):
        args = build_parser().parse_args([command, "--out", "unused"])
        assert _config_from_args(config, args) == config()


def small_suite_file(tmp_path):
    docs = [bench.scenario_to_dict(s) for s in [
        bench.BenchScenario(name="c0", seed=5001, class_count=3, feature_dim=4,
                            n_train=120, n_val=200, n_target=150,
                            mean_shift=1.5, cov_scale=1.4, prior_skew=0.2,
                            cluster_spread=2.2, iterations=50, learning_rate=1.0),
        bench.BenchScenario(name="c1", seed=5002, class_count=4, feature_dim=5,
                            n_train=120, n_val=200, n_target=150,
                            mean_shift=2.5, cov_scale=1.6, prior_skew=0.0,
                            cluster_spread=2.2, iterations=50, learning_rate=1.0),
    ]]
    p = tmp_path / "suite.json"
    p.write_text(json.dumps(docs))
    return p


def one_record_suite_file(tmp_path, name):
    """The first record of `small_suite_file`, renamed to `name`."""
    suite = small_suite_file(tmp_path)
    suite.write_text(json.dumps([dict(json.loads(suite.read_text())[0], name=name)]))
    return suite


class TestBench:
    def test_deterministic_outputs_across_thread_counts(self, tmp_path, capsys):
        suite = small_suite_file(tmp_path)
        blobs = {}
        old = os.environ.get("SFPP_THREADS")
        try:
            for threads in ("1", "2", "8"):
                os.environ["SFPP_THREADS"] = threads
                out = tmp_path / f"t{threads}"
                code = main(["bench", "--suite", str(suite), "--ratios", "0.05,1.0",
                             "--trials", "4", "--methods", "ac,doc,cot",
                             "--out", str(out)])
                assert code == 0
                blobs[threads] = (
                    (out / "mae_table.json").read_bytes(),
                    (out / "mae_table.csv").read_bytes(),
                )
        finally:
            if old is None:
                os.environ.pop("SFPP_THREADS", None)
            else:
                os.environ["SFPP_THREADS"] = old
        assert blobs["1"] == blobs["2"] == blobs["8"]

    def test_repeat_run_byte_identical(self, tmp_path, capsys):
        suite = small_suite_file(tmp_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(["bench", "--suite", str(suite), "--ratios", "1.0",
                         "--trials", "2", "--methods", "ac,atc-prob", "--out", str(out)])
            assert code == 0
            outs.append((out / "mae_table.json").read_bytes())
        assert outs[0] == outs[1]

    def test_default_suite_rerun_byte_identical(self, tmp_path, capsys):
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            code = main(["bench", "--suite", "default", "--ratios", "1.0", "--trials", "1",
                         "--seed", "3", "--methods", "ac", "--out", str(out)])
            assert code == 0
            outs.append((out / "mae_table.json").read_bytes()
                        + (out / "mae_table.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_parsed_defaults_are_the_suite_defaults(self):
        args = build_parser().parse_args(["bench", "--out", "unused"])
        assert tuple(float(r) for r in args.ratios.split(",")) == bench.DEFAULT_RATIOS
        assert args.trials == bench.DEFAULT_TRIALS

    def test_suite_file_with_byte_order_mark(self, tmp_path, capsys):
        suite = small_suite_file(tmp_path)
        marked = tmp_path / "bom.json"
        marked.write_bytes(b"\xef\xbb\xbf" + suite.read_bytes())
        tables = []
        for tag, path in (("plain", suite), ("bom", marked)):
            out = tmp_path / tag
            assert main(["bench", "--suite", str(path), "--ratios", "1.0", "--trials", "1",
                         "--methods", "ac,gradnorm", "--out", str(out)]) == 0
            tables.append((out / "mae_table.json").read_bytes()
                          + (out / "mae_table.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_csv_layout(self, tmp_path, capsys):
        suite = small_suite_file(tmp_path)
        out = tmp_path / "o"
        assert main(["bench", "--suite", str(suite), "--ratios", "1.0", "--trials", "1",
                     "--methods", "ac", "--out", str(out)]) == 0
        lines = (out / "mae_table.csv").read_text().splitlines()
        assert lines[0] == "scenario,method,ratio,trial,ae"
        assert len(lines) == 3  # 2 scenarios x 1 ratio x 1 row

    def test_bad_ratio_exit_2(self, tmp_path, capsys):
        assert main(["bench", "--ratios", "0.0,1.0", "--out", str(tmp_path)]) == 2

    def test_bad_suite_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["bench", "--suite", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--trials", "0"),
        ("--trials", "-1"),
        ("--ratios", "abc"),
        ("--ratios", "0.5,0.5"),
        ("--methods", "ac,ac"),
    ])
    def test_bad_flag_named_exit_2(self, tmp_path, capsys, flag, value):
        args ={"--suite": str(small_suite_file(tmp_path)), "--ratios": "0.5,1.0",
                "--trials": "1", "--methods": "ac", "--out": str(tmp_path / "o")}
        args[flag] = value
        code = main(["bench"] + [tok for pair in args.items() for tok in pair])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value", [
        ("class_count", "3"),
        ("class_count", 3.5),
        ("class_count", True),
        ("class_count", 1),
        ("feature_dim", 0),
        ("n_train", 0),
        ("n_val", 0),
        ("n_val", -3),
        ("n_target", 1),
        ("iterations", -5),
        ("seed", 2.0),
        ("mean_shift", float("nan")),
        ("cov_scale", float("inf")),
        ("learning_rate", "1.0"),
        ("prior_skew", None),
        ("name", "a,b"),
        ("name", "a\nb"),
        ("name", ""),
        ("name", 7),
        ("name", "c0"),  # record 0's name
    ])
    def test_bad_suite_record_named_exit_2(self, tmp_path, capsys, field, value):
        suite = small_suite_file(tmp_path)
        docs = json.loads(suite.read_text())
        docs[1][field] = value
        suite.write_text(json.dumps(docs))
        code = main(["bench", "--suite", str(suite), "--ratios", "1.0", "--trials", "1",
                     "--methods", "ac", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "record 1" in err and repr(field) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("record, field", [(0, "colour"), (1, "seed")])
    def test_unknown_and_missing_record_fields_exit_2(self, tmp_path, capsys, record, field):
        suite = small_suite_file(tmp_path)
        docs = json.loads(suite.read_text())
        if field in docs[record]:
            del docs[record][field]
        else:
            docs[record][field] = "red"
        suite.write_text(json.dumps(docs))
        code = main(["bench", "--suite", str(suite), "--trials", "1",
                     "--methods", "ac", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"record {record}" in err and repr(field) in err

    @pytest.mark.parametrize("text", [
        '[{"seed": ' + "9" * 5000 + "}]",  # past Python's 4300-digit integer limit
        "[" * 100_000 + "]" * 100_000,       # past the decoder's recursion limit
        "[{",
    ])
    def test_unreadable_suite_file_named_exit_2(self, tmp_path, capsys, text):
        suite = tmp_path / "suite.json"
        suite.write_text(text)
        code = main(["bench", "--suite", str(suite), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{suite}: not a valid suite file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value, named", [
        ("n_train", 10**12, "'n_train' and 'feature_dim'"),
        ("n_target", bench.MAX_SPLIT_FLOATS // 5 + 1, "'n_target' and 'feature_dim'"),
        ("feature_dim", 10**6, "'n_train' and 'feature_dim'"),
        ("class_count", 10**9, "'class_count' and 'feature_dim'"),
    ])
    def test_oversized_split_named_exit_2(self, tmp_path, capsys, field, value, named):
        suite = small_suite_file(tmp_path)
        docs = json.loads(suite.read_text())
        docs[1][field] = value
        suite.write_text(json.dumps(docs))
        code = main(["bench", "--suite", str(suite), "--ratios", "1.0", "--trials", "1",
                     "--methods", "ac", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "record 1" in err and named in err and str(bench.MAX_SPLIT_FLOATS) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ['"q', 'a"b', "a\tb", "a\x00b", "a\x1fb", "a\ud800b"])
    def test_name_the_tables_cannot_hold_exit_2(self, tmp_path, capsys, name):
        suite = one_record_suite_file(tmp_path, name)
        code = main(["bench", "--suite", str(suite), "--ratios", "1.0", "--trials", "1",
                     "--methods", "ac", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "record 0" in err and "'name'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["a\\b", "ré\\sumé", "\\u0041"])
    def test_name_round_trips_through_both_tables(self, tmp_path, capsys, name):
        suite = one_record_suite_file(tmp_path, name)
        out = tmp_path / "o"
        assert main(["bench", "--suite", str(suite), "--ratios", "1.0", "--trials", "1",
                     "--methods", "ac", "--out", str(out)]) == 0
        doc = json.loads((out / "mae_table.json").read_text("utf-8"))
        assert doc["scenarios"][0]["name"] == name
        assert list(doc["per_scenario_ae"]["ac"]) == [name]
        rows = (out / "mae_table.csv").read_text("utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [name]

    def test_split_at_the_cap_accepted(self):
        doc = bench.scenario_to_dict(bench.default_suite(0)[0])
        doc["n_target"] = bench.MAX_SPLIT_FLOATS // doc["feature_dim"]
        assert bench.scenario_from_dict(doc).n_target == doc["n_target"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # training warns nothing
    @pytest.mark.parametrize("field, value, message", [
        ("cluster_spread", 1e200, "logits contain non-finite entries"),
        ("learning_rate", 1e300,
         "logits of shape (12, 3) are too large: their covariance overflows"),
    ])
    def test_mid_run_failure_names_the_scenario_exit_2(self, tmp_path, capsys,
                                                       field, value, message):
        """A record that passes every field check and fails only in the run
        keeps its error's type and exit code, prefixed with its name."""
        suite = one_record_suite_file(tmp_path, "far")
        doc = dict(json.loads(suite.read_text())[0], n_train=20, n_val=10, n_target=12,
                   iterations=5, **{field: value})
        suite.write_text(json.dumps([doc]))
        code = main(["bench", "--suite", str(suite), "--ratios", "1.0", "--trials", "1",
                     "--methods", estimator.METHOD_ID, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: scenario 'far': {message}\n"
        assert not (tmp_path / "o").exists()
        with pytest.raises(DegenerateInputError, match="^scenario 'far': "):
            bench.run_suite([bench.scenario_from_dict(doc)], methods=[estimator.METHOD_ID],
                            inclusion_ratios=[1.0], trials=1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", [estimator.METHOD_ID, "ac", "cot"])
    def test_far_clusters_warn_nothing_exit_2(self, tmp_path, capsys, method):
        """Training that leaves the float range warns nothing, and every
        estimator names the non-finite logits (the baselines' softmax as the
        calibrator does, not as an overflowing temperature)."""
        suite = one_record_suite_file(tmp_path, "far")
        doc = dict(json.loads(suite.read_text())[0], n_train=20, n_val=10, n_target=12,
                   cluster_spread=1e200)
        suite.write_text(json.dumps([doc]))
        code = main(["bench", "--suite", str(suite), "--ratios", "1.0", "--trials", "1",
                     "--methods", method, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: scenario 'far': logits contain non-finite entries\n")


class TestDumpCalibration:
    def test_writes_four_arrays(self, tmp_path, logits_file, capsys):
        out = tmp_path / "dump"
        code = main(["dump-calibration", "--logits", str(logits_file), "--out", str(out)])
        assert code == 0
        from sfpp.ingest import read_array

        means = read_array(out / "means.npy")
        priors = read_array(out / "log_priors.npy")
        cov = read_array(out / "covariance.npy")
        post = read_array(out / "posteriors.npy")
        assert means.shape == (3, 3) and priors.shape == (3,)
        assert cov.shape == (3, 3)
        assert post.shape == (90, 3)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)
        for name in ("means", "log_priors", "covariance", "posteriors"):
            with open(out / f"{name}.npy", "rb") as fh:
                assert np.lib.format.read_magic(fh) == (1, 0)
                assert np.lib.format.read_array_header_1_0(fh)[2] == np.float64


class TestHelpAndEntryPoint:
    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--logits", "--features", "--weights", "--bias", "--manifest",
                     "--mode", "--cov-jitter", "--normalize-threshold",
                     "--eq5-literal", "--seed", "--out"):
            assert flag in text

    def test_console_script_runs(self, tmp_path):
        p = tmp_path / "u.npy"
        write_array(p, np.zeros((6, 4)))
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "sfpp.cli", "baseline", "--method", "ac",
             "--logits", str(p), "--out", str(out)],
            capture_output=True, text=True, env=env_with_src(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.2500"

    def test_cli_import_needs_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, sfpp.cli; "
             "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, env=env_with_src(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"
