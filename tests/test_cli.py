import csv
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from ibpdgm import bbvi, cli, distributions as dist, model as mdl, training

from test_data import write_idx_pair


def write_cfg(tmp_path, **kv):
    lines = ["# test config"]
    lines += [f"{k} = {v}" for k, v in kv.items()]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def tiny_train_cfg(tmp_path, out, **extra):
    kv = dict(dataset="synth-ibp", synth_n=120, synth_test_n=40,
              synth_features=2, synth_dim=8, truncation=4, hidden=8,
              epochs=2, batch_size=30, mc_samples=2, eval_mc_samples=2, seed=3)
    kv.update(extra)
    return write_cfg(tmp_path, out=out, **kv)


def test_train_writes_metrics_with_fixed_schema(tmp_path, capsys):
    cfgp = tiny_train_cfg(tmp_path, out=str(tmp_path / "run"))
    assert cli.main(["train", "--config", cfgp]) == 0
    header = open(tmp_path / "run" / "metrics.csv").readline().strip()
    assert header == "epoch,elbo,recon,kl_gauss,term_zhat,term_v,term_y,train_err,test_err,n_active"


def test_train_deterministic_flag_bit_identical(tmp_path):
    a = tiny_train_cfg(tmp_path, out=str(tmp_path / "a"))
    assert cli.main(["train", "--config", a, "--seed", "11"]) == 0
    b = tiny_train_cfg(tmp_path, out=str(tmp_path / "b"))
    assert cli.main(["train", "--config", b, "--seed", "11"]) == 0
    ma = (tmp_path / "a" / "metrics.csv").read_bytes()
    mb = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert ma == mb


def test_default_truncation_is_fifty():
    cfg = cli.build_run_config(cli.make_parser().parse_args(["train"]))
    assert cfg.truncation == 50


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("IBPDGM_TRUNCATION", "13")
    cfg = cli.build_run_config(cli.make_parser().parse_args(["train"]))
    assert cfg.truncation == 13


def test_env_reads_only_config_fields(tmp_path, monkeypatch):
    # IBPDGM_MNIST_DIR points the MNIST acceptance test at its files; it
    # names no RunConfig field, so the CLI must pass it by
    monkeypatch.setenv("IBPDGM_MNIST_DIR", str(tmp_path))
    monkeypatch.setenv("IBPDGM_TRUNCATION", "13")
    cfg = cli.build_run_config(cli.make_parser().parse_args(["train"]))
    assert cfg.truncation == 13


def test_set_flag_beats_config_file(tmp_path):
    cfgp = write_cfg(tmp_path, truncation=21)
    args = cli.make_parser().parse_args(
        ["train", "--config", cfgp, "--set", "truncation=9"])
    assert cli.build_run_config(args).truncation == 9


def test_unknown_config_key_is_usage_error(tmp_path):
    cfgp = write_cfg(tmp_path, truncatoin=21)
    assert cli.main(["train", "--config", cfgp]) == 1


@pytest.mark.parametrize("source", ["file", "set"])
@pytest.mark.parametrize("key, value", [("beta1", "0.9"), ("beta2", "0.999"),
                                        ("grad_clip", "10"), ("add_noise", "0"),
                                        ("synth_classes", "2"),
                                        ("synth_separation", "4.0")])
def test_removed_config_key_is_usage_error(tmp_path, key, value, source):
    # Adam's rates, the clip threshold and the synthetic blobs' class count
    # and separation are constants, and add_noise is gone
    out = str(tmp_path / "run")
    if source == "file":
        argv = ["train", "--config", write_cfg(tmp_path, **{key: value}), "--out", out]
    else:
        argv = ["train", "--set", f"{key}={value}", "--out", out]
    assert cli.main(argv) == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("key, value", [("mc_samples", "1"), ("eval_mc_samples", "0"),
                                        ("eval_mc_samples", "-3"), ("synth_n", "0"),
                                        ("synth_test_n", "-3"), ("limit_train", "-1")])
def test_too_few_samples_is_usage_error(tmp_path, capsys, key, value):
    # the leave-one-out control variates need 2 draws, the metrics ELBO 1,
    # a synthetic run 1 training point and no negative count: the config
    # check names the key before any output is written
    out = str(tmp_path / "run")
    assert cli.main(["train", "--set", f"{key}={value}", "--out", out]) == 1
    assert f"error: {key} = {value}:" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key", ["synth_noise", "alpha",
                                 "sigma_theta_sq", "lr", "labeled_fraction",
                                 "alpha_sup", "tau"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_is_usage_error(tmp_path, capsys, key, value):
    # a NaN or an infinity would train until some term turned non-finite;
    # the config check names the key before any output is written
    out = str(tmp_path / "run")
    assert cli.main(["train", "--set", f"{key}={value}", "--out", out]) == 1
    assert f"error: {key} = {value}: must be finite" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key, value, message", [
    ("synth_noise", "-1", "synth_noise = -1.0: must lie in [0, 0.5]"),
    ("synth_noise", "0.7", "synth_noise = 0.7: must lie in [0, 0.5]"),
    ("tau", "-5", "tau = -5.0: must lie in [0, 1]"),
    ("tau", "1.5", "tau = 1.5: must lie in [0, 1]"),
    ("seed", "-1", "seed = -1: must lie in [0, inf)"),
    ("synth_dim", "0", "synth_dim = 0: must lie in [1, inf)"),
    ("synth_features", "-1", "synth_features = -1: must lie in [0, inf)"),
    ("lr", "-1", "lr = -1.0: must lie in (0, inf)"),
    ("alpha", "-1", "alpha = -1.0: must lie in (0, inf)"),
    ("sigma_theta_sq", "-1", "sigma_theta_sq = -1.0: must lie in (0, inf)"),
    ("labeled_fraction", "0", "labeled_fraction = 0.0: must lie in (0, 1)")])
def test_out_of_range_setting_is_usage_error(tmp_path, capsys, key, value, message):
    # a finite value outside what its key accepts: the config check names
    # that key alone, with its value, before any output is written
    out = str(tmp_path / "run")
    assert cli.main(["train", "--set", f"{key}={value}", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("key, value", [("tau", "0"), ("tau", "1"), ("synth_noise", "0"),
                                        ("synth_noise", "0.5"), ("epochs", "0")])
def test_boundary_setting_trains(tmp_path, key, value):
    out = tmp_path / "run"
    cfgp = tiny_train_cfg(tmp_path, out=str(out), epochs=1)
    assert cli.main(["train", "--config", cfgp, "--set", f"{key}={value}"]) == 0
    assert (out / "model.ckpt").exists()


def test_all_unlabeled_amat_trains_and_evals(tmp_path, capsys):
    # every label -1: one class, no error rate, as unlabeled synth-ibp data
    rng = np.random.default_rng(4)
    amat = tmp_path / "unlabeled.amat"
    amat.write_text("".join(" ".join(f"{v:.3f}" for v in row) + " -1\n"
                            for row in rng.random((40, 6))))
    out = tmp_path / "run"
    cfgp = tiny_train_cfg(tmp_path, out=str(out))
    assert cli.main(["train", "--config", cfgp, "--set", "dataset=amat",
                     "--set", f"train_path={amat}"]) == 0
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(math.isnan(float(row["train_err"])) for row in rows)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--amat", str(amat)]) == 0
    assert "error_rate_percent: nan" in capsys.readouterr().out


def test_bad_flag_exits_one():
    assert cli.main(["train", "--nonsense"]) == 1
    assert cli.main([]) == 1


def test_missing_data_file_exits_two(tmp_path):
    ckpt = _make_checkpoint(tmp_path)
    code = cli.main(["eval", "--checkpoint", ckpt,
                     "--amat", str(tmp_path / "missing.amat")])
    assert code == 2


def test_bad_amat_exits_two(tmp_path):
    ckpt = _make_checkpoint(tmp_path)
    bad = tmp_path / "bad.amat"
    bad.write_text("1 2 x\n")
    assert cli.main(["eval", "--checkpoint", ckpt, "--amat", str(bad)]) == 2


def _bad_amat(tmp_path, text):
    path = str(tmp_path / "bad.amat")
    Path(path).write_text(text)
    return ["--amat", path], ["dataset=amat", f"train_path={path}"], path


def _bad_idx(tmp_path, shape, labels, name_images=False):
    images, labels = write_idx_pair(tmp_path, np.zeros(shape, dtype=np.uint8), labels)
    return (["--images", images, "--labels", labels],
            ["dataset=idx", f"images={images}", f"labels={labels}"],
            images if name_images else labels)


# each gives (eval's data flags, train's --set pairs, the file to name)
OUT_OF_RANGE_FILES = {
    "amat_pixel_two": lambda tmp: _bad_amat(tmp, "0 1 0 1 1\n1 0 2 0 0\n"),
    "amat_label_minus_three": lambda tmp: _bad_amat(tmp, "0 1 0 1 1\n1 0 1 0 -3\n"),
    "amat_label_inf": lambda tmp: _bad_amat(tmp, "0 1 0 1 1\n1 0 1 0 inf\n"),
    "amat_label_nan": lambda tmp: _bad_amat(tmp, "0 1 0 1 1\n1 0 1 0 nan\n"),
    "amat_label_two_and_a_half": lambda tmp: _bad_amat(tmp, "0 1 0 1 1\n1 0 1 0 2.5\n"),
    "amat_label_1e19": lambda tmp: _bad_amat(tmp, "0 1 0 1 1\n1 0 1 0 1e19\n"),
    "amat_label_minus_1e19": lambda tmp: _bad_amat(tmp, "0 1 0 1 1\n1 0 1 0 -1e19\n"),
    "amat_label_1e300": lambda tmp: _bad_amat(tmp, "0 1 0 1 1\n1 0 1 0 1e300\n"),
    "idx_label_twelve": lambda tmp: _bad_idx(tmp, (2, 2, 2), [3, 12]),
    "idx_no_images": lambda tmp: _bad_idx(tmp, (0, 2, 2), [], name_images=True),
    "idx_no_pixels": lambda tmp: _bad_idx(tmp, (2, 0, 0), [0, 1], name_images=True),
}


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case", list(OUT_OF_RANGE_FILES))
def test_out_of_range_file_contents_exit_two(tmp_path, capsys, case, command):
    # a value outside the dataset's range, or a file with no data, is a
    # malformed file, not a usage error
    eval_flags, sets, named = OUT_OF_RANGE_FILES[case](tmp_path)
    if command == "train":
        argv = ["train", "--out", str(tmp_path / "run")]
        for pair in sets:
            argv += ["--set", pair]
    else:
        # a pixel of 2 is out of range for the Bernoulli model only
        ckpt = _make_checkpoint(tmp_path, kind="bernoulli")
        argv = ["eval", "--checkpoint", ckpt, *eval_flags]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("test_rows, counts", [
    ("0.1 0.2 0.3 0.4 0.5 1\n", "5 features and 2 classes, but the training set "
                                "has 4 features and 2 classes"),
    ("0.1 0.2 0.3 0.4 3\n", "4 features and 4 classes, but the training set "
                            "has 4 features and 2 classes")], ids=["width", "classes"])
def test_train_on_a_test_set_unlike_the_training_set_exits_two(tmp_path, capsys,
                                                                test_rows, counts):
    # checked before anything trains or is written: the network's width and
    # its classes come from the training set
    train = tmp_path / "train.amat"
    train.write_text("0.1 0.2 0.3 0.4 0\n0.5 0.6 0.7 0.8 1\n")
    test = tmp_path / "test.amat"
    test.write_text(test_rows)
    argv = ["train", "--out", str(tmp_path / "run"), "--set", "dataset=amat",
            "--set", f"train_path={train}", "--set", f"test_path={test}"]
    assert cli.main(argv) == 2
    assert f"data error: {test}: {counts}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sets, keys", [
    ({"images": "i"}, ("images = 'i'", "labels = ''")),
    ({"labels": "l"}, ("images = ''", "labels = 'l'")),
    ({}, ("images = ''", "labels = ''")),
    ({"images": "i", "labels": "l", "test_images": "t"},
     ("test_images = 't'", "test_labels = ''")),
    ({"images": "i", "labels": "l", "test_labels": "t"},
     ("test_images = ''", "test_labels = 't'")),
    ({"dataset": "amat", "test_path": "t"}, ("train_path = ''",)),
], ids=["images_alone", "labels_alone", "no_images", "test_images_alone",
        "test_labels_alone", "amat_without_train_path"])
def test_train_with_a_file_key_missing_exits_one(tmp_path, capsys, sets, keys):
    # a file pair is checked as a pair, before any file is read and before
    # the run directory exists; none of the named files exist
    argv = ["train", "--out", str(tmp_path / "run"), "--set", "dataset=idx"]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(key in err for key in keys), err
    assert not (tmp_path / "run").exists()


def test_train_on_labels_that_skip_a_class_exits_two(tmp_path, capsys):
    # eval accepts a class with no examples; the labeled split of training
    # needs every class below the largest label
    _, sets, _ = _bad_amat(tmp_path, "0.1 0.2 0\n0.3 0.4 0\n0.5 0.6 2\n0.7 0.8 2\n")
    argv = ["train", "--out", str(tmp_path / "run"), "--set", "likelihood=gaussian"]
    for pair in sets:
        argv += ["--set", pair]
    assert cli.main(argv) == 2
    assert "class 1 has no examples" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_with_more_features_than_dimensions_exits_one(tmp_path, capsys):
    # a check across two keys, after `validate`'s one-key loop; training
    # writes nothing before it
    argv = ["train", "--out", str(tmp_path / "run"), "--set", "synth_dim=3"]
    assert cli.main(argv) == 1
    assert "synth_features = 4: must be at most synth_dim = 3" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["eval", "report", "train"],
                         ids=["eval_checkpoint", "report_checkpoint", "train_path"])
def test_directory_where_a_file_belongs_exits_two(tmp_path, capsys, command):
    # each command meets the directory tmp_path where it reads a file: as
    # the checkpoint or as the training data
    amat = tmp_path / "data.amat"
    amat.write_text("0.1 0.2 0.3 0.4 1\n")
    if command == "train":
        argv = ["train", "--out", str(tmp_path / "run"), "--set", "dataset=amat",
                "--set", f"train_path={tmp_path}"]
    else:
        argv = [command, "--checkpoint", str(tmp_path), "--amat", str(amat)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(tmp_path) in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def _corrupt_short_blob(ckpt):
    blob = Path(ckpt + ".bin")
    blob.write_bytes(blob.read_bytes()[:-8])


def _corrupt_manifest_not_json(ckpt):
    Path(ckpt).write_text("{not json")


def _corrupt_swapped_blob(ckpt):
    # the blob of another checkpoint of the same shape
    other = Path(ckpt).parent / "other"
    other.mkdir()
    rng = np.random.default_rng(5)
    mdl.save_checkpoint(mdl.build_model(4, 2, 3, 4, "gaussian", 2.0, 1e-2, rng),
                        str(other / "model.ckpt"))
    Path(ckpt + ".bin").write_bytes((other / "model.ckpt.bin").read_bytes())


def _corrupt_nan_parameter(ckpt):
    # a NaN the manifest's sha256 agrees with, so only the finiteness check
    # can reject it
    flat = np.frombuffer(Path(ckpt + ".bin").read_bytes(), dtype="<f8").copy()
    flat[3] = np.nan
    blob = flat.tobytes()
    Path(ckpt + ".bin").write_bytes(blob)
    manifest = json.loads(Path(ckpt).read_text())
    manifest["blob_sha256"] = hashlib.sha256(blob).hexdigest()
    Path(ckpt).write_text(json.dumps(manifest))


@pytest.mark.parametrize("corrupt", [_corrupt_short_blob, _corrupt_manifest_not_json,
                                     _corrupt_swapped_blob, _corrupt_nan_parameter],
                         ids=["short_blob", "not_json", "swapped_blob", "nan_parameter"])
def test_corrupt_checkpoint_exits_two(tmp_path, capsys, corrupt):
    ckpt = _make_checkpoint(tmp_path)
    corrupt(ckpt)
    amat = tmp_path / "data.amat"
    amat.write_text("0.1 0.2 0.3 0.4 1\n")
    assert cli.main(["eval", "--checkpoint", ckpt, "--amat", str(amat)]) == 2
    assert ckpt in capsys.readouterr().err


def _make_checkpoint(tmp_path, input_dim=4, num_classes=2, rig_perfect=False,
                     kind="gaussian"):
    rng = np.random.default_rng(0)
    m = mdl.build_model(input_dim, num_classes, 3, 4, kind, 2.0, 1e-2, rng)
    if rig_perfect:
        m.classifier.params[:] = 0.0
        m.classifier.weights(0)[0, 0] = 5.0
        m.classifier.weights(0)[1, 0] = -5.0
        m.classifier.weights(1)[0, 0] = 5.0
        m.classifier.weights(1)[1, 1] = 5.0
    path = str(tmp_path / "model.ckpt")
    mdl.save_checkpoint(m, path)
    return path


def test_eval_perfect_classifier_reports_zero(tmp_path, capsys):
    ckpt = _make_checkpoint(tmp_path, rig_perfect=True)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 4))
    labels = (x[:, 0] < 0).astype(int)
    amat = tmp_path / "data.amat"
    amat.write_text("\n".join(
        " ".join(f"{v:.6f}" for v in row) + f" {lab}"
        for row, lab in zip(x, labels)) + "\n")
    assert cli.main(["eval", "--checkpoint", ckpt, "--amat", str(amat)]) == 0
    out = capsys.readouterr().out
    assert "error_rate_percent: 0.0000" in out


def _normal_amat(tmp_path):
    """An amat file of 20 points with 4 N(0, 1) features and 2 classes,
    which only the Gaussian model reads."""
    rng = np.random.default_rng(3)
    path = tmp_path / "normal.amat"
    path.write_text("".join(" ".join(f"{v:.6f}" for v in rng.normal(size=4))
                            + f" {i % 2}\n" for i in range(20)))
    return str(path)


def test_eval_reads_the_likelihood_from_the_checkpoint(tmp_path, capsys):
    amat = _normal_amat(tmp_path)
    gauss = _make_checkpoint(tmp_path)
    assert cli.main(["eval", "--checkpoint", gauss, "--amat", amat]) == 0
    assert "error_rate_percent" in capsys.readouterr().out
    bern = _make_checkpoint(tmp_path, kind="bernoulli")
    assert cli.main(["eval", "--checkpoint", bern, "--amat", amat]) == 2
    err = capsys.readouterr().err
    assert amat in err and "bernoulli features must lie in [0, 1]" in err


@pytest.mark.parametrize("command, flag", [
    ("eval", ["--config", "run.cfg"]), ("eval", ["--seed", "1"]),
    ("eval", ["--out", "runs"]), ("eval", ["--set", "likelihood=gaussian"]),
    ("report", ["--seed", "1"])],
    ids=["eval-config", "eval-seed", "eval-out", "eval-set", "report-seed"])
def test_eval_takes_only_checkpoint_and_data_flags(tmp_path, capsys, command, flag):
    # eval reads no configuration, and report draws nothing at random
    argv = [command, "--checkpoint", _make_checkpoint(tmp_path),
            "--amat", _normal_amat(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main([*argv, *flag]) == 1
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "report"])
@pytest.mark.parametrize("idx_flags", [["--images", "--labels"], ["--images"]],
                         ids=["pair", "images"])
def test_a_second_dataset_source_is_usage_error(tmp_path, capsys, command, idx_flags):
    # IDX flags beside --amat are refused before any file is read, even
    # files that do not exist, rather than silently ignored
    argv = [command, "--checkpoint", _make_checkpoint(tmp_path),
            "--amat", _normal_amat(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    for flag in idx_flags:
        argv += [flag, str(tmp_path / ("missing" + flag))]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: provide either --amat or both --images and --labels\n")


@pytest.mark.parametrize("key, value, message", [
    ("mc_samples", "1", "mc_samples = 1: must lie in [2, inf)"),
    ("epochs", "-1", "epochs = -1: must lie in [0, inf)"),
    ("labeled_fraction", "0", "labeled_fraction = 0.0: must lie in (0, 1)")],
    ids=["mc_samples", "epochs", "labeled_fraction"])
def test_commands_ignore_training_only_settings(tmp_path, monkeypatch, capsys,
                                                key, value, message):
    # each command checks only the keys it reads, and eval, report and gen
    # read none of these
    monkeypatch.setenv(f"IBPDGM_{key.upper()}", value)
    ckpt, amat = _make_checkpoint(tmp_path), _normal_amat(tmp_path)
    assert cli.main(["eval", "--checkpoint", ckpt, "--amat", amat]) == 0
    assert cli.main(["report", "--checkpoint", ckpt, "--amat", amat]) == 0
    assert cli.main(["gen", "--checkpoint", ckpt, "--n", "2",
                     "--out", str(tmp_path / "gen")]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    assert cli.main(["train", "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, message", [
    ("report", "tau", "nan", "tau = nan: must be finite"),
    ("report", "tau", "-5", "tau = -5.0: must lie in [0, 1]"),
    ("report", "tau", "1.5", "tau = 1.5: must lie in [0, 1]"),
    ("gen", "seed", "-1", "seed = -1: must lie in [0, inf)")])
def test_report_and_gen_check_the_keys_they_read(tmp_path, capsys, command, key,
                                                 value, message):
    # the check runs before the checkpoint is read or any output written
    out = tmp_path / "out"
    argv = [command, "--checkpoint", _make_checkpoint(tmp_path),
            "--set", f"{key}={value}", "--out", str(out)]
    if command == "report":
        argv += ["--amat", _normal_amat(tmp_path)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not out.exists()


def test_eval_dimension_mismatch_is_data_error(tmp_path, capsys):
    ckpt = _make_checkpoint(tmp_path, input_dim=4)
    amat = tmp_path / "data.amat"
    amat.write_text("0.1 0.2 1\n")
    assert cli.main(["eval", "--checkpoint", ckpt, "--amat", str(amat)]) == 2
    assert (f"data error: {amat}: 2 features and 2 classes, but the checkpoint "
            "has 4 features and 2 classes") in capsys.readouterr().err


def test_report_dimension_mismatch_is_data_error(tmp_path, capsys):
    # report checks the dataset's width as eval does, before any network
    # sees it or anything is written; it reads no labels, so their classes
    # are not checked
    ckpt = _make_checkpoint(tmp_path, input_dim=4)
    amat = tmp_path / "data.amat"
    amat.write_text("0.1 0.2 1\n0.3 0.4 7\n")
    out = tmp_path / "rep"
    assert cli.main(["report", "--checkpoint", ckpt, "--amat", str(amat),
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "active_count" not in captured.out
    assert (f"data error: {amat}: 2 features, but the checkpoint has 4 features"
            in captured.err)
    assert not out.exists()


def test_eval_labels_beyond_checkpoint_classes_is_data_error(tmp_path, capsys):
    ckpt = _make_checkpoint(tmp_path, input_dim=2, num_classes=2)
    amat = tmp_path / "data.amat"
    amat.write_text("0.1 0.2 5\n0.3 0.4 7\n0.5 0.6 1\n")
    assert cli.main(["eval", "--checkpoint", ckpt, "--amat", str(amat)]) == 2
    captured = capsys.readouterr()
    assert "error_rate_percent" not in captured.out
    assert (f"data error: {amat}: 2 features and 8 classes, but the checkpoint "
            "has 2 features and 2 classes") in captured.err


def _untrained_report_inputs(tmp_path):
    """A checkpoint whose inclusion probabilities are all 0.5, and data."""
    rng = np.random.default_rng(2)
    m = mdl.build_model(4, 2, 3, 4, "bernoulli", 2.0, 1e-2, rng)
    m.encoder.params[:] = 0.0
    ckpt = str(tmp_path / "model.ckpt")
    mdl.save_checkpoint(m, ckpt)
    amat = tmp_path / "data.amat"
    amat.write_text("\n".join("0 1 0 1 0" for _ in range(6)) + "\n")
    return ckpt, amat


def test_report_untrained_all_active_and_json(tmp_path, capsys):
    ckpt, amat = _untrained_report_inputs(tmp_path)
    out_dir = str(tmp_path / "rep")
    assert cli.main(["report", "--checkpoint", ckpt, "--amat", str(amat),
                     "--set", "tau=0.01", "--out", out_dir]) == 0
    text = capsys.readouterr().out
    assert "active_count: 3" in text
    payload = json.load(open(os.path.join(out_dir, "report.json")))
    assert payload["count"] == 3
    assert np.allclose(payload["mean"], 0.5)

    assert cli.main(["report", "--checkpoint", ckpt, "--amat", str(amat),
                     "--set", "tau=1.0"]) == 0
    assert "active_count: 0" in capsys.readouterr().out


def test_report_reads_tau_from_environment(tmp_path, monkeypatch, capsys):
    # the threshold has one source, RunConfig.tau, so IBPDGM_TAU applies
    ckpt, amat = _untrained_report_inputs(tmp_path)
    monkeypatch.setenv("IBPDGM_TAU", "1.0")
    assert cli.main(["report", "--checkpoint", ckpt, "--amat", str(amat)]) == 0
    text = capsys.readouterr().out
    assert "tau: 1.0" in text and "active_count: 0" in text


@pytest.mark.parametrize("source", ["config", "environment", "set"])
def test_report_writes_under_out_from_every_source(tmp_path, monkeypatch,
                                                   capsys, source):
    # out folds like every other key, as for gen; the --out flag is
    # covered above
    ckpt, amat = _untrained_report_inputs(tmp_path)
    out_dir = tmp_path / "rep"
    argv = ["report", "--checkpoint", ckpt, "--amat", str(amat)]
    if source == "config":
        argv += ["--config", write_cfg(tmp_path, out=out_dir)]
    elif source == "environment":
        monkeypatch.setenv("IBPDGM_OUT", str(out_dir))
    else:
        argv += ["--set", f"out={out_dir}"]
    assert cli.main(argv) == 0
    assert f"written: {out_dir / 'report.json'}" in capsys.readouterr().out
    assert json.load(open(out_dir / "report.json"))["count"] == 3


def test_report_without_out_writes_nothing(tmp_path, monkeypatch, capsys):
    ckpt, amat = _untrained_report_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert cli.main(["report", "--checkpoint", ckpt, "--amat", str(amat)]) == 0
    assert "written" not in capsys.readouterr().out
    assert sorted(os.listdir(tmp_path)) == before


def test_gen_writes_csv(tmp_path):
    ckpt = _make_checkpoint(tmp_path)
    out_dir = str(tmp_path / "gen")
    assert cli.main(["gen", "--checkpoint", ckpt, "--n", "3",
                     "--out", out_dir, "--sample", "--seed", "5"]) == 0
    means = np.loadtxt(os.path.join(out_dir, "generated_means.csv"),
                       delimiter=",")
    assert means.shape == (3, 4)
    samples = np.loadtxt(os.path.join(out_dir, "generated_samples.csv"),
                         delimiter=",")
    assert samples.shape == (3, 4)


@pytest.mark.parametrize("label", ["-1", "2"])
def test_gen_label_outside_classes_is_usage_error(tmp_path, capsys, label):
    # the checkpoint has 2 classes: -1 must not wrap round to class 1, and
    # 2 must not escape as an IndexError
    ckpt = _make_checkpoint(tmp_path, num_classes=2)
    out_dir = tmp_path / "gen"
    assert cli.main(["gen", "--checkpoint", ckpt, "--label", label,
                     "--out", str(out_dir)]) == 1
    assert f"label {label}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", [["--config", "run.cfg"], ["--seed", "1"],
                                  ["--out", "runs"], ["--set", "truncation=3"]])
def test_selftest_takes_only_reps(flag):
    # the suites run at their own pinned seeds and write nothing
    assert cli.main(["selftest", *flag]) == 1


@pytest.mark.parametrize("reps", ["1", "0", "-3"])
def test_selftest_with_fewer_than_two_reps_is_usage_error(capsys, reps):
    # a standard error needs two estimates
    assert cli.main(["selftest", "--reps", reps]) == 1
    assert f"--reps {reps}: must be at least 2" in capsys.readouterr().err


def test_selftest_passes_quick(capsys):
    assert cli.main(["selftest", "--reps", "30"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "max rel err" in out   # report carries the worst FD error seen


def test_selftest_catches_injected_sign_error(monkeypatch, capsys):
    import ibpdgm.distributions as d

    original = d.beta_score_grad

    def sabotaged(log_v, log_1mv, a, b):
        da, db = original(log_v, log_1mv, a, b)
        return -da, db

    monkeypatch.setattr(d, "beta_score_grad", sabotaged)
    assert cli.main(["selftest", "--reps", "30"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] fd/beta_score" in out


def test_selftest_bernoulli_score_row_guards_training(monkeypatch, capsys):
    # a 1% error in the Bernoulli score both moves a training step's
    # encoder gradient and fails its criterion-1 row
    def encoder_grad():
        rng = np.random.default_rng(41)
        m = mdl.build_model(5, 2, 3, 8, "bernoulli", 2.0, 1.0, rng)
        x = (rng.random((4, 5)) < 0.5).astype(float)
        return bbvi.estimate_elbo_and_grads(
            m, x, np.full(4, -1), 4, np.random.default_rng(42),
            dataset_size=40).grads["encoder"]

    before = encoder_grad()
    original = dist.bernoulli_score_grad
    monkeypatch.setattr(dist, "bernoulli_score_grad",
                        lambda z, logits: 1.01 * original(z, logits))
    assert not np.array_equal(encoder_grad(), before)
    assert cli.main(["selftest", "--reps", "30"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] fd/bernoulli_score" in out


def test_selftest_catches_estimator_gradient_error(monkeypatch, capsys):
    # a 1% error in every classifier gradient of the estimator
    import ibpdgm.bbvi as bb

    original = bb._softmax_jacobian_vec
    monkeypatch.setattr(bb, "_softmax_jacobian_vec",
                        lambda probs, g: 1.01 * original(probs, g))
    assert cli.main(["selftest", "--reps", "30"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] fd/estimator" in out


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    import ibpdgm.bbvi as bb

    def blow_up(*args, **kwargs):
        raise bb.NumericError("recon")

    monkeypatch.setattr("ibpdgm.training.bbvi.estimate_elbo_and_grads", blow_up)
    cfgp = tiny_train_cfg(tmp_path, out=str(tmp_path / "run"))
    assert cli.main(["train", "--config", cfgp]) == 3


def _train_one_epoch(tmp_path, monkeypatch, **keys):
    """`ibpdgm train` for one epoch on a tiny model; returns the metrics
    rows and the number of training rows the run loaded."""
    loaded = []
    original = training.load_datasets

    def recording(cfg, rng):
        train, test = original(cfg, rng)
        loaded.append(train.n)
        return train, test

    monkeypatch.setattr(training, "load_datasets", recording)
    out = tmp_path / "run"
    sets = dict(keys, truncation=3, hidden=8, epochs=1, batch_size=10,
                mc_samples=2, eval_mc_samples=2, labeled_fraction=0.2)
    argv = ["train", "--out", str(out), "--seed", "4"]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    assert cli.main(argv) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    return rows, loaded[0]


def _check_metrics(rows):
    assert len(rows) == 1
    for row in rows:
        assert all(math.isfinite(v) for v in row.values()), row
        assert 0.0 <= row["test_err"] <= 100.0


def test_train_from_idx_files(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    paths = {}
    for split, n in (("train", 30), ("test", 12)):
        (tmp_path / split).mkdir()
        images = rng.integers(0, 256, size=(n, 3, 3), dtype=np.uint8)
        paths[split] = write_idx_pair(tmp_path / split, images, [i % 3 for i in range(n)])
    rows, n_train = _train_one_epoch(
        tmp_path, monkeypatch, dataset="idx", images=paths["train"][0],
        labels=paths["train"][1], test_images=paths["test"][0],
        test_labels=paths["test"][1], limit_train=20)
    _check_metrics(rows)
    assert n_train == 20


def test_train_from_amat_files(tmp_path, monkeypatch):
    rng = np.random.default_rng(9)
    paths = {}
    for split, n in (("train", 30), ("test", 12)):
        path = tmp_path / f"{split}.amat"
        path.write_text("".join(
            " ".join(f"{v:.4f}" for v in rng.random(6)) + f" {i % 3}\n"
            for i in range(n)))
        paths[split] = str(path)
    rows, n_train = _train_one_epoch(
        tmp_path, monkeypatch, dataset="amat", train_path=paths["train"],
        test_path=paths["test"])
    _check_metrics(rows)
    assert n_train == 30
