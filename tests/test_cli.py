import json
import os
import struct

import numpy as np
import pytest

from ibpdgm import bbvi, cli, distributions as dist, model as mdl, training


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


def test_set_flag_beats_config_file(tmp_path):
    cfgp = write_cfg(tmp_path, truncation=21)
    args = cli.make_parser().parse_args(
        ["train", "--config", cfgp, "--set", "truncation=9"])
    assert cli.build_run_config(args).truncation == 9


def test_unknown_config_key_is_usage_error(tmp_path):
    cfgp = write_cfg(tmp_path, truncatoin=21)
    assert cli.main(["train", "--config", cfgp]) == 1


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


def _make_checkpoint(tmp_path, input_dim=4, num_classes=2, rig_perfect=False):
    rng = np.random.default_rng(0)
    m = mdl.build_model(input_dim, num_classes, 3, 4, "gaussian", 2.0, 1e-2, rng)
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
    cfgp = write_cfg(tmp_path, likelihood="gaussian")
    assert cli.main(["eval", "--checkpoint", ckpt, "--amat", str(amat),
                     "--config", cfgp]) == 0
    out = capsys.readouterr().out
    assert "error_rate_percent: 0.0000" in out


def test_eval_dimension_mismatch_is_usage_error(tmp_path):
    ckpt = _make_checkpoint(tmp_path, input_dim=4)
    amat = tmp_path / "data.amat"
    amat.write_text("0.1 0.2 1\n")
    cfgp = write_cfg(tmp_path, likelihood="gaussian")
    assert cli.main(["eval", "--checkpoint", ckpt, "--amat", str(amat),
                     "--config", cfgp]) == 1


def test_report_untrained_all_active_and_json(tmp_path, capsys):
    rng = np.random.default_rng(2)
    m = mdl.build_model(4, 2, 3, 4, "bernoulli", 2.0, 1e-2, rng)
    m.encoder.params[:] = 0.0
    ckpt = str(tmp_path / "model.ckpt")
    mdl.save_checkpoint(m, ckpt)
    amat = tmp_path / "data.amat"
    amat.write_text("\n".join("0 1 0 1 0" for _ in range(6)) + "\n")
    out_dir = str(tmp_path / "rep")
    assert cli.main(["report", "--checkpoint", ckpt, "--amat", str(amat),
                     "--tau", "0.01", "--out", out_dir]) == 0
    text = capsys.readouterr().out
    assert "active_count: 3" in text
    payload = json.load(open(os.path.join(out_dir, "report.json")))
    assert payload["count"] == 3
    assert np.allclose(payload["mean"], 0.5)

    assert cli.main(["report", "--checkpoint", ckpt, "--amat", str(amat),
                     "--tau", "1.0"]) == 0
    assert "active_count: 0" in capsys.readouterr().out


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


def test_selftest_passes_quick(capsys):
    assert cli.main(["selftest", "--reps", "30"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "max rel err" in out   # report carries the worst FD error seen


def test_selftest_catches_injected_sign_error(monkeypatch, capsys):
    import ibpdgm.distributions as d

    original = d.beta_score_grad

    def sabotaged(v, a, b):
        da, db = original(v, a, b)
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
            m, x, None, bbvi.McConfig(num_samples=4), np.random.default_rng(42),
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
