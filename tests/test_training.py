import numpy as np
import pytest

from ibpdgm import bbvi, data as dio, model as mdl, nn, training


def quick_cfg(tmp_path, **kw):
    base = dict(
        dataset="synth-ibp", synth_n=120, synth_test_n=40, synth_features=2,
        synth_dim=8, synth_noise=0.02, truncation=4, hidden=8,
        epochs=2, batch_size=30, mc_samples=2, eval_mc_samples=2,
        seed=7, out=str(tmp_path / "run"),
    )
    base.update(kw)
    return training.RunConfig(**base)


def test_train_writes_metrics_and_checkpoint(tmp_path):
    result = training.train(quick_cfg(tmp_path))
    lines = open(result.metrics_path).read().splitlines()
    assert lines[0] == ",".join(training.METRICS_COLUMNS)
    assert len(lines) == 3   # header + one row per epoch
    m = mdl.load_checkpoint(result.checkpoint_path)
    assert m.K == 4


def test_metrics_row_parts_sum_to_elbo(tmp_path):
    result = training.train(quick_cfg(tmp_path))
    row = result.history[-1]
    elbo, recon, kl_gauss, term_zhat, term_v, term_y = row[1:7]
    assert abs(elbo - (recon + kl_gauss + term_zhat + term_v + term_y)) < 1e-9


def test_train_deterministic_metrics(tmp_path):
    a = training.train(quick_cfg(tmp_path, out=str(tmp_path / "a")))
    b = training.train(quick_cfg(tmp_path, out=str(tmp_path / "b")))
    assert open(a.metrics_path).read() == open(b.metrics_path).read()


def test_train_seed_changes_metrics(tmp_path):
    a = training.train(quick_cfg(tmp_path, out=str(tmp_path / "a")))
    b = training.train(quick_cfg(tmp_path, out=str(tmp_path / "b"), seed=8))
    assert open(a.metrics_path).read() != open(b.metrics_path).read()


def test_train_with_labels_uses_stratified_split(tmp_path):
    cfg = quick_cfg(tmp_path, dataset="synth-blobs", synth_classes=2,
                    synth_dim=5, likelihood="gaussian", labeled_fraction=0.1)
    result = training.train(cfg)
    assert np.isfinite(result.history[-1][7])   # train_err defined
    assert np.isfinite(result.history[-1][8])   # test_err defined


def test_train_unlabeled_has_nan_error(tmp_path):
    result = training.train(quick_cfg(tmp_path))
    assert np.isnan(result.history[-1][7])


def test_config_validation():
    with pytest.raises(ValueError):
        training.RunConfig(dataset="nope").validate()
    with pytest.raises(ValueError):
        training.RunConfig(labeled_fraction=1.5).validate()
    for mode in ("sometimes", "unconditional"):   # unlabeled points always marginalize
        with pytest.raises(ValueError):
            training.RunConfig(unlabeled_mode=mode).validate()
    with pytest.raises(ValueError):
        training.RunConfig(lr=-1.0).validate()
    with pytest.raises(ValueError, match="mc_samples"):
        training.RunConfig(mc_samples=1).validate()
    with pytest.raises(ValueError, match="eval_mc_samples"):
        training.RunConfig(eval_mc_samples=0).validate()
    training.RunConfig(mc_samples=2, eval_mc_samples=1).validate()


def test_run_config_paper_defaults():
    cfg = training.RunConfig()
    assert cfg.truncation == 50
    assert cfg.lr == 3e-4
    assert nn.ADAM_BETA1 == 0.9 and nn.ADAM_BETA2 == 0.999
    assert cfg.labeled_fraction == 0.01
    assert cfg.hidden == 500
    assert cfg.sigma_theta_sq in training.SIGMA_THETA_GRID
    assert cfg.mc_samples == 8
    assert cfg.alpha == 2.0
    assert cfg.unlabeled_mode == "marginalize"
    assert cfg.tau == 0.01


def test_error_rate_perfect_and_uniform():
    rng = np.random.default_rng(0)
    m = mdl.build_model(3, 2, 2, 4, "gaussian", 2.0, 1e-2, rng)
    # rig the classifier to a perfect sign detector on x0
    m.classifier.params[:] = 0.0
    m.classifier.weights(0)[0, 0] = 5.0    # hidden0 = relu(5 x0)
    m.classifier.weights(0)[1, 0] = -5.0   # hidden1 = relu(-5 x0)
    m.classifier.weights(1)[0, 0] = 5.0    # logit0 tracks hidden0
    m.classifier.weights(1)[1, 1] = 5.0    # logit1 tracks hidden1
    x = rng.normal(size=(200, 3))
    labels = (x[:, 0] < 0).astype(np.int64)
    ds = dio.Dataset(x, labels, 2, "gaussian")
    assert training.error_rate(m, ds) == 0.0

    # uniform-random predictions on C=10: error approaches 90%
    m10 = mdl.build_model(3, 10, 2, 4, "gaussian", 2.0, 1e-2, rng)
    m10.classifier.params[:] = 0.0   # all logits equal -> always class 0
    labels10 = rng.integers(0, 10, size=5000).astype(np.int64)
    ds10 = dio.Dataset(rng.normal(size=(5000, 3)), labels10, 10, "gaussian")
    err = training.error_rate(m10, ds10)
    assert abs(err - 90.0) < 2.0


def test_error_rate_skips_unlabeled():
    rng = np.random.default_rng(1)
    m = mdl.build_model(3, 2, 2, 4, "gaussian", 2.0, 1e-2, rng)
    ds = dio.Dataset(rng.normal(size=(10, 3)), np.full(10, -1), 2, "gaussian")
    assert np.isnan(training.error_rate(m, ds))


def test_component_report_untrained_is_all_active():
    rng = np.random.default_rng(2)
    m = mdl.build_model(4, 2, 3, 4, "bernoulli", 2.0, 1e-2, rng)
    m.encoder.params[:] = 0.0
    ds = dio.Dataset((rng.random((20, 4)) < 0.5).astype(float),
                     np.full(20, -1), 2, "bernoulli")
    report = training.component_report(m, ds, 0.01)
    assert report.count == 3
    assert np.allclose(report.mean, 0.5)
    report_strict = training.component_report(m, ds, 1.0)
    assert report_strict.count == 0


def test_format_metrics_row_roundtrip():
    row = [3, -1234.56789012345678, float("nan"), 7]
    text = training.format_metrics_row(row)
    parts = text.split(",")
    assert parts[0] == "3" and parts[3] == "7"
    assert float(parts[1]) == -1234.56789012345678
    assert parts[2] == "nan"


def test_step_size_is_robbins_monro():
    assert training.step_size(3e-3, 0) == 3e-3
    lr = [training.step_size(3e-3, e) for e in range(0, 300, 30)]
    assert all(b < a for a, b in zip(lr, lr[1:]))
    # lr / (1 + e / T): the steps sum to infinity, their squares do not
    e = 4 * training.LR_DECAY_EPOCHS
    assert abs(training.step_size(1.0, e) * 5.0 - 1.0) < 1e-12


def test_spike_prior_weight_ramps_over_warmup():
    total = 3000
    warm = training.WARMUP_FRACTION * total
    assert training.spike_prior_weight(0, total) == 0.0
    assert abs(training.spike_prior_weight(warm / 2, total) - 0.5) < 1e-12
    assert training.spike_prior_weight(warm, total) == 1.0
    assert training.spike_prior_weight(total - 1, total) == 1.0


def test_epoch_metrics_run_no_gradient_code(tmp_path, monkeypatch):
    # the metrics read the ELBO's value only: no backward pass and no
    # control-variate fit may run inside them
    calls = {"backward": 0, "cv": 0}
    in_metrics = []

    def counting(name, fun):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fun(*args, **kwargs)
        return wrapper

    def metrics(*args, **kwargs):
        before = dict(calls)
        row = epoch_metrics(*args, **kwargs)
        in_metrics.append({k: calls[k] - before[k] for k in calls})
        return row

    epoch_metrics = training._epoch_metrics
    monkeypatch.setattr(nn, "backward", counting("backward", nn.backward))
    monkeypatch.setattr(bbvi, "control_variate_coeffs",
                        counting("cv", bbvi.control_variate_coeffs))
    monkeypatch.setattr(training, "_epoch_metrics", metrics)
    training.train(quick_cfg(tmp_path))
    assert in_metrics == [{"backward": 0, "cv": 0}] * 2
    assert calls["backward"] > 0 and calls["cv"] > 0     # training steps ran


def test_sample_counts_are_used_as_set(tmp_path, monkeypatch):
    # training draws mc_samples per point and the metrics pass
    # eval_mc_samples, 1 included: it fits no control variate
    seen = set()
    estimate = bbvi.estimate_elbo_and_grads

    def recording(m, x, labels, num_samples, rng, **kwargs):
        seen.add((num_samples, kwargs.get("with_grads", True)))
        return estimate(m, x, labels, num_samples, rng, **kwargs)

    monkeypatch.setattr(bbvi, "estimate_elbo_and_grads", recording)
    training.train(quick_cfg(tmp_path, mc_samples=3, eval_mc_samples=1))
    assert seen == {(3, True), (1, False)}


def test_clip_spares_ordinary_criterion_6_steps(tmp_path):
    # two epochs at the criterion-6 config, then one ordinary step: its
    # gradient must pass unclipped, while a spike of 100 times it is cut
    # down to the threshold
    from test_acceptance import CRITERION_6_CONFIG

    cfg = training.RunConfig(out=str(tmp_path / "c6"),
                             **dict(CRITERION_6_CONFIG, epochs=2))
    m = training.train(cfg).model
    data, _ = training.load_datasets(
        cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(5)[0]))
    rng = np.random.default_rng(3)
    idx = rng.choice(data.n, cfg.batch_size, replace=False)
    bd = bbvi.estimate_elbo_and_grads(
        m, data.features[idx], None, cfg.mc_samples,
        rng, dataset_size=data.n)

    ordinary = {k: g.copy() for k, g in bd.grads.items()}
    norm = bbvi.clip_global_norm(ordinary, training.GRAD_CLIP * data.n) / data.n
    assert norm < training.GRAD_CLIP
    for k, g in bd.grads.items():
        assert np.array_equal(ordinary[k], g)

    spiked = {k: 100.0 * g for k, g in bd.grads.items()}
    assert (bbvi.clip_global_norm(spiked, training.GRAD_CLIP * data.n) / data.n
            > training.GRAD_CLIP)
    after = np.sqrt(sum(float(g @ g) for g in spiked.values())) / data.n
    assert abs(after - training.GRAD_CLIP) < 1e-9
