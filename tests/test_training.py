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
    assert cfg.sigma_theta_sq == 1e-2
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


@pytest.mark.parametrize("keys", [
    dict(dataset="synth-ibp"),
    dict(dataset="synth-blobs", likelihood="gaussian", synth_dim=5, labeled_fraction=0.2),
], ids=["bernoulli", "gaussian"])
def test_training_decoder_runs_in_float32(tmp_path, monkeypatch, keys):
    # one training step and its metrics pass: a stray float64 operand would
    # promote the decoder back to float64 without failing anything, so the
    # decoder's passes must see float32 inputs, outputs and tapes, while
    # the encoder and classifier, the returned gradients, Adam's moments and
    # the checkpoint stay float64
    seen = {"forward": [], "backward": [], "likelihood": []}
    forward, backward = nn.forward, nn.backward
    estimate, adam_step = bbvi.estimate_elbo_and_grads, nn.adam_step

    def tape_dtypes(tape):
        return {a.dtype for a in (*tape.inputs, *tape.preacts,
                                  *(p for layer in tape.layers for p in layer))}

    def spied_forward(net, x, *args, **kwargs):
        out, tape = forward(net, x, *args, **kwargs)
        seen["forward"].append((net, {np.asarray(x).dtype, out.dtype},
                                tape_dtypes(tape)))
        return out, tape

    def spied_backward(net, tape, grad_out):
        grads, g_in = backward(net, tape, grad_out)
        assert grads.dtype == np.float64
        seen["backward"].append((net, {grad_out.dtype, g_in.dtype},
                                 tape_dtypes(tape)))
        return grads, g_in

    def spied_likelihood(fn):
        def spied(kind, dec_out, x_pts, input_dim):
            result = fn(kind, dec_out, x_pts, input_dim)
            outputs = result if isinstance(result, tuple) else (result,)
            seen["likelihood"].append({a.dtype for a in (dec_out, x_pts, *outputs)})
            return result
        return spied

    def spied_estimate(*args, **kwargs):
        bd = estimate(*args, **kwargs)
        assert all(g.dtype == np.float64 for g in bd.grads.values())
        return bd

    def spied_adam_step(params, grads, state):
        out = adam_step(params, grads, state)
        assert {a.dtype for a in (params, grads, state.first_moment,
                                  state.second_moment)} == {np.dtype(np.float64)}
        return out

    monkeypatch.setattr(nn, "forward", spied_forward)
    monkeypatch.setattr(nn, "backward", spied_backward)
    monkeypatch.setattr(bbvi, "estimate_elbo_and_grads", spied_estimate)
    monkeypatch.setattr(nn, "adam_step", spied_adam_step)
    for name in ("_likelihood_values", "_likelihood_values_and_grads"):
        monkeypatch.setattr(bbvi, name, spied_likelihood(getattr(bbvi, name)))
    cfg = quick_cfg(tmp_path, **dict(keys, synth_n=30, epochs=1))
    result = training.train(cfg)
    m = result.model
    likelihood = seen.pop("likelihood")
    assert likelihood and all(d == {np.dtype(np.float32)} for d in likelihood)
    for kind, calls in seen.items():
        assert any(net is m.decoder for net, _, _ in calls), kind
        for net, arrays, tape in calls:
            want = np.float32 if net is m.decoder else np.float64
            assert arrays == tape == {np.dtype(want)}, kind

    params = np.concatenate(list(m.parameter_groups().values()))
    assert params.dtype == np.float64
    with open(result.checkpoint_path + ".bin", "rb") as fh:
        assert fh.read() == params.astype("<f8").tobytes()


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
        m, data.features[idx], np.full(cfg.batch_size, -1), cfg.mc_samples,
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
