import numpy as np
import pytest

from ibpdgm import bbvi, data as dio, distributions as dist, ibp, model as mdl, nn, training

from oracles import reference_heads, same_bits


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
    cfg = quick_cfg(tmp_path, dataset="synth-blobs", synth_dim=5,
                    likelihood="gaussian", labeled_fraction=0.1)
    result = training.train(cfg)
    assert np.isfinite(result.history[-1][7])   # train_err defined
    assert np.isfinite(result.history[-1][8])   # test_err defined


def test_train_unlabeled_has_nan_error(tmp_path):
    result = training.train(quick_cfg(tmp_path))
    assert np.isnan(result.history[-1][7])


@pytest.mark.parametrize("width, labels, counts", [
    (4, [0, 1], "4 features and 2 classes, but the training set has 6 features "
                "and 2 classes"),
    (6, [0, 2], "6 features and 3 classes, but the training set has 6 features "
                "and 2 classes")], ids=["width", "classes"])
def test_train_rejects_a_passed_test_set_before_writing(tmp_path, width, labels, counts):
    # a test set passed straight to `train` is checked as a loaded one is,
    # before the run directory is made
    rng = np.random.default_rng(3)
    train_data = dio.Dataset(rng.random((20, 6)), np.arange(20) % 2, 2, "bernoulli")
    test_data = dio.Dataset(rng.random((2, width)), labels, 3, "bernoulli")
    cfg = quick_cfg(tmp_path)
    with pytest.raises(dio.DataFormatError, match=f"^the test set: {counts}$"):
        training.train(cfg, train_data, test_data)
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("labeled", [20, 12])
def test_error_rate_copies_the_features_only_for_unlabeled_points(monkeypatch, labeled):
    # an all-labeled set is classified as it is, with no copy; otherwise
    # the labeled rows are
    rng = np.random.default_rng(2)
    m = mdl.build_model(3, 2, 2, 4, "gaussian", 2.0, 1e-2, rng)
    labels = np.full(20, -1)
    labels[:labeled] = rng.integers(0, 2, labeled)
    ds = dio.Dataset(rng.normal(size=(20, 3)), labels, 2, "gaussian")
    seen = []
    predict = mdl.predict_batch

    def spied(m, x):
        seen.append(x)
        return predict(m, x)

    monkeypatch.setattr(mdl, "predict_batch", spied)
    err = training.error_rate(m, ds)
    (x,) = seen
    assert (x is ds.features) == (labeled == 20)
    assert np.array_equal(x, ds.features[:labeled])
    assert err == 100.0 * np.mean(predict(m, x) != labels[:labeled])


def test_predict_batch_chunks_keep_the_argmax_of_one_pass():
    # 5000 rows run as chunks of 2048, 2048 and 904 rows
    rng = np.random.default_rng(23)
    m = mdl.build_model(100, 7, 4, 200, "bernoulli", 2.0, 1e-2, rng)
    m.classifier.params += 0.3 * rng.standard_normal(m.classifier.params.size)
    x = rng.random((5000, 100))
    logits, _ = nn.forward(m.classifier, x,
                           nn.cast_layers(m.classifier, nn.FAST_DTYPE))
    pred = mdl.predict_batch(m, x)
    want = np.argmax(logits, axis=1)
    assert pred.dtype == want.dtype and np.array_equal(pred, want)


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


def test_float32_evaluation_agrees_with_float64(monkeypatch):
    # error_rate and component_report run their passes in float32; on a
    # model with non-zero weights and biases they agree with the networks'
    # float64 heads.  2500 rows span two of inclusion_probs' chunks
    rng = np.random.default_rng(21)
    k, c = 12, 5
    m = mdl.build_model(40, c, k, 64, "bernoulli", 2.0, 1e-2, rng)
    for net in (m.encoder, m.classifier):
        net.params += 0.3 * rng.standard_normal(net.params.size)
    x = (rng.random((2500, 40)) < 0.4).astype(np.float64)

    # the sigmoid runs in the float32 of the encoder's logits, and the
    # result holds it widened to float64
    chunks, nn_forward = [], nn.forward

    def recording_forward(*args, **kwargs):
        out = nn_forward(*args, **kwargs)
        chunks.append(out[0])
        return out

    monkeypatch.setattr(nn, "forward", recording_forward)
    probs = training.inclusion_probs(m, x)
    monkeypatch.undo()
    logits32 = np.concatenate(chunks)
    assert len(chunks) == 2 and logits32.dtype == np.float32
    assert same_bits(probs, dist.sigmoid(logits32).astype(np.float64))

    _, _, logits, p64 = reference_heads(m, x)
    want = dist.sigmoid(logits)
    assert probs.dtype == np.float64 and probs.shape == want.shape
    assert np.max(np.abs(probs - want)) < 1e-5

    # tau halfway between two component means, so some are active and
    # some are not, and no mean lies near the threshold
    means = np.sort(want.mean(axis=0))
    gap = np.argmax(np.diff(means[2:-2])) + 2
    tau = 0.5 * (means[gap] + means[gap + 1])
    ds = dio.Dataset(x, rng.integers(0, c, x.shape[0]), c, "bernoulli")
    report = training.component_report(m, ds, tau)
    assert report.count == ibp.active_components(want, tau).count
    assert 2 < report.count < k - 2

    pred = mdl.predict_batch(m, x)
    assert np.issubdtype(pred.dtype, np.integer)
    top2 = np.sort(p64, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 1e-4
    assert clear.mean() > 0.9
    assert np.array_equal(pred[clear], np.argmax(p64, axis=1)[clear])


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


def test_epoch_metrics_binarize_only_the_rows_they_keep(tmp_path, monkeypatch):
    # above the 4000-point cap the metrics pass draws its rows first, so
    # the uniforms of the points it drops are never drawn
    cfg = quick_cfg(tmp_path, synth_n=4100, synth_test_n=0)
    train_data, _ = training.load_datasets(cfg, np.random.default_rng(0))
    m = mdl.build_model(train_data.dim, train_data.num_classes, cfg.truncation,
                        cfg.hidden, train_data.kind, cfg.alpha,
                        cfg.sigma_theta_sq, np.random.default_rng(1))
    shapes = []
    binarize = dio.binarize_epoch

    def recording(features, rng):
        shapes.append(np.shape(features))
        return binarize(features, rng)

    monkeypatch.setattr(dio, "binarize_epoch", recording)
    training._epoch_metrics(m, train_data, None, cfg, 0.0, 0, 5)
    assert shapes == [(4000, cfg.synth_dim)]


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
    # the precision contract of one training step and its metrics pass.  A
    # stray float64 operand would promote a float32 pass back to float64
    # without failing anything, so every pass is checked: inside estimator
    # calls the decoder sees float32 inputs, outputs and tapes while the
    # encoder and classifier stay float64; outside them, the passes of
    # error_rate and component_report run in float32; the returned
    # gradients, Adam's moments and the checkpoint stay float64
    seen = {"forward": [], "backward": [], "likelihood": [], "eval": []}
    context = []
    forward, backward = nn.forward, nn.backward
    estimate, adam_step = bbvi.estimate_elbo_and_grads, nn.adam_step
    likelihood = bbvi._likelihood

    def tape_dtypes(tape):
        return {a.dtype for a in (*tape.inputs, *tape.outputs,
                                  *(p for layer in tape.layers for p in layer))}

    def spied_forward(net, x, *args, **kwargs):
        out, tape = forward(net, x, *args, **kwargs)
        key = "forward" if context == ["estimate"] else "eval"
        assert context in (["estimate"], ["error_rate"], ["component_report"])
        seen[key].append((net, {np.asarray(x).dtype, out.dtype}, tape_dtypes(tape)))
        return out, tape

    def spied_backward(net, tape, grad_out):
        assert context == ["estimate"]
        grads, g_in = backward(net, tape, grad_out)
        assert grads.dtype == np.float64
        seen["backward"].append((net, {grad_out.dtype, g_in.dtype},
                                 tape_dtypes(tape)))
        return grads, g_in

    def spied_likelihood(kind, dec_out, x_pts, input_dim, with_grads):
        values = likelihood(kind, dec_out, x_pts, input_dim, with_grads)
        seen["likelihood"].append({a.dtype for a in (dec_out, x_pts, values)})
        return values

    def within(name, fn):
        def spied(*args, **kwargs):
            context.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                context.pop()
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
    monkeypatch.setattr(bbvi, "estimate_elbo_and_grads",
                        within("estimate", spied_estimate))
    monkeypatch.setattr(nn, "adam_step", spied_adam_step)
    for name in ("error_rate", "component_report"):
        monkeypatch.setattr(training, name, within(name, getattr(training, name)))
    monkeypatch.setattr(bbvi, "_likelihood", spied_likelihood)
    cfg = quick_cfg(tmp_path, **dict(keys, synth_n=30, epochs=1))
    result = training.train(cfg)
    m = result.model
    likelihood = seen.pop("likelihood")
    assert likelihood and all(d == {np.dtype(np.float32)} for d in likelihood)
    evaluation = seen.pop("eval")
    # synth-ibp is unlabeled, so error_rate runs no pass there
    labeled = keys["dataset"] == "synth-blobs"
    assert ({net for net, _, _ in evaluation}
            == ({m.encoder, m.classifier} if labeled else {m.encoder}))
    # they take the dataset's float64 features and cast them once
    for _, _, tape in evaluation:
        assert tape == {np.dtype(np.float32)}
    for kind, calls in seen.items():
        assert any(net is m.decoder for net, _, _ in calls), kind
        assert any(net is m.encoder for net, _, _ in calls), kind
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


def test_in_place_score_path_keeps_the_bits_of_a_criterion_6_run(tmp_path, monkeypatch):
    # two epochs at the criterion-6 config, with the library's in-place
    # score-function path and with the whole-array expressions patched in
    # its place: the same metrics and checkpoint bytes
    from oracles import SCORE_PATH_UNFUSED
    from test_acceptance import CRITERION_6_CONFIG

    def run(name):
        cfg = training.RunConfig(out=str(tmp_path / name),
                                 **dict(CRITERION_6_CONFIG, epochs=2))
        result = training.train(cfg)
        paths = (result.metrics_path, result.checkpoint_path,
                 result.checkpoint_path + ".bin")
        return [open(path, "rb").read() for path in paths]

    library = run("library")
    for owner, name, unfused in SCORE_PATH_UNFUSED:
        monkeypatch.setattr(owner, name, unfused)
    assert run("unfused") == library


def test_small_alpha_keeps_components_active(tmp_path):
    # q(v) starts at a = b = 1 whatever alpha is; from the prior Beta(0.1, 1)
    # every spike switched off within the first epoch and stayed off
    from test_acceptance import CRITERION_6_CONFIG

    cfg = training.RunConfig(out=str(tmp_path / "c6"),
                             **dict(CRITERION_6_CONFIG, alpha=0.1, epochs=3))
    n_active = [int(row[-1]) for row in training.train(cfg).history]
    assert min(n_active) > 0, n_active
