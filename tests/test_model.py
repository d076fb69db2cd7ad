import gc
import sys
import warnings

import numpy as np
import pytest

from ibpdgm import bbvi, distributions as dist, ibp, model as mdl, nn, selftest

from oracles import draw_latents, enumerate_binary, fd_grad_all, \
    likelihood_log_prob, per_point_elbo_terms, rel_err


def tiny_model(seed=0, kind="bernoulli", input_dim=5, num_classes=2,
               truncation=3, hidden=8):
    rng = np.random.default_rng(seed)
    return mdl.build_model(input_dim, num_classes, truncation, hidden, kind,
                           2.0, 1e-2, rng)


# ---------------------------------------------------------------------------
# encoder heads

def test_encode_zero_weights_gives_default_heads():
    m = tiny_model()
    m.encoder.params[:] = 0.0
    mean, var, logits = mdl.encode(m, np.zeros((1, 5)))
    assert np.allclose(mean, 0.0)
    assert np.allclose(var, np.log(2.0) + 1e-6)
    assert np.allclose(dist.sigmoid(logits), 0.5)


def test_encode_output_arity():
    m = tiny_model(input_dim=9, truncation=4)
    mean, var, logits = mdl.encode(m, np.random.default_rng(1).random((2, 9)))
    assert mean.shape == (2, 4)
    assert var.shape == (2, 4)
    assert logits.shape == (2, 4)


def test_encode_dim_mismatch():
    m = tiny_model()
    with pytest.raises(ValueError):
        mdl.encode(m, np.zeros((1, 7)))


def test_encode_gradient_matches_fd():
    # smooth scalar loss of all three heads, FD over encoder params
    m = tiny_model(seed=3)
    x = np.random.default_rng(4).random((1, 5))

    def loss():
        mean, var, logits = mdl.encode(m, x)
        return float(np.sum(mean ** 2) + np.sum(var) + np.sum(dist.sigmoid(logits)))

    mean, var, logits = mdl.encode(m, x)
    k = m.K
    out, tape = nn.forward(m.encoder, x)
    raw = out[:, k:2 * k]
    head = np.concatenate([
        2.0 * mean,
        np.ones(k) * dist.sigmoid(raw),
        dist.sigmoid(logits) * (1 - dist.sigmoid(logits)),
    ], axis=1)
    grads, _ = nn.backward(m.encoder, tape, head)
    fd = fd_grad_all(loss, m.encoder.params)
    assert max(rel_err(g, f) for g, f in zip(grads, fd)) < 1e-4


# ---------------------------------------------------------------------------
# latent composition

def test_masked_coordinates_get_zero_recon_gradient():
    # zhat_k = 0 must kill the reconstruction gradient on mu_k exactly
    m = tiny_model(seed=5)
    x = (np.random.default_rng(6).random(5) < 0.5).astype(float)
    eps0 = np.random.default_rng(7).normal(size=3)
    zhat0 = np.array([1.0, 0.0, 1.0])

    k = m.K
    enc_out, enc_tape = nn.forward(m.encoder, x[None, :])
    mean, var, _ = mdl.split_encoder_out(enc_out, k)
    ztilde = mean + np.sqrt(var) * eps0[None, :]
    z = ztilde * zhat0[None, :]
    dec_out, dec_tape = nn.forward(
        m.decoder, np.concatenate([z, np.zeros((1, m.C))], axis=1))
    # the likelihood writes its gradient over the decoder output
    bbvi._likelihood(m.likelihood_kind, dec_out, x[None, :], m.D, True)
    _, g_pre = nn.backward(m.decoder, dec_tape, dec_out)
    g_in = g_pre @ dec_tape.layers[0][0]
    assert g_in.shape == (1, k + m.C)
    g_mu_recon = g_in[:, :k] * zhat0[None, :]
    assert g_mu_recon[0, 1] == 0.0


# ---------------------------------------------------------------------------
# decoder and likelihoods

def test_decode_bernoulli_range():
    m = tiny_model(seed=8)
    rng = np.random.default_rng(9)
    for _ in range(10):
        probs = dist.sigmoid(mdl.decode(m, rng.normal(size=(1, 3)), np.array([[1.0, 0.0]])))
        assert np.all((probs > 0) & (probs < 1))


def test_decode_class_conditioning_is_live():
    m = tiny_model(seed=10)
    z = np.random.default_rng(11).normal(size=(1, 3))
    a = mdl.decode(m, z, np.array([[1.0, 0.0]]))
    b = mdl.decode(m, z, np.array([[0.0, 1.0]]))
    assert not np.allclose(a, b)


def test_decode_zero_everything_gives_half():
    m = tiny_model()
    m.decoder.params[:] = 0.0
    out = mdl.decode(m, np.zeros((1, 3)), np.zeros((1, 2)))
    assert np.allclose(dist.sigmoid(out), 0.5)


def test_model_rejects_nonlinear_decoder_output():
    # the decoder output is raw logits or [mean | raw var], and the
    # estimator writes the likelihood gradient over it, which only a linear
    # output layer's backward pass leaves unread
    m = tiny_model()
    relu_out = nn.DenseNet(m.decoder.dims, ["relu", "relu"])
    with pytest.raises(ValueError, match="decoder output activation"):
        mdl.IbpDgm(m.encoder, m.classifier, relu_out, m.sticks, "bernoulli",
                   1e-2, m.C, m.D)


def test_decode_dim_mismatch():
    m = tiny_model()
    with pytest.raises(ValueError):
        mdl.decode(m, np.zeros((1, 4)), np.zeros((1, 2)))


def test_likelihood_bernoulli_perfect_fit():
    m = tiny_model()
    x = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    p = np.clip(x, 1e-6, 1 - 1e-6)
    assert abs(likelihood_log_prob(m, x, np.log(p) - np.log1p(-p))) < 1e-4


def test_likelihood_gaussian_at_mean():
    m = tiny_model(kind="gaussian", input_dim=1)
    # raw variance output whose softplus plus the floor is 1
    out = np.array([0.7, np.log(np.expm1(1.0 - mdl.VAR_FLOOR))])
    got = likelihood_log_prob(m, np.array([0.7]), out)
    assert abs(got - (-0.5 * np.log(2 * np.pi))) < 1e-12


def test_likelihood_kind_mismatch():
    m = tiny_model(kind="bernoulli")
    with pytest.raises(ValueError):
        likelihood_log_prob(m, np.zeros(5), np.zeros(10))   # a Gaussian's width


def test_likelihood_bernoulli_normalizes_d3():
    m = tiny_model(input_dim=3)
    out = mdl.decode(m, np.random.default_rng(12).normal(size=(1, 3)), np.array([[1.0, 0.0]]))
    total = sum(np.exp(likelihood_log_prob(m, x, out))
                for x in enumerate_binary(3))
    assert abs(total - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# decoder weight prior

def test_theta_prior_zero_weights():
    m = tiny_model()
    m.decoder.params[:] = 0.0
    _, grad = mdl.theta_log_prior(m)
    assert np.all(grad == 0.0)


def test_theta_prior_single_weight_value():
    m = tiny_model()
    m.sigma_theta_sq = 1.0
    m.decoder.params[:] = 0.0
    m.decoder.params[0] = 1.0
    value, grad = mdl.theta_log_prior(m)
    n = m.decoder.num_params
    expected = -0.5 * n * np.log(2 * np.pi) - 0.5
    assert abs(value - expected) < 1e-10
    assert abs(grad[0] + 1.0) < 1e-12


# ---------------------------------------------------------------------------
# classifier

def test_classify_zero_weights_uniform_and_tiebreak():
    m = tiny_model(num_classes=4)
    m.classifier.params[:] = 0.0
    x = np.random.default_rng(13).random((1, 5))
    probs = mdl.classify(m, x)
    assert np.allclose(probs, 0.25)
    assert mdl.predict_batch(m, x)[0] == 0   # lowest index wins ties


def test_classify_simplex():
    m = tiny_model(num_classes=3)
    rng = np.random.default_rng(14)
    for _ in range(20):
        probs = mdl.classify(m, rng.random((1, 5)))
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs >= 0)


def test_predict_shift_invariant():
    m = tiny_model(num_classes=3, seed=15)
    x = np.random.default_rng(16).random((1, 5))
    before = mdl.predict_batch(m, x)[0]
    m.classifier.biases(1)[:] += 7.3   # uniform logit shift
    assert mdl.predict_batch(m, x)[0] == before


# ---------------------------------------------------------------------------
# per-point objective routing

def make_draw(m, x, seed=0):
    return draw_latents(m, x, np.random.default_rng(seed))


def test_per_point_terms_single_class_paths_coincide():
    m = tiny_model(num_classes=1, seed=17)
    x = (np.random.default_rng(18).random(5) < 0.5).astype(float)
    draw = make_draw(m, x)
    lab = per_point_elbo_terms(m, x, 0, draw, alpha_sup=1.0)
    unl = per_point_elbo_terms(m, x, None, draw, alpha_sup=1.0)
    assert abs(lab["recon"] - unl["recon"]) < 1e-12
    assert abs(lab["term_y"] - unl["term_y"]) < 1e-12  # both 0 at C=1


def test_per_point_terms_labeled_ignores_qy_kl():
    m = tiny_model(seed=19)
    x = (np.random.default_rng(20).random(5) < 0.5).astype(float)
    draw = make_draw(m, x)
    t0 = per_point_elbo_terms(m, x, 1, draw, alpha_sup=0.0)
    assert t0["term_y"] == 0.0
    t1 = per_point_elbo_terms(m, x, 1, draw, alpha_sup=2.0)
    q_y = mdl.classify(m, x[None])[0]
    assert abs(t1["term_y"] - 2.0 * dist.categorical_log_prob(1, q_y)) < 1e-12


def test_per_point_terms_unlabeled_uses_uniform_prior():
    m = tiny_model(seed=21)
    x = (np.random.default_rng(22).random(5) < 0.5).astype(float)
    draw = make_draw(m, x)
    terms = per_point_elbo_terms(m, x, None, draw)
    q_y = mdl.classify(m, x[None])[0]
    assert abs(terms["term_y"] + dist.categorical_kl_to_uniform(q_y)) < 1e-12


def test_latent_draw_cached_densities_recompute():
    m = tiny_model(seed=25)
    x = (np.random.default_rng(26).random(5) < 0.5).astype(float)
    draw = make_draw(m, x, seed=27)
    mean, var, logits = (head[0] for head in mdl.encode(m, x[None]))
    assert abs(draw.logq_ztilde - dist.gaussian_log_prob(draw.ztilde, mean, var)) < 1e-12
    assert abs(draw.logq_zhat - dist.bernoulli_log_prob(draw.zhat, logits).sum()) < 1e-12
    assert abs(draw.logp_zhat - float(
        ibp.ibp_prior_log_prob_from_sticks(draw.zhat, draw.log_v).sum())) < 1e-12
    assert abs(draw.logp_v - float(
        ibp.sticks_prior_log_prob(draw.log_v, m.sticks.alpha).sum())) < 1e-12
    assert np.array_equal(draw.z, draw.ztilde * draw.zhat)


# ---------------------------------------------------------------------------
# generation

def test_generate_reproducible():
    m = tiny_model(seed=28)
    a, _ = mdl.generate(m, 5, np.random.default_rng(1))
    b, _ = mdl.generate(m, 5, np.random.default_rng(1))
    assert np.array_equal(a, b)


def test_generate_bernoulli_means_in_unit_interval():
    m = tiny_model(seed=29)
    means, samples = mdl.generate(m, 8, np.random.default_rng(2),
                                  sample_observations=True)
    assert np.all((means > 0) & (means < 1))
    assert set(np.unique(samples)) <= {0.0, 1.0}


def test_generate_tiny_alpha_rarely_activates():
    # with alpha = 1e-3 nearly every draw has every spike off, so its mean
    # is the decoder's output at z = 0 for the given label
    rng = np.random.default_rng(30)
    m = mdl.build_model(4, 2, 6, 8, "bernoulli", 1e-3, 1e-2, rng)
    means, _ = mdl.generate(m, 10_000, rng, y=0)
    at_zero = dist.sigmoid(mdl.decode(m, np.zeros((1, m.K)), np.eye(m.C)[[0]]))
    matches = np.all(np.isclose(means, at_zero, rtol=0.0, atol=1e-12), axis=1)
    assert matches.mean() > 0.99


def test_generate_draws_the_ibp_prior_without_a_gamma_variate(monkeypatch):
    # the sticks come by the prior's inverse CDF, not the Gamma-ratio
    # sampler; the slab is N(0, 1), so spike k is on exactly where z_k != 0,
    # and its on-fraction estimates E[pi_k] = (alpha/(alpha+1))^k
    def refuse(*args):
        raise AssertionError("generate drew a Gamma variate")

    decode, seen = mdl.decode, []

    def recording(m, z, y_embed):
        seen.append(z)
        return decode(m, z, y_embed)

    monkeypatch.setattr(dist, "beta_sample_array", refuse)
    monkeypatch.setattr(mdl, "decode", recording)
    rng = np.random.default_rng(31)
    alpha, k, n = 2.0, 5, 100_000
    m = mdl.build_model(4, 2, k, 8, "bernoulli", alpha, 1e-2, rng)
    mdl.generate(m, n, rng)
    on = seen[0] != 0
    expected = (alpha / (alpha + 1.0)) ** np.arange(1, k + 1)
    sem = on.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(on.mean(axis=0) - expected) < 3 * sem)


def test_generate_validates_n():
    m = tiny_model()
    with pytest.raises(ValueError):
        mdl.generate(m, 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# end-to-end gradient check of the estimator at fixed draws

def test_path_gradients_match_fd_end_to_end():
    rng = np.random.default_rng(31)
    for kind in mdl.LIKELIHOODS:
        worst = selftest.estimator_fd_worst(kind, rng)
        assert worst < 1e-4, (kind, worst)


# ---------------------------------------------------------------------------
# checkpoint round trip

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    m = tiny_model(seed=32)
    path = str(tmp_path / "model.ckpt")
    mdl.save_checkpoint(m, path)
    loaded = mdl.load_checkpoint(path)
    for name, arr in m.parameter_groups().items():
        assert np.array_equal(arr, loaded.parameter_groups()[name]), name
    assert loaded.likelihood_kind == m.likelihood_kind
    assert loaded.K == m.K and loaded.C == m.C and loaded.D == m.D
    assert loaded.sigma_theta_sq == m.sigma_theta_sq
    assert loaded.sticks.alpha == m.sticks.alpha


def test_checkpoint_manifest_format(tmp_path):
    import json
    m = tiny_model(seed=33)
    path = str(tmp_path / "model.ckpt")
    mdl.save_checkpoint(m, path)
    manifest = json.loads((tmp_path / "model.ckpt").read_text())
    assert manifest["format_version"] == "IBPDGM-1"
    assert [e["name"] for e in manifest["parameters"]] == [
        "encoder", "classifier", "decoder", "sticks"]
    blob = (tmp_path / "model.ckpt.bin").read_bytes()
    total = sum(e["shape"][0] for e in manifest["parameters"])
    assert len(blob) == 8 * total


def test_checkpoint_rejects_wrong_version(tmp_path):
    import json
    m = tiny_model(seed=34)
    path = str(tmp_path / "model.ckpt")
    mdl.save_checkpoint(m, path)
    manifest = json.loads((tmp_path / "model.ckpt").read_text())
    manifest["format_version"] = "IBPDGM-0"
    (tmp_path / "model.ckpt").write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        mdl.load_checkpoint(path)


def test_checkpoint_load_closes_its_files(tmp_path, monkeypatch):
    # a file left open warns when it is freed, inside a finalizer, where
    # the error can only reach sys.unraisablehook
    m = tiny_model(seed=36)
    path = str(tmp_path / "model.ckpt")
    mdl.save_checkpoint(m, path)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        mdl.load_checkpoint(path)
        gc.collect()
    assert unraisable == []


def test_checkpoint_rejects_truncated_blob(tmp_path):
    m = tiny_model(seed=35)
    path = str(tmp_path / "model.ckpt")
    mdl.save_checkpoint(m, path)
    blob = (tmp_path / "model.ckpt.bin").read_bytes()
    (tmp_path / "model.ckpt.bin").write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        mdl.load_checkpoint(path)
