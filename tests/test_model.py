import gc
import hashlib
import sys
import warnings

import numpy as np
import pytest

from ibpdgm import bbvi, distributions as dist, model as mdl, nn, selftest

from oracles import enumerate_binary, reference_heads, reference_log_lik, reference_terms


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
    out, _ = nn.forward(m.encoder, np.zeros((1, 5)))
    mean, var, logits = mdl.split_encoder_out(out, m.K)
    assert np.allclose(mean, 0.0)
    assert np.allclose(var, np.log(2.0) + mdl.VAR_FLOOR)
    assert np.allclose(dist.sigmoid(logits), 0.5)


def test_encode_output_arity():
    m = tiny_model(input_dim=9, truncation=4)
    out, _ = nn.forward(m.encoder, np.random.default_rng(1).random((2, 9)))
    mean, var, logits = mdl.split_encoder_out(out, m.K)
    assert mean.shape == (2, 4)
    assert var.shape == (2, 4)
    assert logits.shape == (2, 4)


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
    assert abs(reference_log_lik(m, (np.log(p) - np.log1p(-p))[None], x)[0]) < 1e-4


def test_likelihood_gaussian_at_mean():
    m = tiny_model(kind="gaussian", input_dim=1)
    # raw variance output whose softplus plus the floor is 1
    out = np.array([[0.7, np.log(np.expm1(1.0 - mdl.VAR_FLOOR))]])
    got = reference_log_lik(m, out, np.array([0.7]))[0]
    assert abs(got - (-0.5 * np.log(2 * np.pi))) < 1e-12


def test_likelihood_kind_mismatch():
    # a Bernoulli decoder emits D logits, a Gaussian one [mean | raw var]
    m = tiny_model(kind="bernoulli")
    gaussian_decoder = tiny_model(kind="gaussian").decoder
    with pytest.raises(ValueError, match="does not match the likelihood kind"):
        mdl.IbpDgm(m.encoder, m.classifier, gaussian_decoder, m.sticks, "bernoulli",
                   1e-2, m.C, m.D)


def test_likelihood_bernoulli_normalizes_d3():
    m = tiny_model(input_dim=3)
    out = mdl.decode(m, np.random.default_rng(12).normal(size=(1, 3)), np.array([[1.0, 0.0]]))
    total = sum(np.exp(reference_log_lik(m, out, x)[0]) for x in enumerate_binary(3))
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
    assert np.allclose(dist.softmax(nn.forward(m.classifier, x)[0]), 0.25)
    assert mdl.predict_batch(m, x)[0] == 0   # lowest index wins ties


def test_classify_simplex():
    m = tiny_model(num_classes=3)
    rng = np.random.default_rng(14)
    for _ in range(20):
        probs = dist.softmax(nn.forward(m.classifier, rng.random((1, 5)))[0])
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

def terms_at_random_draws(m, label, alpha_sup, seed):
    """`reference_terms` of a random binary point at three random rows of
    draws, the sticks held at 0.5; and q(y | x)."""
    rng = np.random.default_rng(seed)
    x = (rng.random(m.D) < 0.5).astype(float)
    ztilde, zhat = rng.normal(size=(3, m.K)), (rng.random((3, m.K)) < 0.5).astype(float)
    terms = reference_terms(m, x, label, ztilde, zhat, np.full(m.K, 0.5), alpha_sup)
    return terms, reference_heads(m, x[None])[3][0]


def test_per_point_terms_single_class_paths_coincide():
    m = tiny_model(num_classes=1, seed=17)
    lab, _ = terms_at_random_draws(m, 0, 1.0, seed=18)
    unl, _ = terms_at_random_draws(m, -1, 1.0, seed=18)
    assert np.max(np.abs(lab["recon"] - unl["recon"])) < 1e-12
    assert abs(lab["term_y"] - unl["term_y"]) < 1e-12  # both 0 at C=1


def test_per_point_terms_labeled_ignores_qy_kl():
    m = tiny_model(seed=19)
    t0, _ = terms_at_random_draws(m, 1, 0.0, seed=20)
    assert t0["term_y"] == 0.0
    t1, q_y = terms_at_random_draws(m, 1, 2.0, seed=20)
    assert abs(t1["term_y"] - 2.0 * dist.categorical_log_prob(1, q_y)) < 1e-12


def test_per_point_terms_unlabeled_uses_uniform_prior():
    m = tiny_model(seed=21)
    terms, q_y = terms_at_random_draws(m, -1, 0.0, seed=22)
    assert abs(terms["term_y"] + dist.categorical_kl_to_uniform(q_y)) < 1e-12


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
    # through generate's float32 pass
    layers = nn.cast_layers(m.decoder, nn.FAST_DTYPE)
    at_zero = dist.sigmoid(mdl.decode(m, np.zeros((1, m.K)), np.eye(m.C)[[0]], layers))
    matches = np.all(np.isclose(means, at_zero, rtol=0.0, atol=1e-12), axis=1)
    assert matches.mean() > 0.99


def test_generate_draws_the_ibp_prior_without_a_gamma_variate(monkeypatch):
    # the sticks come by the prior's inverse CDF, not the Gamma-ratio
    # sampler; the slab is N(0, 1), so spike k is on exactly where z_k != 0,
    # and its on-fraction estimates E[pi_k] = (alpha/(alpha+1))^k
    def refuse(*args):
        raise AssertionError("generate drew a Gamma variate")

    decode, seen = mdl.decode, []

    def recording(m, z, y_embed, layers=None):
        seen.append(z)
        return decode(m, z, y_embed, layers)

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


@pytest.mark.parametrize("kind", mdl.LIKELIHOODS)
def test_generate_decodes_in_float32(monkeypatch, kind):
    # the one decoder pass runs on float32 weights and input; the means are
    # its float32 sigmoid (or Gaussian mean) widened, within float32
    # rounding of decode's float64 pass at the same draws (for Gaussian
    # means, relative to the largest: a mean near 0 keeps the rounding of
    # the larger terms that cancel in it)
    forward, calls = nn.forward, []

    def recording(net, x, layers=None):
        out, tape = forward(net, x, layers)
        calls.append((x, tape))
        return out, tape

    monkeypatch.setattr(nn, "forward", recording)
    m = tiny_model(seed=37, kind=kind, input_dim=6, truncation=4, hidden=16)
    means, _ = mdl.generate(m, 200, np.random.default_rng(38))
    [(x, tape)] = calls
    assert {arr.dtype for pair in tape.layers for arr in pair} == {np.dtype(np.float32)}
    assert tape.inputs[0].dtype == np.float32
    out = tape.outputs[-1]
    assert out.dtype == np.float32
    assert means.dtype == np.float64 and means.shape == (200, m.D)
    if kind == "bernoulli":
        want = dist.sigmoid(out).astype(np.float64)
        exact = dist.sigmoid(mdl.decode(m, x[:, :m.K], x[:, m.K:]))
        assert np.max(np.abs(means - exact)) < 1e-6
    else:
        want = mdl.split_decoder_out(out, m.D)[0].astype(np.float64)
        exact = mdl.split_decoder_out(mdl.decode(m, x[:, :m.K], x[:, m.K:]), m.D)[0]
        assert np.max(np.abs(means - exact)) < 1e-5 * np.max(np.abs(exact))
    assert means.tobytes() == want.tobytes()
    assert np.any(x[:, :m.K] != 0)


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
    assert len(blob) == 8 * total == manifest["blob_bytes"]
    assert manifest["blob_sha256"] == hashlib.sha256(blob).hexdigest()


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


def test_checkpoint_save_that_fails_leaves_the_previous_one(tmp_path, monkeypatch):
    # the blob write fails half-way through the second save: the first
    # checkpoint still loads bit for bit, and no temporary file is left
    first, second = tiny_model(seed=39), tiny_model(seed=40)
    path = str(tmp_path / "model.ckpt")
    mdl.save_checkpoint(first, path)
    write = mdl._write_file

    def failing(target, data):
        if target.endswith(".bin.tmp"):
            write(target, data[:len(data) // 2])
            raise OSError("disk full")
        write(target, data)

    monkeypatch.setattr(mdl, "_write_file", failing)
    with pytest.raises(OSError, match="disk full"):
        mdl.save_checkpoint(second, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "model.ckpt.bin"]
    loaded = mdl.load_checkpoint(path)
    for name, arr in first.parameter_groups().items():
        assert arr.tobytes() == loaded.parameter_groups()[name].tobytes(), name


def test_checkpoint_without_blob_checks_still_loads(tmp_path):
    # a manifest written before the byte count and sha256 were recorded
    import json
    m = tiny_model(seed=42)
    path = str(tmp_path / "model.ckpt")
    mdl.save_checkpoint(m, path)
    manifest = json.loads((tmp_path / "model.ckpt").read_text())
    del manifest["blob_bytes"], manifest["blob_sha256"]
    (tmp_path / "model.ckpt").write_text(json.dumps(manifest))
    loaded = mdl.load_checkpoint(path)
    assert loaded.decoder.params.tobytes() == m.decoder.params.tobytes()
