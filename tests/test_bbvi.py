import inspect
import tracemalloc

import numpy as np
import pytest

from ibpdgm import bbvi, distributions as dist, ibp, model as mdl, nn, selftest

from oracles import LatentDraw, bernoulli_log_pmf, control_variate_coeffs_unfused, \
    exact_stick_objective, exact_toy_elbo, fd_grad_all, learning_signals_unfused, \
    make_enumerable_toy, per_point_elbo_terms, same_bits, score_function_grad_unfused, \
    weighted_score_coeff, zero_control_variates


# ---------------------------------------------------------------------------
# control variate coefficients

def test_cv_coeff_perfect_correlation():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(50, 3))
    a = bbvi.control_variate_coeffs(np.full((50, 3), 3.0), h)
    assert np.allclose(a, 3.0, atol=1e-6)


def test_cv_coeff_independent_pair_vanishes():
    rng = np.random.default_rng(1)
    s = 10_000
    h = (rng.random(s) < 0.5).astype(float) - 0.5
    f = rng.standard_normal(s)
    a = bbvi.control_variate_coeffs(f[:, None], h[:, None])
    assert np.max(np.abs(a)) < 0.1


def test_cv_coeff_constant_score_guard():
    # a constant score carries nothing to regress on: each sample falls
    # back to the mean signal of the others
    f = np.repeat([[1.0], [2.0], [3.0]], 2, axis=1)
    assert np.array_equal(bbvi.control_variate_coeffs(f, np.full((3, 2), 0.7)),
                          [[2.5, 2.5], [2.0, 2.0], [1.5, 1.5]])


def test_cv_coeff_needs_two_samples():
    with pytest.raises(ValueError):
        bbvi.control_variate_coeffs(np.ones((1, 2)), np.ones((1, 2)))


def test_loo_coeffs_match_brute_force():
    rng = np.random.default_rng(14)
    f = 5.0 * rng.normal(size=(7, 3))
    h = rng.normal(size=(7, 3))
    got = bbvi.control_variate_coeffs(f, h)
    assert got.shape == (7, 3)
    for s in range(7):
        others = np.arange(7) != s
        for p in range(3):
            fo, ho = f[others, p], h[others, p]
            m = fo.mean()
            want = m + weighted_score_coeff(fo - m, ho)
            assert np.allclose(got[s, p], want, rtol=1e-12, atol=1e-12)


def test_signals_and_scores_must_share_the_sample_axis():
    # signals and scores hold the same samples on axis 0, and the signal
    # broadcasts against the scores over the other axes
    h = np.ones((7, 2))
    for f in (np.ones(7), np.ones((6, 2)), np.ones((6, 1))):
        for fn in (bbvi.control_variate_coeffs, bbvi.score_function_grad):
            with pytest.raises(ValueError):
                fn(f, h)


def test_score_calls_read_the_estimators_layouts_bit_for_bit():
    # the spikes pass (S, B, K) transposed views, the sticks one (N, 1, K)
    # signal against (N, 2, K) scores: each gives the bits of the
    # contiguous (S, B * K) copy and of the tiled (N, 2K) signal
    rng = np.random.default_rng(15)
    f = 40.0 * rng.normal(size=(5, 32, 4))        # (B, S, K), as estimated
    h = rng.normal(size=(5, 32, 4))
    views = f.transpose(1, 0, 2), h.transpose(1, 0, 2)
    copies = [v.reshape(32, -1) for v in views]
    f_v = 40.0 * rng.normal(size=(160, 4))         # (N, K)
    h_v = rng.normal(size=(160, 2, 4))
    for fn in (bbvi.control_variate_coeffs, bbvi.score_function_grad):
        want = fn(*copies)
        assert np.array_equal(fn(*views).reshape(want.shape), want), fn.__name__
        want = fn(np.tile(f_v, 2), h_v.reshape(160, -1))
        assert np.array_equal(fn(f_v[:, None, :], h_v).reshape(want.shape),
                              want), fn.__name__


@pytest.mark.parametrize("layout", ["spikes", "sticks"])
def test_score_calls_keep_the_bits_of_the_whole_array_expressions(layout):
    # the spikes' (S, B, K) signals and scores, as transposed views of
    # (B, S, K) arrays and as the contiguous copies the estimator passes;
    # the sticks' (N, 1, K) signal against (N, 2, K) scores.  Score column
    # 0 is constant over the samples (the fallback to the others' mean
    # signal), and the signals sit 80 nats below 0
    rng = np.random.default_rng(16)
    if layout == "spikes":
        f = 40.0 * rng.normal(size=(5, 32, 4)) - 80.0        # (B, S, K)
        h = rng.normal(size=(5, 32, 4))
        h[..., 0] = -0.2
        f, h = f.transpose(1, 0, 2), h.transpose(1, 0, 2)
        calls = [(f, h), (np.ascontiguousarray(f), np.ascontiguousarray(h))]
    else:
        f = 40.0 * rng.normal(size=(160, 1, 4)) - 80.0
        h = rng.normal(size=(160, 2, 4))
        h[..., 0] = 0.3
        calls = [(f, h)]
    for fn, unfused in ((bbvi.control_variate_coeffs, control_variate_coeffs_unfused),
                        (bbvi.score_function_grad, score_function_grad_unfused)):
        want = unfused(f, h)
        for args in calls:
            before = [a.copy() for a in args]
            assert same_bits(fn(*args), want), fn.__name__
            assert all(same_bits(a, b) for a, b in zip(args, before)), fn.__name__


def test_learning_signals_keep_the_bits_of_the_whole_array_expressions():
    # the estimator's spike and stick signals, built in place on one new
    # array each, at the criterion-6 sample count and mid-warm-up
    rng = np.random.default_rng(17)
    b, s, k = 5, 32, 4
    args = (-500.0 + 40.0 * rng.normal(size=(b, s)),      # recon
            -rng.exponential(size=(b, s, k)),             # logp_zhat_k
            -rng.exponential(size=(b, s, k)),             # logq_zhat_k
            0.37,                                         # prior_weight
            -rng.exponential(size=(b, s, k)),             # expected_spike_priors
            rng.normal(size=(b, s, k)),                   # logp_v_k
            rng.normal(size=(b, s, k)),                   # logq_v_k
            2000)                                         # n_data
    before = [np.copy(a) for a in args]
    got, want = bbvi._learning_signals(*args), learning_signals_unfused(*args)
    assert [g.shape for g in got] == [(s, b, k), (b * s, k)]
    assert all(same_bits(g, w) for g, w in zip(got, want))
    assert all(same_bits(np.asarray(a), a0) for a, a0 in zip(args, before))


def test_loo_grad_constant_score_is_shift_invariant():
    # when every sample's score agrees there is nothing to regress on; the
    # fallback baseline must still absorb a constant shift of the signal
    f = np.repeat([[1.0], [2.0], [4.0]], 2, axis=1)
    h = np.full((3, 2), -0.3)
    for shift in (0.0, -80.0):
        assert np.allclose(bbvi.score_function_grad(f + shift, h), 0.0, atol=1e-13)


def test_estimator_needs_two_samples_for_gradients():
    # the leave-one-out control variates fit each sample on the others; a
    # forward-only estimate fits none
    rng = np.random.default_rng(7)
    m = mdl.build_model(4, 2, 2, 4, "bernoulli", 2.0, 1.0, rng)
    x = (rng.random((3, 4)) < 0.5).astype(float)
    labels = np.full(3, -1)
    with pytest.raises(ValueError, match="num_samples = 1"):
        bbvi.estimate_elbo_and_grads(m, x, labels, 1, rng, dataset_size=3)
    with pytest.raises(ValueError, match="num_samples = 0"):
        bbvi.estimate_elbo_and_grads(m, x, labels, 0, rng, dataset_size=3,
                                     with_grads=False)
    bd = bbvi.estimate_elbo_and_grads(m, x, labels, 1, rng, dataset_size=3,
                                      with_grads=False)
    assert np.isfinite(bd.total) and bd.grads == {}


# ---------------------------------------------------------------------------
# score-function estimator

def test_score_grad_constant_signal_near_zero():
    # a signal drawn independently of the score has a constant expectation
    # in the score's parameter: the estimate must be near 0.  (A constant
    # signal would check nothing, since every leave-one-out coefficient
    # then equals it and the estimate is exactly 0 whatever the score.)
    rng = np.random.default_rng(2)
    s = 20_000
    pi = 0.3
    z = (rng.random(s) < pi).astype(float)
    h = (z - pi)[:, None]
    f = rng.normal(5.0, 1.0, size=(s, 1))
    assert abs(h.mean()) < 3 * np.sqrt(pi * (1 - pi) / s)
    est = bbvi.score_function_grad(f, h)[0]
    per_sample = h * (f - bbvi.control_variate_coeffs(f, h))
    sem = per_sample.std(ddof=1) / np.sqrt(s)
    assert abs(est) < 3 * sem


def test_score_grad_bernoulli_closed_form():
    # f(z) = z, so dE[z]/dlogit = pi (1 - pi) exactly
    rng = np.random.default_rng(3)
    s = 100_000
    logit = 0.4
    pi = float(dist.sigmoid(np.array(logit)))
    z = (rng.random(s) < pi).astype(float)
    est = bbvi.score_function_grad(z[:, None], (z - pi)[:, None])[0]
    per_sample = (z - pi) * z
    sem = per_sample.std(ddof=1) / np.sqrt(s)
    assert abs(est - pi * (1 - pi)) < 3 * sem


def test_control_variates_reduce_variance():
    checks = selftest.variance_reduction_suite(trials=2000, seed=4)
    assert all(passed for _, passed, _ in checks), checks


# ---------------------------------------------------------------------------
# full estimator on the enumerable toy

def test_elbo_breakdown_parts_sum():
    rng = np.random.default_rng(5)
    m = mdl.build_model(6, 3, 4, 8, "bernoulli", 2.0, 1.0, rng)
    x = (rng.random((7, 6)) < 0.5).astype(float)
    labels = np.array([0, 1, 2, -1, -1, -1, -1])
    bd = bbvi.estimate_elbo_and_grads(m, x, labels, 4, rng, dataset_size=7,
                                      alpha_sup=0.7)
    assert abs(bd.total - (bd.recon + bd.kl_gauss + bd.term_zhat
                           + bd.term_v + bd.term_y)) < 1e-9


def test_estimator_deterministic_under_seed():
    rng = np.random.default_rng(6)
    m = mdl.build_model(5, 2, 3, 8, "bernoulli", 2.0, 1.0, rng)
    x = (rng.random((4, 5)) < 0.5).astype(float)
    labels = np.array([0, -1, 1, -1])
    a = bbvi.estimate_elbo_and_grads(m, x, labels, 4, np.random.default_rng(42),
                                     dataset_size=4)
    b = bbvi.estimate_elbo_and_grads(m, x, labels, 4, np.random.default_rng(42),
                                     dataset_size=4)
    assert a.total == b.total
    for name in a.grads:
        assert np.array_equal(a.grads[name], b.grads[name])


def test_estimator_rejects_empty_batch():
    rng = np.random.default_rng(7)
    m = mdl.build_model(4, 2, 2, 4, "bernoulli", 2.0, 1.0, rng)
    with pytest.raises(ValueError):
        bbvi.estimate_elbo_and_grads(m, np.empty((0, 4)), np.full(0, -1), 2, rng,
                                     dataset_size=1)


def test_estimator_rejects_malformed_labels():
    # a short array would read uninitialized reconstruction rows, a long one
    # or a class of C would index past the classes, -2 would pass for
    # unlabeled and a fraction would be truncated to a class
    rng = np.random.default_rng(7)
    m = mdl.build_model(5, 3, 3, 4, "bernoulli", 2.0, 1.0, rng)
    x = (rng.random((6, 5)) < 0.5).astype(float)
    good = np.array([0, 1, 2, -1, -1, 0])
    for labels in (good[:3], np.r_[good, 0, 1], np.r_[good[:5], 3],
                   np.r_[good[:5], -2], np.r_[good[:5], 0.7], np.r_[good[:5], 2.9]):
        with pytest.raises(ValueError, match="labels"):
            bbvi.estimate_elbo_and_grads(m, x, labels, 4, rng, dataset_size=6)
    bd = bbvi.estimate_elbo_and_grads(m, x, good, 4, rng, dataset_size=6)
    assert np.isfinite(bd.total)


def test_single_class_labeled_equals_unlabeled():
    # C=1 collapses the marginalized and labeled reconstruction paths
    rng = np.random.default_rng(8)
    m = mdl.build_model(5, 1, 3, 8, "bernoulli", 2.0, 1.0, rng)
    x = (rng.random((6, 5)) < 0.5).astype(float)
    lab = bbvi.estimate_elbo_and_grads(m, x, np.zeros(6, dtype=int), 4,
                                       np.random.default_rng(9), dataset_size=6,
                                       alpha_sup=1.0)
    unl = bbvi.estimate_elbo_and_grads(m, x, np.full(6, -1), 4,
                                       np.random.default_rng(9), dataset_size=6,
                                       alpha_sup=1.0)
    assert abs(lab.total - unl.total) < 1e-9


def test_elbo_estimate_unbiased_on_toy():
    st = selftest.toy_estimates(7, [0.7, 0.5], 200, 3000)["elbo"]
    assert abs(st.mean - st.exact) < 3 * st.sem, st


def _check_gradient_unbiased_on_toy():
    stats = selftest.toy_estimates(5, [0.6, 0.4], 200, 7000)
    for name in ("encoder", "classifier", "decoder"):
        assert stats[name].within(3.0, 1e-6), name


def test_gradient_estimate_unbiased_on_toy(monkeypatch):
    # the plain estimator, as a reference for the one training takes
    monkeypatch.setattr(bbvi, "control_variate_coeffs", zero_control_variates)
    _check_gradient_unbiased_on_toy()


def test_gradient_estimate_unbiased_on_toy_with_control_variates():
    _check_gradient_unbiased_on_toy()


@pytest.mark.parametrize("cv, points", [(False, 2), (True, 2), (True, 1)])
def test_stick_gradient_unbiased(cv, points, monkeypatch):
    # learned sticks: the estimator's stick gradient against the exact
    # stick objective (spikes enumerated, v integrated), differentiated by
    # FD; with one point its S draws are the leave-one-out groups
    m, x = make_enumerable_toy(seed=3)
    m.sticks.params[:] = np.log([2.0, 1.6, 1.4, 2.2])
    batch = np.stack([x, 1.0 - x])[:points]
    incl = dist.sigmoid(mdl.encode(m, batch)[2])
    params = m.sticks.params.copy()
    exact = fd_grad_all(
        lambda: exact_stick_objective(params, m.sticks.alpha, incl, 10),
        params, h=1e-4)

    if not cv:   # the plain estimator
        monkeypatch.setattr(bbvi, "control_variate_coeffs", zero_control_variates)
    reps = 400
    grads = np.array([
        bbvi.estimate_elbo_and_grads(m, batch, np.full(points, -1), 8,
                                     np.random.default_rng(11_000 + j),
                                     dataset_size=10).grads["sticks"]
        for j in range(reps)])
    sem = grads.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(grads.mean(axis=0) - exact) <= 3 * sem)


def test_estimator_shift_invariant(monkeypatch):
    # adding a constant to every reconstruction value leaves E[h] = 0 times
    # it: no gradient may move
    def estimate(shift):
        rng = np.random.default_rng(0)
        m = mdl.build_model(6, 1, 4, 8, "bernoulli", 1.0, 0.1, rng)
        m.encoder.biases(1)[2 * m.K:] = [4.0, -4.0, 0.0, -6.0]
        x = (rng.random((5, 6)) < 0.5).astype(float)
        exact_likelihood = bbvi._likelihood

        def shifted(kind, dec_out, x_pts, input_dim, with_grads):
            return exact_likelihood(kind, dec_out, x_pts, input_dim, with_grads) + shift

        monkeypatch.setattr(bbvi, "_likelihood", shifted)
        bd = bbvi.estimate_elbo_and_grads(m, x, np.full(5, -1), 8,
                                          np.random.default_rng(1), dataset_size=100)
        monkeypatch.undo()
        return bd.grads

    plain, shifted = estimate(0.0), estimate(-30.0)
    for name, g in plain.items():
        tol = 1e-9 * max(float(np.max(np.abs(g))), 1e-300)
        assert np.max(np.abs(shifted[name] - g)) <= tol, name


# every density, score and KL the estimator trains with; the elementwise
# maps (sigmoid, softplus, softmax) and the special functions are shared
ESTIMATOR_DENSITIES = [
    (dist, name) for name in (
        "gaussian_kl_to_standard", "gaussian_log_prob", "gaussian_score_grad",
        "bernoulli_log_prob", "bernoulli_score_grad", "beta_log_prob", "beta_score_grad",
        "categorical_kl_to_uniform", "categorical_kl_to_uniform_grad",
        "categorical_log_prob", "categorical_score_grad")
] + [(ibp, "ibp_prior_log_prob_from_sticks"), (bbvi, "_likelihood")]


@pytest.mark.parametrize("kind", mdl.LIKELIHOODS)
def test_exact_toy_elbo_shares_no_estimator_likelihood(kind, monkeypatch):
    # the oracle must not reuse the estimator's densities, or a fault
    # there would pass every unbiasedness check unseen
    m, x = selftest.make_enumerable_toy(kind=kind)
    v0 = np.array([0.7, 0.5])

    def elbos():
        return [selftest.exact_toy_elbo(m, x, label, v0, alpha_sup=0.7)
                for label in (-1, 1)]

    want = elbos()

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called a density the estimator trains with")

    for owner, name in ESTIMATOR_DENSITIES:
        monkeypatch.setattr(owner, name, forbidden)
    assert elbos() == want


def test_every_distribution_function_is_trained(monkeypatch):
    # every public function of `distributions`, and the spike prior that
    # criterion 2 enumerates, is reached by a training step, so each check
    # of one (criteria 1 and 2) checks trained code
    public = [(dist, name) for name, f in vars(dist).items()
              if inspect.isfunction(f) and f.__module__ == dist.__name__
              and not name.startswith("_")]
    public.append((ibp, "ibp_prior_log_prob_from_sticks"))
    calls = dict.fromkeys([name for _, name in public], 0)

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for owner, name in public:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    rng = np.random.default_rng(40)
    for kind in mdl.LIKELIHOODS:
        m = mdl.build_model(5, 3, 3, 8, kind, 2.0, 1.0, rng)
        x = rng.random((6, 5))
        bbvi.estimate_elbo_and_grads(m, x, np.array([0, -1, 2, -1, -1, 1]), 4, rng,
                                     dataset_size=60, alpha_sup=0.7)
    assert "bernoulli_score_grad" in calls and "categorical_kl_to_uniform" in calls
    assert [name for name, n in calls.items() if n == 0] == []


def test_exact_log_marginal_upper_bounds_elbo():
    # enumeration + quadrature log-marginal >= the exact ELBO
    m, x = make_enumerable_toy(seed=9)
    v0 = np.array([0.7, 0.5])
    elbo = exact_toy_elbo(m, x, -1, v0, gh_nodes=64)

    import itertools
    t, w = np.polynomial.hermite.hermgauss(64)
    nodes = np.array(list(itertools.product(*[np.sqrt(2.0) * t] * m.K)))
    wts = np.prod(np.array(list(
        itertools.product(*[w / np.sqrt(np.pi)] * m.K))), axis=1)
    probs_y = mdl.classify(m, x[None])[0]
    marginal = 0.0
    for pattern in itertools.product([0.0, 1.0], repeat=m.K):
        pattern = np.array(pattern)
        p_z = np.exp(ibp.ibp_prior_log_prob_from_sticks(pattern, np.log(v0)).sum())
        z_rows = nodes * pattern       # prior draws are standard normal
        lik = 0.0
        for c in range(m.C):
            dec_out, _ = nn.forward(m.decoder, np.concatenate(
                [z_rows, np.tile(np.eye(m.C)[c], (len(z_rows), 1))], axis=1))
            p = 1.0 / (1.0 + np.exp(-dec_out))
            lik_c = np.exp(np.sum(
                x * np.log(p) + (1 - x) * np.log1p(-p), axis=1))
            lik = lik + probs_y[c] * lik_c   # q(y)-mixed conditional likelihood
        marginal += p_z * float(np.sum(wts * lik))
    assert np.log(marginal) >= elbo - 1e-6


def test_variance_reduction_on_estimator(monkeypatch):
    # the control variates must not inflate the estimator variance over
    # the plain estimator's
    def encoder_var():
        return np.sum(selftest.toy_estimates(11, [0.7, 0.5], 300, 9000)
                      ["encoder"].sem ** 2)

    with monkeypatch.context() as plain:
        plain.setattr(bbvi, "control_variate_coeffs", zero_control_variates)
        var_plain = encoder_var()
    assert encoder_var() <= var_plain * 1.05


def test_numeric_error_names_term(monkeypatch):
    rng = np.random.default_rng(12)
    m = mdl.build_model(4, 2, 2, 4, "bernoulli", 2.0, 1.0, rng)
    x = (rng.random((2, 4)) < 0.5).astype(float)

    def poisoned_likelihood(kind, dec_out, x_pts, input_dim, with_grads):
        dec_out.fill(0.0)   # the gradient, written over the block
        return np.full(dec_out.shape[:-1], np.nan)

    monkeypatch.setattr(bbvi, "_likelihood", poisoned_likelihood)
    with pytest.raises(bbvi.NumericError) as err:
        bbvi.estimate_elbo_and_grads(m, x, np.full(2, -1), 2, rng, dataset_size=2)
    assert err.value.term == "recon"


# The labels of each batch of six points.  Unlabeled points marginalize
# their label under q(y | x), and the case ids name that rule next to the
# batch.
BATCH_LABELS = {"labeled": np.array([0, 1, 2, 0, 1, 2]),
                "unlabeled": np.full(6, -1),
                "mixed": np.array([0, -1, 2, -1, -1, 1])}


@pytest.mark.parametrize("kind", mdl.LIKELIHOODS)
@pytest.mark.parametrize("batch", list(BATCH_LABELS), ids="marginalize-{}".format)
@pytest.mark.parametrize("fixed", [False, True])
def test_forward_only_estimate_matches_full(kind, batch, fixed):
    rng = np.random.default_rng(21)
    m = mdl.build_model(5, 3, 3, 8, kind, 2.0, 1.0, rng)
    x = rng.random((6, 5))
    if kind == "bernoulli":
        x = (x < 0.5).astype(float)
    labels = BATCH_LABELS[batch]
    if fixed:   # the sticks the enumeration oracles condition on
        m.sticks = selftest.FixedSticks([0.9, 0.6, 0.3], m.sticks.alpha)

    def estimate(with_grads):
        return bbvi.estimate_elbo_and_grads(
            m, x, labels, 4, np.random.default_rng(5),
            dataset_size=60, alpha_sup=0.7, with_grads=with_grads)

    full, forward = estimate(True), estimate(False)
    assert forward.grads == {} and len(full.grads) == 4
    for name in ("total", "recon", "kl_gauss", "term_zhat", "term_v", "term_y"):
        assert getattr(forward, name).hex() == getattr(full, name).hex(), name
    assert forward.diagnostics == full.diagnostics
    if fixed:
        assert full.term_v == 0.0 and np.all(full.grads["sticks"] == 0.0)


TERMS = ("total", "recon", "kl_gauss", "term_zhat", "term_v", "term_y")


@pytest.mark.parametrize("kind", mdl.LIKELIHOODS)
def test_float32_decoder_tracks_float64(kind):
    # training runs the decoder blocks in float32, while the FD checks and
    # the oracles call the float64 estimator: from the same draws the two
    # must agree to float32 rounding, values and gradients alike, and the
    # float32 forward-only values must stay a prefix of the float32 step
    rng = np.random.default_rng(31)
    m = mdl.build_model(20, 3, 6, 16, kind, 2.0, 0.1, rng)
    x = rng.random((8, 20))
    if kind == "bernoulli":
        x = (x < 0.5).astype(float)
    labels = np.array([0, -1, 2, -1, -1, 1, -1, 0])

    def estimate(dtype, with_grads):
        return bbvi.estimate_elbo_and_grads(
            m, x, labels, 4, np.random.default_rng(6), dataset_size=80,
            alpha_sup=0.7, with_grads=with_grads, dtype=dtype)

    for with_grads in (True, False):
        wide, narrow = estimate(np.float64, with_grads), estimate(np.float32, with_grads)
        for name in TERMS:
            want, got = getattr(wide, name), getattr(narrow, name)
            assert abs(got - want) <= 1e-6 * abs(want), name
        assert narrow.grads.keys() == wide.grads.keys()
        for name, g in wide.grads.items():
            assert narrow.grads[name].dtype == np.float64, name
            assert (np.linalg.norm(narrow.grads[name] - g)
                    <= 1e-5 * np.linalg.norm(g)), name
    step, metrics = estimate(np.float32, True), estimate(np.float32, False)
    for name in TERMS:
        assert getattr(metrics, name).hex() == getattr(step, name).hex(), name


def test_forward_only_numeric_error_names_term(monkeypatch):
    rng = np.random.default_rng(12)
    m = mdl.build_model(4, 2, 2, 4, "bernoulli", 2.0, 1.0, rng)
    x = (rng.random((2, 4)) < 0.5).astype(float)

    def poisoned_likelihood(kind, dec_out, x_pts, input_dim, with_grads):
        assert not with_grads
        return np.full(dec_out.shape[:-1], np.nan)

    monkeypatch.setattr(bbvi, "_likelihood", poisoned_likelihood)
    with pytest.raises(bbvi.NumericError) as err:
        bbvi.estimate_elbo_and_grads(m, x, np.full(2, -1), 2, rng, dataset_size=2,
                                     with_grads=False)
    assert err.value.term == "recon"


# ---------------------------------------------------------------------------
# the decoder runs on blocks of whole points

@pytest.mark.parametrize("with_grads", [True, False])
@pytest.mark.parametrize("kind", mdl.LIKELIHOODS)
@pytest.mark.parametrize("batch", list(BATCH_LABELS), ids="{}-marginalize".format)
@pytest.mark.parametrize("block_rows", [1, 7, 64])
def test_blocked_estimate_matches_one_block(block_rows, batch, kind, with_grads,
                                            monkeypatch):
    rng = np.random.default_rng(22)
    m = mdl.build_model(5, 3, 3, 8, kind, 2.0, 1.0, rng)
    x = rng.random((6, 5))
    if kind == "bernoulli":
        x = (x < 0.5).astype(float)
    labels = BATCH_LABELS[batch]
    s = 4

    def estimate():
        return bbvi.estimate_elbo_and_grads(
            m, x, labels, s, np.random.default_rng(5),
            dataset_size=60, alpha_sup=0.7, with_grads=with_grads)

    one_block = estimate()
    monkeypatch.setattr(bbvi, "DECODER_BLOCK_ROWS", block_rows)
    blocked = estimate()
    # every point decodes one row per (sample, class)
    fits = labels.size * s * m.C <= block_rows
    names = ("total", "recon", "kl_gauss", "term_zhat", "term_v", "term_y")
    for name in names:
        a, b = getattr(blocked, name), getattr(one_block, name)
        assert a.hex() == b.hex() if fits else abs(a - b) <= 1e-12 * abs(b), name
    assert blocked.diagnostics == one_block.diagnostics
    assert blocked.grads.keys() == one_block.grads.keys()
    for name, g in one_block.grads.items():
        if fits:
            assert np.array_equal(blocked.grads[name], g), name
        else:
            np.testing.assert_allclose(blocked.grads[name], g, rtol=1e-12, err_msg=name)


def test_blocked_gradient_matches_fd(monkeypatch):
    # one point per block; same draws and bound as the unblocked check in
    # test_model.test_path_gradients_match_fd_end_to_end
    monkeypatch.setattr(bbvi, "DECODER_BLOCK_ROWS", 1)
    rng = np.random.default_rng(31)
    for kind in mdl.LIKELIHOODS:
        worst = selftest.estimator_fd_worst(kind, rng)
        assert worst < 1e-4, (kind, worst)


def test_forward_only_memory_bounded_in_points():
    # MNIST-shaped forward-only estimate, every point unlabeled: its traced
    # peak must not grow with the number of points the way the decoder rows
    # (point, sample, class) do
    rng = np.random.default_rng(23)
    m = mdl.build_model(784, 10, 50, 500, "bernoulli", 1.0, 0.01, rng)
    x = (rng.random((2000, 784)) < 0.3).astype(float)

    def traced_peak(n):
        tracemalloc.start()
        try:
            bbvi.estimate_elbo_and_grads(m, x[:n], np.full(n, -1), 2,
                                         np.random.default_rng(1), dataset_size=n,
                                         with_grads=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(500), traced_peak(2000)
    assert large <= 1.5 * small, (small / 2 ** 20, large / 2 ** 20)


# ---------------------------------------------------------------------------
# the Bernoulli likelihood runs on chunks of whole points

def _check_chunked_bernoulli(points, s, n_cls, d, dtype, seed):
    # the chunked values and gradient against the public functions on the
    # whole block, in both modes; the gradient is written over the block,
    # and a forward-only call leaves the block as it is
    rng = np.random.default_rng(seed)
    logits = (8.0 * rng.standard_normal((points, s, n_cls, d))).astype(dtype)
    logits.flat[:4] = [0.0, -0.0, 100.0, -100.0]
    x_pts = (rng.random((points, 1, 1, d)) < 0.5).astype(dtype)
    want_values = dist.bernoulli_log_prob(x_pts, logits).sum(axis=-1)
    want_grads = dist.bernoulli_score_grad(x_pts, logits)
    before = logits.tobytes()
    assert same_bits(bbvi._likelihood("bernoulli", logits, x_pts, d, False),
                     want_values)
    assert logits.tobytes() == before
    assert same_bits(bbvi._likelihood("bernoulli", logits, x_pts, d, True),
                     want_values)
    assert same_bits(logits, want_grads)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_cls", [1, 4])
@pytest.mark.parametrize("points", [1, 2, 3, 4, 8],
                         ids=["one_point", "below_chunk", "at_chunk", "above_chunk",
                              "ragged"])
def test_chunked_bernoulli_likelihood_matches_public_functions(points, n_cls, dtype,
                                                               monkeypatch):
    # three points to a chunk: blocks of one point, of one point less, as
    # many and one more than a chunk, and of two chunks and a ragged third;
    # n_cls is 1 for labeled points and C for unlabeled ones
    s, d = 3, 5
    monkeypatch.setattr(bbvi, "LIKELIHOOD_CHUNK", 3 * s * n_cls * d)
    _check_chunked_bernoulli(points, s, n_cls, d, dtype, seed=10 * points + n_cls)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunked_bernoulli_likelihood_at_the_mnist_shape(dtype):
    # the module's own chunk at S = 4, C = 10, D = 784 (two unlabeled points
    # to a chunk), on a block that ends in a ragged chunk
    per_chunk = max(1, bbvi.LIKELIHOOD_CHUNK // (4 * 10 * 784))
    _check_chunked_bernoulli(2 * per_chunk + 1, 4, 10, 784, dtype, seed=3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gaussian_likelihood_matches_public_functions(dtype):
    # the values and the gradient against the public functions bit for bit;
    # the gradient w.r.t. the raw variance is the one w.r.t. the variance
    # times sigmoid(raw), and both halves are written over the block
    rng = np.random.default_rng(4)
    points, s, n_cls, d = 3, 2, 4, 5
    dec_out = (3.0 * rng.standard_normal((points, s, n_cls, 2 * d))).astype(dtype)
    x_pts = rng.standard_normal((points, 1, 1, d)).astype(dtype)
    mean, var = mdl.split_decoder_out(dec_out, d)
    want_values = dist.gaussian_log_prob(x_pts, mean, var)
    g_mean, g_var = dist.gaussian_score_grad(x_pts, mean, var)
    want_grads = np.concatenate([g_mean, g_var * dist.sigmoid(dec_out[..., d:])],
                                axis=-1)
    before = dec_out.tobytes()
    assert same_bits(bbvi._likelihood("gaussian", dec_out, x_pts, d, False),
                     want_values)
    assert dec_out.tobytes() == before
    assert same_bits(bbvi._likelihood("gaussian", dec_out, x_pts, d, True),
                     want_values)
    assert same_bits(dec_out, want_grads)


@pytest.mark.parametrize("with_grads", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nan_logit_raises_numeric_error_in_recon(dtype, with_grads):
    # a NaN decoder output of either sign survives the shared exp
    rng = np.random.default_rng(12)
    m = mdl.build_model(4, 2, 2, 4, "bernoulli", 2.0, 1.0, rng)
    m.decoder.biases(1)[[1, 3]] = [np.nan, -np.nan]
    x = (rng.random((3, 4)) < 0.5).astype(float)
    with pytest.raises(bbvi.NumericError) as err:
        bbvi.estimate_elbo_and_grads(m, x, np.array([0, -1, -1]), 2, rng,
                                     dataset_size=3, with_grads=with_grads,
                                     dtype=dtype)
    assert err.value.term == "recon"


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}
    norm = bbvi.clip_global_norm(grads, max_norm=10.0)
    assert abs(norm - 13.0) < 1e-12
    joined = np.sqrt(sum(float(np.dot(g, g)) for g in grads.values()))
    assert abs(joined - 10.0) < 1e-9
    small = {"a": np.array([0.3])}
    bbvi.clip_global_norm(small, max_norm=10.0)
    assert small["a"][0] == 0.3


def test_per_point_terms_match_vectorized_estimator():
    # single point, S=1, sticks held at v0 and the other draws fixed by the
    # seeded rng: the batched estimator's term values must agree with the
    # per-point op, unlabeled and at two labels, with and without the
    # supervised weight
    rng = np.random.default_rng(13)
    m = mdl.build_model(5, 3, 2, 6, "bernoulli", 2.0, 1.0, rng)
    x = (rng.random(5) < 0.5).astype(float)
    v0 = np.array([0.6, 0.3])
    m.sticks = selftest.FixedSticks(v0, m.sticks.alpha)

    seed = 31337
    # replay the same draws
    r = np.random.default_rng(seed)
    mean, var, logits = (head[0] for head in mdl.encode(m, x[None]))
    eps = r.standard_normal((1, 1, m.K))[0, 0]
    u = r.random((1, 1, m.K))[0, 0]
    ztilde = mean + np.sqrt(var) * eps
    incl = dist.sigmoid(logits)
    zhat = (u < incl).astype(float)
    pi = np.cumprod(v0)
    draw = LatentDraw(
        ztilde=ztilde, zhat=zhat, log_v=np.log(v0), log_1mv=np.log1p(-v0),
        logq_zhat=bernoulli_log_pmf(zhat, incl),
        logp_zhat=bernoulli_log_pmf(zhat, pi),
        logq_v=0.0, logp_v=0.0)
    for label in (-1, 0, 2):
        for alpha_sup in (0.0, 0.7):
            bd = bbvi.estimate_elbo_and_grads(
                m, x[None, :], np.array([label]), 1, np.random.default_rng(seed),
                dataset_size=1, alpha_sup=alpha_sup, with_grads=False)
            terms = per_point_elbo_terms(m, x, label, draw, alpha_sup=alpha_sup)
            for name in ("recon", "kl_gauss", "term_zhat", "term_y"):
                assert abs(terms[name] - getattr(bd, name)) < 1e-9, (label, alpha_sup, name)
            assert (bd.term_y == 0.0) == (label >= 0 and alpha_sup == 0.0)


def test_all_labeled_batch_without_label_weight_has_no_label_signal():
    # at alpha_sup = 0 a labeled point's label term is 0 and the classifier
    # gets no gradient: only unlabeled points train it
    rng = np.random.default_rng(23)
    m = mdl.build_model(5, 3, 3, 8, "bernoulli", 2.0, 1.0, rng)
    x = (rng.random((6, 5)) < 0.5).astype(float)
    bd = bbvi.estimate_elbo_and_grads(m, x, BATCH_LABELS["labeled"], 4,
                                      np.random.default_rng(24), dataset_size=60)
    assert bd.term_y == 0.0
    assert np.all(bd.grads["classifier"] == 0.0)
    assert np.any(bd.grads["encoder"] != 0.0)
