import math

import numpy as np
import pytest

from ibpdgm import distributions as dist, ibp

from oracles import beta_log_prob_unfused, enumerate_binary, fd_grad_all, \
    ibp_prior_log_prob_unfused, same_bits


def test_ibp_prior_log_prob_basic():
    # v = (0.5, 1) gives pi = (0.5, 0.5)
    got = ibp.ibp_prior_log_prob_from_sticks(np.array([1.0, 0.0]), np.log([0.5, 1.0]))
    assert np.allclose(got, [math.log(0.5), math.log(0.5)], rtol=0, atol=1e-12)


def test_ibp_prior_log_prob_pi_one():
    on = ibp.ibp_prior_log_prob_from_sticks(np.array([1.0]), np.array([0.0]))
    assert on.tolist() == [0.0]
    # impossible event: guarded sentinel instead of -inf
    got = ibp.ibp_prior_log_prob_from_sticks(np.array([0.0]), np.array([0.0]))
    assert got.tolist() == [ibp.LOG_ZERO_SENTINEL]


def test_ibp_prior_log_prob_length_mismatch():
    with pytest.raises(ValueError):
        ibp.ibp_prior_log_prob_from_sticks(np.array([1.0, 0.0, 1.0]), np.log([0.5, 0.5]))


def test_ibp_prior_normalizes():
    rng = np.random.default_rng(1)
    log_v = np.log(rng.random(3) * 0.9 + 0.05)
    total = sum(np.exp(ibp.ibp_prior_log_prob_from_sticks(z, log_v).sum())
                for z in enumerate_binary(3))
    assert abs(total - 1.0) < 1e-9


def test_ibp_prior_from_sticks_matches_direct():
    # against the Bernoulli log-pmf at pi = cumprod(v), written out
    rng = np.random.default_rng(2)
    v = rng.random(5) * 0.9 + 0.05
    pi = np.cumprod(v)
    for z in (np.zeros(5), np.ones(5), (rng.random(5) < 0.5).astype(float)):
        direct = z * np.log(pi) + (1.0 - z) * np.log1p(-pi)
        from_sticks = ibp.ibp_prior_log_prob_from_sticks(z, np.log(v))
        assert np.allclose(direct, from_sticks, rtol=0, atol=1e-10)


def test_ibp_prior_from_sticks_no_underflow_large_k():
    # pi underflows to 0 in linear space at K=50 with tiny sticks
    log_v = np.full(50, np.log(1e-7))
    z = np.zeros(50)
    got = float(ibp.ibp_prior_log_prob_from_sticks(z, log_v).sum())
    assert np.isfinite(got)
    assert abs(got) < 1e-3   # all-off under a near-zero prior is nearly free


def test_sticks_prior_uniform_alpha_one():
    rng = np.random.default_rng(3)
    log_v = np.log(rng.random(6) * 0.9 + 0.05)
    assert np.all(np.abs(ibp.sticks_prior_log_prob(log_v, 1.0)) < 1e-12)


def test_sticks_prior_value():
    got = ibp.sticks_prior_log_prob(np.log([0.5]), 2.0)
    assert got.shape == (1,) and abs(got[0] - (math.log(2) + math.log(0.5))) < 1e-12


def test_sticks_prior_matches_beta_log_prob():
    rng = np.random.default_rng(4)
    alpha = 2.7
    v = rng.random(5) * 0.9 + 0.05
    expected = [dist.beta_log_prob(np.log(vk), np.log1p(-vk), alpha, 1.0) for vk in v]
    assert np.allclose(ibp.sticks_prior_log_prob(np.log(v), alpha), expected,
                       rtol=0, atol=1e-10)


def test_prior_moments_match_closed_form():
    # with v_k ~ Beta(alpha, 1) i.i.d., E[pi_k] = (alpha/(alpha+1))^k
    rng = np.random.default_rng(5)
    alpha, k, n = 2.0, 5, 100_000
    log_v = ibp.sticks_prior_sample(alpha, (n, k), rng)
    pi = np.exp(np.cumsum(log_v, axis=1))
    expected = (alpha / (alpha + 1.0)) ** np.arange(1, k + 1)
    sem = pi.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(pi.mean(axis=0) - expected) < 3 * sem)


def test_global_sticks_init_uniform_for_every_alpha():
    for alpha in (0.1, 1.0, 2.0):
        sticks = ibp.GlobalSticks(4, alpha)
        assert np.array_equal(sticks.a, np.ones(4)), alpha
        assert np.array_equal(sticks.b, np.ones(4)), alpha
        assert sticks.K == 4 and sticks.alpha == alpha


def test_global_sticks_validation():
    with pytest.raises(ValueError):
        ibp.GlobalSticks(0, 2.0)
    with pytest.raises(ValueError):
        ibp.GlobalSticks(4, -1.0)


def test_global_sticks_log_prob_matches_beta():
    sticks = ibp.GlobalSticks(3, 2.0)
    sticks.params[:] = np.log([1.5, 2.0, 3.0, 1.0, 0.5, 2.0])
    v = np.array([0.3, 0.6, 0.9])
    log_v, log_1mv = np.log(v), np.log1p(-v)
    expected = [dist.beta_log_prob(log_v[i], log_1mv[i], sticks.a[i], sticks.b[i])
                for i in range(3)]
    assert np.allclose(sticks.log_prob(log_v, log_1mv), expected, rtol=0, atol=1e-10)


@pytest.mark.parametrize("shape", [(25, 32, 16), (100, 4, 50)])
def test_global_sticks_match_the_written_out_formulas_bit_for_bit(shape):
    # q(v)'s density of the (B, S, K) draws of the c6-train and mnist-train
    # workloads, with whole rows at both clamp values of the Beta sampler
    rng = np.random.default_rng(shape[-1])
    sticks = ibp.GlobalSticks(shape[-1], 1.5)
    sticks.params[:] = rng.normal(scale=0.7, size=sticks.params.size)
    pair = sticks.sample(shape[:-1], rng)
    for row, v in ((0, 1e-7), (1, 1.0 - 1e-7)):
        pair[0][0, row], pair[1][0, row] = np.log(v), np.log1p(-v)
    assert same_bits(sticks.log_prob(*pair), beta_log_prob_unfused(*pair, sticks.a, sticks.b))


def test_stick_terms_keep_the_bits_of_the_whole_array_expressions():
    # the spike prior, which computes in place: the estimator's
    # (2, B, S, K) stack of drawn spikes and q(zhat = 1) against (B, S, K)
    # sticks, with one row at pi = 1 whose off spikes take the sentinel
    rng = np.random.default_rng(18)
    sticks = ibp.GlobalSticks(16, 1.0)
    sticks.params[:] = rng.normal(scale=0.7, size=sticks.params.size)
    log_v, _ = sticks.sample((25, 32), rng)
    log_v[0, 0] = 0.0
    spikes = np.stack([(rng.random((25, 32, 16)) < 0.5).astype(float),
                       np.broadcast_to(rng.random((25, 1, 16)), (25, 32, 16))])
    args = [spikes, log_v]
    before = [x.copy() for x in args]
    got = ibp.ibp_prior_log_prob_from_sticks(spikes, log_v)
    assert same_bits(got, ibp_prior_log_prob_unfused(spikes, log_v))
    assert np.any(got == ibp.LOG_ZERO_SENTINEL)
    assert all(same_bits(x, x0) for x, x0 in zip(args, before))


def test_global_sticks_score_grads_match_fd():
    sticks = ibp.GlobalSticks(2, 2.0)
    sticks.params[:] = np.log([1.5, 2.5, 0.7, 1.2])
    v = np.array([0.35, 0.8])
    pair = np.log(v), np.log1p(-v)
    grads = sticks.score_grads(*pair)
    fd = fd_grad_all(lambda: float(sticks.log_prob(*pair).sum()), sticks.params, h=1e-6)
    assert np.all(np.abs(grads - fd) < 1e-6)


def test_active_components_all_zero():
    report = ibp.active_components(np.zeros((4, 5)), 0.01)
    assert report.count == 0
    assert report.active.size == 0


def test_active_components_threshold():
    report = ibp.active_components(np.array([[0.9, 0.005, 0.4]]), 0.01)
    assert list(report.active) == [0, 2]
    assert report.count == 2


def test_active_components_matrix_stats():
    probs = np.array([[0.9, 0.0], [0.1, 0.0], [0.5, 0.02]])
    report = ibp.active_components(probs, 0.01)
    assert same_bits(report.mean, probs.mean(axis=0))
    assert report.count == 1
    assert same_bits(report.std, probs.std(axis=0))


@pytest.mark.parametrize("shape", [(1, 5), (7, 1), (4097, 3), (300, 50)])
def test_active_components_stats_have_numpy_bits(shape):
    # the std is taken from the mean already computed, with numpy's bits
    probs = np.random.default_rng(shape[0] * 100 + shape[1]).random(shape)
    report = ibp.active_components(probs, 0.5)
    assert same_bits(report.mean, probs.mean(axis=0))
    assert same_bits(report.std, probs.std(axis=0))


def test_active_components_validates_range():
    with pytest.raises(ValueError):
        ibp.active_components(np.array([[1.2]]), 0.01)
    with pytest.raises(ValueError):   # an averaged (K,) vector, not (N, K)
        ibp.active_components(np.array([0.5]), 0.01)
