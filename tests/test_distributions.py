import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from ibpdgm import distributions as dist

from oracles import (enumerate_binary, fd_grad_all, rel_err, sigmoid_masked,
                     softplus_unfused)


# ---------------------------------------------------------------------------
# elementwise maps: each against its formula written out, bit for bit

def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


MAPS = {"sigmoid": (dist.sigmoid, sigmoid_masked),
        "softplus": (dist.softplus, softplus_unfused)}
# (B, K) heads, (B * S * C, D) likelihood rows and the decoder's (rows, 2D)
# Gaussian outputs at the benchmarked shapes
SHAPES = [(25, 16), (100, 50), (2000, 16), (2000, 50),
          (800, 30), (100, 784), (4000, 784), (800, 60)]


@pytest.mark.parametrize("name, shape", [
    pytest.param(name, shape, id=f"{prefix}shape{i}")
    for name, prefix in (("sigmoid", ""), ("softplus", "softplus-"))
    for i, shape in enumerate(SHAPES)])
def test_sigmoid_matches_mask_formula_bit_for_bit(name, shape):
    fn, formula = MAPS[name]
    x = 8.0 * np.random.default_rng(shape[0] + shape[1]).standard_normal(shape)
    assert same_bits(fn(x), formula(x))


def test_sigmoid_edge_values_bit_for_bit():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                  745.0, -745.0, 800.0, -800.0, 5e-324, -5e-324])
    for fn, formula in MAPS.values():
        got = fn(x)
        assert same_bits(got, formula(x))
        for scalar in (0.3, -0.3, 0.0, -800.0, np.inf, -np.inf, np.nan, -np.nan):
            got_0d = fn(scalar)
            assert got_0d.shape == () and same_bits(got_0d, formula(scalar))
    sig, soft = dist.sigmoid(x), dist.softplus(x)
    assert sig[2] == 1.0 and sig[3] == 0.0 and sig[7] > 0.0
    assert soft[2] == np.inf and soft[3] == 0.0 and soft[0] == math.log(2.0)


# (z, logits) shapes of the estimator's kinds: the spikes' (B, S, K) draws
# against (B, 1, K) logits, a point's data against its decoded rows, and
# equal shapes
ARG_SHAPES = [((3, 4, 5), (3, 1, 5)), ((3, 1, 5), (3, 4, 5)), ((6, 5), (6, 5))]


@pytest.mark.parametrize("z_shape, logits_shape", ARG_SHAPES)
def test_elementwise_maps_leave_their_arguments_unchanged(z_shape, logits_shape):
    rng = np.random.default_rng(12)
    z = (rng.random(z_shape) < 0.5).astype(float)
    logits = 8.0 * rng.standard_normal(logits_shape)
    z0, logits0 = z.copy(), logits.copy()
    for fn in (dist.sigmoid, dist.softplus):
        fn(logits)
    log_prob = dist.bernoulli_log_prob(z, logits)
    score = dist.bernoulli_score_grad(z, logits)
    assert same_bits(z, z0) and same_bits(logits, logits0)
    assert log_prob.shape == score.shape == np.broadcast_shapes(z_shape, logits_shape)
    assert not np.shares_memory(score, logits) and not np.shares_memory(score, z)
    assert same_bits(log_prob, z0 * logits0 - softplus_unfused(logits0))
    assert same_bits(score, z0 - sigmoid_masked(logits0))


# ---------------------------------------------------------------------------
# diagonal Gaussian

def test_gaussian_kl_zero_at_standard():
    assert dist.gaussian_kl_to_standard(np.zeros(3), np.ones(3)) == 0.0


def test_gaussian_kl_unit_mean_shift():
    assert abs(dist.gaussian_kl_to_standard(np.array([1.0]), np.array([1.0])) - 0.5) < 1e-12


def test_gaussian_kl_matches_monte_carlo():
    rng = np.random.default_rng(5)
    mean, var = rng.normal(size=4), rng.random(4) + 0.3
    eps = rng.standard_normal((100_000, 4))
    x = mean + np.sqrt(var) * eps
    log_q = -0.5 * np.sum(np.log(2 * np.pi * var) + (x - mean) ** 2 / var, axis=1)
    log_p = -0.5 * np.sum(np.log(2 * np.pi) + x ** 2, axis=1)
    diffs = log_q - log_p
    sem = diffs.std(ddof=1) / np.sqrt(diffs.size)
    assert abs(diffs.mean() - dist.gaussian_kl_to_standard(mean, var)) < 3 * sem


def test_gaussian_kl_nonnegative_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        mean, var = rng.normal(size=3), rng.random(3) * 3 + 0.05
        assert dist.gaussian_kl_to_standard(mean, var) >= 0.0


def test_gaussian_array_forms_match_scipy_per_row():
    rng = np.random.default_rng(3)
    x, mean = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
    var = rng.random((6, 4)) + 0.2
    expected = scipy.stats.norm.logpdf(x, mean, np.sqrt(var)).sum(axis=1)
    assert np.allclose(dist.gaussian_log_prob(x, mean, var), expected, rtol=1e-12)
    kl = dist.gaussian_kl_to_standard(mean, var)
    assert kl.shape == (6,)
    assert np.allclose(kl, [dist.gaussian_kl_to_standard(m, v) for m, v in zip(mean, var)],
                       rtol=1e-15, atol=0)


def test_gaussian_score_grad_matches_fd():
    rng = np.random.default_rng(2)
    mean, var = rng.normal(size=3), rng.random(3) + 0.5
    x = rng.normal(size=3)
    gm, gv = dist.gaussian_score_grad(x, mean, var)
    for an, param in ((gm, mean), (gv, var)):
        fd = fd_grad_all(lambda: dist.gaussian_log_prob(x, mean, var), param)
        assert np.all(np.abs(an - fd) < 1e-6)


# ---------------------------------------------------------------------------
# Bernoulli

def test_bernoulli_log_prob_half():
    got = dist.bernoulli_log_prob(np.array([1.0, 0.0]), np.zeros(2))
    assert np.allclose(got, math.log(0.5), rtol=0, atol=1e-12)


def test_bernoulli_log_prob_saturated():
    assert abs(dist.bernoulli_log_prob(np.array([1.0]), np.array([40.0]))[0]) < 1e-12


def test_bernoulli_normalizes_by_enumeration():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=3) * 2
    total = sum(np.exp(dist.bernoulli_log_prob(z, logits).sum()) for z in enumerate_binary(3))
    assert abs(total - 1.0) < 1e-9


def test_bernoulli_score_grad_center():
    assert np.allclose(dist.bernoulli_score_grad(np.array([1.0]), np.array([0.0])), [0.5])


def test_bernoulli_score_grad_saturated_is_zero():
    g = dist.bernoulli_score_grad(np.array([1.0]), np.array([35.0]))
    assert abs(g[0]) < 1e-12


def test_bernoulli_score_grad_matches_fd():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=4)
    z = (rng.random(4) < 0.5).astype(float)
    g = dist.bernoulli_score_grad(z, logits)
    fd = fd_grad_all(lambda: dist.bernoulli_log_prob(z, logits).sum(), logits)
    assert np.all(np.abs(g - fd) < 1e-6)


# ---------------------------------------------------------------------------
# Beta

def logs(v):
    """The pair (log v, log(1 - v)) in which the Beta functions take v."""
    return np.log(v), np.log1p(-v)


def test_beta_sample_array_returns_the_logs_of_the_clamped_ratio():
    # bit for bit the logs of the clamped Gamma ratio, from the same
    # generator; the small shapes put draws on both clamp values
    a, b, size = np.array([0.05, 1.0, 3.0]), np.array([0.05, 1.0, 0.5]), (400, 3)
    log_v, log_1mv = dist.beta_sample_array(a, b, size, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    x = rng.gamma(np.broadcast_to(a, size), 1.0)
    y = rng.gamma(np.broadcast_to(b, size), 1.0)
    v = np.clip(x / (x + y), 1e-7, 1.0 - 1e-7)
    assert np.any(v == 1e-7) and np.any(v == 1.0 - 1e-7)
    assert log_v.tobytes() == np.log(v).tobytes()
    assert log_1mv.tobytes() == np.log1p(-v).tobytes()


def test_beta_uniform_ks():
    rng = np.random.default_rng(6)
    log_v, _ = dist.beta_sample_array(1.0, 1.0, (10_000,), rng)
    stat = scipy.stats.kstest(np.exp(log_v), "uniform").statistic
    assert stat < 0.02


def test_beta_mean_a5_b1():
    rng = np.random.default_rng(7)
    log_v, _ = dist.beta_sample_array(5.0, 1.0, (100_000,), rng)
    assert abs(np.exp(log_v).mean() - 5.0 / 6.0) < 0.01 * 5.0 / 6.0


def test_beta_sample_deterministic_and_clamped():
    # extreme shapes: draws hit the clamp, so both logs stay at or above
    # those of the clamp values
    a = dist.beta_sample_array(0.05, 0.05, (50,), np.random.default_rng(8))
    b = dist.beta_sample_array(0.05, 0.05, (50,), np.random.default_rng(8))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert np.all(a[0] >= np.log(1e-7)) and np.all(a[1] >= np.log1p(-(1.0 - 1e-7)))


def test_beta_log_prob_values():
    assert abs(dist.beta_log_prob(*logs(0.5), 1.0, 1.0)) < 1e-12
    assert abs(dist.beta_log_prob(*logs(0.5), 2.0, 1.0)) < 1e-12


def test_beta_density_integrates_to_one():
    rng = np.random.default_rng(12)
    for _ in range(4):
        a, b = rng.random(2) * 4 + 0.8
        integral, err = scipy.integrate.quad(
            lambda v: np.exp(dist.beta_log_prob(*logs(v), a, b)), 0.0, 1.0)
        assert abs(integral - 1.0) < 1e-6


def test_beta_score_grad_uniform_case():
    da, db = dist.beta_score_grad(*logs(0.5), 1.0, 1.0)
    # ln 0.5 + (psi(2) - psi(1)) = ln 0.5 + 1
    assert abs(da - 0.30685281944005469) < 1e-12
    assert abs(db - 0.30685281944005469) < 1e-12


def test_beta_score_grad_symmetry():
    da, db = dist.beta_score_grad(*logs(0.5), 3.3, 3.3)
    assert abs(da - db) < 1e-14


def test_beta_score_grad_matches_fd():
    rng = np.random.default_rng(13)
    for _ in range(5):
        ab = rng.random(2) * 4 + 0.5
        pair = logs(rng.random() * 0.9 + 0.05)
        grad = dist.beta_score_grad(*pair, *ab)
        fd = fd_grad_all(lambda: dist.beta_log_prob(*pair, *ab), ab)
        assert np.all(np.abs(np.array(grad) - fd) < 1e-6)


# ---------------------------------------------------------------------------
# digamma

def test_digamma_known_values():
    euler = 0.5772156649015329
    assert abs(dist.digamma(1.0) + euler) < 1e-12
    assert abs(dist.digamma(2.0) - (1.0 - euler)) < 1e-12
    assert abs(dist.digamma(0.5) - (-euler - 2 * math.log(2))) < 1e-12


def test_digamma_against_scipy():
    xs = np.concatenate([np.linspace(0.01, 2, 40), np.linspace(2, 60, 40)])
    assert np.allclose(dist.digamma(xs), scipy.special.digamma(xs),
                       rtol=0, atol=1e-10)


def test_digamma_domain():
    with pytest.raises(ValueError):
        dist.digamma(0.0)
    with pytest.raises(ValueError):
        dist.digamma(-1.5)


# ---------------------------------------------------------------------------
# Categorical

def test_categorical_kl_uniform_is_zero():
    assert abs(dist.categorical_kl_to_uniform(np.full(7, 1.0 / 7.0))) < 1e-12


def test_categorical_kl_onehot():
    probs = np.zeros(10)
    probs[3] = 1.0
    assert abs(dist.categorical_kl_to_uniform(probs) - math.log(10)) < 1e-12


def test_categorical_kl_per_row_matches_scipy():
    probs = dist.softmax(np.random.default_rng(23).normal(size=(4, 6)) * 3)
    expected = scipy.stats.entropy(probs, np.full(6, 1.0 / 6.0), axis=1)
    assert np.allclose(dist.categorical_kl_to_uniform(probs), expected, rtol=1e-12)


def test_categorical_kl_grad_matches_fd():
    # the KL as a function of unconstrained probabilities, each row apart
    probs = dist.softmax(np.random.default_rng(24).normal(size=(3, 5)))
    g = dist.categorical_kl_to_uniform_grad(probs)
    for row in range(3):
        fd = fd_grad_all(lambda: dist.categorical_kl_to_uniform(probs[row]), probs[row])
        for i in range(5):
            assert rel_err(g[row, i], fd[i]) < 1e-6


def test_categorical_log_prob_normalizes():
    probs = dist.softmax(np.random.default_rng(1).normal(size=10))
    total = sum(np.exp(dist.categorical_log_prob(c, probs)) for c in range(10))
    assert abs(total - 1.0) < 1e-9


def test_categorical_log_prob_per_row_and_floor():
    probs = np.array([[0.2, 0.8], [1.0, 0.0]])
    got = dist.categorical_log_prob(np.array([1, 1]), probs)
    assert got[0] == math.log(0.8) and got[1] == math.log(1e-300)


def test_categorical_score_grad_matches_fd():
    rng = np.random.default_rng(22)
    logits = rng.normal(size=5)
    for c in (0, 2, 4):
        g = dist.categorical_score_grad(c, dist.softmax(logits))
        fd = fd_grad_all(lambda: dist.categorical_log_prob(c, dist.softmax(logits)), logits)
        assert np.all(np.abs(g - fd) < 1e-6)
