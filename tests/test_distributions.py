import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from ibpdgm import distributions as dist

from oracles import central_diff, enumerate_binary, rel_err, sigmoid_masked


# ---------------------------------------------------------------------------
# logistic sigmoid

def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# (B, K) heads, (B * S * C, D) likelihood rows and the decoder's (rows, 2D)
# Gaussian outputs at the benchmarked shapes
@pytest.mark.parametrize("shape", [(25, 16), (100, 50), (2000, 16), (2000, 50),
                                   (800, 30), (100, 784), (4000, 784), (800, 60)])
def test_sigmoid_matches_mask_formula_bit_for_bit(shape):
    x = 8.0 * np.random.default_rng(shape[0] + shape[1]).standard_normal(shape)
    assert same_bits(dist.sigmoid(x), sigmoid_masked(x))


def test_sigmoid_edge_values_bit_for_bit():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                  745.0, -745.0, 800.0, -800.0, 5e-324, -5e-324])
    got = dist.sigmoid(x)
    assert same_bits(got, sigmoid_masked(x))
    assert got[2] == 1.0 and got[3] == 0.0 and got[7] > 0.0
    for scalar in (0.3, -0.3, 0.0, -800.0, np.nan):
        got = dist.sigmoid(scalar)
        assert got.shape == () and same_bits(got, sigmoid_masked(scalar))


# ---------------------------------------------------------------------------
# diagonal Gaussian

def test_reparam_sample_formula():
    p = dist.DiagGaussianParams([0.0], [4.0])
    assert np.allclose(dist.gaussian_reparam_sample(p, [1.5]), [3.0])


def test_reparam_zero_noise_returns_mean():
    p = dist.DiagGaussianParams([1.2, -0.7], [0.3, 2.0])
    assert np.array_equal(dist.gaussian_reparam_sample(p, np.zeros(2)), p.mean)


def test_reparam_moments_match():
    rng = np.random.default_rng(0)
    p = dist.DiagGaussianParams([1.0, -2.0], [4.0, 0.25])
    eps = rng.standard_normal((100_000, 2))
    draws = dist.gaussian_reparam_sample(p, eps)
    assert np.all(np.abs(draws.mean(axis=0) - p.mean) < 0.01 * np.maximum(np.abs(p.mean), 1.0))
    assert np.all(np.abs(draws.std(axis=0) - np.sqrt(p.var)) < 0.01 * np.sqrt(p.var))


def test_gaussian_params_validation():
    with pytest.raises(ValueError):
        dist.DiagGaussianParams([0.0], [0.0])
    with pytest.raises(ValueError):
        dist.DiagGaussianParams([np.inf], [1.0])


def test_gaussian_kl_zero_at_standard():
    p = dist.DiagGaussianParams(np.zeros(3), np.ones(3))
    assert dist.gaussian_kl_to_standard(p) == 0.0


def test_gaussian_kl_unit_mean_shift():
    p = dist.DiagGaussianParams([1.0], [1.0])
    assert abs(dist.gaussian_kl_to_standard(p) - 0.5) < 1e-12


def test_gaussian_kl_matches_monte_carlo():
    rng = np.random.default_rng(5)
    p = dist.DiagGaussianParams(rng.normal(size=4), rng.random(4) + 0.3)
    eps = rng.standard_normal((100_000, 4))
    x = dist.gaussian_reparam_sample(p, eps)
    log_q = -0.5 * np.sum(np.log(2 * np.pi * p.var) + (x - p.mean) ** 2 / p.var, axis=1)
    log_p = -0.5 * np.sum(np.log(2 * np.pi) + x ** 2, axis=1)
    diffs = log_q - log_p
    sem = diffs.std(ddof=1) / np.sqrt(diffs.size)
    assert abs(diffs.mean() - dist.gaussian_kl_to_standard(p)) < 3 * sem


def test_gaussian_kl_nonnegative_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = dist.DiagGaussianParams(rng.normal(size=3), rng.random(3) * 3 + 0.05)
        assert dist.gaussian_kl_to_standard(p) >= 0.0


def test_gaussian_score_grad_matches_fd():
    rng = np.random.default_rng(2)
    p = dist.DiagGaussianParams(rng.normal(size=3), rng.random(3) + 0.5)
    x = rng.normal(size=3)
    gm, gv = dist.gaussian_score_grad(x, p)
    for i in range(3):
        fd_m = central_diff(lambda mu: dist.gaussian_log_prob(
            x, dist.DiagGaussianParams(mu, p.var)), p.mean, i)
        fd_v = central_diff(lambda vv: dist.gaussian_log_prob(
            x, dist.DiagGaussianParams(p.mean, vv)), p.var, i)
        assert abs(gm[i] - fd_m) < 1e-6
        assert abs(gv[i] - fd_v) < 1e-6


# ---------------------------------------------------------------------------
# Bernoulli

def test_bernoulli_log_prob_half():
    p = dist.BernoulliParams.from_probs([0.5, 0.5])
    got = dist.bernoulli_log_prob(np.array([1.0, 0.0]), p)
    assert abs(got - math.log(0.25)) < 1e-12


def test_bernoulli_log_prob_saturated():
    p = dist.BernoulliParams(np.array([40.0]))
    assert abs(dist.bernoulli_log_prob(np.array([1.0]), p)) < 1e-12


def test_bernoulli_normalizes_by_enumeration():
    rng = np.random.default_rng(3)
    p = dist.BernoulliParams(rng.normal(size=3) * 2)
    total = sum(np.exp(dist.bernoulli_log_prob(z, p)) for z in enumerate_binary(3))
    assert abs(total - 1.0) < 1e-9


def test_bernoulli_score_grad_center():
    p = dist.BernoulliParams(np.array([0.0]))
    assert np.allclose(dist.bernoulli_score_grad(np.array([1.0]), p), [0.5])


def test_bernoulli_score_grad_saturated_is_zero():
    p = dist.BernoulliParams(np.array([35.0]))
    g = dist.bernoulli_score_grad(np.array([1.0]), p)
    assert abs(g[0]) < 1e-12


def test_bernoulli_score_grad_matches_fd():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=4)
    z = (rng.random(4) < 0.5).astype(float)
    g = dist.bernoulli_score_grad(z, dist.BernoulliParams(logits))
    for i in range(4):
        fd = central_diff(lambda l: dist.bernoulli_log_prob(
            z, dist.BernoulliParams(l)), logits, i)
        assert abs(g[i] - fd) < 1e-6


def test_bernoulli_sampler_deterministic():
    p = dist.BernoulliParams(np.array([0.3, -0.8, 1.4]))
    a = dist.bernoulli_sample(p, np.random.default_rng(10))
    b = dist.bernoulli_sample(p, np.random.default_rng(10))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Beta

def test_beta_uniform_ks():
    rng = np.random.default_rng(6)
    draws = dist.beta_sample_array(1.0, 1.0, (10_000,), rng)
    stat = scipy.stats.kstest(draws, "uniform").statistic
    assert stat < 0.02


def test_beta_mean_a5_b1():
    rng = np.random.default_rng(7)
    draws = dist.beta_sample_array(5.0, 1.0, (100_000,), rng)
    assert abs(draws.mean() - 5.0 / 6.0) < 0.01 * 5.0 / 6.0


def test_beta_sample_deterministic_and_clamped():
    p = dist.BetaParams(0.05, 0.05)  # extreme draws hit the clamp
    a = [dist.beta_sample(p, np.random.default_rng(8)) for _ in range(50)]
    b = [dist.beta_sample(p, np.random.default_rng(8)) for _ in range(50)]
    assert a == b
    assert all(1e-7 <= v <= 1 - 1e-7 for v in a)


def test_beta_log_prob_values():
    assert abs(dist.beta_log_prob(0.5, dist.BetaParams(1.0, 1.0))) < 1e-12
    assert abs(dist.beta_log_prob(0.5, dist.BetaParams(2.0, 1.0))) < 1e-12


def test_beta_log_prob_domain():
    with pytest.raises(ValueError):
        dist.beta_log_prob(0.0, dist.BetaParams(2.0, 2.0))
    with pytest.raises(ValueError):
        dist.beta_log_prob(1.0, dist.BetaParams(2.0, 2.0))


def test_beta_scalar_calls_return_floats():
    # criteria 1 and 2 feed them to rel_err and scipy.integrate.quad
    p = dist.BetaParams(2.3, 0.8)
    assert type(dist.beta_log_prob(0.3, p)) is float
    assert [type(g) for g in dist.beta_score_grad(0.3, p)] == [float, float]


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, np.nan])
def test_beta_array_calls_reject_v_outside_unit_interval(bad):
    p = dist.BetaParams(np.array([1.5, 2.0, 0.7]), np.array([1.0, 3.0, 2.0]))
    v = np.array([[0.2, 0.5, 0.9], [0.4, bad, 0.1]])
    with pytest.raises(ValueError):
        dist.beta_log_prob(v, p)
    with pytest.raises(ValueError):
        dist.beta_score_grad(v, p)


def test_beta_density_integrates_to_one():
    rng = np.random.default_rng(12)
    for _ in range(4):
        a, b = rng.random(2) * 4 + 0.8
        p = dist.BetaParams(a, b)
        integral, err = scipy.integrate.quad(
            lambda v: np.exp(dist.beta_log_prob(v, p)), 0.0, 1.0)
        assert abs(integral - 1.0) < 1e-6


def test_beta_score_grad_uniform_case():
    da, db = dist.beta_score_grad(0.5, dist.BetaParams(1.0, 1.0))
    # ln 0.5 + (psi(2) - psi(1)) = ln 0.5 + 1
    assert abs(da - 0.30685281944005469) < 1e-12
    assert abs(db - 0.30685281944005469) < 1e-12


def test_beta_score_grad_symmetry():
    da, db = dist.beta_score_grad(0.5, dist.BetaParams(3.3, 3.3))
    assert abs(da - db) < 1e-14


def test_beta_score_grad_matches_fd():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a, b = rng.random(2) * 4 + 0.5
        v = rng.random() * 0.9 + 0.05
        da, db = dist.beta_score_grad(v, dist.BetaParams(a, b))
        fd_a = central_diff(lambda q: dist.beta_log_prob(
            v, dist.BetaParams(q[0], b)), np.array([a]), 0)
        fd_b = central_diff(lambda q: dist.beta_log_prob(
            v, dist.BetaParams(a, q[0])), np.array([b]), 0)
        assert abs(da - fd_a) < 1e-6
        assert abs(db - fd_b) < 1e-6


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
    p = dist.CategoricalParams(np.full(7, 1.0 / 7.0))
    assert abs(dist.categorical_kl_to_uniform(p)) < 1e-12


def test_categorical_kl_onehot():
    probs = np.zeros(10)
    probs[3] = 1.0
    p = dist.CategoricalParams(probs)
    assert abs(dist.categorical_kl_to_uniform(p) - math.log(10)) < 1e-12


def test_categorical_simplex_validation():
    with pytest.raises(ValueError):
        dist.CategoricalParams(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        dist.CategoricalParams(np.array([-0.1, 1.1]))


def test_categorical_sample_frequencies():
    rng = np.random.default_rng(21)
    p = dist.CategoricalParams(np.array([0.1, 0.3, 0.6]))
    draws = np.array([dist.categorical_sample(p, rng) for _ in range(100_000)])
    for c in range(3):
        freq = np.mean(draws == c)
        sem = np.sqrt(p.probs[c] * (1 - p.probs[c]) / draws.size)
        assert abs(freq - p.probs[c]) < 3 * sem


def test_categorical_log_prob_normalizes():
    p = dist.CategoricalParams.from_logits(np.random.default_rng(1).normal(size=10))
    total = sum(np.exp(dist.categorical_log_prob(c, p)) for c in range(10))
    assert abs(total - 1.0) < 1e-9


def test_categorical_score_grad_matches_fd():
    rng = np.random.default_rng(22)
    logits = rng.normal(size=5)
    for c in (0, 2, 4):
        g = dist.categorical_score_grad(c, logits)
        for i in range(5):
            fd = central_diff(lambda l: dist.categorical_log_prob(
                c, dist.CategoricalParams.from_logits(l)), logits, i)
            assert abs(g[i] - fd) < 1e-6
