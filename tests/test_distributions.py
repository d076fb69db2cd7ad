import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from ibpdgm import distributions as dist

from oracles import (beta_log_prob_unfused, beta_sample_array_unfused,
                     beta_score_grad_unfused, digamma_masked, enumerate_binary,
                     fd_grad_all, rel_err, same_bits, sigmoid_masked, softplus_unfused)


# ---------------------------------------------------------------------------
# elementwise maps: each against its formula written out, bit for bit

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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_elementwise_maps_keep_their_bits_at_the_edges(dtype):
    # signed zeros, infinities, the smallest subnormals, and |x| past 88,
    # where exp(-|x|) underflows in float32, in each precision the maps keep
    tiny = np.finfo(dtype).smallest_subnormal
    x = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 87.0, -87.0,
                  88.5, -88.5, 89.0, -89.0, 104.0, -104.0, 745.0, -745.0],
                 dtype=dtype)
    for fn, formula in MAPS.values():
        assert same_bits(fn(x), formula(x))


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


@pytest.mark.parametrize("a, b", [(0.3, 2.5), (np.array([0.05, 0.7, 1.0, 4.0]),
                                                np.array([3.0, 0.2, 1.0, 0.9]))],
                         ids=["scalar", "array"])
def test_beta_sample_array_draws_the_bits_of_unit_scale_gammas(a, b):
    # standard_gamma(shape) is numpy's gamma(shape, 1.0) without the product
    # with the scale 1.0: the same draws, bit for bit, from the same stream,
    # for shapes below and above 1
    size = (300, 4)
    mine, ref = np.random.default_rng(21), np.random.default_rng(21)
    log_v, log_1mv = dist.beta_sample_array(a, b, size, mine)
    x = ref.gamma(np.broadcast_to(a, size), 1.0)
    y = ref.gamma(np.broadcast_to(b, size), 1.0)
    v = np.clip(x / (x + y), 1e-7, 1.0 - 1e-7)
    assert log_v.tobytes() == np.log(v).tobytes()
    assert log_1mv.tobytes() == np.log1p(-v).tobytes()
    assert mine.bit_generator.state == ref.bit_generator.state


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


K16 = np.geomspace(0.01, 40.0, 16)     # stick parameters on both sides of 10


@pytest.mark.parametrize("a, b, v", [
    (2.5, 0.3, 0.4), (12.0, 0.05, 0.9),
    (K16, K16[::-1], np.linspace(0.02, 0.98, 16)),
    (K16, 1.0, np.linspace(0.02, 0.98, 48).reshape(3, 16)),
    (0.7, K16, np.linspace(0.02, 0.98, 48).reshape(3, 16))],
    ids=["scalars", "scalars-above-10", "arrays", "array-scalar", "scalar-array"])
def test_beta_score_grad_digamma_call_is_bit_identical(a, b, v):
    # one digamma call over the stacked (a, b, a + b) gives the bits of
    # three separate calls: digamma is elementwise
    log_v, log_1mv = logs(v)
    psi_ab = dist.digamma(a + b)
    want = (log_v - dist.digamma(a) + psi_ab, log_1mv - dist.digamma(b) + psi_ab)
    got = dist.beta_score_grad(log_v, log_1mv, a, b)
    for g, w in zip(got, want):
        assert same_bits(np.asarray(g, dtype=np.float64), np.asarray(w, dtype=np.float64))


@pytest.mark.parametrize("a, b, size", [
    (K16, K16[::-1], (25, 32, 16)), (K16, 1.0, (4, 16)), (0.3, 2.5, (50,)),
    (2.5, 0.3, ())], ids=["c6-sticks", "array-scalar", "scalars", "one-draw"])
def test_beta_functions_keep_the_bits_of_the_whole_array_expressions(a, b, size):
    # the draws, their log-density and scores against the same expressions
    # with a new array per operation, from the same stream; the c6-train
    # shape puts draws on both clamp values
    mine, ref = np.random.default_rng(31), np.random.default_rng(31)
    shapes = [np.array(a, copy=True), np.array(b, copy=True)]
    log_v, log_1mv = pair = dist.beta_sample_array(*shapes, size, mine)
    for got, want in zip(pair, beta_sample_array_unfused(a, b, size, ref)):
        assert same_bits(got, want)
    assert mine.bit_generator.state == ref.bit_generator.state
    if size == (25, 32, 16):
        assert np.any(log_v == np.log(1e-7)) and np.any(log_1mv == np.log1p(-(1.0 - 1e-7)))
    args = [log_v, log_1mv, *shapes]
    before = [log_v.copy(), log_1mv.copy(), np.array(a), np.array(b)]
    assert same_bits(dist.beta_log_prob(*args), beta_log_prob_unfused(*before))
    for got, want in zip(dist.beta_score_grad(*args), beta_score_grad_unfused(*before)):
        assert same_bits(got, want)
    assert all(same_bits(x, x0) for x, x0 in zip(args, before))


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


@pytest.mark.parametrize("x", [
    np.float64(1.0), np.array(0.5), 2.5, 1e-300, 1e-8, np.nextafter(10.0, 0.0), 10.0,
    np.nextafter(10.0, 20.0), np.array([[1e-8, 0.7, 9.999], [10.0, 10.5, 57.3]]),
    np.stack([K16, K16[::-1], 2.0 * K16])],
    ids=["0d-scalar", "0d-array", "float", "tiny", "small", "below-10", "at-10",
         "above-10", "mixed", "stacked-sticks"])
def test_digamma_keeps_the_bits_of_the_masked_recurrence(x):
    # the recurrence as masked whole-array steps, against boolean-indexed
    # steps; tiny arguments take the most steps, and 10 takes none
    before = np.array(x, copy=True)
    got = dist.digamma(x)
    assert same_bits(got, digamma_masked(before))
    assert same_bits(np.asarray(x), before)


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
