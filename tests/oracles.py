"""Independent oracles shared by the test modules.

These deliberately avoid the library's own gradient/estimation code:
finite differences for gradients, brute-force enumeration for discrete
normalization, Gauss-Hermite tensor quadrature for Gaussian expectations,
and scipy for special functions and adaptive integration.  The
finite-difference helpers and the enumerable toy with its exact ELBO are
defined once, in `ibpdgm.selftest`, and re-exported here.  The scalar
per-point references (`LatentDraw`, `draw_latents`, `likelihood_log_prob`,
`per_point_elbo_terms`) check the batched estimator one point at a time.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ibpdgm import distributions as dist, ibp, model as mdl
from ibpdgm.selftest import (central_diff, exact_toy_elbo, fd_grad_all,  # noqa: F401
                             make_enumerable_toy, rel_err)


def enumerate_binary(k):
    for bits in itertools.product([0.0, 1.0], repeat=k):
        yield np.array(bits)


def sigmoid_masked(x):
    """The logistic function by boolean masks: 1 / (1 + exp(-x)) where
    x >= 0 and exp(x) / (1 + exp(x)) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _expect_sticks(fun, a, b, nodes=200):
    """E[fun(v1, v2)] under independent Beta(a[0], b[0]) x Beta(a[1], b[1]),
    by tensor Gauss-Jacobi quadrature (scipy.special.roots_jacobi); fun
    must accept arrays."""
    import scipy.special

    rules = []
    for ak, bk in zip(a, b):
        # weight (1 - t)^(b-1) (1 + t)^(a-1) on [-1, 1] is Beta(a, b) in v
        t, w = scipy.special.roots_jacobi(nodes, bk - 1.0, ak - 1.0)
        rules.append(((t + 1.0) / 2.0, w / w.sum()))
    (v1, w1), (v2, w2) = rules
    return float(np.sum(np.outer(w1, w2) * fun(v1[:, None], v2[None, :])))


def exact_stick_objective(stick_params, alpha, incl, dataset_size):
    """Exact stick-dependent part of the ELBO for K = 2 sticks.

    stick_params is [log_a | log_b]; incl is the (B, 2) matrix of spike
    inclusion probabilities of the batch.  Returns
    (N / B) sum_b sum_zhat q(zhat | x_b) E_q(v)[log p(zhat | v)]
    + E_q(v)[log p(v) - log q(v)], with the spikes enumerated, every
    expectation over v integrated by scipy quadrature, and the Beta
    densities taken from scipy.stats.
    """
    import scipy.stats

    a, b = np.exp(stick_params[:2]), np.exp(stick_params[2:])
    incl = np.atleast_2d(incl)
    total = 0.0
    for pattern in enumerate_binary(2):
        q = np.prod(np.where(pattern == 1.0, incl, 1.0 - incl), axis=1).sum()

        def log_p_spikes(v1, v2, z=pattern):
            pi1, pi2 = v1, v1 * v2
            return (z[0] * np.log(pi1) + (1.0 - z[0]) * np.log1p(-pi1)
                    + z[1] * np.log(pi2) + (1.0 - z[1]) * np.log1p(-pi2))

        total += dataset_size / incl.shape[0] * q * _expect_sticks(log_p_spikes, a, b)

    def log_ratio(v1, v2):
        return (scipy.stats.beta.logpdf(v1, alpha, 1.0)
                + scipy.stats.beta.logpdf(v2, alpha, 1.0)
                - scipy.stats.beta.logpdf(v1, a[0], b[0])
                - scipy.stats.beta.logpdf(v2, a[1], b[1]))

    return total + _expect_sticks(log_ratio, a, b)


def weighted_score_coeff(f, h, cv_eps=1e-8):
    """Cov(f h, h) / (Var(h) + cv_eps) over 1-D samples f, h, by brute
    force; 0 when Var(h) < cv_eps.  The weighted-score coefficient
    (Ranganath, Gerrish and Blei 2014) fitted on the samples it is given."""
    g = f * h
    var_h = np.mean((h - h.mean()) ** 2)
    cov = np.mean((g - g.mean()) * (h - h.mean()))
    return 0.0 if var_h < cv_eps else cov / (var_h + cv_eps)


def _lgamma(x):
    return np.array([math.lgamma(t) for t in np.atleast_1d(x)])


def sticks_log_prob_formula(sticks, v):
    """log q(v_k) per stick, (..., K): the Beta log-density written out
    over arrays, in the expression order `GlobalSticks.log_prob` trains
    with."""
    v = np.asarray(v, dtype=np.float64)
    a, b = sticks.a, sticks.b
    log_beta_fn = (_lgamma(a) + _lgamma(b) - _lgamma(a + b))
    return (a - 1.0) * np.log(v) + (b - 1.0) * np.log1p(-v) - log_beta_fn


def sticks_score_grads_formula(sticks, v):
    """d log q(v) / d [log_a | log_b], (..., 2K), written out over arrays in
    the expression order `GlobalSticks.score_grads` trains with."""
    v = np.asarray(v, dtype=np.float64)
    a, b = sticks.a, sticks.b
    psi_ab = dist.digamma(a + b)
    da = np.log(v) - dist.digamma(a) + psi_ab
    db = np.log1p(-v) - dist.digamma(b) + psi_ab
    return np.concatenate([a * da, b * db], axis=-1)


# ---------------------------------------------------------------------------
# scalar per-point references for the batched estimator

def likelihood_log_prob(m, x, params):
    if m.likelihood_kind == "bernoulli":
        if not isinstance(params, dist.BernoulliParams):
            raise ValueError("Bernoulli likelihood expects BernoulliParams")
        return dist.bernoulli_log_prob(x, params)
    if not isinstance(params, dist.DiagGaussianParams):
        raise ValueError("Gaussian likelihood expects DiagGaussianParams")
    return dist.gaussian_log_prob(x, params)


@dataclass
class LatentDraw:
    """One Monte Carlo joint sample with its per-factor log-densities."""
    ztilde: np.ndarray
    zhat: np.ndarray
    v: np.ndarray
    logq_ztilde: float = 0.0
    logp_ztilde: float = 0.0
    logq_zhat: float = 0.0
    logp_zhat: float = 0.0   # conditional on the sampled sticks
    logq_v: float = 0.0
    logp_v: float = 0.0

    @property
    def z(self):
        return mdl.compose_latent(self.ztilde, self.zhat)


def draw_latents(m, x, rng):
    """Sample (ztilde, zhat, v) from the amortized posteriors for one point."""
    gauss, bern, _ = mdl.encode(m, x)
    eps = rng.standard_normal(m.K)
    ztilde = dist.gaussian_reparam_sample(gauss, eps)
    zhat = dist.bernoulli_sample(bern, rng)
    v = m.sticks.sample((), rng)
    return LatentDraw(
        ztilde=ztilde, zhat=zhat, v=v,
        logq_ztilde=dist.gaussian_log_prob(ztilde, gauss),
        logp_ztilde=dist.gaussian_log_prob(
            ztilde, dist.DiagGaussianParams(np.zeros(m.K), np.ones(m.K))),
        logq_zhat=dist.bernoulli_log_prob(zhat, bern),
        logp_zhat=float(ibp.ibp_prior_log_prob_from_sticks(zhat, v)),
        logq_v=float(m.sticks.log_prob(v)),
        logp_v=float(ibp.sticks_prior_log_prob(v, m.sticks.alpha)),
    )


def per_point_elbo_terms(m, x, label, draw, mode="marginalize", alpha_sup=0.0):
    """Signed ELBO contributions of one data point for one joint draw.

    Labeled points condition the decoder on their one-hot label and add
    the supervised classifier term alpha_sup * log q(y = label); unlabeled
    points either marginalize the reconstruction over classes weighted by
    q(y) or use a zero label vector, and pay -KL(q(y) || Uniform(C)).
    Returns a dict with keys recon, kl_gauss, term_zhat, term_v, term_y.
    """
    if mode not in mdl.UNLABELED_MODES:
        raise ValueError(f"unknown unlabeled mode {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    z = draw.z
    labeled = label is not None and int(label) >= 0

    if labeled:
        recon = likelihood_log_prob(m, x, mdl.decode(m, z, mdl.onehot(label, m.C)))
        term_y = 0.0
        if alpha_sup != 0.0:
            term_y = alpha_sup * dist.categorical_log_prob(int(label), mdl.classify(m, x))
    else:
        q_y = mdl.classify(m, x)
        if mode == "marginalize":
            recon = sum(
                q_y.probs[c]
                * likelihood_log_prob(m, x, mdl.decode(m, z, mdl.onehot(c, m.C)))
                for c in range(m.C))
        else:
            recon = likelihood_log_prob(m, x, mdl.decode(m, z, np.zeros(m.C)))
        term_y = -dist.categorical_kl_to_uniform(q_y)

    gauss, _, _ = mdl.encode(m, x)
    return {
        "recon": float(recon),
        "kl_gauss": -dist.gaussian_kl_to_standard(gauss),
        "term_zhat": draw.logp_zhat - draw.logq_zhat,
        "term_v": draw.logp_v - draw.logq_v,
        "term_y": float(term_y),
    }
