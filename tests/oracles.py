"""Independent oracles shared by the test modules.

These deliberately avoid the library's own gradient/estimation code:
finite differences for gradients, brute-force enumeration for discrete
normalization, Gauss-Hermite tensor quadrature for Gaussian expectations,
and scipy for special functions and adaptive integration.  The
finite-difference helpers, the enumerable toy with its exact ELBO and the
likelihood written out from its definition are defined once, in
`ibpdgm.selftest`, and re-exported here.  The scalar per-point
references (`LatentDraw`, `draw_latents`, `likelihood_log_prob`,
`per_point_elbo_terms`) check the batched estimator one point at a time,
with the densities and KLs written out rather than taken from
`ibpdgm.distributions`.  The `*_unfused` functions and `digamma_masked`
are the score-function path's whole-array expressions, one new array per
operation; the library computes the same operations in place, and the
tests hold it to their bits.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ibpdgm import bbvi, distributions as dist, ibp, model as mdl
from ibpdgm.bbvi import CV_EPS
from ibpdgm.selftest import (exact_toy_elbo, fd_grad_all,  # noqa: F401
                             make_enumerable_toy, reference_log_lik, rel_err)


def same_bits(a, b):
    """The same dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def enumerate_binary(k):
    for bits in itertools.product([0.0, 1.0], repeat=k):
        yield np.array(bits)


def _float_array(x):
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64)


def sigmoid_masked(x):
    """The logistic function by boolean masks: 1 / (1 + exp(-x)) where
    x >= 0 and exp(x) / (1 + exp(x)) elsewhere, in float32 for a float32
    array and in float64 otherwise."""
    x = _float_array(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus_unfused(x):
    """log(1 + exp(-|x|)) + max(x, 0), one temporary per operation, in the
    precision `sigmoid_masked` takes."""
    x = _float_array(x)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def net_pass_masking_preacts(net, x, grad_out, dtype=np.float64):
    """A network's forward and backward pass that keeps every
    pre-activation apart from its ReLU output and takes each ReLU mask from
    the pre-activation, with the operations of `nn.forward` and
    `nn.backward` otherwise, on the weights cast to `dtype`.  Returns
    (output, flat float64 parameter gradient, gradient w.r.t. the first
    layer's pre-activation)."""
    weights = [(net.weights(layer).astype(dtype), net.biases(layer).astype(dtype))
               for layer in range(len(net.activations))]
    inputs, preacts = [], []
    h = np.asarray(x, dtype=dtype)
    for (w, b), act in zip(weights, net.activations):
        inputs.append(h)
        z = h @ w.T + b
        preacts.append(z)
        h = np.maximum(z, 0.0) if act == "relu" else z
    g = np.asarray(grad_out, dtype=dtype)
    parts = []
    for layer in range(len(weights) - 1, -1, -1):
        if net.activations[layer] == "relu":
            g = g * (preacts[layer] > 0.0)
        parts.append(np.concatenate([(g.T @ inputs[layer]).ravel(), g.sum(axis=0)]))
        if layer:
            g = g @ weights[layer][0]
    return h, np.concatenate(parts[::-1]).astype(np.float64), g


# ---------------------------------------------------------------------------
# the score-function path as whole-array expressions, one temporary per
# operation: the bits that `bbvi`, `distributions` and `ibp` compute in
# place on their own buffers, and the stand-ins of the whole-step bit check

def control_variate_coeffs_unfused(f, h):
    """`bbvi.control_variate_coeffs` without its shape checks, one new
    array per operation and `np.where` for the constant-score fallback."""
    scale = 1.0 / (h.shape[0] - 1.0)

    def others(x):
        return (x.sum(axis=0) - x) * scale

    f_mean = f.mean(axis=0)
    fc = f - f_mean
    fch = fc * h
    mean_h = others(h)
    var_h = others(h * h) - mean_h * mean_h
    cov = others(fch * h) - others(fch) * mean_h
    m = fc * -scale
    small = var_h < CV_EPS
    cov = (cov + CV_EPS * m) / (var_h + CV_EPS)
    return np.where(small, m, cov) + f_mean


def score_function_grad_unfused(f, h):
    """`bbvi.score_function_grad` over `control_variate_coeffs_unfused`."""
    return np.mean(h * (f - control_variate_coeffs_unfused(f, h)), axis=0)


def beta_sample_array_unfused(a, b, size, rng):
    """`distributions.beta_sample_array` with a new array per operation:
    the same Gamma draws, in the same order."""
    x = rng.standard_gamma(np.broadcast_to(a, size))
    y = rng.standard_gamma(np.broadcast_to(b, size))
    v = np.clip(x / (x + y), 1e-7, 1.0 - 1e-7)
    return np.log(v), np.log1p(-v)


def digamma_masked(x):
    """`distributions.digamma` with the recurrence on boolean-indexed
    elements and the asymptotic series as one expression."""
    x = np.array(x, dtype=np.float64, copy=True)
    value = np.zeros_like(x)
    while True:
        small = x < 10.0
        if not np.any(small):
            break
        value[small] -= 1.0 / x[small]
        x[small] += 1.0
    r = 1.0 / (x * x)
    series = r * (1.0 / 12.0
                  - r * (1.0 / 120.0
                         - r * (1.0 / 252.0
                                - r * (1.0 / 240.0
                                       - r * (1.0 / 132.0)))))
    value += np.log(x) - 0.5 / x - series
    return value


def beta_log_prob_unfused(log_v, log_1mv, a, b):
    """`distributions.beta_log_prob` as one expression, with its own
    elementwise `math.lgamma`."""
    def lgamma(x):
        x = np.asarray(x, dtype=np.float64)
        return np.array([math.lgamma(t) for t in x.ravel()]).reshape(x.shape)

    log_beta = lgamma(a) + lgamma(b) - lgamma(a + b)
    return (a - 1.0) * log_v + (b - 1.0) * log_1mv - log_beta


def beta_score_grad_unfused(log_v, log_1mv, a, b):
    """`distributions.beta_score_grad` over `digamma_masked`."""
    psi_a, psi_b, psi_ab = digamma_masked(np.stack(np.broadcast_arrays(a, b, a + b)))
    return log_v - psi_a + psi_ab, log_1mv - psi_b + psi_ab


def sticks_score_grads_unfused(sticks, log_v, log_1mv):
    """`ibp.GlobalSticks.score_grads` over `beta_score_grad_unfused`, its
    two halves joined by `np.concatenate`."""
    a, b = sticks.a, sticks.b
    da, db = beta_score_grad_unfused(log_v, log_1mv, a, b)
    return np.concatenate([a * da, b * db], axis=-1)


def ibp_prior_log_prob_unfused(zhat, log_v):
    """`ibp.ibp_prior_log_prob_from_sticks` with `np.where` guards."""
    zhat = np.asarray(zhat, dtype=np.float64)
    log_pi = np.cumsum(log_v, axis=-1)
    with np.errstate(divide="ignore"):
        log_one_minus_pi = np.log(-np.expm1(log_pi))
    on = np.where(np.isfinite(log_pi), log_pi, ibp.LOG_ZERO_SENTINEL)
    off = np.where(np.isfinite(log_one_minus_pi), log_one_minus_pi,
                   ibp.LOG_ZERO_SENTINEL)
    return zhat * on + (1.0 - zhat) * off


def sticks_prior_log_prob_unfused(log_v, alpha):
    """`ibp.sticks_prior_log_prob` as one expression."""
    return np.log(alpha) + (alpha - 1.0) * log_v


def learning_signals_unfused(recon, logp_zhat_k, logq_zhat_k, prior_weight,
                             expected_spike_priors, logp_v_k, logq_v_k, n_data):
    """`bbvi._learning_signals` as two expressions: the spikes' signal
    transposed to (S, B, K), the sticks' reversed cumulative sums of the
    expected spike priors flattened to (B * S, K)."""
    f_zhat = (logp_zhat_k - logq_zhat_k) * prior_weight + recon[:, :, None]
    tails = np.cumsum(expected_spike_priors[..., ::-1], axis=2)[..., ::-1]
    f_v = tails * n_data + logp_v_k - logq_v_k
    return f_zhat.transpose(1, 0, 2), f_v.reshape(-1, f_v.shape[-1])


# (owner, attribute, whole-array stand-in) for every function of the
# score-function path that computes in place
SCORE_PATH_UNFUSED = [
    (bbvi, "control_variate_coeffs", control_variate_coeffs_unfused),
    (bbvi, "score_function_grad", score_function_grad_unfused),
    (dist, "beta_sample_array", beta_sample_array_unfused),
    (dist, "digamma", digamma_masked),
    (dist, "beta_log_prob", beta_log_prob_unfused),
    (dist, "beta_score_grad", beta_score_grad_unfused),
    (ibp, "ibp_prior_log_prob_from_sticks", ibp_prior_log_prob_unfused),
    (ibp, "sticks_prior_log_prob", sticks_prior_log_prob_unfused),
    (ibp.GlobalSticks, "score_grads", sticks_score_grads_unfused),
    (bbvi, "_learning_signals", learning_signals_unfused),
]


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


def weighted_score_coeff(f, h):
    """Cov(f h, h) / (Var(h) + CV_EPS) over 1-D samples f, h, by brute
    force; 0 when Var(h) < CV_EPS.  The weighted-score coefficient
    (Ranganath, Gerrish and Blei 2014) fitted on the samples it is given."""
    g = f * h
    var_h = np.mean((h - h.mean()) ** 2)
    cov = np.mean((g - g.mean()) * (h - h.mean()))
    return 0.0 if var_h < CV_EPS else cov / (var_h + CV_EPS)


def zero_control_variates(f, h):
    """A stand-in for `bbvi.control_variate_coeffs` that fits nothing:
    every coefficient is 0, so every term of the score-function estimate
    is h * f, bit for bit as the plain estimator (no control variates)
    computes it.  Tests patch it in to get that estimator as a reference."""
    return np.zeros(np.broadcast_shapes(f.shape, h.shape))


# ---------------------------------------------------------------------------
# scalar per-point references for the batched estimator, with every density
# and KL written out from its definition

def gaussian_log_pdf(x, mean, var):
    """log N(x; mean, diag var), summed."""
    return float(np.sum(-0.5 * np.log(2.0 * np.pi * var) - (x - mean) ** 2 / (2.0 * var)))


def bernoulli_log_pmf(z, probs):
    """log prod_k Bernoulli(z_k; probs_k)."""
    return float(np.sum(np.where(z == 1.0, np.log(probs), np.log1p(-probs))))


def likelihood_log_prob(m, x, out):
    """log p(x | raw decoder output) of one point."""
    out = np.atleast_2d(out)
    if out.shape[1] != (m.D if m.likelihood_kind == "bernoulli" else 2 * m.D):
        raise ValueError("decoder output width does not match the likelihood kind")
    return float(reference_log_lik(m, out, x)[0])


@dataclass
class LatentDraw:
    """One Monte Carlo joint sample with its per-factor log-densities."""
    ztilde: np.ndarray
    zhat: np.ndarray
    log_v: np.ndarray        # the sticks, as the pair (log v, log(1 - v))
    log_1mv: np.ndarray
    logq_ztilde: float = 0.0
    logp_ztilde: float = 0.0
    logq_zhat: float = 0.0
    logp_zhat: float = 0.0   # conditional on the sampled sticks
    logq_v: float = 0.0
    logp_v: float = 0.0

    @property
    def z(self):
        return self.ztilde * self.zhat


def draw_latents(m, x, rng):
    """Sample (ztilde, zhat, v) from the amortized posteriors for one point."""
    mean, var, logits = (head[0] for head in mdl.encode(m, x[None]))
    ztilde = mean + np.sqrt(var) * rng.standard_normal(m.K)
    incl = 1.0 / (1.0 + np.exp(-logits))
    zhat = (rng.random(m.K) < incl).astype(np.float64)
    log_v, log_1mv = m.sticks.sample((), rng)
    return LatentDraw(
        ztilde=ztilde, zhat=zhat, log_v=log_v, log_1mv=log_1mv,
        logq_ztilde=gaussian_log_pdf(ztilde, mean, var),
        logp_ztilde=gaussian_log_pdf(ztilde, 0.0, 1.0),
        logq_zhat=bernoulli_log_pmf(zhat, incl),
        logp_zhat=float(ibp.ibp_prior_log_prob_from_sticks(zhat, log_v).sum()),
        logq_v=float(m.sticks.log_prob(log_v, log_1mv).sum()),
        logp_v=float(ibp.sticks_prior_log_prob(log_v, m.sticks.alpha).sum()),
    )


def per_point_elbo_terms(m, x, label, draw, alpha_sup=0.0):
    """Signed ELBO contributions of one data point for one joint draw.

    Labeled points condition the decoder on their one-hot label and add
    the supervised classifier term alpha_sup * log q(y = label); unlabeled
    points marginalize the reconstruction over classes weighted by q(y)
    and pay -KL(q(y) || Uniform(C)).  Returns a dict with keys recon,
    kl_gauss, term_zhat, term_v, term_y.
    """
    x = np.asarray(x, dtype=np.float64)
    z = draw.z
    labeled = label is not None and int(label) >= 0
    onehots = np.eye(m.C)
    q_y = mdl.classify(m, x[None])[0]

    def recon_given(c):
        return likelihood_log_prob(m, x, mdl.decode(m, z[None], onehots[c][None]))

    if labeled:
        recon = recon_given(int(label))
        term_y = alpha_sup * np.log(q_y[int(label)]) if alpha_sup != 0.0 else 0.0
    else:
        recon = sum(q_y[c] * recon_given(c) for c in range(m.C))
        term_y = -np.sum(q_y * np.log(m.C * q_y))

    mean, var, _ = (head[0] for head in mdl.encode(m, x[None]))
    return {
        "recon": float(recon),
        "kl_gauss": 0.5 * float(np.sum(1.0 + np.log(var) - mean ** 2 - var)),
        "term_zhat": draw.logp_zhat - draw.logq_zhat,
        "term_v": draw.logp_v - draw.logq_v,
        "term_y": float(term_y),
    }
