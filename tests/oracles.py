"""Independent oracles shared by the test modules.

These deliberately avoid the library's own gradient/estimation code:
finite differences for gradients, brute-force enumeration for discrete
normalization, Gauss-Hermite tensor quadrature for Gaussian expectations,
and scipy for special functions and adaptive integration.  The one
written-out ELBO (`reference_heads`, `reference_terms`, with the
likelihood `reference_log_lik`), the enumerable toy whose exact ELBO
sums it and the finite-difference helpers are defined once, in
`ibpdgm.selftest`, and re-exported here; the tests check the batched
estimator one point at a time against that ELBO.
`beta_log_prob_unfused` writes q(v)'s density out with its own lgamma.
The other `*_unfused` functions are the
whole-array expressions, one new array per operation, of the spike path
functions that the library computes in place (`SCORE_PATH_UNFUSED`):
the spike fit and the spike prior; the tests hold the library to their
bits.
"""

import itertools
import math

import numpy as np

from ibpdgm import bbvi, ibp
from ibpdgm.bbvi import CV_EPS
from ibpdgm.selftest import (exact_toy_elbo, fd_grad_all,  # noqa: F401
                             make_enumerable_toy, reference_heads, reference_log_lik,
                             reference_terms, rel_err)


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
    return np.log1p(np.exp(np.minimum(x, -x))) + np.maximum(x, 0.0)


def net_pass_masking_preacts(net, x, grad_out, dtype=np.float64):
    """A network's forward and backward pass that keeps every
    pre-activation apart from its ReLU output and takes each ReLU mask from
    the pre-activation, with the operations of `nn.forward` and
    `nn.backward` otherwise, on the weights cast to `dtype`.  Returns
    (output, flat float64 parameter gradient, gradient w.r.t. the first
    layer's pre-activation)."""
    last = len(net.dims) - 2
    weights = [(net.weights(layer).astype(dtype), net.biases(layer).astype(dtype))
               for layer in range(last + 1)]
    inputs, preacts = [], []
    h = np.asarray(x, dtype=dtype)
    for layer, (w, b) in enumerate(weights):
        inputs.append(h)
        z = h @ w.T + b
        preacts.append(z)
        h = np.maximum(z, 0.0) if layer < last else z
    g = np.asarray(grad_out, dtype=dtype)
    parts = []
    for layer in range(last, -1, -1):
        if layer < last:
            g = g * (preacts[layer] > 0.0)
        parts.append(np.concatenate([(g.T @ inputs[layer]).ravel(), g.sum(axis=0)]))
        if layer:
            g = g @ weights[layer][0]
    return h, np.concatenate(parts[::-1]).astype(np.float64), g


# ---------------------------------------------------------------------------
# the spike path as whole-array expressions, one temporary per operation:
# the bits that `bbvi` and `ibp` compute in place on their own buffers,
# and the stand-ins of the whole-step bit check

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


# (owner, attribute, whole-array stand-in) for every function of the
# score-function path that computes in place: the spike path
SCORE_PATH_UNFUSED = [
    (bbvi, "control_variate_coeffs", control_variate_coeffs_unfused),
    (bbvi, "score_function_grad", score_function_grad_unfused),
    (ibp, "ibp_prior_log_prob_from_sticks", ibp_prior_log_prob_unfused),
]


def beta_log_prob_unfused(log_v, log_1mv, a, b):
    """log Beta(v; a, b) written out from ln v and ln(1 - v), with its
    own elementwise `math.lgamma`: `distributions.beta_log_prob`'s bits."""
    def lgamma(x):
        x = np.asarray(x, dtype=np.float64)
        return np.array([math.lgamma(t) for t in x.ravel()]).reshape(x.shape)

    log_beta = lgamma(a) + lgamma(b) - lgamma(a + b)
    return (a - 1.0) * log_v + (b - 1.0) * log_1mv - log_beta


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
