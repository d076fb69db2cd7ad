"""Log-densities, score gradients and analytic KLs, over plain arrays.

One function per density, score and KL of the four families the model
is built from: diagonal Gaussian (mean, var), Bernoulli (logits), Beta
(shape pair a, b) and Categorical (probabilities over the last axis),
plus the elementwise maps and the lgamma and digamma special functions
they need.  Each computes the expression the estimator
(`bbvi.estimate_elbo_and_grads`) trains with, so every check of these
functions checks trained code.  The Gaussian log-density, both KLs and
the categorical log-probability return one value per row (they reduce
the last axis); `bernoulli_log_prob` and the score gradients are
elementwise.  The one sampler, `beta_sample_array`, serves q(v): from a
numpy Generator it draws clamped Beta pairs (log v, log(1 - v)), the form
every Beta term reads.  The prior is drawn by `ibp.sticks_prior_sample`.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# numerically stable scalar maps

def _float_array(x):
    """x as a float32 array if it is one, else as float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def _exp_neg_abs(x, out):
    """exp(-|x|) into `out`, shaped and typed like x: the one exp from which
    `sigmoid` takes sigmoid(x), and the Bernoulli likelihood both sigmoid(x)
    and softplus(x)."""
    np.negative(x, out=out)
    np.minimum(x, out, out=out)       # -|x|; unlike -abs(x), keeps a NaN's sign
    return np.exp(out, out=out)


def _sigmoid_from_exp(x, e):
    """sigmoid(x) from e = exp(-|x|), written over e."""
    num = np.maximum(e, x >= 0)       # 1 where x >= 0, since e <= 1 there
    e += 1.0
    return np.divide(num, e, out=e)


def _softplus_from_exp(x, e, out):
    """softplus(x) from e = exp(-|x|), into `out` (which may be e)."""
    np.log1p(e, out=out)
    out += np.maximum(x, 0.0)
    return out


def sigmoid(x):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, from one
    exp(-|x|), so no exp overflows.  A float32 array stays float32; any
    other input is computed in float64."""
    x = _float_array(x)
    return _sigmoid_from_exp(x, _exp_neg_abs(x, np.empty_like(x)))


def softplus(x):
    """log(1 + exp(x)) as log1p(exp(-|x|)) + max(x, 0), so no exp overflows.
    Keeps a float32 array in float32, like `sigmoid`."""
    x = _float_array(x)
    # -abs(x) here, not `_exp_neg_abs`'s form: a NaN comes out negative, as
    # it always has; the two forms differ only in that sign
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    return _softplus_from_exp(x, np.exp(e, out=e), out=e)


def softmax(logits):
    """Softmax over the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def lgamma(x):
    """log Gamma(x), elementwise by math.lgamma."""
    x = np.asarray(x, dtype=np.float64)
    return np.array([math.lgamma(t) for t in x.ravel()]).reshape(x.shape)


def digamma(x):
    """Digamma psi(x) for x > 0.

    Uses the recurrence psi(x) = psi(x+1) - 1/x to push the argument above
    10, then de Moivre's asymptotic series, elementwise.  Each step of the
    recurrence acts on the arguments still below 10, picked by a mask.
    """
    x = np.array(x, dtype=np.float64, copy=True)
    if (x <= 0).any():
        raise ValueError("digamma requires x > 0")
    value = np.zeros_like(x)
    while (small := x < 10.0).any():
        value[small] -= 1.0 / x[small]
        x[small] += 1.0
    r = 1.0 / (x * x)
    series = r * (1.0 / 12.0 - r * (1.0 / 120.0 - r * (
        1.0 / 252.0 - r * (1.0 / 240.0 - r * (1.0 / 132.0)))))
    value += np.log(x) - 0.5 / x - series
    return value


# ---------------------------------------------------------------------------
# diagonal Gaussian

def gaussian_kl_to_standard(mean, var):
    """KL( N(mean, diag var) || N(0, I) ) per row, in closed form; >= 0."""
    return 0.5 * np.sum(mean ** 2 + var - 1.0 - np.log(var), axis=-1)


def gaussian_log_prob(x, mean, var):
    """log N(x; mean, diag var) per row."""
    diff = x - mean
    return -0.5 * np.sum(np.log(2.0 * np.pi * var) + diff * diff / var, axis=-1)


def gaussian_score_grad(x, mean, var):
    """Gradient of log N(x; mean, diag var) w.r.t. (mean, var), elementwise."""
    diff = x - mean
    return diff / var, -0.5 / var + 0.5 * diff * diff / (var * var)


# ---------------------------------------------------------------------------
# Bernoulli, parameterized by logits

def bernoulli_log_prob(z, logits):
    """z ln pi + (1 - z) ln(1 - pi) with pi = sigmoid(logits), elementwise,
    as z * logits - softplus(logits)."""
    out = z * logits
    out -= softplus(logits)
    return out


def bernoulli_score_grad(z, logits):
    """d/d logits of `bernoulli_log_prob`: z - sigmoid(logits)."""
    return z - sigmoid(logits)


# ---------------------------------------------------------------------------
# Beta

def beta_sample_array(a, b, size, rng):
    """Beta(a, b) draws v of the given shape, as the pair (log v, log(1 - v)).

    numpy's Generator.standard_gamma implements the Marsaglia-Tsang
    rejection sampler; the ratio x/(x+y) of two Gamma(a,1), Gamma(b,1)
    draws is an exact Beta(a, b) variate.  (`rng.gamma(shape, 1.0)` is the
    same draw times the scale 1.0, so the same bits, at more cost.)  The
    ratio is clamped to [1e-7, 1 - 1e-7] before its logs are taken, so both
    stay finite.
    """
    x = rng.standard_gamma(np.broadcast_to(a, size))
    y = rng.standard_gamma(np.broadcast_to(b, size))
    v = np.clip(x / (x + y), 1e-7, 1.0 - 1e-7)
    return np.log(v), np.log1p(-v)


def beta_log_prob(log_v, log_1mv, a, b):
    """(a-1) ln v + (b-1) ln(1-v) - ln B(a, b), from ln v and ln(1-v).

    The logs, a and b broadcast against each other (the sticks pass logs
    of shape (..., K) against K shape pairs).
    """
    log_beta = lgamma(a) + lgamma(b) - lgamma(a + b)
    return (a - 1.0) * log_v + (b - 1.0) * log_1mv - log_beta


def beta_score_grad(log_v, log_1mv, a, b):
    """Gradient (da, db) of log Beta(v; a, b) w.r.t. (a, b), from ln v and
    ln(1-v); broadcasts like `beta_log_prob`."""
    # one digamma call over the stacked (a, b, a + b): it is elementwise,
    # so the bits are those of three calls
    psi_a, psi_b, psi_ab = digamma(np.stack(np.broadcast_arrays(a, b, a + b)))
    return log_v - psi_a + psi_ab, log_1mv - psi_b + psi_ab


# ---------------------------------------------------------------------------
# Categorical, over the last axis of a probability array

def _floored_log(probs):
    return np.log(np.maximum(probs, 1e-300))


def categorical_log_prob(labels, probs):
    """ln probs[..., label] per row, floored at ln 1e-300."""
    picked = np.take_along_axis(probs, np.asarray(labels)[..., None], axis=-1)
    return _floored_log(picked[..., 0])


def categorical_score_grad(labels, probs):
    """d/d logits of `categorical_log_prob` with probs = softmax(logits):
    onehot(label) - probs."""
    return np.eye(probs.shape[-1])[labels] - probs


def _kl_log_probs(probs):
    """ln p with 0 in place of ln 0, so that 0 ln 0 = 0."""
    return np.where(probs > 0, _floored_log(probs), 0.0)


def categorical_kl_to_uniform(probs):
    """KL( Cat(probs) || Uniform(C) ) = sum_c p_c (ln p_c + ln C) per row."""
    return np.sum(probs * (_kl_log_probs(probs) + np.log(probs.shape[-1])), axis=-1)


def categorical_kl_to_uniform_grad(probs):
    """d/d probs of `categorical_kl_to_uniform`: ln p_c + ln C + 1."""
    return _kl_log_probs(probs) + np.log(probs.shape[-1]) + 1.0
