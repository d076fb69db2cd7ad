"""Sampling, log-densities, analytic KLs, and score gradients.

Covers the four families the model is built from: diagonal Gaussian,
Bernoulli (stored as logits), Beta (positive shape pair), Categorical
(simplex), plus the lgamma and digamma special functions needed by the
Beta density and its score gradient.  Everything is float64 and pure
given the parameters; samplers take a caller-provided numpy Generator.
"""

import math
from dataclasses import dataclass

import numpy as np

_EULER_GAMMA = 0.5772156649015329
_V_CLAMP = 1e-7  # sampled Beta values are kept inside [tiny, 1 - tiny]


# ---------------------------------------------------------------------------
# numerically stable scalar maps

def sigmoid(x):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, from one
    exp(-|x|), so no exp overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))     # -|x|; unlike -abs(x), keeps a NaN's sign
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def softmax(logits, axis=-1):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def lgamma(x):
    """log Gamma(x), elementwise by math.lgamma; a float for a scalar."""
    if np.ndim(x) == 0:
        return math.lgamma(x)
    x = np.asarray(x, dtype=np.float64)
    return np.array([math.lgamma(t) for t in x.ravel()]).reshape(x.shape)


def digamma(x):
    """Digamma psi(x) for x > 0.

    Uses the recurrence psi(x) = psi(x+1) - 1/x to push the argument above
    10, then de Moivre's asymptotic series.  Accepts scalars or arrays.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.array(x, dtype=np.float64, copy=True)
    if np.any(x <= 0):
        raise ValueError("digamma requires x > 0")
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
    return float(value) if scalar else value


# ---------------------------------------------------------------------------
# diagonal Gaussian

@dataclass
class DiagGaussianParams:
    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.var = np.asarray(self.var, dtype=np.float64)
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.var))):
            raise ValueError("Gaussian parameters must be finite")
        if np.any(self.var <= 0):
            raise ValueError("Gaussian variance must be strictly positive")


def gaussian_reparam_sample(p, eps):
    """mean + sqrt(var) * eps, the pathwise-differentiable sample."""
    eps = np.asarray(eps, dtype=np.float64)
    if not np.all(np.isfinite(eps)):
        raise ValueError("noise must be finite")
    return p.mean + np.sqrt(p.var) * eps


def gaussian_log_prob(x, p):
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(-0.5 * (np.log(2.0 * np.pi * p.var)
                                + (x - p.mean) ** 2 / p.var)))


def gaussian_kl_to_standard(p):
    """KL( N(mean, diag var) || N(0, I) ), in closed form; always >= 0."""
    return float(0.5 * np.sum(p.mean ** 2 + p.var - 1.0 - np.log(p.var)))


def gaussian_score_grad(x, p):
    """Gradient of log q(x; mean, var) w.r.t. (mean, var)."""
    x = np.asarray(x, dtype=np.float64)
    d = x - p.mean
    grad_mean = d / p.var
    grad_var = -0.5 / p.var + 0.5 * d * d / (p.var * p.var)
    return grad_mean, grad_var


# ---------------------------------------------------------------------------
# Bernoulli, parameterized by logits

@dataclass
class BernoulliParams:
    logits: np.ndarray

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if not np.all(np.isfinite(self.logits)):
            raise ValueError("logits must be finite")

    @property
    def probs(self):
        return sigmoid(self.logits)

    @classmethod
    def from_probs(cls, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if np.any(probs <= 0) or np.any(probs >= 1):
            raise ValueError("probabilities must lie in the open interval (0, 1)")
        return cls(np.log(probs) - np.log1p(-probs))


def bernoulli_log_prob(z, p):
    """sum_k [z_k ln pi_k + (1 - z_k) ln(1 - pi_k)], computed from logits."""
    z = np.asarray(z, dtype=np.float64)
    # z*l - softplus(l) == z ln(sigmoid(l)) + (1-z) ln(1 - sigmoid(l))
    return float(np.sum(z * p.logits - softplus(p.logits)))


def bernoulli_sample(p, rng):
    return (rng.random(p.logits.shape) < p.probs).astype(np.float64)


def bernoulli_score_grad(z, p):
    """d/d logits of log q(z): z - sigmoid(logits)."""
    return np.asarray(z, dtype=np.float64) - p.probs


# ---------------------------------------------------------------------------
# Beta

@dataclass
class BetaParams:
    """Beta shapes; a and b are positive scalars or arrays of one shape."""
    a: float
    b: float

    def __post_init__(self):
        if not (np.all(np.asarray(self.a) > 0) and np.all(np.asarray(self.b) > 0)):
            raise ValueError("Beta parameters must be positive")


def beta_sample_array(a, b, size, rng):
    """Beta(a, b) draws of the given shape via two Gamma draws, clamped.

    numpy's Generator.gamma implements the Marsaglia-Tsang rejection
    sampler; the ratio x/(x+y) of two Gamma(a,1), Gamma(b,1) draws is an
    exact Beta(a, b) variate.  Draws are clamped to [1e-7, 1 - 1e-7] so
    downstream log(v) and log(1-v) stay finite.
    """
    x = rng.gamma(np.broadcast_to(a, size), 1.0)
    y = rng.gamma(np.broadcast_to(b, size), 1.0)
    return np.clip(x / (x + y), _V_CLAMP, 1.0 - _V_CLAMP)


def beta_sample(p, rng):
    return float(beta_sample_array(p.a, p.b, (), rng))


def _unit_interval(v):
    v = np.asarray(v, dtype=np.float64)
    if not np.all((v > 0.0) & (v < 1.0)):
        raise ValueError("v must lie in (0, 1)")
    return v


def _scalar_or_array(x):
    return x if np.ndim(x) else float(x)


def beta_log_prob(v, p):
    """(a-1) ln v + (b-1) ln(1-v) - ln B(a, b) for v in the open unit interval.

    v, a and b broadcast against each other (the sticks pass v of shape
    (..., K) against K shape pairs); a float when all are scalars.
    """
    v = _unit_interval(v)
    log_beta = lgamma(p.a) + lgamma(p.b) - lgamma(p.a + p.b)
    return _scalar_or_array(
        (p.a - 1.0) * np.log(v) + (p.b - 1.0) * np.log1p(-v) - log_beta)


def beta_score_grad(v, p):
    """Gradient (da, db) of log Beta(v; a, b) w.r.t. (a, b); broadcasts
    like `beta_log_prob`."""
    v = _unit_interval(v)
    psi_ab = digamma(p.a + p.b)
    da = np.log(v) - digamma(p.a) + psi_ab
    db = np.log1p(-v) - digamma(p.b) + psi_ab
    return _scalar_or_array(da), _scalar_or_array(db)


# ---------------------------------------------------------------------------
# Categorical

@dataclass
class CategoricalParams:
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if np.any(self.probs < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")

    @classmethod
    def from_logits(cls, logits):
        return cls(softmax(logits))

    @property
    def num_classes(self):
        return self.probs.size


def categorical_log_prob(c, p):
    return float(np.log(p.probs[int(c)]))


def categorical_sample(p, rng):
    """Inverse-CDF draw; returns a class index."""
    u = rng.random()
    return int(np.searchsorted(np.cumsum(p.probs), u, side="right").clip(0, p.num_classes - 1))


def categorical_kl_to_uniform(p):
    """KL( Cat(probs) || Uniform(C) ) = sum_c p_c ln(C p_c), with 0 ln 0 = 0."""
    c = p.num_classes
    nz = p.probs > 0
    return float(np.sum(p.probs[nz] * np.log(c * p.probs[nz])))


def categorical_score_grad(c, logits):
    """d/d logits of log Cat(c | softmax(logits)): onehot(c) - probs."""
    probs = softmax(logits)
    g = -probs
    g[int(c)] += 1.0
    return g
