"""Truncated stick-breaking Indian Buffet Process.

Feature probabilities decay as running products of stick fractions
v_k ~ Beta(alpha, 1); a finite truncation level K caps the number of
latent features, and everything beyond index K is simply absent.
"""

from dataclasses import dataclass

import numpy as np

from . import distributions as dist

LOG_ZERO_SENTINEL = -1e10  # stands in for log(0) so estimates stay finite


class GlobalSticks:
    """K truncated Beta posteriors over the stick fractions, in log-space.

    One (a_k, b_k) pair is shared by all data points (the stick variables
    are global latents).  Parameters are stored as log-values in one flat
    array [log_a | log_b] so an unconstrained optimizer keeps them
    positive; initialized at the prior, a_k = alpha, b_k = 1.
    """

    def __init__(self, truncation, alpha):
        if int(truncation) < 1:
            raise ValueError("truncation level must be >= 1")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.K = int(truncation)
        self.alpha = float(alpha)
        self.params = np.concatenate([
            np.full(self.K, np.log(self.alpha)),
            np.zeros(self.K),
        ])

    @property
    def log_a(self):
        return self.params[:self.K]

    @property
    def log_b(self):
        return self.params[self.K:]

    @property
    def a(self):
        return np.exp(self.log_a)

    @property
    def b(self):
        return np.exp(self.log_b)

    def sample(self, size, rng):
        """Draw stick fractions of shape (*size, K) from the Beta posteriors."""
        return dist.beta_sample_array(self.a, self.b, (*size, self.K), rng)

    def log_prob(self, v):
        """log q(v_k) per stick, shape (..., K), for v of shape (..., K)."""
        return dist.beta_log_prob(v, self.a, self.b)

    def score_grads(self, v):
        """d log q(v) / d [log_a | log_b], shape (..., 2K).

        Chains the Beta score gradient through the exp that maps the
        stored log-parameters to (a, b).
        """
        a, b = self.a, self.b
        da, db = dist.beta_score_grad(v, a, b)
        return np.concatenate([a * da, b * db], axis=-1)


def stick_breaking(v):
    """Running products pi_k = prod_{j<=k} v_j; elementwise non-increasing."""
    v = np.asarray(v, dtype=np.float64)
    if v.size and (np.any(v <= 0) or np.any(v > 1)):
        raise ValueError("stick fractions must lie in (0, 1]")
    return np.cumprod(v, axis=-1)


def log_bernoulli_terms(zhat, log_pi, log_one_minus_pi):
    """Elementwise zhat*log(pi) + (1-zhat)*log(1-pi) with log(0) guarded."""
    on = np.where(np.isfinite(log_pi), log_pi, LOG_ZERO_SENTINEL)
    off = np.where(np.isfinite(log_one_minus_pi), log_one_minus_pi, LOG_ZERO_SENTINEL)
    return zhat * on + (1.0 - zhat) * off


def ibp_prior_log_prob_from_sticks(zhat, v):
    """log Bernoulli(zhat_k | pi_k) per component, pi = cumprod(v), in log
    space: shape (..., K).

    Works on batched arrays of shape (..., K) and avoids the underflow of
    materializing pi when K is large.  pi_k = 1 with zhat_k = 0 is a
    zero-probability event and contributes the -1e10 sentinel instead of
    -inf, so callers can flag it.  zhat and v broadcast against each
    other, and zhat may be fractional: the terms are linear in it, so
    q(zhat = 1) in its place gives their expectation.
    """
    zhat = np.asarray(zhat, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    log_pi = np.cumsum(np.log(v), axis=-1)
    one_minus_pi = -np.expm1(log_pi)
    with np.errstate(divide="ignore"):
        log_one_minus_pi = np.log(one_minus_pi)
    return log_bernoulli_terms(zhat, log_pi, log_one_minus_pi)


def sticks_prior_log_prob(v, alpha):
    """log Beta(v_k | alpha, 1) = ln alpha + (alpha-1) ln v_k per stick,
    shape (..., K)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size and (np.any(v <= 0) or np.any(v >= 1)):
        raise ValueError("stick fractions must lie in (0, 1)")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return np.log(alpha) + (alpha - 1.0) * np.log(v)


@dataclass
class ComponentReport:
    active: np.ndarray   # sorted indices of active components
    count: int
    mean: np.ndarray     # per-component mean of q(zhat_k = 1) across points
    std: np.ndarray      # per-component std across points
    tau: float


def active_components(include_probs, tau):
    """Which latent components a dataset actually uses.

    `include_probs` is the (N, K) matrix of per-point posterior inclusion
    probabilities q(zhat_ik = 1).  Component k counts as active when its
    dataset mean exceeds tau.
    """
    p = np.asarray(include_probs, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("inclusion probabilities must be an (N, K) matrix")
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("inclusion probabilities must lie in [0, 1]")
    mean, std = p.mean(axis=0), p.std(axis=0)
    active = np.flatnonzero(mean > tau)
    return ComponentReport(active=active, count=int(active.size),
                           mean=mean, std=std, tau=float(tau))
