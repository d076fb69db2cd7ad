"""Truncated stick-breaking Indian Buffet Process.

Feature probabilities decay as running products of stick fractions
v_k ~ Beta(alpha, 1); a finite truncation level K caps the number of
latent features, and everything beyond index K is simply absent.
log pi_k is the running sum of log v.  A prior draw is log v alone, by
the inverse CDF; a draw from q(v) is the pair (log v, log(1 - v)) that
`distributions.beta_sample_array` returns, which the stick terms read.
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
    positive; initialized at a_k = b_k = 1, the uniform, for every alpha.
    Starting at the prior Beta(alpha, 1) instead traps small alpha: at
    alpha = 0.1 the first inclusion probability is about 0.09, and the
    spikes switch off within the first epoch and never recover.
    """

    def __init__(self, truncation, alpha):
        if int(truncation) < 1:
            raise ValueError("truncation level must be >= 1")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.K = int(truncation)
        self.alpha = float(alpha)
        self.params = np.zeros(2 * self.K)

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
        """q(v)'s draws, shape (*size, K), as the pair (log v, log(1 - v))."""
        return dist.beta_sample_array(self.a, self.b, (*size, self.K), rng)

    def log_prob(self, log_v, log_1mv):
        """log q(v_k) per stick, shape (..., K), for a drawn pair of shape
        (..., K)."""
        return dist.beta_log_prob(log_v, log_1mv, self.a, self.b)

    def score_grads(self, log_v, log_1mv):
        """d log q(v) / d [log_a | log_b], shape (..., 2K).

        Chains the Beta score gradient through the exp that maps the
        stored log-parameters to (a, b).
        """
        a, b = self.a, self.b
        da, db = dist.beta_score_grad(log_v, log_1mv, a, b)
        return np.concatenate([a * da, b * db], axis=-1)


def ibp_prior_log_prob_from_sticks(zhat, log_v):
    """log Bernoulli(zhat_k | pi_k) per component, log pi = cumsum(log v):
    shape (..., K).

    Works on batched arrays of shape (..., K) and avoids the underflow of
    materializing pi when K is large.  pi_k = 1 with zhat_k = 0 is a
    zero-probability event and contributes the -1e10 sentinel instead of
    -inf, so callers can flag it.  zhat and log v broadcast against each
    other, and zhat may be fractional: the terms are linear in it, so
    q(zhat = 1) in its place gives their expectation.
    """
    zhat = np.asarray(zhat, dtype=np.float64)
    on = np.cumsum(log_v, axis=-1)                 # log pi
    off = np.expm1(on)
    np.negative(off, out=off)                      # 1 - pi
    with np.errstate(divide="ignore"):
        np.log(off, out=off)
    # zhat log(pi) + (1 - zhat) log(1 - pi), with log(0) guarded
    guard = np.empty(on.shape, dtype=bool)
    for term in (on, off):
        np.logical_not(np.isfinite(term, out=guard), out=guard)
        np.copyto(term, LOG_ZERO_SENTINEL, where=guard)
    out = np.multiply(zhat, on)
    rest = np.subtract(1.0, zhat, out=np.empty(out.shape))
    rest *= off
    out += rest
    return out


def sticks_prior_sample(alpha, size, rng):
    """log v for sticks v_k ~ Beta(alpha, 1) of shape `size`, by the exact
    inverse CDF: log(U) / alpha, one U = 1 - rng.random() in (0, 1] each."""
    return np.log(np.subtract(1.0, rng.random(size))) / alpha


def sticks_prior_log_prob(log_v, alpha):
    """log Beta(v_k | alpha, 1) = ln alpha + (alpha-1) ln v_k per stick,
    shape (..., K), from ln v."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return np.log(alpha) + (alpha - 1.0) * log_v


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
    dataset mean exceeds tau.  The spread is the population std across
    points, computed from that mean; it has the bits of `p.std(axis=0)`.
    """
    p = np.asarray(include_probs, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("inclusion probabilities must be an (N, K) matrix")
    if not (p.min() >= 0.0 and p.max() <= 1.0):   # NaN fails too
        raise ValueError("inclusion probabilities must lie in [0, 1]")
    mean = p.mean(axis=0)
    dev = p - mean
    dev *= dev
    std = np.sqrt(dev.sum(axis=0) / p.shape[0])
    active = np.flatnonzero(mean > tau)
    return ComponentReport(active=active, count=int(active.size),
                           mean=mean, std=std, tau=float(tau))
