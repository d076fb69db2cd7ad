"""Monte Carlo ELBO and gradient estimation.

The Gaussian slab gets pathwise (reparameterized) gradients; the Bernoulli
spikes and the Beta sticks get score-function gradients with weighted
score control variates (Ranganath, Gerrish and Blei 2014), fitted per
variational parameter.  There is one fitting rule,
`control_variate_coeffs`, and one estimate, `score_function_grad`, which
fits through it; both take the learning signals f and the scores h as
plain arrays with the samples on axis 0, f broadcasting against h.  Each
sample's coefficient is fitted on the other samples only (leave-one-out,
as in Kool, van Hoof and Welling 2019), on the centred signal, with the
other samples' mean signal as the fallback when their score is
constant.  So the spike and stick gradients
are unbiased, and adding a constant to a learning signal does not move
them, with one exception: `distributions.beta_sample_array` clamps its
draws to [1e-7, 1 - 1e-7], and where a stick's b falls to about 0.3 or
below, which training reaches, enough of the Beta's mass lies past the
clamp to bias every term that reads the stick draws (the stick terms and
the spike prior terms) and their gradients.  Learning signals are
Rao-Blackwellized: each variable's signal keeps only the objective terms
in its Markov blanket.  Spike k's signal is the reconstruction plus its
own prior and entropy terms; stick j's signal is its own prior and
entropy plus the spike prior terms of components k >= j, taken in closed
form over q(zhat).  Gaussian and Categorical complexity terms are
analytic; the reported spike and stick terms are Monte Carlo.

Per-data-point terms are averaged over the batch and multiplied by the
dataset size, so a minibatch estimate targets the full-data objective;
global quantities (stick terms, the decoder weight prior) enter once.

The estimator has one configuration, the one training takes, apart from
the decoder's precision (below), and computes every term value before any
gradient: the forward-only estimate of the per-epoch metrics is a prefix
of a training step at the same precision.

Training passes `dtype=np.float32`, which runs the decoder blocks (their
input, the decoder's passes and the likelihood) in float32; everything
else, every returned value and gradient included, stays float64.  The
finite-difference checks and the oracles call the default, float64.
"""

from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import distributions as dist
from . import ibp
from . import model as mdl

# the decoder runs on blocks of whole points with at most this many rows
# (point, sample, class) each: about 12.5 MB per 784-wide float32
# temporary in training, 25 MB in float64
DECODER_BLOCK_ROWS = 4096
# ridge on the score variance in `control_variate_coeffs`; a score whose
# variance is below it counts as constant
CV_EPS = 1e-8


class NumericError(RuntimeError):
    """A named objective term or gradient went non-finite."""

    def __init__(self, term, detail=""):
        self.term = term
        super().__init__(f"non-finite value in term {term!r}" +
                         (f": {detail}" if detail else ""))


def control_variate_coeffs(f, h):
    """Leave-one-out weighted-score coefficients, one per sample and
    parameter: shaped like h * f.

    The samples run along axis 0 of the learning signals f and the scores
    h, and f broadcasts against h over the other axes (one signal shared
    by several scores is f[:, None] against h).  Sample s's coefficient is
    fitted on the other samples only (Kool, van Hoof and Welling 2019), as
    m_s + Cov((f - m_s) h, h) / (Var(h) + CV_EPS) with m_s their mean
    signal, and falls back to m_s where their score variance is below
    CV_EPS (a constant score carries no information to regress on).  So
    a_s does not depend on sample s, and since E[h] = 0
    `score_function_grad` stays unbiased; adding a constant to f adds it
    to every a_s, so the estimate does not move.  The fit runs on the
    centred signal f - mean(f), so that large constant offsets do not
    cancel catastrophically.
    """
    if f.ndim != h.ndim or f.shape[0] != h.shape[0]:
        raise ValueError(f"signals {f.shape} and scores {h.shape} must hold "
                         "the same samples on axis 0")
    s = h.shape[0]
    if s < 2:
        raise ValueError("control variates need at least 2 samples")
    scale = 1.0 / (s - 1.0)

    def others(x):
        # mean over the other samples, one row per left-out sample
        out = x.sum(axis=0) - x
        out *= scale
        return out

    f_mean = f.mean(axis=0)
    fc = f - f_mean
    fch = fc * h
    mean_h = others(h)
    var_h = others(h * h)
    var_h -= mean_h * mean_h
    cov = others(fch * h)
    cov -= others(fch) * mean_h              # Cov(fc h, h) over the others
    # m = -fc * scale is the others' mean of fc (fc sums to 0), and
    # m + Cov((fc - m) h, h) / (Var(h) + CV_EPS) = (cov + CV_EPS m) / (Var(h) + CV_EPS)
    m = fc * -scale
    small = var_h < CV_EPS
    cov += CV_EPS * m
    cov /= var_h + CV_EPS
    a = np.where(small, m, cov)
    a += f_mean
    return a


def score_function_grad(f, h):
    """(1/S) sum_s h_s * (f_s - a_s), the weighted score-function estimate,
    with a = `control_variate_coeffs(f, h)`: shaped like h * f without its
    sample axis 0.

    Unbiased for the gradient of E[f], because the score has zero mean
    and a_s is independent of sample s.
    """
    return np.mean(h * (f - control_variate_coeffs(f, h)), axis=0)


@dataclass
class ElboBreakdown:
    """Per-term ELBO estimate (signed contributions; total is their sum)
    plus ELBO-ascent gradients per parameter group."""
    total: float
    recon: float
    kl_gauss: float
    term_zhat: float
    term_v: float
    term_y: float
    grads: dict = field(default_factory=dict)   # {} for a forward-only estimate
    diagnostics: dict = field(default_factory=dict)


def _softmax_jacobian_vec(probs, g):
    """Chain grad-w.r.t.-probs g through softmax: rows p*(g - sum(p*g))."""
    inner = np.sum(probs * g, axis=-1, keepdims=True)
    return probs * (g - inner)


def _likelihood_values(kind, dec_out, x_pts, input_dim):
    """Log-likelihood of each row of the raw decoder output (the last axis
    is the output width).  x_pts broadcasts against those rows: each point's
    data once, for every row decoded for it."""
    if kind == "bernoulli":
        return dist.bernoulli_log_prob(x_pts, dec_out).sum(axis=-1)
    return dist.gaussian_log_prob(x_pts, *mdl.split_decoder_out(dec_out, input_dim))


def _likelihood_values_and_grads(kind, dec_out, x_pts, input_dim):
    """`_likelihood_values` and its gradient w.r.t. the raw decoder output,
    shaped like dec_out."""
    if kind == "bernoulli":
        return (_likelihood_values(kind, dec_out, x_pts, input_dim),
                dist.bernoulli_score_grad(x_pts, dec_out))
    mean, var = mdl.split_decoder_out(dec_out, input_dim)
    g_mean, g_var = dist.gaussian_score_grad(x_pts, mean, var)
    return dist.gaussian_log_prob(x_pts, mean, var), np.concatenate(
        [g_mean, g_var * dist.sigmoid(dec_out[..., input_dim:])], axis=-1)


def _check_finite(name, *arrays):
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise NumericError(name)


def estimate_elbo_and_grads(m, x, labels, num_samples, rng, dataset_size,
                            alpha_sup=0.0, prior_weight=1.0, with_grads=True,
                            dtype=np.float64):
    """Estimate the full-data ELBO and its gradients from one minibatch.

    x is (B, D); labels is a (B,) array with -1 marking unlabeled points,
    which marginalize their label under q(y | x).  For each point, `num_samples`
    (S) joint samples (noise -> ztilde, zhat, v) are drawn, the sticks v
    from `m.sticks` (`sample`, `log_prob` and `score_grads`) as the pair
    (log v, log(1 - v)) that every stick term reads; all
    objective terms are assembled vectorized over (B, S).  `prior_weight`
    scales the spike prior and entropy terms in the spikes' learning
    signal only (a KL warm-up); the returned values are always the ELBO's
    own terms, and at the default 1 the gradients are the ELBO's.

    Returns an ElboBreakdown whose gradients point in the ELBO-ascent
    direction and include the decoder weight-decay prior; the score
    gradients always carry the control variates, which need S >= 2.  The
    draws come first, then every term value and its finiteness check,
    then the gradients.  With `with_grads=False` (S >= 1) it returns
    after the values, with `grads` = {}: the same values, bit for bit.
    The decoder runs on blocks of whole points of at most
    DECODER_BLOCK_ROWS rows, so memory is bounded by one block; a
    batch that fits in one block decodes exactly as one call would.
    The blocks compute in `dtype` (training passes float32): the decoder
    weights are cast once per call, and each block's input, its forward
    and backward passes and the likelihood, which reads x cast to `dtype`,
    run in it; each block's parameter gradient is added into the float64
    decoder gradient, and every other term and gradient is float64.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a nonempty (B, D) matrix")
    if x.shape[1] != m.D:
        raise ValueError("batch feature dimension does not match the model")
    if num_samples < (2 if with_grads else 1):
        raise ValueError(f"num_samples = {num_samples}: the leave-one-out control "
                         "variates need 2 or more, a forward-only estimate 1")
    labels = np.asarray(labels, dtype=np.int64)
    batch_size, s = x.shape[0], num_samples
    n_data = int(dataset_size)
    scale = n_data / batch_size
    k, c = m.K, m.C

    # --- amortized posterior heads -----------------------------------------
    enc_out, enc_tape = nn.forward(m.encoder, x)
    mean, var, logits_z = mdl.split_encoder_out(enc_out, k)
    sigma = np.sqrt(var)
    pi_hat = dist.sigmoid(logits_z)

    cls_out, cls_tape = nn.forward(m.classifier, x)
    probs_y = dist.softmax(cls_out)                       # (B, C)

    # --- joint samples ------------------------------------------------------
    eps = rng.standard_normal((batch_size, s, k))
    ztilde = mean[:, None, :] + sigma[:, None, :] * eps
    zhat = (rng.random((batch_size, s, k)) < pi_hat[:, None, :]).astype(np.float64)
    z = ztilde * zhat

    log_v, log_1mv = m.sticks.sample((batch_size, s), rng)

    # the spike prior terms of the drawn spikes and, for the sticks' signal,
    # their expectation over q(zhat) (the terms are linear in zhat)
    logp_zhat_k, expected_logp_zhat_k = ibp.ibp_prior_log_prob_from_sticks(
        np.stack([zhat, np.broadcast_to(pi_hat[:, None, :], zhat.shape)]), log_v)  # (B, S, K)
    logq_zhat_k = dist.bernoulli_log_prob(zhat, logits_z[:, None, :])
    logp_zhat = logp_zhat_k.sum(axis=2)                                  # (B, S)
    logq_zhat = logq_zhat_k.sum(axis=2)

    # --- reconstruction, with the decoder's gradients ----------------------
    # Point i decodes one row per (sample, class) with the class one-hots
    # y_pt[i] (n_cls, C) and weights w_pt[i] * scale/S, rows ordered
    # (point, sample, class); n_cls is 1 for a labeled point and C for an
    # unlabeled one, which marginalizes its label: its reconstruction sums
    # the class rows with weights q(y | x).  Labeled and unlabeled points are
    # decoded apart, each in blocks of whole points of at most
    # DECODER_BLOCK_ROWS rows (one point when a point alone is more), so
    # memory does not grow with the batch; the draws are all made already.
    # A block's backward pass runs while its output is at hand.
    labeled = labels >= 0
    idx_lab = np.flatnonzero(labeled)
    idx_unl = np.flatnonzero(~labeled)
    eye = np.eye(c)
    groups = []                                   # (idx, y_pt, w_pt)
    if idx_lab.size:
        groups.append((idx_lab, eye[labels[idx_lab]][:, None, :],
                       np.ones((idx_lab.size, 1))))
    if idx_unl.size:
        groups.append((idx_unl, np.broadcast_to(eye, (idx_unl.size, c, c)),
                       probs_y[idx_unl]))
    recon = np.empty((batch_size, s))
    g_z = np.zeros((batch_size, s, k))        # weighted by scale/S already
    dec_grads = m.decoder.zero_grad_like()
    dec_layers = nn.cast_layers(m.decoder, dtype)
    x_dec = x.astype(dtype, copy=False)
    for idx, y_pt, w_pt in groups:
        n_cls = y_pt.shape[1]
        per_block = max(1, DECODER_BLOCK_ROWS // (s * n_cls))
        r = np.empty((idx.size, s, n_cls))
        for lo in range(0, idx.size, per_block):
            blk = slice(lo, lo + per_block)
            pts = idx[blk]
            dec_in = np.empty((pts.size, s, n_cls, k + c), dtype=dtype)
            dec_in[..., :k] = z[pts][:, :, None, :]
            dec_in[..., k:] = y_pt[blk][:, None]
            out, tape = nn.forward(m.decoder, dec_in.reshape(-1, k + c),
                                   layers=dec_layers)
            out = out.reshape(pts.size, s, n_cls, -1)
            x_pts = x_dec[pts][:, None, None, :]
            if not with_grads:
                r[blk] = _likelihood_values(m.likelihood_kind, out, x_pts, m.D)
                continue
            r[blk], g_out = _likelihood_values_and_grads(
                m.likelihood_kind, out, x_pts, m.D)
            g_out *= (w_pt[blk] * (scale / s)).astype(dtype, copy=False)[:, None, :, None]
            g_params, g_in = nn.backward(m.decoder, tape,
                                         g_out.reshape(-1, out.shape[-1]))
            # the one-hots are constants and the weights are folded in: the
            # z-gradient sums the class rows
            g_z[pts] = g_in[:, :k].reshape(-1, s, n_cls, k).sum(axis=2)
            dec_grads += g_params
        recon[idx] = np.sum(w_pt[:, None, :] * r, axis=2)
        if idx is idx_unl:
            r_unl = r                 # the unlabeled points' (B_u, S, C) values
    _check_finite("recon", recon)

    # --- the other term values ----------------------------------------------
    # spike k's signal keeps the reconstruction and its own prior and
    # entropy terms; the other spikes' terms are independent of its score
    f_zhat = recon[:, :, None] + prior_weight * (logp_zhat_k - logq_zhat_k)  # (B, S, K)
    _check_finite("term_zhat", f_zhat)

    # analytic -KL(q(ztilde) || N(0, I))
    kl_gauss_points = dist.gaussian_kl_to_standard(mean, var)

    term_y_points = np.zeros(batch_size)
    if idx_unl.size:
        term_y_points[idx_unl] = -dist.categorical_kl_to_uniform(probs_y[idx_unl])
    if idx_lab.size and alpha_sup != 0.0:
        term_y_points[idx_lab] = alpha_sup * dist.categorical_log_prob(
            labels[idx_lab], probs_y[idx_lab])

    logp_v_k = ibp.sticks_prior_log_prob(log_v, m.sticks.alpha)   # (B, S, K)
    logq_v_k = m.sticks.log_prob(log_v, log_1mv)
    # Markov blanket of v_j: the spike priors of components k >= j, in
    # expectation over q(zhat) and batch-scaled to the dataset, plus the
    # stick's own prior and entropy
    tails = np.cumsum(expected_logp_zhat_k[..., ::-1], axis=2)[..., ::-1]
    f_v = (n_data * tails + logp_v_k - logq_v_k).reshape(-1, k)
    _check_finite("term_v", f_v)

    breakdown = ElboBreakdown(
        total=0.0,
        recon=scale * float(np.sum(recon.mean(axis=1))),
        kl_gauss=-scale * float(np.sum(kl_gauss_points)),
        term_zhat=scale * float(np.sum((logp_zhat - logq_zhat).mean(axis=1))),
        term_v=float(np.mean(np.sum(logp_v_k - logq_v_k, axis=2))),
        term_y=scale * float(np.sum(term_y_points)),
        diagnostics={
            "log_zero_events": int(np.sum(logp_zhat < ibp.LOG_ZERO_SENTINEL / 2.0)),
        },
    )
    breakdown.total = (breakdown.recon + breakdown.kl_gauss + breakdown.term_zhat
                       + breakdown.term_v + breakdown.term_y)
    for name in ("recon", "kl_gauss", "term_zhat", "term_v", "term_y"):
        if not np.isfinite(getattr(breakdown, name)):
            raise NumericError(name)
    if not with_grads:
        return breakdown

    # --- spike (zhat) score gradients, per-point control variates ----------
    h_zhat = dist.bernoulli_score_grad(zhat, logits_z[:, None, :])  # (B, S, K)
    # the S samples of every (point, spike) pair, as (S, B, K) views
    g_logits = score_function_grad(f_zhat.transpose(1, 0, 2),
                                   h_zhat.transpose(1, 0, 2))   # (B, K)

    # --- pathwise gradients for the Gaussian slab, plus those of -KL -------
    g_ztilde = g_z * zhat                              # masked by the spikes
    g_mean = g_ztilde.sum(axis=1)                      # scale/S folded in
    g_var = np.sum(g_ztilde * eps, axis=1) / (2.0 * sigma)
    g_mean += scale * (-mean)
    g_var += scale * (-0.5 * (1.0 - 1.0 / var))

    raw = enc_out[:, k:2 * k]
    enc_grad_out = np.concatenate(
        [g_mean, g_var * dist.sigmoid(raw), scale * g_logits], axis=1)
    enc_grads, _ = nn.backward(m.encoder, enc_tape, enc_grad_out)

    # --- label gradients -----------------------------------------------------
    g_cls_logits = np.zeros((batch_size, c))
    if idx_unl.size:
        p_u = probs_y[idx_unl]
        g_probs = (-dist.categorical_kl_to_uniform_grad(p_u) * scale
                   + r_unl.mean(axis=1) * scale)
        g_cls_logits[idx_unl] = _softmax_jacobian_vec(p_u, g_probs)
    if idx_lab.size and alpha_sup != 0.0:
        g_cls_logits[idx_lab] = scale * alpha_sup * dist.categorical_score_grad(
            labels[idx_lab], probs_y[idx_lab])
    cls_grads, _ = nn.backward(m.classifier, cls_tape, g_cls_logits)

    # --- stick gradients, pooled over every (point, sample) draw ------------
    h_v = m.sticks.score_grads(log_v, log_1mv).reshape(-1, 2, k)
    _check_finite("term_v", h_v)
    # every (point, sample) draw of v is independent; stick j's signal
    # goes with both of its scores, d/d log a_j and d/d log b_j
    stick_grads = score_function_grad(f_v[:, None, :], h_v).reshape(-1)

    # --- decoder weight prior ------------------------------------------------
    _, theta_prior_grad = mdl.theta_log_prior(m)
    dec_grads += theta_prior_grad

    breakdown.grads = {"encoder": enc_grads, "classifier": cls_grads,
                       "decoder": dec_grads, "sticks": stick_grads}
    for name, g in breakdown.grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"grad_{name}")
    return breakdown


def clip_global_norm(grads, max_norm):
    """Scale the gradient dict in place so its joint norm is <= max_norm."""
    total = np.sqrt(sum(float(np.dot(g, g)) for g in grads.values()))
    if total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total
