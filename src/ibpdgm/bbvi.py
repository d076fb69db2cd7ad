"""Monte Carlo ELBO and gradient estimation.

The Gaussian slab gets pathwise (reparameterized) gradients; the Bernoulli
spikes and the Beta sticks get score-function gradients with weighted
score control variates (Ranganath, Gerrish and Blei 2014), fitted per
variational parameter.  There is one fitting rule,
`control_variate_coeffs`: each sample's coefficient is fitted on the
other samples only (leave-one-out, as in Kool, van Hoof and Welling
2019), on the centred signal, with the other samples' mean signal as the
fallback when their score is constant.  So the spike and stick gradients
are unbiased, and adding a constant to a learning signal does not move
them.  Learning signals are Rao-Blackwellized: each variable's signal
keeps only the objective terms in its Markov blanket.  Spike k's signal
is the reconstruction plus its own prior and entropy terms; stick j's
signal is its own prior and entropy plus the spike prior terms of
components k >= j, taken in closed form over q(zhat).  Gaussian and
Categorical complexity terms are analytic; the reported spike and stick
terms are Monte Carlo.

Per-data-point terms are averaged over the batch and multiplied by the
dataset size, so a minibatch estimate targets the full-data objective;
global quantities (stick terms, the decoder weight prior) enter once.
"""

from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import distributions as dist
from . import ibp
from . import model as mdl

# the decoder runs on blocks of whole points with at most this many rows
# (point, sample, class) each: about 25 MB per 784-wide float64 temporary
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


@dataclass
class McConfig:
    num_samples: int
    use_control_variates: bool = True

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("need at least one Monte Carlo sample")
        if self.use_control_variates and self.num_samples < 2:
            raise ValueError("control variates need at least 2 samples")


@dataclass
class ScoreSampleSet:
    """Per-sample learning signals f_s and score vectors h_s, one signal
    per parameter: both are (S, P)."""
    f: np.ndarray   # (S, P)
    h: np.ndarray   # (S, P)

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=np.float64)
        self.h = np.asarray(self.h, dtype=np.float64)
        if self.h.ndim != 2 or self.f.shape != self.h.shape:
            raise ValueError("f and h must both be (S, P)")


def control_variate_coeffs(samples):
    """Leave-one-out weighted-score coefficients, one row per sample: (S, P).

    Sample s's row is fitted on the other samples only (Kool, van Hoof and
    Welling 2019), as m_s + Cov((f - m_s) h, h) / (Var(h) + CV_EPS) with
    m_s their mean signal, and falls back to m_s where their score
    variance is below CV_EPS (a constant score carries no information to
    regress on).  So a_s does not depend on sample s, and since E[h] = 0
    `score_function_grad` stays unbiased; adding a constant to f adds it
    to every a_s, so the estimate does not move.  The fit runs on the
    centred signal f - mean(f), so that large constant offsets do not
    cancel catastrophically.
    """
    f, h = samples.f, samples.h
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


def score_function_grad(samples, a=None):
    """(1/S) sum_s h_s * (f_s - a_s): the weighted score-function estimate.

    `a` is None (no control variate), one coefficient per parameter (P,)
    or one row per sample (S, P).  Unbiased for the gradient of E[f] when
    a_s is independent of sample s, because the score has zero mean.
    """
    f = samples.f
    return np.mean(samples.h * (f if a is None else f - a), axis=0)


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
    grads: dict
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


def estimate_elbo_and_grads(m, x, labels, cfg, rng, dataset_size=None,
                            alpha_sup=0.0, frozen_sticks=None, prior_weight=1.0,
                            with_grads=True):
    """Estimate the full-data ELBO and its gradients from one minibatch.

    x is (B, D); labels is (B,) with -1 marking unlabeled points, which
    marginalize their label under q(y | x).  For each point, S joint
    samples (noise -> ztilde, zhat, v) are drawn; all objective terms are
    assembled vectorized over (B, S).  When
    `frozen_sticks` is a length-K vector, the sticks are held at that
    constant: no stick sampling, no stick gradient, and the stick term is
    0 (used by the enumeration oracles).  `prior_weight` scales the spike
    prior and entropy terms in the spikes' learning signal only (a KL
    warm-up); the returned values are always the ELBO's own terms, and at
    the default 1 the gradients are the ELBO's.

    Returns an ElboBreakdown whose gradients point in the ELBO-ascent
    direction and include the decoder weight-decay prior.  With
    `with_grads=False` only the ELBO is estimated: the same draws give the
    same term values, bit for bit, and the same finiteness checks run, but
    no backward pass, likelihood gradient or score gradient is computed,
    and `grads` is {}.  The decoder runs on blocks of whole points of at
    most DECODER_BLOCK_ROWS rows, so memory is bounded by one block; a
    batch that fits in one block decodes exactly as one call would.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a nonempty (B, D) matrix")
    if x.shape[1] != m.D:
        raise ValueError("batch feature dimension does not match the model")
    labels = (np.full(x.shape[0], -1, dtype=np.int64) if labels is None
              else np.asarray(labels, dtype=np.int64))
    batch_size, s = x.shape[0], cfg.num_samples
    n_data = int(dataset_size) if dataset_size is not None else batch_size
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

    if frozen_sticks is not None:
        v = np.broadcast_to(np.asarray(frozen_sticks, dtype=np.float64),
                            (batch_size, s, k))
    else:
        v = m.sticks.sample((batch_size, s), rng)

    # the spike prior terms of the drawn spikes and, for the sticks' signal,
    # their expectation over q(zhat) (the terms are linear in zhat)
    logp_zhat_k, expected_logp_zhat_k = ibp.ibp_prior_log_prob_from_sticks(
        np.stack([zhat, np.broadcast_to(pi_hat[:, None, :], zhat.shape)]), v)  # (B, S, K)
    logq_zhat_k = dist.bernoulli_log_prob(zhat, logits_z[:, None, :])
    logp_zhat = logp_zhat_k.sum(axis=2)                                  # (B, S)
    logq_zhat = logq_zhat_k.sum(axis=2)

    # --- reconstruction + decoder/path gradients ---------------------------
    # Point i decodes one row per (sample, class) with the class one-hots
    # y_pt[i] (n_cls, C) and weights w_pt[i] * scale/S, rows ordered
    # (point, sample, class); n_cls is 1 for a labeled point and C for an
    # unlabeled one, which marginalizes its label: its reconstruction sums
    # the class rows with weights q(y | x).  Labeled and unlabeled points are
    # decoded apart, each in blocks of whole points of at most
    # DECODER_BLOCK_ROWS rows (one point when a point alone is more), so
    # memory does not grow with the batch; the draws are all made already.
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
    g_cls_logits = np.zeros((batch_size, c))
    for idx, y_pt, w_pt in groups:
        n_cls = y_pt.shape[1]
        per_block = max(1, DECODER_BLOCK_ROWS // (s * n_cls))
        r = np.empty((idx.size, s, n_cls))
        for lo in range(0, idx.size, per_block):
            blk = slice(lo, lo + per_block)
            pts = idx[blk]
            dec_in = np.empty((pts.size, s, n_cls, k + c))
            dec_in[..., :k] = z[pts][:, :, None, :]
            dec_in[..., k:] = y_pt[blk][:, None]
            out, tape = nn.forward(m.decoder, dec_in.reshape(-1, k + c))
            out = out.reshape(pts.size, s, n_cls, -1)
            x_pts = x[pts][:, None, None, :]
            if not with_grads:
                r[blk] = _likelihood_values(m.likelihood_kind, out, x_pts, m.D)
                continue
            r[blk], g_out = _likelihood_values_and_grads(
                m.likelihood_kind, out, x_pts, m.D)
            g_out *= (w_pt[blk] * (scale / s))[:, None, :, None]
            g_params, g_in = nn.backward(m.decoder, tape,
                                         g_out.reshape(-1, out.shape[-1]))
            # the one-hots are constants and the weights are folded in: the
            # z-gradient sums the class rows
            g_z[pts] = g_in[:, :k].reshape(-1, s, n_cls, k).sum(axis=2)
            dec_grads += g_params
        recon[idx] = np.sum(w_pt[:, None, :] * r, axis=2)
    # the unlabeled points are the last group: their (B_u, S, C) values
    r_per_class = r
    _check_finite("recon", recon)

    # --- spike (zhat) score gradients, per-point control variates ----------
    # spike k's signal keeps the reconstruction and its own prior and
    # entropy terms; the other spikes' terms are independent of its score
    f_zhat = recon[:, :, None] + prior_weight * (logp_zhat_k - logq_zhat_k)  # (B, S, K)
    _check_finite("term_zhat", f_zhat)
    if with_grads:
        h_zhat = dist.bernoulli_score_grad(zhat, logits_z[:, None, :])  # (B, S, K)
        # the S samples of every (point, spike) pair: (S, B * K)
        spikes = ScoreSampleSet(f_zhat.transpose(1, 0, 2).reshape(s, -1),
                                h_zhat.transpose(1, 0, 2).reshape(s, -1))
        a_zhat = (control_variate_coeffs(spikes)
                  if cfg.use_control_variates else None)
        g_logits = score_function_grad(spikes, a_zhat).reshape(batch_size, k)

    # analytic -KL(q(ztilde) || N(0, I))
    kl_gauss_points = dist.gaussian_kl_to_standard(mean, var)
    if with_grads:
        # pathwise gradients for the Gaussian slab, plus those of -KL
        g_ztilde = g_z * zhat                              # masked by the spikes
        g_mean = g_ztilde.sum(axis=1)                      # scale/S folded in
        g_var = np.sum(g_ztilde * eps, axis=1) / (2.0 * sigma)
        g_mean += scale * (-mean)
        g_var += scale * (-0.5 * (1.0 - 1.0 / var))

        raw = enc_out[:, k:2 * k]
        enc_grad_out = np.concatenate(
            [g_mean, g_var * dist.sigmoid(raw), scale * g_logits], axis=1)
        enc_grads, _ = nn.backward(m.encoder, enc_tape, enc_grad_out)

    # --- label terms ---------------------------------------------------------
    term_y_points = np.zeros(batch_size)
    if idx_unl.size:
        p_u = probs_y[idx_unl]
        term_y_points[idx_unl] = -dist.categorical_kl_to_uniform(p_u)
        if with_grads:
            g_probs = (-dist.categorical_kl_to_uniform_grad(p_u) * scale
                       + r_per_class.mean(axis=1) * scale)
            g_cls_logits[idx_unl] = _softmax_jacobian_vec(p_u, g_probs)
    if idx_lab.size and alpha_sup != 0.0:
        term_y_points[idx_lab] = alpha_sup * dist.categorical_log_prob(
            labels[idx_lab], probs_y[idx_lab])
        if with_grads:
            g_cls_logits[idx_lab] = scale * alpha_sup * dist.categorical_score_grad(
                labels[idx_lab], probs_y[idx_lab])
    if with_grads:
        cls_grads, _ = nn.backward(m.classifier, cls_tape, g_cls_logits)

    # --- stick gradients, pooled over every (point, sample) draw ------------
    if frozen_sticks is not None:
        term_v = 0.0
        stick_grads = np.zeros_like(m.sticks.params)
    else:
        logp_v_k = ibp.sticks_prior_log_prob(v, m.sticks.alpha)   # (B, S, K)
        logq_v_k = m.sticks.log_prob(v)
        # Markov blanket of v_j: the spike priors of components k >= j,
        # in expectation over q(zhat) and batch-scaled to the dataset, plus
        # the stick's own prior and entropy
        tails = np.cumsum(expected_logp_zhat_k[..., ::-1], axis=2)[..., ::-1]
        f_v = (n_data * tails + logp_v_k - logq_v_k).reshape(-1, k)
        _check_finite("term_v", f_v)
        if with_grads:
            h_v = m.sticks.score_grads(v).reshape(-1, 2 * k)
            _check_finite("term_v", h_v)
            # every (point, sample) draw of v is independent; stick j's
            # signal goes with both of its scores, d/d log a_j and d/d log b_j
            draws = ScoreSampleSet(np.tile(f_v, 2), h_v)
            a_v = (control_variate_coeffs(draws)
                   if cfg.use_control_variates else None)
            stick_grads = score_function_grad(draws, a_v)
        term_v = float(np.mean(np.sum(logp_v_k - logq_v_k, axis=2)))

    # --- decoder weight prior ------------------------------------------------
    if with_grads:
        _, theta_prior_grad = mdl.theta_log_prior(m)
        dec_grads += theta_prior_grad

    breakdown = ElboBreakdown(
        total=0.0,
        recon=scale * float(np.sum(recon.mean(axis=1))),
        kl_gauss=-scale * float(np.sum(kl_gauss_points)),
        term_zhat=scale * float(np.sum((logp_zhat - logq_zhat).mean(axis=1))),
        term_v=term_v,
        term_y=scale * float(np.sum(term_y_points)),
        grads={
            "encoder": enc_grads,
            "classifier": cls_grads,
            "decoder": dec_grads,
            "sticks": stick_grads,
        } if with_grads else {},
        diagnostics={
            "log_zero_events": int(np.sum(logp_zhat < ibp.LOG_ZERO_SENTINEL / 2.0)),
        },
    )
    breakdown.total = (breakdown.recon + breakdown.kl_gauss + breakdown.term_zhat
                       + breakdown.term_v + breakdown.term_y)
    for name in ("recon", "kl_gauss", "term_zhat", "term_v", "term_y"):
        if not np.isfinite(getattr(breakdown, name)):
            raise NumericError(name)
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
