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

One function, `_likelihood`, takes each decoder block's log-likelihood
values in both modes, and in a training step writes their gradient over
the block's decoder output, for both likelihoods.  The Bernoulli
likelihood runs on chunks of whole points that fit in a core's L2 cache,
each chunk's values and gradient from one exp of its logits
(`distributions`' private helpers behind `sigmoid` and `softplus`), with
the bits of whole-block `bernoulli_log_prob` and `bernoulli_score_grad`;
the forward-only pass takes the same chunks without the sigmoid.

The spike fit (`control_variate_coeffs`, `score_function_grad`) and the
spike prior in `ibp` compute in place, over buffers each function owns and
never over an argument, with the operands and order of operations of the
whole-array expressions that `tests/oracles.py` keeps and the tests pin
bit for bit; the learning signals, the slab and its gradients and the
stick functions are plain whole-array expressions.  The spike fit takes
its signals and scores as contiguous (S, B, K) arrays.
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
# the Bernoulli likelihood of a block runs on chunks of whole points of
# about this many logits (256 KB in float32), so each of its passes over a
# chunk stays in a core's L2 cache
LIKELIHOOD_CHUNK = 2 ** 16
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

    def others(x, out=None):
        # mean over the other samples, one row per left-out sample, written
        # over x, a temporary of this function, unless out is given
        out = np.subtract(x.sum(axis=0), x, out=x if out is None else out)
        out *= scale
        return out

    f_mean = f.mean(axis=0)
    fc = f - f_mean
    fch = fc * h
    mean_h = others(h, out=np.empty(h.shape))
    var_h = others(h * h)
    var_h -= mean_h * mean_h
    cov = others(fch * h)
    cov -= np.multiply(others(fch), mean_h, out=fch)   # Cov(fc h, h) over the others
    # m = -fc * scale is the others' mean of fc (fc sums to 0), and
    # m + Cov((fc - m) h, h) / (Var(h) + CV_EPS) = (cov + CV_EPS m) / (Var(h) + CV_EPS)
    m = np.multiply(fc, -scale, out=fc)
    small = var_h < CV_EPS
    cov += np.multiply(m, CV_EPS, out=fch)   # fch is free again
    var_h += CV_EPS
    cov /= var_h
    np.copyto(cov, m, where=small)
    cov += f_mean
    return cov


def score_function_grad(f, h):
    """(1/S) sum_s h_s * (f_s - a_s), the weighted score-function estimate,
    with a = `control_variate_coeffs(f, h)`: shaped like h * f without its
    sample axis 0.

    Unbiased for the gradient of E[f], because the score has zero mean
    and a_s is independent of sample s.
    """
    terms = control_variate_coeffs(f, h)
    np.subtract(f, terms, out=terms)
    terms *= h
    return np.add.reduce(terms, axis=0) / h.shape[0]


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


def _likelihood(kind, dec_out, x_pts, input_dim, with_grads):
    """Log-likelihood of each row of the raw decoder output (the last axis
    is the output width), in dec_out's dtype.  x_pts broadcasts against
    those rows: each point's data once, for every row decoded for it.

    With `with_grads` the gradient w.r.t. the raw output is written over
    dec_out, for both likelihoods; the model's decoder output layer is
    linear, so the block is not read again by its backward pass.  The
    Bernoulli likelihood runs on chunks of whole points (axis 0) of about
    LIKELIHOOD_CHUNK logits each (one point when a point alone is more),
    each chunk's values and gradient from one exp(-|logits|), with the bits
    of `bernoulli_log_prob` and `bernoulli_score_grad` on the whole block
    for every logit but a NaN, whose sign may differ; a forward-only call
    takes the same chunks without the sigmoid, and leaves dec_out as it is.
    """
    if kind == "gaussian":
        mean, var = mdl.split_decoder_out(dec_out, input_dim)
        values = dist.gaussian_log_prob(x_pts, mean, var)
        if with_grads:
            g_mean, g_var = dist.gaussian_score_grad(x_pts, mean, var)
            g_var *= dist.sigmoid(dec_out[..., input_dim:])
            dec_out[..., :input_dim] = g_mean
            dec_out[..., input_dim:] = g_var
        return values
    x_rows = np.broadcast_to(x_pts, dec_out.shape)
    values = np.empty(dec_out.shape[:-1], dtype=dec_out.dtype)
    per_chunk = max(1, LIKELIHOOD_CHUNK // max(1, dec_out[:1].size))
    for lo in range(0, dec_out.shape[0], per_chunk):
        c = slice(lo, lo + per_chunk)
        z, logits = x_rows[c], dec_out[c]
        e = dist._exp_neg_abs(logits, np.empty_like(logits))
        terms = z * logits
        terms -= dist._softplus_from_exp(
            logits, e, out=np.empty_like(logits) if with_grads else e)
        terms.sum(axis=-1, out=values[c])
        if with_grads:
            np.subtract(z, dist._sigmoid_from_exp(logits, e), out=logits)
    return values


def _check_finite(name, *arrays):
    for arr in arrays:
        if not np.isfinite(arr).all():
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
    then the learning signals and the gradients.  With
    `with_grads=False` (S >= 1) it returns after the values, with
    `grads` = {}: the same values, bit for bit, and none of what only
    the gradients read (the spike prior's expectation over q(zhat), the
    learning signals), nor does it keep it: the encoder and classifier
    tapes are dropped once the heads are computed, and each decoder
    block's tape before its likelihood values and its output before the
    next block's pass.
    Every point decodes C rows per sample, one per class, weighted by its
    label's one-hot or, unlabeled, by q(y | x), and has one label term:
    alpha_sup * log q(y | x) at its label, or, unlabeled,
    -KL(q(y | x) || Uniform(C)).  The decoder weights, the label term and
    its classifier-logit gradient each take one expression per point,
    selected by the unlabeled mask labels < 0.  The decoder runs on
    contiguous blocks of whole points of at most DECODER_BLOCK_ROWS rows,
    so memory is bounded by one block; a batch that fits in one block
    decodes exactly as one call would.
    The blocks compute in `dtype` (training passes float32): the decoder
    weights are cast once per call, and each block's input, its forward
    and backward passes and the likelihood, which reads x cast to `dtype`,
    run in it; each block's parameter gradient is added into the float64
    decoder gradient, and every other term and gradient is float64.  The
    likelihood writes its gradient over the block's decoder output, for
    both likelihoods; the Bernoulli one takes a block in chunks of whole
    points of about LIKELIHOOD_CHUNK logits, and the forward-only pass the
    same chunks without the sigmoid.  The decoder's backward pass returns
    the gradient w.r.t. its first pre-activation, and the z-gradient is
    that times the first layer's weights.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a nonempty (B, D) matrix")
    if x.shape[1] != m.D:
        raise ValueError("batch feature dimension does not match the model")
    if num_samples < (2 if with_grads else 1):
        raise ValueError(f"num_samples = {num_samples}: the leave-one-out control "
                         "variates need 2 or more, a forward-only estimate 1")
    labels = np.asarray(labels)
    if (labels.shape != x.shape[:1] or not np.issubdtype(labels.dtype, np.integer)
            or (labels < -1).any() or (labels >= m.C).any()):
        raise ValueError(f"labels must be {x.shape[0]} integers in [-1, {m.C})")
    # an unlabeled point takes the first expression of each `np.where`
    # below, a labeled one the second, at its class y
    unl = labels < 0
    y = np.maximum(labels, 0)
    batch_size, s = x.shape[0], num_samples
    n_data = int(dataset_size)
    scale = n_data / batch_size
    k, c = m.K, m.C

    # --- amortized posterior heads -----------------------------------------
    # the heads read the batch in float64; the decoder blocks cast their
    # rows from the caller's array (bool and float64 pixels cast to the
    # same values)
    x64 = x.astype(np.float64, copy=False)
    enc_out, enc_tape = nn.forward(m.encoder, x64)
    mean, var, logits_z = mdl.split_encoder_out(enc_out, k)
    sigma = np.sqrt(var)
    pi_hat = dist.sigmoid(logits_z)

    cls_out, cls_tape = nn.forward(m.classifier, x64)
    probs_y = dist.softmax(cls_out)                       # (B, C)
    if not with_grads:
        # only the gradients read the tapes: free them, and with them a
        # float64 copy of the batch, now
        enc_tape = cls_tape = None
    del x64

    # --- joint samples ------------------------------------------------------
    eps = rng.standard_normal((batch_size, s, k))
    # the drawn spikes and, for a step's stick signal, q(zhat = 1) beside
    # them, as the one array that the spike prior takes below
    spikes = np.empty((2 if with_grads else 1, batch_size, s, k))
    zhat = rng.random(out=spikes[0])
    np.less(zhat, pi_hat[:, None, :], out=zhat)         # 1.0 or 0.0 over the draws
    spikes[1:] = pi_hat[:, None, :]
    z = (sigma[:, None, :] * eps + mean[:, None, :]) * zhat   # ztilde, masked

    log_v, log_1mv = m.sticks.sample((batch_size, s), rng)

    # the spike prior terms of the drawn spikes and, for a step's stick
    # signal, their expectation over q(zhat) (the terms are linear in zhat),
    # in one call; the terms are elementwise, so either half has the bits
    # of a call on it alone
    spike_priors = ibp.ibp_prior_log_prob_from_sticks(spikes, log_v)
    logp_zhat_k = spike_priors[0]                                        # (B, S, K)
    logq_zhat_k = dist.bernoulli_log_prob(zhat, logits_z[:, None, :])
    logp_zhat = logp_zhat_k.sum(axis=2)                                  # (B, S)
    logq_zhat = logq_zhat_k.sum(axis=2)

    # --- reconstruction, with the decoder's gradients ----------------------
    # Every point decodes one row per (sample, class), rows ordered (point,
    # sample, class), and sums its class rows with weights w: its label's
    # one-hot, or q(y | x) for an unlabeled point, which marginalizes its
    # label.  The points are decoded in contiguous blocks of at most
    # DECODER_BLOCK_ROWS rows (one point when a point alone is more), so
    # memory does not grow with the batch; the draws are all made already.
    # A block's backward pass runs while its output is at hand.
    eye = np.eye(c)
    w = np.where(unl[:, None], probs_y, eye[y])           # (B, C)
    r = np.empty((batch_size, s, c))          # log p(x | z, y = c)
    g_z = np.empty((batch_size, s, k))        # weighted by scale/S already
    dec_grads = m.decoder.zero_grad_like()
    dec_layers = nn.cast_layers(m.decoder, dtype)
    per_block = max(1, DECODER_BLOCK_ROWS // (s * c))
    for lo in range(0, batch_size, per_block):
        pts = slice(lo, min(lo + per_block, batch_size))
        n_pts = pts.stop - lo
        dec_in = np.empty((n_pts, s, c, k + c), dtype=dtype)
        dec_in[..., :k] = z[pts, :, None, :]
        dec_in[..., k:] = eye
        out, tape = nn.forward(m.decoder, dec_in.reshape(-1, k + c),
                               layers=dec_layers)
        out = out.reshape(n_pts, s, c, -1)
        x_pts = x[pts].astype(dtype, copy=False)[:, None, None, :]
        if not with_grads:
            del tape   # only the gradients read it
        r[pts] = _likelihood(m.likelihood_kind, out, x_pts, m.D, with_grads)
        if not with_grads:
            # freed before the next block's pass allocates its own output
            del out
            continue
        # out holds the likelihood's gradient w.r.t. the block's output now
        out *= (w[pts] * (scale / s)).astype(dtype, copy=False)[:, None, :, None]
        g_params, g_pre = nn.backward(m.decoder, tape,
                                      out.reshape(-1, out.shape[-1]))
        g_in = g_pre @ tape.layers[0][0]
        # the one-hots are constants and the weights are folded in: the
        # z-gradient sums the class rows
        g_z[pts] = g_in[:, :k].reshape(n_pts, s, c, k).sum(axis=2)
        dec_grads += g_params
    recon = np.sum(w[:, None, :] * r, axis=2)                      # (B, S)
    _check_finite("recon", recon)

    # --- the other term values ----------------------------------------------
    # analytic -KL(q(ztilde) || N(0, I))
    kl_gauss_points = dist.gaussian_kl_to_standard(mean, var)

    term_y_points = np.where(unl, -dist.categorical_kl_to_uniform(probs_y),
                             alpha_sup * dist.categorical_log_prob(y, probs_y))

    logp_v_k = ibp.sticks_prior_log_prob(log_v, m.sticks.alpha)   # (B, S, K)
    logq_v_k = m.sticks.log_prob(log_v, log_1mv)

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

    # --- the learning signals -------------------------------------------------
    # the spikes' signal in the spike fit's (S, B, K) layout, its prior and
    # entropy terms weighted by `prior_weight`; stick j's signal takes the
    # expected spike priors of components k >= j, batch-scaled
    f_zhat = np.ascontiguousarray(
        ((logp_zhat_k - logq_zhat_k) * prior_weight
         + recon[:, :, None]).transpose(1, 0, 2))
    tails = np.cumsum(spike_priors[1][..., ::-1], axis=2)[..., ::-1]
    f_v = (tails * n_data + logp_v_k - logq_v_k).reshape(-1, k)
    _check_finite("term_zhat", f_zhat)
    _check_finite("term_v", f_v)

    # --- spike (zhat) score gradients, per-point control variates ----------
    h_zhat = dist.bernoulli_score_grad(zhat, logits_z[:, None, :])  # (B, S, K)
    # the S samples of every (point, spike) pair, in contiguous (S, B, K)
    g_logits = score_function_grad(
        f_zhat, np.ascontiguousarray(h_zhat.transpose(1, 0, 2)))   # (B, K)

    # --- pathwise gradients for the Gaussian slab, plus those of -KL -------
    g_ztilde = g_z * zhat                              # masked by the spikes
    g_mean = g_ztilde.sum(axis=1)                      # scale/S folded in
    g_var = (g_ztilde * eps).sum(axis=1) / (2.0 * sigma)
    g_mean += scale * (-mean)
    g_var += scale * (-0.5 * (1.0 - 1.0 / var))

    raw = enc_out[:, k:2 * k]
    enc_grad_out = np.concatenate(
        [g_mean, g_var * dist.sigmoid(raw), scale * g_logits], axis=1)
    enc_grads, _ = nn.backward(m.encoder, enc_tape, enc_grad_out)

    # --- label gradients -----------------------------------------------------
    g_probs = (-dist.categorical_kl_to_uniform_grad(probs_y) * scale
               + r.mean(axis=1) * scale)
    g_cls_logits = np.where(
        unl[:, None], _softmax_jacobian_vec(probs_y, g_probs),
        scale * alpha_sup * dist.categorical_score_grad(y, probs_y))
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
        if not np.isfinite(g).all():
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
