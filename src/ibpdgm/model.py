"""The IBP-DGM: spike-and-slab latent code with stick-breaking feature
probabilities, class-conditional decoder, and amortized posteriors.

A single encoder emits the Gaussian posterior (mean, variance) and the
Bernoulli inclusion logits from one shared hidden layer; a classifier
emits label probabilities; one shared decoder takes [z ; label one-hot]
so each class gets its own conditional likelihood without C separate
networks.  Decoder weights carry a spherical Gaussian prior and a
point-mass posterior, which turns into plain weight decay.
"""

import json
import os

import numpy as np

from . import nn
from . import data as dio
from . import distributions as dist
from . import ibp

CHECKPOINT_FORMAT = "IBPDGM-1"
VAR_FLOOR = 1e-6
LIKELIHOODS = ("bernoulli", "gaussian")
# the evaluation passes (`predict_batch`, `training.inclusion_probs`) run on
# chunks of this many rows, so their temporaries do not grow with N
EVAL_CHUNK = 2048


class IbpDgm:
    def __init__(self, encoder, classifier, decoder, sticks, likelihood_kind,
                 sigma_theta_sq, num_classes, input_dim):
        if likelihood_kind not in LIKELIHOODS:
            raise ValueError(f"unknown likelihood kind {likelihood_kind!r}")
        if sigma_theta_sq <= 0:
            raise ValueError("sigma_theta_sq must be positive")
        k = sticks.K
        if encoder.output_dim != 3 * k:
            raise ValueError("encoder must emit 3K outputs (mean, raw var, logits)")
        if decoder.input_dim != k + num_classes:
            raise ValueError("decoder input must be K + C")
        want = input_dim if likelihood_kind == "bernoulli" else 2 * input_dim
        if decoder.output_dim != want:
            raise ValueError("decoder output dim does not match the likelihood kind")
        if decoder.activations[-1] != "identity":
            # the output is raw logits or [mean | raw var]; the estimator
            # also writes the likelihood gradient over it, which only a
            # linear output layer's backward pass does not read
            raise ValueError("decoder output activation must be 'identity'")
        if classifier.output_dim != num_classes:
            raise ValueError("classifier must emit C logits")
        self.encoder = encoder
        self.classifier = classifier
        self.decoder = decoder
        self.sticks = sticks
        self.likelihood_kind = likelihood_kind
        self.sigma_theta_sq = float(sigma_theta_sq)
        self.C = int(num_classes)
        self.D = int(input_dim)
        self.K = k

    def parameter_groups(self):
        """Flat parameter arrays, keyed by group; optimizer-facing view."""
        return {
            "encoder": self.encoder.params,
            "classifier": self.classifier.params,
            "decoder": self.decoder.params,
            "sticks": self.sticks.params,
        }


def build_model(input_dim, num_classes, truncation, hidden, likelihood_kind,
                alpha, sigma_theta_sq, rng):
    """Construct an IbpDgm with Glorot-initialized single-hidden-layer nets."""
    k = int(truncation)
    out_dim = input_dim if likelihood_kind == "bernoulli" else 2 * input_dim
    encoder = nn.glorot_init(input_dim, [hidden], 3 * k, rng)
    classifier = nn.glorot_init(input_dim, [hidden], num_classes, rng)
    decoder = nn.glorot_init(k + num_classes, [hidden], out_dim, rng)
    sticks = ibp.GlobalSticks(k, alpha)
    return IbpDgm(encoder, classifier, decoder, sticks, likelihood_kind,
                  sigma_theta_sq, num_classes, input_dim)


# ---------------------------------------------------------------------------
# posterior heads

def split_encoder_out(out, k):
    """(..., 3K) raw encoder output -> (mean, var, inclusion logits)."""
    mean = out[..., :k]
    var = dist.softplus(out[..., k:2 * k]) + VAR_FLOOR
    logits = out[..., 2 * k:]
    return mean, var, logits


def encode(m, x):
    """Posterior parameters (mean, var, inclusion logits), each (B, K), for
    a batch x of shape (B, D)."""
    out, _ = nn.forward(m.encoder, x)
    return split_encoder_out(out, m.K)


def classify(m, x):
    """Label probabilities q(y | x), (B, C), for a batch x of shape (B, D)."""
    out, _ = nn.forward(m.classifier, x)
    return dist.softmax(out)


def predict_batch(m, x):
    """The most probable label of each row of x, (B,).

    Unlike `classify`, the classifier runs in nn.FAST_DTYPE (float32), on
    weights cast once per call and on chunks of EVAL_CHUNK rows: only the
    argmax of the logits is read.
    """
    layers = nn.cast_layers(m.classifier, nn.FAST_DTYPE)
    pred = np.empty(len(x), dtype=np.intp)
    for lo in range(0, len(x), EVAL_CHUNK):
        chunk = slice(lo, lo + EVAL_CHUNK)
        out, _ = nn.forward(m.classifier, x[chunk], layers)
        np.argmax(out, axis=1, out=pred[chunk])
    return pred


def decode(m, z, y_embed):
    """Raw decoder output for latent codes z (B, K) and label embeddings
    (class one-hots, (B, C)): the Bernoulli logits, or a Gaussian's
    [mean | raw var] (see `split_decoder_out`)."""
    z = np.asarray(z, dtype=np.float64)
    y_embed = np.asarray(y_embed, dtype=np.float64)
    if z.shape[-1] != m.K or y_embed.shape[-1] != m.C:
        raise ValueError("latent/label embedding dimensions do not match the model")
    out, _ = nn.forward(m.decoder, np.concatenate([z, y_embed], axis=-1))
    return out


def split_decoder_out(out, d):
    """(..., 2D) raw Gaussian decoder output -> (mean, var)."""
    return out[..., :d], dist.softplus(out[..., d:]) + VAR_FLOOR


def theta_log_prior(m):
    """Spherical Gaussian log-prior over the decoder weights and its gradient.

    With a point-mass posterior over the decoder parameters there is no
    entropy term; the gradient is plain weight decay, -theta / sigma^2.
    """
    theta = m.decoder.params
    s2 = m.sigma_theta_sq
    value = float(-0.5 * theta.size * np.log(2.0 * np.pi * s2)
                  - 0.5 * np.dot(theta, theta) / s2)
    grad = -theta / s2
    return value, grad


def generate(m, n, rng, y=None, sample_observations=False):
    """Draw n observations from the generative process.

    Sticks come from the Beta(alpha, 1) prior by its inverse CDF, feature
    probabilities from stick-breaking, spikes and slab from their priors;
    the label is the given class or drawn uniformly.  Returns (likelihood
    means, sampled observations or None).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if y is not None and not 0 <= y < m.C:
        raise ValueError(f"label {y} outside [0, {m.C})")
    log_v = ibp.sticks_prior_sample(m.sticks.alpha, (n, m.K), rng)
    pi = np.exp(np.cumsum(log_v, axis=-1))
    zhat = (rng.random((n, m.K)) < pi).astype(np.float64)
    ztilde = rng.standard_normal((n, m.K))
    labels = np.full(n, int(y)) if y is not None else rng.integers(m.C, size=n)
    out = decode(m, ztilde * zhat, np.eye(m.C)[labels])
    if m.likelihood_kind == "bernoulli":
        means = dist.sigmoid(out)
        samples = ((rng.random((n, m.D)) < means).astype(np.float64)
                   if sample_observations else None)
    else:
        means, var = split_decoder_out(out, m.D)
        samples = (means + np.sqrt(var) * rng.standard_normal((n, m.D))
                   if sample_observations else None)
    return means, samples


# ---------------------------------------------------------------------------
# checkpointing: JSON manifest + flat little-endian float64 blob

def save_checkpoint(m, path):
    """Write `path` (JSON manifest) and `path + '.bin'` (parameter blob).

    The blob is every group's flat float64 parameters, little-endian, in
    manifest order; round-trips bit-exactly.
    """
    blob_name = os.path.basename(path) + ".bin"
    manifest = {
        "format_version": CHECKPOINT_FORMAT,
        "blob": blob_name,
        "likelihood_kind": m.likelihood_kind,
        "input_dim": m.D,
        "num_classes": m.C,
        "truncation": m.K,
        "alpha": m.sticks.alpha,
        "sigma_theta_sq": m.sigma_theta_sq,
        "encoder_dims": m.encoder.dims,
        "encoder_activations": m.encoder.activations,
        "classifier_dims": m.classifier.dims,
        "classifier_activations": m.classifier.activations,
        "decoder_dims": m.decoder.dims,
        "decoder_activations": m.decoder.activations,
        "parameters": [
            {"name": name, "shape": [int(arr.size)]}
            for name, arr in m.parameter_groups().items()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    blob = np.concatenate(list(m.parameter_groups().values()))
    with open(os.path.join(os.path.dirname(path) or ".", blob_name), "wb") as fh:
        fh.write(blob.astype("<f8").tobytes())


def load_checkpoint(path):
    """Rebuild the model that `save_checkpoint` wrote to `path`.

    A manifest or blob that does not parse, or that disagrees with itself,
    raises `data.DataFormatError` naming the path and the fault.
    """
    try:
        return _read_checkpoint(path)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        fault = f"manifest lacks key {exc}" if isinstance(exc, KeyError) else exc
        raise dio.DataFormatError(f"{path}: corrupt checkpoint: {fault}") from None


def _read_checkpoint(path):
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"unsupported checkpoint format {manifest.get('format_version')!r}")
    blob_path = os.path.join(os.path.dirname(path) or ".", manifest["blob"])
    with open(blob_path, "rb") as fh:
        flat = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)

    encoder = nn.DenseNet(manifest["encoder_dims"], manifest["encoder_activations"])
    classifier = nn.DenseNet(manifest["classifier_dims"], manifest["classifier_activations"])
    decoder = nn.DenseNet(manifest["decoder_dims"], manifest["decoder_activations"])
    sticks = ibp.GlobalSticks(manifest["truncation"], manifest["alpha"])
    m = IbpDgm(encoder, classifier, decoder, sticks,
               manifest["likelihood_kind"], manifest["sigma_theta_sq"],
               manifest["num_classes"], manifest["input_dim"])

    expected = sum(entry["shape"][0] for entry in manifest["parameters"])
    if flat.size != expected:
        raise ValueError(
            f"parameter blob holds {flat.size} values, manifest expects {expected}")
    off = 0
    groups = m.parameter_groups()
    for entry in manifest["parameters"]:
        n = entry["shape"][0]
        target = groups[entry["name"]]
        if target.size != n:
            raise ValueError(f"group {entry['name']!r} size mismatch")
        target[:] = flat[off:off + n]
        off += n
    return m
