"""Training loop, run configuration, metrics, and evaluation.

One AdaM state per parameter group, with the paper's moment decay rates
(`nn.ADAM_BETA1`, `nn.ADAM_BETA2`).  Before each update the gradients are
clipped when the joint norm of their per-point mean exceeds GRAD_CLIP
(10): score-function estimators occasionally spike.  The estimator's
gradients target the full-data objective, so `train` clips their joint
norm at GRAD_CLIP times the dataset size; one threshold then serves any
dataset size.  It does not leave ordinary steps alone everywhere: at the
criterion-6 config it fires in the first epoch and almost never after,
but at the MNIST shape (D=784, K=50, H=500) it fired on all 60 steps of
a traced 15-second `perfbench` `mnist-train` run, so there it scales
every update.  The clip threshold and Adam's rates are constants, not
config keys: every run uses the same values.

Two schedules shape every run; neither has a config key:

- Step size.  Epoch e runs Adam at lr / (1 + e / LR_DECAY_EPOCHS), a
  Robbins-Monro sequence (the steps sum to infinity, their squares do
  not), which is what BBVI's convergence argument assumes; `lr` is the
  base rate.  With a constant step Adam keeps jittering the parameters at
  a noise floor set by the step, and the ELBO never settles.
- Spike-prior warm-up.  Over the first WARMUP_FRACTION of the run's steps
  the spike prior and entropy terms enter the spikes' learning signal with
  a weight rising linearly from 0 to 1 (KL warm-up, Sonderby et al. 2016).
  At full weight the IBP prior prunes a component before the decoder has
  learned to use it; the warm-up lets the decoder find the components
  worth keeping first.  From then on the estimator is the unbiased
  gradient of the ELBO itself.

Both of `train`'s estimator calls, the step's and the metrics', run the
decoder blocks in float32 (`nn.FAST_DTYPE`), so the metrics ELBO stays a
bit-for-bit prefix of a step; the parameters, the gradients, Adam's
moments, the clip and the checkpoint are float64.  The evaluation passes
run in float32 too: `error_rate`'s classifier (`model.predict_batch`) and
`component_report`'s encoder and sigmoid (`inclusion_probs`), each on
weights cast once per call.  They read no random draws and feed nothing
back into training.  Outside training, `model.generate`'s decoder runs
in float32 the same way.

Per-epoch metrics rows go to a CSV with a fixed column schema; the ELBO
metric is re-estimated each epoch, forward only, with a fixed evaluation
stream so the curve reflects parameter movement rather than fresh sampling
noise.  It is always the ELBO, also during the warm-up.
"""

import math
import operator
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import nn
from . import bbvi
from . import data as dio
from . import distributions as dist
from . import ibp
from . import model as mdl

METRICS_COLUMNS = ("epoch", "elbo", "recon", "kl_gauss", "term_zhat",
                   "term_v", "term_y", "train_err", "test_err", "n_active")
GRAD_CLIP = 10.0
LR_DECAY_EPOCHS = 10.0
METRICS_CAP = 4000   # points of the per-epoch metrics, bounding their cost
WARMUP_FRACTION = 1.0 / 15.0


def _key(default, accepts):
    """A `RunConfig` field that accepts only the values `accepts` states: a
    tuple of choices, or an interval such as "[1, inf)", which messages
    quote as written.  An interval is parsed here, once."""
    if isinstance(accepts, tuple):
        test, must = accepts.__contains__, "be one of " + ", ".join(accepts)
    else:
        lo, hi = (float(end) for end in accepts[1:-1].split(","))
        above = operator.le if accepts[0] == "[" else operator.lt
        below = operator.le if accepts[-1] == "]" else operator.lt
        test, must = (lambda v: above(lo, v) and below(v, hi)), "lie in " + accepts
    return field(default=default, metadata={"accepts": test, "must": must})


@dataclass
class RunConfig:
    # data
    dataset: str = _key("synth-ibp", ("synth-ibp", "synth-blobs", "idx", "amat"))
    likelihood: str = _key("bernoulli", mdl.LIKELIHOODS)
    images: str = ""                  # idx: image/label file pair
    labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    train_path: str = ""              # amat files
    test_path: str = ""
    limit_train: int = _key(0, "[0, inf)")   # optional cap on training rows (0 = all)
    synth_n: int = _key(2000, "[1, inf)")
    synth_test_n: int = _key(500, "[0, inf)")
    synth_features: int = _key(4, "[0, inf)")   # ground-truth G for synth-ibp
    synth_dim: int = _key(30, "[1, inf)")
    synth_noise: float = _key(0.02, "[0, 0.5]")   # flip probability
    # model
    truncation: int = _key(50, "[1, inf)")
    alpha: float = _key(2.0, "(0, inf)")
    hidden: int = _key(500, "[1, inf)")
    sigma_theta_sq: float = _key(1e-2, "(0, inf)")
    # optimizer
    lr: float = _key(3e-4, "(0, inf)")
    # objective
    mc_samples: int = _key(8, "[2, inf)")   # the leave-one-out CVs need 2 draws
    labeled_fraction: float = _key(0.01, "(0, 1)")
    alpha_sup: float = -1.0           # < 0 means auto: 0.1 * N / N_labeled
    unlabeled_mode: str = _key("marginalize", ("marginalize",))   # kept: perfbench sets it
    # loop
    epochs: int = _key(10, "[0, inf)")
    batch_size: int = _key(100, "[1, inf)")
    seed: int = _key(0, "[0, inf)")
    eval_mc_samples: int = _key(4, "[1, inf)")
    tau: float = _key(0.01, "[0, 1]")   # 1 counts no component active
    out: str = "runs"

    def validate(self, keys=None):
        """Check every field, or those named in `keys`: a float must be
        finite, and then each field must be a value it accepts."""
        for f in fields(self):
            if keys is not None and f.name not in keys:
                continue
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                must = "be finite"
            elif "accepts" in f.metadata and not f.metadata["accepts"](value):
                must = f.metadata["must"]
            else:
                continue
            raise ValueError(f"{f.name} = {value!r}: must {must}")
        return self


def load_datasets(cfg, rng):
    """Materialize (train, test) datasets for a run configuration."""
    if cfg.dataset.startswith("synth-"):   # one draw, split into train and test
        n = cfg.synth_n + cfg.synth_test_n
        if cfg.dataset == "synth-blobs":   # two classes, centers 4 from the origin
            full = dio.synth_blobs(n, 2, cfg.synth_dim, 4.0, rng)
        elif cfg.synth_features > cfg.synth_dim:
            raise ValueError(f"synth_features = {cfg.synth_features!r}: "
                             f"must be at most synth_dim = {cfg.synth_dim!r}")
        else:
            full = dio.synth_ibp_data(n, cfg.synth_features, cfg.synth_dim,
                                      cfg.synth_noise, rng).dataset
        return full.subset(np.arange(cfg.synth_n)), full.subset(np.arange(cfg.synth_n, n))
    # the file keys are checked before any file is read, a pair as a pair
    if cfg.dataset == "idx":
        if not (cfg.images and cfg.labels):
            raise ValueError(f"images = {cfg.images!r}, labels = {cfg.labels!r}: "
                             "must both name files under dataset = 'idx'")
        if bool(cfg.test_images) != bool(cfg.test_labels):
            raise ValueError(f"test_images = {cfg.test_images!r}, test_labels = "
                             f"{cfg.test_labels!r}: must be set together")
        train = dio.load_idx(cfg.images, cfg.labels)
        test = (dio.load_idx(cfg.test_images, cfg.test_labels)
                if cfg.test_images else None)
    else:
        if not cfg.train_path:
            raise ValueError(f"train_path = {cfg.train_path!r}: "
                             "must name a file under dataset = 'amat'")
        train = dio.load_amat(cfg.train_path, kind=cfg.likelihood)
        test = dio.load_amat(cfg.test_path, kind=cfg.likelihood) if cfg.test_path else None
    if cfg.limit_train and train.n > cfg.limit_train:
        train = train.subset(np.arange(cfg.limit_train))
    return train, test


def format_metrics_row(values):
    out = []
    for v in values:
        if isinstance(v, (int, np.integer)):
            out.append(str(int(v)))
        else:
            out.append(repr(float(v)))
    return ",".join(out)


def error_rate(m, dataset):
    """Percent of points whose predicted class differs from the label.

    Points with the -1 sentinel are skipped; nan when nothing is labeled.
    """
    mask = dataset.labels >= 0
    if not np.any(mask):
        return float("nan")
    x, labels = dataset.features, dataset.labels
    if not np.all(mask):      # copy the features only when some are skipped
        x, labels = x[mask], labels[mask]
    return 100.0 * float(np.mean(mdl.predict_batch(m, x) != labels))


def inclusion_probs(m, features):
    """q(zhat_ik = 1) for every point, (N, K) float64: sigmoid of the
    encoder logit head.

    The encoder runs in nn.FAST_DTYPE (float32) on weights cast once per
    call, on chunks of mdl.EVAL_CHUNK rows, and its last layer computes
    only the logit rows [2K:3K].  The sigmoid runs in float32 too, the
    precision the logits carry, and writing it into the one (N, K) result
    widens it to float64.
    """
    layers = nn.cast_layers(m.encoder, nn.FAST_DTYPE)
    w, b = layers[-1]
    layers[-1] = (w[2 * m.K:], b[2 * m.K:])
    probs = np.empty((features.shape[0], m.K))
    for lo in range(0, features.shape[0], mdl.EVAL_CHUNK):
        chunk = slice(lo, lo + mdl.EVAL_CHUNK)
        logits, _ = nn.forward(m.encoder, features[chunk], layers)
        probs[chunk] = dist.sigmoid(logits)
    return probs


def component_report(m, dataset, tau):
    return ibp.active_components(inclusion_probs(m, dataset.features), tau)


def step_size(lr, epoch):
    """Adam's step size in a given epoch: lr / (1 + epoch / LR_DECAY_EPOCHS)."""
    return lr / (1.0 + epoch / LR_DECAY_EPOCHS)


def spike_prior_weight(step, total_steps):
    """Weight of the spike prior and entropy terms at a training step:
    rises linearly from 0 to 1 over the first WARMUP_FRACTION of the run."""
    return min(1.0, step / (WARMUP_FRACTION * total_steps))


@dataclass
class TrainResult:
    model: "mdl.IbpDgm"
    metrics_path: str
    checkpoint_path: str
    history: list


def train(cfg, train_data=None, test_data=None, log=None):
    """Run the full training loop; returns the model and metrics locations.

    Datasets may be passed directly (tests, notebooks) or loaded from the
    config; either way a test set must fit the training set
    (`data.check_fits`), which is checked before anything is written.
    Bernoulli-kind features are re-binarized with a fresh Bernoulli draw
    before every epoch.
    """
    cfg.validate()
    seed_root = np.random.SeedSequence(cfg.seed)
    s_data, s_model, s_split, s_train, s_eval = seed_root.spawn(5)

    test_name = "the test set"
    if train_data is None:
        train_data, test_data = load_datasets(cfg, np.random.default_rng(s_data))
        files = {"idx": cfg.test_images, "amat": cfg.test_path}
        test_name = files.get(cfg.dataset, test_name)
    if test_data is not None:   # the network's width and classes come from train_data
        dio.check_fits(test_data, test_name, "the training set", train_data.dim,
                       train_data.num_classes)

    # stratified labeled/unlabeled split (skipped when nothing is labeled)
    has_labels = np.any(train_data.labels >= 0)
    if has_labels:
        labeled_idx = dio.stratified_label_split(
            train_data.labels, cfg.labeled_fraction, np.random.default_rng(s_split))
        split_train = dio.apply_split(train_data, labeled_idx)
        n_labeled = labeled_idx.size
    else:
        split_train = train_data
        n_labeled = 0
    alpha_sup = cfg.alpha_sup
    if alpha_sup < 0:
        alpha_sup = 0.1 * split_train.n / n_labeled if n_labeled else 0.0

    m = mdl.build_model(split_train.dim, split_train.num_classes, cfg.truncation,
                        cfg.hidden, split_train.kind, cfg.alpha,
                        cfg.sigma_theta_sq, np.random.default_rng(s_model))
    states = {name: nn.AdamState(p.size, cfg.lr)
              for name, p in m.parameter_groups().items()}
    train_rng = np.random.default_rng(s_train)
    eval_seed = s_eval.generate_state(1)[0]

    os.makedirs(cfg.out, exist_ok=True)   # only once the inputs are good
    metrics_path = os.path.join(cfg.out, "metrics.csv")
    history = []
    n = split_train.n
    total_steps = cfg.epochs * -(-n // cfg.batch_size)
    step = 0
    with open(metrics_path, "w", encoding="utf-8") as metrics:
        metrics.write(",".join(METRICS_COLUMNS) + "\n")
        for epoch in range(cfg.epochs):
            for state in states.values():
                state.lr = step_size(cfg.lr, epoch)
            feats = split_train.features
            if split_train.kind == "bernoulli":
                feats = dio.binarize_epoch(feats, train_rng)
            order = train_rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                _train_step(m, states, feats[idx], split_train.labels[idx],
                            cfg.mc_samples, train_rng, n, alpha_sup,
                            spike_prior_weight(step, total_steps))
                step += 1

            row = _epoch_metrics(m, split_train, test_data, cfg, alpha_sup,
                                 epoch, eval_seed)
            history.append(row)
            metrics.write(format_metrics_row(row) + "\n")
            metrics.flush()
            if log is not None:
                log("epoch %d  elbo %.3f  n_active %d" % (epoch, row[1], row[-1]))

    checkpoint_path = os.path.join(cfg.out, "model.ckpt")
    mdl.save_checkpoint(m, checkpoint_path)
    return TrainResult(model=m, metrics_path=metrics_path,
                       checkpoint_path=checkpoint_path, history=history)


def _train_step(m, states, x, labels, num_samples, rng, n, alpha_sup, prior_weight):
    """One estimate, clip and Adam update on the batch (x, labels).

    The step's breakdown and gradients are local, so they are freed when
    it returns, before the next step's estimate allocates its own.
    """
    loss_grads = bbvi.estimate_elbo_and_grads(
        m, x, labels, num_samples, rng, dataset_size=n, alpha_sup=alpha_sup,
        prior_weight=prior_weight, dtype=nn.FAST_DTYPE).grads
    for g in loss_grads.values():
        np.negative(g, out=g)
    bbvi.clip_global_norm(loss_grads, GRAD_CLIP * n)
    groups = m.parameter_groups()
    for name, g in loss_grads.items():
        nn.adam_step(groups[name], g, states[name])


def _epoch_metrics(m, train_data, test_data, cfg, alpha_sup, epoch, eval_seed):
    """One metrics row; the ELBO estimate reuses a fixed evaluation stream."""
    rng = np.random.default_rng(eval_seed)
    feats, labels = train_data.features, train_data.labels
    n = train_data.n
    if n > METRICS_CAP:
        idx = rng.permutation(n)[:METRICS_CAP]
        feats, labels = feats[idx], labels[idx]
    if train_data.kind == "bernoulli":     # only the rows kept
        feats = dio.binarize_epoch(feats, rng)
    bd = bbvi.estimate_elbo_and_grads(
        m, feats, labels, cfg.eval_mc_samples, rng, dataset_size=n,
        alpha_sup=alpha_sup, with_grads=False, dtype=nn.FAST_DTYPE)
    report = component_report(m, train_data, cfg.tau)
    train_err = error_rate(m, train_data)
    test_err = error_rate(m, test_data) if test_data is not None else float("nan")
    return [epoch, bd.total, bd.recon, bd.kl_gauss, bd.term_zhat, bd.term_v,
            bd.term_y, train_err, test_err, report.count]
