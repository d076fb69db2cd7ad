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
decoder blocks in float32 (DECODER_DTYPE), so the metrics ELBO stays a
bit-for-bit prefix of a step; the parameters, the gradients, Adam's
moments, the clip and the checkpoint are float64.

Per-epoch metrics rows go to a CSV with a fixed column schema; the ELBO
metric is re-estimated each epoch, forward only, with a fixed evaluation
stream so the curve reflects parameter movement rather than fresh sampling
noise.  It is always the ELBO, also during the warm-up.
"""

import os
from dataclasses import dataclass

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
WARMUP_FRACTION = 1.0 / 15.0
# the precision of the estimator's decoder blocks, in training steps and
# in the per-epoch metrics alike
DECODER_DTYPE = np.float32


@dataclass
class RunConfig:
    # data
    dataset: str = "synth-ibp"        # synth-ibp | synth-blobs | idx | amat
    likelihood: str = "bernoulli"
    images: str = ""                  # idx: image/label file pair
    labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    train_path: str = ""              # amat files
    test_path: str = ""
    limit_train: int = 0              # optional cap on training rows (0 = all)
    synth_n: int = 2000
    synth_test_n: int = 500
    synth_features: int = 4           # ground-truth G for synth-ibp
    synth_dim: int = 30
    synth_noise: float = 0.02
    synth_classes: int = 2            # synth-blobs
    synth_separation: float = 4.0
    # model
    truncation: int = 50
    alpha: float = 2.0
    hidden: int = 500
    sigma_theta_sq: float = 1e-2
    # optimizer
    lr: float = 3e-4
    # objective
    mc_samples: int = 8
    labeled_fraction: float = 0.01
    alpha_sup: float = -1.0           # < 0 means auto: 0.1 * N / N_labeled
    unlabeled_mode: str = "marginalize"   # its one value; perfbench sets it
    # loop
    epochs: int = 10
    batch_size: int = 100
    seed: int = 0
    eval_mc_samples: int = 4
    tau: float = 0.01
    out: str = "runs"

    def validate(self):
        if self.dataset not in ("synth-ibp", "synth-blobs", "idx", "amat"):
            raise ValueError(f"unknown dataset kind {self.dataset!r}")
        if self.likelihood not in mdl.LIKELIHOODS:
            raise ValueError(f"unknown likelihood {self.likelihood!r}")
        if self.unlabeled_mode != "marginalize":
            raise ValueError(f"unlabeled_mode {self.unlabeled_mode!r}: unlabeled "
                             "points always marginalize their label")
        if self.truncation < 1 or self.hidden < 1 or self.epochs < 0:
            raise ValueError("truncation, hidden, epochs must be positive")
        # mc_samples: the leave-one-out control variates need 2 draws per
        # point; a synthetic run needs a training point, and may have no test
        for key, least in (("batch_size", 1), ("mc_samples", 2), ("eval_mc_samples", 1),
                           ("synth_n", 1), ("synth_test_n", 0), ("limit_train", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} = {getattr(self, key)}: must be >= {least}")
        if not (0 < self.labeled_fraction < 1):
            raise ValueError("labeled_fraction must lie in (0, 1)")
        if self.sigma_theta_sq <= 0 or self.lr <= 0 or self.alpha <= 0:
            raise ValueError("sigma_theta_sq, lr, alpha must be positive")
        return self


def load_datasets(cfg, rng):
    """Materialize (train, test) datasets for a run configuration."""
    if cfg.dataset == "synth-ibp":
        synth = dio.synth_ibp_data(cfg.synth_n + cfg.synth_test_n,
                                   cfg.synth_features, cfg.synth_dim,
                                   cfg.synth_noise, rng)
        full = synth.dataset
        train = full.subset(np.arange(cfg.synth_n))
        test = full.subset(np.arange(cfg.synth_n, full.n))
        return train, test
    if cfg.dataset == "synth-blobs":
        # train and test share the class centers, so draw them jointly
        joint = dio.synth_blobs(cfg.synth_n + cfg.synth_test_n, cfg.synth_classes,
                                cfg.synth_dim, cfg.synth_separation, rng)
        return (joint.subset(np.arange(cfg.synth_n)),
                joint.subset(np.arange(cfg.synth_n, joint.n)))
    if cfg.dataset == "idx":
        train = dio.load_idx(cfg.images, cfg.labels)
        test = (dio.load_idx(cfg.test_images, cfg.test_labels)
                if cfg.test_images else None)
    else:
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
    pred = mdl.predict_batch(m, dataset.features[mask])
    return 100.0 * float(np.mean(pred != dataset.labels[mask]))


def inclusion_probs(m, features):
    """q(zhat_ik = 1) for every point: sigmoid of the encoder logit head."""
    rows = []
    for start in range(0, features.shape[0], 2048):
        out, _ = nn.forward(m.encoder, features[start:start + 2048])
        _, _, logits = mdl.split_encoder_out(out, m.K)
        rows.append(dist.sigmoid(logits))
    return np.concatenate(rows, axis=0)


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
    config.  Bernoulli-kind features are re-binarized with a fresh
    Bernoulli draw before every epoch.
    """
    cfg.validate()
    os.makedirs(cfg.out, exist_ok=True)
    seed_root = np.random.SeedSequence(cfg.seed)
    s_data, s_model, s_split, s_train, s_eval = seed_root.spawn(5)

    if train_data is None:
        train_data, test_data = load_datasets(cfg, np.random.default_rng(s_data))

    # stratified labeled/unlabeled split (skipped when nothing is labeled)
    has_labels = np.any(train_data.labels >= 0)
    if has_labels:
        labeled_idx, _ = dio.stratified_label_split(
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
                breakdown = bbvi.estimate_elbo_and_grads(
                    m, feats[idx], split_train.labels[idx], cfg.mc_samples, train_rng,
                    dataset_size=n, alpha_sup=alpha_sup,
                    prior_weight=spike_prior_weight(step, total_steps),
                    dtype=DECODER_DTYPE)
                step += 1
                loss_grads = breakdown.grads
                for g in loss_grads.values():
                    np.negative(g, out=g)
                bbvi.clip_global_norm(loss_grads, GRAD_CLIP * n)
                groups = m.parameter_groups()
                for name, g in loss_grads.items():
                    nn.adam_step(groups[name], g, states[name])

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


def _epoch_metrics(m, train_data, test_data, cfg, alpha_sup, epoch, eval_seed):
    """One metrics row; the ELBO estimate reuses a fixed evaluation stream."""
    rng = np.random.default_rng(eval_seed)
    feats = train_data.features
    if train_data.kind == "bernoulli":
        feats = dio.binarize_epoch(feats, rng)
    n = train_data.n
    cap = min(n, 4000)  # bound per-epoch metric cost on big datasets
    idx = np.arange(n) if n <= cap else rng.permutation(n)[:cap]
    bd = bbvi.estimate_elbo_and_grads(
        m, feats[idx], train_data.labels[idx], cfg.eval_mc_samples, rng, dataset_size=n,
        alpha_sup=alpha_sup, with_grads=False, dtype=DECODER_DTYPE)
    report = component_report(m, train_data, cfg.tau)
    train_err = error_rate(m, train_data)
    test_err = error_rate(m, test_data) if test_data is not None else float("nan")
    return [epoch, bd.total, bd.recon, bd.kl_gauss, bd.term_zhat, bd.term_v,
            bd.term_y, train_err, test_err, report.count]
