"""Dataset loading, binarization, label splitting, and synthetic generators.

Two on-disk formats are supported:

* IDX (MNIST binary): big-endian; images carry magic 0x00000803 then
  u32 count/rows/cols and u8 pixels, labels carry magic 0x00000801 then
  u32 count and u8 labels.  Pixels are scaled to [0, 1] by /255.
* amat: whitespace-separated numeric text, one row per example, features
  first and an integer class label in the last column.

Labels use -1 as the "unlabeled" sentinel.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import distributions as dist

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
# `binarize_epoch` draws its uniforms in row chunks of about this many values
BINARIZE_CHUNK = 2 ** 16


class DataFormatError(ValueError):
    """A dataset file failed to parse; the message pinpoints where."""


@dataclass
class Dataset:
    features: np.ndarray          # (N, D)
    labels: np.ndarray            # (N,) int, -1 = unlabeled
    num_classes: int
    kind: str                     # "bernoulli" or "gaussian"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ValueError("features must be (N, D) with one label per row")
        if np.any(self.labels < -1) or np.any(self.labels >= self.num_classes):
            raise ValueError("labels must lie in {-1, 0..C-1}")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite (found nan or inf)")
        if self.kind == "bernoulli" and (
                np.any(self.features < 0) or np.any(self.features > 1)):
            raise ValueError("bernoulli features must lie in [0, 1]")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def subset(self, idx):
        return Dataset(self.features[idx], self.labels[idx],
                       self.num_classes, self.kind)


def _read_u32(fh, path, what):
    offset = fh.tell()
    raw = fh.read(4)
    if len(raw) != 4:
        raise DataFormatError(f"{path}: truncated reading {what} at offset {offset}")
    return struct.unpack(">I", raw)[0]


def load_idx(images_path, labels_path):
    """Load an MNIST-style IDX image/label file pair as a Bernoulli dataset
    of ten classes."""
    with open(images_path, "rb") as fh:
        magic = _read_u32(fh, images_path, "magic")
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad image magic 0x{magic:08x} at offset 0")
        count = _read_u32(fh, images_path, "count")
        rows = _read_u32(fh, images_path, "rows")
        cols = _read_u32(fh, images_path, "cols")
        if count * rows * cols == 0:
            raise DataFormatError(f"{images_path}: empty file ({count} images "
                                  f"of {rows} x {cols} pixels)")
        offset = fh.tell()
        raw = fh.read()
        if len(raw) != count * rows * cols:
            raise DataFormatError(
                f"{images_path}: expected {count * rows * cols} pixel bytes "
                f"from offset {offset}, found {len(raw)}")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as fh:
        magic = _read_u32(fh, labels_path, "magic")
        if magic != IDX_LABEL_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x} at offset 0")
        n_labels = _read_u32(fh, labels_path, "count")
        offset = fh.tell()
        raw = fh.read()
        if len(raw) != n_labels:
            raise DataFormatError(
                f"{labels_path}: expected {n_labels} label bytes from offset "
                f"{offset}, found {len(raw)}")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if n_labels != count:
        raise DataFormatError(
            f"{images_path}: {count} images but {n_labels} labels")
    try:
        return Dataset(images.astype(np.float64) / 255.0, labels, 10, "bernoulli")
    except ValueError as exc:   # the pixels lie in [0, 1]: a label is out of range
        raise DataFormatError(f"{labels_path}: {exc}") from None


def load_amat(path, kind="bernoulli"):
    """Load whitespace-separated text rows; last column is the class label."""
    features, labels = [], []
    arity = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            tokens = line.split()
            if arity is None:
                arity = len(tokens)
                if arity < 2:
                    raise DataFormatError(
                        f"{path}:{lineno}: need at least one feature and a label")
            elif len(tokens) != arity:
                raise DataFormatError(
                    f"{path}:{lineno}: ragged row ({len(tokens)} columns, "
                    f"expected {arity})")
            try:
                row = [float(t) for t in tokens]
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric token") from None
            if not (row[-1].is_integer() and -2.0 ** 63 <= row[-1] < 2.0 ** 63):
                raise DataFormatError(f"{path}:{lineno}: label {tokens[-1]!r} is "
                                      "not a finite integer within int64")
            features.append(row[:-1])
            labels.append(int(row[-1]))
    if not features:
        raise DataFormatError(f"{path}: empty file")
    labels = np.array(labels, dtype=np.int64)
    num_classes = max(int(labels.max()) + 1, 1)   # all unlabeled: one class
    try:
        return Dataset(np.array(features), labels, num_classes, kind)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def binarize_epoch(features, rng):
    """Fresh Bernoulli draw per pixel with its value as the on-probability;
    returns a bool array shaped like features.

    Pixel (i, j) is on where u < features[i, j], u the uniforms of one
    `rng.random(features.shape)` call, which are drawn in row chunks of
    about BINARIZE_CHUNK values: the same stream, bit for bit, and the
    generator is left where that one call would leave it, without an
    n x D float64 draw array.  NaN fails the [0, 1] check.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.size and not (features.min() >= 0.0 and features.max() <= 1.0):
        raise ValueError("features must lie in [0, 1] to binarize")
    out = np.empty(features.shape, dtype=bool)
    rows = max(1, BINARIZE_CHUNK // max(1, features[:1].size))
    for lo in range(0, features.shape[0], rows):
        np.less(rng.random(features[lo:lo + rows].shape), features[lo:lo + rows],
                out=out[lo:lo + rows])
    return out


def stratified_label_split(labels, fraction, rng):
    """Pick round(fraction * N_c) labeled indices per class, at least one;
    returns them sorted.  A class below the largest label with no examples
    is a DataFormatError."""
    labels = np.asarray(labels, dtype=np.int64)
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie in (0, 1)")
    num_classes = int(labels.max()) + 1
    labeled = []
    for c in range(num_classes):
        members = np.flatnonzero(labels == c)
        if members.size == 0:
            raise DataFormatError(f"class {c} has no examples")
        take = max(1, int(round(fraction * members.size)))
        labeled.append(rng.permutation(members)[:take])
    return np.sort(np.concatenate(labeled))


def apply_split(dataset, labeled_idx):
    """Copy of the dataset with every label outside labeled_idx set to -1."""
    labels = np.full(dataset.n, -1, dtype=np.int64)
    labels[labeled_idx] = dataset.labels[labeled_idx]
    return Dataset(dataset.features, labels, dataset.num_classes, dataset.kind)


@dataclass
class SynthIbpData:
    """Synthetic binary data with known latent feature structure."""
    dataset: Dataset
    ownership: np.ndarray     # (N, G) ground-truth binary feature usage
    mean_probs: np.ndarray    # (N, D) Bernoulli means the rows were drawn from
    dictionary: np.ndarray    # (G, D) feature dictionary


def synth_ibp_data(n, true_features, dim, noise, rng):
    """Binary observations from a sparse latent feature dictionary.

    Each point owns each of G features independently with probability 0.5;
    its Bernoulli mean is logistic(ownership @ dictionary), optionally
    flipped toward 0.5 with probability `noise`, and the observation is
    one Bernoulli draw per pixel.
    """
    if true_features > dim:
        raise ValueError("need at least as many dimensions as true features")
    # saturated asymmetric entries give each feature a crisp pixel signature;
    # the asymmetry keeps most multi-feature sums away from logit 0, so the
    # Bernoulli means stay near-deterministic given the ownership pattern
    dictionary = rng.choice([-9.0, 4.0], size=(true_features, dim))
    ownership = (rng.random((n, true_features)) < 0.5).astype(np.float64)
    logits = ownership @ dictionary
    probs = dist.sigmoid(logits)
    probs = noise + (1.0 - 2.0 * noise) * probs
    features = (rng.random((n, dim)) < probs).astype(np.float64)
    labels = np.full(n, -1, dtype=np.int64)
    return SynthIbpData(
        dataset=Dataset(features, labels, 1, "bernoulli"),
        ownership=ownership, mean_probs=probs, dictionary=dictionary)


def synth_blobs(n, num_classes, dim, separation, rng):
    """Gaussian class blobs with unit-normal within-class scatter."""
    centers = rng.standard_normal((num_classes, dim))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.integers(num_classes, size=n)
    features = centers[labels] + rng.standard_normal((n, dim))
    return Dataset(features, labels.astype(np.int64), num_classes, "gaussian")
