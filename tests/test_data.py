import re
import struct

import numpy as np
import pytest

from ibpdgm import data as dio


def write_idx_pair(tmp_path, images, labels, image_magic=0x00000803,
                   label_magic=0x00000801):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, n, rows, cols))
        fh.write(images.tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", label_magic, len(labels)))
        fh.write(bytes(labels))
    return str(img_path), str(lbl_path)


# ---------------------------------------------------------------------------
# IDX loader

def test_load_idx_fixture(tmp_path):
    images = np.arange(18, dtype=np.uint8).reshape(2, 3, 3) * 14
    img, lbl = write_idx_pair(tmp_path, images, [3, 7])
    ds = dio.load_idx(img, lbl)
    assert ds.n == 2 and ds.dim == 9
    assert np.array_equal(ds.labels, [3, 7])
    assert np.allclose(ds.features[0], images[0].ravel() / 255.0)


def test_load_idx_full_pixel_is_one(tmp_path):
    images = np.full((1, 2, 2), 255, dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, [0])
    ds = dio.load_idx(img, lbl)
    assert np.all(ds.features == 1.0)


def test_load_idx_bad_magic(tmp_path):
    images = np.zeros((1, 2, 2), dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, [0], image_magic=0x12345678)
    with pytest.raises(dio.DataFormatError, match="magic"):
        dio.load_idx(img, lbl)


def test_load_idx_truncated(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, [0, 1])
    raw = open(img, "rb").read()
    open(img, "wb").write(raw[:-3])
    with pytest.raises(dio.DataFormatError, match="offset"):
        dio.load_idx(img, lbl)


def test_load_idx_truncated_label_header(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    open(lbl, "wb").write(open(lbl, "rb").read()[:6])   # the header is 8 bytes
    with pytest.raises(dio.DataFormatError,
                       match=re.escape(f"{lbl}: truncated label header")):
        dio.load_idx(img, lbl)


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, [0, 1, 2])
    with pytest.raises(dio.DataFormatError, match="labels"):
        dio.load_idx(img, lbl)


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 0)], ids=["no_images", "no_pixels"])
def test_load_idx_empty(tmp_path, shape):
    img, lbl = write_idx_pair(tmp_path, np.zeros(shape, dtype=np.uint8), [0] * shape[0])
    with pytest.raises(dio.DataFormatError, match=re.escape(f"{img}: empty file")):
        dio.load_idx(img, lbl)


# ---------------------------------------------------------------------------
# amat loader

def test_load_amat_fixture(tmp_path):
    path = tmp_path / "rows.amat"
    path.write_text("0.0 0.25 0.5 1.0 2\n1.0 0.75 0.5 0.0 7\n")
    ds = dio.load_amat(str(path))
    assert ds.n == 2 and ds.dim == 4
    assert np.array_equal(ds.labels, [2, 7])
    assert ds.num_classes == 8
    assert np.allclose(ds.features[0], [0.0, 0.25, 0.5, 1.0])


def test_load_amat_all_unlabeled_has_one_class(tmp_path):
    # no label names a class, and the model still needs one, as unlabeled
    # synthetic data has
    path = tmp_path / "unlabeled.amat"
    path.write_text("0.0 0.5 -1\n1.0 0.25 -1\n")
    ds = dio.load_amat(str(path))
    assert ds.num_classes == 1
    assert np.array_equal(ds.labels, [-1, -1])


def test_load_amat_empty(tmp_path):
    path = tmp_path / "empty.amat"
    path.write_text("")
    with pytest.raises(dio.DataFormatError, match="empty"):
        dio.load_amat(str(path))


def test_load_amat_ragged(tmp_path):
    path = tmp_path / "ragged.amat"
    path.write_text("0.0 0.5 1\n0.0 2\n")
    with pytest.raises(dio.DataFormatError, match=":2"):
        dio.load_amat(str(path))


def test_load_amat_non_numeric(tmp_path):
    path = tmp_path / "bad.amat"
    path.write_text("0.0 0.5 1\n0.0 oops 2\n")
    with pytest.raises(dio.DataFormatError, match=":2"):
        dio.load_amat(str(path))


def test_load_amat_float_label_column(tmp_path):
    path = tmp_path / "rows.amat"
    path.write_text("0.5 0.5 7.0\n")
    ds = dio.load_amat(str(path))
    assert ds.labels[0] == 7


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "2.5", "1e19", "-1e19", "1e300"])
def test_load_amat_rejects_a_label_that_is_not_an_integer(tmp_path, token):
    # int() alone raises OverflowError on inf and ValueError on nan, and
    # truncates 2.5 to class 2; 1e19 and 1e300 are integers that overflow
    # the int64 label array
    path = tmp_path / "rows.amat"
    path.write_text(f"0.5 0.5 1\n0.25 0.75 {token}\n")
    with pytest.raises(dio.DataFormatError,
                       match=re.escape(f"{path}:2: label {token!r}")):
        dio.load_amat(str(path))


@pytest.mark.parametrize("kind, token", [
    ("bernoulli", "nan"), ("bernoulli", "inf"), ("gaussian", "nan"),
    ("gaussian", "inf"), ("gaussian", "-inf")])
def test_load_amat_rejects_non_finite_features(tmp_path, kind, token):
    # float() parses these tokens: a nan pixel would load as Bernoulli data
    # and be drawn as 0 every epoch, and a Gaussian nan or inf would fail
    # only later, in the first network pass
    path = tmp_path / "rows.amat"
    path.write_text(f"0.5 0.5 1\n0.25 {token} 0\n")
    with pytest.raises(dio.DataFormatError,
                       match=re.escape(str(path)) + ".*finite"):
        dio.load_amat(str(path), kind=kind)


# ---------------------------------------------------------------------------
# binarization

def test_binarize_endpoints_are_deterministic():
    rng = np.random.default_rng(0)
    feats = np.array([[0.0, 1.0]] * 100)
    out = dio.binarize_epoch(feats, rng)
    assert np.all(out[:, 0] == 0.0)
    assert np.all(out[:, 1] == 1.0)


def test_binarize_mean_matches_probability():
    rng = np.random.default_rng(1)
    feats = np.full((100_000, 1), 0.5)
    out = dio.binarize_epoch(feats, rng)
    assert 0.49 <= out.mean() <= 0.51


def test_binarize_fresh_draw_each_call():
    rng = np.random.default_rng(2)
    feats = np.full((50, 4), 0.5)
    a = dio.binarize_epoch(feats, rng)
    b = dio.binarize_epoch(feats, rng)
    assert not np.array_equal(a, b)


def test_binarize_output_is_binary():
    rng = np.random.default_rng(3)
    out = dio.binarize_epoch(rng.random((200, 5)), rng)
    assert set(np.unique(out)) <= {0.0, 1.0}


def test_binarize_rejects_out_of_range():
    with pytest.raises(ValueError):
        dio.binarize_epoch(np.array([[1.5]]), np.random.default_rng(0))


def test_binarize_rejects_nan():
    # a nan compares false both ways, so a range check by comparisons alone
    # let it through, and it was drawn as 0 every epoch
    with pytest.raises(ValueError):
        dio.binarize_epoch(np.array([[0.5, np.nan]]), np.random.default_rng(0))


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5000, 30), (300, 784),
                                   (5, 40000), (2, 70000)])
def test_binarize_matches_one_draw_bit_for_bit(shape):
    # the uniforms are drawn in row chunks (1 to 83 rows of these widths, or
    # one row wider than a chunk), which is the stream of one
    # rng.random(shape) call: the same pixels, as bool, and the generator
    # left where that call leaves it
    feats = np.random.default_rng(7).random(shape)
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    out = dio.binarize_epoch(feats, rng)
    assert out.dtype == np.bool_ and out.shape == shape
    assert np.array_equal(out, ref.random(shape) < feats)
    assert rng.random(4).tobytes() == ref.random(4).tobytes()


# ---------------------------------------------------------------------------
# stratified split

def test_split_one_percent_balanced():
    labels = np.repeat(np.arange(10), 100)   # N=1000, balanced
    lab = dio.stratified_label_split(labels, 0.01, np.random.default_rng(4))
    assert lab.size == 10
    for c in range(10):
        assert np.sum(labels[lab] == c) == 1


def test_split_floors_at_one_per_class():
    labels = np.repeat(np.arange(5), 20)     # 0.1% of 20 rounds to 0
    lab = dio.stratified_label_split(labels, 0.001, np.random.default_rng(5))
    assert lab.size == 5


def test_split_disjoint_exhaustive():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 4, size=507)
    lab = dio.stratified_label_split(labels, 0.1, rng)
    assert lab.dtype.kind == "i" and np.all(np.diff(lab) > 0)
    assert 0 <= lab[0] and lab[-1] < 507


def test_split_missing_class_rejected():
    labels = np.array([0, 0, 2, 2])          # class 1 absent
    with pytest.raises(dio.DataFormatError, match="class 1 has no examples"):
        dio.stratified_label_split(labels, 0.5, np.random.default_rng(7))


def test_split_deterministic_and_seed_sensitive():
    labels = np.repeat(np.arange(3), 50)
    a = dio.stratified_label_split(labels, 0.1, np.random.default_rng(8))
    b = dio.stratified_label_split(labels, 0.1, np.random.default_rng(8))
    c = dio.stratified_label_split(labels, 0.1, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_apply_split_masks_labels():
    ds = dio.Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2, "bernoulli")
    out = dio.apply_split(ds, np.array([1, 3]))
    assert np.array_equal(out.labels, [-1, 1, -1, 1])


# ---------------------------------------------------------------------------
# synthetic generators

def test_synth_ibp_single_feature_two_patterns():
    synth = dio.synth_ibp_data(200, 1, 8, 0.0, np.random.default_rng(10))
    patterns = np.unique(np.round(synth.mean_probs, 9), axis=0)
    assert patterns.shape[0] == 2


def test_synth_ibp_reproducible():
    a = dio.synth_ibp_data(50, 3, 10, 0.05, np.random.default_rng(11))
    b = dio.synth_ibp_data(50, 3, 10, 0.05, np.random.default_rng(11))
    assert np.array_equal(a.dataset.features, b.dataset.features)
    assert np.array_equal(a.ownership, b.ownership)


def test_synth_ibp_binary_features_and_shapes():
    synth = dio.synth_ibp_data(40, 4, 12, 0.02, np.random.default_rng(12))
    assert synth.dataset.features.shape == (40, 12)
    assert synth.ownership.shape == (40, 4)
    assert set(np.unique(synth.dataset.features)) <= {0.0, 1.0}
    assert np.all(synth.dataset.labels == -1)


def test_synth_ibp_rejects_too_many_features():
    with pytest.raises(ValueError):
        dio.synth_ibp_data(10, 5, 4, 0.0, np.random.default_rng(13))


def test_synth_blobs_shapes_and_kind():
    ds = dio.synth_blobs(300, 3, 7, 4.0, np.random.default_rng(14))
    assert ds.features.shape == (300, 7)
    assert ds.kind == "gaussian"
    assert set(np.unique(ds.labels)) <= {0, 1, 2}


# ---------------------------------------------------------------------------
# dataset invariants

def test_dataset_validates_labels():
    with pytest.raises(ValueError):
        dio.Dataset(np.zeros((2, 2)), np.array([0, 5]), 2, "bernoulli")
    with pytest.raises(ValueError):
        dio.Dataset(np.zeros((2, 2)), np.array([-2, 0]), 2, "bernoulli")


def test_dataset_validates_bernoulli_range():
    with pytest.raises(ValueError):
        dio.Dataset(np.full((2, 2), 1.7), np.zeros(2, dtype=int), 1, "bernoulli")
    dio.Dataset(np.full((2, 2), 1.7), np.zeros(2, dtype=int), 1, "gaussian")


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(kind, bad):
    feats = np.full((2, 3), 0.5)
    feats[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        dio.Dataset(feats, np.zeros(2, dtype=int), 1, kind)
