"""Peak memory of the passes that set the program's high-water mark at the
MNIST shape (D=784, C=10, K=50, H=500), as tracemalloc counts it: numpy
reports its array buffers to tracemalloc, so the traced peak is the most
array memory live at once, whatever the allocator does with freed memory.

Each bound sits between the peak of the code that held a second copy of
an array (a ReLU output beside its pre-activation, a float64 draw array
beside float64 binarized pixels, the tapes of a forward-only estimate,
the previous step's gradients) and the peak of the code that holds each
array once.  The numbers in the comments were taken with numpy 2.4 on
Python 3.11.
"""

import tracemalloc

import numpy as np
import pytest

from ibpdgm import bbvi, data as dio, model as mdl, nn, training

MB = 2 ** 20


def traced_peak(fn, *args, **kwargs):
    """(fn's result, the most traced memory live at once during the call
    beyond what was live before it, in MB)."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak / MB


def mnist_shape_model(seed):
    return mdl.build_model(784, 10, 50, 500, "bernoulli", 1.0, 1e-2,
                           np.random.default_rng(seed))


def forward_only_estimate_peak(pixel_dtype):
    """(ELBO, traced peak in MB) of the forward-only estimate of the
    per-epoch metrics pass of perfbench's mnist-train: 2000 points, 1%
    labeled, two draws each, with the pixels in `pixel_dtype`."""
    rng = np.random.default_rng(0)
    m = mnist_shape_model(0)
    x = (rng.random((2000, 784)) < 0.3).astype(pixel_dtype)
    labels = np.full(2000, -1)
    labels[:20] = rng.integers(10, size=20)
    bd, peak = traced_peak(
        bbvi.estimate_elbo_and_grads, m, x, labels, 2, np.random.default_rng(1),
        dataset_size=2000, alpha_sup=100.0, with_grads=False, dtype=nn.FAST_DTYPE)
    return bd.total, peak


def test_forward_only_estimate_at_the_mnist_shape():
    # 118.6 MB when it kept the tapes, the ReLU pre-activations and each
    # decoder block's output into the next block's pass, 44.6 MB now
    total, peak = forward_only_estimate_peak(np.float64)
    assert np.isfinite(total)
    assert peak <= 64.0, f"forward-only estimate peaked at {peak:.1f} MB"


def test_forward_only_estimate_frees_its_float64_batch():
    # the metrics pass hands the estimate bool pixels; their float64 copy
    # (12.5 MB) is freed with the heads' tapes, and each decoder block
    # casts its rows from the bool array.  So bool pixels peak no higher
    # than float64 ones, which need no copy, and give the same ELBO:
    # 58.1 MB against 46.1 MB when the copy stayed live through the
    # decoder loop, 44.6 MB for both now
    total64, peak64 = forward_only_estimate_peak(np.float64)
    total_bool, peak_bool = forward_only_estimate_peak(bool)
    assert total_bool == total64
    assert peak_bool <= peak64 + 1.0, \
        f"bool pixels peaked at {peak_bool:.1f} MB, float64 at {peak64:.1f} MB"


def test_training_step_at_b100(tmp_path, monkeypatch):
    # every array live during a training step's estimate at B=100, S=4:
    # the parameters and Adam's moments (31 MB), the epoch's pixels and
    # the estimate's own arrays.  101.6 MB when the previous step's
    # gradients and the ReLU pre-activations stayed live, 82.1 MB now
    rng = np.random.default_rng(3)
    n = 300
    ds = dio.Dataset(rng.random((n, 784)), rng.integers(10, size=n), 10, "bernoulli")
    cfg = training.RunConfig(
        truncation=50, hidden=500, alpha=1.0, lr=3e-4, sigma_theta_sq=1e-2,
        mc_samples=4, eval_mc_samples=1, labeled_fraction=0.01, alpha_sup=100.0,
        epochs=1, batch_size=100, seed=3, out=str(tmp_path / "run"))
    peaks = []
    estimate = bbvi.estimate_elbo_and_grads

    def traced_step(*args, **kwargs):
        tracemalloc.reset_peak()
        breakdown = estimate(*args, **kwargs)
        if kwargs.get("with_grads", True):
            peaks.append(tracemalloc.get_traced_memory()[1] / MB)
        return breakdown

    monkeypatch.setattr(bbvi, "estimate_elbo_and_grads", traced_step)
    traced_peak(training.train, cfg, ds, None)
    assert len(peaks) == 3
    assert max(peaks) <= 90.0, f"training steps peaked at {peaks} MB"


def test_binarize_epoch_holds_its_output_and_one_chunk():
    # 13.5 MB with an n x D float64 draw array and float64 pixels; now the
    # bool pixels (1.5 MB) and one chunk of float64 uniforms (0.5 MB)
    feats = np.random.default_rng(4).random((2000, 784))
    out, peak = traced_peak(dio.binarize_epoch, feats, np.random.default_rng(5))
    chunk_mb = 8 * 2 ** 16 / MB
    assert peak <= out.nbytes / MB + 2 * chunk_mb, \
        f"binarize_epoch peaked at {peak:.2f} MB"
