"""Pinned training bits: a last-bit drift in the estimator or the synthetic
data fails here, not only in a printed sha256.

One sha256 covers every term (as `float.hex`) and every gradient of three
estimator calls and the bytes of both synthetic sets of
`training.load_datasets`.  Floating-point results depend on the numpy
build, its BLAS and the CPU's vector units, so the stored digest is
compared only on the platform it was recorded on; elsewhere the test
skips and prints the digest it observed, which a maintainer records
along with that platform.
"""

import hashlib
import platform

import numpy as np
import pytest

from ibpdgm import bbvi, model as mdl, nn, training

RECORDED_PLATFORM = ("2.4.6", "scipy-openblas 0.3.31.188.0", "x86_64",
                     "Intel(R) Xeon(R) Processor")
RECORDED_SHA256 = "a4d553bc9c5e0c456f4ac39ba423cb8711347178ea2555118b4dde55ce639b88"

TERMS = ("total", "recon", "kl_gauss", "term_zhat", "term_v", "term_y")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def this_platform():
    """(numpy version, "BLAS name version", machine, CPU model name)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (np.__version__, f"{blas.get('name')} {blas.get('version')}",
            platform.machine(), _cpu_model())


def on_recorded_platform():
    return this_platform() == RECORDED_PLATFORM


def _estimator_calls():
    """The criterion-6 shape in float32 at prior weight 0.3, with and without
    gradients, and a 3-class Gaussian batch with mixed labels in float64."""
    rng = np.random.default_rng(3801)
    c6 = mdl.build_model(30, 1, 16, 64, "bernoulli", 1.0, 0.1, rng)
    x = (rng.random((25, 30)) < 0.5).astype(np.float64)
    for with_grads in (True, False):
        yield bbvi.estimate_elbo_and_grads(
            c6, x, np.full(25, -1), 32, np.random.default_rng(3802),
            dataset_size=2000, prior_weight=0.3, with_grads=with_grads,
            dtype=nn.FAST_DTYPE)
    gauss = mdl.build_model(20, 3, 6, 16, "gaussian", 2.0, 0.1, rng)
    labels = np.array([0, -1, 2, -1, -1, 1, -1, 0])
    yield bbvi.estimate_elbo_and_grads(
        gauss, rng.standard_normal((8, 20)), labels, 4,
        np.random.default_rng(3803), dataset_size=80, alpha_sup=0.7)


def training_bits_sha256():
    h = hashlib.sha256()
    for bd in _estimator_calls():
        h.update(",".join(getattr(bd, name).hex() for name in TERMS).encode())
        for name in sorted(bd.grads):
            h.update(name.encode() + bd.grads[name].tobytes())
    for dataset in ("synth-ibp", "synth-blobs"):
        cfg = training.RunConfig(dataset=dataset, synth_n=300, synth_test_n=50)
        for part in training.load_datasets(cfg, np.random.default_rng(3804)):
            h.update(part.features.tobytes() + part.labels.tobytes())
    return h.hexdigest()


def test_training_bits_match_the_recorded_sha256():
    observed = training_bits_sha256()
    print(f"\ntraining bits sha256 {observed} on {this_platform()}")
    if not on_recorded_platform():
        pytest.skip(f"digest recorded on {RECORDED_PLATFORM}; "
                    f"observed {observed} on {this_platform()}")
    assert observed == RECORDED_SHA256
