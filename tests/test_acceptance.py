"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria and tolerances are pinned here; nothing is deferred to later
calibration.  Criteria 1-4 run `ibpdgm.selftest`'s suites and toy
estimates at their own seeds and sizes, so the checks that `ibpdgm
selftest` runs are the ones gated here; each criterion pins the
tolerance constants its suite uses, or applies its own bound to the
statistics it gets back.  Criterion 8 needs real MNIST IDX files
(IBPDGM_MNIST_DIR) and skips otherwise; it is the spec-marked
slow/optional one.
"""

import hashlib
import os
import time

import numpy as np
import pytest
import scipy.integrate

from ibpdgm import bbvi, distributions as dist, ibp, selftest, training

from oracles import zero_control_variates
from test_bits import on_recorded_platform


def report(criterion, detail):
    print(f"\nPASS criterion-{criterion}: {detail}")


def assert_rows_pass(checks):
    failing = [f"{name}: {detail}" for name, passed, detail in checks if not passed]
    assert not failing, "failing rows: " + "; ".join(failing)


# ---------------------------------------------------------------------------
# criterion 1: gradient-check suite, rel err < 1e-4, < 1 minute

def test_criterion_1_gradient_checks():
    assert selftest.FD_REL_TOL == 1e-4
    start = time.time()
    checks = selftest.fd_suite(seed=101)
    elapsed = time.time() - start
    assert_rows_pass(checks)
    assert elapsed < 60.0
    report(1, ", ".join(f"{name} {detail}" for name, _, detail in checks)
           + f" in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: normalization suite, < 1 minute

def test_criterion_2_normalization():
    assert (selftest.NORM_ENUM_TOL, selftest.NORM_QUAD_TOL, selftest.KL_SEMS) \
        == (1e-9, 1e-6, 3.0)
    start = time.time()
    checks = selftest.normalization_suite(seed=201)
    assert_rows_pass(checks)

    # Beta density integrates to 1 within 1e-6 by scipy's adaptive
    # quadrature too, an oracle independent of the library
    for a, b in [(1.0, 1.0), (2.5, 1.3), (4.0, 6.0), (1.2, 0.9)]:
        integral, _ = scipy.integrate.quad(
            lambda v: np.exp(dist.beta_log_prob(np.log(v), np.log1p(-v), a, b)), 0.0, 1.0)
        assert abs(integral - 1.0) < 1e-6

    elapsed = time.time() - start
    assert elapsed < 60.0
    report(2, f"enumeration/quadrature/MC all normalized in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: estimator unbiasedness on the enumerable toy, < 5 minutes

def test_criterion_3_estimator_unbiasedness(monkeypatch):
    start = time.time()
    reps = 200
    worst_z = 0.0
    # both estimators: plain (every control-variate coefficient 0), and
    # with the leave-one-out control variates
    for cv in (False, True):
        with monkeypatch.context() as patch:
            if not cv:
                patch.setattr(bbvi, "control_variate_coeffs", zero_control_variates)
            stats = selftest.toy_estimates(7, [0.7, 0.5], reps, 30_000)
        elbo = stats.pop("elbo")
        assert abs(elbo.mean - elbo.exact) < 3 * elbo.sem
        for name, st in stats.items():
            # absolute floor 1e-7 covers deterministic coordinates whose SEM
            # is ~1e-16 while the FD oracle itself carries ~1e-9 noise
            assert st.within(3.0, 1e-7), (name, cv)
            worst_z = max(worst_z, st.max_z())

    elapsed = time.time() - start
    assert elapsed < 300.0
    report(3, f"{reps} estimates with and without CVs, every parameter within 3 SEM "
              f"(stochastic max |z| {worst_z:.2f}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: control-variate effectiveness, < 2 minutes

def test_criterion_4_control_variates():
    assert selftest.CV_COEFF_TOL == 0.1
    start = time.time()
    # a designed correlated toy (3000 trials of S = 10), whose variance the
    # coefficients must strictly lower, and an independent toy at S = 1e4
    checks = selftest.variance_reduction_suite(trials=3000, num_samples=10, seed=401)
    elapsed = time.time() - start
    assert_rows_pass(checks)
    assert elapsed < 120.0
    report(4, ", ".join(f"{name} {detail}" for name, _, detail in checks)
           + f" in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: stick-breaking prior moments, < 30 seconds

def test_criterion_5_stick_prior_moments():
    start = time.time()
    rng = np.random.default_rng(501)
    alpha, k, n = 2.0, 5, 100_000
    log_v = ibp.sticks_prior_sample(alpha, (n, k), rng)
    pi = np.exp(np.cumsum(log_v, axis=1))
    expected = (alpha / (alpha + 1.0)) ** np.arange(1, k + 1)
    sem = pi.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(pi.mean(axis=0) - expected) < 3 * sem)
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(5, f"E[pi_k] within 3 SEM of (a/(a+1))^k for K={k} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 6 and 9: training dynamics + pruning, and bit-exact determinism

CRITERION_6_CONFIG = dict(
    dataset="synth-ibp", synth_n=2000, synth_test_n=200, synth_features=4,
    synth_dim=30, synth_noise=0.0, truncation=16, hidden=64,
    alpha=1.0, sigma_theta_sq=0.1, lr=3e-3, mc_samples=32,
    eval_mc_samples=2, epochs=300, batch_size=25, seed=123,
)


def _windowed(values, window):
    kernel = np.ones(window) / window
    return np.convolve(values, kernel, mode="valid")


@pytest.mark.slow
def test_criterion_6_training_dynamics(tmp_path):
    start = time.time()
    cfg = training.RunConfig(out=str(tmp_path / "c6"), **CRITERION_6_CONFIG)
    result = training.train(cfg)

    elbo = np.array([row[1] for row in result.history])
    smoothed = _windowed(elbo, max(3, cfg.epochs // 10))
    final_third = smoothed[-len(smoothed) // 3:]
    assert np.all(np.diff(final_third) >= -1e-9), "ELBO not non-decreasing"

    n_active = int(result.history[-1][-1])
    assert 3 <= n_active <= 8, f"active count {n_active} outside [3, 8]"

    elapsed = time.time() - start
    assert elapsed < 900.0
    report(6, f"windowed ELBO non-decreasing, {n_active} active components "
              f"in {elapsed:.1f}s")


CRITERION_9_SHA256 = "f18954f6ae9343786eb66a8567be6f940c531dd8a578c7c6d068a9793817b4bd"


@pytest.mark.slow
def test_criterion_9_bit_exact_determinism(tmp_path):
    start = time.time()
    short = dict(CRITERION_6_CONFIG, epochs=8)
    a = training.train(training.RunConfig(out=str(tmp_path / "a"), **short))
    b = training.train(training.RunConfig(out=str(tmp_path / "b"), **short))
    bytes_a = open(a.metrics_path, "rb").read()
    bytes_b = open(b.metrics_path, "rb").read()
    assert bytes_a == bytes_b
    sha256 = hashlib.sha256(bytes_a).hexdigest()
    if on_recorded_platform():   # the bits of `test_bits`' recorded platform
        assert sha256 == CRITERION_9_SHA256
    elapsed = time.time() - start
    report(9, f"two runs, metrics files byte-identical in {elapsed:.1f}s, "
              f"sha256 {sha256}")


# ---------------------------------------------------------------------------
# criterion 7: semi-supervised synthetic blobs, test error < 5%

@pytest.mark.slow
def test_criterion_7_semi_supervised_blobs(tmp_path):
    start = time.time()
    cfg = training.RunConfig(
        dataset="synth-blobs", synth_n=5000, synth_test_n=1000, synth_dim=20,
        likelihood="gaussian", labeled_fraction=0.01,
        truncation=8, hidden=64, alpha=1.0, sigma_theta_sq=0.1,
        lr=1e-3, mc_samples=8, eval_mc_samples=2, alpha_sup=100.0,
        unlabeled_mode="marginalize", epochs=25, batch_size=100,
        seed=5, out=str(tmp_path / "c7"))
    result = training.train(cfg)
    test_err = float(result.history[-1][8])
    assert test_err < 5.0, f"test error {test_err:.2f}% >= 5%"
    elapsed = time.time() - start
    assert elapsed < 900.0
    report(7, f"test error {test_err:.2f}% in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: desk-scale MNIST (slow/optional; needs IBPDGM_MNIST_DIR)

MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def _mnist_dir():
    d = os.environ.get("IBPDGM_MNIST_DIR", "")
    if d and all(os.path.exists(os.path.join(d, f)) for f in MNIST_FILES):
        return d
    return None


@pytest.mark.skipif(_mnist_dir() is None,
                    reason="MNIST IDX files not available "
                           "(set IBPDGM_MNIST_DIR); slow/optional criterion")
def test_criterion_8_mnist_subset(tmp_path):
    start = time.time()
    d = _mnist_dir()
    cfg = training.RunConfig(
        dataset="idx",
        images=os.path.join(d, MNIST_FILES[0]),
        labels=os.path.join(d, MNIST_FILES[1]),
        test_images=os.path.join(d, MNIST_FILES[2]),
        test_labels=os.path.join(d, MNIST_FILES[3]),
        limit_train=20_000, truncation=50, hidden=500,
        alpha=1.0, sigma_theta_sq=1e-2, labeled_fraction=0.01,
        lr=3e-4, mc_samples=4, eval_mc_samples=2, alpha_sup=100.0,
        epochs=30, batch_size=100, seed=0, out=str(tmp_path / "c8"))
    result = training.train(cfg)
    last = result.history[-1]
    test_err, n_active = float(last[8]), int(last[9])
    assert np.isfinite(test_err)
    assert test_err <= 15.0, f"test error {test_err:.2f}% > 15%"
    assert 5 <= n_active <= 25, f"active count {n_active} outside [5, 25]"
    elapsed = time.time() - start
    report(8, f"test error {test_err:.2f}%, {n_active} active in {elapsed:.0f}s")
