"""The malloc policy that importing ibpdgm sets (`ibpdgm._heap`)."""

import os
import platform
import subprocess
import sys
import textwrap
import types

import pytest

import ibpdgm
from ibpdgm import _heap

# the per-epoch metrics pass at perfbench's c6-train shape: all 2000
# points, unlabeled, D=30, C=1, K=16, H=64, two draws each, decoder in
# float32; prints the minor faults of the second of two calls
METRICS_PASS_FAULTS = textwrap.dedent("""
    import resource
    import numpy as np
    import ibpdgm
    from ibpdgm import bbvi, model as mdl, nn

    rng = np.random.default_rng(7)
    m = mdl.build_model(30, 1, 16, 64, "bernoulli", 1.0, 0.1, rng)
    x = (rng.random((2000, 30)) < 0.3).astype(float)
    labels = np.full(2000, -1)

    def metrics_pass():
        bbvi.estimate_elbo_and_grads(
            m, x, labels, 2, np.random.default_rng(3), dataset_size=2000,
            with_grads=False, dtype=nn.FAST_DTYPE)

    metrics_pass()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    metrics_pass()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
def test_repeated_metrics_pass_reuses_the_heap():
    # in a fresh interpreter, so no earlier test shapes the heap; without
    # the policy the second pass faults about 3.5k pages back in
    src = os.path.dirname(os.path.dirname(os.path.abspath(ibpdgm.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", METRICS_PASS_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 300


class FakeMallopt:
    def __init__(self, refused=()):
        self.refused = refused
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 0 if param in self.refused else 1


def test_libc_without_mallopt_is_left_alone():
    libc = types.SimpleNamespace()
    assert _heap.keep_freed_heap(libc) is False
    assert vars(libc) == {}


def test_both_thresholds_or_neither():
    mallopt = FakeMallopt()
    assert _heap.keep_freed_heap(types.SimpleNamespace(mallopt=mallopt))
    assert mallopt.calls == [(_heap.M_MMAP_THRESHOLD, _heap.MMAP_THRESHOLD),
                             (_heap.M_TRIM_THRESHOLD, _heap.TRIM_THRESHOLD)]
    # a refused mmap threshold leaves glibc's dynamic thresholds on
    mallopt = FakeMallopt(refused=(_heap.M_MMAP_THRESHOLD,))
    assert not _heap.keep_freed_heap(types.SimpleNamespace(mallopt=mallopt))
    assert mallopt.calls == [(_heap.M_MMAP_THRESHOLD, _heap.MMAP_THRESHOLD)]
