"""Workloads, measurement, output checks and metrics of the ibpdgm benchmark.

Every workload is a closed loop with a single caller in one process.  Its
inputs are generated from the seed before any timing starts and handed to
the program as `Dataset`s.  Each workload trains through `training.train`,
then loads the checkpoint that training wrote with `model.load_checkpoint`
and serves it through `training.error_rate`, `training.component_report`
and `model.generate`: the calls behind the CLI's train, eval, report and
gen commands.  The workloads differ in shape and in which phase dominates,
so every end-to-end metric exists on every workload.  Every end-to-end
time is corrected for the speed of the shared CPU core at the moment it
was taken (see `tracing.speed_probe`).

The MNIST-shaped workload uses synthetic grey-level images; no MNIST
numbers are claimed here and the real 20k-image run (acceptance criterion
8) stays skipped on machines without the MNIST files.
"""

import math
import os
import platform
import resource
import shutil
import tempfile
from dataclasses import asdict, dataclass
from statistics import median

import numpy as np

from ibpdgm import bbvi, training
from ibpdgm import data as dio
from ibpdgm import distributions as dist
from ibpdgm import ibp
from ibpdgm import model as mdl
from ibpdgm import nn

from tracing import (FirstCall, StepClock, Tracer, clock, patched, speed_probe,
                     stop_at_first_call)

TAU = 0.01           # component-report threshold, the RunConfig default
SETUP_REPS = 25      # aborted set-up runs per benchmark run
SERVE_REPS = 40      # inference and generate calls per serving burst
# Every end-to-end time is divided by the CPU's slowdown when it was taken:
# the median of the speed probes (tracing.speed_probe) run before the timed
# calls within PROBE_WINDOW places of it, over PROBE_REF_S.  PROBE_REF_S is
# the probe's time between c6-train's calls on an uncontended core of the
# reference machine (Intel Xeon at 2.0 GHz, Python 3.11), where corrected
# times read as times on that core.  After mnist-train's larger calls the
# probe runs about twice as long, so there corrected times are about half
# the wall times; they compare between runs and commits, not with a clock.
PROBE_REF_S = 2.2e-4
PROBE_WINDOW = 4
TRACE_REPS = 3       # inference and generate calls in a traced run
# Fixes the synth-ibp feature dictionary and the image class prototypes, so
# every seed poses the same problem and draws only its own points: the
# final ELBO then varies with the draw, not with how hard the problem is.
STRUCTURE_SEED = 1402
METRICS_CAP = 4000   # points the per-epoch metrics use (training._epoch_metrics)
ESTIMATOR = "bbvi.estimate_elbo_and_grads"
SYNTHETIC_NOTE = ("The MNIST-shaped workload uses synthetic 10-class grey-level "
                  "images generated from the seed; no MNIST numbers are "
                  "claimed, and acceptance criterion 8 (real MNIST) is "
                  "skipped where the MNIST files are absent.")

# name -> (unit, better); the bounds live in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p90": ("ms", "lower"),
    "train_points_per_s": ("points/s", "higher"),
    "epoch_s": ("s", "lower"),
    "epoch_metrics_s": ("s", "lower"),
    "final_neg_elbo_per_point": ("nats", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "infer_points_per_s": ("points/s", "higher"),
    "gen_samples_per_s": ("samples/s", "higher"),
}

NETS = ("encoder", "classifier", "decoder")
PER_LAYER = {}
for _kind in ("forward", "backward"):
    for _net in NETS:
        PER_LAYER[f"nn.{_kind}.{_net}.s"] = ("s", "lower")
PER_LAYER.update({
    "nn.forward.infer.s": ("s", "lower"),
    "nn.adam_step.s": ("s", "lower"),
    "nn.encoder.rows": ("count", "lower"),
    "nn.classifier.rows": ("count", "lower"),
    "nn.decoder.rows": ("count", "lower"),
    "nn.encoder.gflop": ("GFLOP", "lower"),
    "nn.classifier.gflop": ("GFLOP", "lower"),
    "nn.decoder.gflop": ("GFLOP", "lower"),
    "nn.gflops_achieved": ("GFLOP/s", "higher"),
    "distributions.sigmoid.s": ("s", "lower"),
    "distributions.softplus.s": ("s", "lower"),
    "distributions.elementwise.elems": ("count", "lower"),
    "distributions.beta_sample_array.s": ("s", "lower"),
    "distributions.beta_draws": ("count", "lower"),
    "distributions.digamma.s": ("s", "lower"),
    "ibp.ibp_prior_log_prob_from_sticks.s": ("s", "lower"),
    "ibp.sticks_prior_log_prob.s": ("s", "lower"),
    "ibp.GlobalSticks.score_grads.s": ("s", "lower"),
    "ibp.GlobalSticks.log_prob.s": ("s", "lower"),
    "ibp.log_zero_events": ("count", "lower"),
    "ibp.active_components.s": ("s", "lower"),
    "bbvi.estimate_elbo_and_grads.s": ("s", "lower"),
    "bbvi.estimate.self_s": ("s", "lower"),
    "bbvi.control_variate_coeffs.s": ("s", "lower"),
    "bbvi.clip_global_norm.s": ("s", "lower"),
    "bbvi.clip_fired_frac": ("fraction", "lower"),
    "bbvi.clip_calls": ("count", "lower"),
    "bbvi.step_other.s": ("s", "lower"),
    "model.theta_log_prior.s": ("s", "lower"),
    "model.save_checkpoint.s": ("s", "lower"),
    "model.load_checkpoint.s": ("s", "lower"),
    "model.checkpoint_bytes": ("bytes", "lower"),
    "model.predict_batch.s": ("s", "lower"),
    "model.generate.s": ("s", "lower"),
    "model.decode.calls": ("count", "lower"),
    "training.epoch_metrics.elbo.s": ("s", "lower"),
    "training.error_rate.s": ("s", "lower"),
    "training.component_report.s": ("s", "lower"),
    "training.inclusion_probs.s": ("s", "lower"),
    "data.binarize_epoch.s": ("s", "lower"),
    "trace.step_ms_p50": ("ms", "lower"),
    "trace.untraced_step_ms_p50": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.step_covered_frac": ("fraction", "higher"),
    "trace.estimate_covered_frac": ("fraction", "higher"),
    "trace.steps": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "bytes.step_max_temp_mb": ("MB", "lower"),
    "bytes.eval_max_temp_mb": ("MB", "lower"),
    "ops_failed_frac": ("fraction", "lower"),
})


@dataclass(frozen=True)
class Workload:
    name: str
    data: str              # "synth-ibp" or "mnist-like"
    n: int                 # points; training and the inference calls use all
    d: int
    c: int
    k: int
    h: int
    b: int
    s: int
    eval_s: int
    alpha: float
    lr: float
    sigma_theta_sq: float
    labeled_fraction: float  # 0: every training point unlabeled
    alpha_sup: float
    epochs: int            # per training call
    gen_n: int             # samples per model.generate call


WORKLOADS = {w.name: w for w in (
    # criterion-6 config: overhead- and score-function-bound
    Workload("c6-train", "synth-ibp", n=2000, d=30, c=1, k=16, h=64, b=25,
             s=32, eval_s=2, alpha=1.0, lr=3e-3, sigma_theta_sq=0.1,
             labeled_fraction=0.0, alpha_sup=0.0, epochs=2, gen_n=100),
    # criterion-8 hyperparameters on synthetic images: matmul-bound
    Workload("mnist-train", "mnist-like", n=2000, d=784, c=10, k=50, h=500,
             b=100, s=4, eval_s=2, alpha=1.0, lr=3e-4, sigma_theta_sq=1e-2,
             labeled_fraction=0.01, alpha_sup=100.0, epochs=5, gen_n=100),
)}


# ---------------------------------------------------------------------------
# inputs

def mnist_like(n, d, num_classes, rng):
    """Grey-level images in [0, 1]: fixed per-class blob strokes, with
    per-point ink and noise drawn from rng."""
    side = int(round(math.sqrt(d)))
    if side * side != d:
        raise ValueError("mnist-like data needs a square image size")
    structure = np.random.default_rng(STRUCTURE_SEED)
    yy, xx = np.mgrid[0:side, 0:side]
    protos = np.zeros((num_classes, side, side))
    for c in range(num_classes):
        for _ in range(4):
            cy, cx = structure.uniform(0.2 * side, 0.8 * side, 2)
            sy, sx = structure.uniform(0.05 * side, 0.15 * side, 2)
            protos[c] += np.exp(-0.5 * (((yy - cy) / sy) ** 2 + ((xx - cx) / sx) ** 2))
    protos = np.clip(protos, 0.0, 1.0).reshape(num_classes, d)
    labels = rng.permutation(np.arange(n) % num_classes)
    ink = rng.uniform(0.6, 1.0, (n, 1))
    feats = np.clip(protos[labels] * ink + 0.08 * rng.standard_normal((n, d)), 0.0, 1.0)
    return dio.Dataset(feats, labels, num_classes, "bernoulli")


def make_inputs(w, seed):
    """(training set, evaluation set), both from the seed alone.

    The evaluation set is every generated point with its label, as `eval`
    and `report` would see a labeled file; training sees the same points,
    labeled only if the workload has labels.
    """
    rng = np.random.default_rng(seed)
    if w.data == "synth-ibp":
        # the seed picks the points from a pool drawn with one dictionary
        pool = dio.synth_ibp_data(10 * w.n, 4, w.d, 0.0,
                                  np.random.default_rng(STRUCTURE_SEED)).dataset
        full = pool.subset(rng.choice(pool.n, w.n, replace=False))
        # one class: the labeled copy marks every point as class 0
        evaluation = dio.Dataset(full.features, np.zeros(w.n, dtype=np.int64),
                                 1, full.kind)
    else:
        full = evaluation = mnist_like(w.n, w.d, w.c, rng)
    train = full
    if w.labeled_fraction == 0.0:
        train = dio.Dataset(full.features, np.full(w.n, -1), full.num_classes, full.kind)
    return train, evaluation


def run_config(w, seed, out):
    # the datasets are passed to train() directly, so no data keys are set;
    # labeled_fraction only matters when the training set has labels
    return training.RunConfig(
        truncation=w.k, hidden=w.h, alpha=w.alpha, lr=w.lr,
        sigma_theta_sq=w.sigma_theta_sq, mc_samples=w.s, eval_mc_samples=w.eval_s,
        labeled_fraction=w.labeled_fraction or 0.01, alpha_sup=w.alpha_sup,
        unlabeled_mode="marginalize", epochs=w.epochs, batch_size=w.b,
        seed=seed, tau=TAU, out=out)


def steps_per_epoch(w):
    return -(-w.n // w.b)


# ---------------------------------------------------------------------------
# failure accounting

class Outcome:
    """Operations attempted and failed; a failure is a NumericError, a
    non-finite metrics row or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def check(self, ok, message):
        if not ok:
            self.fail(message)


# ---------------------------------------------------------------------------
# training trials

@dataclass
class Trial:
    start: float         # clock read just before the training.train call
    calls: list          # (entry, exit) of every estimator call
    epoch_ends: list     # clock reads at the log callbacks
    history: list        # metrics rows, [] when training failed
    probes: list         # speed probe (s) before each estimator call, if any
    model: object = None
    checkpoint: str = ""


def run_trial(w, cfg, train_data, recorder, outcome, log=None):
    """One training.train call whose estimator `recorder` has wrapped, checked."""
    result = None
    start = clock()
    try:
        result = training.train(cfg, train_data, None, log=log or recorder.log)
    except bbvi.NumericError as exc:
        outcome.fail(f"NumericError during training: {exc}")
    trial = Trial(start, list(recorder.calls), list(recorder.epoch_ends),
                  result.history if result else [], list(recorder.probes),
                  result.model if result else None,
                  result.checkpoint_path if result else "")
    outcome.attempted += len(trial.calls)  # every step and every epoch row
    if result is not None:
        check_trial(w, trial, outcome)
    return trial


def check_trial(w, trial, outcome):
    per_epoch = steps_per_epoch(w) + 1
    expected = w.epochs * per_epoch
    outcome.check(len(trial.calls) == expected,
                  f"estimator calls {len(trial.calls)} != epochs x "
                  f"(ceil(N/B) + 1) = {expected}: an entry point was bypassed")
    outcome.check(len(trial.epoch_ends) == w.epochs,
                  f"log callbacks {len(trial.epoch_ends)} != epochs {w.epochs}")
    if len(trial.calls) == expected and len(trial.epoch_ends) == w.epochs:
        for e, end in enumerate(trial.epoch_ends):
            metrics_entry = trial.calls[(e + 1) * per_epoch - 1][0]
            nxt = trial.calls[(e + 1) * per_epoch][0] if e + 1 < w.epochs else math.inf
            outcome.check(metrics_entry < end < nxt,
                          f"epoch {e}: metrics call and log callback out of order")
    labeled = w.labeled_fraction > 0
    for row in trial.history:
        values = row[1:7] + [row[9]] + ([row[7]] if labeled else [])
        outcome.check(all(np.isfinite(v) for v in values),
                      f"epoch {row[0]}: non-finite metrics row {row}")
    if len(trial.history) >= 2:
        outcome.check(trial.history[-1][1] > trial.history[0][1],
                      "final ELBO is not above the first epoch's")


def epoch_entries(w, trial):
    """Estimator entry times of each complete epoch: its steps, then the
    per-epoch metrics call."""
    per_epoch = steps_per_epoch(w) + 1
    complete = min(len(trial.epoch_ends), len(trial.calls) // per_epoch)
    return [[c[1] for c in trial.calls[e * per_epoch:(e + 1) * per_epoch]]
            for e in range(complete)]


def slowdown(probes, i):
    """How much slower than the reference the CPU ran around the i-th
    probe: the median of the probes within PROBE_WINDOW of it over
    PROBE_REF_S."""
    near = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
    return float(np.median(near)) / PROBE_REF_S


def corrected(timed):
    """Speed-corrected times of a sequence of (seconds, probe) pairs taken
    one after another."""
    probes = [p for _, p in timed]
    return [t / slowdown(probes, i) for i, (t, _) in enumerate(timed)]


def trial_times(w, trial):
    """Speed-corrected step, per-epoch-metrics and epoch times (s) of the
    complete epochs of a trial run with probes, and the uncorrected step
    times.

    A step runs from its estimator entry to the start of the next estimator
    call, so it covers the estimate, the clip and Adam; the last step of an
    epoch ends where the per-epoch metrics call their estimator.  The
    metrics time runs from that call's entry to the log callback, and an
    epoch from one log callback to the next, less the probes inside it.
    """
    calls, ends, probes = trial.calls, trial.epoch_ends, trial.probes
    per_epoch = steps_per_epoch(w) + 1
    complete = min(len(ends), len(calls) // per_epoch)

    def speed(lo, hi=None):  # slowdown around call lo, or over calls lo..hi
        if hi is None:
            return slowdown(probes, lo)
        return float(np.median(probes[lo:hi + 1])) / PROBE_REF_S

    steps, raw_steps, metrics_s, epochs = [], [], [], []
    for e in range(complete):
        first, last = e * per_epoch, (e + 1) * per_epoch - 1  # last: metrics call
        for i in range(first, last):
            raw = calls[i + 1][0] - calls[i][1]
            raw_steps.append(raw)
            steps.append(raw / speed(i))
        metrics_s.append((ends[e] - calls[last][1]) / speed(last))
        if e > 0:
            probed = sum(c[1] - c[0] for c in calls[first:last + 1])
            epochs.append((ends[e] - ends[e - 1] - probed) / speed(first, last))
    return steps, raw_steps, metrics_s, epochs


def measure_setup(cfg, train_data):
    """(Time from the training.train call to its first estimator call, the
    speed probe run just before); the time is None if training never
    called the hooked estimator."""
    probe = speed_probe()
    with patched([(bbvi, "estimate_elbo_and_grads",
                   stop_at_first_call(bbvi.estimate_elbo_and_grads))]):
        start = clock()
        try:
            training.train(cfg, train_data, None)
        except FirstCall as first:
            return first.args[0] - start, probe
    return None, probe


# ---------------------------------------------------------------------------
# inference

def same_parameters(a, b):
    ga, gb = a.parameter_groups(), b.parameter_groups()
    return ga.keys() == gb.keys() and all(
        ga[k].tobytes() == gb[k].tobytes() for k in ga)


def load_checked(trial, outcome):
    """Load the checkpoint and check the round trip is bit-exact."""
    outcome.attempted += 1
    m = mdl.load_checkpoint(trial.checkpoint)
    outcome.check(same_parameters(m, trial.model),
                  "checkpoint round trip is not bit-exact")
    return m


def infer_once(w, m, evaluation, outcome):
    outcome.attempted += 1
    probe = speed_probe()
    start = clock()
    err = training.error_rate(m, evaluation)
    report = training.component_report(m, evaluation, TAU)
    elapsed = clock() - start
    outcome.check(0.0 <= err <= 100.0, f"error rate {err} outside [0, 100]")
    outcome.check(0 <= report.count <= w.k and np.all(np.isfinite(report.mean)),
                  f"component report out of range: {report.count} active")
    return (elapsed, probe), (err, report.count)


def generate_once(w, m, seed, outcome):
    outcome.attempted += 1
    rng = np.random.default_rng(seed)
    probe = speed_probe()
    start = clock()
    means, _ = mdl.generate(m, w.gen_n, rng)
    elapsed = clock() - start
    outcome.check(means.shape == (w.gen_n, w.d) and np.all(np.isfinite(means))
                  and np.all((means >= 0.0) & (means <= 1.0)),
                  "generated means are not finite values in [0, 1]")
    return elapsed, probe


def serve(w, trial, evaluation, seed, outcome, pairs):
    """Load the checkpoint, then run `pairs` inference calls alternating
    with generate calls.  Outputs must not change between calls on one
    model.  Returns the (seconds, probe) pairs of the inference calls and
    of the generate calls.
    """
    m = load_checked(trial, outcome)
    infer_t, gen_t, answers = [], [], set()
    for _ in range(pairs):
        t, answer = infer_once(w, m, evaluation, outcome)
        infer_t.append(t)
        answers.add(answer)
        gen_t.append(generate_once(w, m, seed, outcome))
    outcome.check(len(answers) == 1, "inference outputs changed between calls")
    return infer_t, gen_t


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def run_untraced(w, seed, seconds, workdir, faults=()):
    train_data, evaluation = make_inputs(w, seed)
    cfg = run_config(w, seed, workdir)
    outcome = Outcome()
    # (seconds, speed probe) pairs, in the order they were taken
    trials, infer_t, gen_t = [], [], []
    start = clock()
    with patched(list(faults)):
        setups = [measure_setup(cfg, train_data) for _ in range(SETUP_REPS)]
        outcome.check(all(t is not None for t, _ in setups),
                      "set-up run: training never called the hooked estimator")
        setups = [pair for pair in setups if pair[0] is not None]
        while True:
            recorder = StepClock(probe=True)
            with patched([(bbvi, "estimate_elbo_and_grads",
                           recorder.wrap(bbvi.estimate_elbo_and_grads))]):
                trial = run_trial(w, cfg, train_data, recorder, outcome)
            trials.append(trial)
            if trial.calls:
                setups.append((trial.calls[0][0] - trial.start, trial.probes[0]))
            # rounds of training and serving repeat until --seconds have
            # passed, so every metric samples the whole run
            if trial.model is not None:
                served = serve(w, trial, evaluation, seed, outcome, SERVE_REPS)
                for acc, new in zip((infer_t, gen_t), served):
                    acc.extend(new)
            if clock() - start >= seconds or not trial.history:
                break
        finals = {t.history[-1][1] for t in trials if t.history}
        outcome.check(len(finals) <= 1, "repeated trials at one seed differ in final ELBO")

    steps, raw_steps, epochs, metrics_s = [], [], [], []
    for t in trials:
        st, raw, ms, ep = trial_times(w, t)
        steps.extend(st)
        raw_steps.extend(raw)
        metrics_s.extend(ms)
        epochs.extend(ep)
    rows = sum(len(t.history) for t in trials)
    points = len(metrics_s) * w.n  # complete epochs x points per epoch
    setup, infer, gen = corrected(setups), corrected(infer_t), corrected(gen_t)
    metrics = {
        "setup_s": median(setup) if setup else None,
        "step_ms_p50": 1e3 * median(steps) if steps else None,
        "step_ms_p90": 1e3 * float(np.percentile(steps, 90)) if steps else None,
        "train_points_per_s": points / sum(steps) if steps else None,
        "epoch_s": median(epochs) if epochs else None,
        "epoch_metrics_s": median(metrics_s) if metrics_s else None,
        "final_neg_elbo_per_point": (-trials[-1].history[-1][1] / w.n
                                     if trials[-1].history else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "infer_points_per_s": w.n / median(infer) if infer else None,
        "gen_samples_per_s": w.gen_n / median(gen) if gen else None,
    }
    p90 = metrics["step_ms_p90"]
    probes = [p for t in trials for p in t.probes] + [
        p for _, p in setups + infer_t + gen_t]
    detail = {
        "trials": len(trials),
        "epoch_rows": rows,
        "step_samples": len(steps),
        "steps_above_p90": int(sum(1e3 * s > p90 for s in steps)) if steps else 0,
        "epoch_samples": len(epochs),
        "setup_samples": len(setup),
        "infer_calls": len(infer_t),
        "gen_calls": len(gen_t),
        "final_elbo": trials[-1].history[-1][1] if trials[-1].history else None,
        "final_n_active": trials[-1].history[-1][-1] if trials[-1].history else None,
        # the speed probes and the uncorrected times
        "probe_ms_p50": 1e3 * median(probes) if probes else None,
        "probe_ref_ms": 1e3 * PROBE_REF_S,
        "wall_step_ms_p50": 1e3 * median(raw_steps) if raw_steps else None,
        "wall_setup_s": median(t for t, _ in setups) if setups else None,
        "wall_infer_points_per_s": (w.n / median(t for t, _ in infer_t)
                                    if infer_t else None),
        "wall_gen_samples_per_s": (w.gen_n / median(t for t, _ in gen_t)
                                   if gen_t else None),
    }
    return metrics, outcome, detail


# ---------------------------------------------------------------------------
# traced run: per-module metrics

def matmul_flops(net, rows):
    """Forward matmul flops of one pass over `rows` rows (2 per multiply-add)."""
    return 2 * rows * sum(i * o for i, o in zip(net.dims[:-1], net.dims[1:]))


def rows_of(arr):
    arr = np.asarray(arr)
    return 1 if arr.ndim == 1 else arr.shape[0]


class ModuleTrace:
    """Installs span wrappers on every module boundary the workloads cross."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.model = None      # the model inside the current estimator call
        self.calls = 0

    def _net_name(self, kind):
        def namer(args):
            m = self.model
            if m is not None:
                for role in NETS:
                    if args[0] is getattr(m, role):
                        return f"nn.{kind}.{role}"
            return f"nn.{kind}.infer"
        return namer

    def _enter_estimator(self, args):
        # each estimator call opens an operation; the clip and Adam spans
        # of the same step share its id
        self.model = args[0]
        self.calls += 1
        self.tracer.op = f"estimate-{self.calls}"

    def _exit_estimator(self, span, _args, _kwargs, result):
        self.model = None
        span.attrs = {"log_zero_events": int(result.diagnostics["log_zero_events"])}

    @staticmethod
    def _count_forward(span, args, _kwargs, _result):
        net, rows = args[0], rows_of(args[1])
        span.attrs = {"rows": rows, "flops": matmul_flops(net, rows),
                      "temp_bytes": 8 * rows * max(net.dims)}

    @staticmethod
    def _count_backward(span, args, _kwargs, _result):
        net, rows = args[0], rows_of(args[2])
        # grad w.r.t. weights and w.r.t. inputs: two matmuls per layer
        span.attrs = {"rows": rows, "flops": 2 * matmul_flops(net, rows)}

    @staticmethod
    def _count_elems(span, args, _kwargs, _result):
        span.attrs = {"elems": int(np.size(args[0]))}

    @staticmethod
    def _count_draws(span, args, _kwargs, _result):
        span.attrs = {"draws": int(np.prod(args[2]))}

    @staticmethod
    def _count_clip(span, args, kwargs, result):
        max_norm = args[1] if len(args) > 1 else kwargs.get("max_norm", 10.0)
        span.attrs = {"fired": int(result > max_norm)}

    @staticmethod
    def _count_checkpoint(span, args, _kwargs, _result):
        path = args[1]
        span.attrs = {"bytes": os.path.getsize(path) + os.path.getsize(path + ".bin")}

    def replacements(self):
        """(owner, attribute, span wrapper) for every traced boundary."""
        counted = {
            (dist, "sigmoid"): self._count_elems,
            (dist, "softplus"): self._count_elems,
            (dist, "beta_sample_array"): self._count_draws,
            (bbvi, "clip_global_norm"): self._count_clip,
            (mdl, "save_checkpoint"): self._count_checkpoint,
        }
        plain = [
            (nn, "adam_step"), (dist, "digamma"),
            (ibp, "ibp_prior_log_prob_from_sticks"), (ibp, "sticks_prior_log_prob"),
            (ibp.GlobalSticks, "score_grads"), (ibp.GlobalSticks, "log_prob"),
            (ibp, "active_components"), (bbvi, "control_variate_coeffs"),
            (mdl, "theta_log_prior"), (mdl, "load_checkpoint"), (mdl, "predict_batch"),
            (mdl, "generate"), (mdl, "decode"), (training, "error_rate"),
            (training, "component_report"), (training, "inclusion_probs"),
            (dio, "binarize_epoch"), (dio, "stratified_label_split"), (dio, "apply_split"),
        ]
        t, out = self.tracer, []
        for owner, attr in [*counted, *plain]:
            if isinstance(owner, type):
                label = f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
            else:
                label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            out.append((owner, attr, t.wrap(label, owner.__dict__[attr],
                                            on_exit=counted.get((owner, attr)))))
        out.append((nn, "forward", t.wrap("nn.forward", nn.forward,
                                          namer=self._net_name("forward"),
                                          on_exit=self._count_forward)))
        out.append((nn, "backward", t.wrap("nn.backward", nn.backward,
                                           namer=self._net_name("backward"),
                                           on_exit=self._count_backward)))
        out.append((bbvi, "estimate_elbo_and_grads",
                    t.wrap(ESTIMATOR, bbvi.estimate_elbo_and_grads,
                           on_enter=self._enter_estimator, on_exit=self._exit_estimator)))
        return out


def attr(span, key):
    """A count attached at span exit; 0 when the call raised before it."""
    return (span.attrs or {}).get(key, 0)


def run_traced(w, seed, workdir, spans_path=None, faults=()):
    """One training call with spans on its even epochs, then a traced load
    and TRACE_REPS inference and generate calls.  Odd epochs run with
    the untraced hooks alone, so the tracing overhead is measured in the
    same process."""
    train_data, evaluation = make_inputs(w, seed)
    cfg = run_config(w, seed, workdir)
    outcome = Outcome()
    tracer = Tracer()
    clock_hook = StepClock()

    def log(line):
        clock_hook.log(line)
        tracer.log(line)
        done = len(tracer.epoch_ends)
        # the final checkpoint save follows the last callback: trace it
        tracer.enabled = done % 2 == 0 or done == w.epochs

    module_trace = ModuleTrace(tracer)
    with patched(list(faults)):
        with patched(module_trace.replacements()):
            # the clock wraps the traced estimator, as in the untraced run
            with patched([(bbvi, "estimate_elbo_and_grads",
                           clock_hook.wrap(bbvi.estimate_elbo_and_grads))]):
                trial = run_trial(w, cfg, train_data, clock_hook, outcome, log)
            tracer.enabled = True
            tracer.op = "serve"
            if trial.model is not None:
                serve(w, trial, evaluation, seed, outcome, TRACE_REPS)
    if spans_path:
        tracer.write(spans_path)
    return trace_metrics(w, trial, tracer), outcome


def trace_metrics(w, trial, tracer):
    spans = tracer.spans
    own = tracer.self_times()
    # the estimator call that each span runs under (-1: none)
    est_of = []
    for i, s in enumerate(spans):
        est_of.append(i if s.name == ESTIMATOR else
                      (est_of[s.parent] if s.parent >= 0 else -1))
    estimators = [i for i, s in enumerate(spans) if s.name == ESTIMATOR]
    # per traced epoch the last estimator call before the log callback is
    # the per-epoch metrics; the others are training steps
    metrics_calls = set()
    for end, traced in zip(tracer.epoch_ends, tracer.epoch_traced):
        before = [i for i in estimators if spans[i].start < end]
        if traced and before:
            metrics_calls.add(before[-1])
    phase = {i: ("metrics" if i in metrics_calls else "step") for i in estimators}
    n_steps = sum(1 for p in phase.values() if p == "step")

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def per_step(name, key):
        vals = [attr(s, key) for i, s in enumerate(spans)
                if s.name == name and est_of[i] >= 0
                and phase[est_of[i]] == "step"]
        return sum(vals) / n_steps if n_steps else 0.0

    out = {}
    for kind in ("forward", "backward"):
        for net in NETS:
            out[f"nn.{kind}.{net}.s"] = total(f"nn.{kind}.{net}")
    out["nn.forward.infer.s"] = total("nn.forward.infer")
    out["nn.adam_step.s"] = total("nn.adam_step")
    for net in NETS:
        out[f"nn.{net}.rows"] = per_step(f"nn.forward.{net}", "rows")
        out[f"nn.{net}.gflop"] = 1e-9 * (per_step(f"nn.forward.{net}", "flops")
                                         + per_step(f"nn.backward.{net}", "flops"))
    net_spans = [s for s in spans if s.name.startswith(("nn.forward.", "nn.backward."))]
    busy = sum(s.duration for s in net_spans)
    flops = sum(attr(s, "flops") for s in net_spans)
    out["nn.gflops_achieved"] = 1e-9 * flops / busy if busy else 0.0
    for name in ("sigmoid", "softplus", "beta_sample_array", "digamma"):
        out[f"distributions.{name}.s"] = total(f"distributions.{name}")
    out["distributions.elementwise.elems"] = (per_step("distributions.sigmoid", "elems")
                                              + per_step("distributions.softplus", "elems"))
    out["distributions.beta_draws"] = per_step("distributions.beta_sample_array", "draws")
    for name in ("ibp_prior_log_prob_from_sticks", "sticks_prior_log_prob",
                 "GlobalSticks.score_grads", "GlobalSticks.log_prob", "active_components"):
        out[f"ibp.{name}.s"] = total(f"ibp.{name}")
    out["ibp.log_zero_events"] = sum(attr(spans[i], "log_zero_events") for i in estimators)
    out["bbvi.estimate_elbo_and_grads.s"] = total(ESTIMATOR)
    out["bbvi.estimate.self_s"] = sum(own[i] for i in estimators)
    out["bbvi.control_variate_coeffs.s"] = total("bbvi.control_variate_coeffs")
    clips = [s for s in spans if s.name == "bbvi.clip_global_norm"]
    out["bbvi.clip_global_norm.s"] = sum(s.duration for s in clips)
    out["bbvi.clip_calls"] = len(clips)
    out["bbvi.clip_fired_frac"] = (sum(attr(s, "fired") for s in clips) / len(clips)
                                   if clips else 0.0)
    for name in ("theta_log_prior", "save_checkpoint", "load_checkpoint",
                 "predict_batch", "generate"):
        out[f"model.{name}.s"] = total(f"model.{name}")
    saves = [s for s in spans if s.name == "model.save_checkpoint"]
    out["model.checkpoint_bytes"] = attr(saves[-1], "bytes") if saves else 0
    out["model.decode.calls"] = sum(1 for s in spans if s.name == "model.decode")
    out["training.epoch_metrics.elbo.s"] = sum(spans[i].duration for i in metrics_calls)
    for name in ("error_rate", "component_report", "inclusion_probs"):
        out[f"training.{name}.s"] = total(f"training.{name}")
    out["data.binarize_epoch.s"] = total("data.binarize_epoch")

    # steps: traced and untraced epochs, from the same clock as the
    # untraced run; coverage from the top-level spans inside each step
    steps_by_epoch = [list(zip(entries[:-1], entries[1:]))
                      for entries in epoch_entries(w, trial)]
    traced_steps = [s for e, st in enumerate(steps_by_epoch) if tracer.epoch_traced[e]
                    for s in st]
    plain_steps = [s for e, st in enumerate(steps_by_epoch) if not tracer.epoch_traced[e]
                   for s in st]
    roots = sorted((s.start, s.end) for s in spans if s.parent < 0)
    starts = [r[0] for r in roots]
    covered, other = [], 0.0
    for lo, hi in traced_steps:
        j = int(np.searchsorted(starts, lo))
        inside = 0.0
        while j < len(roots) and roots[j][0] < hi:
            inside += min(roots[j][1], hi) - roots[j][0]
            j += 1
        covered.append(inside / (hi - lo))
        other += (hi - lo) - inside
    out["bbvi.step_other.s"] = other
    traced_ms = 1e3 * median([hi - lo for lo, hi in traced_steps]) if traced_steps else 0.0
    plain_ms = 1e3 * median([hi - lo for lo, hi in plain_steps]) if plain_steps else 0.0
    out["trace.step_ms_p50"] = traced_ms
    out["trace.untraced_step_ms_p50"] = plain_ms
    out["trace.overhead_ms"] = traced_ms - plain_ms
    out["trace.step_covered_frac"] = median(covered) if covered else 0.0
    est_total = out["bbvi.estimate_elbo_and_grads.s"]
    out["trace.estimate_covered_frac"] = (1.0 - out["bbvi.estimate.self_s"] / est_total
                                          if est_total else 0.0)
    out["trace.steps"] = n_steps
    out["trace.spans"] = len(spans)

    def max_temp(which):
        vals = [attr(s, "temp_bytes") for i, s in enumerate(spans)
                if s.name == "nn.forward.decoder" and est_of[i] >= 0
                and phase[est_of[i]] == which]
        return max(vals) / 2 ** 20 if vals else 0.0
    out["bytes.step_max_temp_mb"] = max_temp("step")
    out["bytes.eval_max_temp_mb"] = max_temp("metrics")
    return out


# ---------------------------------------------------------------------------
# one benchmark run

def environment(w, seed, threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": threads,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "workload": asdict(w),
        "metrics_points": min(w.n, METRICS_CAP),
        "metrics_share": min(w.n, METRICS_CAP) / w.n,
        "note": SYNTHETIC_NOTE,
    }


def run(w, seed, seconds, trace, out_dir, threads, faults=()):
    """Run one workload; returns (result line, record)."""
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        if trace:
            spans_path = os.path.join(out_dir, f"spans-{w.name}-seed{seed}.jsonl")
            values, outcome = run_traced(w, seed, workdir, spans_path, faults)
            values["ops_failed_frac"] = outcome.failed / max(outcome.attempted, 1)
            detail = {"spans_file": os.path.basename(spans_path)}
            units = PER_LAYER
        else:
            values, outcome, detail = run_untraced(w, seed, seconds, workdir, faults)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, (unit, _) in units.items()},
    }
    record = {"environment": environment(w, seed, threads), "detail": detail,
              "problems": outcome.problems}
    return result, record
