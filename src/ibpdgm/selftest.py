"""Built-in numeric self-checks.

Four suites: finite-difference agreement of every analytic gradient,
the estimator's own included (`fd/estimator` differentiates
`bbvi.estimate_elbo_and_grads` at fixed draws), normalization of every
density, unbiasedness of the Monte Carlo ELBO/gradient estimator, control
variates included (rows `unbiased/elbo` and `unbiased/grad_*`), against
an enumeration + Gauss-Hermite oracle on a tiny model (`toy_estimates`),
and variance reduction from the weighted score control variates.  Each
check returns (name, passed, detail); `run_all` prints one line per
check.  Acceptance criteria 1-4 call these same suites at their own
seeds, and pin the tolerance constants below.

The fd and normalization suites check the `distributions` and `ibp`
functions the estimator trains with.  The oracle (`make_enumerable_toy`,
`exact_toy_elbo`) and the finite-difference helpers (`rel_err`,
`fd_grad_all`) live here once; the test suite imports them.
The oracle writes every density and KL out from its definition and
shares only the networks and the elementwise maps with the estimator, so
it can catch a fault in the estimator's own densities.

The oracle conditions on fixed sticks v0, and so do the estimates it
checks: `fd/estimator` and the `unbiased/*` rows run the training
estimator on a model whose sticks are a `FixedSticks(v0, alpha)`, which
draws nothing and contributes no stick term or gradient.  Those rows
check the slab, spike, label and decoder paths; the stick path is
checked by the test suite (`test_stick_gradient_unbiased`, at moderate
Beta parameters).
"""

import functools
import itertools
import types
from typing import NamedTuple

import numpy as np

from . import nn
from . import bbvi
from . import distributions as dist
from . import ibp
from . import model as mdl

FD_STEP = 1e-5
FD_REL_TOL = 1e-4       # relative error of every analytic gradient vs FD
NORM_ENUM_TOL = 1e-9    # |sum - 1| of a pmf enumerated over {0,1}^K
NORM_QUAD_TOL = 1e-6    # |integral - 1| of a density by quadrature
KL_SEMS = 3.0           # analytic KL vs Monte Carlo, in standard errors
CV_COEFF_TOL = 0.1      # max |a| fitted to an independent signal and score


def rel_err(a, b):
    """|a - b| relative to the larger magnitude; absolute below 1e-8."""
    denom = max(abs(a), abs(b))
    if denom < 1e-8:
        return abs(a - b)
    return abs(a - b) / denom


def fd_grad_all(objective, params, h=FD_STEP, indices=None):
    """Central differences of a zero-argument objective over every entry of
    the flat array `params` (or those at `indices`; the rest stay 0), which
    is perturbed in place and restored."""
    g = np.zeros_like(params)
    for i in range(params.size) if indices is None else indices:
        old = params[i]
        params[i] = old + h
        fp = objective()
        params[i] = old - h
        fm = objective()
        params[i] = old
        g[i] = (fp - fm) / (2 * h)
    return g


def fd_suite(seed=20240501):
    rng = np.random.default_rng(seed)
    checks = []

    # Bernoulli score gradient w.r.t. logits
    logits = rng.normal(size=5)
    z = (rng.random(5) < 0.5).astype(np.float64)
    an = dist.bernoulli_score_grad(z, logits)
    fd = fd_grad_all(lambda: np.sum(dist.bernoulli_log_prob(z, logits)), logits)
    worst = max(rel_err(g, f) for g, f in zip(an, fd))
    checks.append(("fd/bernoulli_score", worst < FD_REL_TOL, f"max rel err {worst:.2e}"))

    # Beta score gradient w.r.t. (a, b)
    worst = 0.0
    for a, b, v in [(1.0, 1.0, 0.5), (2.3, 0.8, 0.12), (5.0, 3.0, 0.77)]:
        log_v, log_1mv = np.log(v), np.log1p(-v)
        an = dist.beta_score_grad(log_v, log_1mv, a, b)
        ab = np.array([a, b])
        fd = fd_grad_all(lambda: dist.beta_log_prob(log_v, log_1mv, *ab), ab)
        worst = max(worst, rel_err(an[0], fd[0]), rel_err(an[1], fd[1]))
    checks.append(("fd/beta_score", worst < FD_REL_TOL, f"max rel err {worst:.2e}"))

    # Categorical score gradient w.r.t. logits
    logits = rng.normal(size=6)
    worst = 0.0
    for c in (0, 2, 5):
        an = dist.categorical_score_grad(c, dist.softmax(logits))
        fd = fd_grad_all(lambda: dist.categorical_log_prob(c, dist.softmax(logits)), logits)
        worst = max(worst, max(rel_err(g, f) for g, f in zip(an, fd)))
    checks.append(("fd/categorical_score", worst < FD_REL_TOL, f"max rel err {worst:.2e}"))

    # Gaussian score gradient w.r.t. (mean, var)
    mean, var = rng.normal(size=4), rng.random(4) + 0.4
    x = rng.normal(size=4)
    gm, gv = dist.gaussian_score_grad(x, mean, var)
    worst = 0.0
    for an, param in ((gm, mean), (gv, var)):
        fd = fd_grad_all(lambda: dist.gaussian_log_prob(x, mean, var), param)
        worst = max(worst, max(rel_err(g, f) for g, f in zip(an, fd)))
    checks.append(("fd/gaussian_score", worst < FD_REL_TOL, f"max rel err {worst:.2e}"))

    # network backprop on a random 3-layer net
    net = nn.glorot_init(5, [7, 6], 4, rng)
    x_in = rng.normal(size=(1, 5))
    direction = rng.normal(size=4)
    _, tape = nn.forward(net, x_in)
    grads, _ = nn.backward(net, tape, direction[None])
    fd = fd_grad_all(lambda: float(direction @ nn.forward(net, x_in)[0][0]), net.params)
    worst = max(rel_err(g, f) for g, f in zip(grads, fd))
    checks.append(("fd/backprop", worst < FD_REL_TOL, f"max rel err {worst:.2e}"))

    worst = max(estimator_fd_worst(kind, rng) for kind in mdl.LIKELIHOODS)
    checks.append(("fd/estimator", worst < FD_REL_TOL, f"max rel err {worst:.2e}"))
    return checks


def estimator_fd_worst(kind, rng):
    """Worst relative error between `bbvi.estimate_elbo_and_grads`'s
    gradients and central differences of its own forward-only estimate.

    One seed fixes every draw and the sticks are held at v0
    (`FixedSticks`), so the estimate is a smooth function of every decoder
    and classifier parameter and of the encoder's mean and variance output
    rows and biases; those are compared, and no control variate enters
    their gradients.  The spike-logit head is not: its gradient is a
    score-function estimate, not the derivative of a fixed-draw estimate
    (the unbiasedness suite checks it).  The batch mixes labeled and
    unlabeled points and stands for a larger dataset.  Every bias is set to
    a small nonzero value: at Glorot's zero biases an all-zero input row (a
    binary x with every pixel off) sits on the ReLU kink, where central
    differences and backprop disagree.
    """
    m = mdl.build_model(5, 3, 3, 8, kind, 2.0, 1.0, rng)
    for net in (m.encoder, m.classifier, m.decoder):
        for layer in range(len(net.dims) - 1):
            net.biases(layer)[:] = 0.1 * rng.normal(size=net.dims[layer + 1])
    if kind == "bernoulli":
        x = (rng.random((4, m.D)) < 0.5).astype(np.float64)
    else:
        x = rng.normal(size=(4, m.D))
    labels = np.array([1, -1, 0, -1])
    m.sticks = FixedSticks(rng.random(m.K) * 0.8 + 0.1, m.sticks.alpha)
    seed = int(rng.integers(2 ** 31))

    def estimate(with_grads):
        return bbvi.estimate_elbo_and_grads(
            m, x, labels, 3, np.random.default_rng(seed), dataset_size=10,
            alpha_sup=0.7, with_grads=with_grads)

    def objective():
        return estimate(False).total + mdl.theta_log_prior(m)[0]

    grads = estimate(True).grads
    # the mean and variance heads: the first 2K rows of the encoder's
    # output layer and their biases
    heads = nn.DenseNet(m.encoder.dims, m.encoder.activations)
    heads.weights(-1)[:2 * m.K] = 1.0
    heads.biases(-1)[:2 * m.K] = 1.0
    checked = {"encoder": np.flatnonzero(heads.params),
               "classifier": np.arange(m.classifier.num_params),
               "decoder": np.arange(m.decoder.num_params)}
    worst = 0.0
    for name, idx in checked.items():
        fd = fd_grad_all(objective, m.parameter_groups()[name], indices=idx)
        worst = max(worst, max(rel_err(g, f) for g, f in zip(grads[name][idx], fd[idx])))
    return worst


def _tanh_sinh_unit_interval(n):
    """Tanh-sinh nodes/weights, t in [-4, 4], for integrals over (0, 1)."""
    t = np.linspace(-4.0, 4.0, n)
    step = t[1] - t[0]
    half_pi_sinh = 0.5 * np.pi * np.sinh(t)
    nodes = 0.5 * (1.0 + np.tanh(half_pi_sinh))
    weights = step * 0.25 * np.pi * np.cosh(t) / np.cosh(half_pi_sinh) ** 2
    keep = (nodes > 0.0) & (nodes < 1.0)
    return nodes[keep], weights[keep]


def normalization_suite(seed=20240502):
    rng = np.random.default_rng(seed)
    checks = []

    # Bernoulli and spike prior over {0,1}^K sum to 1, K = 2, 3, 4
    worst_bern = worst_ibp = 0.0
    for k in (2, 3, 4):
        patterns = np.array(list(itertools.product([0.0, 1.0], repeat=k)))
        logits = rng.normal(size=k) * 2
        total = np.exp(dist.bernoulli_log_prob(patterns, logits).sum(axis=1)).sum()
        worst_bern = max(worst_bern, abs(total - 1.0))
        log_v = np.log(rng.random(k) * 0.9 + 0.05)
        total = np.exp(ibp.ibp_prior_log_prob_from_sticks(patterns, log_v).sum(axis=1)).sum()
        worst_ibp = max(worst_ibp, abs(total - 1.0))
    checks.append(("norm/bernoulli_enum", worst_bern < NORM_ENUM_TOL,
                   f"max |sum-1| {worst_bern:.2e} over K = 2, 3, 4"))
    checks.append(("norm/ibp_prior_enum", worst_ibp < NORM_ENUM_TOL,
                   f"max |sum-1| {worst_ibp:.2e} over K = 2, 3, 4"))

    # Beta density integrates to 1 (tanh-sinh rule on (0,1): robust to the
    # integrable endpoint singularities that appear when a or b is < 1)
    nodes, weights = _tanh_sinh_unit_interval(400)
    log_nodes, log_1m_nodes = np.log(nodes), np.log1p(-nodes)
    worst = 0.0
    for a, b in [(1.0, 1.0), (2.5, 1.3), (4.0, 6.0), (1.2, 0.9)]:
        integral = float(np.sum(weights * np.exp(
            dist.beta_log_prob(log_nodes, log_1m_nodes, a, b))))
        worst = max(worst, abs(integral - 1.0))
    checks.append(("norm/beta_quadrature", worst < NORM_QUAD_TOL,
                   f"max |integral-1| {worst:.2e}"))

    # analytic Gaussian KL against Monte Carlo
    mean, var = rng.normal(size=4), rng.random(4) + 0.3
    samples = mean + np.sqrt(var) * rng.standard_normal((100_000, 4))
    diffs = (dist.gaussian_log_prob(samples, mean, var)
             - dist.gaussian_log_prob(samples, np.zeros(4), np.ones(4)))
    mc, sem = diffs.mean(), diffs.std(ddof=1) / np.sqrt(diffs.size)
    analytic = dist.gaussian_kl_to_standard(mean, var)
    checks.append(("norm/gaussian_kl_mc", abs(mc - analytic) < KL_SEMS * sem,
                   f"analytic {analytic:.5f} mc {mc:.5f} sem {sem:.2e}"))
    return checks


class FixedSticks:
    """A stand-in for `ibp.GlobalSticks` that holds every stick at v0.

    `sample` draws nothing and returns v0 as the pair (log v0,
    log(1 - v0)); `log_prob` is the sticks' prior itself, so log p(v) -
    log q(v) is exactly 0 and so is the estimator's stick term; the scores
    are 0, and so are the stick gradients.  Set as a model's sticks, it
    makes the estimator condition on v = v0, as `exact_toy_elbo` does.
    """

    def __init__(self, v0, alpha):
        self.v0 = np.asarray(v0, dtype=np.float64)
        self.alpha = float(alpha)
        self.K = self.v0.size
        self.params = np.zeros(2 * self.K)

    def sample(self, size, rng):
        return tuple(np.broadcast_to(log, (*size, self.K))
                     for log in (np.log(self.v0), np.log1p(-self.v0)))

    def log_prob(self, log_v, log_1mv):
        return ibp.sticks_prior_log_prob(log_v, self.alpha)

    def score_grads(self, log_v, log_1mv):
        return np.zeros((*np.shape(log_v)[:-1], 2 * self.K))


def make_enumerable_toy(seed=7, kind="bernoulli"):
    """Tiny model whose exact ELBO is computable: D=5, C=2, K=2, smooth decoder."""
    rng = np.random.default_rng(seed)
    m = mdl.build_model(5, 2, 2, 4, kind, 2.0, 1.0, rng)
    m.decoder.activations[0] = "identity"  # keeps the quadrature oracle exact
    if kind == "bernoulli":
        x = (rng.random(5) < 0.5).astype(np.float64)
    else:
        x = rng.normal(size=5)
    return m, x


def reference_log_lik(m, out, x):
    """log p(x | decoder output) per row, from the densities' definitions."""
    if m.likelihood_kind == "bernoulli":
        p = 1.0 / (1.0 + np.exp(-out))
        return np.sum(x * np.log(p) + (1.0 - x) * np.log1p(-p), axis=1)
    mean, raw = out[:, :m.D], out[:, m.D:]
    var = np.log1p(np.exp(-np.abs(raw))) + np.maximum(raw, 0.0) + mdl.VAR_FLOOR
    return -0.5 * np.sum(np.log(2 * np.pi * var) + (x - mean) ** 2 / var, axis=1)


def exact_toy_elbo(m, x, label, v0, alpha_sup=0.0, gh_nodes=32):
    """Exact ELBO: enumeration over the spikes, Gauss-Hermite over the slab;
    an unlabeled point marginalizes its label under q(y | x).

    Only valid for small K and a decoder without kinks, so that the
    quadrature converges to machine precision; the sticks are held at v0
    (their term is 0, as the estimator's with `FixedSticks(v0, alpha)`).
    """
    k, c = m.K, m.C
    mean, var, logits = (head[0] for head in mdl.encode(m, x[None]))
    probs_y = mdl.classify(m, x[None])[0]
    t, w = np.polynomial.hermite.hermgauss(gh_nodes)
    nodes = np.array(list(itertools.product(*[np.sqrt(2.0) * t] * k)))
    wts = np.prod(np.array(list(itertools.product(*[w / np.sqrt(np.pi)] * k))), axis=1)
    ztilde = mean + np.sqrt(var) * nodes
    # -KL(N(mean, var) || N(0, I)), in closed form
    total = 0.5 * np.sum(1.0 + np.log(var) - mean ** 2 - var)
    labeled = label is not None and label >= 0
    if labeled:
        total += alpha_sup * np.log(probs_y[label])
    else:   # -KL(q(y) || Uniform(C))
        total -= np.sum(probs_y * np.log(c * probs_y))
    q_on = 1.0 / (1.0 + np.exp(-logits))      # q(zhat_k = 1)
    pi = np.cumprod(v0)                        # p(zhat_k = 1 | v0)

    def recon_rows(z_rows, y_embed):
        dec_out, _ = nn.forward(
            m.decoder,
            np.concatenate([z_rows, np.tile(y_embed, (len(z_rows), 1))], axis=1))
        return reference_log_lik(m, dec_out, np.tile(x, (len(z_rows), 1)))

    for pattern in itertools.product([0.0, 1.0], repeat=k):
        pattern = np.array(pattern)
        log_q = np.sum(pattern * np.log(q_on) + (1.0 - pattern) * np.log1p(-q_on))
        log_p = np.sum(pattern * np.log(pi) + (1.0 - pattern) * np.log1p(-pi))
        qz = np.exp(log_q)
        total += qz * (log_p - log_q)
        z_rows = ztilde * pattern
        if labeled:
            r = recon_rows(z_rows, np.eye(c)[label])
        else:
            r = sum(probs_y[ci] * recon_rows(z_rows, np.eye(c)[ci]) for ci in range(c))
        total += qz * float(np.sum(wts * r))
    return float(total)


class ToyStat(NamedTuple):
    """Mean and standard error of repeated estimates, and the exact value."""
    mean: np.ndarray
    sem: np.ndarray
    exact: np.ndarray

    def within(self, k, floor):
        """Every coordinate within k SEM of the exact value, or within
        `floor` (deterministic coordinates have SEM ~ 0, and the FD oracle
        carries noise of its own)."""
        return bool(np.all(np.abs(self.mean - self.exact)
                           <= np.maximum(k * self.sem, floor)))

    def max_z(self):
        return float(np.max(np.abs(self.mean - self.exact)
                            / np.maximum(self.sem, 1e-12)))


TOY_GRAD_GROUPS = ("encoder", "classifier", "decoder")


@functools.lru_cache(maxsize=None)
def _exact_toy_values(toy_seed, v0):
    """`exact_toy_elbo` of one unlabeled point of the enumerable toy, with
    the sticks held at the tuple v0, and its central differences (plus
    the decoder weight prior) per group in TOY_GRAD_GROUPS.  Cached: the
    differences take about a second, and the arrays are read-only because
    every caller shares them."""
    m, x = make_enumerable_toy(seed=toy_seed)
    v0 = np.array(v0)
    groups = m.parameter_groups()

    def objective():
        return exact_toy_elbo(m, x, -1, v0) + mdl.theta_log_prior(m)[0]

    exact = {"elbo": exact_toy_elbo(m, x, -1, v0)}
    for name in TOY_GRAD_GROUPS:
        exact[name] = fd_grad_all(objective, groups[name])
        exact[name].setflags(write=False)
    return types.MappingProxyType(exact)


def toy_estimates(toy_seed, v0, reps, seed0):
    """Run the estimator `reps` times, S = 8, with seeds seed0 + j, on one
    unlabeled point of the enumerable toy with the sticks held at v0
    (`FixedSticks`).

    Returns a ToyStat for "elbo" and for the "encoder", "classifier" and
    "decoder" gradients; the exact values are `exact_toy_elbo` and its
    central differences (plus the decoder weight prior).
    """
    m, x = make_enumerable_toy(seed=toy_seed)
    m.sticks = FixedSticks(v0, m.sticks.alpha)
    exact = _exact_toy_values(toy_seed, tuple(m.sticks.v0.tolist()))
    runs = [bbvi.estimate_elbo_and_grads(m, x[None, :], np.array([-1]), 8,
                                         np.random.default_rng(seed0 + j))
            for j in range(reps)]
    values = {"elbo": np.array([bd.total for bd in runs])}
    values.update({name: np.array([bd.grads[name] for bd in runs])
                   for name in TOY_GRAD_GROUPS})
    return {name: ToyStat(v.mean(axis=0), v.std(axis=0, ddof=1) / np.sqrt(reps),
                          exact[name])
            for name, v in values.items()}


def unbiasedness_suite(reps=120):
    """Mean of the estimator's ELBO and gradient estimates, control
    variates included, vs the enumeration oracle."""
    stats = toy_estimates(7, [0.7, 0.5], reps, 1_100_000)
    st = stats["elbo"]
    checks = [("unbiased/elbo", st.within(4.0, 1e-6),
               f"|z| = {st.max_z():.2f} (mean {st.mean:.4f} exact {st.exact:.4f})")]
    for name in TOY_GRAD_GROUPS:
        st = stats[name]
        checks.append((f"unbiased/grad_{name}", st.within(4.0, 1e-6),
                       f"max |z| = {st.max_z():.2f}"))
    return checks


def variance_reduction_suite(trials=3000, num_samples=10, seed=5):
    """Weighted score control variates on a single-Bernoulli toy.

    f(z) = z, latent z ~ Bernoulli(sigmoid(logit)); the exact gradient of
    E[z] w.r.t. the logit is pi (1 - pi).  The estimator variance with the
    leave-one-out coefficients must come out below the plain estimator's.
    """
    logit = 0.3
    pi = float(dist.sigmoid(np.array(logit)))
    rng = np.random.default_rng(seed)
    plain = np.zeros(trials)
    weighted = np.zeros(trials)
    for t in range(trials):
        z = (rng.random(num_samples) < pi).astype(np.float64)
        f, h = z[:, None], (z - pi)[:, None]
        plain[t] = np.mean(h * f, axis=0)[0]
        weighted[t] = bbvi.score_function_grad(f, h)[0]
    exact = pi * (1.0 - pi)
    sem = plain.std(ddof=1) / np.sqrt(trials)
    checks = [
        ("cv/plain_unbiased", abs(plain.mean() - exact) < 4 * sem,
         f"mean {plain.mean():.5f} exact {exact:.5f}"),
        ("cv/variance_reduced", weighted.var() < plain.var(),
         f"var {weighted.var():.3e} < {plain.var():.3e} "
         f"(ratio {weighted.var() / plain.var():.3f})"),
    ]
    # independent signal and score: every fitted coefficient must vanish
    big = 10_000
    z = (rng.random(big) < 0.5).astype(np.float64)
    f_ind = rng.standard_normal(big)
    a = bbvi.control_variate_coeffs(f_ind[:, None], (z - 0.5)[:, None])
    worst = float(np.max(np.abs(a)))
    checks.append(("cv/independent_coeff", worst < CV_COEFF_TOL, f"max |a| = {worst:.4f}"))
    return checks


def run_all(print_fn=print, reps=120):
    """Run every suite; returns True when everything passed."""
    all_checks = []
    all_checks += fd_suite()
    all_checks += normalization_suite()
    all_checks += unbiasedness_suite(reps=reps)
    all_checks += variance_reduction_suite()
    ok = True
    for name, passed, detail in all_checks:
        print_fn(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        ok = ok and passed
    return ok
