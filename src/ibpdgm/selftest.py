"""Built-in numeric self-checks.

Four suites: finite-difference agreement of every analytic gradient,
normalization of every density, unbiasedness of the Monte Carlo
ELBO/gradient estimator against an enumeration + Gauss-Hermite oracle on
a tiny model, and variance reduction from the weighted score control
variates.  Each check returns (name, passed, detail); `run_all` prints
one line per check.

The oracle (`make_enumerable_toy`, `exact_toy_elbo`) and the
finite-difference helpers (`central_diff`, `rel_err`, `fd_grad_all`)
live here once; the test suite imports them.  The oracle writes the
likelihood out from its definition and calls no estimator code, so it
can catch a fault in the estimator's own likelihood.
"""

import itertools

import numpy as np

from . import nn
from . import bbvi
from . import distributions as dist
from . import ibp
from . import model as mdl

FD_STEP = 1e-5
FD_REL_TOL = 1e-4


def central_diff(fun, x0, i, h=FD_STEP):
    """Central difference of fun along coordinate i of x0."""
    x = np.array(x0, dtype=np.float64)
    x[i] += h
    fp = fun(x)
    x[i] -= 2 * h
    fm = fun(x)
    return (fp - fm) / (2 * h)


def rel_err(a, b, floor=1e-8):
    """|a - b| relative to the larger magnitude; absolute below `floor`."""
    denom = max(abs(a), abs(b))
    if denom < floor:
        return abs(a - b)
    return abs(a - b) / denom


def fd_grad_all(objective, params, h=FD_STEP):
    """Central differences of a zero-argument objective over every entry of
    the flat array `params`, which is perturbed in place and restored."""
    g = np.zeros_like(params)
    for i in range(params.size):
        old = params[i]
        params[i] = old + h
        fp = objective()
        params[i] = old - h
        fm = objective()
        params[i] = old
        g[i] = (fp - fm) / (2 * h)
    return g


def fd_suite(rng=None):
    rng = rng or np.random.default_rng(20240501)
    checks = []

    # Bernoulli score gradient w.r.t. logits
    logits = rng.normal(size=4)
    z = (rng.random(4) < 0.5).astype(np.float64)
    worst = 0.0
    for i in range(4):
        fd = central_diff(
            lambda l: dist.bernoulli_log_prob(z, dist.BernoulliParams(l)), logits, i)
        an = dist.bernoulli_score_grad(z, dist.BernoulliParams(logits))[i]
        worst = max(worst, rel_err(an, fd))
    checks.append(("fd/bernoulli_score", worst < FD_REL_TOL, f"max rel err {worst:.2e}"))

    # Beta score gradient w.r.t. (a, b)
    worst = 0.0
    for a, b, v in [(1.0, 1.0, 0.5), (2.3, 0.8, 0.12), (5.0, 3.0, 0.77)]:
        an = dist.beta_score_grad(v, dist.BetaParams(a, b))
        fd_a = central_diff(lambda p: dist.beta_log_prob(v, dist.BetaParams(p[0], p[1])),
                            np.array([a, b]), 0)
        fd_b = central_diff(lambda p: dist.beta_log_prob(v, dist.BetaParams(p[0], p[1])),
                            np.array([a, b]), 1)
        worst = max(worst, rel_err(an[0], fd_a), rel_err(an[1], fd_b))
    checks.append(("fd/beta_score", worst < FD_REL_TOL, f"max rel err {worst:.2e}"))

    # Categorical score gradient w.r.t. logits
    logits = rng.normal(size=5)
    worst = 0.0
    for c in (0, 3):
        an = dist.categorical_score_grad(c, logits)
        for i in range(5):
            fd = central_diff(lambda l: dist.categorical_log_prob(
                c, dist.CategoricalParams.from_logits(l)), logits, i)
            worst = max(worst, rel_err(an[i], fd))
    checks.append(("fd/categorical_score", worst < FD_REL_TOL, f"max rel err {worst:.2e}"))

    # Gaussian score gradient w.r.t. (mean, var)
    mean, var = rng.normal(size=3), rng.random(3) + 0.5
    x = rng.normal(size=3)
    gm, gv = dist.gaussian_score_grad(x, dist.DiagGaussianParams(mean, var))
    worst = 0.0
    for i in range(3):
        fd_m = central_diff(lambda mu: dist.gaussian_log_prob(
            x, dist.DiagGaussianParams(mu, var)), mean, i)
        fd_v = central_diff(lambda vv: dist.gaussian_log_prob(
            x, dist.DiagGaussianParams(mean, vv)), var, i)
        worst = max(worst, rel_err(gm[i], fd_m), rel_err(gv[i], fd_v))
    checks.append(("fd/gaussian_score", worst < FD_REL_TOL, f"max rel err {worst:.2e}"))

    # network backprop on a random 3-layer net
    net = nn.glorot_init(4, [6, 5], 3, rng)
    x_in = rng.normal(size=4)
    direction = rng.normal(size=3)
    _, tape = nn.forward(net, x_in)
    grads, _ = nn.backward(net, tape, direction)
    fd = fd_grad_all(lambda: float(direction @ nn.forward(net, x_in)[0]), net.params)
    worst = max(rel_err(g, f) for g, f in zip(grads, fd))
    checks.append(("fd/backprop", worst < FD_REL_TOL, f"max rel err {worst:.2e}"))

    # end-to-end path gradients with frozen noise, through the masked latent
    worst = path_gradient_fd_worst(rng)
    checks.append(("fd/model_path", worst < FD_REL_TOL, f"max rel err {worst:.2e}"))
    return checks


def frozen_path_objective_and_grads(m, x, eps0, zhat0, y_embed):
    """Deterministic single-draw objective and its pathwise gradients.

    recon(x | (mean + sigma*eps0) * zhat0, y_embed) - KL(q(ztilde) || N(0,I))
    with eps0 and zhat0 held fixed; returns (value, encoder grad, decoder
    grad).  Shares the gradient plumbing with the full estimator.
    """
    k = m.K
    enc_out, enc_tape = nn.forward(m.encoder, x[None, :])
    mean, var, _ = mdl.split_encoder_out(enc_out, k)
    sigma = np.sqrt(var)
    ztilde = mean + sigma * eps0[None, :]
    z = ztilde * zhat0[None, :]
    dec_in = np.concatenate([z, y_embed[None, :]], axis=1)
    dec_out, dec_tape = nn.forward(m.decoder, dec_in)
    r, g_out = bbvi._likelihood_values_and_grads(
        m.likelihood_kind, dec_out, x[None, :], m.D)
    dec_grads, g_in = nn.backward(m.decoder, dec_tape, g_out)
    g_ztilde = g_in[:, :k] * zhat0[None, :]
    kl = 0.5 * np.sum(mean ** 2 + var - 1.0 - np.log(var))
    g_mean = g_ztilde - mean
    g_var = g_ztilde * eps0[None, :] / (2.0 * sigma) - 0.5 * (1.0 - 1.0 / var)
    raw = enc_out[:, k:2 * k]
    head = np.concatenate(
        [g_mean, g_var * dist.sigmoid(raw), np.zeros_like(g_mean)], axis=1)
    enc_grads, _ = nn.backward(m.encoder, enc_tape, head)
    return float(r[0] - kl), enc_grads, dec_grads


def path_gradient_fd_worst(rng, input_dim=5, truncation=3, hidden=8):
    m = mdl.build_model(input_dim, 2, truncation, hidden, "bernoulli",
                        2.0, 1.0, rng)
    x = (rng.random(input_dim) < 0.5).astype(np.float64)
    eps0 = rng.normal(size=truncation)
    zhat0 = np.array([1.0, 0.0, 1.0])[:truncation]
    y_embed = np.zeros(2)
    _, enc_grads, dec_grads = frozen_path_objective_and_grads(m, x, eps0, zhat0, y_embed)
    worst = 0.0
    for net, grads in ((m.encoder, enc_grads), (m.decoder, dec_grads)):
        fd = fd_grad_all(
            lambda: frozen_path_objective_and_grads(m, x, eps0, zhat0, y_embed)[0],
            net.params)
        worst = max(worst, max(rel_err(g, f) for g, f in zip(grads, fd)))
    return worst


def _tanh_sinh_unit_interval(n, t_max=4.0):
    """Tanh-sinh quadrature nodes/weights for integrals over (0, 1)."""
    t = np.linspace(-t_max, t_max, n)
    step = t[1] - t[0]
    half_pi_sinh = 0.5 * np.pi * np.sinh(t)
    nodes = 0.5 * (1.0 + np.tanh(half_pi_sinh))
    weights = step * 0.25 * np.pi * np.cosh(t) / np.cosh(half_pi_sinh) ** 2
    keep = (nodes > 0.0) & (nodes < 1.0)
    return nodes[keep], weights[keep]


def normalization_suite(rng=None):
    rng = rng or np.random.default_rng(20240502)
    checks = []

    # Bernoulli over {0,1}^K sums to 1
    logits = rng.normal(size=3)
    total = sum(np.exp(dist.bernoulli_log_prob(np.array(z), dist.BernoulliParams(logits)))
                for z in itertools.product([0.0, 1.0], repeat=3))
    checks.append(("norm/bernoulli_enum", abs(total - 1.0) < 1e-9,
                   f"sum over patterns {total:.12f}"))

    # spike prior over {0,1}^K sums to 1
    pi = ibp.stick_breaking(rng.random(3) * 0.8 + 0.1)
    total = sum(np.exp(ibp.ibp_prior_log_prob(np.array(z), pi))
                for z in itertools.product([0.0, 1.0], repeat=3))
    checks.append(("norm/ibp_prior_enum", abs(total - 1.0) < 1e-9,
                   f"sum over patterns {total:.12f}"))

    # Beta density integrates to 1 (tanh-sinh rule on (0,1): robust to the
    # integrable endpoint singularities that appear when a or b is < 1)
    nodes, weights = _tanh_sinh_unit_interval(400)
    worst = 0.0
    for a, b in [(1.0, 1.0), (2.5, 1.3), (4.0, 6.0), (1.2, 0.9)]:
        p = dist.BetaParams(a, b)
        integral = float(np.sum(weights * np.exp(
            [dist.beta_log_prob(v, p) for v in nodes])))
        worst = max(worst, abs(integral - 1.0))
    checks.append(("norm/beta_quadrature", worst < 1e-6, f"max |integral-1| {worst:.2e}"))

    # analytic Gaussian KL against Monte Carlo
    p = dist.DiagGaussianParams(rng.normal(size=3), rng.random(3) + 0.5)
    samples = p.mean + np.sqrt(p.var) * rng.standard_normal((100_000, 3))
    diffs = (-0.5 * np.sum(np.log(2 * np.pi * p.var) + (samples - p.mean) ** 2 / p.var, axis=1)
             + 0.5 * np.sum(np.log(2 * np.pi) + samples ** 2, axis=1))
    mc, sem = diffs.mean(), diffs.std(ddof=1) / np.sqrt(diffs.size)
    analytic = dist.gaussian_kl_to_standard(p)
    checks.append(("norm/gaussian_kl_mc", abs(mc - analytic) < 3 * sem,
                   f"analytic {analytic:.5f} mc {mc:.5f} sem {sem:.2e}"))
    return checks


def make_enumerable_toy(seed=7, input_dim=5, num_classes=2, kind="bernoulli"):
    """Tiny model whose exact ELBO is computable: K=2, smooth decoder."""
    rng = np.random.default_rng(seed)
    m = mdl.build_model(input_dim, num_classes, 2, 4, kind, 2.0, 1.0, rng)
    m.decoder.activations[0] = "identity"  # keeps the quadrature oracle exact
    if kind == "bernoulli":
        x = (rng.random(input_dim) < 0.5).astype(np.float64)
    else:
        x = rng.normal(size=input_dim)
    return m, x


def _toy_log_lik(m, out, x):
    """log p(x | decoder output) per row, from the densities' definitions."""
    if m.likelihood_kind == "bernoulli":
        p = 1.0 / (1.0 + np.exp(-out))
        return np.sum(x * np.log(p) + (1.0 - x) * np.log1p(-p), axis=1)
    mean, raw = out[:, :m.D], out[:, m.D:]
    var = np.log1p(np.exp(-np.abs(raw))) + np.maximum(raw, 0.0) + mdl.VAR_FLOOR
    return -0.5 * np.sum(np.log(2 * np.pi * var) + (x - mean) ** 2 / var, axis=1)


def exact_toy_elbo(m, x, label, v0, mode="marginalize", alpha_sup=0.0,
                   gh_nodes=32):
    """Exact ELBO: enumeration over the spikes, Gauss-Hermite over the slab.

    Only valid for small K and a decoder without kinks, so that the
    quadrature converges to machine precision; sticks are frozen at v0
    (their term is 0, matching the estimator's frozen_sticks path).
    """
    k, c = m.K, m.C
    gauss, bern, _ = mdl.encode(m, x)
    probs_y = mdl.classify(m, x).probs
    t, w = np.polynomial.hermite.hermgauss(gh_nodes)
    nodes = np.array(list(itertools.product(*[np.sqrt(2.0) * t] * k)))
    wts = np.prod(np.array(list(itertools.product(*[w / np.sqrt(np.pi)] * k))), axis=1)
    ztilde = gauss.mean + np.sqrt(gauss.var) * nodes
    total = -dist.gaussian_kl_to_standard(gauss)
    labeled = label is not None and label >= 0
    if labeled:
        total += alpha_sup * np.log(probs_y[label])
    else:
        total += -dist.categorical_kl_to_uniform(dist.CategoricalParams(probs_y))

    def recon_rows(z_rows, y_embed):
        dec_out, _ = nn.forward(
            m.decoder,
            np.concatenate([z_rows, np.tile(y_embed, (len(z_rows), 1))], axis=1))
        return _toy_log_lik(m, dec_out, np.tile(x, (len(z_rows), 1)))

    for pattern in itertools.product([0.0, 1.0], repeat=k):
        pattern = np.array(pattern)
        qz = np.exp(dist.bernoulli_log_prob(pattern, bern))
        total += qz * (ibp.ibp_prior_log_prob(pattern, ibp.stick_breaking(v0))
                       - dist.bernoulli_log_prob(pattern, bern))
        z_rows = ztilde * pattern
        if labeled:
            r = recon_rows(z_rows, np.eye(c)[label])
        elif mode == "marginalize":
            r = sum(probs_y[ci] * recon_rows(z_rows, np.eye(c)[ci]) for ci in range(c))
        else:
            r = recon_rows(z_rows, np.zeros(c))
        total += qz * float(np.sum(wts * r))
    return float(total)


def unbiasedness_suite(reps=120, num_samples=8, seed=11):
    """Mean of MC ELBO/gradient estimates vs the enumeration oracle."""
    m, x = make_enumerable_toy()
    v0 = np.array([0.7, 0.5])
    label = -1

    def objective():
        return exact_toy_elbo(m, x, label, v0) + mdl.theta_log_prior(m)[0]

    exact_val = exact_toy_elbo(m, x, label, v0)
    groups = m.parameter_groups()
    exact_grads = {name: fd_grad_all(objective, groups[name])
                   for name in ("encoder", "classifier", "decoder")}

    checks = []
    for cv in (False, True):
        cfg = bbvi.McConfig(num_samples=num_samples, use_control_variates=cv)
        tag = "unbiased/cv" if cv else "unbiased"
        vals = np.zeros(reps)
        sums = {n: np.zeros_like(groups[n]) for n in exact_grads}
        sqs = {n: np.zeros_like(groups[n]) for n in exact_grads}
        for j in range(reps):
            rng = np.random.default_rng(seed * 100_000 + j)
            bd = bbvi.estimate_elbo_and_grads(m, x[None, :], np.array([label]), cfg,
                                              rng, frozen_sticks=v0)
            vals[j] = bd.total
            for name in sums:
                sums[name] += bd.grads[name]
                sqs[name] += bd.grads[name] ** 2

        if not cv:   # the ELBO's value does not depend on the control variates
            sem = vals.std(ddof=1) / np.sqrt(reps)
            z_elbo = abs(vals.mean() - exact_val) / sem
            checks.append((f"{tag}/elbo", z_elbo < 4.0,
                           f"|z| = {z_elbo:.2f} (mean {vals.mean():.4f} "
                           f"exact {exact_val:.4f})"))
        for name in sums:
            mean = sums[name] / reps
            sem = np.sqrt(np.maximum(sqs[name] / reps - mean ** 2, 1e-30) / (reps - 1))
            diff = np.abs(mean - exact_grads[name])
            ok = bool(np.all(diff <= np.maximum(4.0 * sem, 1e-6)))
            worst = float(np.max(diff / np.maximum(sem, 1e-12)))
            checks.append((f"{tag}/grad_{name}", ok, f"max |z| = {worst:.2f}"))
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
        h = (z - pi)[:, None]
        samples = bbvi.ScoreSampleSet(f=z, h=h)
        plain[t] = bbvi.score_function_grad(samples)[0]
        a = bbvi.control_variate_coeffs(samples)
        weighted[t] = bbvi.score_function_grad(samples, a)[0]
    exact = pi * (1.0 - pi)
    sem = plain.std(ddof=1) / np.sqrt(trials)
    checks = [
        ("cv/plain_unbiased", abs(plain.mean() - exact) < 4 * sem,
         f"mean {plain.mean():.5f} exact {exact:.5f}"),
        ("cv/variance_reduced", weighted.var() < plain.var(),
         f"var {weighted.var():.3e} < {plain.var():.3e}"),
    ]
    # independent signal and score: every fitted coefficient must vanish
    big = 10_000
    z = (rng.random(big) < 0.5).astype(np.float64)
    f_ind = rng.standard_normal(big)
    a = bbvi.control_variate_coeffs(bbvi.ScoreSampleSet(f=f_ind, h=(z - 0.5)[:, None]))
    worst = float(np.max(np.abs(a)))
    checks.append(("cv/independent_coeff", worst < 0.1, f"max |a| = {worst:.4f}"))
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
