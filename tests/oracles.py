"""Independent oracles shared by the test modules.

These deliberately avoid the library's own gradient/estimation code:
finite differences for gradients, brute-force enumeration for discrete
normalization, Gauss-Hermite tensor quadrature for Gaussian expectations,
and scipy for special functions and adaptive integration.
"""

import itertools

import numpy as np

from ibpdgm import nn, distributions as dist, ibp, model as mdl


def central_diff(fun, x0, i, h=1e-5):
    x = np.array(x0, dtype=np.float64)
    x[i] += h
    fp = fun(x)
    x[i] -= 2 * h
    fm = fun(x)
    return (fp - fm) / (2 * h)


def rel_err(a, b, floor=1e-8):
    denom = max(abs(a), abs(b))
    if denom < floor:
        return abs(a - b)
    return abs(a - b) / denom


def fd_grad_all(objective, params, h=1e-5):
    """Central finite differences of a scalar objective over a flat array."""
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


def enumerate_binary(k):
    for bits in itertools.product([0.0, 1.0], repeat=k):
        yield np.array(bits)


def sigmoid_masked(x):
    """The logistic function by boolean masks: 1 / (1 + exp(-x)) where
    x >= 0 and exp(x) / (1 + exp(x)) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bernoulli_likelihood_rows(m, dec_out, x):
    """log p(x | decoder output) per row, recomputed from first principles."""
    p = 1.0 / (1.0 + np.exp(-dec_out))
    return np.sum(x * np.log(p) + (1.0 - x) * np.log1p(-p), axis=1)


def exact_toy_elbo(m, x, label, v0, mode="marginalize", alpha_sup=0.0,
                   gh_nodes=32):
    """Exact ELBO of the K<=2 toy: enumerate spikes, Gauss-Hermite the slab.

    Requires a decoder without ReLU kinks so the quadrature converges to
    machine precision; sticks are held at the constant v0 (stick term 0).
    """
    k, c = m.K, m.C
    gauss, bern, _ = mdl.encode(m, x)
    probs_y = mdl.classify(m, x).probs
    t, w = np.polynomial.hermite.hermgauss(gh_nodes)
    nodes = np.array(list(itertools.product(*[np.sqrt(2.0) * t] * k)))
    wts = np.prod(np.array(list(itertools.product(*[w / np.sqrt(np.pi)] * k))),
                  axis=1)
    ztilde = gauss.mean + np.sqrt(gauss.var) * nodes

    total = -dist.gaussian_kl_to_standard(gauss)
    labeled = label is not None and label >= 0
    if labeled:
        total += alpha_sup * np.log(probs_y[label])
    else:
        total += -dist.categorical_kl_to_uniform(dist.CategoricalParams(probs_y))

    def recon(z_rows, y_embed):
        out, _ = nn.forward(
            m.decoder,
            np.concatenate([z_rows, np.tile(y_embed, (len(z_rows), 1))], axis=1))
        if m.likelihood_kind == "bernoulli":
            return bernoulli_likelihood_rows(m, out, np.tile(x, (len(z_rows), 1)))
        mean = out[:, :m.D]
        var = np.log1p(np.exp(-np.abs(out[:, m.D:]))) \
            + np.maximum(out[:, m.D:], 0.0) + 1e-6
        return -0.5 * np.sum(np.log(2 * np.pi * var)
                             + (np.tile(x, (len(z_rows), 1)) - mean) ** 2 / var,
                             axis=1)

    for pattern in enumerate_binary(k):
        qz = np.exp(dist.bernoulli_log_prob(pattern, bern))
        total += qz * (ibp.ibp_prior_log_prob(pattern, ibp.stick_breaking(v0))
                       - dist.bernoulli_log_prob(pattern, bern))
        z_rows = ztilde * pattern
        if labeled:
            r = recon(z_rows, np.eye(c)[label])
        elif mode == "marginalize":
            r = sum(probs_y[ci] * recon(z_rows, np.eye(c)[ci]) for ci in range(c))
        else:
            r = recon(z_rows, np.zeros(c))
        total += qz * float(np.sum(wts * r))
    return float(total)


def make_enumerable_toy(seed=7, input_dim=5, num_classes=2, kind="bernoulli"):
    rng = np.random.default_rng(seed)
    m = mdl.build_model(input_dim, num_classes, 2, 4, kind, 2.0, 1.0, rng)
    m.decoder.activations[0] = "identity"
    if kind == "bernoulli":
        x = (rng.random(input_dim) < 0.5).astype(np.float64)
    else:
        x = rng.normal(size=input_dim)
    return m, x


def _expect_sticks(fun, a, b, nodes=200):
    """E[fun(v1, v2)] under independent Beta(a[0], b[0]) x Beta(a[1], b[1]),
    by tensor Gauss-Jacobi quadrature (scipy.special.roots_jacobi); fun
    must accept arrays."""
    import scipy.special

    rules = []
    for ak, bk in zip(a, b):
        # weight (1 - t)^(b-1) (1 + t)^(a-1) on [-1, 1] is Beta(a, b) in v
        t, w = scipy.special.roots_jacobi(nodes, bk - 1.0, ak - 1.0)
        rules.append(((t + 1.0) / 2.0, w / w.sum()))
    (v1, w1), (v2, w2) = rules
    return float(np.sum(np.outer(w1, w2) * fun(v1[:, None], v2[None, :])))


def exact_stick_objective(stick_params, alpha, incl, dataset_size):
    """Exact stick-dependent part of the ELBO for K = 2 sticks.

    stick_params is [log_a | log_b]; incl is the (B, 2) matrix of spike
    inclusion probabilities of the batch.  Returns
    (N / B) sum_b sum_zhat q(zhat | x_b) E_q(v)[log p(zhat | v)]
    + E_q(v)[log p(v) - log q(v)], with the spikes enumerated, every
    expectation over v integrated by scipy quadrature, and the Beta
    densities taken from scipy.stats.
    """
    import scipy.stats

    a, b = np.exp(stick_params[:2]), np.exp(stick_params[2:])
    incl = np.atleast_2d(incl)
    total = 0.0
    for pattern in enumerate_binary(2):
        q = np.prod(np.where(pattern == 1.0, incl, 1.0 - incl), axis=1).sum()

        def log_p_spikes(v1, v2, z=pattern):
            pi1, pi2 = v1, v1 * v2
            return (z[0] * np.log(pi1) + (1.0 - z[0]) * np.log1p(-pi1)
                    + z[1] * np.log(pi2) + (1.0 - z[1]) * np.log1p(-pi2))

        total += dataset_size / incl.shape[0] * q * _expect_sticks(log_p_spikes, a, b)

    def log_ratio(v1, v2):
        return (scipy.stats.beta.logpdf(v1, alpha, 1.0)
                + scipy.stats.beta.logpdf(v2, alpha, 1.0)
                - scipy.stats.beta.logpdf(v1, a[0], b[0])
                - scipy.stats.beta.logpdf(v2, a[1], b[1]))

    return total + _expect_sticks(log_ratio, a, b)
