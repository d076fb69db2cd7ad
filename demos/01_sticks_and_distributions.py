"""Stick-breaking feature probabilities and the distribution toolbox.

Walks through the building blocks: Beta stick draws, the decaying feature
probabilities they induce, the hierarchical prior over binary feature
ownership, and the score gradients that make black-box inference possible.
Run:  python demos/01_sticks_and_distributions.py
"""

import numpy as np

from ibpdgm import distributions as dist, ibp

rng = np.random.default_rng(0)

print("=== stick-breaking: decaying feature probabilities ===")
alpha, K = 2.0, 10
log_v, _ = dist.beta_sample_array(alpha, 1.0, (K,), rng)   # (log v, log(1 - v))
pi = np.exp(np.cumsum(log_v))
print(f"stick fractions v ~ Beta({alpha}, 1):")
print(" ", np.round(np.exp(log_v), 3))
print("feature probabilities pi_k = prod_j<=k v_j (non-increasing):")
print(" ", np.round(pi, 4))

print()
print("=== prior moments: E[pi_k] = (alpha/(alpha+1))^k ===")
log_draws, _ = dist.beta_sample_array(alpha, 1.0, (100_000, K), rng)
pi_draws = np.exp(np.cumsum(log_draws, axis=1))
expected = (alpha / (alpha + 1.0)) ** np.arange(1, K + 1)
print("k   MC mean   closed form")
for k in range(K):
    print(f"{k:2d}  {pi_draws[:, k].mean():.4f}    {expected[k]:.4f}")

print()
print("=== binary ownership under the hierarchical prior ===")
zhat = (rng.random((5, K)) < pi).astype(float)
for row in zhat:
    lp = ibp.ibp_prior_log_prob_from_sticks(row, log_v).sum()
    print(" ", row.astype(int), f"log prior {lp:8.3f}")
print("later features switch on rarely; that is the dimensionality control.")

print()
print("=== score gradients: the log-derivative trick's raw material ===")
v0 = 0.3
da, db = map(float, dist.beta_score_grad(np.log(v0), np.log1p(-v0), 2.0, 1.5))
print(f"d/da log Beta({v0}; a=2.0, b=1.5) = {da:+.4f}")
print(f"d/db log Beta({v0}; a=2.0, b=1.5) = {db:+.4f}")
logits = np.array([0.0, 2.0])
z = np.array([1.0, 0.0])
print(f"d/dlogit log Bern({z.astype(int)}; probs={np.round(dist.sigmoid(logits), 2)}) "
      f"= {np.round(dist.bernoulli_score_grad(z, logits), 4)}")
print("every one of these matches finite differences; see the self-test:")
print("  python -m ibpdgm.cli selftest")
