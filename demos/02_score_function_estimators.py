"""Score-function gradient estimation and weighted score control variates.

A single Bernoulli latent with f(z) = z has a known exact gradient,
d E[z] / d logit = pi (1 - pi), so we can watch the estimator hit it and
measure how much variance the control variates remove.  Each sample's
coefficient is fitted on the other samples only (leave-one-out), so the
weighted estimate stays unbiased.
Run:  python demos/02_score_function_estimators.py
"""

import numpy as np

from ibpdgm import bbvi, distributions as dist

rng = np.random.default_rng(1)

logit = 0.4
pi = float(dist.sigmoid(np.array(logit)))
exact = pi * (1.0 - pi)
print(f"toy: z ~ Bernoulli({pi:.3f}), f(z) = z")
print(f"exact gradient d E[z]/d logit = pi(1-pi) = {exact:.5f}")
print()

S = 10
trials = 4000
plain = np.zeros(trials)
weighted = np.zeros(trials)
coeffs = np.zeros((trials, S))
for t in range(trials):
    z = (rng.random(S) < pi).astype(float)
    samples = bbvi.ScoreSampleSet(f=z[:, None], h=(z - pi)[:, None])
    plain[t] = bbvi.score_function_grad(samples, 0.0)[0]
    a = bbvi.control_variate_coeffs(samples)
    coeffs[t] = a[:, 0]
    weighted[t] = bbvi.score_function_grad(samples, a)[0]

print(f"{trials} estimates, {S} samples each:")
print(f"  plain    : mean {plain.mean():+.5f}   var {plain.var():.2e}")
print(f"  weighted : mean {weighted.mean():+.5f}   var {weighted.var():.2e}")
print(f"  variance ratio (weighted / plain): {weighted.var() / plain.var():.3f}")
print(f"  per-sample coefficients a_s: mean {coeffs.mean():.3f}, "
      f"spread within a set {coeffs.std(axis=1).mean():.3f}")
print()

print("when signal and score are independent, every coefficient vanishes:")
S = 10_000
z = (rng.random(S) < 0.5).astype(float)
f_ind = rng.standard_normal(S)
a = bbvi.control_variate_coeffs(bbvi.ScoreSampleSet(f=f_ind[:, None], h=(z - 0.5)[:, None]))
print(f"  max |a_s| = {np.max(np.abs(a)):.4f} at S = {S}")
