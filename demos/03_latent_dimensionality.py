"""Inferring how many latent features the data actually needs.

Synthetic binary data is generated from 4 ground-truth features; the model
gets a truncation budget of 16 and a small IBP concentration, alpha = 0.1.
Training commits a few components and pushes the rest of the inclusion
posteriors toward zero; the component report counts what survived, and
the demo counts how many of those switch across points (spread across
points above 0.01, ROADMAP item 7's filter).  At this
config and seed all 16 are active after the first epoch, 5 by epoch 30,
and 2 at the end, but only component 1 switches (mean inclusion about
0.64, spread 0.41): component 0 is on for every point (mean 1.00, spread
0.0004), so it carries no binary feature and acts as a bias.  One
switching component against the 4 true features.  Takes a few minutes
on one core.
Run:  python demos/03_latent_dimensionality.py
"""

import numpy as np

from ibpdgm import training

cfg = training.RunConfig(
    dataset="synth-ibp", synth_n=2000, synth_test_n=200,
    synth_features=4, synth_dim=30, synth_noise=0.02,
    truncation=16, hidden=64, alpha=0.1, sigma_theta_sq=0.1,
    lr=3e-3, mc_samples=32, eval_mc_samples=2,
    epochs=300, batch_size=50, seed=123, out="runs/demo03",
)

print(f"ground-truth features: {cfg.synth_features}, "
      f"truncation budget: {cfg.truncation}")
print("training (progress every 30 epochs)...")
train_data, test_data = training.load_datasets(cfg, np.random.default_rng(cfg.seed))
result = training.train(
    cfg, train_data, test_data,
    log=lambda s: print("  " + s) if int(s.split()[1]) % 30 == 0 else None)

report = training.component_report(result.model, train_data, cfg.tau)

print()
switching = int(np.sum(report.std[report.active] > 0.01))
print(f"active components at tau={cfg.tau}: {report.count} of {cfg.truncation}, "
      f"{switching} switching across points (spread > 0.01) "
      f"(ground-truth features: {cfg.synth_features})")
print("k   mean q(zhat_k=1)   std across points   active")
for k in range(cfg.truncation):
    flag = "*" if k in set(report.active.tolist()) else ""
    print(f"{k:2d}      {report.mean[k]:.4f}            {report.std[k]:.4f}       {flag}")
print()
print(f"metrics written to {result.metrics_path}")
print(f"checkpoint written to {result.checkpoint_path}")
print("inspect the same numbers via the CLI:")
print("  python -m ibpdgm.cli report --checkpoint runs/demo03/model.ckpt --amat <file>")
