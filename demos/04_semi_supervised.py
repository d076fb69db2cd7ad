"""Semi-supervised classification with 1% labels.

Two Gaussian class blobs in 20 dimensions, 5000 points, only 1% labeled.
Labeled points train their class-conditional decoder directly; unlabeled
points marginalize the reconstruction over the classifier's soft labels,
which feeds gradient back into the classifier.  Takes a few minutes.
Run:  python demos/04_semi_supervised.py
"""

from ibpdgm import training

cfg = training.RunConfig(
    dataset="synth-blobs", synth_n=5000, synth_test_n=1000,
    synth_classes=2, synth_dim=20, synth_separation=4.0,
    likelihood="gaussian", labeled_fraction=0.01,
    truncation=8, hidden=64, alpha=1.0, sigma_theta_sq=0.1,
    lr=1e-3, mc_samples=8, eval_mc_samples=2, unlabeled_mode="marginalize",
    epochs=30, batch_size=100, seed=5, out="runs/demo04",
)

n_labeled = int(round(cfg.labeled_fraction * cfg.synth_n))
print(f"{cfg.synth_n} points, ~{n_labeled} labeled, "
      f"{cfg.synth_classes} classes in {cfg.synth_dim} dimensions")
print("training...")
result = training.train(
    cfg, log=lambda s: print("  " + s) if int(s.split()[1]) % 5 == 0 else None)

last = result.history[-1]
print()
print(f"final train error (labeled subset): {last[7]:.2f}%")
print(f"final test error:                   {last[8]:.2f}%")
print(f"metrics: {result.metrics_path}")
print()
print("evaluate any checkpoint against a dataset file:")
print("  python -m ibpdgm.cli eval --checkpoint runs/demo04/model.ckpt --amat <file>")
