"""Edge-agreement posteriors, calibrated predictions, and honest bounds.

Every edge carries a Beta belief about whether its endpoints agree, and
every belief starts from the same Beta(a0, b0) prior: two numbers, which
the posterior keeps for its KL term.  Confident predictions move those
beliefs; the node-level trust scores temper the softmax before it is
scored.  Training runs these same three steps as one stage
(`otsheaf.training.calibrate`).  The last section shows why the
claimed posterior-variance cap is checked empirically rather than assumed:
the exact Beta variance crosses it on part of the grid.
"""

import numpy as np

from otsheaf.calibration import (
    beta_variance,
    calibrate_prediction,
    ece,
    kl_term,
    node_kappa,
    posterior_update,
    variance_bound,
)
from otsheaf.graphs import Labels, synthetic_dataset

g, feats, labels = synthetic_dataset(n=30, num_classes=3, d0=6, seed=4,
                                     homophily=0.8, noise=0.3)
train_idx = np.arange(0, g.n, 2)

# an overconfident predictor: 99% sure everywhere, wrong on a third
rng = np.random.default_rng(4)
y_pred = labels.y.copy()
wrong = rng.choice(g.n, size=10, replace=False)
y_pred[wrong] = (y_pred[wrong] + 1) % labels.C
y_hat = np.full((g.n, labels.C), 0.01 / (labels.C - 1))
y_hat[np.arange(g.n), y_pred] = 0.99

a0, b0 = 1.0, 1.0   # the uniform prior on every edge
post = posterior_update(a0, b0, y_hat, g, labels, train_idx, gamma_cap=50.0,
                        n_msg=1)
kappa = node_kappa(post, g)
print(f"edge trust kappa_bar: min {post.kappa_bar.min():.3f}, "
      f"mean {post.kappa_bar.mean():.3f}, max {post.kappa_bar.max():.3f}")
print(f"node trust: wrong nodes mean {kappa[wrong].mean():.3f} vs "
      f"others {np.delete(kappa, wrong).mean():.3f}")

cal = calibrate_prediction(y_hat, kappa)
e_raw, _ = ece(y_hat, labels, np.arange(g.n))
e_cal, rows = ece(cal, labels, np.arange(g.n))
print(f"ece before calibration {e_raw:.4f}, after {e_cal:.4f}")
print("reliability bins (low, high, confidence, accuracy, count):")
for lo, hi, conf, acc, cnt in rows:
    if cnt:
        print(f"  [{lo:.1f},{hi:.1f}) conf {conf:.3f} acc {acc:.3f} n={cnt}")

print(f"\nkl complexity term at n={train_idx.size}: "
      f"{kl_term(post, train_idx.size, 0.05):.4f}")

# the variance cap: mostly true, but not a theorem
print("\nposterior variance against the stated cap (gamma=2):")
for n_tot, s in [(5, 4), (13, 6), (20, 10)]:
    v = beta_variance(1.0 + 2 * s, 1.0 + 2 * (n_tot - s))
    cap = variance_bound(2, n_tot)
    flag = "OK " if v <= cap else "VIOLATED"
    print(f"  n_tot={n_tot:2d} s={s:2d}: variance {v:.6f} cap {cap:.6f} {flag}")
