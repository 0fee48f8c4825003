"""Train the full pipeline on a synthetic benchmark and read the reports.

One run with the transport lift, one with plain scalar edges, plus a depth
sweep showing where the scalar baseline starts to oversmooth.  The curve
CSV is written to a temporary directory that is removed once written, so a
run leaves nothing behind.
"""

import tempfile
from pathlib import Path

import numpy as np

from otsheaf.graphs import make_split, synthetic_dataset
from otsheaf.training import (
    Dataset,
    TrainConfig,
    evaluate,
    fit,
    oversmoothing_sweep,
    risk_variance_series,
    write_curves,
)

g, feats, labels = synthetic_dataset(n=60, num_classes=3, d0=10, seed=3,
                                     homophily=0.8, noise=0.5)
split = make_split(labels, per_class=10, seed=3)
data = Dataset(g=g, feats=feats, labels=labels, split=split)
cfg = TrainConfig(d_v=6, epochs=30, patience=30, seed=3, optimizer="adam",
                  lr=1e-2)

print(f"dataset: n={g.n} m={g.m} C={labels.C}, "
      f"train/val/test {split.train.size}/{split.val.size}/{split.test.size}")

for variant in ("we_lift", "scalar_edge"):
    params, reports = fit(data, cfg, variant=variant)
    res = evaluate(params, data, cfg, variant=variant)
    last = reports[-1]
    print(f"\n{variant}: test acc {res.test_acc:.3f}, ece {res.ece:.3f}, "
          f"nrs {res.nrs:.3f}")
    print(f"  final epoch: emp {last.emp_risk:.3f} kl {last.kl:.3f} "
          f"spec {last.spec:.3f} lambda2 {last.lambda2:.4f}")
    if variant == "we_lift":
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "curves.csv"
            write_curves(reports, out)
            print(f"  curves written to {out}")
        stats = risk_variance_series(reports, warmup=10)
        print(f"  bound series: {stats.bounds[0]:.2f} -> {stats.bounds[-1]:.2f}, "
              f"post-warmup monotone fraction {stats.monotone_fraction:.2f}")

# depth sweep: how much do deep stacks collapse node representations?
rows = oversmoothing_sweep(data, [1, 4, 8],
                           cfg=TrainConfig(d_v=6, epochs=12, patience=12,
                                           seed=3))
print("\ndepth sweep (variant, depth, test accuracy, neighborhood similarity):")
for r in rows:
    print(f"  {r['variant']:12s} depth {r['depth']}: acc {r['test_acc']:.3f} "
          f"nrs {r['nrs']:.3f}")
