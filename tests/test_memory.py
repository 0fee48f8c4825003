"""One fit's traced memory, in units of one (m, d, d) stack of edge blocks.

An edge block stack is what a fit holds most of: L's off blocks, each
gradient of them, and every temporary shaped like them.  The bound sits
between what the tape reaches when it holds each such stack once, about
9.3 stacks on this fixture, and the 12.1 it reached while it held the
restriction maps of every edge, built whole (m, d, d) temporaries in
pattern_outer and copied a gradient stack on every second contribution.
"""

import tracemalloc

from otsheaf import Dataset, TrainConfig, fit, make_split, synthetic_dataset

PEAK_STACKS = 10.0


def test_fit_peak_stays_under_ten_edge_stacks():
    g, feats, labels = synthetic_dataset(n=200, num_classes=3, d0=16, seed=0,
                                         homophily=0.8, avg_degree=6.0)
    data = Dataset(g, feats, labels, make_split(labels, per_class=5, seed=0))
    cfg = TrainConfig(d_v=16, n_layers=1, epochs=1, patience=1, seed=0)
    stack = g.m * cfg.d_v * cfg.d_v * 8
    tracemalloc.start()
    try:
        fit(data, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_STACKS * stack, f"{peak / stack:.2f} stacks"
