"""One fit's traced memory, in units of one (m, d, d) stack of edge blocks.

An edge block stack is what a fit holds most of: L's off blocks, each
gradient of them, and every temporary shaped like them.  On this fixture
the fit's peak is the gap estimate's, 8.07 stacks at one layer and at
two, and the bound leaves 0.43 stacks (about 5%) above it.  The backward
reaches 7.35 stacks at one layer and 7.87 at two, since no block
gradient is formed beside L's BSR form.  While the block gradients were
formed beside it, the backward peaked at 9.28 and 9.61 stacks; while the
tape held the restriction maps of every edge, built whole (m, d, d)
temporaries in pattern_outer and copied a gradient stack on every second
contribution, the fit reached 12.1.
"""

import tracemalloc

import pytest

import otsheaf.model as model
from otsheaf import Dataset, TrainConfig, fit, make_split, synthetic_dataset
from otsheaf.autodiff import backward
from otsheaf.model import forward_tape
from otsheaf.verify import _gradcheck_fixture

PEAK_STACKS = 8.5


@pytest.mark.parametrize("n_layers", [1, 2])
def test_fit_peak_stays_under_eight_and_a_half_edge_stacks(n_layers):
    g, feats, labels = synthetic_dataset(n=200, num_classes=3, d0=16, seed=0,
                                         homophily=0.8, avg_degree=6.0)
    data = Dataset(g, feats, labels, make_split(labels, per_class=5, seed=0))
    cfg = TrainConfig(d_v=16, n_layers=n_layers, epochs=1, patience=1, seed=0)
    stack = g.m * cfg.d_v * cfg.d_v * 8
    tracemalloc.start()
    try:
        fit(data, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_STACKS * stack, f"{peak / stack:.2f} stacks"


@pytest.mark.parametrize("n_layers", [1, 2])
def test_block_gradients_form_after_the_bsr_is_dropped(monkeypatch, n_layers):
    # every layer's two pattern_outer calls, the heat step's and the
    # filter's, run once the last node that applies L has dropped its BSR
    params, ctx = _gradcheck_fixture(n_layers=n_layers)
    logits, leaves, aux = forward_tape(params, ctx)
    L = aux["L"]
    assert L._bsr is not None
    bsr_held = []
    real = model.pattern_outer

    def probed(*args):
        bsr_held.append(L._bsr is not None)
        return real(*args)

    monkeypatch.setattr(model, "pattern_outer", probed)
    backward(model._loss(logits, ctx))
    assert bsr_held == [False] * (2 * n_layers)
    assert leaves["W_theta"].grad is not None
