"""The benchmark's workloads: fixed synthetic fixtures, each loading a different layer.

Every workload is a `synthetic_dataset` graph, so nothing needs a download.
The graph, the features and the parameter draw come from the workload's own
fixture seed; the run seed draws the train/val/test split of each fit. The
gap ascent's cost depends on the operator it starts from: on the ascent_n40
shape, epoch time ranges from about 90 ms to 1100 ms across ten parameter
draws of one graph and from about 200 ms to 1000 ms across sixty graphs,
because a Wolfe step either accepts at once or backtracks twelve times. A
seed that redrew the graph or the parameters would spread the run medians
by tens of percent; a redrawn split changes the training trajectory, not
the fixture.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    classes: int
    d0: int
    per_class: int          # training nodes per class in each split
    variant: str
    d_v: int
    gap_steps: int
    n_layers: int
    epochs: int             # epochs per fit; patience equals it
    tail_pct: float         # highest percentile with ten epochs beyond it
    homophily: float = 0.8
    noise: float = 1.0
    avg_degree: float = 6.0
    fixture_seed: int = 0

    def graph(self):
        from otsheaf import synthetic_dataset
        return synthetic_dataset(n=self.n, num_classes=self.classes, d0=self.d0,
                                 seed=self.fixture_seed, homophily=self.homophily,
                                 avg_degree=self.avg_degree, noise=self.noise)

    def config(self):
        from otsheaf import TrainConfig
        return TrainConfig(d_v=self.d_v, gap_steps=self.gap_steps,
                           n_layers=self.n_layers, epochs=self.epochs,
                           patience=self.epochs, optimizer="adam", lr=1e-2,
                           seed=self.fixture_seed)

    def tiny(self) -> "Workload":
        """The same code paths at a size that trains in well under a second."""
        return replace(self, n=max(12, self.n // 20), d0=min(self.d0, 8),
                       per_class=2, d_v=min(self.d_v, 3), epochs=2)


def split_seed(run_seed: int, fit: int) -> int:
    """Split seed of the run's fit number `fit`; independent across fits."""
    return int(np.random.SeedSequence([run_seed, fit]).generate_state(1)[0])


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ascent_n40",
        why=("per-epoch gap ascent is ~98% of the epoch: the spectral layer "
             "(project, Wolfe steps, Lanczos at N=240); lift and tape are small; "
             "epoch_ms_tail = p80"),
        n=40, classes=3, d0=8, homophily=0.8, noise=0.4, per_class=5,
        variant="we_lift", d_v=6, gap_steps=2, n_layers=1, epochs=5,
        tail_pct=80.0),
    Workload(
        name="lift_n300",
        why=("transport lift is most of setup_s and eval_s; epochs are two "
             "Lanczos gap estimates at N=4800; ascent bypassed; "
             "epoch_ms_tail = p50, too few epochs for a tail"),
        n=300, classes=5, d0=64, per_class=20, variant="we_lift", d_v=16,
        gap_steps=0, n_layers=1, epochs=1, tail_pct=50.0),
)}
