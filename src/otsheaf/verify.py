"""Self-contained empirical checks of the pipeline's theoretical claims.

Every check measures the quantity the theory speaks about on its own
synthetic fixture and returns it with the stated bound, a PASS/FAIL verdict
and per-fixture detail lines; nothing is asserted here so drivers can
decide how to report.  No check takes a parameter; the fixtures are:
- cg-bound: Erdos-Renyi n = 100, 1000, 10 000 (degree 6, seeds 100-102),
  eps 0.3, 100 right-hand sides each, CG tolerance 1e-8;
- gap-ascent: ER(20, degree 4, seed 7), random 2x2 maps, 50 accepted steps;
- variance: gamma 2..10 by n_tot 0..50, every count s;
- contraction, bound-validity: one 60-epoch planted-partition run (n=40,
  seed 0, d_v=6), contraction after 20 warmup epochs;
- gradcheck: 10 nodes, 1 layer, C = d_v = d_e = 3, seeds 0..39, tol 1e-4;
- oversmoothing: planted partition (n=60, seed 3), depths 1 and 8;
- sparsifier: the complete graph on 300 nodes, eps 0.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .calibration import beta_variance, variance_bound
from .diffusion import CGConfig, cg_solve
from .graphs import Graph, SplitMask, erdos_renyi, synthetic_dataset
from .laplacian import (
    SheafIncidence,
    assemble_laplacian,
    sparsify,
    top_eigenvalue,
)
from .model import (
    EpochContext,
    finite_difference_gradients,
    forward_tape,
    grad_params,
    init_params,
)
from .spectral import run_gap_ascent
from .training import (
    Dataset,
    TrainConfig,
    evaluate,
    fit,
    oversmoothing_sweep,
    risk_variance_series,
)
from .transport import edge_plans

# Gaussian probes of the sparsifier's quadratic-form sandwich
SANDWICH_PROBES = 1000


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: list = field(default_factory=list)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"[{self.name:<14}] measured {self.measured:.6g} "
                f"vs bound {self.bound:.6g}: {verdict}")


def _scalar_sheaf(g: Graph) -> SheafIncidence:
    ones = np.ones((g.m, 1, 1))
    return SheafIncidence(n=g.n, edges=g.edges, Rij=ones.copy(),
                          Rji=ones.copy())


def check_cg_bound() -> CheckResult:
    """Implicit-diffusion CG iteration counts against the kappa ceiling.

    With dt = 1/lambda_max the system (I + dt L) has condition number at
    most 2, plus the sparsifier's (1 +- eps) slack, so unpreconditioned CG
    must finish within ceil(sqrt(2 + eps) * ln(||r0|| / tol)) iterations.
    Also checks that iteration counts barely move across graph sizes.
    sparsify passes all three graphs through unchanged: it samples only
    when m > ceil(n ln n / eps^2), and at eps = 0.3 they have m = 380,
    3908 and 40 274 against 5117, 76 753 and 1 023 372.
    """
    eps, cg_tol = 0.3, 1e-8
    detail = []
    worst_iters = 0
    tightest_ceiling = np.inf
    means = []
    all_within = True
    for size_idx, n in enumerate((100, 1000, 10000)):
        g = erdos_renyi(n, 6.0, seed=100 + size_idx, ensure_connected=True)
        L = sparsify(_scalar_sheaf(g), eps, size_idx)
        dt = 1.0 / top_eigenvalue(L.to_bsr(), 0)

        def apply_A(v, L=L, dt=dt):
            return v + dt * L.matvec(v)

        rng = np.random.default_rng(1000 + size_idx)
        iters, ceilings = [], []
        for _ in range(100):
            b = rng.normal(size=L.N)
            ceiling = int(np.ceil(np.sqrt(2.0 + eps)
                                  * np.log(np.linalg.norm(b) / cg_tol)))
            res = cg_solve(apply_A, b, CGConfig(tol=cg_tol,
                                                max_iter=10 * ceiling))
            iters.append(res.iterations)
            ceilings.append(ceiling)
            all_within &= res.iterations <= ceiling
        worst_iters = max(worst_iters, max(iters))
        tightest_ceiling = min(tightest_ceiling, min(ceilings))
        means.append(np.mean(iters))
        detail.append(f"n={n}: mean {np.mean(iters):.1f} max {max(iters)} "
                      f"ceiling {min(ceilings)}")
    ratio = max(means) / min(means)
    detail.append(f"mean-iteration ratio across sizes {ratio:.3f} (limit 2)")
    passed = all_within and ratio <= 2.0
    return CheckResult("cg-bound", passed,
                       measured=float(worst_iters), bound=tightest_ceiling,
                       detail=detail)


def check_gap_ascent() -> CheckResult:
    """Consecutive accepted Wolfe steps must never decrease the objective."""
    g = erdos_renyi(20, 4.0, seed=7, ensure_connected=True)
    rng = np.random.default_rng(7)
    B = SheafIncidence(n=g.n, edges=g.edges,
                       Rij=rng.normal(size=(g.m, 2, 2)),
                       Rji=rng.normal(size=(g.m, 2, 2)))
    _, history = run_gap_ascent(assemble_laplacian(B), steps=50, seed=7)
    # an accepted step raises lambda2 strictly; the ascent repeats the last
    # value for a rejected step and every step after it
    rises = [b > a for a, b in zip(history, history[1:])]
    streak = rises.index(False) if False in rises else len(rises)
    drops = [b - a for a, b in zip(history, history[1:]) if b < a - 1e-8]
    passed = streak >= 50 and not drops
    detail = [f"consecutive accepted steps {streak}/50",
              f"lambda2 {history[0]:.6g} -> {history[-1]:.6g}",
              f"decreases beyond 1e-8: {len(drops)}"]
    return CheckResult("gap-ascent", passed,
                       measured=float(len(drops)), bound=0.0, detail=detail)


def check_variance() -> CheckResult:
    """Posterior-variance bound and 60%-contraction ratio over the full grid.

    The exact Beta posterior variance with a uniform prior and gamma-scaled
    counts is compared cell by cell; violations are listed rather than
    hidden, so a failing claim fails visibly.
    """
    prior_var = beta_variance(1.0, 1.0)
    bound_violations = []
    ratio_violations = []
    cells = 0
    ratio_cells = 0
    for gamma in range(2, 11):
        for n_tot in range(0, 51):
            cap = variance_bound(gamma, n_tot)
            for s in range(0, n_tot + 1):
                cells += 1
                v = beta_variance(1.0 + gamma * s,
                                  1.0 + gamma * (n_tot - s))
                if v > cap + 1e-15:
                    bound_violations.append((gamma, n_tot, s, v, cap))
                if n_tot >= 5:
                    ratio_cells += 1
                    if v / prior_var > 0.6 + 1e-12:
                        ratio_violations.append((gamma, n_tot, s,
                                                 v / prior_var))
    detail = [f"grid cells {cells}, bound violations "
              f"{len(bound_violations)}, ratio cells {ratio_cells}, "
              f"ratio violations {len(ratio_violations)}"]
    for gamma, n_tot, s, v, cap in bound_violations[:3]:
        detail.append(f"  variance {v:.6g} > bound {cap:.6g} at "
                      f"gamma={gamma} n_tot={n_tot} s={s}")
    for gamma, n_tot, s, r in ratio_violations[:3]:
        detail.append(f"  ratio {r:.3f} > 0.6 at gamma={gamma} "
                      f"n_tot={n_tot} s={s}")
    passed = not bound_violations and not ratio_violations
    return CheckResult("variance", passed,
                       measured=float(len(bound_violations)
                                      + len(ratio_violations)),
                       bound=0.0, detail=detail)


@lru_cache(maxsize=None)
def _synthetic_run():
    """Planted-partition run with a frozen identity sheaf.

    The scalar variant keeps the connectivity term pinned to the plain
    graph gap, so the bound series moves only through quantities the
    contraction argument actually speaks about.
    """
    g, feats, labels = synthetic_dataset(n=40, num_classes=3, d0=8, seed=0,
                                         homophily=0.8, noise=0.4)
    rng = np.random.default_rng(0)
    perm = rng.permutation(g.n)
    k = g.n // 4
    split = SplitMask(train=perm[:2 * k], val=perm[2 * k:3 * k],
                      test=perm[3 * k:], seed=0)
    data = Dataset(g=g, feats=feats, labels=labels, split=split)
    cfg = TrainConfig(d_v=6, epochs=60, patience=60, seed=0,
                      optimizer="adam", lr=1e-2)
    params, reports = fit(data, cfg, variant="scalar_edge")
    return data, cfg, params, reports


def check_contraction() -> CheckResult:
    """The bound series should mostly shrink after 20 warmup epochs."""
    _, _, _, reports = _synthetic_run()
    stats = risk_variance_series(reports, warmup=20)
    detail = [f"epochs {len(reports)}, post-warmup monotone fraction "
              f"{stats.monotone_fraction:.3f}, fitted rate {stats.rate:.3f}",
              f"B first/last: {stats.bounds[0]:.4f} -> {stats.bounds[-1]:.4f}"]
    return CheckResult("contraction", stats.monotone_fraction >= 0.9,
                       measured=stats.monotone_fraction, bound=0.9,
                       detail=detail)


def check_bound_validity() -> CheckResult:
    """The reported bound must sit above the normalized test risk."""
    data, cfg, params, reports = _synthetic_run()
    best_epoch = int(np.argmax([r.val_acc for r in reports]))
    bound = reports[best_epoch].bound
    res = evaluate(params, data, cfg, variant="scalar_edge")
    idx = data.split.test
    probs = res.predictions[idx, data.labels.y[idx]]
    risk = float(-np.log(np.clip(probs, 1e-12, None)).mean()
                 / np.log(data.labels.C))
    risk = min(risk, 1.0)
    detail = [f"normalized test risk {risk:.4f} vs bound {bound:.4f} "
              f"(epoch {best_epoch})"]
    return CheckResult("bound-validity", risk <= bound,
                       measured=risk, bound=bound, detail=detail)


def _gradcheck_fixture(n_layers: int = 1):
    """10-node fixture kept away from ReLU kinks and eigenvalue crossings.

    Central differences only see the smooth branch if no pre-activation
    sits within the step of zero and no diagonal block has near-repeated
    or near-cutoff eigenvalues, so seeds are scanned for adequate margins.
    Features are strictly positive so every lifted atom carries real mass,
    and d_e = d_v keeps the near-diagonal plans full rank.
    """
    edges = [(i, (i + 1) % 10) for i in range(10)] + [(0, 5), (2, 7)]
    g = Graph.from_edges(10, edges)
    for trial in range(40):
        rng = np.random.default_rng(trial)
        H = rng.uniform(0.5, 1.5, size=(10, 5))
        y = rng.integers(0, 3, size=10)
        params = init_params(d0=5, d_v=3, d_e=3, C=3, cheb_order=3,
                             seed=trial)
        params.W_proj = rng.uniform(0.2, 0.8, size=params.W_proj.shape)
        params.W_theta = rng.normal(0.0, 0.8, size=params.W_theta.shape)
        params.gamma = rng.normal(0.0, 0.4, size=params.gamma.shape)
        params.W_cls = rng.normal(0.0, 0.4, size=params.W_cls.shape)
        X0 = H @ params.W_proj
        ctx = EpochContext(
            n=g.n, d_v=3, edges=g.edges, plans=edge_plans(g.edges, X0, 0.5),
            X0=X0, y=y, train_idx=np.arange(0, 10, 2),
            kappa=rng.uniform(0.4, 0.9, size=g.n),
            dt=0.1, cg_tol=1e-12, cg_max_iter=4000, n_layers=n_layers)
        _, _, aux = forward_tape(params, ctx)
        pre = np.concatenate([p.ravel() for p in aux["pre_acts"]])
        w = aux["L"].block_eigh()[0]
        gaps = np.diff(w, axis=1).min()
        if np.abs(pre).min() > 5e-3 and gaps > 1e-2 and w.min() > 1e-2:
            return params, ctx
    raise RuntimeError("no fixture seed with adequate smoothness margins")


def check_gradcheck() -> CheckResult:
    """Reverse-mode gradients against central differences, per block."""
    params, ctx = _gradcheck_fixture()
    grads, _, _ = grad_params(params, ctx)
    fd = finite_difference_gradients(params, ctx)
    detail = []
    worst = 0.0
    for name in sorted(grads):
        scale = max(np.linalg.norm(fd[name]), np.linalg.norm(grads[name]),
                    1e-12)
        err = float(np.linalg.norm(fd[name] - grads[name]) / scale)
        worst = max(worst, err)
        detail.append(f"{name}: relative error {err:.3e}")
    return CheckResult("gradcheck", worst <= 1e-4, measured=worst, bound=1e-4,
                       detail=detail)


@lru_cache(maxsize=None)
def check_oversmoothing() -> CheckResult:
    """Deep stacks must smooth less with learned transport than with scalars."""
    g, feats, labels = synthetic_dataset(n=60, num_classes=3, d0=10,
                                         seed=3, homophily=0.8, noise=0.5)
    rng = np.random.default_rng(3)
    perm = rng.permutation(g.n)
    split = SplitMask(train=perm[:30], val=perm[30:45], test=perm[45:], seed=3)
    data = Dataset(g=g, feats=feats, labels=labels, split=split)
    cfg = TrainConfig(d_v=6, epochs=12, patience=12, seed=3)
    rows = oversmoothing_sweep(data, [1, 8], cfg=cfg)
    table = {(r["variant"], r["depth"]): r for r in rows}
    nrs_we = table[("we_lift", 8)]["nrs"]
    nrs_scalar = table[("scalar_edge", 8)]["nrs"]
    detail = [f"{r['variant']} depth {r['depth']}: acc {r['test_acc']:.3f} "
              f"nrs {r['nrs']:.3f}" for r in rows]
    return CheckResult("oversmoothing", nrs_we < nrs_scalar,
                       measured=nrs_we, bound=nrs_scalar, detail=detail)


def check_sparsifier() -> CheckResult:
    """Quadratic-form sandwich (1 +- eps) on SANDWICH_PROBES Gaussian probes.

    The complete graph puts the edge count far above the sampling target,
    so the sparsifier genuinely resamples instead of passing through.
    """
    eps = 0.3
    B = _scalar_sheaf(erdos_renyi(300, 299.0, seed=11))
    L = assemble_laplacian(B)
    Ls = sparsify(B, eps, 11)
    rng = np.random.default_rng(12)
    ok = 0
    for _ in range(SANDWICH_PROBES):
        x = rng.normal(size=L.N)
        q = x @ L.matvec(x)
        qs = x @ Ls.matvec(x)
        if (1 - eps) * q - 1e-9 <= qs <= (1 + eps) * q + 1e-9:
            ok += 1
    frac = ok / SANDWICH_PROBES
    detail = [f"edges {L.m} -> {Ls.m}; {ok}/{SANDWICH_PROBES} probes inside "
              f"the (1 +- {eps}) sandwich"]
    return CheckResult("sparsifier", frac >= 0.99, measured=frac, bound=0.99,
                       detail=detail)


CHECKS = {
    "cg-bound": check_cg_bound,
    "gap-ascent": check_gap_ascent,
    "variance": check_variance,
    "contraction": check_contraction,
    "bound-validity": check_bound_validity,
    "gradcheck": check_gradcheck,
    "oversmoothing": check_oversmoothing,
    "sparsifier": check_sparsifier,
}


def run_checks(names=None) -> list[CheckResult]:
    """Run the named checks (all of them by default), in registry order."""
    if names is None or names == ["all"]:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}; "
                       f"available: {', '.join(CHECKS)}")
    return [CHECKS[name]() for name in names]
