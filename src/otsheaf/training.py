"""Epoch loop tying the pipeline together.

One epoch runs four stages in a fixed order: (1) restriction maps and
Laplacian blocks on the tape, (2) the two-branch diffusion forward pass
and the spectral-gap ascent on that same Laplacian, (3) the
Beta-posterior fixed point that refreshes the calibration weights, and
(4) loss assembly and the parameter step.  The ascent's first gap
estimate prices the spectral penalty and its last one is reported.  The
transport plans depend only on the frozen feature projection, so they
are computed once per run and cached.

Within an epoch the plans, calibration weights, coupling statistics, and
both bound terms are constants of the loss; gradients flow through the
restriction maps into both diffusion branches.

Connectivity here means the gap of the degree-normalized operator above
its null modes.  Transport-built restriction stacks are rank-deficient
wherever plan mass sits at the floor, so the sheaf kernel extends far
beyond the blockwise-constant signals and a deflated second eigenvalue
of the raw Laplacian would read a structural zero on every realistic
run; the mixing speed that the heterophily penalty and the epoch reports
track lives on the reachable complement, where normalization makes the
informative band O(1) and a fixed cutoff meaningful.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import backward
from .calibration import (
    EdgeBeta,
    PosteriorState,
    calibrate_prediction,
    class_coupling,
    ece,
    init_prior,
    kl_term,
    node_kappa,
    posterior_update,
)
from .graphs import Graph, Labels, NodeFeatures, SplitMask, nrs
from .laplacian import normalized_range_gap
# not called here; perfbench/spans.py rebinds these names to time them
from .laplacian import assemble_laplacian, reassemble_restrictions  # noqa: F401
from .model import (
    EpochContext,
    ModelParams,
    calibrated_ce,
    finite_difference_gradients,
    forward_tape,
    init_params,
)
from .spectral import WolfeConfig, run_gap_ascent, spec_penalty
from .transport import LiftConfig, edge_plans

logger = logging.getLogger(__name__)

DIVERGENCE_LIMIT = 1e6
VARIANTS = ("we_lift", "scalar_edge")

CURVE_COLUMNS = ("epoch", "emp_risk", "kl", "spec", "bound", "lambda2",
                 "train_acc", "val_acc", "test_acc", "ece", "cg_iters",
                 "wall_ms")


class TrainingDiverged(RuntimeError):
    """Raised when the epoch loss exceeds the divergence limit."""


@dataclass(frozen=True)
class Dataset:
    g: Graph
    feats: NodeFeatures
    labels: Labels
    split: SplitMask


@dataclass
class TrainConfig:
    lambda_kl: float = 1.0
    lambda_spec: float = 1.0
    lr: float = 1e-3
    weight_decay: float = 5e-4
    epochs: int = 200
    patience: int = 30
    delta: float = 0.05
    dt: float = 0.1
    gap_steps: int = 5
    fd_check: bool = False
    d_v: int = 16
    d_e: int | None = None   # edge stalk dimension; None matches d_v
    n_layers: int = 1
    cheb_order: int = 3
    cg_tol: float = 1e-8
    cg_max_iter: int = 1000
    a0: float = 1.0
    b0: float = 1.0
    gamma_cap: float = 50.0
    lift_eps: float = 0.5
    optimizer: str = "gd"
    seed: int = 0

    def __post_init__(self):
        for name in ("lr", "weight_decay", "dt", "cg_tol", "lambda_kl",
                     "lambda_spec"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("a0", "b0"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.gap_steps < 0:
            raise ValueError("gap_steps must be nonnegative")
        if self.cg_max_iter < 1:
            raise ValueError("cg_max_iter must be at least 1")
        if self.optimizer not in ("gd", "adam"):
            raise ValueError("optimizer must be 'gd' or 'adam'")
        if self.d_e is None:
            self.d_e = self.d_v
        if self.d_e < 1 or self.d_v < 1:
            raise ValueError("stalk dimensions must be positive")
        if self.n_layers < 1:
            raise ValueError("n_layers must be at least 1")
        if self.cheb_order < 0:
            raise ValueError("cheb_order must be nonnegative")
        if not self.gamma_cap > 0:
            raise ValueError("gamma_cap must be positive")
        if not self.lift_eps > 0:
            raise ValueError("lift_eps must be positive")

    def lift_config(self) -> LiftConfig:
        return LiftConfig(eps=self.lift_eps)


@dataclass
class EpochReport:
    epoch: int
    emp_risk: float      # calibrated CE / ln C, clipped to [0, 1]
    raw_loss: float      # unnormalized CE plus weighted penalty terms
    kl: float
    spec: float
    bound: float
    lambda2: float       # after the epoch's ascent steps
    train_acc: float
    val_acc: float
    test_acc: float
    ece: float
    cg_iters: int
    wall_ms: float


@dataclass
class TrainState:
    params: ModelParams
    prior: EdgeBeta
    plans: np.ndarray
    X0: np.ndarray
    posterior: PosteriorState | None = None
    epoch: int = 0
    frozen: frozenset = frozenset()
    opt_m: dict = field(default_factory=dict)
    opt_v: dict = field(default_factory=dict)


def total_loss(emp_risk: float, kl: float, spec: float,
               cfg: TrainConfig) -> float:
    return emp_risk + cfg.lambda_kl * kl + cfg.lambda_spec * spec


def pac_bayes_bound(emp_risk: float, kl: float, spec: float) -> float:
    """Unit-weight population-risk bound: empirical risk plus both slack terms."""
    return emp_risk + kl + spec


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _accuracy(probs: np.ndarray, y: np.ndarray, idx: np.ndarray) -> float:
    if idx.size == 0:
        return 0.0
    return float((probs[idx].argmax(axis=1) == y[idx]).mean())


def _apply_update(state: TrainState, grads: dict, cfg: TrainConfig,
                  step_count: int) -> ModelParams:
    """One descent step with weight decay; Adam keeps moments in the state."""
    updates = {}
    for name, theta in state.params.trainable().items():
        if name in state.frozen:
            continue
        g = grads[name] + cfg.weight_decay * theta
        if cfg.optimizer == "adam":
            b1, b2, eps = 0.9, 0.999, 1e-8
            m = state.opt_m.get(name, np.zeros_like(theta))
            v = state.opt_v.get(name, np.zeros_like(theta))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            state.opt_m[name] = m
            state.opt_v[name] = v
            m_hat = m / (1 - b1 ** step_count)
            v_hat = v / (1 - b2 ** step_count)
            updates[name] = theta - cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
        else:
            updates[name] = theta - cfg.lr * g
    return state.params.with_updates(updates)


def train_epoch(state: TrainState, data: Dataset,
                cfg: TrainConfig) -> tuple[TrainState, EpochReport]:
    """One full pass: forward, gap ascent, posterior fixed point, update."""
    t0 = time.perf_counter()
    g, labels, split = data.g, data.labels, data.split
    ctx0 = EpochContext(
        n=g.n, d_v=state.X0.shape[1], edges=g.edges, plans=state.plans,
        X0=state.X0, y=labels.y, C=labels.C, train_idx=split.train,
        kappa=np.zeros(g.n), dt=cfg.dt, cg_tol=cfg.cg_tol,
        cg_max_iter=cfg.cg_max_iter, n_layers=cfg.n_layers,
        lambda_kl=cfg.lambda_kl, lambda_spec=cfg.lambda_spec)
    logits, leaves, aux = forward_tape(state.params, ctx0)
    y_hat = _softmax(logits.value)

    _, gap = run_gap_ascent(aux["L"], WolfeConfig(), steps=cfg.gap_steps,
                            seed=cfg.seed, estimator=normalized_range_gap)

    posterior = posterior_update(
        state.prior, y_hat, g, labels, split.train,
        gamma_cap=cfg.gamma_cap, n_msg=cfg.n_layers)
    kappa = node_kappa(posterior, g)
    coupling = class_coupling(posterior.kappa_bar, labels, g, split.train)

    kl = kl_term(posterior, state.prior, split.train.size, cfg.delta)
    spec = spec_penalty(coupling.c_het, gap.lambda2_history[0])
    ctx = replace(ctx0, kappa=kappa, kl_value=kl, spec_value=spec)
    ce, _ = calibrated_ce(logits, ctx)
    raw_loss = total_loss(float(ce.value), kl, spec, cfg)
    if not np.isfinite(raw_loss) or raw_loss > DIVERGENCE_LIMIT:
        raise TrainingDiverged(
            f"epoch {state.epoch}: loss {raw_loss:.3e} exceeds "
            f"{DIVERGENCE_LIMIT:.0e}")

    backward(ce)
    grads = {}
    for name, leaf in leaves.items():
        gmat = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
        if not np.all(np.isfinite(gmat)):
            raise FloatingPointError(
                f"epoch {state.epoch}: non-finite gradient in {name}")
        grads[name] = gmat
    if cfg.fd_check:
        fd = finite_difference_gradients(state.params, ctx, step=1e-4)
        for name in grads:
            scale = max(np.linalg.norm(fd[name]),
                        np.linalg.norm(grads[name]), 1e-12)
            err = np.linalg.norm(fd[name] - grads[name]) / scale
            if err > 1e-4:
                logger.warning("fd check: %s relative error %.2e", name, err)

    new_params = _apply_update(state, grads, cfg, state.epoch + 1)

    cal = calibrate_prediction(y_hat, kappa)
    emp_norm = float(np.clip(ce.value / np.log(labels.C), 0.0, 1.0))
    ece_val, _ = ece(cal, labels, split.test)
    report = EpochReport(
        epoch=state.epoch,
        emp_risk=emp_norm,
        raw_loss=raw_loss,
        kl=kl,
        spec=spec,
        bound=total_loss(emp_norm, kl, spec, cfg),
        lambda2=gap.lambda2_history[-1],
        train_acc=_accuracy(cal, labels.y, split.train),
        val_acc=_accuracy(cal, labels.y, split.val),
        test_acc=_accuracy(cal, labels.y, split.test),
        ece=ece_val,
        cg_iters=int(aux["cg_iters"]),
        wall_ms=(time.perf_counter() - t0) * 1e3)
    state.params = new_params
    state.posterior = posterior
    state.epoch += 1
    return state, report


def _identity_plans(m: int, d_v: int) -> np.ndarray:
    return np.tile(np.eye(d_v), (m, 1, 1))


def init_state(data: Dataset, cfg: TrainConfig,
               variant: str = "we_lift") -> TrainState:
    """Seeded parameter draw plus the run-constant lift cache.

    scalar_edge pins every restriction map to the identity (the plain graph
    Laplacian baseline) and freezes it.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    g, feats, labels = data.g, data.feats, data.labels
    d_e = cfg.d_v if variant == "scalar_edge" else cfg.d_e
    params = init_params(feats.d0, cfg.d_v, d_e, labels.C,
                         cfg.cheb_order, cfg.seed)
    frozen = frozenset()
    if variant == "scalar_edge":
        params.W_theta = np.eye(cfg.d_v)
        plans = _identity_plans(g.m, cfg.d_v)
        frozen = frozenset({"W_theta"})
    else:
        plans = edge_plans(g.edges, feats.H, params.W_proj, cfg.lift_config())
    X0 = feats.H @ params.W_proj
    prior = init_prior(g.m, cfg.a0, cfg.b0)
    return TrainState(params=params, prior=prior, plans=plans, X0=X0,
                      frozen=frozen)


def fit(data: Dataset, cfg: TrainConfig, variant: str = "we_lift"
        ) -> tuple[ModelParams, list[EpochReport]]:
    """Descent with early stopping on validation accuracy.

    Returns the parameters that scored the best validation accuracy (the
    weights as evaluated, i.e. before that epoch's update) and the full
    report series.  Raises TrainingDiverged if the loss passes 1e6.
    """
    state = init_state(data, cfg, variant)
    best_acc = -np.inf
    best_params = state.params.copy()
    best_epoch = -1
    reports: list[EpochReport] = []
    for t in range(cfg.epochs):
        evaluated = state.params.copy()
        state, rep = train_epoch(state, data, cfg)
        reports.append(rep)
        if rep.val_acc > best_acc:
            best_acc = rep.val_acc
            best_params = evaluated
            best_epoch = t
        elif t - best_epoch >= cfg.patience:
            break
    return best_params, reports


@dataclass(frozen=True)
class EvalResult:
    train_acc: float
    val_acc: float
    test_acc: float
    ece: float
    nrs: float
    predictions: np.ndarray   # calibrated class probabilities
    reliability: list


def evaluate(params: ModelParams, data: Dataset, cfg: TrainConfig,
             plans: np.ndarray | None = None,
             variant: str = "we_lift") -> EvalResult:
    """Forward pass plus one posterior refresh, no parameter movement."""
    g, feats, labels, split = data.g, data.feats, data.labels, data.split
    if plans is None:
        if variant == "scalar_edge":
            plans = _identity_plans(g.m, cfg.d_v)
        else:
            plans = edge_plans(g.edges, feats.H, params.W_proj,
                               cfg.lift_config())
    X0 = feats.H @ params.W_proj
    ctx = EpochContext(
        n=g.n, d_v=X0.shape[1], edges=g.edges, plans=plans, X0=X0,
        y=labels.y, C=labels.C, train_idx=split.train, kappa=np.zeros(g.n),
        dt=cfg.dt, cg_tol=cfg.cg_tol, cg_max_iter=cfg.cg_max_iter,
        n_layers=cfg.n_layers)
    logits, _, aux = forward_tape(params, ctx)
    y_hat = _softmax(logits.value)
    posterior = posterior_update(
        init_prior(g.m, cfg.a0, cfg.b0), y_hat, g, labels, split.train,
        gamma_cap=cfg.gamma_cap, n_msg=cfg.n_layers)
    cal = calibrate_prediction(y_hat, node_kappa(posterior, g))
    ece_val, rows = ece(cal, labels, split.test)
    return EvalResult(
        train_acc=_accuracy(cal, labels.y, split.train),
        val_acc=_accuracy(cal, labels.y, split.val),
        test_acc=_accuracy(cal, labels.y, split.test),
        ece=ece_val,
        nrs=nrs(aux["embeddings"][-1], g),
        predictions=cal,
        reliability=rows)


# ------------------------------------------------------------ theory series

@dataclass(frozen=True)
class ContractionStats:
    bounds: np.ndarray
    monotone_fraction: float
    rate: float
    warmup: int


def risk_variance_series(reports: list[EpochReport], warmup: int = 0,
                         slack: float = 1e-6) -> ContractionStats:
    """Per-epoch unit-weight bounds with contraction statistics.

    monotone_fraction counts post-warmup steps with B_{t+1} <= B_t + slack.
    The geometric rate is fitted to the successive increments |B_{t+1} - B_t|
    by log-linear regression; an exactly constant series has rate 0.
    """
    if len(reports) < 10:
        raise ValueError("need at least 10 epochs of reports")
    bounds = np.array([pac_bayes_bound(r.emp_risk, r.kl, r.spec)
                       for r in reports])
    tail = bounds[warmup:]
    if tail.size < 2:
        raise ValueError("warmup leaves fewer than 2 epochs")
    diffs = np.diff(tail)
    fraction = float((diffs <= slack).mean())
    inc = np.abs(np.diff(bounds))
    nz = inc > 1e-15
    if not nz.any():
        rate = 0.0
    else:
        t = np.flatnonzero(nz).astype(np.float64)
        slope = np.polyfit(t, np.log(inc[nz]), 1)[0]
        rate = float(np.exp(slope))
    return ContractionStats(bounds=bounds, monotone_fraction=fraction,
                            rate=rate, warmup=warmup)


def stability_metric(params_t: ModelParams, params_0: ModelParams,
                     data: Dataset, cfg: TrainConfig,
                     probe_idx: np.ndarray | None = None) -> float:
    """Encoder drift: 2-norm of the pre-softmax output difference.

    Both parameter sets share the frozen projection, so one lift serves
    both forward passes.
    """
    g, feats, labels, split = data.g, data.feats, data.labels, data.split
    plans = edge_plans(g.edges, feats.H, params_0.W_proj, cfg.lift_config())
    X0 = feats.H @ params_0.W_proj
    ctx = EpochContext(
        n=g.n, d_v=X0.shape[1], edges=g.edges, plans=plans, X0=X0,
        y=labels.y, C=labels.C, train_idx=split.train, kappa=np.zeros(g.n),
        dt=cfg.dt, cg_tol=cfg.cg_tol, cg_max_iter=cfg.cg_max_iter,
        n_layers=cfg.n_layers)
    z_t = forward_tape(params_t, ctx)[0].value
    z_0 = forward_tape(params_0, ctx)[0].value
    if probe_idx is None:
        probe_idx = np.arange(g.n)
    return float(np.linalg.norm(z_t[probe_idx] - z_0[probe_idx]))


def stability_bound(lambda_max: float, lambda2_0: float, dt: float,
                    delta_gap: float, eps_cg: float, epochs: int) -> float:
    """sqrt(lambda_max / lambda_2(L_0)) * exp(-dt * Delta_G / 2) + eps_CG * T."""
    lam2 = max(lambda2_0, 1e-12)
    return float(np.sqrt(max(lambda_max, 0.0) / lam2)
                 * np.exp(-dt * delta_gap / 2.0) + eps_cg * epochs)


def oversmoothing_sweep(data: Dataset, depths, variants=VARIANTS,
                        cfg: TrainConfig | None = None) -> list[dict]:
    """Accuracy and embedding-similarity table across depth and lift variant."""
    cfg = cfg or TrainConfig()
    if any(d < 1 or d > 8 for d in depths):
        raise ValueError("depths must lie in [1, 8]")
    rows = []
    for variant in variants:
        for depth in depths:
            c = replace(cfg, n_layers=depth)
            params, _ = fit(data, c, variant=variant)
            res = evaluate(params, data, c, variant=variant)
            rows.append({"variant": variant, "depth": int(depth),
                         "test_acc": res.test_acc, "nrs": res.nrs})
    return rows


# ------------------------------------------------------------------ outputs

def write_curves(reports: list[EpochReport], path) -> None:
    """Fixed-column training-curve CSV, one row per epoch."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for r in reports:
            writer.writerow([
                r.epoch,
                f"{r.emp_risk:.10g}", f"{r.kl:.10g}", f"{r.spec:.10g}",
                f"{r.bound:.10g}", f"{r.lambda2:.10g}",
                f"{r.train_acc:.10g}", f"{r.val_acc:.10g}",
                f"{r.test_acc:.10g}", f"{r.ece:.10g}",
                r.cg_iters, f"{r.wall_ms:.3f}"])


def write_reliability(rows, path) -> None:
    """Reliability-diagram CSV: one row per confidence bin."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("bin_low", "bin_high", "confidence", "accuracy",
                         "count"))
        for lo, hi, conf, acc, count in rows:
            writer.writerow([f"{lo:.10g}", f"{hi:.10g}", f"{conf:.10g}",
                             f"{acc:.10g}", count])
