"""Epoch loop tying the pipeline together.

One epoch runs four stages in a fixed order: (1) restriction maps,
Laplacian blocks and the two-branch diffusion forward pass on the tape,
(2) the Beta-posterior fixed point that refreshes the calibration
weights, (3) the loss and backward, which consumes the tape, and (4) the
parameter step.  Between (3) and (4) one gap estimate of the forward's
Laplacian prices the spectral penalty and is reported as lambda2 (the
deprecated gap ascent reports its last gap).  Nothing on the tape reads
it, so it runs once backward has freed the tape and ahead of the step:
an error leaves the parameters and optimizer moments as they were.  The
transport plans depend only on the frozen feature projection, so
`epoch_context` projects the features and lifts them once per parameter
set.  An epoch and `evaluate` share one path to calibrated, scored
predictions: `calibrate`, whose array the loss reads too, then `score`;
on a fit's own result `evaluate` scores the best epoch's array again.

The loss on the tape is the calibrated cross-entropy alone.  Within an
epoch the plans and calibration weights are constants of it, and
gradients flow through the restriction maps into both diffusion branches.
The KL and spectral bound terms are computed and reported here, and never
enter the tape.

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

import copy
import csv
import time
from dataclasses import InitVar, dataclass, field, replace
from numbers import Integral

import numpy as np

from .autodiff import backward
from .calibration import (
    PosteriorState,
    calibrate_prediction,
    ece,
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
    forward_tape,
    init_params,
    leaf_grads,
    softmax,
)
from .spectral import run_gap_ascent, spec_penalty
from .transport import edge_plans, projected_features

VARIANTS = ("we_lift", "scalar_edge")

CURVE_COLUMNS = ("epoch", "emp_risk", "kl", "spec", "bound", "lambda2",
                 "train_acc", "val_acc", "test_acc", "ece", "cg_iters",
                 "wall_ms")


class TrainingDiverged(RuntimeError):
    """Raised when the loss the tape descends is not finite."""


@dataclass(frozen=True)
class Dataset:
    g: Graph
    feats: NodeFeatures
    labels: Labels
    split: SplitMask


# Trainer settings that every fit uses with one value.  Each is read at
# call time, so a test that needs another value monkeypatches it.
WEIGHT_DECAY = 5e-4
KL_DELTA = 0.05               # confidence of the PAC-Bayes bound
HEAT_DT = 0.1                 # implicit diffusion step
CHEB_ORDER = 3
CG_TOL = 1e-8
CG_MAX_ITER = 1000
PRIOR_A0 = PRIOR_B0 = 1.0     # the Beta prior every edge starts from
GAMMA_CAP = 50.0              # cap on a posterior's concentration
LIFT_EPS = 0.5                # entropic regularization of the lift


@dataclass
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 200
    patience: int = 30
    d_v: int = 16
    n_layers: int = 1
    optimizer: str = "gd"
    seed: int = 0
    # deprecated ascent steps per epoch, for ascent_n40 until ROADMAP 1a
    gap_steps: InitVar[int] = 0

    def __post_init__(self, gap_steps):
        if gap_steps < 0:
            raise ValueError("gap_steps must be nonnegative")
        self.gap_steps = gap_steps   # not a field, so no config key
        for name in ("epochs", "patience", "d_v", "n_layers", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer")
        # an infinite rate would fail deep in the fit
        if not np.isfinite(self.lr):
            raise ValueError("lr must be finite")
        if not self.lr >= 0:
            raise ValueError("lr must be nonnegative")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.optimizer not in ("gd", "adam"):
            raise ValueError("optimizer must be 'gd' or 'adam'")
        if self.d_v < 1:
            raise ValueError("stalk dimensions must be positive")
        if self.n_layers < 1:
            raise ValueError("n_layers must be at least 1")


@dataclass
class EpochReport:
    epoch: int
    emp_risk: float      # calibrated CE / ln C, clipped to [0, 1]
    raw_loss: float      # unnormalized CE plus kl and spec
    kl: float
    spec: float
    bound: float
    lambda2: float       # the epoch's one gap estimate (the deprecated
                         # ascent's last, when gap_steps > 0)
    train_acc: float
    val_acc: float
    test_acc: float
    ece: float
    cg_iters: int
    wall_ms: float


@dataclass
class TrainState:
    params: ModelParams
    ctx: EpochContext    # the fit's frozen inputs, calibration weights at zero
    epoch: int = 0
    opt_m: dict = field(default_factory=dict)
    opt_v: dict = field(default_factory=dict)
    # the last epoch's calibrated probabilities and last-layer embedding,
    # computed from its parameters before the update
    evaluated: tuple | None = None


def pac_bayes_bound(emp_risk: float, kl: float, spec: float) -> float:
    """Population-risk bound: empirical risk plus both slack terms."""
    return emp_risk + kl + spec


@dataclass(frozen=True)
class Calibration:
    posterior: PosteriorState
    kappa: np.ndarray        # (n,) node calibration weights
    probs: np.ndarray        # (n, C) calibrated class probabilities


def calibrate(probs: np.ndarray, data: Dataset,
              cfg: TrainConfig) -> Calibration:
    """The calibration stage: Beta posterior, node trust, calibrated probs.

    One round of n_layers messages per edge is absorbed from the
    Beta(PRIOR_A0, PRIOR_B0) prior over the train mask.
    """
    g = data.g
    posterior = posterior_update(PRIOR_A0, PRIOR_B0, probs, g, data.labels,
                                 data.split.train, gamma_cap=GAMMA_CAP,
                                 n_msg=cfg.n_layers)
    kappa = node_kappa(posterior, g)
    return Calibration(posterior=posterior, kappa=kappa,
                       probs=calibrate_prediction(probs, kappa))


def score(probs: np.ndarray, data: Dataset) -> tuple[dict, list]:
    """Report fields train/val/test_acc and ece, and ece's reliability rows."""
    split = data.split
    hits = probs.argmax(axis=1) == data.labels.y
    scores = {f"{name}_acc": float(hits[idx].mean()) if idx.size else 0.0
              for name, idx in (("train", split.train), ("val", split.val),
                                ("test", split.test))}
    scores["ece"], rows = ece(probs, data.labels, split.test)
    return scores, rows


def _apply_update(state: TrainState, grads: dict, cfg: TrainConfig,
                  step_count: int) -> ModelParams:
    """One descent step with weight decay; Adam keeps moments in the state."""
    updates = {}
    for name, theta in state.params.trainable().items():
        g = grads[name] + WEIGHT_DECAY * theta
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
    """One pass: forward, posterior, backward, gap estimate, update.

    backward consumes the tape, and the gap estimate runs after it, on an
    operator with the forward Laplacian's blocks and their
    eigendecomposition but not its BSR form, so no tape array is alive
    while the eigensolver runs.  It reports a stall as converged=False,
    not as an error, and runs before the update, so an error in it leaves
    state.params, opt_m and opt_v intact.
    """
    t0 = time.perf_counter()
    logits, leaves, aux = forward_tape(state.params, state.ctx)
    y_hat = softmax(logits.value)
    cg_iters = int(aux["cg_iters"])
    L = replace(aux["L"], _bsr=None)
    embedding = aux["embeddings"][-1]
    del aux

    cal = calibrate(y_hat, data, cfg)
    kl = kl_term(cal.posterior, data.split.train.size, KL_DELTA)
    ce = calibrated_ce(logits, y_hat, cal.probs,
                       replace(state.ctx, kappa=cal.kappa))
    del logits
    if not np.isfinite(ce.value):
        raise TrainingDiverged(
            f"epoch {state.epoch}: calibrated CE is {ce.value}")

    backward(ce)
    try:
        grads = leaf_grads(leaves)
    except FloatingPointError as exc:
        raise FloatingPointError(f"epoch {state.epoch}: {exc}") from exc

    _, lambda2s = run_gap_ascent(L, steps=cfg.gap_steps, seed=cfg.seed,
                                 estimator=normalized_range_gap)
    spec = spec_penalty(cal.posterior.coupling.c_het, lambda2s[0])
    raw_loss = pac_bayes_bound(float(ce.value), kl, spec)

    new_params = _apply_update(state, grads, cfg, state.epoch + 1)

    emp_norm = float(np.clip(ce.value / np.log(data.labels.C), 0.0, 1.0))
    scores, _ = score(cal.probs, data)
    report = EpochReport(
        epoch=state.epoch,
        emp_risk=emp_norm,
        raw_loss=raw_loss,
        kl=kl,
        spec=spec,
        bound=pac_bayes_bound(emp_norm, kl, spec),
        lambda2=lambda2s[-1],
        **scores,
        cg_iters=cg_iters,
        wall_ms=(time.perf_counter() - t0) * 1e3)
    state.params = new_params
    state.evaluated = (cal.probs, embedding)
    state.epoch += 1
    return state, report


def epoch_context(data: Dataset, W_proj: np.ndarray, cfg: TrainConfig,
                  variant: str) -> EpochContext:
    """The loss's frozen inputs, with calibration weights still at zero.

    The features are projected once, to X0.  scalar_edge uses identity
    plans; we_lift lifts X0 to one (d_v, d_v) plan per edge.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    g, labels = data.g, data.labels
    X0 = projected_features(data.feats.H, W_proj)
    if variant == "scalar_edge":
        plans = np.tile(np.eye(cfg.d_v), (g.m, 1, 1))
    else:
        plans = edge_plans(g.edges, X0, LIFT_EPS)
    return EpochContext(
        n=g.n, d_v=X0.shape[1], edges=g.edges, plans=plans, X0=X0,
        y=labels.y, train_idx=data.split.train,
        kappa=np.zeros(g.n), dt=HEAT_DT, cg_tol=CG_TOL,
        cg_max_iter=CG_MAX_ITER, n_layers=cfg.n_layers)


def init_state(data: Dataset, cfg: TrainConfig,
               variant: str = "we_lift") -> TrainState:
    """Seeded parameter draw plus the fit's frozen inputs.

    scalar_edge pins every restriction map to the identity (the plain graph
    Laplacian baseline) and freezes W_theta in the parameters.  W_theta is
    square: the edge stalks are as wide as the node stalks.
    """
    params = init_params(data.feats.d0, cfg.d_v, cfg.d_v, data.labels.C,
                         CHEB_ORDER, cfg.seed)
    if variant == "scalar_edge":
        params.W_theta = np.eye(cfg.d_v)
        params.frozen = frozenset({"W_theta"})
    return TrainState(params=params,
                      ctx=epoch_context(data, params.W_proj, cfg, variant))


def _weights(params: ModelParams) -> tuple[np.ndarray, ...]:
    return (params.W_proj, params.W_theta, params.gamma, params.W_mix,
            params.W_cls)


@dataclass(frozen=True, eq=False)
class _FitMemo:
    """A fit's best-epoch outputs and the inputs they were computed from."""

    data: Dataset
    cfg: TrainConfig         # a copy
    variant: str
    weights: tuple           # copies of _weights(params)
    probs: np.ndarray        # calibrated class probabilities
    embedding: np.ndarray    # last-layer embedding

    def holds_for(self, params: ModelParams, data: Dataset,
                  cfg: TrainConfig, variant: str) -> bool:
        return (data is self.data and variant == self.variant
                and cfg == self.cfg
                and all(np.array_equal(w, kept) for w, kept
                        in zip(_weights(params), self.weights)))


def fit(data: Dataset, cfg: TrainConfig, variant: str = "we_lift"
        ) -> tuple[ModelParams, list[EpochReport]]:
    """Descent with early stopping on validation accuracy.

    Returns the parameters that scored the best validation accuracy (the
    weights as evaluated, i.e. before that epoch's update) and the full
    report series.  Raises TrainingDiverged if an epoch's calibrated CE,
    the loss the tape descends, is not finite.  An update builds new
    arrays, so a parameter set is kept by reference, not copied.

    The returned parameters carry the best epoch's calibrated probabilities
    and last-layer embedding, with `data`, a copy of `cfg`, `variant` and
    copies of the weights, so that `evaluate` on them need not repeat that
    epoch; a fit of zero epochs returns its initial draw without them.
    """
    state = init_state(data, cfg, variant)
    best_acc = -np.inf
    best_params = state.params
    best_epoch = -1
    reports: list[EpochReport] = []
    for t in range(cfg.epochs):
        evaluated = state.params
        state, rep = train_epoch(state, data, cfg)
        reports.append(rep)
        if rep.val_acc > best_acc:
            best_acc = rep.val_acc
            best_params = evaluated
            best_outputs = state.evaluated
            best_epoch = t
        elif t - best_epoch >= cfg.patience:
            break
    if best_epoch >= 0:
        best_params.fit_memo = _FitMemo(
            data, copy.copy(cfg), variant,
            tuple(w.copy() for w in _weights(best_params)), *best_outputs)
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
             variant: str = "we_lift") -> EvalResult:
    """Forward pass plus one calibration stage, no parameter movement.

    On the parameters `fit` returned, given the fit's own Dataset object
    (`is`, not an equal one), an equal config, the same variant and weights
    still equal to those the fit evaluated, it scores the best epoch's
    calibrated probabilities and embedding, which is what the forward pass
    and calibration would compute again, bit for bit.  Any other call (a
    Dataset built anew, even from the same arrays; another config or
    variant; a weight edited in place; parameters no fit returned) runs the
    forward pass and calibration.  The module's trainer constants count as
    fixed: the memo does not record them.
    """
    memo = params.fit_memo
    if memo is not None and memo.holds_for(params, data, cfg, variant):
        probs, embedding = memo.probs.copy(), memo.embedding
    else:
        ctx = epoch_context(data, params.W_proj, cfg, variant)
        logits, _, aux = forward_tape(params, ctx)
        y_hat = softmax(logits.value)
        embedding = aux["embeddings"][-1]
        del logits, aux   # the tape is freed before the posterior runs
        probs = calibrate(y_hat, data, cfg).probs
    scores, rows = score(probs, data)
    return EvalResult(**scores, nrs=nrs(embedding, data.g),
                      predictions=probs, reliability=rows)


# ------------------------------------------------------------ theory series

@dataclass(frozen=True)
class ContractionStats:
    bounds: np.ndarray
    monotone_fraction: float
    rate: float
    warmup: int


def risk_variance_series(reports: list[EpochReport], warmup: int = 0
                         ) -> ContractionStats:
    """Per-epoch bounds with contraction statistics.

    monotone_fraction counts post-warmup steps with B_{t+1} <= B_t + 1e-6.
    The geometric rate is fitted to the successive increments |B_{t+1} - B_t|
    by log-linear regression; an exactly constant series has rate 0.
    """
    if len(reports) < 10:
        raise ValueError("need at least 10 epochs of reports")
    bounds = np.array([r.bound for r in reports])
    tail = bounds[warmup:]
    if tail.size < 2:
        raise ValueError("warmup leaves fewer than 2 epochs")
    diffs = np.diff(tail)
    fraction = float((diffs <= 1e-6).mean())
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
                     probe_idx: np.ndarray | None = None,
                     variant: str = "we_lift") -> float:
    """Encoder drift: 2-norm of the pre-softmax output difference.

    Both parameter sets share the frozen projection, so one context
    serves both forward passes.
    """
    ctx = epoch_context(data, params_0.W_proj, cfg, variant)
    z_t = forward_tape(params_t, ctx)[0].value
    z_0 = forward_tape(params_0, ctx)[0].value
    if probe_idx is None:
        probe_idx = np.arange(data.g.n)
    return float(np.linalg.norm(z_t[probe_idx] - z_0[probe_idx]))


def stability_bound(lambda_max: float, lambda2_0: float, dt: float,
                    delta_gap: float, eps_cg: float, epochs: int) -> float:
    """sqrt(lambda_max / lambda_2(L_0)) * exp(-dt * Delta_G / 2) + eps_CG * T."""
    lam2 = max(lambda2_0, 1e-12)
    return float(np.sqrt(max(lambda_max, 0.0) / lam2)
                 * np.exp(-dt * delta_gap / 2.0) + eps_cg * epochs)


def oversmoothing_sweep(data: Dataset, depths,
                        cfg: TrainConfig | None = None) -> list[dict]:
    """Accuracy and embedding-similarity table across depth and both VARIANTS."""
    cfg = cfg or TrainConfig()
    if any(d < 1 or d > 8 for d in depths):
        raise ValueError("depths must lie in [1, 8]")
    rows = []
    for variant in VARIANTS:
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
