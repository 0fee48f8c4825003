"""Differentiable sheaf diffusion classifier.

The trainable surface is W_theta (restriction maps), gamma (filter logits),
W_mix (branch fusion), and W_cls (classifier).  The feature projection and
the per-edge transport plans are frozen inputs, and within an epoch the
calibration weights, coupling statistics, and spectral terms are constants
of the loss; gradients for everything else are exact reverse-mode, with
hand-derived adjoints for the implicit solve, the Chebyshev recurrence, and
the inverse-square-root matrix function.

Stalk signals are stored as (n, d_v) arrays; operators act on their
flattened (n * d_v,) form.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Var, backward, concat_cols, linear, relu, shared_vjp
from .diffusion import DiffusionConfig, chebyshev_apply, chebyshev_weights, svr_diffuse
from .laplacian import (
    SheafIncidence,
    SheafLaplacian,
    _block_isqrt,
    assemble_laplacian,
    pattern_matvec,
    pattern_outer,
)
from .transport import restriction_from_plan

logger = logging.getLogger(__name__)


@dataclass
class ModelParams:
    """All weights; W_proj is drawn once and never updated."""

    W_proj: np.ndarray   # (d0, d_v)
    W_theta: np.ndarray  # (d_v, d_e)
    gamma: np.ndarray    # (Q + 1,) filter logits
    W_mix: np.ndarray    # (d_v, 2 d_v)
    W_cls: np.ndarray    # (C, d_v)
    seed: int

    def trainable(self) -> dict[str, np.ndarray]:
        return {"W_theta": self.W_theta, "gamma": self.gamma,
                "W_mix": self.W_mix, "W_cls": self.W_cls}

    def copy(self) -> "ModelParams":
        return ModelParams(W_proj=self.W_proj.copy(), W_theta=self.W_theta.copy(),
                           gamma=self.gamma.copy(), W_mix=self.W_mix.copy(),
                           W_cls=self.W_cls.copy(), seed=self.seed)

    def with_updates(self, updates: dict[str, np.ndarray]) -> "ModelParams":
        return replace(self, **{k: v.copy() for k, v in updates.items()})


def init_params(d0: int, d_v: int, d_e: int, C: int, cheb_order: int,
                seed: int) -> ModelParams:
    """Draw order: W_proj, W_theta, W_mix noise, W_cls (gamma starts at 0)."""
    rng = np.random.default_rng(seed)
    W_proj = rng.normal(0.0, 1.0 / np.sqrt(d_v), size=(d0, d_v))
    W_theta = rng.normal(0.0, 1.0 / np.sqrt(d_v), size=(d_v, d_e))
    W_mix = np.concatenate([np.eye(d_v), np.zeros((d_v, d_v))], axis=1)
    W_mix = W_mix + rng.normal(0.0, 1e-3, size=W_mix.shape)
    W_cls = rng.normal(0.0, 0.01, size=(C, d_v))
    return ModelParams(W_proj=W_proj, W_theta=W_theta,
                       gamma=np.zeros(cheb_order + 1), W_mix=W_mix,
                       W_cls=W_cls, seed=seed)


@dataclass(frozen=True)
class EpochContext:
    """Everything the loss sees that is held fixed within the epoch."""

    n: int
    d_v: int
    edges: np.ndarray
    plans: np.ndarray        # (m, d_v, d_v) transport plans
    X0: np.ndarray           # (n, d_v) projected input signal
    y: np.ndarray
    C: int
    train_idx: np.ndarray
    kappa: np.ndarray        # (n,) node calibration weights
    dt: float = 0.1
    cg_tol: float = 1e-8
    cg_max_iter: int = 1000
    cheb_scale: float = 1.0
    n_layers: int = 1
    kl_value: float = 0.0
    spec_value: float = 0.0
    lambda_kl: float = 1.0
    lambda_spec: float = 1.0


# ---------------------------------------------------------------- primitives

def restriction_maps(W_theta: Var, plans: np.ndarray) -> tuple[Var, Var]:
    """R_ij = W' P_e and R_ji = W' P_e' for every edge."""
    W = W_theta.value
    Rij = restriction_from_plan(plans, W)
    Rji = restriction_from_plan(plans.transpose(0, 2, 1), W)
    # dW[p, d] = sum over (m, q) of P[m, p, q] g[m, d, q]; P[m, q, p] for Rji
    vij = Var(Rij, [(W_theta, lambda g: np.tensordot(plans, g, ([0, 2], [0, 2])))])
    vji = Var(Rji, [(W_theta, lambda g: np.tensordot(plans, g, ([0, 1], [0, 2])))])
    return vij, vji


def laplacian_blocks(Rij: Var, Rji: Var, edges: np.ndarray,
                     n: int) -> tuple[Var, Var]:
    """Assemble diag_i = sum R'R over incident edges and off_e = -R_ij'R_ji."""
    Ri, Rj = Rij.value, Rji.value
    I, J = edges[:, 0], edges[:, 1]
    L = assemble_laplacian(SheafIncidence(n=n, edges=edges, Rij=Ri, Rji=Rj))
    diag, off = L.diag, L.off

    def d_diag_d_Rij(g):
        gs = g[I] + g[I].transpose(0, 2, 1)
        return np.einsum("eac,ecb->eab", Ri, gs)

    def d_diag_d_Rji(g):
        gs = g[J] + g[J].transpose(0, 2, 1)
        return np.einsum("eac,ecb->eab", Rj, gs)

    def d_off_d_Rij(g):
        return -np.einsum("eac,ebc->eab", Rj, g)

    def d_off_d_Rji(g):
        return -np.einsum("eac,ecb->eab", Ri, g)

    diag_var = Var(diag, [(Rij, d_diag_d_Rij), (Rji, d_diag_d_Rji)])
    off_var = Var(off, [(Rij, d_off_d_Rij), (Rji, d_off_d_Rji)])
    return diag_var, off_var


def _warn_unconverged(solve: str, info) -> None:
    if not info.converged:
        logger.warning("%s solve stopped unconverged: %d CG iterations, "
                       "residual %.2e", solve, info.total_iterations,
                       info.residual)


def svr_branch(diag: Var, off: Var, L: SheafLaplacian, x,
               ctx: EpochContext) -> tuple[Var, object]:
    """(I + dt L)^(-1) x via CG; adjoint solves the same system once more.

    L is the operator with the blocks (diag.value, off.value); sharing one
    instance across layers builds its CSR form once.  With A = I + dt L
    symmetric, y = A~x gives dL = -dt * (A~g) y' restricted to the pattern,
    and dx = A~g.  An unconverged forward or adjoint solve logs a warning.
    """
    x_var = x if isinstance(x, Var) else None
    xv = x.value if x_var is not None else np.asarray(x, dtype=np.float64)
    cfg = DiffusionConfig(dt=ctx.dt, cg_tol=ctx.cg_tol,
                          cg_max_iter=ctx.cg_max_iter)
    y, info = svr_diffuse(L, xv.reshape(-1), cfg)
    _warn_unconverged("svr forward", info)

    def solve_adjoint(g):
        u, adj_info = svr_diffuse(L, g.reshape(-1), cfg)
        _warn_unconverged("svr adjoint", adj_info)
        gd, go = pattern_outer(ctx.edges, u, y, ctx.n, ctx.d_v)
        return {"diag": -ctx.dt * gd, "off": -ctx.dt * go,
                "x": u.reshape(xv.shape)}

    cache = shared_vjp(solve_adjoint)
    parents = [(diag, lambda g: cache(g)["diag"]),
               (off, lambda g: cache(g)["off"])]
    if x_var is not None:
        parents.append((x_var, lambda g: cache(g)["x"]))
    return Var(y.reshape(xv.shape), parents), info


def isqrt_blocks(diag: Var, cutoff_rel: float = 1e-12) -> Var:
    """Per-block pinv-sqrt through eigh, with the matrix-function adjoint.

    The forward symmetrizes the blocks first (they are symmetric whenever
    they come from an assembly, so this is the identity on the model path);
    the adjoint maps upstream gradients through the eigenbasis with
    divided-difference weights, using h' on (near-)coincident eigenvalues.
    """
    D = 0.5 * (diag.value + diag.value.transpose(0, 2, 1))
    S, w, V = _block_isqrt(D, cutoff_rel=cutoff_rel)
    wscale = np.maximum(w[:, -1:], 1.0)
    keep = w > cutoff_rel * wscale
    wsafe = np.where(keep, w, 1.0)   # dropped modes never feed the powers
    h = np.where(keep, 1.0 / np.sqrt(wsafe), 0.0)
    hp = np.where(keep, -0.5 * wsafe ** -1.5, 0.0)

    def vjp(g):
        Vt = V.transpose(0, 2, 1)
        gt = Vt @ g @ V
        dw = w[:, :, None] - w[:, None, :]
        dh = h[:, :, None] - h[:, None, :]
        close = np.abs(dw) < 1e-9 * wscale[:, :, None]
        avg_hp = 0.5 * (hp[:, :, None] + hp[:, None, :])
        phi = np.where(close, avg_hp, dh / np.where(close, 1.0, dw))
        gb = V @ (phi * gt) @ Vt
        return 0.5 * (gb + gb.transpose(0, 2, 1))

    return Var(S, [(diag, vjp)])


def sandwich_blocks(S: Var, diag: Var, off: Var,
                    edges: np.ndarray) -> tuple[Var, Var]:
    """Blocks of S L S: md_i = S_i D_i S_i, mo_e = S_i O_e S_j."""
    Sv, Dv, Ov = S.value, diag.value, off.value
    I, J = edges[:, 0], edges[:, 1]
    SI, SJ = Sv[I], Sv[J]
    md = Sv @ Dv @ Sv
    mo = SI @ Ov @ SJ

    def d_md_d_S(g):
        SD = np.einsum("iab,ibc->iac", Sv, Dv)
        DS = np.einsum("iab,ibc->iac", Dv, Sv)
        return (np.einsum("iab,icb->iac", g, DS)
                + np.einsum("iba,ibc->iac", SD, g))

    def d_md_d_D(g):
        St = Sv.transpose(0, 2, 1)
        return St @ g @ St

    def d_mo_d_S(g):
        out = np.zeros_like(Sv)
        OSj = np.einsum("eab,ebc->eac", Ov, SJ)
        SiO = np.einsum("eab,ebc->eac", SI, Ov)
        np.add.at(out, I, np.einsum("eab,ecb->eac", g, OSj))
        np.add.at(out, J, np.einsum("eba,ebc->eac", SiO, g))
        return out

    def d_mo_d_O(g):
        return SI.transpose(0, 2, 1) @ g @ SJ.transpose(0, 2, 1)

    md_var = Var(md, [(S, d_md_d_S), (diag, d_md_d_D)])
    mo_var = Var(mo, [(S, d_mo_d_S), (off, d_mo_d_O)])
    return md_var, mo_var


def cheb_branch(md: Var, mo: Var, gamma: Var, x, ctx: EpochContext) -> Var:
    """Chebyshev filter bank on M = scale (I - S L S), reverse recurrence VJP."""
    x_var = x if isinstance(x, Var) else None
    xv = (x.value if x_var is not None else np.asarray(x, np.float64))
    n, d_v, scale = ctx.n, ctx.d_v, ctx.cheb_scale
    mdv, mov = md.value, mo.value

    def apply_M(v):
        return scale * (v - pattern_matvec(ctx.edges, mdv, mov, v))

    alphas = chebyshev_weights(gamma.value)
    out_flat, terms = chebyshev_apply(apply_M, xv.reshape(-1), alphas)
    Q = len(alphas) - 1

    def reverse(g):
        gf = g.reshape(-1)
        d_alpha = np.array([float(gf @ t) for t in terms])
        d_gamma = alphas * (d_alpha - float(alphas @ d_alpha))
        u = [a * gf for a in alphas]
        gd = np.zeros_like(mdv)
        go = np.zeros_like(mov)

        def accumulate(left, right):
            a, b = pattern_outer(ctx.edges, left, right, n, d_v)
            # M = scale (I - SLS): push through the sign and scale
            nonlocal gd, go
            gd -= scale * a
            go -= scale * b

        for q in range(Q - 1, 0, -1):
            accumulate(2.0 * u[q + 1], terms[q])
            u[q] = u[q] + 2.0 * apply_M(u[q + 1])
            u[q - 1] = u[q - 1] - u[q + 1]
        if Q >= 1:
            accumulate(u[1], terms[0])
            dx = apply_M(u[1]) + u[0]
        else:
            dx = u[0]
        return {"md": gd, "mo": go, "gamma": d_gamma,
                "x": dx.reshape(xv.shape)}

    cache = shared_vjp(reverse)
    parents = [(md, lambda g: cache(g)["md"]),
               (mo, lambda g: cache(g)["mo"]),
               (gamma, lambda g: cache(g)["gamma"])]
    if x_var is not None:
        parents.append((x_var, lambda g: cache(g)["x"]))
    return Var(out_flat.reshape(xv.shape), parents)


def calibrated_ce(logits: Var, ctx: EpochContext) -> tuple[Var, np.ndarray]:
    """Mean cross-entropy of kappa-blended probabilities over the train mask."""
    z = logits.value
    zs = z - z.max(axis=1, keepdims=True)
    e = np.exp(zs)
    probs = e / e.sum(axis=1, keepdims=True)
    k = ctx.kappa[:, None]
    pcal = k * probs + (1.0 - k) / ctx.C
    idx = ctx.train_idx
    py = pcal[idx, ctx.y[idx]]
    loss = float(-np.log(np.maximum(py, 1e-300)).mean())

    def vjp(g):
        G = np.zeros_like(z)
        p_idx = probs[idx]
        p_true = p_idx[np.arange(idx.size), ctx.y[idx]]
        coeff = ctx.kappa[idx] * p_true / np.maximum(py, 1e-300) / idx.size
        rows = -coeff[:, None] * (-p_idx)
        rows[np.arange(idx.size), ctx.y[idx]] -= coeff
        G[idx] = rows * float(g)
        return G

    return Var(loss, [(logits, vjp)]), probs


# -------------------------------------------------------------- full forward

def forward_tape(params: ModelParams, ctx: EpochContext,
                 leaves: dict[str, Var] | None = None):
    """Build the tape from frozen context to logits.

    Returns (logits Var, leaves dict, aux dict).  aux carries the block
    Vars, the SheafLaplacian built once from their values (every layer's
    CG solves and the epoch's gap estimate share it), forward CG iteration
    counts, and the fused embeddings per layer.
    """
    if leaves is None:
        leaves = {name: Var(value) for name, value in params.trainable().items()}
    Rij, Rji = restriction_maps(leaves["W_theta"], ctx.plans)
    diag, off = laplacian_blocks(Rij, Rji, ctx.edges, ctx.n)
    S = isqrt_blocks(diag)
    md, mo = sandwich_blocks(S, diag, off, ctx.edges)
    L = SheafLaplacian(n=ctx.n, d_v=ctx.d_v, edges=ctx.edges,
                       diag=diag.value, off=off.value)
    x = ctx.X0
    cg_iters = 0
    embeddings = []
    pre_acts = []
    z = None
    for _ in range(ctx.n_layers):
        h_svr, info = svr_branch(diag, off, L, x, ctx)
        cg_iters += info.total_iterations
        h_afm = cheb_branch(md, mo, leaves["gamma"], x, ctx)
        pre = linear(concat_cols(h_svr, h_afm), leaves["W_mix"])
        pre_acts.append(pre.value)
        z = relu(pre)
        embeddings.append(z.value)
        x = z
    logits = linear(z, leaves["W_cls"])
    aux = {"diag": diag, "off": off, "L": L, "cg_iters": cg_iters,
           "embeddings": embeddings, "pre_acts": pre_acts,
           "Rij": Rij, "Rji": Rji}
    return logits, leaves, aux


def model_loss(params: ModelParams, ctx: EpochContext):
    """Total loss Var: calibrated CE plus the frozen KL/spectral terms."""
    logits, leaves, aux = forward_tape(params, ctx)
    ce, probs = calibrated_ce(logits, ctx)
    loss = Var(ce.value + ctx.lambda_kl * ctx.kl_value
               + ctx.lambda_spec * ctx.spec_value, [(ce, lambda g: g)])
    aux["probs"] = probs
    aux["logits"] = logits.value
    aux["ce"] = ce.value
    return loss, leaves, aux


def loss_value(params: ModelParams, ctx: EpochContext) -> float:
    loss, _, _ = model_loss(params, ctx)
    return float(loss.value)


def grad_params(params: ModelParams, ctx: EpochContext):
    """Exact gradients of the epoch loss for every trainable block."""
    loss, leaves, aux = model_loss(params, ctx)
    backward(loss)
    grads = {}
    for name, leaf in leaves.items():
        g = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"non-finite gradient in {name}: |g|_max="
                f"{np.abs(g[np.isfinite(g)]).max() if np.any(np.isfinite(g)) else np.nan}")
        grads[name] = g
    return grads, float(loss.value), aux


def finite_difference_gradients(params: ModelParams, ctx: EpochContext,
                                step: float = 1e-4) -> dict[str, np.ndarray]:
    """Central differences of the full loss, one entry at a time."""
    out = {}
    for name, base in params.trainable().items():
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = loss_value(params, ctx)
            flat[k] = orig - step
            down = loss_value(params, ctx)
            flat[k] = orig
            gflat[k] = (up - down) / (2.0 * step)
        out[name] = g
    return out
