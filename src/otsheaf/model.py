"""Differentiable sheaf diffusion classifier.

The trainable surface is W_theta (restriction maps), gamma (filter logits),
W_mix (branch fusion), and W_cls (classifier), less what a variant freezes
(ModelParams.frozen).  The loss is the calibrated cross-entropy over the
train mask.  The feature projection, the per-edge transport plans and,
within an epoch, the calibration weights are frozen inputs; gradients for
everything else are exact reverse-mode, with
hand-derived adjoints for the implicit solve, the Chebyshev recurrence, and
the inverse-square-root matrix function.

Stalk signals are stored as (n, d_v) arrays; operators act on their
flattened (n * d_v,) form.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Var, backward, linear, relu, value_of
from .calibration import calibrate_prediction
from .diffusion import CGConfig, chebyshev_apply, chebyshev_weights, svr_diffuse
from .laplacian import (
    BLOCK_CHUNK,
    SheafIncidence,
    SheafLaplacian,
    _block_frames,
    assemble_laplacian,
    pattern_outer,
    scatter_add,
)

logger = logging.getLogger(__name__)


@dataclass
class ModelParams:
    """All weights; W_proj is drawn once and never updated.

    Nor is a weight named in frozen: trainable() leaves it out.
    """

    W_proj: np.ndarray   # (d0, d_v)
    W_theta: np.ndarray  # (d_v, d_e)
    gamma: np.ndarray    # (Q + 1,) filter logits
    W_mix: np.ndarray    # (d_v, 2 d_v)
    W_cls: np.ndarray    # (C, d_v)
    frozen: frozenset = frozenset()
    # the fit's best-epoch outputs: set by training.fit, read by
    # training.evaluate; with_updates and replace() never carry it
    fit_memo: object = field(default=None, init=False, compare=False,
                             repr=False)

    def trainable(self) -> dict[str, np.ndarray]:
        weights = {"W_theta": self.W_theta, "gamma": self.gamma,
                   "W_mix": self.W_mix, "W_cls": self.W_cls}
        return {k: v for k, v in weights.items() if k not in self.frozen}

    def with_updates(self, updates: dict[str, np.ndarray]) -> "ModelParams":
        """A new parameter set holding the given arrays, not copies of them."""
        return replace(self, **updates)


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
                       W_cls=W_cls)


@dataclass(frozen=True)
class EpochContext:
    """Everything the loss sees that is held fixed within the epoch."""

    n: int
    d_v: int
    edges: np.ndarray
    plans: np.ndarray        # (m, d_v, d_v) transport plans
    X0: np.ndarray           # (n, d_v) projected input signal
    y: np.ndarray
    train_idx: np.ndarray
    kappa: np.ndarray        # (n,) node calibration weights
    dt: float
    cg_tol: float
    cg_max_iter: int
    n_layers: int


# ---------------------------------------------------------------- primitives

def restriction_maps(W_theta: np.ndarray, plans: np.ndarray) -> np.ndarray:
    """R_ij = W' P_e and R_ji = W' P_e' of every edge, as one stack.

    The only place the package forms restriction maps from plans.  Returns
    the (2m, d_e, d_v) stack with R_ij in rows [:m] and R_ji in rows [m:],
    the order of edges.T.ravel(); both halves are written straight into
    it.  Both maps of an edge come from its one plan, so the pair is
    transpose-compatible by construction.
    """
    m = len(plans)
    R = np.empty((2 * m, W_theta.shape[1], plans.shape[2]))
    np.matmul(W_theta.T, plans, out=R[:m])
    np.matmul(W_theta.T, plans.transpose(0, 2, 1), out=R[m:])
    return R


def sheaf_laplacian(W_theta: np.ndarray, plans: np.ndarray, edges: np.ndarray,
                    n: int) -> SheafLaplacian:
    """The sheaf Laplacian of the restriction maps W_theta turns plans into.

    The one path from (W_theta, plans) to L, untaped: laplacian_blocks'
    forward pass and the CLI's --dump-laplacian build L here.
    """
    m = len(edges)
    R = restriction_maps(W_theta, plans)
    return assemble_laplacian(SheafIncidence(n=n, edges=edges, Rij=R[:m],
                                             Rji=R[m:]))


def restriction_vjp(W_theta: np.ndarray, plans: np.ndarray, grad) -> np.ndarray:
    """W_theta's gradient through the restriction maps of every edge.

    grad(R, e) returns the gradient of the stack R = restriction_maps(
    W_theta, plans[e]) of the edges in the slice e.  R and its gradient
    are formed BLOCK_CHUNK edges at a time, so no stack of every edge is
    held.  A gradient G_ij of R_ij = W'P reaches W as sum_e P_e G_ij,e',
    and G_ji of R_ji = W'P' as sum_e P_e' G_ji,e'.
    """
    dW = np.zeros_like(W_theta)
    for s in range(0, len(plans), BLOCK_CHUNK):
        e = slice(s, s + BLOCK_CHUNK)
        P = plans[e]
        dR = grad(restriction_maps(W_theta, P), e)
        k = len(P)
        dW += np.tensordot(P, dR[:k], ([0, 2], [0, 2]))
        dW += np.tensordot(P, dR[k:], ([0, 1], [0, 2]))
    return dW


def laplacian_blocks(W_theta, plans: np.ndarray, edges: np.ndarray,
                     n: int) -> tuple[Var, Var, SheafLaplacian]:
    """Assemble diag_i = sum R'R over incident edges and off_e = -R_ij'R_ji.

    Returns both as Vars and L = sheaf_laplacian(W_theta, plans, edges, n),
    whose arrays they hold.  W_theta is a Var or, when it is not trained,
    an array: then both blocks are constants on the tape.  W_theta's
    gradient is formed in each VJP by restriction_vjp, which forms R
    again, so no restriction stack is held on the tape.
    """
    W = value_of(W_theta)
    L = sheaf_laplacian(W, plans, edges, n)

    def d_diag(g, live):
        # each Gram block R'R of an edge end sends R (g + g') to that R
        gs = g + g.transpose(0, 2, 1)
        return (restriction_vjp(W, plans,
                                lambda R, e: R @ gs[edges[e].T.ravel()]),)

    def d_off(g, live):
        def grad(R, e):
            k = len(R) // 2
            dR = np.empty_like(R)
            np.matmul(R[k:], g[e].transpose(0, 2, 1), out=dR[:k])
            np.matmul(R[:k], g[e], out=dR[k:])
            return dR
        return (-restriction_vjp(W, plans, grad),)

    return Var(L.diag, (W_theta,), d_diag), Var(L.off, (W_theta,), d_off), L


def _warn_unconverged(solve: str, info) -> None:
    if not info.converged:
        logger.warning("%s solve stopped unconverged: %d CG iterations, "
                       "residual %.2e", solve, info.total_iterations,
                       info.residual)


def isqrt_blocks(diag: Var, L: SheafLaplacian) -> Var:
    """Per-block pinv-sqrt from L.block_eigh(), with the matrix-function adjoint.

    L holds diag's values; block_eigh symmetrizes and decomposes them once
    and keeps (w, V) for the CG preconditioner and the gap estimate.  The
    adjoint maps upstream gradients through the eigenbasis with
    divided-difference weights, using h' on (near-)coincident eigenvalues.
    """
    w, V = L.block_eigh()
    T, keep = _block_frames(w, V)
    S = T @ V.transpose(0, 2, 1)
    wscale = np.maximum(w[:, -1:], 1.0)
    wsafe = np.where(keep, w, 1.0)   # dropped modes never feed the powers
    h = np.where(keep, 1.0 / np.sqrt(wsafe), 0.0)
    hp = np.where(keep, -0.5 * wsafe ** -1.5, 0.0)

    def vjp(g, live):
        Vt = V.transpose(0, 2, 1)
        # the weights phi are formed in place: divided differences of h,
        # and the mean of h' where a pair of eigenvalues (nearly) coincides
        dw = w[:, :, None] - w[:, None, :]
        close = np.abs(dw) < 1e-9 * wscale[:, :, None]
        dw[close] = 1.0
        phi = h[:, :, None] - h[:, None, :]
        phi /= dw
        np.add(hp[:, :, None], hp[:, None, :], out=dw)
        dw *= 0.5
        np.copyto(phi, dw, where=close)
        del dw, close
        phi *= Vt @ g @ V
        gb = V @ phi @ Vt
        del phi
        out = gb + gb.transpose(0, 2, 1)
        out *= 0.5
        return (out,)

    return Var(S, (diag,), vjp)


def sandwich_blocks(S: Var, diag: Var, off: Var,
                    edges: np.ndarray) -> tuple[Var, Var]:
    """Blocks of S L S: md_i = S_i D_i S_i, mo_e = S_i O_e S_j.

    The model applies S L S as a composition (diffusion_layer) and never
    forms these blocks; they are the blockwise reference for S L S, with
    their VJPs, and the benchmark's traced runs time this function by name.
    """
    Sv, Dv, Ov = S.value, diag.value, off.value
    I, J = edges[:, 0], edges[:, 1]
    md = Sv @ Dv @ Sv
    mo = Sv[I] @ Ov @ Sv[J]

    def d_md(g, live):
        SD, DS = Sv @ Dv, Dv @ Sv
        St = Sv.transpose(0, 2, 1)
        return (g @ DS.transpose(0, 2, 1) + SD.transpose(0, 2, 1) @ g,
                St @ g @ St)

    # backward gathers Sv[I] and Sv[J] again: holding the forward's two
    # (m, d, d) gathers until then would raise the tape's peak memory; both
    # edge ends are written straight into one (2m, d, d) buffer
    def d_mo(g, live):
        m = len(g)
        ends = np.empty((2 * m, *g.shape[1:]))
        np.matmul(g, (Ov @ Sv[J]).transpose(0, 2, 1), out=ends[:m])
        np.matmul((Sv[I] @ Ov).transpose(0, 2, 1), g, out=ends[m:])
        return (scatter_add(edges.T.ravel(), ends, len(Sv)),
                Sv[I].transpose(0, 2, 1) @ g @ Sv[J].transpose(0, 2, 1))

    return Var(md, (S, diag), d_md), Var(mo, (S, off), d_mo)


def diffusion_layer(S: Var, diag: Var, off: Var, L: SheafLaplacian,
                    gamma: Var, x, ctx: EpochContext, deferred: list,
                    release: bool) -> tuple[Var, object]:
    """One layer's two diffusion branches, side by side in (n, 2 d_v) columns.

    L is the operator with the blocks (diag.value, off.value); every layer
    shares one instance, so its BSR form is built once.  The first d_v
    columns are the heat step (I + dt L)^(-1) x, by CG: with A = I + dt L
    symmetric, y = A~x gives dx = A~g, one adjoint solve, and dL = -dt
    (A~g) y' on the pattern.  An unconverged forward or adjoint solve logs
    a warning.

    The last d_v columns are the Chebyshev filter bank on M = I - S L S.
    M needs no rescaling into [-1, 1]: x'Lx = sum_e ||R_ij x_i - R_ji
    x_j||^2 <= 2 x'Dx for every sheaf Laplacian, so 0 <= S L S <= 2 S D S,
    and S D S is the projector onto range(S).  M is applied as the
    composition M v = v - S (L (S v)): S.value is the block-diagonal stack
    from isqrt_blocks, applied as one batched block product, so no matrix
    but L is built.  S is symmetric, so M is too, and each pair <a, M b> of
    the reverse recurrence sends -pattern_outer(S a, S b) to L's blocks and
    -(a (L S b)' + (L S a) b') block by block to S.  The forward keeps S b
    and L S b of every term, and the reverse forms S a and L S a as it
    applies M, so the gradient adds no matvec.  A node without edges has
    S = 0, so M passes its signal through.

    No block gradient is formed beside L's BSR form.  Each VJP applies L,
    in the adjoint solve and the reverse recurrence, and appends the
    pattern_outer arguments of its block gradients, the heat step's first,
    to deferred, which every layer of a tape shares.  Only the node that
    backward reaches last, layer 0's, is built with release set and has
    the blocks as parents: it drops L's BSR form, which no later node
    applies, then forms the deferred block gradients and sums them in the
    order they were appended.  The adjoint solve runs only when the blocks
    or x are live, the reverse recurrence only when S, the blocks or x
    are; gamma's gradient comes from the forward terms alone.
    """
    xv = value_of(x)
    n, d_v = ctx.n, ctx.d_v
    blocks = diag.live
    cg = CGConfig(tol=ctx.cg_tol, max_iter=ctx.cg_max_iter)
    y, info = svr_diffuse(L, xv.reshape(-1), ctx.dt, cg)
    _warn_unconverged("svr forward", info)

    Sv = S.value
    alphas = chebyshev_weights(gamma.value)
    Q = len(alphas) - 1
    # S T_q and L S T_q of every term T_q the forward multiplies by M, as rows
    ST, LST = np.empty((2, Q, n * d_v))
    rows = iter(range(Q))

    def compose(v, Sx, LSx):
        """M v of a flat signal v; S v and L S v are written to Sx and LSx."""
        np.matmul(Sv, v.reshape(n, d_v, 1), out=Sx.reshape(n, d_v, 1))
        LSx[:] = L.matvec(Sx)
        return v - (Sv @ LSx.reshape(n, d_v, 1)).reshape(-1)

    def apply_M(v):
        # chebyshev_apply multiplies T_0, ..., T_{Q-1} by M, in this order
        q = next(rows)
        return compose(v, ST[q], LST[q])

    h_afm, terms = chebyshev_apply(apply_M, xv.reshape(-1), alphas)
    out = np.concatenate([y.reshape(xv.shape), h_afm.reshape(xv.shape)],
                         axis=1)

    def reverse(gf):
        """The filter's dx, the rows a_q and L S a_q, and the rows S a_q.

        a_q pairs with M T_q and carries the sign of M = I - S L S.
        """
        v = [a * gf for a in alphas]
        dx = v[0]
        AL, SA = np.empty((2, Q, n * d_v)), np.empty((Q, n * d_v))
        A, LSA = AL
        for q in range(Q - 1, -1, -1):
            Mv = compose(v[q + 1], SA[q], LSA[q])
            c = -2.0 if q else -1.0
            A[q] = c * v[q + 1]
            SA[q] *= c
            LSA[q] *= c
            if q:
                v[q] = v[q] + 2.0 * Mv
                v[q - 1] = v[q - 1] - v[q + 1]
            else:
                dx = Mv + v[0]
        return dx, AL, SA

    def vjp(g, live):
        S_live, x_live = live[-3], live[-1]
        gf = g[:, d_v:].reshape(-1)
        d_alpha = np.array([float(gf @ t) for t in terms])
        d_gamma = alphas * (d_alpha - float(alphas @ d_alpha))
        gS = gd = go = dx = None
        if blocks or x_live:
            u, adj_info = svr_diffuse(L, g[:, :d_v].reshape(-1), ctx.dt, cg)
            _warn_unconverged("svr adjoint", adj_info)
        if blocks or S_live or x_live:
            dx, AL, SA = reverse(gf)
        if x_live:
            dx = (u + dx).reshape(xv.shape)
        if blocks:
            deferred.extend([(u, y, -ctx.dt), (SA.T, ST.T, None)])
        if release:
            L._bsr = None
            while deferred:
                a, b, scale = deferred.pop(0)
                pd, po = pattern_outer(ctx.edges, a, b, n, d_v)
                if scale is not None:
                    pd *= scale
                    po *= scale
                if gd is None:
                    gd, go = pd, po
                else:
                    gd += pd
                    go += po
                del pd, po   # not held beside the next pair
        if S_live:
            # the sum over pairs of a_q (L S T_q)' + (L S a_q) T_q', node by
            # node, formed last: AL, which left views, is smaller than it
            left = AL.reshape(2 * Q, -1).T.reshape(n, d_v, 2 * Q)
            right = np.vstack([LST, *terms[:Q]]).T.reshape(n, d_v, 2 * Q)
            gS = left @ right.transpose(0, 2, 1)
        return (gd, go, gS, d_gamma, dx) if release else (gS, d_gamma, dx)

    parents = (diag, off, S, gamma, x) if release else (S, gamma, x)
    return Var(out, parents, vjp), info


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise class probabilities of logits z, max-subtracted first."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def calibrated_ce(logits: Var, probs: np.ndarray, calibrated: np.ndarray,
                  ctx: EpochContext) -> Var:
    """Mean cross-entropy of kappa-blended probabilities over the train mask.

    probs is softmax(logits.value) and calibrated is
    calibrate_prediction(probs, ctx.kappa), both of which every caller has
    already formed.
    """
    z = logits.value
    idx = ctx.train_idx
    py = calibrated[idx, ctx.y[idx]]
    loss = float(-np.log(np.maximum(py, 1e-300)).mean())

    def vjp(g, live):
        G = np.zeros_like(z)
        p_idx = probs[idx]
        p_true = p_idx[np.arange(idx.size), ctx.y[idx]]
        coeff = ctx.kappa[idx] * p_true / np.maximum(py, 1e-300) / idx.size
        rows = -coeff[:, None] * (-p_idx)
        rows[np.arange(idx.size), ctx.y[idx]] -= coeff
        G[idx] = rows * float(g)
        return (G,)

    return Var(loss, (logits,), vjp)


# -------------------------------------------------------------- full forward

def forward_tape(params: ModelParams, ctx: EpochContext):
    """Build the tape from frozen context to logits.

    Returns (logits Var, leaves dict, aux dict).  leaves holds one Var per
    trainable weight; a frozen W_theta enters as its array, so the blocks,
    S and every solve that reads only them and X0 are constants, and
    backward runs no VJP toward them.  aux carries the block Vars, L (the
    pass's one SheafLaplacian, from laplacian_blocks), forward CG
    iteration counts, and the fused embeddings per layer.  L is the only
    operator on the tape: S is made from its block_eigh, and each layer is
    one diffusion_layer node, whose CG solves and Chebyshev filter apply
    it.  Layer 0's node, the last that backward reaches, drops L's BSR
    form before it forms the block gradients of every layer.
    """
    leaves = {name: Var(value) for name, value in params.trainable().items()}
    diag, off, L = laplacian_blocks(leaves.get("W_theta", params.W_theta),
                                    ctx.plans, ctx.edges, ctx.n)
    S = isqrt_blocks(diag, L)
    x = ctx.X0
    cg_iters = 0
    embeddings = []
    pre_acts = []
    z = None
    deferred = []
    for layer in range(ctx.n_layers):
        h, info = diffusion_layer(S, diag, off, L, leaves["gamma"], x, ctx,
                                  deferred, release=layer == 0)
        cg_iters += info.total_iterations
        pre = linear(h, leaves["W_mix"])
        pre_acts.append(pre.value)
        z = relu(pre)
        embeddings.append(z.value)
        x = z
    logits = linear(z, leaves["W_cls"])
    aux = {"diag": diag, "off": off, "L": L, "cg_iters": cg_iters,
           "embeddings": embeddings, "pre_acts": pre_acts}
    return logits, leaves, aux


def _loss(logits: Var, ctx: EpochContext) -> Var:
    probs = softmax(logits.value)
    return calibrated_ce(logits, probs, calibrate_prediction(probs, ctx.kappa),
                         ctx)


def loss_value(params: ModelParams, ctx: EpochContext) -> float:
    """The epoch loss: calibrated CE of one forward pass."""
    return float(_loss(forward_tape(params, ctx)[0], ctx).value)


def leaf_grads(leaves: dict[str, Var]) -> dict[str, np.ndarray]:
    """Each leaf's accumulated gradient, zero where none reached it.

    Raises FloatingPointError naming the first leaf with a non-finite entry.
    """
    grads = {}
    for name, leaf in leaves.items():
        g = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in {name}")
        grads[name] = g
    return grads


def grad_params(params: ModelParams, ctx: EpochContext):
    """Exact gradients of the epoch loss for every trainable block."""
    logits, leaves, aux = forward_tape(params, ctx)
    ce = _loss(logits, ctx)
    backward(ce)
    return leaf_grads(leaves), float(ce.value), aux


def finite_difference_gradients(params: ModelParams, ctx: EpochContext
                                ) -> dict[str, np.ndarray]:
    """Central differences of the epoch loss, one entry at a time."""
    step = 1e-4
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
