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

from .autodiff import Var, backward, concat_cols, linear, relu, value_of
from .calibration import calibrate_prediction
from .diffusion import CGConfig, chebyshev_apply, chebyshev_weights, svr_diffuse
from .laplacian import (
    BLOCK_CHUNK,
    SheafIncidence,
    SheafLaplacian,
    _block_isqrt,
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
                     n: int) -> tuple[Var, Var]:
    """Assemble diag_i = sum R'R over incident edges and off_e = -R_ij'R_ji.

    The blocks are those of sheaf_laplacian(W_theta, plans, edges, n).
    W_theta is a Var or, when it is not trained, an array: then both
    blocks are constants on the tape.  W_theta's gradient is formed in
    each VJP by restriction_vjp, which forms R again, so no restriction
    stack is held on the tape.
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

    return Var(L.diag, (W_theta,), d_diag), Var(L.off, (W_theta,), d_off)


def _warn_unconverged(solve: str, info) -> None:
    if not info.converged:
        logger.warning("%s solve stopped unconverged: %d CG iterations, "
                       "residual %.2e", solve, info.total_iterations,
                       info.residual)


def svr_branch(diag: Var, off: Var, L: SheafLaplacian, x,
               ctx: EpochContext) -> tuple[Var, object]:
    """(I + dt L)^(-1) x via CG; adjoint solves the same system once more.

    L is the operator with the blocks (diag.value, off.value); sharing one
    instance across layers builds its BSR form once.  With A = I + dt L
    symmetric, y = A~x gives dL = -dt * (A~g) y' restricted to the pattern,
    and dx = A~g; the outer product on the pattern is formed only when a
    block is live.  An unconverged forward or adjoint solve logs a warning.
    """
    xv = value_of(x)
    cg = CGConfig(tol=ctx.cg_tol, max_iter=ctx.cg_max_iter)
    y, info = svr_diffuse(L, xv.reshape(-1), ctx.dt, cg)
    _warn_unconverged("svr forward", info)

    def solve_adjoint(g, live):
        u, adj_info = svr_diffuse(L, g.reshape(-1), ctx.dt, cg)
        _warn_unconverged("svr adjoint", adj_info)
        gd = go = None
        if live[0] or live[1]:
            gd, go = pattern_outer(ctx.edges, u, y, ctx.n, ctx.d_v)
            gd *= -ctx.dt
            go *= -ctx.dt
        return gd, go, u.reshape(xv.shape)

    return Var(y.reshape(xv.shape), (diag, off, x), solve_adjoint), info


def isqrt_blocks(diag: Var) -> tuple[Var, tuple]:
    """Per-block pinv-sqrt through eigh, with the matrix-function adjoint.

    The forward symmetrizes the blocks first (they are symmetric whenever
    they come from an assembly, so this is the identity on the model path);
    the adjoint maps upstream gradients through the eigenbasis with
    divided-difference weights, using h' on (near-)coincident eigenvalues.
    Returns the Var and the blocks' eigendecomposition (w, V).
    """
    D = 0.5 * (diag.value + diag.value.transpose(0, 2, 1))
    S, w, V, keep = _block_isqrt(D)
    wscale = np.maximum(w[:, -1:], 1.0)
    wsafe = np.where(keep, w, 1.0)   # dropped modes never feed the powers
    h = np.where(keep, 1.0 / np.sqrt(wsafe), 0.0)
    hp = np.where(keep, -0.5 * wsafe ** -1.5, 0.0)

    def vjp(g, live):
        Vt = V.transpose(0, 2, 1)
        gt = Vt @ g @ V
        dw = w[:, :, None] - w[:, None, :]
        dh = h[:, :, None] - h[:, None, :]
        close = np.abs(dw) < 1e-9 * wscale[:, :, None]
        avg_hp = 0.5 * (hp[:, :, None] + hp[:, None, :])
        phi = np.where(close, avg_hp, dh / np.where(close, 1.0, dw))
        gb = V @ (phi * gt) @ Vt
        return (0.5 * (gb + gb.transpose(0, 2, 1)),)

    return Var(S, (diag,), vjp), (w, V)


def sandwich_blocks(S: Var, diag: Var, off: Var,
                    edges: np.ndarray) -> tuple[Var, Var]:
    """Blocks of S L S: md_i = S_i D_i S_i, mo_e = S_i O_e S_j.

    The model applies S L S as a composition (cheb_branch) and never forms
    these blocks; they are the blockwise reference for S L S, with their
    VJPs, and the benchmark's traced runs time this function by name.
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


def cheb_branch(S: Var, diag: Var, off: Var, L: SheafLaplacian, gamma: Var,
                x, ctx: EpochContext) -> Var:
    """Chebyshev filter bank on M = I - S L S, reverse recurrence VJP.

    M needs no rescaling into [-1, 1]: x'Lx = sum_e ||R_ij x_i - R_ji x_j||^2
    <= 2 x'Dx for every sheaf Laplacian, so 0 <= S L S <= 2 S D S, and
    S D S is the projector onto range(S).  M is applied as the composition
    M v = v - S (L (S v)): S.value is the block-diagonal stack from
    isqrt_blocks, applied as one batched block product, and L the operator
    with the blocks (diag.value, off.value) that the CG solves share, so
    no matrix but L is built.  S is symmetric, so M is too, and each pair
    <a, M b> of the reverse recurrence sends -pattern_outer(S a, S b) to
    L's blocks and -(a (L S b)' + (L S a) b') block by block to S.  The
    forward keeps S b and L S b of every term, and the reverse forms S a
    and L S a as it applies M, so the gradient adds no matvec.  When S,
    the blocks and x are all constants, gamma's gradient comes from the
    forward terms alone and the reverse recurrence does not run.  A node
    without edges has S = 0, so M passes its signal through.
    """
    xv = value_of(x)
    n, d_v = ctx.n, ctx.d_v
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

    out_flat, terms = chebyshev_apply(apply_M, xv.reshape(-1), alphas)

    def reverse(g, live):
        gf = g.reshape(-1)
        d_alpha = np.array([float(gf @ t) for t in terms])
        d_gamma = alphas * (d_alpha - float(alphas @ d_alpha))
        if not (any(live[:3]) or live[4]):
            return None, None, None, d_gamma, None
        u = [a * gf for a in alphas]
        dx = u[0]
        # a_q, S a_q and L S a_q of the pair <a_q, M T_q>, as rows;
        # M = I - S L S, so the sign of every block gradient rides on a_q
        A, SA, LSA = np.empty((3, Q, n * d_v))
        for q in range(Q - 1, -1, -1):
            Mu = compose(u[q + 1], SA[q], LSA[q])
            c = -2.0 if q else -1.0
            A[q] = c * u[q + 1]
            SA[q] *= c
            LSA[q] *= c
            if q:
                u[q] = u[q] + 2.0 * Mu
                u[q - 1] = u[q - 1] - u[q + 1]
            else:
                dx = Mu + u[0]
        gS = gd = go = None
        if live[1] or live[2]:
            gd, go = pattern_outer(ctx.edges, SA.T, ST.T, n, d_v)
        if live[0]:
            # the sum over pairs of a_q (L S T_q)' + (L S a_q) T_q', node
            # by node
            left = np.vstack([A, LSA]).T.reshape(n, d_v, 2 * Q)
            right = np.vstack([LST, *terms[:Q]]).T.reshape(n, d_v, 2 * Q)
            gS = left @ right.transpose(0, 2, 1)
        return gS, gd, go, d_gamma, dx.reshape(xv.shape)

    return Var(out_flat.reshape(xv.shape), (S, diag, off, gamma, x), reverse)


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
    backward runs no VJP toward them.  aux carries the block Vars, the
    SheafLaplacian built once from their values (it carries the
    blocks' eigendecomposition from isqrt_blocks, which the epoch's gap
    estimate reuses), forward CG iteration counts, and the fused
    embeddings per layer.  L is the only operator on the tape: every
    layer's CG solves apply it, and so does every layer's Chebyshev
    filter, between two products with the blocks of S.
    """
    leaves = {name: Var(value) for name, value in params.trainable().items()}
    diag, off = laplacian_blocks(leaves.get("W_theta", params.W_theta),
                                 ctx.plans, ctx.edges, ctx.n)
    S, diag_eigh = isqrt_blocks(diag)
    L = SheafLaplacian(n=ctx.n, d_v=ctx.d_v, edges=ctx.edges,
                       diag=diag.value, off=off.value, diag_eigh=diag_eigh)
    x = ctx.X0
    cg_iters = 0
    embeddings = []
    pre_acts = []
    z = None
    for _ in range(ctx.n_layers):
        h_svr, info = svr_branch(diag, off, L, x, ctx)
        cg_iters += info.total_iterations
        h_afm = cheb_branch(S, diag, off, L, leaves["gamma"], x, ctx)
        pre = linear(concat_cols(h_svr, h_afm), leaves["W_mix"])
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
