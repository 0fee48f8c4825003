"""Diffusion and filtering of stalk signals.

Two branches share one Laplacian: an implicit-Euler smoothing step
(I + dt L) x = b solved by conjugate gradients, and a low-order Chebyshev
filter bank on the normalized operator whose mixing weights are a softmax
over learned logits.  Their outputs are fused by a learned mixer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CGConfig:
    tol: float = 1e-8          # absolute tolerance on ||b - A x||_2
    max_iter: int = 1000


@dataclass
class DiffusionConfig:
    dt: float = 0.1
    cg_tol: float = 1e-8
    cg_max_iter: int = 1000


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


def cg_solve(apply_A, b: np.ndarray, cfg: CGConfig, x0: np.ndarray | None = None,
             precond=None) -> CGResult:
    """Conjugate gradients on a symmetric positive (semi)definite system.

    apply_A maps a vector to A @ vector; precond, if given, applies an SPD
    approximation of A^{-1}.  Iterates until the (unpreconditioned) residual
    2-norm drops to cfg.tol; returns the best iterate with converged=False
    if the budget runs out.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError("cg_solve expects a single right-hand side")
    x = np.zeros_like(b) if x0 is None else x0.astype(np.float64).copy()
    r = b - apply_A(x)
    res = float(np.linalg.norm(r))
    if res <= cfg.tol:
        return CGResult(x=x, iterations=0, residual=res, converged=True)
    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, cfg.max_iter + 1):
        Ap = apply_A(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0 or not np.isfinite(pAp):
            # numerically exhausted search direction (singular consistent
            # systems end up here once the residual is at roundoff level)
            return CGResult(x=x, iterations=it - 1, residual=res,
                            converged=res <= cfg.tol)
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        res = float(np.linalg.norm(r))
        if res <= cfg.tol:
            return CGResult(x=x, iterations=it, residual=res, converged=True)
        z = precond(r) if precond is not None else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return CGResult(x=x, iterations=cfg.max_iter, residual=res, converged=False)


def jacobi_block_preconditioner(L, dt: float):
    """Inverse of the block diagonal of I + dt L, applied block by block."""
    n, d = L.n, L.d_v
    blocks = np.eye(d)[None, :, :] + dt * L.diag
    inv = np.linalg.inv(blocks)

    def apply(r: np.ndarray) -> np.ndarray:
        return np.einsum("nab,nb->na", inv, r.reshape(n, d)).reshape(-1)

    return apply


@dataclass
class DiffusionInfo:
    iterations: int            # max CG iterations over columns
    total_iterations: int
    residual: float
    converged: bool


def svr_diffuse(L, X: np.ndarray, cfg: DiffusionConfig,
                warm: np.ndarray | None = None) -> tuple[np.ndarray, DiffusionInfo]:
    """Implicit smoothing (I + dt L)^{-1} X, one CG solve per signal column.

    `warm` (same shape as X) supplies previous-epoch solutions as starting
    iterates; Jacobi block preconditioning uses the diagonal blocks of L.
    """
    X = np.asarray(X, dtype=np.float64)
    squeeze = X.ndim == 1
    Xc = X[:, None] if squeeze else X
    apply_A = lambda v: v + cfg.dt * L.matvec(v)
    precond = jacobi_block_preconditioner(L, cfg.dt)
    cgc = CGConfig(tol=cfg.cg_tol, max_iter=cfg.cg_max_iter)
    out = np.empty_like(Xc)
    iters, total, res, ok = 0, 0, 0.0, True
    for c in range(Xc.shape[1]):
        x0 = None if warm is None else warm.reshape(Xc.shape)[:, c]
        r = cg_solve(apply_A, Xc[:, c], cgc, x0=x0, precond=precond)
        out[:, c] = r.x
        iters = max(iters, r.iterations)
        total += r.iterations
        res = max(res, r.residual)
        ok = ok and r.converged
    return (out[:, 0] if squeeze else out,
            DiffusionInfo(iterations=iters, total_iterations=total,
                          residual=res, converged=ok))


def chebyshev_weights(gamma: np.ndarray) -> np.ndarray:
    """Softmax over filter logits; the weights form a simplex."""
    g = np.asarray(gamma, dtype=np.float64)
    e = np.exp(g - g.max())
    return e / e.sum()


def chebyshev_apply(apply_M, X: np.ndarray, alphas: np.ndarray):
    """sum_q alphas[q] T_q(M) X via the three-term recurrence.

    Returns (result, [T_0 X, ..., T_Q X]); the polynomial term list is reused
    by gradient code.
    """
    T_prev = np.asarray(X, dtype=np.float64)
    terms = [T_prev]
    out = alphas[0] * T_prev
    if len(alphas) > 1:
        T_cur = apply_M(T_prev)
        terms.append(T_cur)
        out = out + alphas[1] * T_cur
        for q in range(2, len(alphas)):
            T_next = 2.0 * apply_M(T_cur) - T_prev
            terms.append(T_next)
            out = out + alphas[q] * T_next
            T_prev, T_cur = T_cur, T_next
    return out, terms


def afm_filter(L_norm, X: np.ndarray, gamma: np.ndarray,
               scale: float | None = None):
    """Adaptive-frequency filtering on the normalized operator.

    The recurrence input is rescaled by 1/max(1, lambda_max) so Chebyshev
    iterates stay bounded on operators whose spectrum leaves [-1, 1].
    Returns (filtered, weights, scale).
    """
    if scale is None:
        scale = 1.0 / max(1.0, L_norm.lambda_max())
    alphas = chebyshev_weights(gamma)
    apply_M = lambda v: scale * L_norm.matvec(v)
    out, _ = chebyshev_apply(apply_M, X, alphas)
    return out, alphas, scale


def fuse(H_svr: np.ndarray, H_afm: np.ndarray, W_mix: np.ndarray) -> np.ndarray:
    """ReLU(W_mix [H_svr ; H_afm]) applied row-wise."""
    Z = np.concatenate([H_svr, H_afm], axis=1)
    return np.maximum(Z @ W_mix.T, 0.0)


def predict(H: np.ndarray, W_cls: np.ndarray) -> np.ndarray:
    """Row-stochastic class probabilities; logits are max-subtracted first."""
    logits = H @ W_cls.T
    logits = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)
