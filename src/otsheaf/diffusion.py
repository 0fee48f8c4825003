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
    tol: float      # absolute tolerance on ||b - A x||_2
    max_iter: int


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


def cg_solve(apply_A, b: np.ndarray, cfg: CGConfig, precond=None) -> CGResult:
    """Conjugate gradients on a symmetric positive (semi)definite system.

    apply_A maps a vector to A @ vector; precond, if given, applies an SPD
    approximation of A^{-1}.  Starts from zero and iterates until the
    (unpreconditioned) residual 2-norm drops to cfg.tol; returns the best
    iterate with converged=False if the budget runs out.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError("cg_solve expects a single right-hand side")
    x = np.zeros_like(b)
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
    """Inverse of the block diagonal of I + dt L, applied block by block.

    With (w, V) = L.block_eigh(), the one decomposition of L's blocks
    D_i = V_i diag(w_i) V_i', the inverse of I + dt D_i is
    V_i diag(1 / (1 + dt w_i)) V_i', applied as one batched matmul.
    """
    n, d = L.n, L.d_v
    w, V = L.block_eigh()
    inv = (V / (1.0 + dt * w)[:, None, :]) @ V.transpose(0, 2, 1)

    def apply(r: np.ndarray) -> np.ndarray:
        return (inv @ r.reshape(n, d, 1)).reshape(-1)

    return apply


@dataclass
class DiffusionInfo:
    total_iterations: int
    residual: float
    converged: bool


def svr_diffuse(L, x: np.ndarray, dt: float,
                cg: CGConfig) -> tuple[np.ndarray, DiffusionInfo]:
    """Implicit smoothing (I + dt L)^{-1} x of one flat signal, by CG.

    Jacobi block preconditioning uses the diagonal blocks of L.
    """
    r = cg_solve(lambda v: v + dt * L.matvec(v), x, cg,
                 precond=jacobi_block_preconditioner(L, dt))
    return r.x, DiffusionInfo(total_iterations=r.iterations,
                              residual=r.residual, converged=r.converged)


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
