"""Entropic optimal transport between node feature measures.

Features are projected to a common p-dimensional space, normalized to
probability vectors over the canonical basis, and coupled by Sinkhorn
iteration under the basis cost ||e_a - e_b||^2 = 2 * (a != b).  A single
proximal (KL) refinement step sharpens the entropic plan, and a learned
matrix turns each plan into the pair of restriction maps for its edge.

All Sinkhorn arithmetic is done in the log domain, so tiny regularization
values and plans with severely underflowing entries are handled without
special cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .laplacian import SheafIncidence


@dataclass
class LiftConfig:
    eps: float = 0.5          # entropic regularization strength
    tau: float = 1.0          # proximal step size for the refinement
    tol: float = 1e-9         # L1 marginal violation tolerance
    max_iter: int = 5000
    floor: float = 1e-6       # additive floor when normalizing features


@dataclass
class TransportPlan:
    P: np.ndarray             # (p, p) nonnegative, marginals (mu, nu)
    mu: np.ndarray
    nu: np.ndarray
    iterations: int
    violation: float          # achieved L1 marginal error


class SinkhornDivergence(RuntimeError):
    """Raised when the scaling iteration fails to meet the marginal tolerance."""


def feature_cost_matrix(p: int) -> np.ndarray:
    """Squared distance between canonical basis vectors: 2 off the diagonal."""
    if p <= 0:
        raise ValueError("p must be positive")
    return 2.0 * (1.0 - np.eye(p))


def normalize_to_measure(h: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    """Clamp negatives, add a floor, and normalize to a probability vector.

    An all-zero input (with floor = 0) degenerates to the uniform measure.
    """
    h = np.asarray(h, dtype=np.float64)
    v = np.maximum(h, 0.0) + floor
    s = v.sum(axis=-1, keepdims=True)
    uniform = np.full_like(v, 1.0 / v.shape[-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(s > 0.0, v / np.where(s > 0.0, s, 1.0), uniform)
    return out


def _sinkhorn_log(log_kernel, log_mu, log_nu, tol, max_iter, check_every=5):
    """Batched log-domain scaling loop.

    log_kernel: (m, p, p) or broadcastable; log_mu/log_nu: (m, p).
    Returns (log_P, iterations, violation) where violation is the largest
    L1 marginal error across the batch.
    """
    log_u = np.zeros_like(log_mu)
    log_v = np.zeros_like(log_nu)
    violation = np.inf
    it = 0
    while it < max_iter:
        it += 1
        log_u = log_mu - logsumexp(log_kernel + log_v[:, None, :], axis=2)
        log_v = log_nu - logsumexp(log_kernel + log_u[:, :, None], axis=1)
        if it % check_every == 0 or it == max_iter:
            log_P = log_kernel + log_u[:, :, None] + log_v[:, None, :]
            P = np.exp(log_P)
            row_err = np.abs(P.sum(axis=2) - np.exp(log_mu)).sum(axis=1)
            col_err = np.abs(P.sum(axis=1) - np.exp(log_nu)).sum(axis=1)
            violation = float(np.maximum(row_err, col_err).max())
            if violation <= tol:
                return log_P, it, violation
    raise SinkhornDivergence(
        f"marginal violation {violation:.3e} > tol {tol:.3e} after {max_iter} iterations"
    )


def sinkhorn(mu: np.ndarray, nu: np.ndarray, C: np.ndarray,
             cfg: LiftConfig) -> TransportPlan:
    """Entropy-regularized optimal transport plan between two measures.

    Solves min <P, C> + eps * sum P (log P - 1) over couplings of (mu, nu);
    the optimum has the scaling form diag(u) exp(-C/eps) diag(v).
    """
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    if mu.ndim != 1 or nu.ndim != 1 or mu.shape != nu.shape:
        raise ValueError("mu and nu must be 1-D with matching length")
    if np.any(mu <= 0) or np.any(nu <= 0):
        raise ValueError("marginals must be strictly positive (normalize first)")
    log_kernel = (-C / cfg.eps)[None, :, :]
    log_P, it, viol = _sinkhorn_log(
        log_kernel, np.log(mu)[None, :], np.log(nu)[None, :], cfg.tol, cfg.max_iter
    )
    return TransportPlan(P=np.exp(log_P[0]), mu=mu, nu=nu, iterations=it, violation=viol)


def _proximal_log_kernel(log_P0, C, cfg):
    # surrogate of one Wasserstein gradient-flow step: minimizing
    # <P,C> + eps*H(P) + KL(P||P0)/tau over couplings has scaling form with
    # kernel P0^(1/(1+eps*tau)) * exp(-tau*C/(1+eps*tau))
    denom = 1.0 + cfg.eps * cfg.tau
    return log_P0 / denom - (cfg.tau / denom) * C


def jko_refine(plan0: TransportPlan, C: np.ndarray, cfg: LiftConfig) -> TransportPlan:
    """One KL-proximal refinement of an entropic plan (same marginals)."""
    with np.errstate(divide="ignore"):
        log_P0 = np.log(plan0.P)
    log_kernel = _proximal_log_kernel(log_P0, C, cfg)[None, :, :]
    log_P, it, viol = _sinkhorn_log(
        log_kernel,
        np.log(plan0.mu)[None, :],
        np.log(plan0.nu)[None, :],
        cfg.tol,
        cfg.max_iter,
    )
    return TransportPlan(
        P=np.exp(log_P[0]), mu=plan0.mu, nu=plan0.nu, iterations=it, violation=viol
    )


def entropic_objective(P: np.ndarray, C: np.ndarray, eps: float) -> float:
    """<P, C> + eps * sum P (log P - 1), with 0 log 0 = 0."""
    P = np.asarray(P, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(P > 0, P * (np.log(P) - 1.0), 0.0)
    return float((P * C).sum() + eps * ent.sum())


def restriction_from_plan(P: np.ndarray, W_theta: np.ndarray) -> np.ndarray:
    """R = W_theta^T P, mapping a node stalk into the edge stalk."""
    return W_theta.T @ P


def lift_edge(h_i, h_j, W_proj, W_theta, cfg: LiftConfig):
    """Restriction-map pair for one edge from its endpoint features.

    Returns (R_ij, R_ji), each d_e x p, where p is the projection width.
    """
    x_i = np.asarray(h_i, dtype=np.float64) @ W_proj
    x_j = np.asarray(h_j, dtype=np.float64) @ W_proj
    mu = normalize_to_measure(x_i, cfg.floor)
    nu = normalize_to_measure(x_j, cfg.floor)
    C = feature_cost_matrix(mu.shape[-1])
    plan = jko_refine(sinkhorn(mu, nu, C, cfg), C, cfg)
    return restriction_from_plan(plan.P, W_theta), restriction_from_plan(plan.P.T, W_theta)


def edge_plans(g_edges: np.ndarray, H: np.ndarray, W_proj: np.ndarray,
               cfg: LiftConfig, refine: bool = True) -> np.ndarray:
    """Refined transport plans for every edge, batched across the edge set.

    This is the feature-only part of the lift: it does not involve the
    learned matrix, so a trainer can cache its output across epochs.
    refine=False stops after the entropic solve, skipping the proximal step.
    """
    X = np.asarray(H, dtype=np.float64) @ W_proj
    M = normalize_to_measure(X, cfg.floor)  # (n, p)
    p = M.shape[1]
    C = feature_cost_matrix(p)
    if g_edges.shape[0] == 0:
        return np.zeros((0, p, p))
    log_mu = np.log(M[g_edges[:, 0]])
    log_nu = np.log(M[g_edges[:, 1]])
    log_P0, _, _ = _sinkhorn_log(
        (-C / cfg.eps)[None, :, :], log_mu, log_nu, cfg.tol, cfg.max_iter
    )
    if not refine:
        return np.exp(log_P0)
    log_kernel = _proximal_log_kernel(log_P0, C[None, :, :], cfg)
    log_P, _, _ = _sinkhorn_log(log_kernel, log_mu, log_nu, cfg.tol, cfg.max_iter)
    return np.exp(log_P)


def restrictions_from_plans(g, plans: np.ndarray,
                            W_theta: np.ndarray) -> SheafIncidence:
    """Apply the learned matrix to the plans of g's edges: Rij = W^T P, Rji = W^T P^T.

    Both maps of an edge come from its one plan, so the pair is
    transpose-compatible by construction.
    """
    Rij = np.einsum("pd,mpq->mdq", W_theta, plans)
    Rji = np.einsum("pd,mqp->mdq", W_theta, plans)
    return SheafIncidence(n=g.n, edges=g.edges, Rij=Rij, Rji=Rji)


def lift_all_edges(g, H: np.ndarray, W_proj: np.ndarray, W_theta: np.ndarray,
                   cfg: LiftConfig) -> SheafIncidence:
    """Restriction maps of every edge of a graph (see edge_plans)."""
    plans = edge_plans(g.edges, H, W_proj, cfg)
    return restrictions_from_plans(g, plans, W_theta)
