"""Entropic optimal transport between node feature measures.

Features are projected to a common p-dimensional space, normalized to
probability vectors over the canonical basis, and coupled by Sinkhorn
iteration under the basis cost ||e_a - e_b||^2 = 2 * (a != b).  A learned
matrix turns each plan into the pair of restriction maps for its edge.

The lift runs one entropic pass and no KL-proximal step after it.  The
entropic optimum P0, with log P0 = (f + g - C)/eps, is a fixed point of
the proximal step min <P,C> + eps*H(P) + KL(P||P0)/tau for every tau: the
stationarity condition C + eps*log P + (log P - log P0)/tau = f' + g' holds
at P = P0 with f' = f and g' = g, since the KL gradient vanishes there
(Peyre & Cuturi 2019, Computational Optimal Transport, section 4).  A
second pass would return the plan it was given.

All Sinkhorn arithmetic is done in the log domain, so tiny regularization
values and plans with severely underflowing entries are handled without
special cases.

The batched lift (`edge_plans`) uses the structure of the basis cost: the
kernel exp(-C/eps) is c*11^T + (1-c)*I with c = exp(-2/eps), so one kernel
product is a sum plus a diagonal term and each scaling step costs O(m*p)
for m edges, not O(m*p^2) (ibid.).  The dense (m, p, p) plans are
materialised once, at the end.  The single-pair `sinkhorn` keeps a dense
kernel and accepts any cost; it serves as the reference solver.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .laplacian import SheafIncidence

logger = logging.getLogger(__name__)


@dataclass
class LiftConfig:
    eps: float = 0.5          # entropic regularization strength
    tol: float = 1e-9         # L1 marginal violation tolerance
    max_iter: int = 5000
    floor: float = 1e-6       # additive floor when normalizing features

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


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


def entropic_objective(P: np.ndarray, C: np.ndarray, eps: float) -> float:
    """<P, C> + eps * sum P (log P - 1), with 0 log 0 = 0."""
    P = np.asarray(P, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(P > 0, P * (np.log(P) - 1.0), 0.0)
    return float((P * C).sum() + eps * ent.sum())


def restriction_from_plan(P: np.ndarray, W_theta: np.ndarray) -> np.ndarray:
    """R = W_theta^T P, mapping a node stalk into the edge stalk.

    P may be one (p, p) plan or a stack (m, p, p); the product broadcasts.
    """
    return W_theta.T @ P


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum_j exp(a[:, j]) for a (m, p) array whose rows are not all -inf.

    scipy's logsumexp takes about 3x as long at (890, 16), and this runs
    twice per scaling step.
    """
    mx = a.max(axis=1)
    return mx + np.log(np.exp(a - mx[:, None]).sum(axis=1))


def _log_kernel_apply(log_c: float, log_1mc: float, log_x: np.ndarray) -> np.ndarray:
    """Row-wise log(K x) for K = c*11^T + (1-c)*I, from log x of shape (m, p)."""
    return np.logaddexp(log_c + _row_logsumexp(log_x)[:, None], log_1mc + log_x)


def _sinkhorn_structured(log_c, log_mu, log_nu, tol, max_iter,
                         check_every=5):
    """Batched log-domain scaling loop for the kernel c*11^T + (1-c)*I.

    log_mu/log_nu: (m, p); the column scaling starts at v = 1.  Every step
    and every marginal check costs O(m*p).  Returns
    (log_u, log_v, iterations, per-edge L1 marginal violation); the caller
    decides what a violation above tol means.
    """
    log_1mc = np.log(-np.expm1(log_c))
    mu, nu = np.exp(log_mu), np.exp(log_nu)
    violation = np.full(log_mu.shape[0], np.inf)
    log_Kv = _log_kernel_apply(log_c, log_1mc, np.zeros_like(log_nu))
    it = 0
    while it < max_iter:
        it += 1
        log_u = log_mu - log_Kv
        log_Ku = _log_kernel_apply(log_c, log_1mc, log_u)
        log_v = log_nu - log_Ku
        log_Kv = _log_kernel_apply(log_c, log_1mc, log_v)
        if it % check_every == 0 or it == max_iter:
            rows = np.exp(log_u + log_Kv)
            cols = np.exp(log_v + log_Ku)
            violation = np.maximum(np.abs(rows - mu).sum(axis=1),
                                   np.abs(cols - nu).sum(axis=1))
            if violation.max() <= tol:
                break
    return log_u, log_v, it, violation


def _materialise_plans(log_c: float, log_u: np.ndarray,
                       log_v: np.ndarray) -> np.ndarray:
    """Dense (m, p, p) plans diag(u) (c*11^T + (1-c)*I) diag(v), built in place."""
    p = log_u.shape[1]
    log_K = np.full((p, p), log_c)
    np.fill_diagonal(log_K, 0.0)
    out = log_u[:, :, None] + log_K
    out += log_v[:, None, :]
    return np.exp(out, out=out)


def edge_plans(g_edges: np.ndarray, H: np.ndarray, W_proj: np.ndarray,
               cfg: LiftConfig) -> np.ndarray:
    """Entropic transport plans for every edge, batched across the edge set.

    This is the feature-only part of the lift: it does not involve the
    learned matrix, so a trainer can cache its output across epochs.

    The pass runs on the structured kernel of the basis cost (see the
    module docstring): each scaling step is O(m*p), and the dense (m, p, p)
    plans are materialised once, at the end.  Raises ValueError if a node's
    projected features are not finite, and SinkhornDivergence, naming the
    pass and the worst edge, if the pass misses the marginal tolerance.
    """
    X = np.asarray(H, dtype=np.float64) @ W_proj
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(
            f"node {int(np.argmax(bad))} has non-finite projected features")
    M = normalize_to_measure(X, cfg.floor)  # (n, p)
    p = M.shape[1]
    if g_edges.shape[0] == 0:
        return np.zeros((0, p, p))
    log_mu = np.log(M[g_edges[:, 0]])
    log_nu = np.log(M[g_edges[:, 1]])
    log_c = -2.0 / cfg.eps
    log_u, log_v, it, viol = _sinkhorn_structured(
        log_c, log_mu, log_nu, cfg.tol, cfg.max_iter)
    worst = int(np.argmax(viol))
    logger.debug("entropic pass: %d iterations, marginal violation %.3e",
                 it, viol[worst])
    if not viol[worst] <= cfg.tol:
        i, j = g_edges[worst]
        raise SinkhornDivergence(
            f"entropic pass: marginal violation {viol[worst]:.3e} > tol "
            f"{cfg.tol:.3e} after {it} iterations; worst edge {worst} "
            f"({int(i)}, {int(j)})")
    return _materialise_plans(log_c, log_u, log_v)


def restrictions_from_plans(g, plans: np.ndarray,
                            W_theta: np.ndarray) -> SheafIncidence:
    """Apply the learned matrix to the plans of g's edges: Rij = W^T P, Rji = W^T P^T.

    Both maps of an edge come from its one plan, so the pair is
    transpose-compatible by construction.
    """
    return SheafIncidence(
        n=g.n, edges=g.edges, Rij=restriction_from_plan(plans, W_theta),
        Rji=restriction_from_plan(plans.transpose(0, 2, 1), W_theta))


def lift_all_edges(g, H: np.ndarray, W_proj: np.ndarray, W_theta: np.ndarray,
                   cfg: LiftConfig) -> SheafIncidence:
    """Restriction maps of every edge of a graph (see edge_plans)."""
    plans = edge_plans(g.edges, H, W_proj, cfg)
    return restrictions_from_plans(g, plans, W_theta)
