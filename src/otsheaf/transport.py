"""Entropic optimal transport between node feature measures.

Features are projected to a common p-dimensional space, normalized to
probability vectors over the canonical basis, and coupled by entropic
optimal transport under the basis cost ||e_a - e_b||^2 = 2 * (a != b).
This module is the lift alone: the model turns each plan into the pair of
restriction maps for its edge (model.restriction_maps).

The lift runs one entropic pass and no KL-proximal step after it.  The
entropic optimum P0, with log P0 = (f + g - C)/eps, is a fixed point of
the proximal step min <P,C> + eps*H(P) + KL(P||P0)/t for every step size
t: the stationarity condition C + eps*log P + (log P - log P0)/t = f' + g'
holds at P = P0 with f' = f and g' = g, since the KL gradient vanishes
there (Peyre & Cuturi 2019, Computational Optimal Transport, section 4).
A second pass would return the plan it was given.

The batched lift (`edge_plans`) solves the entropic problem in closed form
up to one scalar per edge.  For the basis cost the kernel exp(-C/eps) is
c*11^T + beta*I with c = exp(-2/eps) and beta = 1 - c (ibid.), so the
optimum diag(u) K diag(v) is

    P = beta*diag(x) + r s^T / tau,

with x = u*v, r = mu - beta*x, s = nu - beta*x and tau = sum_a r_a =
c*sum(u)*sum(v).  The scaling form ties them by r_a*s_a = c*tau*x_a: given
tau, x_a in [0, min(mu_a, nu_a)/beta] is the smaller root of
(mu_a - beta*x_a)(nu_a - beta*x_a) = c*tau*x_a, and tau in (0, 1] is the
root of F(tau) = tau - 1 + beta*sum_a x_a(tau).  Each x_a(tau) inverts a
convex decreasing function, so F is convex with F(0) <= 0 < F(1), and
Newton from tau = 1 descends monotonically onto its largest root (mu = nu
adds a spurious one at 0), with dx_a/dtau = -c*x_a/sqrt(disc_a) for the
discriminant disc_a of that quadratic.  An iteration costs O(m*p) for m
edges; the dense (m, p, p) plans are materialised once, at the end.  r and
s are taken from their own positive quadratic roots rather than by
subtraction, so P >= 0 by construction, and c = 0 (underflow at small eps)
needs no special case: the plan becomes the unregularized optimum.

With tau taken as sum_a r_a, P meets its marginals for any x, so the
marginal violation cannot tell a converged root from a truncated one.  The
scaling-form residual |tau - sum_a r_a| can, and it is what LIFT_TOL
bounds in `edge_plans`.  The single-pair `sinkhorn` keeps a dense kernel,
iterates in the log domain and accepts any cost; it serves as the
reference solver.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


# edge_plans: the per-edge scaling-form residual |tau - sum r| its Newton
# root must reach, and the iterations it may take
LIFT_TOL = 1e-9
LIFT_MAX_ITER = 5000
# sinkhorn: the L1 marginal violation its plan must reach, and the sweeps
# it may take
SINKHORN_TOL = 1e-9
SINKHORN_MAX_SWEEPS = 5000
# added to every clamped coordinate before normalizing, so every atom of a
# measure carries mass
MEASURE_FLOOR = 1e-6


def _check_eps(eps: float) -> None:
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")


@dataclass
class TransportPlan:
    P: np.ndarray             # (p, p) nonnegative, marginals (mu, nu)
    mu: np.ndarray
    nu: np.ndarray
    iterations: int
    violation: float          # achieved L1 marginal error


class SinkhornDivergence(RuntimeError):
    """Raised when a solve misses its tolerance (LIFT_TOL or SINKHORN_TOL)."""


def feature_cost_matrix(p: int) -> np.ndarray:
    """Squared distance between canonical basis vectors: 2 off the diagonal."""
    if p <= 0:
        raise ValueError("p must be positive")
    return 2.0 * (1.0 - np.eye(p))


def normalize_to_measure(h: np.ndarray) -> np.ndarray:
    """Clamp negatives, add MEASURE_FLOOR, and normalize to a probability vector."""
    v = np.maximum(np.asarray(h, dtype=np.float64), 0.0) + MEASURE_FLOOR
    return v / v.sum(axis=-1, keepdims=True)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp(a) along axis, shifted by the maximum so nothing overflows.

    The maximum is taken as finite: every row and column of sinkhorn's log
    kernel -C/eps has a finite entry when some coupling has finite cost.
    """
    top = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - top).sum(axis=axis)) + top.squeeze(axis)


def sinkhorn(mu: np.ndarray, nu: np.ndarray, C: np.ndarray,
             eps: float) -> TransportPlan:
    """Entropy-regularized optimal transport plan between two measures.

    Solves min <P, C> + eps * sum P (log P - 1) over couplings of (mu, nu);
    the optimum has the scaling form diag(u) exp(-C/eps) diag(v), found by
    log-domain scaling, so tiny eps and underflowing entries need no special
    case.  The marginals are checked every fifth sweep, and the solve stops
    once their L1 violation is at most SINKHORN_TOL; SinkhornDivergence is
    raised after SINKHORN_MAX_SWEEPS sweeps without it.
    """
    _check_eps(eps)
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    if mu.ndim != 1 or nu.ndim != 1 or mu.shape != nu.shape:
        raise ValueError("mu and nu must be 1-D with matching length")
    if np.any(mu <= 0) or np.any(nu <= 0):
        raise ValueError("marginals must be strictly positive (normalize first)")
    log_K, log_mu, log_nu = -C / eps, np.log(mu), np.log(nu)
    log_v = np.zeros_like(log_nu)
    violation = np.inf
    for it in range(1, SINKHORN_MAX_SWEEPS + 1):
        log_u = log_mu - _logsumexp(log_K + log_v[None, :], axis=1)
        log_v = log_nu - _logsumexp(log_K + log_u[:, None], axis=0)
        if it % 5 == 0 or it == SINKHORN_MAX_SWEEPS:
            P = np.exp(log_K + log_u[:, None] + log_v[None, :])
            violation = max(np.abs(P.sum(axis=1) - mu).sum(),
                            np.abs(P.sum(axis=0) - nu).sum())
            if violation <= SINKHORN_TOL:
                return TransportPlan(P=P, mu=mu, nu=nu, iterations=it,
                                     violation=float(violation))
    raise SinkhornDivergence(
        f"marginal violation {violation:.3e} > tol {SINKHORN_TOL:.3e} after "
        f"{SINKHORN_MAX_SWEEPS} iterations")


def entropic_objective(P: np.ndarray, C: np.ndarray, eps: float) -> float:
    """<P, C> + eps * sum P (log P - 1), with 0 log 0 = 0."""
    P = np.asarray(P, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(P > 0, P * (np.log(P) - 1.0), 0.0)
    return float((P * C).sum() + eps * ent.sum())


def _off_mass(mu, nu, q):
    """Positive root r of r^2 + (q - (mu - nu))*r - q*mu = 0, q = c*tau/beta.

    This is r = mu - beta*x without the subtraction, so r >= 0 exactly.
    Returns r and the square root of the discriminant, 2r + q - (mu - nu).
    """
    b = q - (mu - nu)
    sq = np.sqrt(b * b + 4.0 * q * mu)
    den = sq + np.abs(b)
    return np.divide(2.0 * q * mu, den, out=0.5 * den, where=b > 0), sq


def _scaling_roots(mu, nu, c, beta):
    """Newton on F(tau) = tau - sum_a r_a(tau), one tau per edge.

    Starts at tau = 1 and keeps each iterate inside its bracket [lo, hi]
    with a bisection step.  x = mu*nu / (beta*(nu + r) + c*tau) is the
    smaller root written with positive terms only.  Returns (tau, x, r,
    iterations, per-edge residual |tau - sum r|), stopping once every
    residual is at most LIFT_TOL or after LIFT_MAX_ITER iterations; the
    caller decides what a residual above LIFT_TOL means.
    """
    tau = np.ones(mu.shape[0])
    lo, hi = np.zeros_like(tau), np.ones_like(tau)
    it = 0
    while True:
        ct = c * tau[:, None]
        r, sq = _off_mass(mu, nu, ct / beta)
        den = beta * (nu + r) + ct
        x = np.divide(mu * nu, den, out=np.zeros_like(den), where=den > 0)
        F = tau - r.sum(axis=1)
        if it == LIFT_MAX_ITER or np.abs(F).max() <= LIFT_TOL:
            return tau, x, r, it, np.abs(F)
        it += 1
        hi = np.where(F > 0, tau, hi)
        lo = np.where(F > 0, lo, tau)
        dr = np.divide(c * x, sq, out=np.zeros_like(x), where=sq > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = tau - F / (1.0 - dr.sum(axis=1))
        tau = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))


def _finite_rows(X: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(
            f"node {int(np.argmax(bad))} has non-finite projected features")
    return X


def projected_features(H: np.ndarray, W_proj: np.ndarray) -> np.ndarray:
    """H @ W_proj, the signal every fit projects its node features to.

    Raises ValueError naming the first node whose projected row is not
    finite.
    """
    return _finite_rows(np.asarray(H, dtype=np.float64) @ W_proj)


def edge_plans(g_edges: np.ndarray, X: np.ndarray, eps: float) -> np.ndarray:
    """Entropic transport plans for every edge, batched across the edge set.

    X is the projected signal, one row per node (`projected_features`).
    This is the feature-only part of the lift: it does not involve the
    learned matrix, so a trainer can cache its output across epochs.

    Each plan is beta*diag(x) + r s^T / tau in closed form up to one scalar
    tau per edge (see the module docstring), found by Newton in O(m*p) per
    iteration; the dense (m, p, p) plans are materialised once, at the end.
    Raises ValueError if eps is not positive or a row of X is not finite
    (naming the node), and SinkhornDivergence, naming the pass and the
    worst edge, if a root misses LIFT_TOL on the scaling-form residual
    |tau - sum r|.
    """
    _check_eps(eps)
    M = normalize_to_measure(_finite_rows(X))  # (n, p)
    p = M.shape[1]
    if g_edges.shape[0] == 0:
        return np.zeros((0, p, p))
    mu, nu = M[g_edges[:, 0]], M[g_edges[:, 1]]
    c, beta = np.exp(-2.0 / eps), -np.expm1(-2.0 / eps)
    tau, x, r, it, residual = _scaling_roots(mu, nu, c, beta)
    total = r.sum(axis=1)[:, None]
    s = (_off_mass(nu, mu, c * tau[:, None] / beta)[0]
         / np.maximum(total, np.finfo(float).tiny))
    worst = int(np.argmax(residual))
    logger.debug("entropic pass: %d iterations, scaling residual %.3e",
                 it, residual[worst])
    if not residual[worst] <= LIFT_TOL:
        i, j = g_edges[worst]
        raise SinkhornDivergence(
            f"entropic pass: scaling residual {residual[worst]:.3e} > tol "
            f"{LIFT_TOL:.3e} after {it} iterations; worst edge {worst} "
            f"({int(i)}, {int(j)})")
    plans = r[:, :, None] * s[:, None, :]
    diag = np.arange(p)
    plans[:, diag, diag] += beta * x
    return plans
