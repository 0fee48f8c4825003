"""Gap ascent: push the algebraic connectivity of a sheaf Laplacian upward.

The objective is the smallest Rayleigh quotient over the complement of the
blockwise-constant signals.  Its (sub)gradient in the Laplacian is the outer
product of the corresponding eigenvector, restricted to the block sparsity
pattern so iterates stay representable.  Each step runs a Wolfe-style
backtracking line search under a Frobenius trust region.  A candidate that
leaves the positive-semidefinite cone is not repaired: the step shrinks past
it, the standard rule for a line search on a constrained domain (Boyd and
Vandenberghe, Convex Optimization, 2004, sec. 9.2).  lambda_min(L + eta g)
is concave in eta (ibid., sec. 3.2), so the feasible steps form one interval
and bisection finds the halving ladder's first feasible rung.  Only steps
that do not decrease the objective are accepted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .laplacian import (
    SheafLaplacian,
    SpectralEstimates,
    estimate_spectrum,
    pattern_outer,
)

logger = logging.getLogger(__name__)

LAMBDA2_FLOOR = 1e-8
# lambda3 - lambda2 under this, absolute, makes the ascent average in v3
DEGENERACY_GAP = 1e-6
MONOTONE_SLACK = 1e-8
# wolfe_ascent_step's sufficient-increase constant, first step, rungs of its
# halving ladder (bisected for feasibility: at most 4 factorizations a step)
# and trust region (a cap on ||eta g||_F relative to ||L||_F)
WOLFE_C = 0.1
ETA_INIT = 1.0
MAX_BACKTRACKS = 12
TRUST_REGION = 0.1


@dataclass
class GapGradient:
    """Pattern-restricted ascent direction with its directional derivative."""

    diag: np.ndarray  # (n, d_v, d_v)
    off: np.ndarray   # (m, d_v, d_v) stored at (i, j); (j, i) is transpose
    directional: float

    def frobenius_norm(self) -> float:
        return float(np.sqrt((self.diag ** 2).sum() + 2 * (self.off ** 2).sum()))


def gap_gradient(L: SheafLaplacian, v2: np.ndarray,
                 v3: np.ndarray | None = None) -> GapGradient:
    """Outer product of the gap eigenvector, dropped onto the sparsity pattern.

    When a second eigenvector is supplied (near-degenerate gap), the two
    outer products are averaged, a subgradient of the minimum eigenvalue.
    The directional derivative is v2' g v2 for the restricted direction g;
    for a single eigenvector this equals the squared Frobenius norm of the
    restricted outer product.
    """
    diag, off = pattern_outer(L.edges, v2, v2, L.n, L.d_v)
    if v3 is not None:
        d3, o3 = pattern_outer(L.edges, v3, v3, L.n, L.d_v)
        diag = 0.5 * (diag + d3)
        off = 0.5 * (off + o3)
    off = 0.5 * off   # pattern_outer counts each off block twice
    G = SheafLaplacian(n=L.n, d_v=L.d_v, edges=L.edges, diag=diag, off=off)
    directional = float(v2 @ G.matvec(v2))
    return GapGradient(diag=diag, off=off, directional=directional)


def _add_scaled(L: SheafLaplacian, g: GapGradient, eta: float) -> SheafLaplacian:
    return SheafLaplacian(L.n, L.d_v, L.edges, L.diag + eta * g.diag,
                          L.off + eta * g.off)


def _symmetrized(L: SheafLaplacian) -> SheafLaplacian:
    return SheafLaplacian(L.n, L.d_v, L.edges,
                          0.5 * (L.diag + L.diag.transpose(0, 2, 1)), L.off)


def project(L: SheafLaplacian) -> SheafLaplacian | None:
    """Return L with symmetrized diagonal blocks, or None if it is indefinite.

    Global symmetry is structural for the block storage, so only the
    diagonal blocks need symmetrizing.  One sparse LDL' factorization of
    L + MONOTONE_SLACK I with diagonal pivots in a symmetric order decides
    feasibility: by Sylvester's law of inertia it is positive definite
    exactly when every pivot is positive (Golub and Van Loan, Matrix
    Computations, 4th ed., secs. 4.1-4.2).  SuperLU leaves the diagonal
    (perm_r != perm_c) only at an exactly zero pivot, which rejects too.
    So an iterate whose lowest eigenvalue is at or below -MONOTONE_SLACK
    is rejected, not repaired.  The iterate is a new operator; L is never
    written to.
    """
    out = _symmetrized(L)
    try:
        lu = splu((out.to_bsr() + MONOTONE_SLACK * sp.identity(out.N)).tocsc(),
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError:   # SuperLU: "Factor is exactly singular"
        return None
    definite = (np.array_equal(lu.perm_r, lu.perm_c)
                and np.all(lu.U.diagonal() > 0))
    return out if definite else None


def wolfe_ascent_step(L: SheafLaplacian, g: GapGradient, lambda2: float,
                      seed: int = 0, estimator=estimate_spectrum
                      ) -> tuple[SheafLaplacian, float, bool,
                                 SpectralEstimates | None]:
    """One backtracking ascent step on the connectivity objective.

    L itself must be within MONOTONE_SLACK of positive semidefinite, as every
    caller's is; lambda2 is the estimator's value at L.  Step sizes start at
    ETA_INIT (capped so the move stays inside the trust region, TRUST_REGION
    of ||L||_F) and halve until the candidate iterate clears the sufficient
    increase test lambda2(new) >= lambda2 + WOLFE_C * eta * directional, or
    MAX_BACKTRACKS tries run out, in which case L is returned unchanged.  An
    indefinite candidate is never estimated: project bisects the ladder for
    its first feasible rung, and lower rungs, convex combinations of L and a
    feasible candidate, are only symmetrized.
    estimator swaps the connectivity notion (e.g. the gap over range(L)
    for sheaves with a large harmonic space); acceptance is judged on its
    lambda2.  Returns (iterate, eta, accepted, estimate), where estimate
    is the estimator's result at an accepted iterate and None otherwise.
    """
    gnorm = g.frobenius_norm()
    if gnorm == 0.0 or g.directional <= 0.0:
        return L, 0.0, False, None
    Lnorm = float(np.sqrt((L.diag ** 2).sum() + 2 * (L.off ** 2).sum()))
    eta = ETA_INIT
    if Lnorm > 0:
        eta = min(eta, TRUST_REGION * Lnorm / gnorm)
    lo, hi = 0, MAX_BACKTRACKS   # first feasible rung (or none) in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if project(_add_scaled(L, g, eta * 0.5 ** mid)) is None:
            lo = mid + 1
        else:
            hi = mid
    for rung in range(lo, MAX_BACKTRACKS):
        step = eta * 0.5 ** rung
        candidate = _symmetrized(_add_scaled(L, g, step))
        est = estimator(candidate, seed=seed)
        if est.lambda2 >= lambda2 + WOLFE_C * step * g.directional:
            return candidate, step, True, est
    return L, 0.0, False, None


def spec_penalty(c_het: float, lambda2: float) -> float:
    """Heterophily pressure per unit of diffusion capacity: c_het / lambda2."""
    if lambda2 < LAMBDA2_FLOOR:
        logger.warning("connectivity %.3e at floor; sheaf is disconnected "
                       "or degenerate", lambda2)
        lambda2 = LAMBDA2_FLOOR
    return c_het / lambda2


def run_gap_ascent(L: SheafLaplacian, steps: int, seed: int = 0,
                   estimator=estimate_spectrum
                   ) -> tuple[SheafLaplacian, list[float]]:
    """Run up to `steps` ascent steps; returns the iterate and its lambda2 ledger.

    The ledger holds steps + 1 entries, the first for L itself.  A rejected
    step returns L unchanged, and the estimator is deterministic in
    (L, seed), so every later step would replay it exactly: the ascent
    stops at its first rejected step and records the unchanged lambda2
    once for it and once for each step left.  An accepted step hands
    over the estimate of its iterate, so no operator is estimated twice.
    """
    est = estimator(L, seed=seed)
    history = [float(est.lambda2)]
    for step in range(steps):
        degenerate = (est.lambda3 - est.lambda2) < DEGENERACY_GAP
        g = gap_gradient(L, est.v2, est.v3 if degenerate else None)
        L, _, accepted, new_est = wolfe_ascent_step(
            L, g, est.lambda2, seed=seed, estimator=estimator)
        if not accepted:
            history += [float(est.lambda2)] * (steps - step)
            break
        est = new_est
        history.append(float(est.lambda2))
    return L, history
