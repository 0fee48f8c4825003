"""Gap ascent: push the algebraic connectivity of a sheaf Laplacian upward.

The objective is the smallest Rayleigh quotient over the complement of the
blockwise-constant signals.  Its (sub)gradient in the Laplacian is the outer
product of the corresponding eigenvector, restricted to the block sparsity
pattern so iterates stay representable.  Each step runs a Wolfe-style
backtracking line search under a Frobenius trust region, projects the iterate
back to a symmetric PSD pattern matrix, and only accepts steps that do not
decrease the objective.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .laplacian import SheafLaplacian, estimate_spectrum, pattern_matvec, pattern_outer

logger = logging.getLogger(__name__)

LAMBDA2_FLOOR = 1e-8
DEGENERACY_REL_GAP = 1e-6
MONOTONE_SLACK = 1e-8


@dataclass
class WolfeConfig:
    c_w: float = 0.1
    eta_init: float = 1.0
    max_backtracks: int = 12
    inner_steps: int = 5
    trust_region: float = 0.1  # cap on ||eta g||_F relative to ||L||_F

    def __post_init__(self):
        if not 0.0 < self.c_w < 1.0:
            raise ValueError("c_w must lie in (0, 1)")


@dataclass
class GapState:
    """Per-step ledger of the connectivity objective."""

    lambda2_history: list = field(default_factory=list)
    v2: np.ndarray | None = None

    @property
    def delta_G(self) -> float:
        if not self.lambda2_history:
            return 0.0
        return self.lambda2_history[-1] - self.lambda2_history[0]

    def record(self, lambda2: float, v2: np.ndarray) -> None:
        self.lambda2_history.append(float(lambda2))
        self.v2 = v2


@dataclass
class GapGradient:
    """Pattern-restricted ascent direction with its directional derivative."""

    diag: np.ndarray  # (n, d_v, d_v)
    off: np.ndarray   # (m, d_v, d_v) stored at (i, j); (j, i) is transpose
    directional: float

    def frobenius_norm(self) -> float:
        return float(np.sqrt((self.diag ** 2).sum() + 2 * (self.off ** 2).sum()))


def rayleigh_lambda2(L: SheafLaplacian, seed: int = 0) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue over the deflation complement, with eigenvector."""
    est = estimate_spectrum(L, seed=seed)
    if not est.converged:
        logger.warning("connectivity eigensolve did not converge "
                       "(residual %.2e)", est.residual2)
    return est.lambda2, est.v2


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
    directional = float(v2 @ pattern_matvec(L.edges, diag, off, v2))
    return GapGradient(diag=diag, off=off, directional=directional)


def _add_scaled(L: SheafLaplacian, g: GapGradient, eta: float) -> SheafLaplacian:
    out = L.copy()
    out.diag = L.diag + eta * g.diag
    out.off = L.off + eta * g.off
    out._csr = None
    return out


def _min_eigpair(L: SheafLaplacian, dense_cutoff: int):
    N = L.n * L.d_v
    if N <= dense_cutoff:
        w, U = np.linalg.eigh(L.to_dense())
        return float(w[0]), U[:, 0]
    A = spla.LinearOperator((N, N), matvec=L.matvec, dtype=np.float64)
    w, U = spla.eigsh(A, k=1, which="SA", tol=1e-8)
    return float(w[0]), U[:, 0]


def project(L: SheafLaplacian, dense_cutoff: int = 500,
            max_rounds: int = 3) -> SheafLaplacian:
    """Return the nearest representable PSD iterate.

    Diagonal blocks are symmetrized (global symmetry is structural for the
    block storage), then negative modes are clipped by adding the
    pattern-restricted rank-one correction |lambda| v v'.  Restriction can
    leak new negative curvature, so the clip is re-checked a few rounds; if
    any survives, a diagonal shift by the remaining |lambda_min| finishes
    the repair exactly.
    """
    out = L.copy()
    out.diag = 0.5 * (out.diag + out.diag.transpose(0, 2, 1))
    out._csr = None
    lam, v = _min_eigpair(out, dense_cutoff)
    if lam >= -MONOTONE_SLACK:
        return out
    for _ in range(max_rounds):
        d, o = pattern_outer(out.edges, v, v, out.n, out.d_v)
        out.diag = out.diag + (-lam) * d
        out.off = out.off + (-lam) * (0.5 * o)
        out._csr = None
        lam, v = _min_eigpair(out, dense_cutoff)
        if lam >= -MONOTONE_SLACK:
            return out
    logger.debug("negative-mode clipping stalled at %.3e; applying "
                 "diagonal shift", lam)
    eye = np.eye(L.d_v)[None, :, :]
    out.diag = out.diag + (-lam) * eye
    out._csr = None
    return out


def wolfe_ascent_step(L: SheafLaplacian, g: GapGradient, cfg: WolfeConfig,
                      lambda2: float | None = None,
                      seed: int = 0,
                      estimator=estimate_spectrum) -> tuple[SheafLaplacian, float, bool]:
    """One backtracking ascent step on the connectivity objective.

    Step sizes start at eta_init (capped so the move stays inside the trust
    region) and halve until the projected iterate clears the sufficient
    increase test lambda2(new) >= lambda2(L) + c_w * eta * directional, or
    backtracks run out, in which case L is returned unchanged.  estimator
    swaps the connectivity notion (e.g. the gap over range(L) for sheaves
    with a large harmonic space); acceptance is judged on its lambda2.
    """
    if lambda2 is None:
        lambda2 = estimator(L, seed=seed).lambda2
    gnorm = g.frobenius_norm()
    if gnorm == 0.0 or g.directional <= 0.0:
        return L, 0.0, False
    Lnorm = float(np.sqrt((L.diag ** 2).sum() + 2 * (L.off ** 2).sum()))
    eta = cfg.eta_init
    if Lnorm > 0:
        eta = min(eta, cfg.trust_region * Lnorm / gnorm)
    for _ in range(cfg.max_backtracks):
        candidate = project(_add_scaled(L, g, eta))
        lam_new = estimator(candidate, seed=seed).lambda2
        if lam_new >= lambda2 + cfg.c_w * eta * g.directional:
            return candidate, eta, True
        eta *= 0.5
    return L, 0.0, False


def spec_penalty(c_het: float, lambda2: float) -> float:
    """Heterophily pressure per unit of diffusion capacity: c_het / lambda2."""
    if lambda2 < LAMBDA2_FLOOR:
        logger.warning("connectivity %.3e at floor; sheaf is disconnected "
                       "or degenerate", lambda2)
        lambda2 = LAMBDA2_FLOOR
    return c_het / lambda2


def run_gap_ascent(L: SheafLaplacian, cfg: WolfeConfig | None = None,
                   steps: int | None = None, seed: int = 0,
                   estimator=estimate_spectrum
                   ) -> tuple[SheafLaplacian, GapState]:
    """Run several accepted-or-skipped ascent steps, keeping the ledger."""
    cfg = cfg or WolfeConfig()
    steps = cfg.inner_steps if steps is None else steps
    state = GapState()
    est = estimator(L, seed=seed)
    state.record(est.lambda2, est.v2)
    for _ in range(steps):
        degenerate = (est.lambda3 - est.lambda2) < DEGENERACY_REL_GAP * max(
            est.lambda_max, 1.0)
        g = gap_gradient(L, est.v2, est.v3 if degenerate else None)
        L, _, _ = wolfe_ascent_step(L, g, cfg, lambda2=est.lambda2, seed=seed,
                                    estimator=estimator)
        est = estimator(L, seed=seed)
        state.record(est.lambda2, est.v2)
    return L, state
