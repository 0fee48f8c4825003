"""Block-sparse sheaf Laplacian: assembly, normalization, spectrum, sparsification.

For an edge e = (i, j) with restriction maps R_ij, R_ji (both d_e x d_v), the
incidence block row is [ +R_ij  -R_ji ] acting on the stalks of i and j, and
L = B^T B accumulates per edge:

    diag[i] += R_ij^T R_ij      diag[j] += R_ji^T R_ji
    off[e]   = -R_ij^T R_ji     (block at position (i, j); (j, i) is its transpose)

so x^T L x = sum_e ||R_ij x_i - R_ji x_j||^2 >= 0 by construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)


@dataclass
class SheafIncidence:
    """Restriction maps of every edge: the block rows of the incidence operator.

    Rij[e] maps the stalk at edges[e, 0] into the d_e-dimensional edge stalk,
    Rji[e] the stalk at edges[e, 1] (n nodes, m edges).
    """

    n: int
    edges: np.ndarray  # (m, 2)
    Rij: np.ndarray    # (m, d_e, d_v)
    Rji: np.ndarray    # (m, d_e, d_v)

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @property
    def d_v(self) -> int:
        return int(self.Rij.shape[2])

    @property
    def d_e(self) -> int:
        return int(self.Rij.shape[1])

    def to_dense(self) -> np.ndarray:
        m, d_e, d_v = self.Rij.shape
        B = np.zeros((m * d_e, self.n * d_v))
        for e in range(m):
            i, j = self.edges[e]
            B[e * d_e:(e + 1) * d_e, i * d_v:(i + 1) * d_v] = self.Rij[e]
            B[e * d_e:(e + 1) * d_e, j * d_v:(j + 1) * d_v] = -self.Rji[e]
        return B


@dataclass(eq=False)
class SheafLaplacian:
    """Symmetric PSD block operator stored as diagonal and (i, j) off blocks."""

    n: int
    d_v: int
    edges: np.ndarray            # (m, 2)
    diag: np.ndarray             # (n, d_v, d_v) symmetric blocks
    off: np.ndarray              # (m, d_v, d_v) block at (i, j); (j, i) = off^T
    restrictions: SheafIncidence | None = None
    _csr: sp.csr_matrix | None = field(default=None, repr=False)

    @property
    def N(self) -> int:
        return self.n * self.d_v

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    def to_csr(self) -> sp.csr_matrix:
        if self._csr is None:
            d = self.d_v
            a, b = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
            rows = [(self.edges[:, 0][:, None, None] * d + a).ravel(),
                    (self.edges[:, 1][:, None, None] * d + a).ravel(),
                    (np.arange(self.n)[:, None, None] * d + a).ravel()]
            cols = [(self.edges[:, 1][:, None, None] * d + b).ravel(),
                    (self.edges[:, 0][:, None, None] * d + b).ravel(),
                    (np.arange(self.n)[:, None, None] * d + b).ravel()]
            offT = np.swapaxes(self.off, 1, 2)
            data = [self.off.ravel(), offT.ravel(), self.diag.ravel()]
            coo = sp.coo_matrix(
                (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                shape=(self.N, self.N),
            )
            self._csr = coo.tocsr()
        return self._csr

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply L to a vector (N,) or to k stacked signals (N, k)."""
        return self.to_csr() @ x

    def coo_rows(self):
        """(row, col, value) triples of the explicit blocks, row-major order."""
        coo = self.to_csr().tocoo()
        order = np.lexsort((coo.col, coo.row))
        return coo.row[order], coo.col[order], coo.data[order]

    def copy(self) -> "SheafLaplacian":
        return SheafLaplacian(
            n=self.n, d_v=self.d_v, edges=self.edges.copy(),
            diag=self.diag.copy(), off=self.off.copy(),
            restrictions=self.restrictions,
        )


def assemble_laplacian(B: SheafIncidence,
                       weights: np.ndarray | None = None) -> SheafLaplacian:
    """L = B^T diag(w) B accumulated block by block (w defaults to all-ones).

    Each edge's Gram blocks are scaled by its weight after they are formed,
    so weights of 1.0 give the same bits as no weights.
    """
    gii = np.einsum("eab,eac->ebc", B.Rij, B.Rij)
    gjj = np.einsum("eab,eac->ebc", B.Rji, B.Rji)
    off = -np.einsum("eab,eac->ebc", B.Rij, B.Rji)
    if weights is not None:
        w = np.asarray(weights, float)[:, None, None]
        gii, gjj, off = w * gii, w * gjj, w * off
    diag = np.zeros((B.n, B.d_v, B.d_v))
    np.add.at(diag, B.edges[:, 0], gii)
    np.add.at(diag, B.edges[:, 1], gjj)
    return SheafLaplacian(n=B.n, d_v=B.d_v, edges=B.edges, diag=diag, off=off,
                          restrictions=B)


def pattern_matvec(edges: np.ndarray, diag: np.ndarray, off: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """Apply the symmetric block matrix with blocks (diag, off) on the edges.

    Suits blocks that change every call; an operator applied many times is
    cheaper through SheafLaplacian.matvec and its cached CSR form.
    """
    n, d = diag.shape[:2]
    X = x.reshape(n, d)
    out = np.einsum("iab,ib->ia", diag, X)
    I, J = edges[:, 0], edges[:, 1]
    np.add.at(out, I, np.einsum("eab,eb->ea", off, X[J]))
    np.add.at(out, J, np.einsum("eba,eb->ea", off, X[I]))
    return out.reshape(x.shape)


def pattern_outer(edges: np.ndarray, left: np.ndarray, right: np.ndarray,
                  n: int, d_v: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of left' A right in the blocks (diag, off) of a pattern matrix A.

    The off entry for edge (i, j) collects both the (i, j) block of
    left right' and the transpose of its (j, i) block, because one off block
    parametrizes both.  For left = right = v the pattern restriction of v v'
    is therefore (diag, off / 2).
    """
    Lb, Rb = left.reshape(n, d_v), right.reshape(n, d_v)
    I, J = edges[:, 0], edges[:, 1]
    gd = np.einsum("ia,ib->iab", Lb, Rb)
    go = (np.einsum("ea,eb->eab", Lb[I], Rb[J])
          + np.einsum("ea,eb->eab", Rb[I], Lb[J]))
    return gd, go


def _block_isqrt(diag: np.ndarray, cutoff_rel: float = 1e-12):
    """Per-block inverse square root via eigh, zeroing near-null directions.

    Returns (S, eigvals, eigvecs) so callers can reuse the factorizations.
    """
    w, V = np.linalg.eigh(diag)  # (n, d), (n, d, d)
    scale = np.maximum(w[:, -1:], 1.0)
    inv = np.where(w > cutoff_rel * scale, 1.0 / np.sqrt(np.maximum(w, 1e-300)), 0.0)
    S = np.einsum("nab,nb,ncb->nac", V, inv, V)
    return S, w, V


@dataclass(eq=False)
class NormalizedSheafOperator:
    """L_tilde = I - S L S with S = pinv-sqrt of the diagonal blocks of L.

    Isolated (zero-degree) blocks have S = 0, so they pass through as an
    identity contribution.  Eigenvalue factorizations of the diagonal blocks
    are kept for reuse by gradient code.
    """

    L: SheafLaplacian
    S: np.ndarray           # (n, d_v, d_v)
    diag_eigvals: np.ndarray
    diag_eigvecs: np.ndarray
    _lmax: float | None = field(default=None, repr=False)

    @property
    def N(self) -> int:
        return self.L.N

    def _scale(self, x: np.ndarray) -> np.ndarray:
        n, d = self.L.n, self.L.d_v
        xs = x.reshape(n, d, -1)
        return np.einsum("nab,nbk->nak", self.S, xs).reshape(x.shape)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return x - self._scale(self.L.matvec(self._scale(x)))

    def to_dense(self) -> np.ndarray:
        n, d = self.L.n, self.L.d_v
        Sfull = np.zeros((n * d, n * d))
        for i in range(n):
            Sfull[i * d:(i + 1) * d, i * d:(i + 1) * d] = self.S[i]
        return np.eye(n * d) - Sfull @ self.L.to_dense() @ Sfull

    def lambda_max(self, seed: int = 0, iters: int = 40) -> float:
        """Cached Lanczos estimate of the largest eigenvalue magnitude.

        The normalized spectrum can extend below -1, so both Ritz extremes
        matter.
        """
        if self._lmax is None:
            rng = np.random.default_rng(seed)
            T, _ = _lanczos(self.matvec, self.N, min(self.N, iters), rng)
            w = np.linalg.eigvalsh(T)
            self._lmax = float(np.abs(w).max())
        return self._lmax


def normalized_laplacian(L: SheafLaplacian) -> NormalizedSheafOperator:
    S, w, V = _block_isqrt(L.diag)
    return NormalizedSheafOperator(L=L, S=S, diag_eigvals=w, diag_eigvecs=V)


def blockwise_constant_basis(n: int, d_v: int) -> np.ndarray:
    """Orthonormal (N, d_v) basis of signals constant across nodes per coordinate."""
    U = np.zeros((n * d_v, d_v))
    for c in range(d_v):
        U[c::d_v, c] = 1.0 / np.sqrt(n)
    return U


@dataclass
class SpectralEstimates:
    """Extremal spectrum of a sheaf Laplacian.

    lambda2/v2 (and lambda3/v3) are the lowest eigenpairs of the deflated
    operator P L P with P projecting out blockwise-constant signals; when
    those signals span the kernel (every scalar sheaf) they are eigenpairs
    of L itself.  residual2 is measured against the deflated operator.
    """

    lambda2: float
    lambda_max: float
    v2: np.ndarray
    lambda3: float
    v3: np.ndarray
    residual2: float
    converged: bool


def _lanczos(matvec, N, k, rng, ortho_against=None, q0=None):
    """Lanczos with full reorthogonalization; returns (T, Q) with T (k, k)."""
    Q = np.zeros((N, k))
    alphas = np.zeros(k)
    betas = np.zeros(k)
    q = rng.normal(size=N) if q0 is None else q0.copy()
    if ortho_against is not None:
        q -= ortho_against @ (ortho_against.T @ q)
    q /= np.linalg.norm(q)
    Q[:, 0] = q
    beta = 0.0
    q_prev = np.zeros(N)
    steps = k
    for t in range(k):
        w = matvec(Q[:, t])
        alphas[t] = Q[:, t] @ w
        w = w - alphas[t] * Q[:, t] - beta * q_prev
        # full reorthogonalization (twice) keeps the basis usable at this scale
        for _ in range(2):
            w -= Q[:, :t + 1] @ (Q[:, :t + 1].T @ w)
            if ortho_against is not None:
                w -= ortho_against @ (ortho_against.T @ w)
        beta = np.linalg.norm(w)
        if t + 1 < k:
            if beta < 1e-12:
                steps = t + 1
                break
            betas[t] = beta
            q_prev = Q[:, t]
            Q[:, t + 1] = w / beta
    T = np.diag(alphas[:steps])
    if steps > 1:
        T += np.diag(betas[:steps - 1], 1) + np.diag(betas[:steps - 1], -1)
    return T, Q[:, :steps]


def estimate_spectrum(L: SheafLaplacian, dense_cutoff: int = 200,
                      seed: int = 0, tol: float = 1e-6,
                      max_budget: int = 300) -> SpectralEstimates:
    """lambda_2 over the complement of blockwise-constant signals, plus lambda_max.

    Small operators (N <= dense_cutoff) use a dense eigendecomposition; larger
    ones use two Lanczos passes (one plain pass for lambda_max, one deflated
    pass for the low end), iterating the budget upward until the eigenpair
    residual ||L v - lambda v|| <= tol * max(lambda_max, 1).
    """
    N = L.N
    U = blockwise_constant_basis(L.n, L.d_v)
    compl_dim = N - U.shape[1]
    if compl_dim < 1:
        raise ValueError("operator too small for a deflated second eigenvalue")

    if N <= dense_cutoff:
        A = L.to_dense()
        lam_all = np.linalg.eigvalsh(A)
        lam_max = float(lam_all[-1])
        P = np.eye(N) - U @ U.T
        shifted = P @ A @ P + (lam_max + 1.0) * (U @ U.T)
        w, V = np.linalg.eigh(shifted)
        lam2, v2 = float(w[0]), V[:, 0]
        if compl_dim >= 2:
            lam3, v3 = float(w[1]), V[:, 1]
        else:
            lam3, v3 = lam2, v2.copy()
        res = float(np.linalg.norm(P @ (A @ (P @ v2)) - lam2 * v2))
        return SpectralEstimates(lambda2=lam2, lambda_max=lam_max, v2=v2,
                                 lambda3=lam3, v3=v3, residual2=res, converged=True)

    rng = np.random.default_rng(seed)
    # pass 1: plain Lanczos for the top of the spectrum
    k = min(N, 60)
    T, _ = _lanczos(L.matvec, N, k, rng)
    lam_max = float(np.linalg.eigvalsh(T)[-1])
    sigma = lam_max + 1.0

    # pass 2: largest eigenvalues of sigma*I - L restricted to the deflation
    # complement give the smallest of L there
    def shifted_mv(x):
        y = x - U @ (U.T @ x)
        y = sigma * y - L.matvec(y)
        return y - U @ (U.T @ y)

    def deflated_mv(x):
        y = x - U @ (U.T @ x)
        y = L.matvec(y)
        return y - U @ (U.T @ y)

    k = min(N - U.shape[1], 80)
    while True:
        T, Q = _lanczos(shifted_mv, N, k, rng, ortho_against=U)
        w, Y = np.linalg.eigh(T)
        v2 = Q @ Y[:, -1]
        v2 /= np.linalg.norm(v2)
        lam2 = float(sigma - w[-1])
        res = float(np.linalg.norm(deflated_mv(v2) - lam2 * v2))
        if res <= tol * max(lam_max, 1.0) or k >= min(N - U.shape[1], max_budget):
            break
        k = min(2 * k, N - U.shape[1], max_budget)
    if T.shape[0] >= 2:
        v3 = Q @ Y[:, -2]
        v3 /= np.linalg.norm(v3)
        lam3 = float(sigma - w[-2])
    else:
        lam3, v3 = lam2, v2.copy()
    converged = res <= tol * max(lam_max, 1.0)
    if not converged:
        logger.warning("spectrum estimate residual %.2e above tolerance", res)
    return SpectralEstimates(lambda2=lam2, lambda_max=lam_max, v2=v2,
                             lambda3=lam3, v3=v3, residual2=res, converged=converged)


# raw-operator null cutoff, relative to lambda_max (machine-zero kernels)
NULL_REL_TOL = 1e-8
# normalized-operator null cutoff, absolute on a spectrum inside [0, 2]:
# modes mixing slower than ~1e3 diffusion time units count as null
NORMALIZED_NULL_TOL = 1e-3


def _gap_above_cutoff(matvec, dense, N, cutoff_of, dense_cutoff, seed, tol,
                      max_budget) -> SpectralEstimates:
    """Smallest eigenpair above a null cutoff for a PSD operator.

    cutoff_of maps the estimated lambda_max to the null threshold.  Small
    operators are decomposed densely (dense() materializes the matrix).
    Larger ones run Lanczos with the start vector pushed through the
    operator once, which keeps the Krylov space out of the null space up
    to roundoff; Ritz values under the cutoff (leakage) are skipped rather
    than reported.  Returns lambda2 = 0 with converged=False when nothing
    clears the cutoff.
    """

    def _empty(lam_max: float) -> SpectralEstimates:
        z = np.zeros(N)
        return SpectralEstimates(lambda2=0.0, lambda_max=lam_max, v2=z,
                                 lambda3=0.0, v3=z.copy(), residual2=0.0,
                                 converged=False)

    if N <= dense_cutoff:
        A = dense()
        A = 0.5 * (A + A.T)
        w, V = np.linalg.eigh(A)
        lam_max = float(w[-1])
        keep = np.flatnonzero(w > cutoff_of(lam_max))
        if keep.size == 0:
            logger.warning("no spectrum above the null cutoff; operator is "
                           "numerically null")
            return _empty(lam_max)
        i0 = keep[0]
        lam2, v2 = float(w[i0]), V[:, i0]
        if keep.size >= 2:
            lam3, v3 = float(w[keep[1]]), V[:, keep[1]]
        else:
            lam3, v3 = lam2, v2.copy()
        res = float(np.linalg.norm(A @ v2 - lam2 * v2))
        return SpectralEstimates(lambda2=lam2, lambda_max=lam_max, v2=v2,
                                 lambda3=lam3, v3=v3, residual2=res,
                                 converged=True)

    rng = np.random.default_rng(seed)
    T, _ = _lanczos(matvec, N, min(N, 60), rng)
    lam_max = float(np.linalg.eigvalsh(T)[-1])
    cutoff = cutoff_of(lam_max)

    # one application of the operator strips the null component
    q0 = matvec(rng.normal(size=N))
    if np.linalg.norm(q0) <= cutoff:
        logger.warning("no spectrum above the null cutoff; operator is "
                       "numerically null")
        return _empty(lam_max)

    k = min(N, 80)
    while True:
        T, Q = _lanczos(matvec, N, k, rng, q0=q0)
        w, Y = np.linalg.eigh(T)
        keep = np.flatnonzero(w > cutoff)
        if keep.size > 0:
            i0 = keep[0]
            v2 = Q @ Y[:, i0]
            v2 /= np.linalg.norm(v2)
            lam2 = float(w[i0])
            res = float(np.linalg.norm(matvec(v2) - lam2 * v2))
            if res <= tol * max(lam_max, 1.0) or k >= min(N, max_budget):
                break
        elif k >= min(N, max_budget):
            logger.warning("no Ritz value above the null cutoff within "
                           "budget %d", k)
            return _empty(lam_max)
        k = min(2 * k, N, max_budget)
    if keep.size >= 2:
        v3 = Q @ Y[:, keep[1]]
        v3 /= np.linalg.norm(v3)
        lam3 = float(w[keep[1]])
    else:
        lam3, v3 = lam2, v2.copy()
    converged = res <= tol * max(lam_max, 1.0)
    if not converged:
        logger.warning("range-gap estimate residual %.2e above tolerance", res)
    return SpectralEstimates(lambda2=lam2, lambda_max=lam_max, v2=v2,
                             lambda3=lam3, v3=v3, residual2=res,
                             converged=converged)


def estimate_range_gap(L: SheafLaplacian, dense_cutoff: int = 200,
                       seed: int = 0, tol: float = 1e-6,
                       max_budget: int = 300) -> SpectralEstimates:
    """Smallest eigenvalue above the machine-zero kernel: the gap on range(L).

    Suits sheaves whose kernel is exact (rank-deficient restriction stacks,
    disconnected components): eigenvalues at or below lambda_max *
    NULL_REL_TOL count as harmonic and the gap is the smallest eigenvalue
    above.  Transport-built sheaves with floored plan mass spread near-null
    energy over a continuum of scales; use normalized_range_gap for those.
    """
    return _gap_above_cutoff(
        L.matvec, L.to_dense, L.N,
        lambda lam_max: max(lam_max, 0.0) * NULL_REL_TOL,
        dense_cutoff, seed, tol, max_budget)


def normalized_range_gap(L: SheafLaplacian, dense_cutoff: int = 200,
                         seed: int = 0, tol: float = 1e-6,
                         max_budget: int = 300) -> SpectralEstimates:
    """Connectivity of the degree-normalized operator S L S, above null modes.

    The raw spectrum of a transport-built sheaf mixes three populations:
    an exact kernel, a continuum of near-null modes from floored plan mass
    (arbitrarily weak, scale set by how close lifted coordinates sit to
    zero), and the informative band.  Sandwiching by the pseudo-inverse
    square root of the diagonal blocks rescales every reachable direction
    to unit degree, so the informative band becomes O(1) and a single
    absolute cutoff (NORMALIZED_NULL_TOL, on a spectrum inside [0, 2])
    separates it from modes too slow to mix at any training horizon.

    The returned v2/v3 are the normalized eigenvectors mapped back through
    S, the ascent direction for the raw Laplacian under a frozen-S
    linearization; residual2 refers to the normalized operator.
    """
    Nop = normalized_laplacian(L)

    def sls_matvec(x):
        return x - Nop.matvec(x)

    def sls_dense():
        return np.eye(L.N) - Nop.to_dense()

    est = _gap_above_cutoff(
        sls_matvec, sls_dense, L.N, lambda lam_max: NORMALIZED_NULL_TOL,
        dense_cutoff, seed, tol, max_budget)

    def back(v):
        n, d = L.n, L.d_v
        out = np.einsum("nab,nb->na", Nop.S, v.reshape(n, d)).reshape(-1)
        norm = np.linalg.norm(out)
        return out / norm if norm > 0 else out

    est.v2 = back(est.v2)
    est.v3 = back(est.v3)
    return est


@dataclass
class SparsifierConfig:
    eps: float = 0.3
    seed: int = 0
    sample_scale: float = 1.0   # multiplies the n*log(n)/eps^2 sample target
    probes: int = 64            # JL probes for leverage estimation at scale
    cg_tol: float = 1e-7
    cg_max_iter: int = 2000
    dense_cutoff: int = 2000    # below this N, leverage scores are exact


def _edge_leverage_dense(L: SheafLaplacian, B: SheafIncidence) -> np.ndarray:
    Lp = np.linalg.pinv(L.to_dense(), hermitian=True)
    n, d = L.n, L.d_v
    Lpr = Lp.reshape(n, d, n, d)
    I, J = B.edges[:, 0], B.edges[:, 1]
    Pii = Lpr[I, :, I, :]
    Pjj = Lpr[J, :, J, :]
    Pij = Lpr[I, :, J, :]
    t1 = np.einsum("eab,ebc,eac->e", B.Rij, Pii, B.Rij)
    t2 = np.einsum("eab,ebc,eac->e", B.Rji, Pjj, B.Rji)
    t3 = np.einsum("eab,ebc,eac->e", B.Rij, Pij, B.Rji)
    return t1 + t2 - 2.0 * t3


def _apply_Bt(B: SheafIncidence, g: np.ndarray) -> np.ndarray:
    """B^T g for g shaped (m, d_e): scatter +R_ij^T g_e to i and -R_ji^T g_e to j."""
    n, d = B.n, B.d_v
    out = np.zeros((n, d))
    np.add.at(out, B.edges[:, 0], np.einsum("eab,ea->eb", B.Rij, g))
    np.add.at(out, B.edges[:, 1], -np.einsum("eab,ea->eb", B.Rji, g))
    return out.reshape(-1)


def _apply_B(B: SheafIncidence, x: np.ndarray) -> np.ndarray:
    xs = x.reshape(B.n, B.d_v)
    return (np.einsum("eab,eb->ea", B.Rij, xs[B.edges[:, 0]])
            - np.einsum("eab,eb->ea", B.Rji, xs[B.edges[:, 1]]))


def _edge_leverage_sketched(L: SheafLaplacian, B: SheafIncidence,
                            cfg: SparsifierConfig) -> np.ndarray:
    """tau_e ~ mean_s ||(B L^+ B^T g_s)_e||^2 over Gaussian probes g_s.

    Uses that M = B L^+ B^T is an orthogonal projection, so E||(M g)_e||^2
    equals tr((M^2)_ee) = tr(M_ee) = tau_e.  Each probe costs one CG solve on
    the consistent singular system L z = B^T g.
    """
    from .diffusion import cg_solve, CGConfig  # local import; no cycle at module load

    rng = np.random.default_rng(cfg.seed)
    m, d_e = B.edges.shape[0], B.d_e
    acc = np.zeros(m)
    cgc = CGConfig(tol=cfg.cg_tol, max_iter=cfg.cg_max_iter)
    for _ in range(cfg.probes):
        gpr = rng.normal(size=(m, d_e))
        rhs = _apply_Bt(B, gpr)
        z = cg_solve(L.matvec, rhs, cgc).x
        Mg = _apply_B(B, z)
        acc += np.einsum("ea,ea->e", Mg, Mg)
    return acc / cfg.probes


def sparsify(L: SheafLaplacian, cfg: SparsifierConfig) -> SheafLaplacian:
    """Leverage-score edge sampling preserving quadratic forms within (1 +- eps).

    The sample target is ceil(sample_scale * n * ln(n) / eps^2) draws with
    replacement; when the graph already has no more edges than the target,
    sampling cannot sparsify anything and L is returned unchanged.
    """
    if not 0.0 < cfg.eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    B = L.restrictions
    if B is None:
        raise ValueError("sparsify needs a Laplacian assembled from restriction maps")
    q = int(np.ceil(cfg.sample_scale * L.n * np.log(max(L.n, 2)) / cfg.eps ** 2))
    if L.m <= q:
        return L
    if L.N <= cfg.dense_cutoff:
        tau = _edge_leverage_dense(L, B)
    else:
        tau = _edge_leverage_sketched(L, B, cfg)
    tau = np.maximum(tau, 1e-12)
    p = tau / tau.sum()
    counts = np.random.default_rng(cfg.seed).multinomial(q, p)
    keep = counts > 0
    w = counts[keep] / (q * p[keep])
    kept = SheafIncidence(n=L.n, edges=B.edges[keep], Rij=B.Rij[keep],
                          Rji=B.Rji[keep])
    return assemble_laplacian(kept, weights=w)


def reassemble_restrictions(L: SheafLaplacian, B: SheafIncidence) -> SheafIncidence:
    """Recover rank-d_e restriction pairs from the off-diagonal blocks of L.

    Each target -off[e] is factored by truncated SVD as R_ij^T R_ji with the
    singular weight split evenly between the two maps (the gauge freedom is
    arbitrary; only the products enter the Laplacian).  Blocks with no usable
    leading singular value keep the previous maps.
    """
    d_e = B.d_e
    m = L.m
    Rij = np.empty((m, d_e, L.d_v))
    Rji = np.empty((m, d_e, L.d_v))
    fallbacks = 0
    for e in range(m):
        T = -L.off[e]
        U, s, Vt = np.linalg.svd(T)
        if s[0] <= 1e-14:
            Rij[e], Rji[e] = B.Rij[e], B.Rji[e]
            fallbacks += 1
            continue
        root = np.sqrt(s[:d_e])
        Rij[e] = root[:, None] * U[:, :d_e].T
        Rji[e] = root[:, None] * Vt[:d_e]
    if fallbacks:
        logger.warning("reassembly kept previous maps on %d rank-deficient blocks",
                       fallbacks)
    return SheafIncidence(n=L.n, edges=L.edges, Rij=Rij, Rji=Rji)
