"""Block-sparse sheaf Laplacian: assembly, normalization, spectrum, sparsification.

For an edge e = (i, j) with restriction maps R_ij, R_ji (both d_e x d_v), the
incidence block row is [ +R_ij  -R_ji ] acting on the stalks of i and j, and
L = B^T B accumulates per edge:

    diag[i] += R_ij^T R_ij      diag[j] += R_ji^T R_ji
    off[e]   = -R_ij^T R_ji     (block at position (i, j); (j, i) is its transpose)

so x^T L x = sum_e ||R_ij x_i - R_ji x_j||^2 >= 0 by construction.

Every matrix with this block pattern (L, the incidence B and the
compressed normalized operator) is built by block_sparse.  L and B are
held and applied as BSR (block sparse rows, d_v x d_v blocks) through
SheafLaplacian.matvec; the compressed operator is held only as CSR,
built a range of block rows at a time, and other CSR copies are made
only to densify.  The normalized S L S is never built: the model
applies it as S (L (S x)).  pattern_outer is the gradient of a bilinear
form in the blocks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import (
    ArpackNoConvergence,
    LinearOperator,
    aslinearoperator,
    eigsh,
)

logger = logging.getLogger(__name__)


def block_sparse(rows: np.ndarray, cols: np.ndarray, blocks: list,
                 n_rows: int, n_cols: int) -> sp.bsr_matrix:
    """Canonical BSR matrix with block k at block position (rows[k], cols[k]).

    blocks is a list of (k_i, a, b) stacks whose concatenation holds block
    k at index k; each stack is copied once, straight into sorted order.
    The matrix is (n_rows * a, n_cols * b) with (a, b) blocks, block
    columns sorted within each block row.  Blocks at one position are
    summed; zero entries of a block stay explicit, so the pattern depends
    on the block positions alone.  Its matvec sums each row in column
    order, as CSR's does, so the two give the same bits; densify it
    through tocsr(), which is faster than BSR's own toarray.
    """
    order = np.lexsort((cols, rows))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    _, a, b = blocks[0].shape
    data = np.empty((order.size, a, b))
    start = 0
    for part in blocks:
        data[rank[start:start + len(part)]] = part
        start += len(part)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
    A = sp.bsr_matrix((data, cols[order], indptr),
                      shape=(n_rows * a, n_cols * b))
    A.sum_duplicates()
    return A


def scatter_add(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """out[i] = sum of values[k] over every k with index[k] == i.

    The sum is one product of a (n, K) incidence of ones, built by
    block_sparse as a BSR of 1 x 1 blocks, with values flattened to
    (K, -1).  Each row of the incidence lists its k in ascending order, so
    every out[i] is summed in k order from zero: the bits of np.add.at
    into zeros.  Rows of out that no k reaches are zero, and K = 0 gives
    all zeros.
    """
    K = index.size
    inc = block_sparse(index, np.arange(K), [np.ones((K, 1, 1))], n, K)
    tail = values.shape[1:]
    flat = values.reshape(K, int(np.prod(tail)))
    return (inc @ flat).reshape((n, *tail))


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

    def to_bsr(self) -> sp.bsr_matrix:
        """B as an (m * d_e, n * d_v) BSR matrix: [Rij, -Rji] at (e, i), (e, j)."""
        e = np.arange(self.m)
        return block_sparse(np.concatenate([e, e]), self.edges.T.ravel(),
                            [self.Rij, -self.Rji],
                            self.m, self.n)

    def to_dense(self) -> np.ndarray:
        return self.to_bsr().tocsr().toarray()


@dataclass(eq=False)
class SheafLaplacian:
    """Symmetric block operator stored as diagonal and (i, j) off blocks.

    Holds L itself and every other matrix on L's pattern, such as a
    gradient direction.  Its BSR form and block_eigh are built once, on
    first use; matvec is the one way the package applies such a matrix.
    """

    n: int
    d_v: int
    edges: np.ndarray            # (m, 2)
    diag: np.ndarray             # (n, d_v, d_v) symmetric blocks
    off: np.ndarray              # (m, d_v, d_v) block at (i, j); (j, i) = off^T
    _bsr: sp.bsr_matrix | None = field(default=None, repr=False)
    _eigh: tuple | None = field(default=None, repr=False)

    @property
    def N(self) -> int:
        return self.n * self.d_v

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    def to_bsr(self) -> sp.bsr_matrix:
        if self._bsr is None:
            I, J = self.edges[:, 0], self.edges[:, 1]
            nodes = np.arange(self.n)
            self._bsr = block_sparse(
                np.concatenate([I, J, nodes]), np.concatenate([J, I, nodes]),
                [self.off, self.off.transpose(0, 2, 1), self.diag],
                self.n, self.n)
        return self._bsr

    def to_dense(self) -> np.ndarray:
        return self.to_bsr().tocsr().toarray()

    def block_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V) = eigh((D + D') / 2) of the diagonal blocks D, made once.

        The package's one per-block eigendecomposition; an assembly's blocks
        are exactly symmetric, so symmetrizing leaves their bits unchanged.
        """
        if self._eigh is None:
            D = self.diag
            self._eigh = np.linalg.eigh(0.5 * (D + D.transpose(0, 2, 1)))
        return self._eigh

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply L to a vector (N,) or to k stacked signals (N, k)."""
        return self.to_bsr() @ x

    def coo_rows(self):
        """(row, col, value) triples of the explicit blocks, row-major order.

        The CSR copy of the canonical BSR lists its entries in that order.
        """
        coo = self.to_bsr().tocsr().tocoo()
        return coo.row, coo.col, coo.data


def assemble_laplacian(B: SheafIncidence,
                       weights: np.ndarray | None = None) -> SheafLaplacian:
    """L = B^T diag(w) B accumulated block by block (w defaults to all-ones).

    The Gram blocks R'R of both edge ends, written into one stack, and
    -R_ij'R_ji are batched matmuls; the diagonal blocks are then one
    incidence product (scatter_add), which sums each node's Gram blocks
    in edge order, the first ends before the second ends.  Each edge's
    blocks are scaled by its weight after they are formed, so weights of
    1.0 give the same bits as no weights, and every diagonal block is
    exactly symmetric.
    """
    gram = np.empty((2 * B.m, B.d_v, B.d_v))
    for R, part in ((B.Rij, gram[:B.m]), (B.Rji, gram[B.m:])):
        np.matmul(R.transpose(0, 2, 1), R, out=part)
    off = -(B.Rij.transpose(0, 2, 1) @ B.Rji)
    if weights is not None:
        w = np.asarray(weights, float)[:, None, None]
        gram, off = np.concatenate([w, w]) * gram, w * off
    diag = scatter_add(B.edges.T.ravel(), gram, B.n)
    return SheafLaplacian(n=B.n, d_v=B.d_v, edges=B.edges, diag=diag, off=off)


# edge blocks per chunk where a whole (m, d, d) temporary would otherwise
# sit beside its result: 256 blocks of 16 x 16 are 0.5 MiB
BLOCK_CHUNK = 256


def pattern_outer(edges: np.ndarray, left: np.ndarray, right: np.ndarray,
                  n: int, d_v: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of left' A right in the blocks (diag, off) of a pattern matrix A.

    left and right are signals (N,) or stacks (N, k) of k signals, whose
    gradients sum: that of sum_k left_k' A right_k.  The off entry for edge
    (i, j) collects both the (i, j) block of left right' and the transpose
    of its (j, i) block, because one off block parametrizes both.  For
    left = right = v the pattern restriction of v v' is therefore
    (diag, off / 2).  The off blocks are formed BLOCK_CHUNK edges at a
    time, so no gather or product of every edge is held beside them; each
    block is the same two products summed in the same order, so the bits
    do not depend on the chunking.
    """
    k = left.shape[1:] or (1,)   # a signal is a stack of one
    Lb, Rb = left.reshape(n, d_v, *k), right.reshape(n, d_v, *k)
    Lt, Rt = Lb.transpose(0, 2, 1), Rb.transpose(0, 2, 1)
    gd = Lb @ Rt
    go = np.empty((len(edges), d_v, d_v))
    for s in range(0, len(edges), BLOCK_CHUNK):
        I, J = edges[s:s + BLOCK_CHUNK, 0], edges[s:s + BLOCK_CHUNK, 1]
        part = go[s:s + BLOCK_CHUNK]
        np.matmul(Lb[I], Rt[J], out=part)
        part += Rb[I] @ Lt[J]
    return gd, go


# read by _block_frames alone, so the tape's S and the gap estimate's T
# keep the same directions of every diagonal block
BLOCK_CUTOFF_REL = 1e-12


def _block_frames(w: np.ndarray, V: np.ndarray):
    """T_i = V_i w_i^{-1/2} on the directions that clear the cutoff, else 0.

    (w, V) is L.block_eigh(); a direction is kept when its eigenvalue
    exceeds BLOCK_CUTOFF_REL * max(w_max, 1) of its block.  Returns (T,
    kept), T (n, d, d) and kept (n, d); since w ascends, the kept columns
    of each block are its last ones.
    """
    scale = np.maximum(w[:, -1:], 1.0)
    kept = w > BLOCK_CUTOFF_REL * scale
    inv = np.where(kept, 1.0 / np.sqrt(np.maximum(w, 1e-300)), 0.0)
    return V * inv[:, None, :], kept


def blockwise_constant_basis(n: int, d_v: int) -> np.ndarray:
    """Orthonormal (N, d_v) basis of signals constant across nodes per coordinate."""
    U = np.zeros((n * d_v, d_v))
    for c in range(d_v):
        U[c::d_v, c] = 1.0 / np.sqrt(n)
    return U


@dataclass
class SpectralEstimates:
    """Low end of a symmetric operator's spectrum.

    estimate_spectrum fills it for a sheaf Laplacian L: lambda2/v2 (and
    lambda3/v3) are the lowest eigenpairs of the deflated operator P L P,
    P projecting out blockwise-constant signals; when those signals span
    the kernel (every scalar sheaf) they are eigenpairs of L itself, and
    residual2 is measured against P L P.  normalized_range_gap fills it for
    the compressed normalized operator A: lambda2/lambda3 are the two
    lowest eigenvalues of A above NORMALIZED_NULL_TOL, v2/v3 their
    eigenvectors mapped back to the stalks, and residual2 is measured
    against A.  converged says whether the solver met its tolerance.
    lambda_max is not part of it: a caller that needs it calls
    top_eigenvalue.
    """

    lambda2: float
    v2: np.ndarray
    lambda3: float
    v3: np.ndarray
    residual2: float
    converged: bool


# operators of dimension up to this are decomposed densely, larger ones by
# ARPACK: one dense eigh at 1000 takes about 0.25 s on one core, while
# ARPACK below it may need several blocks (0.56 s against 0.03 s dense on
# a gap operator of dimension 424 with 23 modes under the null cutoff)
DENSE_CUTOFF = 1000
# ARPACK's stopping tolerance at the low end of a spectrum; it runs on the
# spectrum shifted up by one, where this is an absolute residual bound
ARPACK_TOL = 1e-10
# ARPACK's tolerance for lambda_max, which only sets scales and shifts;
# tighter ones cost seconds where the top of the spectrum clusters (the
# normalized n=3000 fixture: 0.4 s at 1e-4, 4 to 8 s at 1e-6)
LAMBDA_MAX_TOL = 1e-4
SPECTRUM_TOL = 1e-6   # estimate_spectrum's relative residual bound


def _extreme_eigs(A, k: int, which: str, rng, tol: float = 0.0,
                  maxiter: int | None = None, vectors: bool = True):
    """Eigenpairs at one end ("SA" lowest, "LA" highest) of the symmetric A.

    A is a sparse matrix or a LinearOperator of dimension N.  Up to
    DENSE_CUTOFF, or when k >= N, it is decomposed densely: eigvalsh when
    only values are asked, and otherwise every pair from eigh, for callers
    that read pairs by value past an unknown number of null modes.  Above
    it eigsh returns the k pairs at the `which` end, with its start and
    restart vectors drawn from rng (a seed or a Generator), so no result
    depends on ARPACK's own generator.  The low end runs on A + I: ARPACK
    stops a pair at residual <= tol * |theta|, so on A the pairs near zero
    would have to converge to roundoff.  A stall raises eigsh's
    ArpackNoConvergence with the pairs that did converge, shifted back to
    A; in an epoch only the gap estimate meets one, and it reports the
    stall as converged=False.  Returns (w ascending, V), or w alone when
    vectors is False.
    """
    N = A.shape[0]
    if N <= DENSE_CUTOFF or k >= N:
        Ad = A.tocsr().toarray() if sp.issparse(A) else A @ np.eye(N)
        Ad = 0.5 * (Ad + Ad.T)
        if not vectors:
            return np.linalg.eigvalsh(Ad)
        return np.linalg.eigh(Ad)
    shift = 1.0 if which == "SA" else 0.0
    if shift:
        eye = sp.identity(N, format="csr")
        A = (A + eye if sp.issparse(A)
             else aslinearoperator(A) + aslinearoperator(eye))
    try:
        out = eigsh(A, k=k, which=which, tol=tol, maxiter=maxiter, rng=rng,
                    return_eigenvectors=vectors)
    except ArpackNoConvergence as err:
        err.eigenvalues = err.eigenvalues - shift
        raise
    if not vectors:
        return np.sort(out) - shift
    w, V = out
    order = np.argsort(w)
    return w[order] - shift, V[:, order]


def top_eigenvalue(A, rng) -> float:
    """lambda_max of the symmetric A, to LAMBDA_MAX_TOL on the ARPACK path.

    rng is a seed or a Generator; a Generator's next draws start ARPACK.
    """
    return float(_extreme_eigs(A, 1, "LA", rng, tol=LAMBDA_MAX_TOL,
                               vectors=False)[-1])


def estimate_spectrum(L: SheafLaplacian, seed: int = 0) -> SpectralEstimates:
    """lambda_2 over the complement of blockwise-constant signals.

    Both solves go through _extreme_eigs: lambda_max of L, then the two
    lowest pairs of the deflated operator P L P + (lambda_max + 1) U U',
    which lifts the blockwise-constant signals U above the rest of the
    spectrum.  converged says whether the eigenpair residual
    ||P L P v2 - lambda2 v2|| is at most SPECTRUM_TOL * max(lambda_max, 1).
    lambda_max sets that shift and that scale and is not returned.
    """
    N = L.N
    U = blockwise_constant_basis(L.n, L.d_v)
    compl_dim = N - U.shape[1]
    if compl_dim < 1:
        raise ValueError("operator too small for a deflated second eigenvalue")

    rng = np.random.default_rng(seed)
    lam_max = top_eigenvalue(L.to_bsr(), rng)
    sigma = lam_max + 1.0

    def deflated(X):
        Y = X - U @ (U.T @ X)
        Y = L.matvec(Y)
        return Y - U @ (U.T @ Y)

    def shifted(X):
        return deflated(X) + sigma * (U @ (U.T @ X))

    op = LinearOperator((N, N), matvec=shifted, matmat=shifted, dtype=float)
    w, V = _extreme_eigs(op, 2, "SA", rng, tol=ARPACK_TOL)
    lam2, v2 = float(w[0]), V[:, 0]
    if compl_dim >= 2:
        lam3, v3 = float(w[1]), V[:, 1]
    else:
        lam3, v3 = lam2, v2.copy()
    res = float(np.linalg.norm(deflated(v2) - lam2 * v2))
    converged = res <= SPECTRUM_TOL * max(lam_max, 1.0)
    if not converged:
        logger.warning("spectrum estimate residual %.2e above tolerance", res)
    return SpectralEstimates(lambda2=lam2, v2=v2, lambda3=lam3, v3=v3,
                             residual2=res, converged=converged)


# normalized-operator null cutoff, absolute on a spectrum inside [0, 2]:
# modes mixing slower than ~1e3 diffusion time units count as null
NORMALIZED_NULL_TOL = 1e-3
# ARPACK's block in the normalized gap estimate starts at ARPACK_K0 pairs
# and doubles up to ARPACK_MAX_K while ARPACK stalls or returns fewer than
# two pairs above the cutoff: small two-cluster first-epoch operators keep
# 14 to 47 modes under it, and the n=3000 fixture at least 17
ARPACK_K0 = 16
ARPACK_MAX_K = 128
# ARPACK's restarts per attempt in that estimate; a run that needs more is
# given up for a larger block rather than left to ARPACK's default of 10
# restarts per dimension
ARPACK_MAX_RESTARTS = 160


def _null_estimate(N: int) -> SpectralEstimates:
    """The estimate of an operator with nothing above its null cutoff."""
    z = np.zeros(N)
    return SpectralEstimates(lambda2=0.0, v2=z, lambda3=0.0, v3=z.copy(),
                             residual2=0.0, converged=False)


def _warn_null() -> None:
    logger.warning("no spectrum above the null cutoff; operator is "
                   "numerically null")


def _gap_above_cutoff(A: sp.csr_matrix, seed: int) -> SpectralEstimates:
    """Smallest eigenpair above NORMALIZED_NULL_TOL of the PSD matrix A.

    A of dimension up to DENSE_CUTOFF is decomposed densely, every pair at
    once.  Larger ones get ARPACK's ARPACK_K0 lowest pairs on A + I, and
    the block doubles up to ARPACK_MAX_K while ARPACK stalls (each stall
    leaves one DEBUG record) or returns fewer than two pairs above the
    cutoff: ARPACK converges the lowest pairs whether or not they clear
    it, so the block must hold every mode under it plus two.  On A + I,
    whose spectrum lies in [1, 3], a converged pair has residual at most
    3 * ARPACK_TOL.  When ARPACK still stalls at the largest block, the
    lowest of the pairs that did converge is reported with converged=False
    and one WARNING.  Returns lambda2 = 0 with converged=False when
    nothing clears the cutoff.
    """
    N = A.shape[0]
    cutoff = NORMALIZED_NULL_TOL
    rng = np.random.default_rng(seed)
    k = ARPACK_K0
    while True:
        try:
            w, V = _extreme_eigs(A, k, "SA", rng, tol=ARPACK_TOL,
                                 maxiter=ARPACK_MAX_RESTARTS)
            converged = True
        except ArpackNoConvergence as err:
            logger.debug("range-gap estimate: %s (k=%d, dim A=%d)", err, k, N)
            w, V, converged = err.eigenvalues, err.eigenvectors, False
        enough = converged and np.count_nonzero(w > cutoff) >= 2
        if enough or w.size == N or k >= ARPACK_MAX_K:
            break
        k *= 2
    if not converged:
        logger.warning("range-gap estimate: ARPACK stalled at k=%d "
                       "(dim A=%d)", k, N)
    order = np.argsort(w)
    keep = order[w[order] > cutoff]
    if keep.size == 0:
        if converged:
            _warn_null()
        return _null_estimate(N)
    lam2, v2 = float(w[keep[0]]), V[:, keep[0]]
    if keep.size >= 2:
        lam3, v3 = float(w[keep[1]]), V[:, keep[1]]
    else:
        lam3, v3 = lam2, v2.copy()
    res = float(np.linalg.norm(A @ v2 - lam2 * v2))
    return SpectralEstimates(lambda2=lam2, v2=v2, lambda3=lam3, v3=v3,
                             residual2=res, converged=converged)


def _compressed_normalized(L: SheafLaplacian):
    """S L S compressed to range(S): A = T' L T, with T = blockdiag(T_i).

    T_i = V_i w_i^{-1/2} over the directions of the diagonal block D_i that
    clear _block_frames' cutoff, with (w, V) = L.block_eigh(), so S_i =
    T_i T_i' and S L S = Q A Q' with Q = blockdiag(V_i kept) orthonormal:
    A has the spectrum of S L S minus the structural zeros of null(S).
    Its diagonal blocks T_i' D_i T_i, the identity up to roundoff over the
    smallest kept w, are computed, not assumed, so A compresses the S L S
    that the tape's Chebyshev filter applies as S (L (S x)).

    A is the CSR form of the blocks T_i' D_i T_i and T_I' O T_J on L's
    pattern, restricted to the kept rows and columns, built a range of
    block rows (about BLOCK_CHUNK blocks) at a time: the range's diagonal
    blocks and the off blocks of the edges that start or end in it are
    compressed by T, go through block_sparse to CSR and lose their dropped
    rows and columns, so no matrix of all of T' L T is held.  Blocks at
    one position are summed in the order of one whole build, so the
    stacked pieces equal B.tocsr()[k][:, k], B the BSR of all the blocks
    and k the kept indices.  Returns (A, T, kept): A of dimension
    kept.sum(), T (n, d, d) with zero columns where a direction was
    dropped, and the (n, d) kept mask in the row order of A.
    """
    n = L.n
    T, kept = _block_frames(*L.block_eigh())
    Tt = T.transpose(0, 2, 1)
    idx = np.flatnonzero(kept)
    I, J = L.edges[:, 0], L.edges[:, 1]
    # the edges that start, and that end, in each range of block rows
    by_I, by_J = np.argsort(I, kind="stable"), np.argsort(J, kind="stable")
    step = max(1, BLOCK_CHUNK * n // (2 * L.m + n))
    starts = np.arange(0, n + step, step).clip(max=n)
    cut_I = np.searchsorted(I[by_I], starts)
    cut_J = np.searchsorted(J[by_J], starts)

    def compressed_off(e):
        return np.matmul(Tt[I[e]] @ L.off[e], T[J[e]])

    parts = []
    for c, (r, top) in enumerate(zip(starts[:-1], starts[1:])):
        ei, ej = by_I[cut_I[c]:cut_I[c + 1]], by_J[cut_J[c]:cut_J[c + 1]]
        Pd = Tt[r:top] @ L.diag[r:top] @ T[r:top]
        nodes = np.arange(r, top)
        rows = block_sparse(
            np.concatenate([I[ei], J[ej], nodes]) - r,
            np.concatenate([J[ei], I[ej], nodes]),
            [compressed_off(ei), compressed_off(ej).transpose(0, 2, 1),
             0.5 * (Pd + Pd.transpose(0, 2, 1))], top - r, n)
        parts.append(rows.tocsr()[np.flatnonzero(kept[r:top])][:, idx])
    return sp.vstack(parts, format="csr"), T, kept


def normalized_range_gap(L: SheafLaplacian, seed: int = 0) -> SpectralEstimates:
    """Connectivity of the degree-normalized operator S L S, above null modes.

    The raw spectrum of a transport-built sheaf mixes three populations:
    an exact kernel, a continuum of near-null modes from floored plan mass
    (arbitrarily weak, scale set by how close lifted coordinates sit to
    zero), and the informative band.  Sandwiching by the pseudo-inverse
    square root of the diagonal blocks rescales every reachable direction
    to unit degree, so the informative band becomes O(1) and a single
    absolute cutoff (NORMALIZED_NULL_TOL, on a spectrum inside [0, 2])
    separates it from modes too slow to mix at any training horizon.

    The estimate runs on _compressed_normalized(L), which drops the exact
    kernel null(S) before any solver sees it: dense eigh up to DENSE_CUTOFF,
    above it ARPACK on A + I with a block that doubles until it holds two
    pairs above the cutoff (_gap_above_cutoff).  A converged estimate is a
    converged eigenpair of A: its residual is at most 3 * ARPACK_TOL.

    The returned v2/v3 are T y, normalized: the eigenvector Q y of S L S
    mapped back through S, the ascent direction for the raw Laplacian
    under a frozen-S linearization; residual2 refers to A.
    """
    A, T, kept = _compressed_normalized(L)
    if A.shape[0] == 0:
        _warn_null()
        return _null_estimate(L.N)
    est = _gap_above_cutoff(A, seed)

    def back(y):
        full = np.zeros(kept.shape)
        full[kept] = y
        out = (T @ full[:, :, None]).reshape(-1)
        norm = np.linalg.norm(out)
        return out / norm if norm > 0 else out

    est.v2 = back(est.v2)
    est.v3 = back(est.v3)
    return est


# sparsify's leverage scores are exact for operators of dimension up to
# this and sketched above it.  It bounds a dense pinv of L, not the dense
# eigh that DENSE_CUTOFF bounds, so the two cutoffs are separate settings.
LEVERAGE_DENSE_CUTOFF = 2000
# the sketch: its Gaussian probes, and the tolerance and iteration budget
# of the CG solve each probe costs
LEVERAGE_PROBES = 64
LEVERAGE_CG_TOL = 1e-7
LEVERAGE_CG_MAX_ITER = 2000


def _edge_leverage_dense(L: SheafLaplacian, B: SheafIncidence) -> np.ndarray:
    Lp = np.linalg.pinv(L.to_dense(), hermitian=True)
    n, d = L.n, L.d_v
    Lpr = Lp.reshape(n, d, n, d)
    I, J = B.edges[:, 0], B.edges[:, 1]
    Pii = Lpr[I, :, I, :]
    Pjj = Lpr[J, :, J, :]
    Pij = Lpr[I, :, J, :]
    t1 = ((B.Rij @ Pii) * B.Rij).sum((1, 2))
    t2 = ((B.Rji @ Pjj) * B.Rji).sum((1, 2))
    t3 = ((B.Rij @ Pij) * B.Rji).sum((1, 2))
    return t1 + t2 - 2.0 * t3


def _edge_leverage_sketched(L: SheafLaplacian, B: SheafIncidence,
                            seed: int) -> np.ndarray:
    """tau_e ~ mean_s ||(B L^+ B^T g_s)_e||^2 over LEVERAGE_PROBES Gaussian g_s.

    Uses that M = B L^+ B^T is an orthogonal projection, so E||(M g)_e||^2
    equals tr((M^2)_ee) = tr(M_ee) = tau_e.  Each probe costs one CG solve on
    the consistent singular system L z = B^T g.
    """
    from .diffusion import cg_solve, CGConfig  # local import; no cycle at module load

    rng = np.random.default_rng(seed)
    m, d_e = B.edges.shape[0], B.d_e
    acc = np.zeros(m)
    cgc = CGConfig(tol=LEVERAGE_CG_TOL, max_iter=LEVERAGE_CG_MAX_ITER)
    Bc = B.to_bsr()
    for _ in range(LEVERAGE_PROBES):
        gpr = rng.normal(size=(m, d_e))
        z = cg_solve(L.matvec, Bc.T @ gpr.reshape(-1), cgc).x
        Mg = (Bc @ z).reshape(m, d_e)
        acc += np.einsum("ea,ea->e", Mg, Mg)
    return acc / LEVERAGE_PROBES


def sparsify(B: SheafIncidence, eps: float, seed: int) -> SheafLaplacian:
    """Leverage-score edge sampling preserving quadratic forms within (1 +- eps).

    Samples the edges of the incidence B and returns the Laplacian of the
    reweighted sample.  The sample target is ceil(n * ln(n) / eps^2) draws
    with replacement, seeded by seed (as is the leverage sketch); when the
    graph already has no more edges than the target, sampling cannot
    sparsify anything and L = assemble_laplacian(B) is returned.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    L = assemble_laplacian(B)
    q = int(np.ceil(L.n * np.log(max(L.n, 2)) / eps ** 2))
    if L.m <= q:
        return L
    if L.N <= LEVERAGE_DENSE_CUTOFF:
        tau = _edge_leverage_dense(L, B)
    else:
        tau = _edge_leverage_sketched(L, B, seed)
    tau = np.maximum(tau, 1e-12)
    p = tau / tau.sum()
    counts = np.random.default_rng(seed).multinomial(q, p)
    keep = counts > 0
    w = counts[keep] / (q * p[keep])
    kept = SheafIncidence(n=B.n, edges=B.edges[keep], Rij=B.Rij[keep],
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
