import logging

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

import otsheaf.laplacian as laplacian
from otsheaf.autodiff import Var
from otsheaf.graphs import Graph, erdos_renyi, synthetic_dataset
from otsheaf.laplacian import (
    SheafIncidence,
    SheafLaplacian,
    _compressed_normalized,
    _edge_leverage_dense,
    assemble_laplacian,
    blockwise_constant_basis,
    estimate_spectrum,
    block_sparse,
    normalized_range_gap,
    reassemble_restrictions,
    scatter_add,
    sparsify,
    top_eigenvalue,
)
from otsheaf.model import (
    EpochContext,
    diffusion_layer,
    isqrt_blocks,
    sandwich_blocks,
)


def random_sheaf(g: Graph, d_v: int, d_e: int, seed: int = 0) -> SheafIncidence:
    rng = np.random.default_rng(seed)
    return SheafIncidence(
        n=g.n,
        edges=g.edges,
        Rij=rng.normal(size=(g.m, d_e, d_v)),
        Rji=rng.normal(size=(g.m, d_e, d_v)),
    )


def scalar_sheaf(g: Graph) -> SheafIncidence:
    ones = np.ones((g.m, 1, 1))
    return SheafIncidence(n=g.n, edges=g.edges, Rij=ones.copy(), Rji=ones.copy())


def diag_operator(D: np.ndarray) -> SheafLaplacian:
    """The edgeless operator whose diagonal blocks are D, for isqrt_blocks."""
    n, d, _ = D.shape
    return SheafLaplacian(n=n, d_v=d, edges=np.empty((0, 2), int), diag=D,
                          off=np.empty((0, d, d)))


def dense_sls(L: SheafLaplacian) -> np.ndarray:
    """Dense S L S, S the block-diagonal pinv-sqrt of L's diagonal blocks."""
    S = block_diag(*isqrt_blocks(Var(L.diag), L).value)
    return S @ L.to_dense() @ S


def tape_blocks(L: SheafLaplacian):
    """The blocks (md, mo) of S L S from sandwich_blocks.

    They are the blockwise reference for the S L S that diffusion_layer's
    filter applies as the composition S (L (S v)).
    """
    D = Var(L.diag)
    return sandwich_blocks(isqrt_blocks(D, L), D, Var(L.off), L.edges)


def combinatorial_laplacian(g: Graph) -> np.ndarray:
    A = np.zeros((g.n, g.n))
    A[g.edges[:, 0], g.edges[:, 1]] = 1.0
    A[g.edges[:, 1], g.edges[:, 0]] = 1.0
    return np.diag(A.sum(axis=1)) - A


class TestAssembly:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_diagonal_blocks_exactly_symmetric(self, weighted):
        # the graph and stalk sizes of the lift_n300 benchmark fixture;
        # the normalized operator reads these blocks as they are
        g, _, _ = synthetic_dataset(n=300, num_classes=5, d0=64, seed=0,
                                    homophily=0.8, avg_degree=6.0)
        B = random_sheaf(g, d_v=16, d_e=16, seed=2)
        weights = (np.random.default_rng(3).uniform(0.5, 2.0, g.m)
                   if weighted else None)
        diag = assemble_laplacian(B, weights).diag
        assert np.array_equal(diag, diag.transpose(0, 2, 1))

    def test_scalar_sheaf_is_graph_laplacian(self):
        g = erdos_renyi(12, 4.0, seed=1)
        L = assemble_laplacian(scalar_sheaf(g))
        np.testing.assert_allclose(L.to_dense(), combinatorial_laplacian(g), atol=1e-12)

    def test_single_edge_identity_maps(self):
        g = Graph.from_edges(2, [[0, 1]])
        eye = np.eye(2)[None, :, :]
        B = SheafIncidence(n=2, edges=g.edges, Rij=eye.copy(), Rji=eye.copy())
        expected = np.block([[np.eye(2), -np.eye(2)], [-np.eye(2), np.eye(2)]])
        np.testing.assert_allclose(assemble_laplacian(B).to_dense(), expected)

    def test_equals_Bt_B(self):
        g = erdos_renyi(8, 3.0, seed=2)
        B = random_sheaf(g, d_v=3, d_e=2, seed=5)
        L = assemble_laplacian(B)
        Bd = B.to_dense()
        np.testing.assert_allclose(L.to_dense(), Bd.T @ Bd, atol=1e-10)

    def test_energy_identity_property(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            g = erdos_renyi(7, 3.0, seed=trial)
            if g.m == 0:
                continue
            B = random_sheaf(g, d_v=3, d_e=2, seed=trial)
            L = assemble_laplacian(B)
            x = rng.normal(size=L.N)
            xs = x.reshape(g.n, 3)
            energy = sum(
                np.sum((B.Rij[e] @ xs[g.edges[e, 0]] - B.Rji[e] @ xs[g.edges[e, 1]]) ** 2)
                for e in range(g.m)
            )
            assert x @ L.matvec(x) == pytest.approx(energy, rel=1e-10)

    def test_psd(self):
        g = erdos_renyi(9, 3.0, seed=4)
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=2, seed=4))
        assert np.linalg.eigvalsh(L.to_dense()).min() >= -1e-10

    def test_matvec_multicolumn(self):
        g = erdos_renyi(6, 3.0, seed=5)
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=2, seed=6))
        X = np.random.default_rng(0).normal(size=(L.N, 4))
        np.testing.assert_allclose(L.matvec(X), L.to_dense() @ X, atol=1e-10)

    def test_weighted_assembly(self):
        g = erdos_renyi(6, 3.0, seed=7)
        B = random_sheaf(g, d_v=2, d_e=1, seed=7)
        w = np.random.default_rng(1).random(g.m) + 0.5
        L = assemble_laplacian(B, weights=w)
        Bd = B.to_dense()
        W = np.kron(np.diag(w), np.eye(1))
        np.testing.assert_allclose(L.to_dense(), Bd.T @ W @ Bd, atol=1e-10)

    def test_unit_weights_change_no_bits(self):
        g = erdos_renyi(8, 3.0, seed=9)
        B = random_sheaf(g, d_v=3, d_e=2, seed=9)
        L, Lw = assemble_laplacian(B), assemble_laplacian(B, weights=np.ones(g.m))
        assert np.array_equal(L.diag, Lw.diag)
        assert np.array_equal(L.off, Lw.off)

    def test_coo_rows_reconstruct(self):
        g = erdos_renyi(5, 2.5, seed=8)
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=2, seed=8))
        rows, cols, vals = L.coo_rows()
        dense = np.zeros((L.N, L.N))
        dense[rows, cols] += vals
        np.testing.assert_allclose(dense, L.to_dense(), atol=1e-12)


def coo_reference_csr(L: SheafLaplacian) -> sp.csr_matrix:
    """L's CSR form through one COO of every block entry, index by index."""
    d = L.d_v
    a, b = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    rows = [(L.edges[:, 0][:, None, None] * d + a).ravel(),
            (L.edges[:, 1][:, None, None] * d + a).ravel(),
            (np.arange(L.n)[:, None, None] * d + a).ravel()]
    cols = [(L.edges[:, 1][:, None, None] * d + b).ravel(),
            (L.edges[:, 0][:, None, None] * d + b).ravel(),
            (np.arange(L.n)[:, None, None] * d + b).ravel()]
    data = [L.off.ravel(), np.swapaxes(L.off, 1, 2).ravel(), L.diag.ravel()]
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(L.N, L.N)).tocsr()


def compressed_reference(L: SheafLaplacian) -> sp.csr_matrix:
    """A = T' L T through one COO of the entries on kept rows and columns."""
    n, d = L.n, L.d_v
    _, T, kept = _compressed_normalized(L)
    pos = np.full(n * d, -1)
    pos[np.flatnonzero(kept)] = np.arange(kept.sum())
    pos = pos.reshape(n, d)

    def entries(blocks, a, b):
        rows, cols = np.broadcast_arrays(pos[a][:, :, None], pos[b][:, None, :])
        on = (rows >= 0) & (cols >= 0)
        return rows[on], cols[on], blocks[on]

    Tt = T.transpose(0, 2, 1)
    Pd = Tt @ L.diag @ T
    I, J = L.edges[:, 0], L.edges[:, 1]
    nodes = np.arange(n)
    dr, dc, dv = entries(0.5 * (Pd + Pd.transpose(0, 2, 1)), nodes, nodes)
    orow, ocol, ov = entries(Tt[I] @ L.off @ T[J], I, J)
    r = int(kept.sum())
    return sp.coo_matrix(
        (np.concatenate([dv, ov, ov]),
         (np.concatenate([dr, orow, ocol]), np.concatenate([dc, ocol, orow]))),
        shape=(r, r)).tocsr()


def whole_bsr_compressed(L: SheafLaplacian) -> sp.csr_matrix:
    """B.tocsr()[k][:, k], B the BSR of all of T' L T built in one piece."""
    _, T, kept = _compressed_normalized(L)
    Tt = T.transpose(0, 2, 1)
    Pd = Tt @ L.diag @ T
    I, J = L.edges[:, 0], L.edges[:, 1]
    B = SheafLaplacian(n=L.n, d_v=L.d_v, edges=L.edges,
                       diag=0.5 * (Pd + Pd.transpose(0, 2, 1)),
                       off=np.matmul(Tt[I] @ L.off, T[J])).to_bsr()
    k = np.flatnonzero(kept)
    return B.tocsr()[k][:, k]


def duplicate_edge_sheaf() -> SheafIncidence:
    """Repeated edges, an edge given in both directions and isolated node 5;
    d_e < d_v, so every diagonal block is rank-deficient."""
    edges = np.array([(0, 1), (1, 0), (0, 1), (2, 3), (3, 4), (1, 2), (4, 3)])
    rng = np.random.default_rng(8)
    return SheafIncidence(n=6, edges=edges, Rij=rng.normal(size=(7, 2, 3)),
                          Rji=rng.normal(size=(7, 2, 3)))


COMPRESSED_FIXTURES = {
    "duplicate_edges": lambda: assemble_laplacian(duplicate_edge_sheaf()),
    "isolated": lambda: assemble_laplacian(BUILDER_FIXTURES["isolated"]()),
    "rank_deficient": lambda: large_kernel_operator(),
    "several_chunks": lambda: assemble_laplacian(random_sheaf(
        erdos_renyi(300, 6.0, seed=2), d_v=4, d_e=3, seed=2)),
}


def incidence_loop_reference(B: SheafIncidence) -> np.ndarray:
    """Dense B written block by block."""
    m, d_e, d_v = B.Rij.shape
    out = np.zeros((m * d_e, B.n * d_v))
    for e in range(m):
        i, j = B.edges[e]
        out[e * d_e:(e + 1) * d_e, i * d_v:(i + 1) * d_v] = B.Rij[e]
        out[e * d_e:(e + 1) * d_e, j * d_v:(j + 1) * d_v] = -B.Rji[e]
    return out


BUILDER_FIXTURES = {
    "random": lambda: random_sheaf(erdos_renyi(15, 3.5, seed=4), d_v=3,
                                   d_e=2, seed=4),
    "edgeless": lambda: random_sheaf(Graph.from_edges(4, []), d_v=3, d_e=2),
    "isolated": lambda: random_sheaf(Graph.from_edges(5, [(0, 1), (1, 2),
                                                          (2, 3)]),
                                     d_v=2, d_e=2, seed=1),
}


def assert_same_csr(A: sp.csr_matrix, ref: sp.csr_matrix) -> None:
    assert A.shape == ref.shape
    np.testing.assert_array_equal(A.indptr, ref.indptr)
    np.testing.assert_array_equal(A.indices, ref.indices)
    np.testing.assert_array_equal(A.data, ref.data)


class TestBlockSparse:
    """block_sparse builds every block-pattern matrix; each one keeps the
    bits of its entry-by-entry construction."""

    @pytest.mark.parametrize("fixture", sorted(BUILDER_FIXTURES))
    def test_laplacian_csr_matches_coo_reference(self, fixture):
        L = assemble_laplacian(BUILDER_FIXTURES[fixture]())
        assert_same_csr(L.to_bsr().tocsr(), coo_reference_csr(L))

    @pytest.mark.parametrize("fixture", sorted(BUILDER_FIXTURES))
    def test_matvec_has_the_bits_of_the_csr_product(self, fixture):
        # the BSR matvec sums each row in column order, as CSR does
        L = assemble_laplacian(BUILDER_FIXTURES[fixture]())
        ref = coo_reference_csr(L)
        rng = np.random.default_rng(11)
        for x in (rng.normal(size=L.N), rng.normal(size=(L.N, 3))):
            assert np.array_equal(L.matvec(x), ref @ x)

    @pytest.mark.parametrize("fixture", sorted(BUILDER_FIXTURES))
    def test_coo_rows_are_row_major(self, fixture):
        L = assemble_laplacian(BUILDER_FIXTURES[fixture]())
        rows, cols, vals = L.coo_rows()
        ref = coo_reference_csr(L).tocoo()
        np.testing.assert_array_equal(rows, ref.row)
        np.testing.assert_array_equal(cols, ref.col)
        np.testing.assert_array_equal(vals, ref.data)
        assert np.all(np.diff(rows * L.N + cols) > 0)

    @pytest.mark.parametrize("fixture", sorted(BUILDER_FIXTURES))
    def test_incidence_csr_matches_loop_and_laplacian(self, fixture):
        B = BUILDER_FIXTURES[fixture]()
        Bc = B.to_bsr()
        assert Bc.shape == (B.m * B.d_e, B.n * B.d_v)
        np.testing.assert_array_equal(Bc.toarray(), incidence_loop_reference(B))
        np.testing.assert_allclose((Bc.T @ Bc).toarray(),
                                   assemble_laplacian(B).to_dense(), atol=1e-12)

    def test_compressed_operator_matches_coo_reference(self):
        L = large_kernel_operator()
        A, _, kept = _compressed_normalized(L)
        assert kept.sum() < L.N
        assert_same_csr(A, compressed_reference(L))

    @pytest.mark.parametrize("fixture", sorted(COMPRESSED_FIXTURES))
    def test_compressed_operator_matches_whole_bsr(self, fixture):
        # the row-chunked build keeps the arrays of the whole BSR of T' L T
        # restricted to the kept rows and columns, duplicates summed in the
        # same order
        L = COMPRESSED_FIXTURES[fixture]()
        if fixture == "several_chunks":
            assert 2 * L.m + L.n > 4 * laplacian.BLOCK_CHUNK
        A, _, kept = _compressed_normalized(L)
        assert 0 < kept.sum() < L.N
        assert_same_csr(A, whole_bsr_compressed(L))

    def test_blocks_at_one_position_are_summed(self):
        rng = np.random.default_rng(5)
        blocks = rng.normal(size=(4, 2, 3))
        rows, cols = np.array([1, 0, 1, 1]), np.array([2, 0, 0, 2])
        A = block_sparse(rows, cols, [blocks[:1], blocks[1:]], 2, 3)
        dense = np.zeros((4, 9))
        for r, c, blk in zip(rows, cols, blocks):
            dense[2 * r:2 * r + 2, 3 * c:3 * c + 3] += blk
        assert A.has_canonical_format
        np.testing.assert_array_equal(A.toarray(), dense)

    @pytest.mark.parametrize("K", [0, 1, 40])
    def test_scatter_add_matches_add_at(self, K):
        # repeated indices sum in index order from zero, as np.add.at does;
        # rows 5 and 6 receive nothing and stay zero
        rng = np.random.default_rng(K)
        index = rng.choice([0, 1, 2, 3, 4, 7], size=K)
        values = rng.normal(size=(K, 3, 2))
        ref = np.zeros((8, 3, 2))
        np.add.at(ref, index, values)
        out = scatter_add(index, values, 8)
        assert out.shape == ref.shape
        np.testing.assert_array_equal(out, ref)
        assert not out[5:7].any()


class TestNormalized:
    def test_scalar_single_edge(self):
        g = Graph.from_edges(2, [[0, 1]])
        L = assemble_laplacian(scalar_sheaf(g))
        np.testing.assert_allclose(np.eye(2) - dense_sls(L),
                                   [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_isolated_node_identity_contribution(self):
        # diffusion_layer's filter, its last d_v columns, passes an isolated
        # node's signal through unchanged: its block of S is zero
        g = Graph.from_edges(3, [[0, 1]])  # node 2 isolated
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=2, seed=3))
        D = Var(L.diag)
        S = isqrt_blocks(D, L)
        assert not S.value[2].any()
        ctx = EpochContext(n=3, d_v=2, edges=g.edges, plans=None, X0=None,
                           y=None, train_idx=None, kappa=None, dt=0.1,
                           cg_tol=1e-8, cg_max_iter=1000, n_layers=1)
        x = np.random.default_rng(3).normal(size=(3, 2))
        out = diffusion_layer(S, D, Var(L.off), L,
                              Var(np.array([0.3, -0.2, 0.5, 0.1])), x, ctx,
                              [], release=True)[0].value[:, 2:]
        np.testing.assert_allclose(out[2], x[2], rtol=1e-14)
        assert not np.allclose(out[:2], x[:2])

    def test_matvec_matches_dense(self):
        # the tape's sandwich blocks describe the dense S L S
        g = erdos_renyi(7, 3.0, seed=9)
        L = assemble_laplacian(random_sheaf(g, 3, 2, seed=9))
        md, mo = tape_blocks(L)
        SLS = SheafLaplacian(n=L.n, d_v=L.d_v, edges=L.edges, diag=md.value,
                             off=mo.value)
        x = np.random.default_rng(2).normal(size=L.N)
        np.testing.assert_allclose(SLS.matvec(x), dense_sls(L) @ x, atol=1e-10)

    def test_scalar_spectrum_in_unit_band(self):
        g = erdos_renyi(20, 4.0, seed=10, ensure_connected=True)
        L = assemble_laplacian(scalar_sheaf(g))
        w = np.linalg.eigvalsh(np.eye(L.N) - dense_sls(L))
        assert w.min() >= -1.0 - 1e-10 and w.max() <= 1.0 + 1e-10

    def test_sls_spectrum_in_zero_two_on_random_sheaves(self):
        # x'Lx <= 2 x'Dx for every sheaf, so S L S lies in [0, 2] and the
        # Chebyshev filter on I - S L S needs no rescaling
        for seed in range(8):
            g = erdos_renyi(12, 3.5, seed=seed)
            for d_v, d_e in ((1, 1), (3, 1), (3, 3), (4, 2)):
                L = assemble_laplacian(random_sheaf(g, d_v, d_e, seed=seed))
                w = np.linalg.eigvalsh(dense_sls(L))
                assert w.min() >= -1e-10 and w.max() <= 2.0 + 1e-10

    def test_block_isqrt_matches_einsum_formula(self):
        rng = np.random.default_rng(21)
        base = rng.normal(size=(30, 4, 4))
        D = np.einsum("nab,ncb->nac", base, base)
        D[3] = 0.0                       # a null block keeps S = 0
        D[5, :, 0] = D[5, 0, :] = 0.0    # and a rank-deficient one
        L = diag_operator(D)
        S = isqrt_blocks(Var(D), L).value
        w, V = L.block_eigh()
        scale = np.maximum(w[:, -1:], 1.0)
        inv = np.where(w > 1e-12 * scale,
                       1.0 / np.sqrt(np.maximum(w, 1e-300)), 0.0)
        ref = np.einsum("nab,nb,ncb->nac", V, inv, V)
        assert np.linalg.norm(S - ref) <= 1e-13 * np.linalg.norm(ref)
        assert not S[3].any()


class TestSpectrum:
    def test_path_two_nodes(self):
        g = Graph.from_edges(2, [[0, 1]])
        L = assemble_laplacian(scalar_sheaf(g))
        est = estimate_spectrum(L)
        assert est.lambda2 == pytest.approx(2.0, abs=1e-9)
        assert top_eigenvalue(L.to_bsr(), 0) == pytest.approx(2.0, abs=1e-9)

    def test_complete_graph_k4(self):
        g = Graph.from_edges(4, [[i, j] for i in range(4) for j in range(i + 1, 4)])
        est = estimate_spectrum(assemble_laplacian(scalar_sheaf(g)))
        assert est.lambda2 == pytest.approx(4.0, abs=1e-9)

    def test_disconnected_gap_zero(self):
        g = Graph.from_edges(4, [[0, 1], [2, 3]])
        est = estimate_spectrum(assemble_laplacian(scalar_sheaf(g)))
        assert est.lambda2 == pytest.approx(0.0, abs=1e-9)

    def test_blockwise_constant_basis_orthonormal(self):
        U = blockwise_constant_basis(5, 3)
        np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-12)

    def test_lanczos_matches_dense_path(self, monkeypatch):
        g = erdos_renyi(25, 4.0, seed=12, ensure_connected=True)
        L = assemble_laplacian(random_sheaf(g, d_v=3, d_e=2, seed=12))
        with monkeypatch.context() as m:
            m.setattr(laplacian, "DENSE_CUTOFF", 10_000)
            dense = estimate_spectrum(L)
            dense_top = top_eigenvalue(L.to_bsr(), 0)
        with monkeypatch.context() as m:
            m.setattr(laplacian, "DENSE_CUTOFF", 0)
            lanc = estimate_spectrum(L, seed=3)
            lanc_top = top_eigenvalue(L.to_bsr(), 3)
        assert lanc.lambda2 == pytest.approx(dense.lambda2, rel=1e-6, abs=1e-8)
        assert lanc_top == pytest.approx(dense_top, rel=1e-4)
        assert lanc.residual2 <= 1e-6 * max(dense_top, 1.0)

    def test_v2_orthogonal_to_deflation_space(self):
        g = erdos_renyi(10, 3.0, seed=13, ensure_connected=True)
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=2, seed=13))
        est = estimate_spectrum(L)
        U = blockwise_constant_basis(L.n, L.d_v)
        assert np.abs(U.T @ est.v2).max() < 1e-8


def stalled_eigsh(A, k, **kwargs):
    """An eigsh that gives up at once, as ARPACK does at its restart cap."""
    raise ArpackNoConvergence("No convergence (7 iterations, "
                              f"0/{k} eigenvectors converged)",
                              np.zeros(0), np.zeros((A.shape[0], 0)))


def stall_low_end(monkeypatch, times=None) -> list:
    """Make the first `times` low-end eigsh calls (all when None) stall.

    Returns the growing list of (which, k) of every eigsh call.
    """
    calls = []

    def patched(A, k, **kwargs):
        calls.append((kwargs["which"], k))
        low = [c for c in calls if c[0] == "SA"]
        if kwargs["which"] == "SA" and (times is None or len(low) <= times):
            return stalled_eigsh(A, k, **kwargs)
        return eigsh(A, k, **kwargs)

    monkeypatch.setattr(laplacian, "eigsh", patched)
    return calls


class TestSparsifier:
    def test_leverage_matches_effective_resistance_on_complete_graph(self):
        n = 5
        g = Graph.from_edges(n, [[i, j] for i in range(n) for j in range(i + 1, n)])
        B = scalar_sheaf(g)
        tau = _edge_leverage_dense(assemble_laplacian(B), B)
        np.testing.assert_allclose(tau, np.full(g.m, 2.0 / n), atol=1e-10)

    def test_leverage_sums_to_rank(self):
        g = erdos_renyi(15, 5.0, seed=14, ensure_connected=True)
        B = scalar_sheaf(g)
        tau = _edge_leverage_dense(assemble_laplacian(B), B)
        assert tau.sum() == pytest.approx(g.n - 1, rel=1e-8)

    def test_sketched_leverage_tracks_dense(self, monkeypatch):
        n = 20
        g = Graph.from_edges(n, [[i, j] for i in range(n) for j in range(i + 1, n)])
        B = scalar_sheaf(g)
        L = assemble_laplacian(B)
        exact = _edge_leverage_dense(L, B)
        from otsheaf.laplacian import _edge_leverage_sketched
        monkeypatch.setattr(laplacian, "LEVERAGE_PROBES", 200)
        est = _edge_leverage_sketched(L, B, 0)
        assert np.abs(est / exact - 1.0).max() < 0.45

    def test_below_target_returns_unchanged(self):
        g = Graph.from_edges(30, [[0, i] for i in range(1, 30)])  # star
        B = scalar_sheaf(g)
        out = sparsify(B, 0.3, 0)
        L = assemble_laplacian(B)
        assert out.m == L.m
        assert np.array_equal(out.edges, L.edges)
        assert np.array_equal(out.diag, L.diag)
        assert np.array_equal(out.off, L.off)

    def test_sampling_preserves_quadratic_forms(self):
        n = 60
        g = Graph.from_edges(n, [[i, j] for i in range(n) for j in range(i + 1, n)])
        B = scalar_sheaf(g)
        L = assemble_laplacian(B)
        eps = 0.5
        out = sparsify(B, eps, 1)
        assert out is not L and out.m < L.m
        rng = np.random.default_rng(2)
        ok = 0
        for _ in range(500):
            x = rng.normal(size=L.N)
            qf = x @ L.matvec(x)
            qf_s = x @ out.matvec(x)
            ok += (1 - eps) * qf <= qf_s <= (1 + eps) * qf
        assert ok >= 495

    def test_rejects_eps_out_of_range(self):
        g = Graph.from_edges(3, [[0, 1]])
        with pytest.raises(ValueError):
            sparsify(scalar_sheaf(g), 1.5, 0)


class TestReassembly:
    def test_unperturbed_roundtrip(self):
        # off-diagonal products are gauge-invariant and must be reproduced;
        # diagonal blocks are recomputed from the new maps' own gauge
        g = erdos_renyi(8, 3.0, seed=15)
        B = random_sheaf(g, d_v=4, d_e=2, seed=15)
        L = assemble_laplacian(B)
        rec = reassemble_restrictions(L, B)
        L2 = assemble_laplacian(rec)
        np.testing.assert_allclose(L2.off, L.off, atol=1e-8)
        assert np.all(np.linalg.eigvalsh(L2.to_dense()) >= -1e-10)

    def test_truncation_is_best_rank_de_approximation(self):
        # perturb one off block; recovered product must equal its SVD truncation
        g = Graph.from_edges(2, [[0, 1]])
        B = random_sheaf(g, d_v=4, d_e=2, seed=16)
        L = assemble_laplacian(B)
        rng = np.random.default_rng(3)
        L.off[0] += 0.05 * rng.normal(size=(4, 4))
        L._bsr = None
        rec = reassemble_restrictions(L, B)
        product = rec.Rij[0].T @ rec.Rji[0]
        U, s, Vt = np.linalg.svd(-L.off[0])
        best = (U[:, :2] * s[:2]) @ Vt[:2]
        np.testing.assert_allclose(product, best, atol=1e-10)

    def test_rank_deficient_block_falls_back(self, caplog):
        g = Graph.from_edges(2, [[0, 1]])
        B = random_sheaf(g, d_v=3, d_e=1, seed=17)
        L = assemble_laplacian(B)
        L.off[0] = np.zeros((3, 3))
        L._bsr = None
        with caplog.at_level(logging.WARNING, logger="otsheaf.laplacian"):
            rec = reassemble_restrictions(L, B)
        np.testing.assert_array_equal(rec.Rij[0], B.Rij[0])
        assert "rank-deficient" in caplog.text


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestRangeGap:
    """normalized_range_gap against closed forms, the deflated estimate and
    the generalized eigenproblem, and the block schedule of its ARPACK
    path."""

    def test_connected_scalar_agrees_with_deflated_estimate(self):
        # on a 2-regular scalar sheaf S = I/sqrt(2), so S L S = L/2
        L = assemble_laplacian(scalar_sheaf(cycle_graph(12)))
        assert normalized_range_gap(L).lambda2 == pytest.approx(
            estimate_spectrum(L).lambda2 / 2.0, rel=1e-9)

    def test_iterative_path_on_large_cycle(self, monkeypatch):
        monkeypatch.setattr(laplacian, "DENSE_CUTOFF", 0)
        n = 90
        L = assemble_laplacian(scalar_sheaf(cycle_graph(n)))
        est = normalized_range_gap(L, seed=1)
        assert est.converged
        assert est.lambda2 == pytest.approx(1.0 - np.cos(2 * np.pi / n),
                                            rel=1e-8)

    def test_eigenpair_residual(self):
        # v2 = S u for the eigenvector u of S L S: S (L - lambda2 D) v2 = 0
        g = erdos_renyi(10, 3.0, seed=5)
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=1, seed=5))
        est = normalized_range_gap(L)
        v2 = est.v2
        assert np.linalg.norm(v2) == pytest.approx(1.0, abs=1e-12)
        S = block_diag(*isqrt_blocks(Var(L.diag), L).value)
        SD = S @ block_diag(*L.diag)
        res = np.linalg.norm(S @ L.matvec(v2) - est.lambda2 * (SD @ v2))
        assert res <= 1e-8 * np.linalg.norm(SD @ v2)

    def test_budget_checkpoints_grow_one_run(self, monkeypatch, caplog):
        # every low-end ARPACK call stalled: the block doubles from
        # ARPACK_K0 to ARPACK_MAX_K and no call at the top is made; one
        # WARNING, and the estimate says it did not converge.  lambda_max
        # of the same operator costs a caller one top_eigenvalue call
        monkeypatch.setattr(laplacian, "DENSE_CUTOFF", 0)
        L = large_kernel_operator()
        calls = stall_low_end(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="otsheaf.laplacian"):
            est = normalized_range_gap(L)
        low = [("SA", 16), ("SA", 32), ("SA", 64), ("SA", 128)]
        assert calls == low
        A, _, _ = _compressed_normalized(L)
        top = top_eigenvalue(A, 0)
        assert calls == low + [("LA", 1)]
        assert top == pytest.approx(np.linalg.eigvalsh(A.toarray())[-1],
                                    rel=1e-4)
        assert not est.converged
        records = [r.getMessage() for r in caplog.records]
        assert len(records) == 1
        assert "ARPACK stalled at k=128 (dim A=314)" in records[0]

    def test_zero_operator_reports_degenerate(self, monkeypatch, caplog):
        # all restriction maps zero: S = 0, nothing reaches a solver; one
        # warning, and zero directions of the full dimension N
        monkeypatch.setattr(laplacian, "DENSE_CUTOFF", 0)
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        B = SheafIncidence(n=3, edges=g.edges,
                           Rij=np.zeros((2, 2, 2)), Rji=np.zeros((2, 2, 2)))
        L = assemble_laplacian(B)
        with caplog.at_level(logging.WARNING, logger="otsheaf.laplacian"):
            est = normalized_range_gap(L)
        assert est.lambda2 == 0.0
        assert not est.converged
        records = [r.getMessage() for r in caplog.records]
        assert len(records) == 1
        assert "null" in records[0]
        assert est.v2.shape == est.v3.shape == (L.N,)
        assert not est.v2.any() and not est.v3.any()


def large_kernel_operator() -> SheafLaplacian:
    """d_e < d_v: nodes of degree 1 have rank-deficient diagonal blocks.

    N = 320 and dim A = 314, so null(S) has dimension 6.
    """
    return assemble_laplacian(random_sheaf(erdos_renyi(80, 4.0, seed=3),
                                           d_v=4, d_e=2, seed=6))


def exact_kernel_operator() -> SheafLaplacian:
    """Sparse graph with d_e < d_v: m * d_e < dim A = 254, so the compressed
    operator keeps an exact kernel (34 eigenvalues under 1e-10)."""
    return assemble_laplacian(random_sheaf(erdos_renyi(70, 3.0, seed=3),
                                           d_v=4, d_e=2, seed=6))


class TestNormalizedRangeGap:
    def test_scalar_complete_graph(self):
        # normalized connectivity of K_n is n/(n-1)
        n = 5
        g = Graph.from_edges(n, [(i, j) for i in range(n)
                                 for j in range(i + 1, n)])
        L = assemble_laplacian(scalar_sheaf(g))
        est = normalized_range_gap(L)
        assert est.lambda2 == pytest.approx(n / (n - 1), rel=1e-10)

    def test_matches_dense_normalized_oracle(self):
        g = erdos_renyi(12, 4.0, seed=9)
        L = assemble_laplacian(random_sheaf(g, d_v=3, d_e=1, seed=9))
        SLS = dense_sls(L)
        w = np.linalg.eigvalsh(0.5 * (SLS + SLS.T))
        oracle = w[w > 1e-3][0]
        est = normalized_range_gap(L)
        assert est.converged
        assert est.lambda2 == pytest.approx(oracle, rel=1e-8)

    def test_direction_mapped_back_is_unit(self):
        g = erdos_renyi(9, 3.0, seed=4)
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=2, seed=4))
        est = normalized_range_gap(L)
        assert np.linalg.norm(est.v2) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(est.v3) == pytest.approx(1.0, abs=1e-12)

    def test_iterative_path_matches_dense(self, monkeypatch):
        monkeypatch.setattr(laplacian, "DENSE_CUTOFF", 0)
        L = large_kernel_operator()
        A, _, _ = _compressed_normalized(L)
        assert 200 < A.shape[0] < L.N
        SLS = dense_sls(L)
        w = np.linalg.eigvalsh(0.5 * (SLS + SLS.T))
        oracle = w[w > 1e-3][0]
        est = normalized_range_gap(L, seed=3)
        assert est.converged
        assert est.lambda2 == pytest.approx(oracle, rel=1e-8)

    def test_compressed_operator_spectrum(self):
        L = large_kernel_operator()
        A, _, kept = _compressed_normalized(L)
        Ad = A.toarray()
        r = kept.sum(axis=1)
        starts = np.concatenate([[0], np.cumsum(r)])
        for i in range(L.n):
            blk = slice(starts[i], starts[i + 1])
            np.testing.assert_allclose(Ad[blk, blk], np.eye(r[i]), atol=1e-12)
        SLS = dense_sls(L)
        w_full = np.linalg.eigvalsh(0.5 * (SLS + SLS.T))
        w_A = np.linalg.eigvalsh(Ad)
        # the structural zeros of null(S) are the N - dim A lowest
        np.testing.assert_allclose(w_full[:L.N - A.shape[0]], 0.0, atol=1e-10)
        np.testing.assert_allclose(w_full[L.N - A.shape[0]:], w_A, atol=1e-10)

    def test_exact_kernel_of_compressed_operator(self, monkeypatch):
        # more exact zeros than ARPACK's first block of 16 pairs: the block
        # doubles past them
        monkeypatch.setattr(laplacian, "DENSE_CUTOFF", 0)
        L = exact_kernel_operator()
        A, _, _ = _compressed_normalized(L)
        w = np.linalg.eigvalsh(A.toarray())
        assert np.count_nonzero(np.abs(w) < 1e-10) > 16
        est = normalized_range_gap(L, seed=1)
        assert est.converged
        assert est.lambda2 == pytest.approx(w[w > 1e-3][0], rel=1e-8)

    def test_seeded_start_is_deterministic(self, monkeypatch):
        # ARPACK's own start and restart vectors come from an RNG that
        # persists across calls; the seeded estimate must not depend on it
        monkeypatch.setattr(laplacian, "DENSE_CUTOFF", 0)
        L = exact_kernel_operator()
        first = normalized_range_gap(L, seed=4)
        other = assemble_laplacian(random_sheaf(cycle_graph(90), d_v=3,
                                                d_e=2, seed=1)).to_bsr()
        eigsh(other, k=3, which="SA")
        second = normalized_range_gap(L, seed=4)
        assert first.lambda2 == second.lambda2
        assert np.array_equal(first.v2, second.v2)

    def test_arpack_stall_falls_back_to_lanczos(self, monkeypatch, caplog):
        # the first block stalls: the estimate doubles it and converges to
        # the same pair with no call at the top, leaving one DEBUG record
        # and no warning
        monkeypatch.setattr(laplacian, "DENSE_CUTOFF", 0)
        L = large_kernel_operator()
        exact = normalized_range_gap(L, seed=3)
        calls = stall_low_end(monkeypatch, times=1)
        with caplog.at_level(logging.DEBUG, logger="otsheaf.laplacian"):
            est = normalized_range_gap(L, seed=3)
        assert calls == [("SA", 16), ("SA", 32)]
        top_eigenvalue(_compressed_normalized(L)[0], 3)
        assert calls == [("SA", 16), ("SA", 32), ("LA", 1)]
        assert est.converged
        assert est.lambda2 == pytest.approx(exact.lambda2, rel=1e-8)
        records = caplog.records
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        message = records[0].getMessage()
        assert "range-gap estimate" in message
        assert "7 iterations" in message
        assert "k=16, dim A=314" in message

    def test_unconverged_fallback_warns_once(self, monkeypatch, caplog):
        # ARPACK stalls at every block: one warning, and the estimate says so
        monkeypatch.setattr(laplacian, "DENSE_CUTOFF", 0)
        L = large_kernel_operator()
        stall_low_end(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="otsheaf.laplacian"):
            est = normalized_range_gap(L)
        assert not est.converged
        records = [r.getMessage() for r in caplog.records]
        assert len(records) == 1
        assert "ARPACK stalled at k=128 (dim A=314)" in records[0]

    def test_zero_operator_reports_degenerate(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        B = SheafIncidence(n=3, edges=g.edges,
                           Rij=np.zeros((2, 2, 2)), Rji=np.zeros((2, 2, 2)))
        est = normalized_range_gap(assemble_laplacian(B))
        assert est.lambda2 == 0.0
        assert not est.converged
