import logging

import numpy as np
import pytest

from otsheaf.graphs import Graph, erdos_renyi
from otsheaf.laplacian import (
    SheafIncidence,
    SparsifierConfig,
    _edge_leverage_dense,
    assemble_laplacian,
    blockwise_constant_basis,
    estimate_range_gap,
    estimate_spectrum,
    normalized_laplacian,
    normalized_range_gap,
    reassemble_restrictions,
    sparsify,
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


def combinatorial_laplacian(g: Graph) -> np.ndarray:
    A = np.zeros((g.n, g.n))
    A[g.edges[:, 0], g.edges[:, 1]] = 1.0
    A[g.edges[:, 1], g.edges[:, 0]] = 1.0
    return np.diag(A.sum(axis=1)) - A


class TestAssembly:
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


class TestNormalized:
    def test_scalar_single_edge(self):
        g = Graph.from_edges(2, [[0, 1]])
        op = normalized_laplacian(assemble_laplacian(scalar_sheaf(g)))
        np.testing.assert_allclose(op.to_dense(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_isolated_node_identity_contribution(self):
        g = Graph.from_edges(3, [[0, 1]])  # node 2 isolated
        op = normalized_laplacian(assemble_laplacian(scalar_sheaf(g)))
        dense = op.to_dense()
        assert dense[2, 2] == pytest.approx(1.0)

    def test_matvec_matches_dense(self):
        g = erdos_renyi(7, 3.0, seed=9)
        op = normalized_laplacian(assemble_laplacian(random_sheaf(g, 3, 2, seed=9)))
        x = np.random.default_rng(2).normal(size=op.N)
        np.testing.assert_allclose(op.matvec(x), op.to_dense() @ x, atol=1e-10)

    def test_scalar_spectrum_in_unit_band(self):
        g = erdos_renyi(20, 4.0, seed=10, ensure_connected=True)
        op = normalized_laplacian(assemble_laplacian(scalar_sheaf(g)))
        w = np.linalg.eigvalsh(op.to_dense())
        assert w.min() >= -1.0 - 1e-10 and w.max() <= 1.0 + 1e-10

    def test_lambda_max_close_to_dense(self):
        g = erdos_renyi(12, 4.0, seed=11)
        op = normalized_laplacian(assemble_laplacian(random_sheaf(g, 2, 2, seed=11)))
        dense_lmax = np.abs(np.linalg.eigvalsh(op.to_dense())).max()
        assert op.lambda_max(iters=200) == pytest.approx(dense_lmax, rel=1e-3)


class TestSpectrum:
    def test_path_two_nodes(self):
        g = Graph.from_edges(2, [[0, 1]])
        est = estimate_spectrum(assemble_laplacian(scalar_sheaf(g)))
        assert est.lambda2 == pytest.approx(2.0, abs=1e-9)
        assert est.lambda_max == pytest.approx(2.0, abs=1e-9)

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

    def test_lanczos_matches_dense_path(self):
        g = erdos_renyi(25, 4.0, seed=12, ensure_connected=True)
        L = assemble_laplacian(random_sheaf(g, d_v=3, d_e=2, seed=12))
        dense = estimate_spectrum(L, dense_cutoff=10_000)
        lanc = estimate_spectrum(L, dense_cutoff=0, seed=3)
        assert lanc.lambda2 == pytest.approx(dense.lambda2, rel=1e-6, abs=1e-8)
        assert lanc.lambda_max == pytest.approx(dense.lambda_max, rel=1e-4)
        assert lanc.residual2 <= 1e-6 * max(dense.lambda_max, 1.0)

    def test_v2_orthogonal_to_deflation_space(self):
        g = erdos_renyi(10, 3.0, seed=13, ensure_connected=True)
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=2, seed=13))
        est = estimate_spectrum(L)
        U = blockwise_constant_basis(L.n, L.d_v)
        assert np.abs(U.T @ est.v2).max() < 1e-8


class TestSparsifier:
    def test_leverage_matches_effective_resistance_on_complete_graph(self):
        n = 5
        g = Graph.from_edges(n, [[i, j] for i in range(n) for j in range(i + 1, n)])
        L = assemble_laplacian(scalar_sheaf(g))
        tau = _edge_leverage_dense(L, L.restrictions)
        np.testing.assert_allclose(tau, np.full(g.m, 2.0 / n), atol=1e-10)

    def test_leverage_sums_to_rank(self):
        g = erdos_renyi(15, 5.0, seed=14, ensure_connected=True)
        L = assemble_laplacian(scalar_sheaf(g))
        tau = _edge_leverage_dense(L, L.restrictions)
        assert tau.sum() == pytest.approx(g.n - 1, rel=1e-8)

    def test_sketched_leverage_tracks_dense(self):
        n = 20
        g = Graph.from_edges(n, [[i, j] for i in range(n) for j in range(i + 1, n)])
        L = assemble_laplacian(scalar_sheaf(g))
        B = L.restrictions
        exact = _edge_leverage_dense(L, B)
        from otsheaf.laplacian import _edge_leverage_sketched
        est = _edge_leverage_sketched(L, B, SparsifierConfig(probes=200, seed=0))
        assert np.abs(est / exact - 1.0).max() < 0.45

    def test_below_target_returns_unchanged(self):
        g = Graph.from_edges(30, [[0, i] for i in range(1, 30)])  # star
        L = assemble_laplacian(scalar_sheaf(g))
        out = sparsify(L, SparsifierConfig(eps=0.3))
        assert out is L

    def test_sampling_preserves_quadratic_forms(self):
        n = 60
        g = Graph.from_edges(n, [[i, j] for i in range(n) for j in range(i + 1, n)])
        L = assemble_laplacian(scalar_sheaf(g))
        cfg = SparsifierConfig(eps=0.5, seed=1, sample_scale=1.0)
        out = sparsify(L, cfg)
        assert out is not L and out.m < L.m
        rng = np.random.default_rng(2)
        ok = 0
        for _ in range(500):
            x = rng.normal(size=L.N)
            qf = x @ L.matvec(x)
            qf_s = x @ out.matvec(x)
            ok += (1 - cfg.eps) * qf <= qf_s <= (1 + cfg.eps) * qf
        assert ok >= 495

    def test_rejects_eps_out_of_range(self):
        g = Graph.from_edges(3, [[0, 1]])
        L = assemble_laplacian(scalar_sheaf(g))
        with pytest.raises(ValueError):
            sparsify(L, SparsifierConfig(eps=1.5))


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
        L._csr = None
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
        L._csr = None
        with caplog.at_level(logging.WARNING, logger="otsheaf.laplacian"):
            rec = reassemble_restrictions(L, B)
        np.testing.assert_array_equal(rec.Rij[0], B.Rij[0])
        assert "rank-deficient" in caplog.text


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestRangeGap:
    def test_matches_dense_oracle_with_exact_kernel(self):
        # d_e < d_v leaves a kernel far larger than the constants
        g = erdos_renyi(14, 4.0, seed=3)
        L = assemble_laplacian(random_sheaf(g, d_v=3, d_e=1, seed=7))
        w = np.linalg.eigvalsh(L.to_dense())
        oracle = w[w > w[-1] * 1e-8][0]
        est = estimate_range_gap(L)
        assert est.converged
        assert est.lambda2 == pytest.approx(oracle, rel=1e-8)

    def test_connected_scalar_agrees_with_deflated_estimate(self):
        # for a connected scalar sheaf the kernel is exactly the constants
        g = cycle_graph(12)
        L = assemble_laplacian(scalar_sheaf(g))
        assert estimate_range_gap(L).lambda2 == pytest.approx(
            estimate_spectrum(L).lambda2, rel=1e-9)

    def test_iterative_path_on_large_cycle(self):
        n = 240
        L = assemble_laplacian(scalar_sheaf(cycle_graph(n)))
        est = estimate_range_gap(L, seed=1)
        assert est.lambda2 == pytest.approx(2.0 * (1.0 - np.cos(2 * np.pi / n)),
                                            rel=1e-5)

    def test_iterative_path_with_large_kernel(self):
        g = cycle_graph(120)
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=1, seed=11))
        w = np.linalg.eigvalsh(L.to_dense())
        oracle = w[w > w[-1] * 1e-8][0]
        est = estimate_range_gap(L, seed=2)
        assert est.lambda2 == pytest.approx(oracle, rel=1e-5)

    def test_eigenpair_residual(self):
        g = erdos_renyi(10, 3.0, seed=5)
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=1, seed=5))
        est = estimate_range_gap(L)
        assert np.linalg.norm(est.v2) == pytest.approx(1.0, abs=1e-12)
        res = np.linalg.norm(L.matvec(est.v2) - est.lambda2 * est.v2)
        assert res <= 1e-6 * max(est.lambda_max, 1.0)

    def test_zero_operator_reports_degenerate(self, caplog):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        B = SheafIncidence(n=3, edges=g.edges,
                           Rij=np.zeros((2, 2, 2)), Rji=np.zeros((2, 2, 2)))
        L = assemble_laplacian(B)
        with caplog.at_level(logging.WARNING, logger="otsheaf.laplacian"):
            est = estimate_range_gap(L)
        assert est.lambda2 == 0.0
        assert not est.converged
        assert "null" in caplog.text


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
        SLS = np.eye(L.N) - normalized_laplacian(L).to_dense()
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

    def test_iterative_path_matches_dense(self):
        g = cycle_graph(110)
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=1, seed=6))
        SLS = np.eye(L.N) - normalized_laplacian(L).to_dense()
        w = np.linalg.eigvalsh(0.5 * (SLS + SLS.T))
        oracle = w[w > 1e-3][0]
        est = normalized_range_gap(L, seed=3)
        assert est.lambda2 == pytest.approx(oracle, rel=1e-5)

    def test_zero_operator_reports_degenerate(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        B = SheafIncidence(n=3, edges=g.edges,
                           Rij=np.zeros((2, 2, 2)), Rji=np.zeros((2, 2, 2)))
        est = normalized_range_gap(assemble_laplacian(B))
        assert est.lambda2 == 0.0
        assert not est.converged
