import logging

import numpy as np
import pytest
from scipy.linalg import null_space

from otsheaf.graphs import Graph, erdos_renyi
from otsheaf.laplacian import assemble_laplacian, blockwise_constant_basis, pattern_matvec
from otsheaf.spectral import (
    GapState,
    WolfeConfig,
    gap_gradient,
    project,
    rayleigh_lambda2,
    run_gap_ascent,
    spec_penalty,
    wolfe_ascent_step,
)

from test_laplacian import random_sheaf, scalar_sheaf


def dense_deflated_min(L, k=1):
    """Oracle: eigenvalues of L restricted to the deflation complement."""
    U = blockwise_constant_basis(L.n, L.d_v)
    Q = null_space(U.T)
    w = np.linalg.eigvalsh(Q.T @ L.to_dense() @ Q)
    return w[:k]


def single_edge_laplacian():
    g = Graph.from_edges(2, [(0, 1)])
    return assemble_laplacian(scalar_sheaf(g))


class TestRayleighLambda2:
    def test_single_edge(self):
        lam, v = rayleigh_lambda2(single_edge_laplacian())
        assert lam == pytest.approx(2.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_disconnected_gap_zero(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        lam, _ = rayleigh_lambda2(assemble_laplacian(scalar_sheaf(g)))
        assert abs(lam) < 1e-8

    def test_matches_dense_oracle_on_sheaf(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                 (0, 3), (1, 4)])
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=1, seed=3))
        lam, _ = rayleigh_lambda2(L)
        assert lam == pytest.approx(dense_deflated_min(L)[0], abs=1e-8)


class TestGapGradient:
    def test_basis_vector_hits_one_diagonal(self):
        L = single_edge_laplacian()
        g = gap_gradient(L, np.array([1.0, 0.0]))
        assert g.diag[0, 0, 0] == 1.0
        assert g.diag[1, 0, 0] == 0.0
        assert np.all(g.off == 0.0)

    def test_uniform_vector_on_edge(self):
        L = single_edge_laplacian()
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        g = gap_gradient(L, v)
        assert np.allclose(g.diag, 0.5)
        assert np.allclose(g.off, 0.5)
        assert g.directional == pytest.approx(1.0)

    def test_trace_equals_one(self):
        g_graph = erdos_renyi(12, 3.0, seed=1)
        L = assemble_laplacian(random_sheaf(g_graph, d_v=2, d_e=1, seed=0))
        _, v = rayleigh_lambda2(L)
        g = gap_gradient(L, v)
        assert np.einsum("iaa->", g.diag) == pytest.approx(1.0)

    def test_directional_is_restricted_frobenius_squared(self):
        g_graph = erdos_renyi(10, 3.0, seed=2)
        L = assemble_laplacian(random_sheaf(g_graph, d_v=2, d_e=2, seed=5))
        _, v = rayleigh_lambda2(L)
        g = gap_gradient(L, v)
        assert g.directional == pytest.approx(g.frobenius_norm() ** 2)
        assert g.directional > 0

    def test_pattern_matvec_matches_dense(self):
        g_graph = erdos_renyi(8, 3.0, seed=3)
        L = assemble_laplacian(random_sheaf(g_graph, d_v=2, d_e=1, seed=1))
        rng = np.random.default_rng(0)
        v = rng.standard_normal(L.n * L.d_v)
        v /= np.linalg.norm(v)
        g = gap_gradient(L, v)
        # rebuild the dense restricted outer product from the blocks
        N = L.n * L.d_v
        G = np.zeros((N, N))
        dv = L.d_v
        for i in range(L.n):
            G[i * dv:(i + 1) * dv, i * dv:(i + 1) * dv] = g.diag[i]
        for e, (i, j) in enumerate(map(tuple, L.edges)):
            G[i * dv:(i + 1) * dv, j * dv:(j + 1) * dv] = g.off[e]
            G[j * dv:(j + 1) * dv, i * dv:(i + 1) * dv] = g.off[e].T
        x = rng.standard_normal(N)
        assert np.allclose(pattern_matvec(L.edges, g.diag, g.off, x), G @ x)

    def test_degenerate_average(self):
        L = assemble_laplacian(scalar_sheaf(Graph.from_edges(
            4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])))
        from otsheaf.laplacian import estimate_spectrum
        est = estimate_spectrum(L)
        g = gap_gradient(L, est.v2, est.v3)
        assert g.directional > 0
        assert np.allclose(g.diag, g.diag.transpose(0, 2, 1))


class TestProject:
    def test_valid_input_unchanged(self):
        g_graph = erdos_renyi(8, 3.0, seed=4)
        L = assemble_laplacian(random_sheaf(g_graph, d_v=2, d_e=1, seed=2))
        out = project(L)
        assert np.allclose(out.diag, L.diag, atol=1e-12)
        assert np.allclose(out.off, L.off, atol=1e-12)

    def test_negative_mode_repaired_in_pattern(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        L = assemble_laplacian(scalar_sheaf(g))
        L.diag = L.diag - 0.3 * np.eye(1)[None]
        L._csr = None
        assert np.linalg.eigvalsh(L.to_dense())[0] < -0.2
        out = project(L)
        dense = out.to_dense()
        assert np.linalg.eigvalsh(dense)[0] >= -1e-8
        assert dense[0, 2] == 0.0  # absent edge stays absent
        assert np.allclose(dense, dense.T)

    def test_symmetrizes_diag_blocks(self):
        g_graph = erdos_renyi(6, 2.5, seed=5)
        L = assemble_laplacian(random_sheaf(g_graph, d_v=2, d_e=1, seed=3))
        L.diag[0] += np.array([[0.0, 0.2], [0.0, 0.0]])
        L._csr = None
        out = project(L)
        assert np.allclose(out.diag, out.diag.transpose(0, 2, 1))

    def test_idempotent(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        L = assemble_laplacian(scalar_sheaf(g))
        L.diag = L.diag - 0.5 * np.eye(1)[None]
        L._csr = None
        once = project(L)
        twice = project(once)
        assert np.allclose(once.diag, twice.diag, atol=1e-10)
        assert np.allclose(once.off, twice.off, atol=1e-10)

    def test_iterative_path_agrees(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        L = assemble_laplacian(scalar_sheaf(g))
        L.diag = L.diag - 0.4 * np.eye(1)[None]
        L._csr = None
        out = project(L, dense_cutoff=1)  # force the sparse eigensolver
        assert np.linalg.eigvalsh(out.to_dense())[0] >= -1e-8


class TestWolfeStep:
    def test_zero_gradient_is_noop(self):
        L = single_edge_laplacian()
        g = gap_gradient(L, np.array([1.0, 0.0]) * 0.0)
        out, eta, accepted = wolfe_ascent_step(L, g, WolfeConfig())
        assert out is L and eta == 0.0 and not accepted

    def test_single_edge_strict_increase(self):
        L = single_edge_laplacian()
        lam0, v = rayleigh_lambda2(L)
        g = gap_gradient(L, v)
        out, eta, accepted = wolfe_ascent_step(L, g, WolfeConfig(), lambda2=lam0)
        assert accepted and eta > 0
        lam1, _ = rayleigh_lambda2(out)
        # closed form: the non-trivial eigenvalue moves from 2 to 2 + eta
        assert lam1 == pytest.approx(2.0 + eta)
        assert lam1 > lam0

    def test_trust_region_caps_step(self):
        L = single_edge_laplacian()
        lam0, v = rayleigh_lambda2(L)
        g = gap_gradient(L, v)
        cfg = WolfeConfig(trust_region=0.05)
        _, eta, accepted = wolfe_ascent_step(L, g, cfg, lambda2=lam0)
        Lnorm = np.sqrt((L.diag ** 2).sum() + 2 * (L.off ** 2).sum())
        assert accepted
        assert eta * g.frobenius_norm() <= 0.05 * Lnorm + 1e-12

    def test_saturated_objective_rejected_honestly(self):
        # complete-graph connectivity is already extremal: boosting the two
        # lowest non-trivial modes cannot lift the third, so every
        # backtracked step fails the sufficient-increase test
        K4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                  (2, 3)])
        L = assemble_laplacian(scalar_sheaf(K4))
        from otsheaf.laplacian import estimate_spectrum
        est = estimate_spectrum(L)
        g = gap_gradient(L, est.v2, est.v3)
        out, eta, accepted = wolfe_ascent_step(L, g, WolfeConfig(),
                                               lambda2=est.lambda2)
        assert not accepted and eta == 0.0 and out is L

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WolfeConfig(c_w=1.5)


class TestGapAscentLoop:
    def test_history_monotone_on_random_sheaf(self):
        g_graph = erdos_renyi(8, 3.0, seed=7, ensure_connected=True)
        L = assemble_laplacian(random_sheaf(g_graph, d_v=2, d_e=1, seed=4))
        _, state = run_gap_ascent(L, WolfeConfig(), steps=15)
        h = state.lambda2_history
        assert len(h) == 16
        assert all(b >= a - 1e-8 for a, b in zip(h, h[1:]))
        assert state.delta_G == pytest.approx(h[-1] - h[0])

    def test_single_edge_makes_progress(self):
        L = single_edge_laplacian()
        _, state = run_gap_ascent(L, WolfeConfig(), steps=5)
        assert state.delta_G > 0.5

    def test_default_steps_from_config(self):
        L = single_edge_laplacian()
        _, state = run_gap_ascent(L, WolfeConfig(inner_steps=3))
        assert len(state.lambda2_history) == 4


class TestSpecPenalty:
    def test_arithmetic(self):
        assert spec_penalty(0.0, 2.0) == 0.0
        assert spec_penalty(1.0, 2.0) == 0.5

    def test_monotone_in_lambda2(self):
        assert spec_penalty(1.0, 4.0) < spec_penalty(1.0, 2.0)

    def test_floor_flags_degenerate(self, caplog):
        with caplog.at_level(logging.WARNING, logger="otsheaf.spectral"):
            val = spec_penalty(1.0, 0.0)
        assert val == pytest.approx(1e8)
        assert "floor" in caplog.text


class TestGapState:
    def test_empty_delta_zero(self):
        assert GapState().delta_G == 0.0

    def test_record_tracks_vector(self):
        s = GapState()
        s.record(1.0, np.array([1.0, 0.0]))
        s.record(1.5, np.array([0.0, 1.0]))
        assert s.delta_G == pytest.approx(0.5)
        assert np.allclose(s.v2, [0.0, 1.0])


class TestAscentWithRangeEstimator:
    def test_history_monotone_on_rank_deficient_sheaf(self):
        # swapping the connectivity notion keeps acceptance sound: the
        # recorded series is the injected estimator's lambda2
        from otsheaf.laplacian import normalized_range_gap

        g = erdos_renyi(10, 3.5, seed=2)
        L = assemble_laplacian(random_sheaf(g, d_v=3, d_e=1, seed=2))
        L2, state = run_gap_ascent(L, steps=4, seed=0,
                                   estimator=normalized_range_gap)
        hist = state.lambda2_history
        assert len(hist) == 5
        assert all(b >= a - 1e-8 for a, b in zip(hist, hist[1:]))
        assert hist[0] == pytest.approx(normalized_range_gap(L, seed=0).lambda2)
        assert hist[-1] == pytest.approx(
            normalized_range_gap(L2, seed=0).lambda2)
