import numpy as np
import pytest

from otsheaf.autodiff import Var
from otsheaf.diffusion import (
    CGConfig,
    cg_solve,
    chebyshev_apply,
    chebyshev_weights,
    fuse,
    jacobi_block_preconditioner,
    predict,
    svr_diffuse,
)
from otsheaf.graphs import Graph, erdos_renyi
from otsheaf.laplacian import assemble_laplacian
from otsheaf.model import isqrt_blocks
from tests.test_laplacian import dense_sls, random_sheaf, scalar_sheaf


def _spd_system(seed, n=30):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.normal(size=n)
    return A, b


class TestCG:
    def test_solves_dense_spd(self):
        A, b = _spd_system(0)
        res = cg_solve(lambda v: A @ v, b, CGConfig(tol=1e-10, max_iter=1000))
        assert res.converged
        np.testing.assert_allclose(res.x, np.linalg.solve(A, b), atol=1e-8)

    def test_residual_definition(self):
        A, b = _spd_system(1)
        res = cg_solve(lambda v: A @ v, b, CGConfig(tol=1e-9, max_iter=1000))
        assert np.linalg.norm(b - A @ res.x) <= 1e-8

    def test_zero_rhs_returns_zero_in_zero_iterations(self):
        A, _ = _spd_system(2)
        res = cg_solve(lambda v: A @ v, np.zeros(30),
                       CGConfig(tol=1e-8, max_iter=1000))
        assert res.iterations == 0 and res.converged
        np.testing.assert_array_equal(res.x, np.zeros(30))

    def test_budget_exhaustion_flags_not_converged(self):
        A, b = _spd_system(4)
        res = cg_solve(lambda v: A @ v, b, CGConfig(tol=1e-14, max_iter=2))
        assert not res.converged and res.iterations == 2

    def test_identity_converges_in_one_iteration(self):
        b = np.random.default_rng(5).normal(size=20)
        res = cg_solve(lambda v: v, b, CGConfig(tol=1e-12, max_iter=1000))
        assert res.iterations == 1
        np.testing.assert_allclose(res.x, b, atol=1e-12)

    def test_preconditioning_reduces_iterations(self):
        rng = np.random.default_rng(6)
        d = 10.0 ** rng.uniform(-2, 2, size=80)
        A = np.diag(d)
        b = rng.normal(size=80)
        plain = cg_solve(lambda v: A @ v, b, CGConfig(tol=1e-10, max_iter=500))
        pre = cg_solve(lambda v: A @ v, b, CGConfig(tol=1e-10, max_iter=500),
                       precond=lambda r: r / d)
        assert pre.iterations < plain.iterations
        np.testing.assert_allclose(pre.x, b / d, atol=1e-7)

    def test_singular_consistent_system(self):
        # graph Laplacian with rhs in its range: CG still converges
        g = erdos_renyi(20, 4.0, seed=7, ensure_connected=True)
        L = assemble_laplacian(scalar_sheaf(g))
        rng = np.random.default_rng(8)
        y = rng.normal(size=20)
        b = L.matvec(y)
        res = cg_solve(L.matvec, b, CGConfig(tol=1e-9, max_iter=500))
        assert np.linalg.norm(L.matvec(res.x) - b) <= 1e-8


class TestSvrDiffuse:
    def _fixture(self, seed=0, n=12, d_v=3, d_e=2):
        g = erdos_renyi(n, 3.0, seed=seed, ensure_connected=True)
        return assemble_laplacian(random_sheaf(g, d_v, d_e, seed=seed))

    def test_matches_dense_solve(self):
        L = self._fixture()
        x = np.random.default_rng(1).normal(size=L.N)
        out, info = svr_diffuse(L, x, 0.1, CGConfig(tol=1e-11, max_iter=1000))
        dense = np.linalg.solve(np.eye(L.N) + 0.1 * L.to_dense(), x)
        assert info.converged
        np.testing.assert_allclose(out, dense, atol=1e-8)

    def test_nan_right_hand_side_reports_nan_residual(self):
        # the zero start is no solution of a NaN system: the residual says so
        L = self._fixture(seed=4)
        x = np.random.default_rng(4).normal(size=L.N)
        x[0] = np.nan
        _, info = svr_diffuse(L, x, 0.1, CGConfig(tol=1e-8, max_iter=1000))
        assert np.isnan(info.residual)
        assert not info.converged

    def test_dt_zero_is_identity(self):
        L = self._fixture(seed=2)
        X = np.random.default_rng(2).normal(size=(L.N,))
        out, info = svr_diffuse(L, X, 0.0, CGConfig(tol=1e-8, max_iter=1000))
        np.testing.assert_allclose(out, X, atol=1e-12)
        assert info.total_iterations <= 1

    def test_smoothing_reduces_dirichlet_energy(self):
        L = self._fixture(seed=3)
        X = np.random.default_rng(3).normal(size=(L.N,))
        out, _ = svr_diffuse(L, X, 0.5, CGConfig(tol=1e-10, max_iter=1000))
        assert out @ L.matvec(out) < X @ L.matvec(X)

    def test_jacobi_preconditioner_is_block_inverse(self):
        L = self._fixture(seed=5)
        pre = jacobi_block_preconditioner(L, dt=0.2)
        r = np.random.default_rng(5).normal(size=L.N)
        M = np.zeros((L.N, L.N))
        for i in range(L.n):
            sl = slice(i * L.d_v, (i + 1) * L.d_v)
            M[sl, sl] = np.eye(L.d_v) + 0.2 * L.diag[i]
        np.testing.assert_allclose(pre(r), np.linalg.solve(M, r), atol=1e-10)

    @pytest.mark.parametrize("tape_first", [False, True])
    def test_jacobi_preconditioner_matches_block_solves(self, tape_first):
        # d_e = 1 < d_v: the end nodes 0 and 3 have rank-one blocks, 1 and 2
        # rank two, and the isolated node 4 a zero block; with tape_first
        # the preconditioner reads the decomposition the tape's S made
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        L = assemble_laplacian(random_sheaf(g, d_v=3, d_e=1, seed=7))
        if tape_first:
            isqrt_blocks(Var(L.diag), L)
        ranks = np.linalg.matrix_rank(L.diag)
        assert list(ranks) == [1, 2, 2, 1, 0]
        dt = 0.3
        r = np.random.default_rng(7).normal(size=(L.n, L.d_v))
        out = jacobi_block_preconditioner(L, dt)(r.reshape(-1))
        out = out.reshape(L.n, L.d_v)
        ref = np.linalg.solve(np.eye(L.d_v) + dt * L.diag, r[:, :, None])[..., 0]
        err = np.linalg.norm(out - ref, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=1))
        np.testing.assert_array_equal(out[4], r[4])

    def test_jacobi_preconditioner_reads_the_cached_decomposition(self):
        # L.block_eigh() is kept from its first call: no block is factored
        # again, so blocks replaced after it leave the preconditioner the
        # inverse of I + dt D_i of the blocks it decomposed
        L = self._fixture(seed=6)
        D = L.diag
        L.block_eigh()
        L.diag = 2.0 * D
        r = np.random.default_rng(6).normal(size=(L.n, L.d_v))
        out = jacobi_block_preconditioner(L, dt=0.2)(r.reshape(-1))
        ref = np.linalg.solve(np.eye(L.d_v) + 0.2 * D, r[:, :, None])
        np.testing.assert_allclose(out, ref.reshape(-1), rtol=1e-12,
                                   atol=1e-14)

    def test_svr_diffuse_decomposes_the_blocks_once(self, monkeypatch):
        # two solves on one assembled L, as the forward and adjoint solves
        # of a layer are: one per-block eigh, on the first
        L = self._fixture(seed=8)
        calls = []
        real = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        X = np.random.default_rng(8).normal(size=(L.N,))
        cg = CGConfig(tol=1e-10, max_iter=1000)
        first, _ = svr_diffuse(L, X, 0.3, cg)
        again, _ = svr_diffuse(L, X, 0.3, cg)
        assert calls == [(L.n, L.d_v, L.d_v)]
        np.testing.assert_array_equal(first, again)


class TestChebyshev:
    def test_weights_form_simplex(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = chebyshev_weights(rng.normal(size=rng.integers(1, 8)))
            assert np.all(a > 0) and a.sum() == pytest.approx(1.0)

    def test_zero_logits_uniform(self):
        np.testing.assert_allclose(chebyshev_weights(np.zeros(4)), np.full(4, 0.25))

    def test_recurrence_matches_polynomial_oracle(self):
        # T_q on a symmetric matrix, evaluated through its eigendecomposition
        rng = np.random.default_rng(7)
        M = rng.normal(size=(9, 9))
        M = M + M.T
        M /= 1.05 * np.abs(np.linalg.eigvalsh(M)).max()
        X = rng.normal(size=(9, 3))
        alphas = chebyshev_weights(rng.normal(size=4))
        w, V = np.linalg.eigh(M)
        poly = sum(
            a * (V @ np.diag(np.cos(q * np.arccos(np.clip(w, -1, 1)))) @ V.T) @ X
            for q, a in enumerate(alphas)
        )
        out, terms = chebyshev_apply(lambda v: M @ v, X, alphas)
        assert np.abs(w).max() <= 1.0  # oracle valid only inside [-1, 1]
        np.testing.assert_allclose(out, poly, atol=1e-10)
        assert len(terms) == 4

    def test_afm_identity_filter_when_only_t0(self):
        g = erdos_renyi(8, 3.0, seed=8)
        L = assemble_laplacian(scalar_sheaf(g))
        M = np.eye(L.N) - dense_sls(L)
        X = np.random.default_rng(8).normal(size=(L.N, 2))
        alphas = chebyshev_weights(np.array([40.0, 0.0, 0.0]))  # ~ (1, 0, 0)
        out, _ = chebyshev_apply(lambda v: M @ v, X, alphas)
        np.testing.assert_allclose(out, X, atol=1e-10)


class TestFusePredict:
    def test_fuse_relu_and_shapes(self):
        rng = np.random.default_rng(11)
        Hs, Ha = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        W = rng.normal(size=(3, 6))
        out = fuse(Hs, Ha, W)
        assert out.shape == (5, 3) and np.all(out >= 0)
        np.testing.assert_allclose(
            out, np.maximum(np.hstack([Hs, Ha]) @ W.T, 0.0)
        )

    def test_identity_mixer_passes_first_branch(self):
        rng = np.random.default_rng(12)
        Hs = np.abs(rng.normal(size=(4, 3)))
        Ha = rng.normal(size=(4, 3))
        W = np.hstack([np.eye(3), np.zeros((3, 3))])
        np.testing.assert_allclose(fuse(Hs, Ha, W), Hs)

    def test_predict_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        P = predict(rng.normal(size=(6, 4)), rng.normal(size=(3, 4)))
        np.testing.assert_allclose(P.sum(axis=1), np.ones(6), atol=1e-12)
        assert np.all(P > 0)

    def test_predict_stable_under_huge_logits(self):
        H = np.array([[1000.0, 0.0]])
        W = np.eye(2)
        P = predict(H, W)
        assert np.isfinite(P).all()
        np.testing.assert_allclose(P[0, 0], 1.0, atol=1e-12)
