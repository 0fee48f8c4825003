import logging
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.sparse.linalg import splu

from otsheaf.graphs import Graph, erdos_renyi
import otsheaf.laplacian as laplacian
import otsheaf.spectral as spectral
from otsheaf.laplacian import (
    SheafLaplacian,
    SpectralEstimates,
    assemble_laplacian,
    blockwise_constant_basis,
    estimate_spectrum,
    normalized_range_gap,
)
from otsheaf.spectral import (
    DEGENERACY_GAP,
    MONOTONE_SLACK,
    gap_gradient,
    project,
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


def small_graph(shape: str, n: int, seed: int) -> Graph:
    if shape == "random":
        return erdos_renyi(n, 2.0, seed=seed)
    edges = {"edgeless": [],
             "star": [(0, j) for j in range(1, n)],
             "path": [(i, i + 1) for i in range(n - 1)],
             "complete": [(i, j) for i in range(n) for j in range(i + 1, n)],
             }[shape]
    return Graph.from_edges(n, edges)


def scaled(L, g, eta):
    return SheafLaplacian(L.n, L.d_v, L.edges, L.diag + eta * g.diag,
                          L.off + eta * g.off)


@st.composite
def ascent_candidates(draw):
    """A random sheaf Laplacian L plus or minus eta times gap_gradient's
    pattern-restricted outer product of a random unit signal: the shape
    of wolfe_ascent_step's candidates, with eta from 1e-12 to 1."""
    shape = draw(st.sampled_from(["edgeless", "star", "path", "complete",
                                  "random"]))
    n = draw(st.integers(1, 12))
    d_v = draw(st.integers(1, 3))
    d_e = draw(st.integers(1, d_v))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    eta = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(
        st.floats(-12.0, 0.0))
    L = assemble_laplacian(random_sheaf(small_graph(shape, n, seed), d_v=d_v,
                                        d_e=d_e, seed=seed))
    v = np.random.default_rng(seed).standard_normal(L.N)
    g = gap_gradient(L, v / np.linalg.norm(v))
    return scaled(L, g, eta)


@st.composite
def ascent_steps(draw):
    """A PSD sheaf Laplacian, lifted by a margin of 0 or 1e-4 to 1 so the
    first feasible rung of the step's ladder moves about, and plus or minus
    gap_gradient's outer product of a random unit signal as the direction.
    The directional derivative keeps gap_gradient's positive value, so the
    step runs in either direction."""
    shape = draw(st.sampled_from(["star", "path", "complete", "random"]))
    n = draw(st.integers(3, 10))
    d_v = draw(st.integers(1, 3))
    d_e = draw(st.integers(1, d_v))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    margin = draw(st.sampled_from([0.0, 1.0])) * 10.0 ** draw(
        st.floats(-4.0, 0.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    L = assemble_laplacian(random_sheaf(small_graph(shape, n, seed), d_v=d_v,
                                        d_e=d_e, seed=seed))
    L = replace(L, diag=L.diag + margin * np.eye(d_v)[None], _bsr=None)
    v = np.random.default_rng(seed).standard_normal(L.N)
    g = gap_gradient(L, v / np.linalg.norm(v))
    return L, spectral.GapGradient(diag=sign * g.diag, off=sign * g.off,
                                   directional=g.directional)


def halving_ladder(L, g):
    """wolfe_ascent_step's step sizes: ETA_INIT capped by the trust region,
    halved down MAX_BACKTRACKS rungs."""
    Lnorm = float(np.sqrt((L.diag ** 2).sum() + 2 * (L.off ** 2).sum()))
    eta = spectral.ETA_INIT
    if Lnorm > 0:
        eta = min(eta, spectral.TRUST_REGION * Lnorm / g.frobenius_norm())
    ladder = []
    for _ in range(spectral.MAX_BACKTRACKS):
        ladder.append(eta)
        eta *= 0.5
    return ladder


def linear_scan_step(L, g, lambda2, seed=0, estimator=estimate_spectrum):
    """Reference for wolfe_ascent_step: the halving ladder scanned from its
    top rung, with one project call on every rung."""
    if g.frobenius_norm() == 0.0 or g.directional <= 0.0:
        return L, 0.0, False, None
    for eta in halving_ladder(L, g):
        candidate = project(scaled(L, g, eta))
        if candidate is not None:
            est = estimator(candidate, seed=seed)
            if est.lambda2 >= lambda2 + spectral.WOLFE_C * eta * g.directional:
                return candidate, eta, True, est
    return L, 0.0, False, None


def count_project(monkeypatch):
    """Route spectral.project through a recorder; returns its list of calls."""
    calls = []

    def counted(L):
        calls.append(L)
        return project(L)

    monkeypatch.setattr(spectral, "project", counted)
    return calls


def single_edge_laplacian():
    g = Graph.from_edges(2, [(0, 1)])
    return assemble_laplacian(scalar_sheaf(g))


class TestRayleighLambda2:
    def test_single_edge(self):
        est = estimate_spectrum(single_edge_laplacian())
        assert est.lambda2 == pytest.approx(2.0)
        assert np.linalg.norm(est.v2) == pytest.approx(1.0)

    def test_disconnected_gap_zero(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        est = estimate_spectrum(assemble_laplacian(scalar_sheaf(g)))
        assert abs(est.lambda2) < 1e-8

    def test_matches_dense_oracle_on_sheaf(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                 (0, 3), (1, 4)])
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=1, seed=3))
        lam = estimate_spectrum(L).lambda2
        assert lam == pytest.approx(dense_deflated_min(L)[0], abs=1e-8)

    def test_unconverged_solve_warns_once(self, monkeypatch, caplog):
        monkeypatch.setattr(laplacian, "DENSE_CUTOFF", 0)
        monkeypatch.setattr(laplacian, "SPECTRUM_TOL", 1e-30)
        g = erdos_renyi(30, 4.0, seed=6, ensure_connected=True)
        L = assemble_laplacian(random_sheaf(g, d_v=2, d_e=1, seed=6))
        with caplog.at_level(logging.WARNING, logger="otsheaf"):
            est = estimate_spectrum(L)
        assert not est.converged
        assert len(caplog.records) == 1
        assert caplog.records[0].levelno == logging.WARNING


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
        g = gap_gradient(L, estimate_spectrum(L).v2)
        assert np.einsum("iaa->", g.diag) == pytest.approx(1.0)

    def test_directional_is_restricted_frobenius_squared(self):
        g_graph = erdos_renyi(10, 3.0, seed=2)
        L = assemble_laplacian(random_sheaf(g_graph, d_v=2, d_e=2, seed=5))
        g = gap_gradient(L, estimate_spectrum(L).v2)
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
        op = SheafLaplacian(n=L.n, d_v=L.d_v, edges=L.edges, diag=g.diag,
                            off=g.off)
        assert np.allclose(op.matvec(x), G @ x)

    def test_degenerate_average(self):
        L = assemble_laplacian(scalar_sheaf(Graph.from_edges(
            4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])))
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

    def test_negative_mode_rejected(self):
        # an indefinite iterate is rejected, not repaired
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        L = assemble_laplacian(scalar_sheaf(g))
        L.diag = L.diag - 0.3 * np.eye(1)[None]
        L._bsr = None
        assert np.linalg.eigvalsh(L.to_dense())[0] < -0.2
        assert project(L) is None
        # shifted, this one is [[0, 1], [1, 0]]: its zero diagonal makes
        # SuperLU pivot off the diagonal, to pivots 1 and 1, though its
        # eigenvalues are -1 and 1
        swap = SheafLaplacian(2, 1, np.array([[0, 1]]),
                              np.full((2, 1, 1), -MONOTONE_SLACK),
                              np.ones((1, 1, 1)))
        assert project(swap) is None

    def test_symmetrizes_diag_blocks(self):
        g_graph = erdos_renyi(6, 2.5, seed=5)
        L = assemble_laplacian(random_sheaf(g_graph, d_v=2, d_e=1, seed=3))
        L.diag = L.diag + np.eye(2)[None]   # PSD with room for the skew part
        L.diag[0] += np.array([[0.0, 0.2], [0.0, 0.0]])
        L._bsr = None
        out = project(L)
        assert out is not None
        assert np.array_equal(out.diag,
                              0.5 * (L.diag + L.diag.transpose(0, 2, 1)))
        assert np.array_equal(out.off, L.off)

    def test_idempotent(self):
        g_graph = erdos_renyi(8, 3.0, seed=4)
        L = assemble_laplacian(random_sheaf(g_graph, d_v=2, d_e=1, seed=2))
        once = project(L)
        twice = project(once)
        assert np.array_equal(once.diag, twice.diag)
        assert np.array_equal(once.off, twice.off)

    def test_iterative_path_agrees(self, monkeypatch):
        # above DENSE_CUTOFF the factorization gives dense eigvalsh's verdict
        # on a PSD operator with a large null space and on one shifted to
        # lambda_min = -1e-6, and SuperLU keeps to diagonal pivots there
        lus = []

        def recorded(*args, **kwargs):
            lus.append(splu(*args, **kwargs))
            return lus[-1]

        monkeypatch.setattr(spectral, "splu", recorded)
        g = erdos_renyi(260, 3.0, seed=3, ensure_connected=True)
        psd = assemble_laplacian(random_sheaf(g, d_v=4, d_e=1, seed=3))
        indefinite = replace(psd, diag=psd.diag - 1e-6 * np.eye(4)[None],
                             _bsr=None)
        assert psd.N > laplacian.DENSE_CUTOFF
        for L, feasible in ((psd, True), (indefinite, False)):
            lam_min = np.linalg.eigvalsh(L.to_dense())[0]
            assert (lam_min >= -MONOTONE_SLACK) == feasible
            assert (project(L) is not None) == feasible
        assert len(lus) == 2
        for lu in lus:
            assert np.array_equal(lu.perm_r, lu.perm_c)

    def test_verdict_flips_at_the_slack(self):
        # the path graph's scalar Laplacian has the constant null vector, so
        # L - t I has lambda_min = -t up to roundoff in the diagonal
        g = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
        L = assemble_laplacian(scalar_sheaf(g))
        for t, feasible in ((2.0, False), (0.5, True)):
            shifted = replace(L, diag=L.diag - t * MONOTONE_SLACK, _bsr=None)
            lam_min = np.linalg.eigvalsh(shifted.to_dense())[0]
            assert lam_min == pytest.approx(-t * MONOTONE_SLACK, rel=1e-6)
            assert (project(shifted) is not None) == feasible

    def test_verdict_is_the_dense_spectrum(self):
        # the factorization rejects exactly the candidates whose lowest
        # eigenvalue lies below -MONOTONE_SLACK; only a candidate within
        # 1e-10 of that boundary, where roundoff may decide, is left out,
        # and none of the 300 examples drawn is
        tally = {"rejected": 0, "accepted": 0, "excluded": 0}

        @settings(max_examples=300, derandomize=True, deadline=None,
                  database=None)
        @given(ascent_candidates())
        def check(L):
            dense = L.to_dense()
            lam_min = np.linalg.eigvalsh(0.5 * (dense + dense.T))[0]
            near = abs(lam_min + MONOTONE_SLACK) <= 1e-10
            tally["excluded"] += near
            assume(not near)
            rejected = lam_min < -MONOTONE_SLACK
            assert (project(L) is None) == rejected
            tally["rejected" if rejected else "accepted"] += 1

        check()
        assert tally["excluded"] == 0
        assert tally["rejected"] >= 50 and tally["accepted"] >= 50


class TestWolfeStep:
    def test_zero_gradient_is_noop(self):
        L = single_edge_laplacian()
        g = gap_gradient(L, np.array([1.0, 0.0]) * 0.0)
        out, eta, accepted, est = wolfe_ascent_step(
            L, g, estimate_spectrum(L).lambda2)
        assert out is L and eta == 0.0 and not accepted and est is None

    def test_single_edge_strict_increase(self):
        L = single_edge_laplacian()
        est = estimate_spectrum(L)
        lam0 = est.lambda2
        g = gap_gradient(L, est.v2)
        out, eta, accepted, est = wolfe_ascent_step(L, g, lam0)
        assert accepted and eta > 0
        lam1 = estimate_spectrum(out).lambda2
        assert est.lambda2 == lam1
        # closed form: the non-trivial eigenvalue moves from 2 to 2 + eta
        assert lam1 == pytest.approx(2.0 + eta)
        assert lam1 > lam0

    def test_trust_region_caps_step(self, monkeypatch):
        L = single_edge_laplacian()
        est = estimate_spectrum(L)
        g = gap_gradient(L, est.v2)
        monkeypatch.setattr(spectral, "TRUST_REGION", 0.05)
        _, eta, accepted, _ = wolfe_ascent_step(L, g, est.lambda2)
        Lnorm = np.sqrt((L.diag ** 2).sum() + 2 * (L.off ** 2).sum())
        assert accepted
        assert eta * g.frobenius_norm() <= 0.05 * Lnorm + 1e-12

    @staticmethod
    def _edge_near_boundary():
        """A PSD 2-node operator, lowest eigenvalue 0.01, and a direction g
        that lowers it by eta: the candidate L + eta g is indefinite for
        eta > 0.01."""
        L = SheafLaplacian(2, 1, np.array([[0, 1]]),
                           np.full((2, 1, 1), 1.01), np.full((1, 1, 1), -1.0))
        g = spectral.GapGradient(diag=np.zeros((2, 1, 1)),
                                 off=np.full((1, 1, 1), -1.0), directional=1.0)
        return L, g

    def test_infeasible_candidate_never_estimated(self, monkeypatch):
        # a counting stub that accepts whatever it is given: the step must
        # still halve past every indefinite candidate and estimate only the
        # first feasible one
        L, g = self._edge_near_boundary()
        seen = []

        def accept_all(op, seed=0):
            seen.append(op)
            return SimpleNamespace(lambda2=1e9)

        factored = count_project(monkeypatch)
        out, eta, accepted, _ = wolfe_ascent_step(L, g, 0.0,
                                                  estimator=accept_all)
        Lnorm = np.sqrt((L.diag ** 2).sum() + 2 * (L.off ** 2).sum())
        eta0 = spectral.TRUST_REGION * Lnorm / g.frobenius_norm()
        assert eta0 > 0.01   # the first candidate is indefinite
        assert accepted and len(seen) == 1 and out is seen[0]
        assert 0 < len(factored) <= 4   # bisected, not one per halving
        # the first halving of eta0 at or below 0.01
        assert eta == eta0 / 2 ** int(np.ceil(np.log2(eta0 / 0.01)))
        assert np.linalg.eigvalsh(out.to_dense())[0] >= -spectral.MONOTONE_SLACK

    def test_all_infeasible_candidates_rejected(self, monkeypatch):
        # a direction that makes every step size indefinite is never
        # estimated and never accepted
        L, g = self._edge_near_boundary()
        L.diag = np.ones((2, 1, 1))   # lowest eigenvalue 0: no room at all
        calls = []

        def accept_all(op, seed=0):
            calls.append(op)
            return SimpleNamespace(lambda2=1e9)

        factored = count_project(monkeypatch)
        out, eta, accepted, est = wolfe_ascent_step(L, g, 0.0,
                                                    estimator=accept_all)
        assert calls == []
        assert not accepted and eta == 0.0 and out is L and est is None
        assert 0 < len(factored) <= 4

    @pytest.mark.parametrize("stub", [True, False])
    def test_matches_the_linear_scan(self, monkeypatch, stub):
        # the bisected step returns what a scan that factors every rung from
        # the top returns, with at most four project calls; the drawn
        # ladders include ones feasible from the top rung, ones that turn
        # feasible partway down and ones that never do
        factored = count_project(monkeypatch)
        tally = {"first": 0, "partway": 0, "never": 0}

        def accept_all(op, seed=0):
            return SimpleNamespace(lambda2=1e9)

        @settings(max_examples=150, derandomize=True, deadline=None,
                  database=None)
        @given(ascent_steps())
        def check(case):
            L, g = case
            estimator = accept_all if stub else estimate_spectrum
            lambda2 = 0.0 if stub else estimate_spectrum(L).lambda2
            ref = linear_scan_step(L, g, lambda2, estimator=estimator)
            factored.clear()
            out, eta, accepted, est = wolfe_ascent_step(
                L, g, lambda2, estimator=estimator)
            assert len(factored) <= 4
            assert (eta, accepted) == ref[1:3]
            if accepted:
                assert np.array_equal(out.diag, ref[0].diag)
                assert np.array_equal(out.off, ref[0].off)
                assert est.lambda2 == ref[3].lambda2
            else:
                assert out is L and est is None
            feasible = [project(scaled(L, g, eta)) is not None
                        for eta in halving_ladder(L, g)]
            assert feasible == sorted(feasible)   # the feasible rungs: a tail
            tally["first" if feasible[0] else
                  "partway" if feasible[-1] else "never"] += 1

        check()
        assert min(tally.values()) >= 20, tally

    def test_saturated_objective_rejected_honestly(self):
        # complete-graph connectivity is already extremal: boosting the two
        # lowest non-trivial modes cannot lift the third, so every
        # backtracked step fails the sufficient-increase test
        K4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                  (2, 3)])
        L = assemble_laplacian(scalar_sheaf(K4))
        est = estimate_spectrum(L)
        g = gap_gradient(L, est.v2, est.v3)
        out, eta, accepted, est = wolfe_ascent_step(L, g, est.lambda2)
        assert not accepted and eta == 0.0 and out is L and est is None


class TestGapAscentLoop:
    def test_history_monotone_on_random_sheaf(self):
        g_graph = erdos_renyi(8, 3.0, seed=7, ensure_connected=True)
        L = assemble_laplacian(random_sheaf(g_graph, d_v=2, d_e=1, seed=4))
        _, h = run_gap_ascent(L, steps=15)
        assert len(h) == 16
        assert all(b >= a - 1e-8 for a, b in zip(h, h[1:]))
        assert h[-1] - h[0] >= -1e-8

    def test_single_edge_makes_progress(self):
        L = single_edge_laplacian()
        _, h = run_gap_ascent(L, steps=5)
        assert h[-1] - h[0] > 0.5

    def test_stops_at_first_rejected_step(self, monkeypatch):
        # the second step rejects and returns L unchanged; the loop that
        # runs every step replays it three more times, with the same
        # outcome, so stopping there keeps the ledger and the operator
        g = erdos_renyi(10, 3.5, seed=4)
        L = assemble_laplacian(random_sheaf(g, d_v=3, d_e=2, seed=4))
        ref_L, ref = explicit_ascent(L, 5, normalized_range_gap)
        outcomes = []
        real = spectral.wolfe_ascent_step

        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            outcomes.append(out[2])
            return out

        monkeypatch.setattr(spectral, "wolfe_ascent_step", counted)
        out, history = run_gap_ascent(L, steps=5, seed=0,
                                      estimator=normalized_range_gap)
        assert outcomes == [True, False]
        assert len(history) == 6
        assert history == ref
        assert np.array_equal(out.diag, ref_L.diag)
        assert np.array_equal(out.off, ref_L.off)

    @pytest.mark.parametrize("gap, averaged", [(0.5 * DEGENERACY_GAP, True),
                                               (2.0 * DEGENERACY_GAP, False)])
    def test_degeneracy_test_is_absolute(self, monkeypatch, gap, averaged):
        # the gradient averages in v3 exactly when lambda3 - lambda2 is
        # under DEGENERACY_GAP, whatever the scale of the spectrum
        L = single_edge_laplacian()
        v2, v3 = np.eye(L.N)[0], np.eye(L.N)[1]

        def stub(op, seed=0):
            return SpectralEstimates(lambda2=30.0, v2=v2, lambda3=30.0 + gap,
                                     v3=v3, residual2=0.0, converged=True)

        received = []
        real = spectral.gap_gradient

        def recorded(L, v2, v3=None):
            received.append(v3)
            return real(L, v2, v3)

        monkeypatch.setattr(spectral, "gap_gradient", recorded)
        run_gap_ascent(L, steps=1, estimator=stub)
        assert len(received) == 1
        assert received[0] is (v3 if averaged else None)

    def test_accepted_step_hands_over_its_estimate(self):
        # the ascent used to estimate every accepted iterate twice: once in
        # the Wolfe test and once more for the next step's gradient
        g = erdos_renyi(10, 3.5, seed=4)
        L = assemble_laplacian(random_sheaf(g, d_v=3, d_e=2, seed=4))
        seen = []

        def counted(op, seed=0):
            seen.append(op)   # kept alive, so no two operators share an id
            return normalized_range_gap(op, seed=seed)

        _, history = run_gap_ascent(L, steps=4, seed=0, estimator=counted)
        assert history[-1] > history[0]   # at least one step accepted
        assert len({id(op) for op in seen}) == len(seen)
        _, ref = explicit_ascent(L, 4, normalized_range_gap)
        assert history == ref


def explicit_ascent(L, steps, estimator, seed=0):
    """Every step of the ascent run, rejected or not: (L, lambda2 ledger)."""
    est = estimator(L, seed=seed)
    history = [est.lambda2]
    for _ in range(steps):
        degenerate = (est.lambda3 - est.lambda2) < DEGENERACY_GAP
        g = gap_gradient(L, est.v2, est.v3 if degenerate else None)
        L, _, _, _ = wolfe_ascent_step(L, g, est.lambda2, seed=seed,
                                       estimator=estimator)
        est = estimator(L, seed=seed)
        history.append(est.lambda2)
    return L, history


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


class TestAscentWithRangeEstimator:
    def test_history_monotone_on_rank_deficient_sheaf(self):
        # swapping the connectivity notion keeps acceptance sound: the
        # recorded series is the injected estimator's lambda2
        from otsheaf.laplacian import normalized_range_gap

        g = erdos_renyi(10, 3.5, seed=2)
        L = assemble_laplacian(random_sheaf(g, d_v=3, d_e=1, seed=2))
        L2, hist = run_gap_ascent(L, steps=4, seed=0,
                                  estimator=normalized_range_gap)
        assert len(hist) == 5
        assert all(b >= a - 1e-8 for a, b in zip(hist, hist[1:]))
        assert hist[0] == pytest.approx(normalized_range_gap(L, seed=0).lambda2)
        assert hist[-1] == pytest.approx(
            normalized_range_gap(L2, seed=0).lambda2)
