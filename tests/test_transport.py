import logging
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from otsheaf.graphs import Graph, synthetic_dataset
from otsheaf.transport import (
    LiftConfig,
    SinkhornDivergence,
    edge_plans,
    entropic_objective,
    feature_cost_matrix,
    lift_all_edges,
    normalize_to_measure,
    restriction_from_plan,
    restrictions_from_plans,
    sinkhorn,
)


def _two_point_plan(t, mu, nu):
    return np.array([
        [t, mu[0] - t],
        [nu[0] - t, 1.0 - mu[0] - nu[0] + t],
    ])


def _two_point_bounds(mu, nu):
    return max(0.0, mu[0] + nu[0] - 1.0), min(mu[0], nu[0])


def _oracle_two_point(mu, nu, C, eps, P0=None, tau=None):
    """Exact 2x2 optimum: the coupling polytope is one segment, so a bounded
    scalar minimization of the (strictly convex) objective is an oracle."""
    lo, hi = _two_point_bounds(mu, nu)

    def obj(t):
        P = _two_point_plan(t, mu, nu)
        val = entropic_objective(P, C, eps)
        if P0 is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                kl = np.where(P > 0, P * (np.log(P) - np.log(P0)), 0.0)
            val += float(kl.sum()) / tau
        return val

    res = minimize_scalar(obj, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-14})
    return _two_point_plan(res.x, mu, nu)


class TestLiftConfig:
    @pytest.mark.parametrize("eps", [0.0, -0.5, float("nan")])
    def test_rejects_nonpositive_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            LiftConfig(eps=eps)

    def test_rejects_zero_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            LiftConfig(max_iter=0)


class TestCostMatrix:
    def test_two_points(self):
        np.testing.assert_array_equal(feature_cost_matrix(2), [[0.0, 2.0], [2.0, 0.0]])

    def test_zero_diagonal_symmetric(self):
        C = feature_cost_matrix(7)
        assert np.all(np.diag(C) == 0) and np.array_equal(C, C.T)


class TestNormalize:
    def test_all_zero_gives_uniform(self):
        np.testing.assert_allclose(normalize_to_measure(np.zeros(3)), np.full(3, 1 / 3))

    def test_negatives_clamped(self):
        v = normalize_to_measure(np.array([-5.0, 1.0]), floor=0.0)
        np.testing.assert_allclose(v, [0.0, 1.0])

    def test_zero_with_zero_floor_falls_back_to_uniform(self):
        np.testing.assert_allclose(
            normalize_to_measure(np.zeros(4), floor=0.0), np.full(4, 0.25)
        )

    def test_simplex_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = normalize_to_measure(rng.normal(size=rng.integers(1, 20)))
            assert np.all(v > 0) and v.sum() == pytest.approx(1.0)


class TestSinkhorn:
    def test_matches_two_point_oracle(self):
        rng = np.random.default_rng(1)
        cfg = LiftConfig(eps=0.7, tol=1e-12)
        C = feature_cost_matrix(2)
        for _ in range(25):
            mu = normalize_to_measure(rng.random(2), floor=1e-3)
            nu = normalize_to_measure(rng.random(2), floor=1e-3)
            plan = sinkhorn(mu, nu, C, cfg)
            oracle = _oracle_two_point(mu, nu, C, cfg.eps)
            np.testing.assert_allclose(plan.P, oracle, atol=1e-6)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 5.0])
    def test_entropic_plan_is_proximal_fixed_point(self, tau):
        """The entropic plan P0 minimizes <P,C> + eps*H(P) + KL(P||P0)/tau.

        This is why the lift runs no proximal pass after the entropic one:
        that pass would return its own input, whatever the step size.
        """
        rng = np.random.default_rng(4)
        cfg = LiftConfig(eps=0.6, tol=1e-12)
        C = feature_cost_matrix(2)
        for _ in range(25):
            mu = normalize_to_measure(rng.random(2), floor=1e-3)
            nu = normalize_to_measure(rng.random(2), floor=1e-3)
            P0 = sinkhorn(mu, nu, C, cfg).P
            oracle = _oracle_two_point(mu, nu, C, cfg.eps, P0=P0, tau=tau)
            np.testing.assert_allclose(P0, oracle, atol=1e-6)

    def test_near_delta_marginals_concentrate(self):
        cfg = LiftConfig(eps=0.5)
        mu = normalize_to_measure(np.array([1.0, 0.0, 0.0, 0.0]))
        plan = sinkhorn(mu, mu, feature_cost_matrix(4), cfg)
        assert plan.P[0, 0] > 0.999

    def test_large_eps_gives_independent_coupling(self):
        rng = np.random.default_rng(2)
        mu = normalize_to_measure(rng.random(5))
        nu = normalize_to_measure(rng.random(5))
        plan = sinkhorn(mu, nu, feature_cost_matrix(5), LiftConfig(eps=1e6))
        np.testing.assert_allclose(plan.P, np.outer(mu, nu), atol=1e-5)

    def test_marginals_within_tol_property(self):
        rng = np.random.default_rng(3)
        cfg = LiftConfig(eps=0.3, tol=1e-10)
        for _ in range(20):
            p = int(rng.integers(2, 17))
            mu = normalize_to_measure(rng.random(p))
            nu = normalize_to_measure(rng.random(p))
            plan = sinkhorn(mu, nu, feature_cost_matrix(p), cfg)
            assert plan.violation <= cfg.tol
            assert np.all(plan.P >= 0)
            assert np.abs(plan.P.sum(axis=1) - mu).sum() <= 10 * cfg.tol
            assert np.abs(plan.P.sum(axis=0) - nu).sum() <= 10 * cfg.tol

    def test_small_eps_stable_in_log_domain(self):
        mu = normalize_to_measure(np.array([0.7, 0.1, 0.2]))
        nu = normalize_to_measure(np.array([0.2, 0.5, 0.3]))
        plan = sinkhorn(mu, nu, feature_cost_matrix(3), LiftConfig(eps=0.01))
        assert np.isfinite(plan.P).all()
        assert plan.violation <= 1e-9

    def test_nonconvergence_raises(self):
        mu = normalize_to_measure(np.array([0.9, 0.1]))
        nu = normalize_to_measure(np.array([0.1, 0.9]))
        with pytest.raises(SinkhornDivergence):
            sinkhorn(mu, nu, feature_cost_matrix(2), LiftConfig(eps=0.05, tol=1e-14, max_iter=2))

    def test_nonpositive_marginal_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn(np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                     feature_cost_matrix(2), LiftConfig())


def _lift_fixture(seed=0, n=6, d0=10, p=5, d_e=3):
    """A path through n nodes plus the edge (0, 3), with features and weights."""
    rng = np.random.default_rng(seed)
    g = Graph.from_edges(n, [[i, (i + 1) % n] for i in range(n - 1)] + [[0, 3]])
    H = np.abs(rng.normal(size=(n, d0)))
    W_proj = rng.normal(size=(d0, p)) / np.sqrt(p)
    W_theta = rng.normal(size=(p, d_e))
    return g, H, W_proj, W_theta


def _single_edge_maps(h_i, h_j, W_proj, W_theta, cfg):
    """Per-edge reference lift: the dense solve, then the learned matrix."""
    mu = normalize_to_measure(h_i @ W_proj, cfg.floor)
    nu = normalize_to_measure(h_j @ W_proj, cfg.floor)
    P = sinkhorn(mu, nu, feature_cost_matrix(mu.shape[0]), cfg).P
    return restriction_from_plan(P, W_theta), restriction_from_plan(P.T, W_theta)


class TestLift:
    def test_identity_plan_identity_weight(self):
        P = np.eye(4)
        np.testing.assert_array_equal(restriction_from_plan(P, np.eye(4)), np.eye(4))

    def test_shapes(self):
        g, H, W_proj, W_theta = _lift_fixture()
        Rij, Rji = _single_edge_maps(H[0], H[1], W_proj, W_theta, LiftConfig())
        assert Rij.shape == (3, 5) and Rji.shape == (3, 5)

    def test_pair_comes_from_one_plan(self):
        g, H, W_proj, W_theta = _lift_fixture()
        rset = lift_all_edges(g, H, W_proj, W_theta, LiftConfig())
        plans = edge_plans(g.edges, H, W_proj, LiftConfig())
        for e in range(rset.m):
            np.testing.assert_allclose(
                rset.Rij[e], restriction_from_plan(plans[e], W_theta), atol=1e-12
            )
            np.testing.assert_allclose(
                rset.Rji[e], restriction_from_plan(plans[e].T, W_theta), atol=1e-12
            )

    def test_batch_matches_single_edge(self):
        g, H, W_proj, W_theta = _lift_fixture()
        cfg = LiftConfig(tol=1e-11)
        rset = lift_all_edges(g, H, W_proj, W_theta, cfg)
        for e in range(rset.m):
            i, j = rset.edges[e]
            Rij, Rji = _single_edge_maps(H[i], H[j], W_proj, W_theta, cfg)
            np.testing.assert_allclose(rset.Rij[e], Rij, atol=1e-8)
            np.testing.assert_allclose(rset.Rji[e], Rji, atol=1e-8)

    def test_deterministic(self):
        g, H, W_proj, W_theta = _lift_fixture()
        a = lift_all_edges(g, H, W_proj, W_theta, LiftConfig())
        b = lift_all_edges(g, H, W_proj, W_theta, LiftConfig())
        np.testing.assert_array_equal(a.Rij, b.Rij)
        np.testing.assert_array_equal(a.Rji, b.Rji)
        np.testing.assert_array_equal(edge_plans(g.edges, H, W_proj, LiftConfig()),
                                      edge_plans(g.edges, H, W_proj, LiftConfig()))

    def test_plan_marginals_are_projected_features(self):
        g, H, W_proj, W_theta = _lift_fixture()
        cfg = LiftConfig()
        plans = edge_plans(g.edges, H, W_proj, cfg)
        X = H @ W_proj
        M = normalize_to_measure(X, cfg.floor)
        for e in range(plans.shape[0]):
            i, j = g.edges[e]
            np.testing.assert_allclose(plans[e].sum(axis=1), M[i], atol=1e-7)
            np.testing.assert_allclose(plans[e].sum(axis=0), M[j], atol=1e-7)

    def test_empty_graph(self):
        g = Graph.from_edges(3, np.zeros((0, 2)))
        rng = np.random.default_rng(0)
        rset = lift_all_edges(g, np.abs(rng.normal(size=(3, 4))),
                              rng.normal(size=(4, 2)), rng.normal(size=(2, 2)),
                              LiftConfig())
        assert rset.m == 0 and rset.Rij.shape == (0, 2, 2)


class TestEdgePlans:
    @pytest.mark.parametrize("tau, proximal", [(0.0, True), (1.0, True),
                                               (5.0, True), (1.0, False)])
    @pytest.mark.parametrize("p", [1, 2, 16])
    @pytest.mark.parametrize("eps", [0.01, 0.5, 50.0])
    def test_matches_dense_single_pair_solves(self, eps, tau, p, proximal):
        """The structured batch agrees with the dense per-edge reference.

        With proximal=True the reference is also passed through one dense
        KL-proximal step of size tau started from it: minimizing
        <P,C> + eps*H(P) + KL(P||P0)/tau is, after scaling by
        tau/(1+eps*tau), entropic OT with eps=1 and cost
        (tau*C - log P0)/(1+eps*tau). The batch must match that solve too,
        which checks the fixed point for every p, not only p=2. tau does not
        enter the entropic solve, so proximal=False runs once.
        The graph is a 4-cycle: the dense reference solves edge by edge,
        and at eps=0.01 each solve takes hundreds of iterations.
        """
        g, H, W_proj, _ = _lift_fixture(n=4, p=p)
        cfg = LiftConfig(eps=eps, tol=1e-12)
        plans = edge_plans(g.edges, H, W_proj, cfg)
        M = normalize_to_measure(H @ W_proj, cfg.floor)
        C = feature_cost_matrix(p)
        prox_cfg = LiftConfig(eps=1.0, tol=cfg.tol, max_iter=cfg.max_iter)
        for e, (i, j) in enumerate(g.edges):
            plan = sinkhorn(M[i], M[j], C, cfg)
            if proximal:
                with np.errstate(divide="ignore"):
                    C_prox = (tau * C - np.log(plan.P)) / (1.0 + eps * tau)
                plan = sinkhorn(M[i], M[j], C_prox, prox_cfg)
            np.testing.assert_allclose(plans[e], plan.P, rtol=0, atol=1e-10)

    def test_nonfinite_features_name_the_node(self):
        g, H, W_proj, _ = _lift_fixture(p=4)
        H[3, 2] = np.nan
        with pytest.raises(ValueError, match="node 3 "):
            edge_plans(g.edges, H, W_proj, LiftConfig())

    def test_divergence_names_pass_and_worst_edge(self, caplog):
        g, H, W_proj, _ = _lift_fixture()
        caplog.set_level(logging.DEBUG, logger="otsheaf.transport")
        with pytest.raises(SinkhornDivergence, match="entropic pass") as exc:
            edge_plans(g.edges, H, W_proj, LiftConfig(tol=1e-14, max_iter=2))
        m = re.search(r"worst edge (\d+) \((\d+), (\d+)\)", str(exc.value))
        assert m is not None
        e, i, j = (int(x) for x in m.groups())
        assert (i, j) == tuple(g.edges[e])
        records = [r for r in caplog.records if r.name == "otsheaf.transport"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        assert "entropic pass: 2 iterations" in records[0].getMessage()

    def test_one_debug_record_per_pass(self, caplog):
        g, H, W_proj, _ = _lift_fixture()
        caplog.set_level(logging.DEBUG, logger="otsheaf.transport")
        edge_plans(g.edges, H, W_proj, LiftConfig())
        msgs = [r.getMessage() for r in caplog.records
                if r.name == "otsheaf.transport"]
        assert [msg.split(" pass:")[0] for msg in msgs] == ["entropic"]
        assert all("iterations, marginal violation" in msg for msg in msgs)

    def test_traced_peak_stays_near_output_size(self):
        """Guards against iterating on dense (m, p, p) arrays again: the old
        dense loop peaked near 9-11x the returned plans on this fixture."""
        g, feats, _ = synthetic_dataset(n=60, num_classes=3, d0=16, seed=0)
        W_proj = np.random.default_rng(0).normal(size=(16, 16)) / 4.0
        tracemalloc.start()
        try:
            plans = edge_plans(g.edges, feats.H, W_proj, LiftConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plans.shape == (193, 16, 16)
        assert peak < 4 * plans.nbytes
