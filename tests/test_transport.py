import logging
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

import otsheaf.transport as transport
from otsheaf.graphs import Graph, make_split, synthetic_dataset
from otsheaf.model import restriction_maps, sheaf_laplacian
from otsheaf.training import Dataset, TrainConfig, init_state
from otsheaf.transport import (
    MEASURE_FLOOR,
    SinkhornDivergence,
    edge_plans,
    entropic_objective,
    feature_cost_matrix,
    normalize_to_measure,
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


class TestEps:
    @pytest.mark.parametrize("eps", [0.0, -0.5, float("nan")])
    def test_rejects_nonpositive_eps(self, eps):
        g, H, W_proj, _ = _lift_fixture()
        with pytest.raises(ValueError, match="eps"):
            edge_plans(g.edges, H @ W_proj, eps)
        with pytest.raises(ValueError, match="eps"):
            edge_plans(np.zeros((0, 2), dtype=int), H @ W_proj, eps)
        mu = normalize_to_measure(np.array([0.7, 0.3]))
        with pytest.raises(ValueError, match="eps"):
            sinkhorn(mu, mu, feature_cost_matrix(2), eps)


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
        # the negative coordinate keeps the floor's mass and nothing more
        v = normalize_to_measure(np.array([-5.0, 1.0]))
        np.testing.assert_allclose(
            v, np.array([MEASURE_FLOOR, 1.0 + MEASURE_FLOOR])
            / (1.0 + 2.0 * MEASURE_FLOOR))

    def test_simplex_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = normalize_to_measure(rng.normal(size=rng.integers(1, 20)))
            assert np.all(v > 0) and v.sum() == pytest.approx(1.0)


class TestSinkhorn:
    def test_matches_two_point_oracle(self, monkeypatch):
        monkeypatch.setattr(transport, "SINKHORN_TOL", 1e-12)
        monkeypatch.setattr(transport, "MEASURE_FLOOR", 1e-3)
        rng = np.random.default_rng(1)
        eps = 0.7
        C = feature_cost_matrix(2)
        for _ in range(25):
            mu = normalize_to_measure(rng.random(2))
            nu = normalize_to_measure(rng.random(2))
            plan = sinkhorn(mu, nu, C, eps)
            oracle = _oracle_two_point(mu, nu, C, eps)
            np.testing.assert_allclose(plan.P, oracle, atol=1e-6)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 5.0])
    def test_entropic_plan_is_proximal_fixed_point(self, tau, monkeypatch):
        """The entropic plan P0 minimizes <P,C> + eps*H(P) + KL(P||P0)/tau.

        This is why the lift runs no proximal pass after the entropic one:
        that pass would return its own input, whatever the step size.
        """
        monkeypatch.setattr(transport, "SINKHORN_TOL", 1e-12)
        monkeypatch.setattr(transport, "MEASURE_FLOOR", 1e-3)
        rng = np.random.default_rng(4)
        eps = 0.6
        C = feature_cost_matrix(2)
        for _ in range(25):
            mu = normalize_to_measure(rng.random(2))
            nu = normalize_to_measure(rng.random(2))
            P0 = sinkhorn(mu, nu, C, eps).P
            oracle = _oracle_two_point(mu, nu, C, eps, P0=P0, tau=tau)
            np.testing.assert_allclose(P0, oracle, atol=1e-6)

    def test_near_delta_marginals_concentrate(self):
        mu = normalize_to_measure(np.array([1.0, 0.0, 0.0, 0.0]))
        plan = sinkhorn(mu, mu, feature_cost_matrix(4), 0.5)
        assert plan.P[0, 0] > 0.999

    def test_large_eps_gives_independent_coupling(self):
        rng = np.random.default_rng(2)
        mu = normalize_to_measure(rng.random(5))
        nu = normalize_to_measure(rng.random(5))
        plan = sinkhorn(mu, nu, feature_cost_matrix(5), 1e6)
        np.testing.assert_allclose(plan.P, np.outer(mu, nu), atol=1e-5)

    def test_marginals_within_tol_property(self, monkeypatch):
        tol = 1e-10
        monkeypatch.setattr(transport, "SINKHORN_TOL", tol)
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(2, 17))
            mu = normalize_to_measure(rng.random(p))
            nu = normalize_to_measure(rng.random(p))
            plan = sinkhorn(mu, nu, feature_cost_matrix(p), 0.3)
            assert plan.violation <= tol
            assert np.all(plan.P >= 0)
            assert np.abs(plan.P.sum(axis=1) - mu).sum() <= 10 * tol
            assert np.abs(plan.P.sum(axis=0) - nu).sum() <= 10 * tol

    def test_small_eps_stable_in_log_domain(self):
        mu = normalize_to_measure(np.array([0.7, 0.1, 0.2]))
        nu = normalize_to_measure(np.array([0.2, 0.5, 0.3]))
        plan = sinkhorn(mu, nu, feature_cost_matrix(3), 0.01)
        assert np.isfinite(plan.P).all()
        assert plan.violation <= 1e-9

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(transport, "SINKHORN_TOL", 1e-14)
        monkeypatch.setattr(transport, "SINKHORN_MAX_SWEEPS", 2)
        mu = normalize_to_measure(np.array([0.9, 0.1]))
        nu = normalize_to_measure(np.array([0.1, 0.9]))
        with pytest.raises(SinkhornDivergence):
            sinkhorn(mu, nu, feature_cost_matrix(2), 0.05)

    def test_nonpositive_marginal_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn(np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                     feature_cost_matrix(2), 0.5)


class TestSinkhornLogsumexp:
    """The solver's numpy logsumexp against scipy's, as the solver had it.

    scipy.special is the oracle in tests only; the package keeps it out of
    the process (tests/test_no_scipy_special.py).
    """

    @staticmethod
    def _scipy_sinkhorn(monkeypatch, *args):
        with monkeypatch.context() as m:
            m.setattr(transport, "_logsumexp",
                      lambda a, axis: logsumexp(a, axis=axis))
            return sinkhorn(*args)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_scipy_with_underflow_and_infinite_cost(self, axis):
        rng = np.random.default_rng(5)
        a = rng.normal(scale=300.0, size=(7, 9))
        a[2, 3] = -np.inf
        np.testing.assert_allclose(transport._logsumexp(a, axis),
                                   logsumexp(a, axis=axis), rtol=1e-14)

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.7, 1e6])
    def test_plans_match_on_random_measures(self, monkeypatch, eps):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = int(rng.integers(2, 17))
            mu = normalize_to_measure(rng.random(p))
            nu = normalize_to_measure(rng.random(p))
            C = feature_cost_matrix(p)
            plan = sinkhorn(mu, nu, C, eps)
            ref = self._scipy_sinkhorn(monkeypatch, mu, nu, C, eps)
            assert plan.iterations == ref.iterations
            np.testing.assert_allclose(plan.P, ref.P, rtol=0, atol=1e-13)

    def test_plans_match_on_the_lift_fixture(self, monkeypatch):
        # the 4-cycle of test_batch_matches_dense_per_edge, with its
        # proximal cost, whose log P0 holds -inf where the plan underflows
        g, H, W_proj, _ = _lift_fixture(n=4, p=4)
        M = normalize_to_measure(H @ W_proj)
        C = feature_cost_matrix(4)
        for i, j in g.edges:
            for eps in (0.01, 0.5):
                P0 = sinkhorn(M[i], M[j], C, eps).P
                ref = self._scipy_sinkhorn(monkeypatch, M[i], M[j], C, eps)
                np.testing.assert_allclose(P0, ref.P, rtol=0, atol=1e-13)
                with np.errstate(divide="ignore"):
                    C_prox = (5.0 * C - np.log(P0)) / (1.0 + eps * 5.0)
                plan = sinkhorn(M[i], M[j], C_prox, 1.0)
                ref = self._scipy_sinkhorn(monkeypatch, M[i], M[j], C_prox,
                                           1.0)
                np.testing.assert_allclose(plan.P, ref.P, rtol=0, atol=1e-13)


def _lift_fixture(seed=0, n=6, d0=10, p=5, d_e=3):
    """A path through n nodes plus the edge (0, 3), with features and weights."""
    rng = np.random.default_rng(seed)
    g = Graph.from_edges(n, [[i, (i + 1) % n] for i in range(n - 1)] + [[0, 3]])
    H = np.abs(rng.normal(size=(n, d0)))
    W_proj = rng.normal(size=(d0, p)) / np.sqrt(p)
    W_theta = rng.normal(size=(p, d_e))
    return g, H, W_proj, W_theta


def _single_edge_maps(h_i, h_j, W_proj, W_theta, eps):
    """Per-edge reference lift: the dense solve, then the model's maps of it."""
    mu = normalize_to_measure(h_i @ W_proj)
    nu = normalize_to_measure(h_j @ W_proj)
    P = sinkhorn(mu, nu, feature_cost_matrix(mu.shape[0]), eps).P
    Rij, Rji = restriction_maps(W_theta, P[None])
    return Rij, Rji


class TestLift:
    def test_identity_plan_identity_weight(self):
        P = np.eye(4)
        np.testing.assert_array_equal(restriction_maps(np.eye(4), P[None])[0],
                                      np.eye(4))

    def test_shapes(self):
        g, H, W_proj, W_theta = _lift_fixture()
        Rij, Rji = _single_edge_maps(H[0], H[1], W_proj, W_theta, 0.5)
        assert Rij.shape == (3, 5) and Rji.shape == (3, 5)

    def test_pair_comes_from_one_plan(self):
        g, H, W_proj, W_theta = _lift_fixture()
        plans = edge_plans(g.edges, H @ W_proj, 0.5)
        R = restriction_maps(W_theta, plans)
        for e in range(g.m):
            np.testing.assert_allclose(
                R[e], W_theta.T @ plans[e], atol=1e-12
            )
            np.testing.assert_allclose(
                R[g.m + e], W_theta.T @ plans[e].T, atol=1e-12
            )

    def test_batch_matches_single_edge(self, monkeypatch):
        monkeypatch.setattr(transport, "LIFT_TOL", 1e-11)
        monkeypatch.setattr(transport, "SINKHORN_TOL", 1e-11)
        g, H, W_proj, W_theta = _lift_fixture()
        R = restriction_maps(W_theta, edge_plans(g.edges, H @ W_proj, 0.5))
        for e in range(g.m):
            i, j = g.edges[e]
            Rij, Rji = _single_edge_maps(H[i], H[j], W_proj, W_theta, 0.5)
            np.testing.assert_allclose(R[e], Rij, atol=1e-8)
            np.testing.assert_allclose(R[g.m + e], Rji, atol=1e-8)

    def test_deterministic(self):
        g, H, W_proj, W_theta = _lift_fixture()
        a = restriction_maps(W_theta, edge_plans(g.edges, H @ W_proj, 0.5))
        b = restriction_maps(W_theta, edge_plans(g.edges, H @ W_proj, 0.5))
        np.testing.assert_array_equal(a[:g.m], b[:g.m])
        np.testing.assert_array_equal(a[g.m:], b[g.m:])
        np.testing.assert_array_equal(edge_plans(g.edges, H @ W_proj, 0.5),
                                      edge_plans(g.edges, H @ W_proj, 0.5))

    def test_plan_marginals_are_projected_features(self):
        g, H, W_proj, W_theta = _lift_fixture()
        plans = edge_plans(g.edges, H @ W_proj, 0.5)
        X = H @ W_proj
        M = normalize_to_measure(X)
        for e in range(plans.shape[0]):
            i, j = g.edges[e]
            np.testing.assert_allclose(plans[e].sum(axis=1), M[i], atol=1e-7)
            np.testing.assert_allclose(plans[e].sum(axis=0), M[j], atol=1e-7)

    def test_empty_graph(self):
        g = Graph.from_edges(3, np.zeros((0, 2)))
        rng = np.random.default_rng(0)
        plans = edge_plans(g.edges, np.abs(rng.normal(size=(3, 4)))
                           @ rng.normal(size=(4, 2)), 0.5)
        W_theta = rng.normal(size=(2, 2))
        L = sheaf_laplacian(W_theta, plans, g.edges, g.n)
        assert L.m == 0 and restriction_maps(W_theta, plans).shape == (0, 2, 2)
        assert L.off.shape == (0, 2, 2) and not L.diag.any()


class TestEdgePlans:
    @pytest.mark.parametrize("tau, proximal", [(0.0, True), (1.0, True),
                                               (5.0, True), (1.0, False)])
    @pytest.mark.parametrize("p", [1, 2, 16])
    @pytest.mark.parametrize("eps", [0.01, 0.5, 50.0])
    def test_matches_dense_single_pair_solves(self, eps, tau, p, proximal,
                                              monkeypatch):
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
        monkeypatch.setattr(transport, "LIFT_TOL", 1e-12)
        monkeypatch.setattr(transport, "SINKHORN_TOL", 1e-12)
        g, H, W_proj, _ = _lift_fixture(n=4, p=p)
        plans = edge_plans(g.edges, H @ W_proj, eps)
        M = normalize_to_measure(H @ W_proj)
        C = feature_cost_matrix(p)
        for e, (i, j) in enumerate(g.edges):
            plan = sinkhorn(M[i], M[j], C, eps)
            if proximal:
                with np.errstate(divide="ignore"):
                    C_prox = (tau * C - np.log(plan.P)) / (1.0 + eps * tau)
                plan = sinkhorn(M[i], M[j], C_prox, 1.0)
            np.testing.assert_allclose(plans[e], plan.P, rtol=0, atol=1e-10)

    def test_nonfinite_features_name_the_node(self):
        g, H, W_proj, _ = _lift_fixture(p=4)
        H[3, 2] = np.nan
        with pytest.raises(ValueError, match="node 3 "):
            edge_plans(g.edges, H @ W_proj, 0.5)

    def test_divergence_names_pass_and_worst_edge(self, caplog, monkeypatch):
        monkeypatch.setattr(transport, "LIFT_TOL", 1e-14)
        monkeypatch.setattr(transport, "LIFT_MAX_ITER", 2)
        g, H, W_proj, _ = _lift_fixture()
        caplog.set_level(logging.DEBUG, logger="otsheaf.transport")
        with pytest.raises(SinkhornDivergence, match="entropic pass") as exc:
            edge_plans(g.edges, H @ W_proj, 0.5)
        m = re.search(r"worst edge (\d+) \((\d+), (\d+)\)", str(exc.value))
        assert m is not None
        e, i, j = (int(x) for x in m.groups())
        assert (i, j) == tuple(g.edges[e])
        records = [r for r in caplog.records if r.name == "otsheaf.transport"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        assert "entropic pass: 2 iterations" in records[0].getMessage()

    def test_truncated_root_raises_though_marginals_are_exact(self,
                                                              monkeypatch):
        """The plan meets its marginals for any root estimate, so only the
        scaling-form residual can tell a truncated Newton solve."""
        g, H, W_proj, _ = _lift_fixture()
        monkeypatch.setattr(transport, "LIFT_MAX_ITER", 1)
        monkeypatch.setattr(transport, "LIFT_TOL", 1.0)
        plans = edge_plans(g.edges, H @ W_proj, 0.5)
        M = normalize_to_measure(H @ W_proj)
        I, J = g.edges[:, 0], g.edges[:, 1]
        assert np.abs(plans.sum(axis=2) - M[I]).max() <= 1e-15
        assert np.abs(plans.sum(axis=1) - M[J]).max() <= 1e-15
        monkeypatch.setattr(transport, "LIFT_TOL", 1e-14)
        with pytest.raises(SinkhornDivergence, match="scaling residual"):
            edge_plans(g.edges, H @ W_proj, 0.5)

    def test_one_debug_record_per_pass(self, caplog):
        g, H, W_proj, _ = _lift_fixture()
        caplog.set_level(logging.DEBUG, logger="otsheaf.transport")
        edge_plans(g.edges, H @ W_proj, 0.5)
        msgs = [r.getMessage() for r in caplog.records
                if r.name == "otsheaf.transport"]
        assert [msg.split(" pass:")[0] for msg in msgs] == ["entropic"]
        assert all("iterations, scaling residual" in msg for msg in msgs)

    def test_traced_peak_stays_near_output_size(self):
        """Guards against iterating on dense (m, p, p) arrays again: the old
        dense loop peaked near 9-11x the returned plans on this fixture."""
        g, feats, _ = synthetic_dataset(n=60, num_classes=3, d0=16, seed=0)
        W_proj = np.random.default_rng(0).normal(size=(16, 16)) / 4.0
        tracemalloc.start()
        try:
            plans = edge_plans(g.edges, feats.H @ W_proj, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plans.shape == (193, 16, 16)
        assert peak < 4 * plans.nbytes


def _assert_structured_optimum(plans, mu, nu, eps):
    """Finite, nonnegative, on the marginals, and of the Gibbs form
    P_ab * P_ba = c^2 * P_aa * P_bb that every diag(u) K diag(v) has."""
    assert np.isfinite(plans).all()
    assert plans.min() >= 0.0
    assert np.abs(plans.sum(axis=2) - mu).max() <= 1e-13
    assert np.abs(plans.sum(axis=1) - nu).max() <= 1e-13
    c = np.exp(-2.0 / eps)
    if c == 0.0:
        return
    d = np.einsum("eaa->ea", plans)
    gibbs = c * c * d[:, :, None] * d[:, None, :]
    off = ~np.eye(plans.shape[1], dtype=bool)
    err = np.abs(plans * plans.transpose(0, 2, 1) - gibbs)[:, off]
    assert (err <= 1e-10 * gibbs[:, off]).all()


@pytest.fixture(scope="module")
def n300():
    g, feats, labels = synthetic_dataset(n=300, num_classes=5, d0=64, seed=0)
    return Dataset(g, feats, labels, make_split(labels, per_class=20, seed=0))


class TestClosedForm:
    """The structured lift on inputs that stress the scalar root."""

    def _check(self, g_edges, H, W_proj, eps):
        plans = edge_plans(g_edges, H @ W_proj, eps)
        M = normalize_to_measure(H @ W_proj)
        _assert_structured_optimum(plans, M[g_edges[:, 0]], M[g_edges[:, 1]],
                                   eps)
        return plans

    @pytest.mark.parametrize("eps", [0.5, 5.0])
    def test_identical_endpoint_measures(self, eps):
        g, H, W_proj, _ = _lift_fixture()
        H[1] = H[0]
        plans = self._check(g.edges, H, W_proj, eps)
        np.testing.assert_allclose(plans[0], plans[0].T, rtol=1e-14, atol=0)

    def test_one_dimensional_stalk(self):
        g, H, W_proj, _ = _lift_fixture(p=1)
        plans = self._check(g.edges, H, W_proj, 0.5)
        np.testing.assert_allclose(plans, 1.0, rtol=0, atol=1e-15)

    def test_kernel_underflow_gives_unregularized_plan(self):
        """At eps=1e-3, c = exp(-2000) is 0 and the plan is the exact OT
        plan of the basis cost: min(mu, nu) on the diagonal."""
        g, H, W_proj, _ = _lift_fixture()
        eps = 1e-3
        assert np.exp(-2.0 / eps) == 0.0
        plans = self._check(g.edges, H, W_proj, eps)
        M = normalize_to_measure(H @ W_proj)
        np.testing.assert_allclose(
            np.einsum("eaa->ea", plans),
            np.minimum(M[g.edges[:, 0]], M[g.edges[:, 1]]), rtol=0, atol=1e-15)

    def test_large_eps_approaches_independent_coupling(self):
        g, H, W_proj, _ = _lift_fixture()
        plans = self._check(g.edges, H, W_proj, 50.0)
        M = normalize_to_measure(H @ W_proj)
        indep = M[g.edges[:, 0], :, None] * M[g.edges[:, 1], None, :]
        np.testing.assert_allclose(plans, indep, rtol=0, atol=0.05)

    @pytest.mark.parametrize("eps", [0.05, 0.1])
    def test_small_eps_lifts_n300(self, n300, eps):
        state = init_state(n300, TrainConfig(d_v=16, lift_eps=eps))
        M = normalize_to_measure(n300.feats.H @ state.params.W_proj)
        E = n300.g.edges
        _assert_structured_optimum(state.ctx.plans, M[E[:, 0]], M[E[:, 1]], eps)

    @pytest.mark.parametrize("eps", [0.05, 0.5, 5.0])
    def test_iterations_do_not_grow_with_eps(self, n300, eps, caplog):
        """A cost guard: a scaling loop needs 115 sweeps on this graph at
        eps=0.5 and more as eps shrinks; the scalar root needs a handful
        at any eps."""
        caplog.set_level(logging.DEBUG, logger="otsheaf.transport")
        W_proj = np.random.default_rng(0).normal(size=(64, 16)) / 4.0
        edge_plans(n300.g.edges, n300.feats.H @ W_proj, eps)
        msgs = [r.getMessage() for r in caplog.records
                if r.name == "otsheaf.transport"]
        assert len(msgs) == 1
        m = re.search(r"entropic pass: (\d+) iterations", msgs[0])
        assert int(m.group(1)) <= 64
