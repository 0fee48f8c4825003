import numpy as np
import pytest
from scipy import integrate, special, stats

import otsheaf.calibration as calibration
from otsheaf.calibration import (
    ClassCoupling,
    PosteriorState,
    beta_kl,
    beta_variance,
    calibrate_prediction,
    class_coupling,
    ece,
    kl_term,
    node_kappa,
    posterior_update,
    variance_bound,
)
from otsheaf.graphs import Graph, Labels


def beta_kl_quadrature(a1, b1, a0, b0):
    p = stats.beta(a1, b1)
    q = stats.beta(a0, b0)

    def integrand(x):
        return p.pdf(x) * (p.logpdf(x) - q.logpdf(x))

    val, _ = integrate.quad(integrand, 0.0, 1.0, limit=200,
                            points=[1e-6, 0.5, 1 - 1e-6])
    return val


# the coupling of a hand-built posterior, which node_kappa and kl_term
# never read
NO_COUPLING = ClassCoupling(Pi=np.zeros((0, 0)), c_het=0.0)


def make_posterior(kappa, absorbed=1.0, a0=1.0, b0=1.0):
    kappa = np.asarray(kappa, dtype=np.float64)
    total = np.full_like(kappa, a0 + b0 + absorbed)
    return PosteriorState(alpha_bar=kappa * total, beta_bar=(1 - kappa) * total,
                          kappa_bar=kappa, a0=a0, b0=b0, sweeps=1,
                          converged=True, coupling=NO_COUPLING)


def labeled_path_fixture():
    # labeled core {0,1,2,3} covering every class pair: edge (0,1) is 0-0,
    # (0,2) and (1,2) are 0-1, (2,3) is 1-1; node 4 is an unlabeled leaf
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    labels = Labels(y=np.array([0, 0, 1, 1, 0]), C=2)
    mask = np.array([0, 1, 2, 3])
    return g, labels, mask


class TestPrior:
    def test_init_values(self):
        # no messages leave every edge at the Beta(a0, b0) prior
        g, labels, mask = labeled_path_fixture()
        pred = np.full((g.n, 2), 0.5)
        p = posterior_update(2.0, 3.0, pred, g, labels, mask, gamma_cap=50.0,
                             n_msg=0)
        assert np.all(p.alpha_bar == 2.0) and np.all(p.beta_bar == 3.0)
        assert np.allclose(p.kappa_bar, 0.4)
        assert (p.a0, p.b0) == (2.0, 3.0)

    def test_rejects_below_one(self):
        g, labels, mask = labeled_path_fixture()
        with pytest.raises(ValueError):
            posterior_update(0.5, 1.0, np.full((g.n, 2), 0.5), g, labels,
                             mask, gamma_cap=50.0, n_msg=1)


class TestBetaKL:
    def test_matches_quadrature(self):
        # shapes >= 1 keep the integrand bounded for the numerical oracle
        rng = np.random.default_rng(7)
        for _ in range(12):
            a1, b1, a0, b0 = rng.uniform(1.0, 8.0, size=4)
            closed = beta_kl(a1, b1, a0, b0)
            quad = beta_kl_quadrature(a1, b1, a0, b0)
            assert abs(closed - quad) < 1e-7 * max(1.0, abs(quad))

    def test_arcsine_against_uniform(self):
        # KL(Beta(1/2,1/2) || Beta(1,1)) = ln(4/pi), covering shapes below 1
        assert beta_kl(0.5, 0.5, 1.0, 1.0) == pytest.approx(np.log(4 / np.pi))

    def test_zero_iff_equal(self):
        assert beta_kl(2.5, 1.5, 2.5, 1.5) == pytest.approx(0.0, abs=1e-12)
        assert beta_kl(3.0, 1.0, 1.0, 1.0) > 0

    def test_vectorized(self):
        a = np.array([1.0, 2.0, 5.0])
        out = beta_kl(a, 1.0, 1.0, 1.0)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(0.0, abs=1e-12)


# scipy.special is the oracle here only; the package evaluates ln Gamma and
# psi itself (tests/test_no_scipy_special.py keeps it so)
LOG_GRID = np.geomspace(1e-3, 1e4, 4001)


def _scaled_error(got, ref):
    """|got - ref| relative to |ref|, absolute where |ref| < 1 (near zeros)."""
    return np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)


def _betaln(a, b):
    lg, _ = calibration._lgamma_digamma(np.concatenate([a, b, a + b]))
    return lg[:a.size] + lg[a.size:2 * a.size] - lg[2 * a.size:]


def beta_kl_scipy(a1, b1, a0, b0):
    return (special.betaln(a0, b0) - special.betaln(a1, b1)
            + (a1 - a0) * special.digamma(a1)
            + (b1 - b0) * special.digamma(b1)
            + (a0 - a1 + b0 - b1) * special.digamma(a1 + b1))


class TestSpecialFunctions:
    def test_lgamma_and_digamma_match_scipy_on_a_log_grid(self):
        lg, psi = calibration._lgamma_digamma(LOG_GRID)
        assert _scaled_error(lg, special.gammaln(LOG_GRID)).max() <= 1e-13
        assert _scaled_error(psi, special.digamma(LOG_GRID)).max() <= 1e-13

    def test_both_sides_of_the_shift(self):
        # the recurrence stops at LGAMMA_SHIFT and the series starts there
        x = np.array([np.nextafter(calibration.LGAMMA_SHIFT, 0.0),
                      float(calibration.LGAMMA_SHIFT), 1.0, 2.0])
        lg, psi = calibration._lgamma_digamma(x)
        assert _scaled_error(lg, special.gammaln(x)).max() <= 1e-13
        assert _scaled_error(psi, special.digamma(x)).max() <= 1e-13
        assert abs(lg[2]) <= 1e-14 and abs(lg[3]) <= 1e-14  # ln 0! = ln 1! = 0

    def test_betaln_matches_scipy_on_a_log_grid(self):
        g = np.geomspace(1e-3, 1e4, 201)
        a, b = (v.ravel() for v in np.meshgrid(g, g))
        err = np.abs(_betaln(a, b) - special.betaln(a, b))
        # within two decades of each other the three-term form keeps 1e-13
        near = np.maximum(a, b) <= 100.0 * np.minimum(a, b)
        ref = special.betaln(a, b)
        assert (err / np.maximum(np.abs(ref), 1.0))[near].max() <= 1e-13
        # beyond, it keeps 1e-13 of its largest ln Gamma term (beta_kl's
        # docstring): betaln(1e4, 1e-3) = 6.9 from terms near 8e4
        terms = (np.abs(special.gammaln(a)) + np.abs(special.gammaln(b))
                 + np.abs(special.gammaln(a + b)))
        assert (err / np.maximum(terms, 1.0)).max() <= 1e-13

    def test_beta_kl_matches_scipy_closed_form(self):
        rng = np.random.default_rng(11)
        a1, b1 = rng.uniform(0.05, 60.0, (2, 500))
        a1[:100] = rng.uniform(0.05, 1.0, 100)   # shapes below 1
        a0, b0 = rng.uniform(1.0, 5.0, 2)
        got = beta_kl(a1, b1, a0, b0)
        ref = beta_kl_scipy(a1, b1, a0, b0)
        assert _scaled_error(got, ref).max() <= 1e-12
        # the summed KL that kl_term reports
        assert abs(got.sum() - ref.sum()) <= 1e-13 * abs(ref.sum())

    def test_beta_kl_broadcasts_priors_and_shapes(self):
        a1 = np.array([[0.5, 2.0], [3.0, 7.5]])
        b1 = np.array([1.5, 4.0])
        a0 = np.array([[1.0], [2.0]])
        got = beta_kl(a1, b1, a0, 3.0)
        assert got.shape == (2, 2)
        ref = beta_kl_scipy(a1, b1, a0, 3.0)
        assert _scaled_error(got, ref).max() <= 1e-12
        assert np.ndim(beta_kl(2.0, 3.0, 1.0, 1.0)) == 0


class TestVarianceFormulaAndBound:
    def test_beta_variance_matches_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = rng.uniform(0.2, 9.0, size=2)
            assert beta_variance(a, b) == pytest.approx(stats.beta(a, b).var())

    def test_claimed_bound_has_counterexample(self):
        # gamma=2 (uniform prior), n=7 messages, s=3 agreements:
        # Beta(4, 5) variance 20/810 exceeds the claimed envelope
        var = beta_variance(1.0 + 3, 1.0 + 4)
        bound = variance_bound(2.0, 7.0)
        assert var == pytest.approx(20.0 / 810.0)
        assert bound == pytest.approx(2.0 / 81.0 * 0.9)
        assert var > bound

    def test_quarter_rule_holds_everywhere(self):
        # 1/(4(gamma+n+1)) is a true uniform envelope for the conjugate family
        for gamma in [0.5, 1.0, 2.0, 4.0, 10.0]:
            a0 = b0 = gamma / 2.0
            for n in range(0, 21):
                for s in range(0, n + 1):
                    var = beta_variance(a0 + s, b0 + (n - s))
                    assert var <= 1.0 / (4.0 * (gamma + n + 1)) + 1e-15

    def test_bound_decreases_in_n(self):
        vals = [variance_bound(2.0, n) for n in range(0, 30)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            variance_bound(0.0, 5.0)


class TestClassCoupling:
    def test_constant_kappa_gives_rank_one(self):
        g, labels, mask = labeled_path_fixture()
        kappa = np.full(g.m, 0.7)
        cc = class_coupling(kappa, labels, g, mask)
        assert np.allclose(cc.Pi, 0.7)
        assert cc.c_het == pytest.approx(0.7 * labels.C)

    def test_unlabeled_edges_excluded(self):
        g, labels, mask = labeled_path_fixture()
        kappa = np.full(g.m, 0.7)
        # edge (3,4) touches the unlabeled node; poisoning it changes nothing
        e = [tuple(x) for x in g.edges].index((3, 4))
        kappa[e] = 0.0
        cc = class_coupling(kappa, labels, g, mask)
        assert np.allclose(cc.Pi, 0.7)

    def test_bucket_means(self):
        g, labels, mask = labeled_path_fixture()
        kappa = np.zeros(g.m)
        by_edge = {(0, 1): 0.9, (0, 2): 0.2, (1, 2): 0.4, (2, 3): 0.6,
                   (3, 4): 1.0}
        for e, (i, j) in enumerate(map(tuple, g.edges)):
            kappa[e] = by_edge[(i, j)]
        cc = class_coupling(kappa, labels, g, mask)
        assert np.allclose(cc.Pi, [[0.9, 0.3], [0.3, 0.6]])

    def test_empty_bucket_is_zero(self):
        # drop node 3 from the labeled set: no 1-1 edge remains
        g, labels, _ = labeled_path_fixture()
        cc = class_coupling(np.full(g.m, 0.7), labels, g, np.array([0, 1, 2]))
        assert cc.Pi[1, 1] == 0.0
        assert cc.Pi[0, 0] == pytest.approx(0.7)

    def test_no_labeled_edges_gives_zero(self):
        g, labels, _ = labeled_path_fixture()
        cc = class_coupling(np.full(g.m, 0.7), labels, g, np.array([0, 4]))
        assert np.all(cc.Pi == 0.0)
        assert cc.c_het == 0.0

    def test_class_relabel_equivariance(self):
        g, labels, mask = labeled_path_fixture()
        rng = np.random.default_rng(4)
        kappa = rng.uniform(size=g.m)
        perm = np.array([1, 0])
        swapped = Labels(y=perm[labels.y], C=2)
        a = class_coupling(kappa, labels, g, mask).Pi
        b = class_coupling(kappa, swapped, g, mask).Pi
        assert np.allclose(a, b[np.ix_(perm, perm)])

    def test_symmetry(self):
        g, labels, mask = labeled_path_fixture()
        rng = np.random.default_rng(0)
        cc = class_coupling(rng.uniform(size=g.m), labels, g, mask)
        assert np.allclose(cc.Pi, cc.Pi.T)


class TestPosteriorUpdate:
    def test_agreeing_predictions_raise_kappa(self):
        g, labels, mask = labeled_path_fixture()
        pred = np.zeros((g.n, 2))
        pred[:, 0] = 1.0  # every edge agrees perfectly
        post = posterior_update(1.0, 1.0, pred, g, labels, mask,
                                gamma_cap=50.0, n_msg=1)
        assert np.all(post.kappa_bar > 0.5)

    def test_disagreeing_predictions_lower_kappa(self):
        g = Graph.from_edges(2, [(0, 1)])
        labels = Labels(y=np.array([0, 1]), C=2)
        pred = np.array([[1.0, 0.0], [0.0, 1.0]])
        post = posterior_update(1.0, 1.0, pred, g, labels,
                                np.array([0, 1]), gamma_cap=50.0, n_msg=1)
        assert np.all(post.kappa_bar < 0.5)

    def test_uniform_predictions_match_hand_formula(self):
        # s = n_msg / C with a neutral coupling ratio, so
        # kappa = (a0 + n/C) / (a0 + b0 + n) exactly
        g, labels, mask = labeled_path_fixture()
        pred = np.full((g.n, 2), 0.5)
        for a0, b0, n_msg in [(1.0, 1.0, 1), (2.0, 1.0, 4), (1.5, 3.0, 7)]:
            post = posterior_update(a0, b0, pred, g, labels, mask,
                                    gamma_cap=50.0, n_msg=n_msg)
            want = (a0 + n_msg / 2) / (a0 + b0 + n_msg)
            assert np.allclose(post.kappa_bar, want)

    def test_concentration_cap(self):
        g, labels, mask = labeled_path_fixture()
        pred = np.zeros((g.n, 2))
        pred[:, 0] = 1.0
        post = posterior_update(1.0, 1.0, pred, g, labels, mask,
                                gamma_cap=50.0, n_msg=500)
        assert np.all(post.alpha_bar + post.beta_bar <= 50.0 + 1e-9)
        assert np.all(post.alpha_bar > 0) and np.all(post.beta_bar > 0)

    def test_carries_the_coupling_of_its_final_means(self):
        g, labels, mask = labeled_path_fixture()
        pred = np.random.default_rng(3).dirichlet(np.ones(2), size=g.n)
        post = posterior_update(1.0, 1.0, pred, g, labels, mask,
                                gamma_cap=50.0, n_msg=1)
        want = class_coupling(post.kappa_bar, labels, g, mask)
        assert np.array_equal(post.coupling.Pi, want.Pi)
        assert post.coupling.c_het == want.c_het

    def test_cap_preserves_mean(self):
        g, labels, mask = labeled_path_fixture()
        pred = np.zeros((g.n, 2))
        pred[:, 0] = 1.0
        loose = posterior_update(1.0, 1.0, pred, g, labels, mask,
                                 gamma_cap=1e9, n_msg=500)
        capped = posterior_update(1.0, 1.0, pred, g, labels, mask,
                                  gamma_cap=50.0, n_msg=500)
        assert np.allclose(loose.kappa_bar, capped.kappa_bar)

    def test_convergence_flag_semantics(self, monkeypatch):
        # this fixture contracts geometrically but needs 11 sweeps for 1e-6:
        # the default budget reports honestly, a wider one converges
        g, labels, mask = labeled_path_fixture()
        rng = np.random.default_rng(1)
        pred = rng.dirichlet(np.ones(2), size=g.n)
        tight = posterior_update(1.0, 1.0, pred, g, labels, mask,
                                 gamma_cap=50.0, n_msg=1)
        assert not tight.converged and tight.sweeps == 10
        monkeypatch.setattr(calibration, "POSTERIOR_MAX_SWEEPS", 30)
        loose = posterior_update(1.0, 1.0, pred, g, labels, mask,
                                 gamma_cap=50.0, n_msg=1)
        assert loose.converged and loose.sweeps <= 15

    def test_parameters_stay_valid(self):
        g, labels, mask = labeled_path_fixture()
        rng = np.random.default_rng(2)
        for trial in range(20):
            pred = rng.dirichlet(np.full(2, 0.3), size=g.n)
            post = posterior_update(1.0, 1.0, pred, g, labels, mask,
                                    gamma_cap=50.0,
                                    n_msg=rng.integers(1, 40))
            assert np.all(post.alpha_bar >= 1.0 - 1e-12) or np.all(post.alpha_bar > 0)
            assert np.all(post.beta_bar > 0)
            assert np.all((post.kappa_bar > 0) & (post.kappa_bar < 1))

    def test_deterministic(self):
        g, labels, mask = labeled_path_fixture()
        rng = np.random.default_rng(5)
        pred = rng.dirichlet(np.ones(2), size=g.n)
        a = posterior_update(1.0, 1.0, pred, g, labels, mask,
                             gamma_cap=50.0, n_msg=1)
        b = posterior_update(1.0, 1.0, pred, g, labels, mask,
                             gamma_cap=50.0, n_msg=1)
        assert np.array_equal(a.alpha_bar, b.alpha_bar)
        assert np.array_equal(a.beta_bar, b.beta_bar)


class TestNodeKappa:
    def test_path_means(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])  # node 3 isolated
        post = make_posterior([0.2, 0.8])
        k = node_kappa(post, g)
        assert np.allclose(k, [0.2, 0.5, 0.8, 0.5])

    def test_isolated_uses_prior_mean(self):
        g = Graph.from_edges(3, [(0, 1)])
        post = make_posterior([0.9], a0=1.0, b0=3.0)
        assert node_kappa(post, g)[2] == pytest.approx(0.25)


class TestCalibratePrediction:
    def test_kappa_one_identity(self):
        rng = np.random.default_rng(0)
        y = rng.dirichlet(np.ones(4), size=6)
        assert np.allclose(calibrate_prediction(y, np.ones(6)), y)

    def test_kappa_zero_uniform(self):
        rng = np.random.default_rng(0)
        y = rng.dirichlet(np.ones(4), size=6)
        assert np.allclose(calibrate_prediction(y, np.zeros(6)), 0.25)

    def test_rows_remain_distributions(self):
        rng = np.random.default_rng(0)
        y = rng.dirichlet(np.ones(5), size=8)
        out = calibrate_prediction(y, rng.uniform(size=8))
        assert np.allclose(out.sum(axis=1), 1.0)
        assert np.all(out >= 0)


class TestKLTerm:
    def test_prior_equals_posterior(self):
        post = PosteriorState(alpha_bar=np.ones(6), beta_bar=np.ones(6),
                              kappa_bar=np.full(6, 0.5), a0=1.0, b0=1.0,
                              sweeps=0, converged=True, coupling=NO_COUPLING)
        for n, delta in [(10, 0.05), (40, 0.1)]:
            want = np.sqrt(np.log(2 / delta) / (2 * n))
            assert kl_term(post, n, delta) == pytest.approx(want)

    def test_grows_with_deviation(self):
        mild = make_posterior(np.full(6, 0.6), absorbed=2.0)
        sharp = make_posterior(np.full(6, 0.95), absorbed=20.0)
        assert kl_term(sharp, 10, 0.05) > kl_term(mild, 10, 0.05)

    def test_rejects_bad_args(self):
        post = make_posterior([0.5, 0.5])
        with pytest.raises(ValueError):
            kl_term(post, 0, 0.05)
        with pytest.raises(ValueError):
            kl_term(post, 5, delta=1.5)


class TestECE:
    def test_hand_computed_value(self):
        # confidences .55 .65 .95 .95 .75 .85; correctness T F T T F T
        pred = np.array([
            [0.55, 0.45],
            [0.65, 0.35],
            [0.95, 0.05],
            [0.05, 0.95],
            [0.25, 0.75],
            [0.85, 0.15],
        ])
        y = np.array([0, 1, 0, 1, 0, 0])
        labels = Labels(y=y, C=2)
        val, rows = ece(pred, labels, np.arange(6))
        assert val == pytest.approx((0.45 + 0.65 + 0.75 + 0.15 + 2 * 0.05) / 6)
        assert sum(r[4] for r in rows) == 6
        assert len(rows) == 10
        assert rows[9][4] == 2 and rows[9][3] == 1.0

    def test_perfectly_calibrated_bin(self):
        # one bin at confidence .8 with exactly 80% accuracy
        pred = np.tile([0.8, 0.2], (5, 1))
        labels = Labels(y=np.array([0, 0, 0, 0, 1]), C=2)
        val, _ = ece(pred, labels, np.arange(5))
        assert val == pytest.approx(0.0)

    def test_full_confidence_lands_in_top_bin(self):
        pred = np.array([[1.0, 0.0]])
        labels = Labels(y=np.array([0]), C=2)
        val, rows = ece(pred, labels, np.arange(1))
        assert rows[9][4] == 1
        assert val == pytest.approx(0.0)

    def test_bool_mask(self):
        pred = np.array([[0.9, 0.1], [0.6, 0.4]])
        labels = Labels(y=np.array([0, 1]), C=2)
        m = np.array([True, False])
        val, rows = ece(pred, labels, m)
        assert sum(r[4] for r in rows) == 1
