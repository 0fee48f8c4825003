import csv
import dataclasses

import numpy as np
import pytest

from otsheaf.calibration import (
    calibrate_prediction,
    init_prior,
    kl_term,
    node_kappa,
    posterior_update,
)
from otsheaf.diffusion import DiffusionConfig, afm_filter, fuse, predict, svr_diffuse
from otsheaf.graphs import Graph, Labels, NodeFeatures, SplitMask
from otsheaf.laplacian import (
    assemble_laplacian,
    normalized_range_gap,
    normalized_laplacian,
)
from otsheaf.training import (
    CURVE_COLUMNS,
    ContractionStats,
    Dataset,
    EpochReport,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    fit,
    init_state,
    oversmoothing_sweep,
    pac_bayes_bound,
    risk_variance_series,
    stability_bound,
    stability_metric,
    total_loss,
    train_epoch,
    write_curves,
    write_reliability,
)
from otsheaf.transport import restrictions_from_plans


def two_cluster_dataset(n_per=10, noise=0.05, seed=0, cross_edges=1):
    """Two feature-separated label groups, mostly intra-group edges."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per
    y = np.repeat([0, 1], n_per)
    H = np.zeros((n, 4))
    H[np.arange(n), y] = 1.0
    H += rng.normal(0.0, noise, size=H.shape)
    H[:, 2:] = rng.uniform(0.3, 0.7, size=(n, 2))
    edges = []
    for c in (0, 1):
        base = c * n_per
        for k in range(n_per):
            edges.append((base + k, base + (k + 1) % n_per))
    for k in range(cross_edges):
        edges.append((k, n_per + k))
    g = Graph.from_edges(n, edges)
    order = rng.permutation(n)
    split = SplitMask(train=np.sort(order[:n // 2]),
                      val=np.sort(order[n // 2:n // 2 + n // 4]),
                      test=np.sort(order[n // 2 + n // 4:]), seed=seed)
    return Dataset(g=g, feats=NodeFeatures(H=H, d0=4),
                   labels=Labels(y=y, C=2), split=split)


def small_cfg(**kw):
    base = dict(epochs=3, d_v=4, d_e=2, gap_steps=1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def fake_reports(bounds):
    return [EpochReport(epoch=t, emp_risk=float(b), raw_loss=float(b),
                        kl=0.0, spec=0.0, bound=float(b), lambda2=1.0,
                        train_acc=1.0, val_acc=1.0, test_acc=1.0, ece=0.0,
                        cg_iters=1, wall_ms=1.0)
            for t, b in enumerate(bounds)]


class TestLossArithmetic:
    def test_zero_weights_reduce_to_risk(self):
        cfg = small_cfg(lambda_kl=0.0, lambda_spec=0.0)
        assert total_loss(0.7, 5.0, 9.0, cfg) == pytest.approx(0.7)

    def test_unit_components(self):
        assert total_loss(1.0, 1.0, 1.0, small_cfg()) == pytest.approx(3.0)

    def test_random_values_match_arithmetic(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            e, k, s = rng.uniform(0, 2, 3)
            lk, ls = rng.uniform(0, 2, 2)
            cfg = small_cfg(lambda_kl=lk, lambda_spec=ls)
            assert total_loss(e, k, s, cfg) == pytest.approx(e + lk * k + ls * s)

    def test_bound_reduces_to_risk(self):
        assert pac_bayes_bound(0.4, 0.0, 0.0) == pytest.approx(0.4)

    def test_bound_sum(self):
        assert pac_bayes_bound(0.5, 0.2, 0.1) == pytest.approx(0.8)

    def test_bound_dominates_risk(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            e, k, s = rng.uniform(0, 1, 3)
            assert pac_bayes_bound(e, k, s) >= e


class TestConfig:
    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            TrainConfig(delta=1.5)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            TrainConfig(lambda_kl=-0.1)

    def test_rejects_unknown_optimizer(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lbfgs")

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError, match="n_layers"):
            TrainConfig(n_layers=0)

    def test_rejects_negative_cheb_order(self):
        with pytest.raises(ValueError, match="cheb_order"):
            TrainConfig(cheb_order=-1)

    @pytest.mark.parametrize("cap", [0.0, -1.0])
    def test_rejects_nonpositive_gamma_cap(self, cap):
        with pytest.raises(ValueError, match="gamma_cap"):
            TrainConfig(gamma_cap=cap)

    @pytest.mark.parametrize("eps", [0.0, -0.5, float("nan")])
    def test_rejects_nonpositive_lift_eps(self, eps):
        with pytest.raises(ValueError, match="lift_eps"):
            TrainConfig(lift_eps=eps)

    @pytest.mark.parametrize("name", ["lr", "weight_decay", "dt", "cg_tol",
                                      "lambda_kl", "lambda_spec"])
    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_rejects_negative_or_nan_rate(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["a0", "b0"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_rejects_prior_below_one(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [("epochs", -1), ("patience", 0),
                                             ("gap_steps", -1),
                                             ("cg_max_iter", 0)])
    def test_rejects_bad_count(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})


class TestTrainEpoch:
    def test_zero_rates_leave_params_unchanged(self):
        data = two_cluster_dataset()
        cfg = small_cfg(lr=0.0, weight_decay=0.0, gap_steps=0)
        state = init_state(data, cfg)
        before = {k: v.copy() for k, v in state.params.trainable().items()}
        state, rep = train_epoch(state, data, cfg)
        for k, v in state.params.trainable().items():
            assert np.array_equal(v, before[k])
        assert np.isfinite(rep.raw_loss)

    def test_one_gap_estimate_per_epoch(self, monkeypatch):
        import otsheaf.training as training
        calls = []
        real = training.normalized_range_gap

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "normalized_range_gap", counted)
        data = two_cluster_dataset()
        cfg = small_cfg(gap_steps=0)
        train_epoch(init_state(data, cfg), data, cfg)
        assert len(calls) == 1

    def test_one_csr_build_per_epoch(self, monkeypatch):
        # the tape's operator serves the CG solves and the gap estimate
        from otsheaf.laplacian import SheafLaplacian
        builds = []
        real = SheafLaplacian.to_csr

        def counted(self):
            if self._csr is None:
                builds.append(1)
            return real(self)

        monkeypatch.setattr(SheafLaplacian, "to_csr", counted)
        data = two_cluster_dataset()
        cfg = small_cfg(gap_steps=0)
        train_epoch(init_state(data, cfg), data, cfg)
        assert len(builds) == 1

    def test_bound_identity(self):
        data = two_cluster_dataset()
        cfg = small_cfg(lambda_kl=0.7, lambda_spec=0.3)
        state = init_state(data, cfg)
        _, rep = train_epoch(state, data, cfg)
        assert rep.bound == pytest.approx(
            rep.emp_risk + 0.7 * rep.kl + 0.3 * rep.spec, abs=1e-15)

    def test_lambda2_never_drops_within_epoch(self):
        data = two_cluster_dataset()
        cfg = small_cfg(gap_steps=3)
        state = init_state(data, cfg)
        plans, params = state.plans, state.params
        L = assemble_laplacian(restrictions_from_plans(data.g, plans, params.W_theta))
        pre = normalized_range_gap(L, seed=cfg.seed).lambda2
        _, rep = train_epoch(state, data, cfg)
        assert rep.lambda2 >= pre - 1e-8

    def test_divergence_aborts(self):
        # a large enough penalty weight pushes the loss over the abort limit
        data = two_cluster_dataset()
        cfg = small_cfg(lambda_kl=1e9)
        state = init_state(data, cfg)
        with pytest.raises(TrainingDiverged):
            train_epoch(state, data, cfg)

    def test_one_edge_toy_matches_module_chain(self):
        g = Graph.from_edges(2, [(0, 1)])
        rng = np.random.default_rng(5)
        H = rng.uniform(0.4, 1.2, size=(2, 3))
        y = np.array([0, 1])
        split = SplitMask(train=np.array([0, 1]), val=np.array([0, 1]),
                          test=np.array([0, 1]), seed=0)
        data = Dataset(g=g, feats=NodeFeatures(H=H, d0=3),
                       labels=Labels(y=y, C=2), split=split)
        cfg = small_cfg(d_v=2, d_e=2, epochs=1, gap_steps=0)
        state = init_state(data, cfg)
        params = state.params.copy()
        X0 = state.X0.copy()
        plans = state.plans.copy()
        _, rep = train_epoch(state, data, cfg)

        L = assemble_laplacian(restrictions_from_plans(g, plans, params.W_theta))
        dcfg = DiffusionConfig(dt=cfg.dt, cg_tol=cfg.cg_tol,
                               cg_max_iter=cfg.cg_max_iter)
        h_svr, info = svr_diffuse(L, X0.reshape(-1), dcfg)
        h_afm, _, _ = afm_filter(normalized_laplacian(L), X0.reshape(-1),
                                 params.gamma, scale=1.0)
        Z = fuse(h_svr.reshape(X0.shape), h_afm.reshape(X0.shape),
                 params.W_mix)
        y_hat = predict(Z, params.W_cls)
        prior = init_prior(g.m, cfg.a0, cfg.b0)
        post = posterior_update(prior, y_hat, g, data.labels, split.train,
                                gamma_cap=cfg.gamma_cap, n_msg=cfg.n_layers)
        kappa = node_kappa(post, g)
        cal = calibrate_prediction(y_hat, kappa)
        ce = -np.log(cal[np.arange(2), y]).mean()
        kl = kl_term(post, prior, 2, cfg.delta)

        assert rep.cg_iters == info.total_iterations
        assert rep.kl == pytest.approx(kl, abs=1e-12)
        assert rep.emp_risk == pytest.approx(
            np.clip(ce / np.log(2), 0, 1), abs=1e-12)
        assert rep.lambda2 == pytest.approx(
            normalized_range_gap(L, seed=cfg.seed).lambda2, abs=1e-9)
        assert rep.train_acc == pytest.approx(
            (cal.argmax(axis=1) == y).mean())


class TestFit:
    def test_zero_epochs_returns_initial_params(self):
        data = two_cluster_dataset()
        cfg = small_cfg(epochs=0)
        params, reports = fit(data, cfg)
        fresh = init_state(data, cfg).params
        assert reports == []
        for k, v in params.trainable().items():
            assert np.array_equal(v, fresh.trainable()[k])

    def test_separable_toy_reaches_full_train_accuracy(self):
        data = two_cluster_dataset(noise=0.02)
        cfg = small_cfg(epochs=200, lr=0.5, weight_decay=0.0, gap_steps=0,
                        patience=200)
        params, reports = fit(data, cfg)
        assert max(r.train_acc for r in reports) == pytest.approx(1.0)

    def test_same_seed_reports_identical(self):
        data = two_cluster_dataset()
        cfg = small_cfg(epochs=3)
        _, a = fit(data, cfg)
        _, b = fit(data, cfg)
        skip = {"wall_ms"}
        for ra, rb in zip(a, b):
            for f in dataclasses.fields(EpochReport):
                if f.name in skip:
                    continue
                assert getattr(ra, f.name) == getattr(rb, f.name), f.name

    def test_patience_stops_stalled_run(self):
        data = two_cluster_dataset()
        cfg = small_cfg(epochs=50, lr=0.0, patience=5, gap_steps=0)
        _, reports = fit(data, cfg)
        assert len(reports) == 6

    def test_returned_params_hit_best_validation_score(self):
        data = two_cluster_dataset()
        cfg = small_cfg(epochs=10, lr=0.3, patience=10)
        params, reports = fit(data, cfg)
        best = max(r.val_acc for r in reports)
        res = evaluate(params, data, cfg)
        assert res.val_acc == pytest.approx(best)

    def test_adam_runs(self):
        data = two_cluster_dataset()
        cfg = small_cfg(epochs=3, optimizer="adam")
        _, reports = fit(data, cfg)
        assert len(reports) == 3
        assert all(np.isfinite(r.raw_loss) for r in reports)

    def test_fd_check_smoke(self, caplog):
        data = two_cluster_dataset()
        cfg = small_cfg(epochs=1, fd_check=True, d_v=2, d_e=2)
        fit(data, cfg)


class TestContractionSeries:
    def test_needs_ten_epochs(self):
        with pytest.raises(ValueError):
            risk_variance_series(fake_reports(np.ones(5)))

    def test_constant_series(self):
        stats = risk_variance_series(fake_reports(np.full(20, 0.4)))
        assert stats.monotone_fraction == pytest.approx(1.0)
        assert stats.rate == 0.0

    def test_geometric_series_rate(self):
        bounds = 0.9 ** np.arange(30)
        stats = risk_variance_series(fake_reports(bounds))
        assert stats.monotone_fraction == pytest.approx(1.0)
        assert stats.rate == pytest.approx(0.9, abs=1e-9)

    def test_increasing_series_fraction_zero(self):
        stats = risk_variance_series(fake_reports(np.arange(12.0)))
        assert stats.monotone_fraction == 0.0

    def test_warmup_window(self):
        # rises for 10 epochs, then strictly decreasing
        bounds = np.concatenate([np.linspace(0.1, 0.5, 10),
                                 np.linspace(0.5, 0.2, 10)])
        stats = risk_variance_series(fake_reports(bounds), warmup=10)
        assert stats.monotone_fraction == pytest.approx(1.0)
        assert isinstance(stats, ContractionStats)


class TestStability:
    def test_identical_params_give_zero(self):
        data = two_cluster_dataset()
        cfg = small_cfg()
        params = init_state(data, cfg).params
        assert stability_metric(params, params, data, cfg) == 0.0

    def test_drift_positive_after_training(self):
        # best-validation selection can hand back the initial parameters,
        # so step the state directly to guarantee movement
        data = two_cluster_dataset()
        cfg = small_cfg(epochs=3, lr=0.5)
        state = init_state(data, cfg)
        start = state.params.copy()
        for _ in range(3):
            state, _ = train_epoch(state, data, cfg)
        assert stability_metric(state.params, start, data, cfg) > 0.0

    def test_bound_formula(self):
        val = stability_bound(4.0, 1.0, 0.1, 2.0, 1e-8, 50)
        assert val == pytest.approx(2.0 * np.exp(-0.1) + 5e-7)


class TestOversmoothingSweep:
    def test_rows_cover_grid(self):
        data = two_cluster_dataset()
        cfg = small_cfg(epochs=2)
        rows = oversmoothing_sweep(data, [1, 2], cfg=cfg)
        assert len(rows) == 4
        keys = {(r["variant"], r["depth"]) for r in rows}
        assert ("scalar_edge", 2) in keys
        assert all(0.0 <= r["nrs"] <= 1.0 + 1e-9 for r in rows)

    def test_rejects_depth_out_of_range(self):
        data = two_cluster_dataset()
        with pytest.raises(ValueError):
            oversmoothing_sweep(data, [9], cfg=small_cfg())


class TestOutputs:
    def test_curve_csv_layout(self, tmp_path):
        reports = fake_reports([0.5, 0.4, 0.3, 0.2, 0.1,
                                0.09, 0.08, 0.07, 0.06, 0.05])
        path = tmp_path / "curves.csv"
        write_curves(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CURVE_COLUMNS)
        assert len(rows) == 11
        assert rows[1][0] == "0"
        assert float(rows[1][1]) == pytest.approx(0.5)

    def test_reliability_csv(self, tmp_path):
        path = tmp_path / "rel.csv"
        write_reliability([(0.0, 0.5, 0.4, 0.5, 3), (0.5, 1.0, 0.9, 1.0, 2)],
                          path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "bin_low"
        assert len(rows) == 3
        assert rows[2][4] == "2"
