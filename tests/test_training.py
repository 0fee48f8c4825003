import copy
import csv
import dataclasses
import logging
import weakref

import numpy as np
import pytest

from otsheaf.calibration import (
    calibrate_prediction,
    kl_term,
    node_kappa,
    posterior_update,
)
from otsheaf.diffusion import (
    CGConfig,
    chebyshev_apply,
    chebyshev_weights,
    fuse,
    predict,
    svr_diffuse,
)
from otsheaf.graphs import (
    Graph,
    Labels,
    NodeFeatures,
    SplitMask,
    make_split,
    synthetic_dataset,
)
from otsheaf.laplacian import (
    DENSE_CUTOFF,
    NORMALIZED_NULL_TOL,
    _compressed_normalized,
    normalized_range_gap,
)
from otsheaf.model import forward_tape, sheaf_laplacian
from otsheaf.training import (
    CURVE_COLUMNS,
    VARIANTS,
    ContractionStats,
    Dataset,
    EpochReport,
    TrainConfig,
    TrainingDiverged,
    epoch_context,
    evaluate,
    fit,
    init_state,
    oversmoothing_sweep,
    pac_bayes_bound,
    risk_variance_series,
    stability_bound,
    stability_metric,
    train_epoch,
    write_curves,
    write_reliability,
)
from tests.test_laplacian import dense_sls


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
    base = dict(epochs=3, d_v=4, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def benchmark_shape(n, classes, d0, per_class, fit, noise=1.0, **cfg):
    """A benchmark workload's fixture, its fit number `fit` of run seed 1.

    The split seed is the harness's split_seed(1, fit).
    """
    g, feats, labels = synthetic_dataset(n=n, num_classes=classes, d0=d0,
                                         seed=0, noise=noise)
    seed = int(np.random.SeedSequence([1, fit]).generate_state(1)[0])
    data = Dataset(g, feats, labels, make_split(labels, per_class, seed))
    return data, TrainConfig(optimizer="adam", lr=1e-2, seed=0,
                             patience=cfg["epochs"], **cfg)


def count_spectral_calls(monkeypatch) -> dict:
    """Count PSD tests, lambda_max solves and epoch gap estimates."""
    import otsheaf.laplacian as laplacian
    import otsheaf.spectral as spectral
    import otsheaf.training as training
    calls = {"project": 0, "top_eigenvalue": 0, "estimate": 0}
    for mod, name, key in ((spectral, "project", "project"),
                           (laplacian, "top_eigenvalue", "top_eigenvalue"),
                           (training, "normalized_range_gap", "estimate")):
        def counted(*args, real=getattr(mod, name), key=key, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return calls


def count_pipeline_calls(monkeypatch) -> dict:
    """Count forward passes, lifts and posterior updates in `training`."""
    import otsheaf.training as training
    calls = dict.fromkeys(("forward_tape", "edge_plans", "posterior_update"),
                          0)
    for name in calls:
        def counted(*args, real=getattr(training, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(training, name, counted)
    return calls


def assert_same_eval(got, want):
    """Every EvalResult field equal bit for bit."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert repr(a) == repr(b), f.name


def fake_reports(bounds):
    return [EpochReport(epoch=t, emp_risk=float(b), raw_loss=float(b),
                        kl=0.0, spec=0.0, bound=float(b), lambda2=1.0,
                        train_acc=1.0, val_acc=1.0, test_acc=1.0, ece=0.0,
                        cg_iters=1, wall_ms=1.0)
            for t, b in enumerate(bounds)]


class TestLossArithmetic:
    def test_random_values_match_arithmetic(self):
        # raw_loss and bound are both this sum, added in this order
        rng = np.random.default_rng(3)
        for _ in range(20):
            e, k, s = rng.uniform(0, 2, 3)
            assert pac_bayes_bound(e, k, s) == e + k + s

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
    def test_fields_and_config_keys_are_pinned(self):
        # every other trainer setting is a module constant of `training`;
        # a new field or key is a change to this check
        from otsheaf.config import REGISTRY
        assert {f.name for f in dataclasses.fields(TrainConfig)} == {
            "lr", "epochs", "patience", "d_v", "n_layers", "optimizer",
            "seed"}
        assert set(REGISTRY) == {
            "data.path", "data.per_class", "data.val_fraction", "train.lr",
            "train.epochs", "train.patience", "train.d_v", "train.n_layers",
            "train.optimizer", "seed"}

    def test_rejects_unknown_optimizer(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lbfgs")

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError, match="n_layers"):
            TrainConfig(n_layers=0)

    @pytest.mark.parametrize("name", ["lr"])
    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_rejects_negative_or_nan_rate(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["lr"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       float("nan")])
    def test_rejects_non_finite_setting(self, name, value):
        # it would otherwise fail deep in the fit, under another name
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            TrainConfig(**{name: value})

    def test_infinite_gamma_cap_means_no_cap(self, monkeypatch):
        # 60 messages per edge would put every posterior above the cap of
        # 50; without a cap each keeps its full concentration 2 + 60
        import otsheaf.training as training
        data = two_cluster_dataset()
        probs = np.full((data.g.n, 2), 0.5)
        cfg = TrainConfig(n_layers=60)
        capped = training.calibrate(probs, data, cfg).posterior
        monkeypatch.setattr(training, "GAMMA_CAP", float("inf"))
        free = training.calibrate(probs, data, cfg).posterior
        assert np.allclose(capped.alpha_bar + capped.beta_bar, 50.0)
        assert np.allclose(free.alpha_bar + free.beta_bar, 62.0)

    @pytest.mark.parametrize("name, value", [("epochs", -1), ("patience", 0),
                                             ("gap_steps", -1)])
    def test_rejects_bad_count(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["epochs", "patience", "d_v",
                                      "n_layers", "seed"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "3"])
    def test_rejects_a_count_that_is_not_an_integer(self, name, value):
        # each would otherwise reach the fit and fail there unnamed, or
        # (patience=1.5) be taken as it stands
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["epochs", "patience", "d_v",
                                      "n_layers", "seed"])
    def test_accepts_numpy_integers(self, name):
        cfg = TrainConfig(**{name: np.int64(3)})
        assert getattr(cfg, name) == 3

    @pytest.mark.parametrize("name", ["d_v"])
    def test_rejects_nonpositive_stalk_dimension(self, name):
        with pytest.raises(ValueError, match="stalk dimensions"):
            TrainConfig(**{name: 0})

    def test_unset_edge_dimension_follows_a_replaced_d_v(self):
        # W_theta is square, so a copy with another d_v draws it at the
        # new width instead of the default 16
        cfg = dataclasses.replace(TrainConfig(), d_v=3)
        state = init_state(two_cluster_dataset(), cfg)
        assert state.params.W_theta.shape == (3, 3)


class TestTrainerConstants:
    @pytest.mark.parametrize("name, value", [
        ("WEIGHT_DECAY", 0.5), ("KL_DELTA", 0.5), ("HEAT_DT", 1.0),
        ("CHEB_ORDER", 1), ("CG_TOL", 1e-2), ("CG_MAX_ITER", 1),
        ("PRIOR_A0", 2.0), ("PRIOR_B0", 2.0), ("GAMMA_CAP", 1.0),
        ("LIFT_EPS", 0.05)])
    def test_each_constant_is_read_at_call_time(self, monkeypatch, name,
                                                value):
        # a value bound at import (a default argument, a copy in another
        # module) would leave the epoch as it was
        import otsheaf.training as training

        def one_epoch():
            data = two_cluster_dataset()
            cfg = small_cfg(epochs=1)
            state, rep = train_epoch(init_state(data, cfg), data, cfg)
            return (dataclasses.replace(rep, wall_ms=0.0),
                    state.params.trainable())

        rep, params = one_epoch()
        monkeypatch.setattr(training, name, value)
        rep2, params2 = one_epoch()
        assert rep2 != rep or any(
            not np.array_equal(params[k], params2[k]) for k in params)


class TestTrainEpoch:
    def test_zero_rates_leave_params_unchanged(self, monkeypatch):
        import otsheaf.training as training
        monkeypatch.setattr(training, "WEIGHT_DECAY", 0.0)
        data = two_cluster_dataset()
        cfg = small_cfg(lr=0.0)
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
        cfg = small_cfg()
        train_epoch(init_state(data, cfg), data, cfg)
        assert len(calls) == 1

    def test_scalar_edge_epoch_forms_restriction_maps_once(self, monkeypatch):
        # a frozen W_theta is no tape leaf: the forward forms the maps once
        # and backward forms them for no gradient (the W_theta leaf made it
        # 1 + 2 * 3 chunks = 7 calls on these 612 edges)
        import otsheaf.model as model
        calls = []
        real = model.restriction_maps

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(model, "restriction_maps", counted)
        g, feats, labels = synthetic_dataset(n=200, num_classes=3, d0=16,
                                             seed=0, homophily=0.8,
                                             avg_degree=6.0)
        data = Dataset(g, feats, labels, make_split(labels, per_class=5,
                                                    seed=0))
        cfg = small_cfg()
        state = init_state(data, cfg, "scalar_edge")
        assert "W_theta" not in state.params.trainable()
        state, _ = train_epoch(state, data, cfg)
        assert g.m == 612 and len(calls) == 1
        assert np.array_equal(state.params.W_theta, np.eye(cfg.d_v))

    @pytest.mark.parametrize("variant, outer, solves, isqrt_vjps",
                             [("scalar_edge", 0, 1, 0), ("we_lift", 2, 2, 1)])
    def test_backward_runs_only_toward_trained_weights(
            self, monkeypatch, variant, outer, solves, isqrt_vjps):
        # at one layer a frozen W_theta leaves the blocks, S and the svr
        # solve of X0 constants: no block gradient is formed, neither the
        # adjoint CG solve nor the Chebyshev reverse recurrence runs, so
        # backward never applies L, and the isqrt VJP does not run.  we_lift
        # trains W_theta, so its heat step and its filter both form block
        # gradients, and both CG solves run
        import otsheaf.model as model
        import otsheaf.training as training
        from otsheaf.laplacian import SheafLaplacian
        counts = {"outer": 0, "solves": 0, "isqrt_vjps": 0}
        real_outer, real_solve = model.pattern_outer, model.svr_diffuse
        real_isqrt = model.isqrt_blocks
        real_backward, real_matvec = training.backward, SheafLaplacian.matvec
        backward_products = []

        def matvec_counted(self, x):
            backward_products.append(id(self))
            return real_matvec(self, x)

        def backward_traced(root):
            monkeypatch.setattr(SheafLaplacian, "matvec", matvec_counted)
            try:
                real_backward(root)
            finally:
                monkeypatch.setattr(SheafLaplacian, "matvec", real_matvec)

        def outer_counted(*args):
            counts["outer"] += 1
            return real_outer(*args)

        def solve_counted(*args):
            counts["solves"] += 1
            return real_solve(*args)

        def isqrt_counted(diag, L):
            S = real_isqrt(diag, L)
            if S.vjp is not None:
                vjp = S.vjp

                def vjp_counted(g, live):
                    counts["isqrt_vjps"] += 1
                    return vjp(g, live)
                S.vjp = vjp_counted
            return S

        monkeypatch.setattr(model, "pattern_outer", outer_counted)
        monkeypatch.setattr(model, "svr_diffuse", solve_counted)
        monkeypatch.setattr(model, "isqrt_blocks", isqrt_counted)
        monkeypatch.setattr(training, "backward", backward_traced)
        data = two_cluster_dataset()
        cfg = small_cfg(n_layers=1)
        train_epoch(init_state(data, cfg, variant), data, cfg)
        assert counts == {"outer": outer, "solves": solves,
                          "isqrt_vjps": isqrt_vjps}
        assert bool(backward_products) == (variant == "we_lift")

    def test_one_eigensolve_per_epoch_above_dense_cutoff(self, monkeypatch):
        # the epoch reads lambda2 alone: the ARPACK path runs its low-end
        # block and never the solve for lambda_max
        import otsheaf.laplacian as laplacian
        g, feats, labels = synthetic_dataset(n=100, num_classes=3, d0=16,
                                             seed=0, avg_degree=6.0)
        data = Dataset(g, feats, labels, make_split(labels, per_class=5,
                                                    seed=0))
        cfg = TrainConfig(d_v=16, epochs=1, seed=0)
        state = init_state(data, cfg)
        L = sheaf_laplacian(state.params.W_theta, state.ctx.plans, g.edges,
                            g.n)
        assert _compressed_normalized(L)[0].shape[0] > DENSE_CUTOFF
        calls = []
        real = laplacian._extreme_eigs

        def counted(A, k, which, *args, **kwargs):
            calls.append((which, k))
            return real(A, k, which, *args, **kwargs)

        monkeypatch.setattr(laplacian, "_extreme_eigs", counted)
        train_epoch(state, data, cfg)
        assert calls == [("SA", 16)]

    def test_one_block_eigendecomposition_per_epoch(self, monkeypatch):
        # the forward's one L decomposes its diagonal blocks when the
        # tape's isqrt_blocks first asks; the CG preconditioner and the
        # epoch's gap estimate read the kept (w, V) of L.block_eigh()
        calls = []
        real = np.linalg.eigh

        def counted(a, *args, **kwargs):
            if np.ndim(a) == 3:
                calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        data = two_cluster_dataset()
        cfg = small_cfg()
        train_epoch(init_state(data, cfg), data, cfg)
        assert calls == [(data.g.n, cfg.d_v, cfg.d_v)]

    def test_arpack_stall_does_not_stop_the_epoch(self, monkeypatch, caplog):
        # the estimate forced onto its ARPACK path (compressed dimension
        # 257), whose first low-end call stalls: the block doubles and the
        # epoch reports the same lambda2
        import otsheaf.laplacian as laplacian
        from scipy.sparse.linalg import ArpackNoConvergence
        data = two_cluster_dataset(n_per=30)
        cfg = small_cfg(d_v=8)
        monkeypatch.setattr(laplacian, "DENSE_CUTOFF", 0)
        real = laplacian.eigsh

        def record_low_end(stall_first):
            """Patch eigsh to list the low-end block sizes it is asked for."""
            calls = []

            def patched(A, k, **kwargs):
                if kwargs["which"] == "SA":
                    calls.append(k)
                    if stall_first and len(calls) == 1:
                        raise ArpackNoConvergence(
                            "No convergence (5 iterations, "
                            f"0/{k} eigenvectors converged)",
                            np.zeros(0), np.zeros((A.shape[0], 0)))
                return real(A, k, **kwargs)

            monkeypatch.setattr(laplacian, "eigsh", patched)
            return calls

        schedule = record_low_end(stall_first=False)
        _, ref = train_epoch(init_state(data, cfg), data, cfg)
        low_end = record_low_end(stall_first=True)
        with caplog.at_level(logging.DEBUG, logger="otsheaf"):
            _, rep = train_epoch(init_state(data, cfg), data, cfg)
        # the stalled first block is retried at twice its size, which the
        # unstalled run reached too, so both ask for the same blocks
        assert schedule[:2] == [16, 32]
        assert low_end == schedule
        assert rep.lambda2 == pytest.approx(ref.lambda2, rel=1e-8)
        assert rep.lambda2 > 1e-3
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        records = [r.getMessage() for r in caplog.records
                   if r.name == "otsheaf.laplacian"]
        assert len(records) == 1
        assert "range-gap estimate" in records[0]
        assert "5 iterations" in records[0]
        assert "k=16, dim A=257" in records[0]

    def test_one_csr_build_per_epoch(self, monkeypatch):
        # one operator is built, once: L, which both layers' CG solves and
        # Chebyshev recurrences apply.  The gap estimate builds T' L T
        # from L's blocks one range of block rows at a time, through
        # block_sparse, and never as a whole operator.  builds holds the
        # operators themselves: an id alone could be reused once L is freed
        import otsheaf.laplacian as laplacian
        import otsheaf.training as training
        from otsheaf.laplacian import SheafLaplacian
        builds, applied, chunks = [], [], []
        real_to_bsr, real_matvec = SheafLaplacian.to_bsr, SheafLaplacian.matvec
        real_block_sparse = laplacian.block_sparse

        def counted(self):
            if self._bsr is None:
                builds.append(self)
            return real_to_bsr(self)

        def traced(self, x):
            applied.append(id(self))
            return real_matvec(self, x)

        def chunk(rows, cols, blocks, n_rows, n_cols):
            chunks.append((n_rows, n_cols))
            return real_block_sparse(rows, cols, blocks, n_rows, n_cols)

        tapes = []
        real_tape = training.forward_tape
        real_estimate = training.normalized_range_gap

        def kept_tape(*args, **kwargs):
            out = real_tape(*args, **kwargs)
            tapes.append(out[2])
            return out

        def chunked_estimate(*args, **kwargs):
            monkeypatch.setattr(laplacian, "block_sparse", chunk)
            try:
                return real_estimate(*args, **kwargs)
            finally:
                monkeypatch.setattr(laplacian, "block_sparse",
                                    real_block_sparse)

        monkeypatch.setattr(SheafLaplacian, "to_bsr", counted)
        monkeypatch.setattr(SheafLaplacian, "matvec", traced)
        monkeypatch.setattr(training, "forward_tape", kept_tape)
        monkeypatch.setattr(training, "normalized_range_gap", chunked_estimate)
        # 62 blocks of T' L T, in chunks of about 16
        monkeypatch.setattr(laplacian, "BLOCK_CHUNK", 16)
        data = two_cluster_dataset()
        cfg = small_cfg(n_layers=2)
        train_epoch(init_state(data, cfg), data, cfg)
        assert len(tapes) == 1
        L = tapes[0]["L"]
        assert len(builds) == 1 and builds[0] is L
        # one operator is applied: L, across both layers
        assert set(applied) == {id(L)}
        n = data.g.n
        assert len(chunks) == 4
        assert all(cols == n and rows < n for rows, cols in chunks)
        assert sum(rows for rows, _ in chunks) == n

    def test_gap_estimate_runs_after_the_tape_is_freed(self, monkeypatch):
        import otsheaf.training as training
        refs, alive = [], []
        real_tape = training.forward_tape
        real_estimate = training.normalized_range_gap

        def watched_tape(*args, **kwargs):
            out = real_tape(*args, **kwargs)
            refs.extend([weakref.ref(out[2]["L"]), weakref.ref(out[0])])
            return out

        def watched_estimate(*args, **kwargs):
            alive.append([r() is not None for r in refs])
            return real_estimate(*args, **kwargs)

        monkeypatch.setattr(training, "forward_tape", watched_tape)
        monkeypatch.setattr(training, "normalized_range_gap", watched_estimate)
        data = two_cluster_dataset()
        cfg = small_cfg()
        train_epoch(init_state(data, cfg), data, cfg)
        assert alive == [[False, False]]

    def test_gap_ascent_error_keeps_the_state(self, monkeypatch):
        # the gap estimate (an ascent of zero steps) runs ahead of the
        # update, so an error raised in it leaves the parameters and
        # optimizer moments as they were
        import otsheaf.training as training
        data = two_cluster_dataset()
        cfg = small_cfg(optimizer="adam")
        state, _ = train_epoch(init_state(data, cfg), data, cfg)
        params = copy.deepcopy(state.params)
        moments = [{k: v.copy() for k, v in d.items()}
                   for d in (state.opt_m, state.opt_v)]

        def failing(*args, **kwargs):
            raise RuntimeError("gap ascent failed")

        monkeypatch.setattr(training, "run_gap_ascent", failing)
        with pytest.raises(RuntimeError, match="gap ascent failed"):
            train_epoch(state, data, cfg)
        assert state.epoch == 1
        for name, value in params.trainable().items():
            assert np.array_equal(state.params.trainable()[name], value)
        for kept, now in zip(moments, (state.opt_m, state.opt_v)):
            assert kept.keys() == now.keys()
            for name, value in kept.items():
                assert np.array_equal(now[name], value)

    def test_loss_reads_the_calibration_stage(self, monkeypatch):
        # the loss is -mean log of the stage's calibrated probabilities at
        # the train rows, to the bit: a second formula for them, as the loss
        # once had, is off by 2.2e-16 on this split (split_seed(1, 0)
        # happens to agree)
        import otsheaf.training as training
        data, cfg = benchmark_shape(300, 5, 64, 20, fit=1, d_v=16, epochs=1)
        stages, losses = [], []
        real_stage, real_ce = training.calibrate, training.calibrated_ce

        def kept_stage(*args):
            stages.append(real_stage(*args))
            return stages[-1]

        def kept_ce(*args):
            ce = real_ce(*args)
            losses.append(ce.value)
            return ce

        monkeypatch.setattr(training, "calibrate", kept_stage)
        monkeypatch.setattr(training, "calibrated_ce", kept_ce)
        train_epoch(init_state(data, cfg), data, cfg)
        [cal], [loss] = stages, losses
        idx = data.split.train
        assert loss == float(-np.log(cal.probs[idx, data.labels.y[idx]]).mean())

    def test_bound_identity(self):
        data = two_cluster_dataset()
        cfg = small_cfg()
        state = init_state(data, cfg)
        _, rep = train_epoch(state, data, cfg)
        assert rep.bound == rep.emp_risk + rep.kl + rep.spec

    def test_lambda2_never_drops_within_epoch(self):
        data = two_cluster_dataset()
        cfg = small_cfg(gap_steps=3)
        state = init_state(data, cfg)
        plans, params = state.ctx.plans, state.params
        L = sheaf_laplacian(params.W_theta, plans, data.g.edges, data.g.n)
        pre = normalized_range_gap(L, seed=cfg.seed).lambda2
        _, rep = train_epoch(state, data, cfg)
        assert rep.lambda2 >= pre - 1e-8

    def test_lambda2_is_the_gap_of_the_pre_step_operator(self):
        # the reported lambda2 is the gap estimate of the operator the
        # forward built from the pre-step parameters, bit for bit, on the
        # ascent_n40 shape, where a gap ascent step would be accepted
        # (with gap_steps > 0 the ascent's last gap is reported instead)
        data, cfg = benchmark_shape(40, 3, 8, 5, fit=1, noise=0.4, d_v=6,
                                    epochs=1)
        state = init_state(data, cfg)
        plans, params = state.ctx.plans, state.params
        L = sheaf_laplacian(params.W_theta, plans, data.g.edges, data.g.n)
        pre = normalized_range_gap(L, seed=cfg.seed).lambda2
        _, rep = train_epoch(state, data, cfg)
        assert rep.lambda2 == pre

    def test_divergence_aborts(self):
        # non-finite classifier weights make the calibrated CE non-finite
        data = two_cluster_dataset()
        cfg = small_cfg()
        state = init_state(data, cfg)
        state.params.W_cls = np.full_like(state.params.W_cls, np.nan)
        with pytest.raises(TrainingDiverged, match="epoch 0"):
            train_epoch(state, data, cfg)

    def test_reported_terms_do_not_abort(self, monkeypatch):
        # kl and spec never reach the tape, so no size of theirs aborts
        import otsheaf.training as training
        monkeypatch.setattr(training, "kl_term", lambda *args: 1e9)
        data = two_cluster_dataset()
        cfg = small_cfg()
        state = init_state(data, cfg)
        _, rep = train_epoch(state, data, cfg)
        assert rep.kl == 1e9

    def test_nonfinite_gradient_names_the_epoch(self, monkeypatch):
        import otsheaf.training as training
        leaves = []
        real_tape, real_backward = training.forward_tape, training.backward

        def kept_tape(*args, **kwargs):
            out = real_tape(*args, **kwargs)
            leaves.append(out[1])
            return out

        def poisoned(root):
            real_backward(root)
            leaves[-1]["W_cls"].grad[0, 0] = np.nan

        monkeypatch.setattr(training, "forward_tape", kept_tape)
        monkeypatch.setattr(training, "backward", poisoned)
        data = two_cluster_dataset()
        cfg = small_cfg()
        state = init_state(data, cfg)
        state.epoch = 4
        with pytest.raises(FloatingPointError,
                           match="epoch 4: non-finite gradient in W_cls"):
            train_epoch(state, data, cfg)

    def test_one_edge_toy_matches_module_chain(self):
        import otsheaf.training as training
        g = Graph.from_edges(2, [(0, 1)])
        rng = np.random.default_rng(5)
        H = rng.uniform(0.4, 1.2, size=(2, 3))
        y = np.array([0, 1])
        split = SplitMask(train=np.array([0, 1]), val=np.array([0, 1]),
                          test=np.array([0, 1]), seed=0)
        data = Dataset(g=g, feats=NodeFeatures(H=H, d0=3),
                       labels=Labels(y=y, C=2), split=split)
        cfg = small_cfg(d_v=2, epochs=1)
        state = init_state(data, cfg)
        params = copy.deepcopy(state.params)
        X0 = state.ctx.X0.copy()
        plans = state.ctx.plans.copy()
        _, rep = train_epoch(state, data, cfg)

        L = sheaf_laplacian(params.W_theta, plans, g.edges, g.n)
        h_svr, info = svr_diffuse(L, X0.reshape(-1), training.HEAT_DT,
                                  CGConfig(tol=training.CG_TOL,
                                           max_iter=training.CG_MAX_ITER))
        SLS = dense_sls(L)
        h_afm, _ = chebyshev_apply(lambda v: v - SLS @ v, X0.reshape(-1),
                                   chebyshev_weights(params.gamma))
        Z = fuse(h_svr.reshape(X0.shape), h_afm.reshape(X0.shape),
                 params.W_mix)
        y_hat = predict(Z, params.W_cls)
        post = posterior_update(training.PRIOR_A0, training.PRIOR_B0, y_hat,
                                g, data.labels, split.train,
                                gamma_cap=training.GAMMA_CAP,
                                n_msg=cfg.n_layers)
        kappa = node_kappa(post, g)
        cal = calibrate_prediction(y_hat, kappa)
        ce = -np.log(cal[np.arange(2), y]).mean()
        kl = kl_term(post, 2, training.KL_DELTA)

        assert rep.cg_iters == info.total_iterations
        assert rep.kl == pytest.approx(kl, abs=1e-12)
        assert rep.emp_risk == pytest.approx(
            np.clip(ce / np.log(2), 0, 1), abs=1e-12)
        assert rep.lambda2 == pytest.approx(
            normalized_range_gap(L, seed=cfg.seed).lambda2, abs=1e-9)
        assert rep.train_acc == pytest.approx(
            (cal.argmax(axis=1) == y).mean())


class TestNormalizedSpectrum:
    def test_sls_spectrum_on_two_cluster_operators(self):
        # S L S lies in [0, 2] for every sheaf; on the first-epoch operators
        # of two-cluster fits the dense product strays from it by roundoff
        # that S amplifies (isqrt_blocks keeps directions down to 1e-12 of
        # a block's largest eigenvalue): up to 1.4e-5 above 2, 6.1e-8 below 0
        for n_per in (20, 30, 40, 50):
            data = two_cluster_dataset(n_per=n_per)
            for d_v in (4, 6, 8, 12):
                state = init_state(data, small_cfg(d_v=d_v))
                L = sheaf_laplacian(state.params.W_theta, state.ctx.plans,
                                    data.g.edges, data.g.n)
                w = np.linalg.eigvalsh(dense_sls(L))
                assert w.min() >= -1e-4 and w.max() <= 2.0 + 1e-4

    def test_mid_size_estimate_is_converged(self, monkeypatch):
        # first-epoch operator with dim A 424 and 23 modes under the null
        # cutoff: dense at the default cutoff, and the doubling ARPACK block
        # reaches the same pair
        import otsheaf.laplacian as laplacian
        data = two_cluster_dataset(n_per=30)
        state = init_state(data, small_cfg(d_v=12))
        L = sheaf_laplacian(state.params.W_theta, state.ctx.plans,
                            data.g.edges, data.g.n)
        A, _, _ = _compressed_normalized(L)
        assert A.shape[0] == 424
        w = np.linalg.eigvalsh(dense_sls(L))
        oracle = w[w > NORMALIZED_NULL_TOL][0]
        for cutoff in (DENSE_CUTOFF, 0):
            with monkeypatch.context() as m:
                m.setattr(laplacian, "DENSE_CUTOFF", cutoff)
                est = normalized_range_gap(L)
            assert est.converged
            assert est.lambda2 == pytest.approx(oracle, rel=1e-8)


class TestFit:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_nonfinite_feature_names_the_node(self, variant):
        data = two_cluster_dataset()
        H = data.feats.H.copy()
        H[0, 0] = np.nan
        data = dataclasses.replace(data, feats=NodeFeatures(H=H, d0=4))
        cfg = small_cfg(epochs=1)
        match = "node 0 has non-finite projected features"
        with pytest.raises(ValueError, match=match):
            fit(data, cfg, variant=variant)
        params = init_state(two_cluster_dataset(), cfg, variant).params
        with pytest.raises(ValueError, match=match):
            evaluate(params, data, cfg, variant=variant)
        with pytest.raises(ValueError, match=match):
            stability_metric(params, params, data, cfg, variant=variant)

    def test_zero_epochs_returns_initial_params(self):
        data = two_cluster_dataset()
        cfg = small_cfg(epochs=0)
        params, reports = fit(data, cfg)
        fresh = init_state(data, cfg).params
        assert reports == []
        for k, v in params.trainable().items():
            assert np.array_equal(v, fresh.trainable()[k])

    def test_default_config_trains_on_the_cornell_shape(self, monkeypatch):
        # 183 nodes at the default d_v=16 give a raw operator of N=2928, too
        # large for a dense eigensolve; an epoch makes one gap estimate,
        # factors no PSD test and never solves for lambda_max
        calls = count_spectral_calls(monkeypatch)
        g, feats, labels = synthetic_dataset(n=183, num_classes=5, d0=1703,
                                             homophily=0.1, avg_degree=3.0,
                                             seed=0)
        data = Dataset(g, feats, labels, make_split(labels, per_class=20,
                                                    seed=0))
        cfg = TrainConfig(epochs=2)
        assert g.n * cfg.d_v > DENSE_CUTOFF
        _, reports = fit(data, cfg)
        assert len(reports) == 2
        assert all(np.isfinite(r.raw_loss) for r in reports)
        assert all(np.isfinite(r.lambda2) for r in reports)
        assert calls == {"project": 0, "top_eigenvalue": 0, "estimate": 2}

    def test_default_config_trains_at_n1000(self, monkeypatch):
        # one default epoch took 40.5 s (2-core machine) while the default
        # gap ascent's PSD test factored L, 13 s a call; the default epoch
        # factors no PSD test and makes one gap estimate
        calls = count_spectral_calls(monkeypatch)
        g, feats, labels = synthetic_dataset(n=1000, num_classes=5, d0=64,
                                             seed=0)
        data = Dataset(g, feats, labels, make_split(labels, per_class=20,
                                                    seed=1))
        _, reports = fit(data, TrainConfig(epochs=1))
        assert len(reports) == 1
        assert np.isfinite(reports[0].raw_loss)
        assert calls == {"project": 0, "top_eigenvalue": 0, "estimate": 1}

    def test_edgeless_graph_trains_one_epoch(self):
        # no edges: every Gram block, scatter and restriction stack is
        # empty, the operators are zero, and the epoch still reports
        data = two_cluster_dataset()
        data = dataclasses.replace(data, g=Graph.from_edges(data.g.n, []))
        _, reports = fit(data, small_cfg(epochs=1))
        assert len(reports) == 1
        assert np.isfinite(reports[0].raw_loss)
        assert reports[0].lambda2 == 0.0

    def test_separable_toy_reaches_full_train_accuracy(self, monkeypatch):
        import otsheaf.training as training
        monkeypatch.setattr(training, "WEIGHT_DECAY", 0.0)
        data = two_cluster_dataset(noise=0.02)
        cfg = small_cfg(epochs=200, lr=0.5, patience=200)
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
        cfg = small_cfg(epochs=50, lr=0.0, patience=5)
        _, reports = fit(data, cfg)
        assert len(reports) == 6

    def test_returned_params_hit_best_validation_score(self):
        data = two_cluster_dataset()
        cfg = small_cfg(epochs=10, lr=0.3, patience=10)
        params, reports = fit(data, cfg)
        best = max(r.val_acc for r in reports)
        res = evaluate(params, data, cfg)
        assert res.val_acc == pytest.approx(best)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_evaluate_reproduces_best_epoch(self, variant):
        # the best epoch's posterior also absorbs one round from the
        # initial prior, so a new forward pass and calibration (evaluate on
        # a memo-free copy of the parameters) reproduce its calibrated
        # numbers, and evaluate on the fit's own result, which reuses that
        # epoch, returns the same EvalResult bit for bit; the second
        # fixture is the ascent_n40 benchmark shape, whose epochs run Adam
        # steps, the third a two-layer fit
        fixtures = [(two_cluster_dataset(),
                     small_cfg(epochs=10, lr=0.3, patience=10)),
                    benchmark_shape(40, 3, 8, 5, fit=1, noise=0.4, d_v=6,
                                    epochs=5),
                    (two_cluster_dataset(),
                     small_cfg(epochs=6, lr=0.3, patience=6, n_layers=2))]
        for data, cfg in fixtures:
            params, reports = fit(data, cfg, variant=variant)
            best = max(reports, key=lambda r: r.val_acc)
            assert params.fit_memo is not None
            computed = evaluate(dataclasses.replace(params), data, cfg,
                                variant=variant)
            for name in ("train_acc", "val_acc", "test_acc", "ece"):
                assert getattr(computed, name) == getattr(best, name), name
            assert_same_eval(evaluate(params, data, cfg, variant=variant),
                             computed)

    def test_evaluate_on_its_fit_repeats_nothing(self, monkeypatch):
        calls = count_pipeline_calls(monkeypatch)
        data, cfg = benchmark_shape(40, 3, 8, 5, fit=1, noise=0.4, d_v=6,
                                    epochs=5)
        params, _ = fit(data, cfg)
        assert calls["edge_plans"] == 1
        calls.update(dict.fromkeys(calls, 0))
        res = evaluate(params, data, cfg)
        assert calls == dict.fromkeys(calls, 0)
        computed = evaluate(dataclasses.replace(params), data, cfg)
        assert calls == dict.fromkeys(calls, 1)
        assert_same_eval(res, computed)
        # a second call still reuses, and the caller's predictions array
        # is its own
        res.predictions[:] = 0.0
        assert_same_eval(evaluate(params, data, cfg), computed)
        assert calls == dict.fromkeys(calls, 1)

    def test_evaluate_recomputes_when_anything_differs(self, monkeypatch):
        calls = count_pipeline_calls(monkeypatch)
        data, cfg = benchmark_shape(40, 3, 8, 5, fit=1, noise=0.4, d_v=6,
                                    epochs=5)
        params, _ = fit(data, cfg)
        same_arrays = Dataset(data.g, data.feats, data.labels, data.split)
        empty, _ = fit(data, dataclasses.replace(cfg, epochs=0))
        assert empty.fit_memo is None
        cases = [(params, same_arrays, cfg, "we_lift"),
                 (params, data, dataclasses.replace(cfg, n_layers=2), "we_lift"),
                 (params, data, cfg, "scalar_edge"),
                 (empty, data, cfg, "we_lift")]
        for p, d, c, variant in cases:
            calls.update(dict.fromkeys(calls, 0))
            res = evaluate(p, d, c, variant=variant)
            assert calls["forward_tape"] == 1, (c, variant)
            assert calls["posterior_update"] == 1, (c, variant)
            assert_same_eval(res, evaluate(dataclasses.replace(p), d, c,
                                           variant=variant))
        params.W_cls[0, 0] += 1.0
        calls.update(dict.fromkeys(calls, 0))
        res = evaluate(params, data, cfg)
        assert calls == dict.fromkeys(calls, 1)
        assert_same_eval(res, evaluate(dataclasses.replace(params), data,
                                       cfg))

    def test_new_parameter_sets_carry_no_memo(self):
        data, cfg = benchmark_shape(40, 3, 8, 5, fit=1, noise=0.4, d_v=6,
                                    epochs=2)
        params, _ = fit(data, cfg)
        assert params.fit_memo is not None
        assert params.with_updates({"W_cls": params.W_cls}).fit_memo is None
        assert dataclasses.replace(params).fit_memo is None
        assert "fit_memo" not in repr(params)

    def test_only_lambda2_reads_the_ascent(self):
        # the deprecated ascent's iterate never reaches the model: on the
        # ascent_n40 shape, fits with and without ascent steps agree bit
        # for bit in everything but the reported lambda2
        runs = []
        for steps in (0, 2):
            data, cfg = benchmark_shape(40, 3, 8, 5, fit=1, noise=0.4, d_v=6,
                                        gap_steps=steps, epochs=5)
            params, reports = fit(data, cfg)
            runs.append((params, reports, evaluate(params, data, cfg)))
        (p0, r0, e0), (p2, r2, e2) = runs
        for name in ("W_proj", "W_theta", "gamma", "W_mix", "W_cls"):
            assert np.array_equal(getattr(p0, name), getattr(p2, name)), name
        assert len(r0) == len(r2)
        for a, b in zip(r0, r2):
            for f in dataclasses.fields(EpochReport):
                if f.name not in ("lambda2", "wall_ms"):
                    assert getattr(a, f.name) == getattr(b, f.name), f.name
        for f in dataclasses.fields(e0):
            a, b = getattr(e0, f.name), getattr(e2, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

    def test_accepted_ascent_iterates_are_unrepaired(self, monkeypatch):
        # every iterate the ascent accepts is L + eta g with its diagonal
        # blocks symmetrized, bit for bit: no accepted step is a repair
        import otsheaf.spectral as spectral
        real = spectral.wolfe_ascent_step
        steps = []

        def recorded(L, g, *args, **kwargs):
            out = real(L, g, *args, **kwargs)
            steps.append((L, g, out))
            return out

        monkeypatch.setattr(spectral, "wolfe_ascent_step", recorded)
        data, cfg = benchmark_shape(40, 3, 8, 5, fit=1, noise=0.4, d_v=6,
                                    gap_steps=2, epochs=5)
        fit(data, cfg)
        accepted = [(L, g, out) for L, g, out in steps if out[2]]
        assert accepted
        for L, g, (new, eta, _, _) in accepted:
            diag = L.diag + eta * g.diag
            assert np.array_equal(new.diag,
                                  0.5 * (diag + diag.transpose(0, 2, 1)))
            assert np.array_equal(new.off, L.off + eta * g.off)

    def test_evaluate_drops_the_tape_before_the_posterior(self, monkeypatch):
        # evaluate keeps the predictions and the last embedding of its
        # forward pass, and nothing of the tape, while the posterior runs
        import otsheaf.training as training
        refs, alive = [], []
        real_tape = training.forward_tape
        real_posterior = training.posterior_update

        def watched_tape(*args, **kwargs):
            out = real_tape(*args, **kwargs)
            refs.append(weakref.ref(out[2]["L"]))
            return out

        def watched_posterior(*args, **kwargs):
            alive.append([r() is not None for r in refs])
            return real_posterior(*args, **kwargs)

        monkeypatch.setattr(training, "forward_tape", watched_tape)
        monkeypatch.setattr(training, "posterior_update", watched_posterior)
        data = two_cluster_dataset()
        cfg = small_cfg()
        evaluate(init_state(data, cfg).params, data, cfg)
        assert alive == [[False]]

    def test_adam_runs(self):
        data = two_cluster_dataset()
        cfg = small_cfg(epochs=3, optimizer="adam")
        _, reports = fit(data, cfg)
        assert len(reports) == 3
        assert all(np.isfinite(r.raw_loss) for r in reports)


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
        start = copy.deepcopy(state.params)
        for _ in range(3):
            state, _ = train_epoch(state, data, cfg)
        assert stability_metric(state.params, start, data, cfg) > 0.0

    def test_scalar_edge_drift_uses_identity_plans(self):
        # a scalar_edge fit never sees the lift, so its drift is measured on
        # the operator its identity plans build
        data = two_cluster_dataset()
        cfg = small_cfg(lr=0.5)
        state = init_state(data, cfg, "scalar_edge")
        start = copy.deepcopy(state.params)
        for _ in range(2):
            state, _ = train_epoch(state, data, cfg)
        identity = np.tile(np.eye(cfg.d_v), (data.g.m, 1, 1))
        ctx = dataclasses.replace(
            epoch_context(data, start.W_proj, cfg, "we_lift"), plans=identity)
        z_t = forward_tape(state.params, ctx)[0].value
        z_0 = forward_tape(start, ctx)[0].value
        drift = stability_metric(state.params, start, data, cfg,
                                 variant="scalar_edge")
        assert drift == float(np.linalg.norm(z_t - z_0))
        assert drift != stability_metric(state.params, start, data, cfg)

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
