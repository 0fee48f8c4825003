import logging
from dataclasses import replace

import numpy as np
import pytest

from otsheaf.autodiff import Var, backward, linear
from otsheaf.diffusion import afm_filter, fuse, predict, svr_diffuse, DiffusionConfig
from otsheaf.graphs import Graph
from otsheaf.laplacian import (
    SheafIncidence,
    SheafLaplacian,
    assemble_laplacian,
    normalized_laplacian,
)
from otsheaf.model import (
    EpochContext,
    cheb_branch,
    finite_difference_gradients,
    forward_tape,
    grad_params,
    init_params,
    isqrt_blocks,
    laplacian_blocks,
    loss_value,
    model_loss,
    restriction_maps,
    sandwich_blocks,
    svr_branch,
)
from otsheaf.transport import LiftConfig, edge_plans, restrictions_from_plans


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def make_context(seed=0, n_layers=1, C=3, d_v=3, d_e=3):
    """10-node fixture kept away from ReLU kinks and eigenvalue crossings.

    Finite differences only probe the smooth region if no pre-activation
    sits within the step of zero and no diagonal block has (near-)repeated
    or near-cutoff eigenvalues, so seeds are scanned for adequate margins.
    Features are strictly positive so every lifted atom carries real mass,
    and d_e = d_v keeps the near-diagonal plans full rank; rank-deficient
    edge stalks are exercised by the inverse-sqrt cutoff tests instead.
    """
    edges = [(i, (i + 1) % 10) for i in range(10)] + [(0, 5), (2, 7)]
    g = Graph.from_edges(10, edges)
    for trial in range(seed, seed + 40):
        rng = np.random.default_rng(trial)
        H = rng.uniform(0.5, 1.5, size=(10, 5))
        y = rng.integers(0, C, size=10)
        params = init_params(d0=5, d_v=d_v, d_e=d_e, C=C, cheb_order=3,
                             seed=trial)
        params.W_proj = rng.uniform(0.2, 0.8, size=params.W_proj.shape)
        params.W_theta = rng.normal(0.0, 0.8, size=params.W_theta.shape)
        params.gamma = rng.normal(0.0, 0.4, size=params.gamma.shape)
        params.W_cls = rng.normal(0.0, 0.4, size=params.W_cls.shape)
        X0 = H @ params.W_proj
        plans = edge_plans(g.edges, H, params.W_proj, LiftConfig())
        ctx = EpochContext(
            n=g.n, d_v=d_v, edges=g.edges, plans=plans, X0=X0,
            y=y, C=C, train_idx=np.arange(0, 10, 2),
            kappa=rng.uniform(0.4, 0.9, size=g.n),
            dt=0.1, cg_tol=1e-12, cg_max_iter=4000,
            cheb_scale=1.0, n_layers=n_layers,
            kl_value=0.3, spec_value=0.2,
        )
        logits, _, aux = forward_tape(params, ctx)
        pre = np.concatenate([p.ravel() for p in aux["pre_acts"]])
        margin = np.abs(pre).min()
        diag = aux["diag"].value
        w = np.linalg.eigvalsh(0.5 * (diag + diag.transpose(0, 2, 1)))
        gaps = np.diff(np.sort(w, axis=1), axis=1).min()
        if margin > 5e-3 and gaps > 1e-2 and w.min() > 1e-2:
            return params, ctx
    raise RuntimeError("no fixture seed with adequate smoothness margins")


def fd_tensor(fn, arr, step=1e-6):
    """Central differences of a scalar function of one array."""
    g = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), g.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        up = fn()
        flat[k] = orig - step
        down = fn()
        flat[k] = orig
        gflat[k] = (up - down) / (2 * step)
    return g


def probe_sum(v: Var, W: np.ndarray) -> Var:
    """Fixed-weight scalar readout used to gradcheck single primitives."""
    return Var(np.vdot(W, v.value), [(v, lambda g: g * W)])


class TestEngine:
    def test_quadratic_matches_hand_derivative(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        Wv = Var(W)
        y = linear(Var(x[None, :]), Wv)
        loss = Var((y.value ** 2).sum(), [(y, lambda g: 2 * g * y.value)])
        backward(loss)
        assert np.allclose(Wv.grad, 2 * np.outer(W @ x, x))

    def test_fanout_accumulates(self):
        x = Var(np.array([2.0]))
        y = Var(x.value * 3.0, [(x, lambda g: 3.0 * g)])
        z = Var(x.value + y.value, [(x, lambda g: g), (y, lambda g: g)])
        backward(z)
        assert x.grad[0] == pytest.approx(4.0)


class TestPrimitiveGradients:
    def setup_method(self):
        self.params, self.ctx = make_context()
        self.rng = np.random.default_rng(99)

    def test_restriction_maps(self):
        W = self.params.W_theta.copy()
        plans = self.ctx.plans
        d_e = W.shape[1]
        probe = self.rng.standard_normal((plans.shape[0], d_e, plans.shape[1]))

        def value():
            Wv = Var(W)
            Rij, Rji = restriction_maps(Wv, plans)
            return float(np.vdot(probe, Rij.value) + np.vdot(probe, Rji.value))

        Wv = Var(W)
        Rij, Rji = restriction_maps(Wv, plans)
        s = Var(np.vdot(probe, Rij.value) + np.vdot(probe, Rji.value),
                [(Rij, lambda g: g * probe), (Rji, lambda g: g * probe)])
        backward(s)
        assert rel_err(Wv.grad, fd_tensor(value, W)) < 1e-7

    def test_laplacian_blocks(self):
        Ri = self.rng.standard_normal((12, 2, 3))  # rank-deficient edge stalk
        Rj = self.rng.standard_normal((12, 2, 3))
        pd = self.rng.standard_normal((10, 3, 3))
        po = self.rng.standard_normal((12, 3, 3))

        def value():
            vi, vj = Var(Ri), Var(Rj)
            d, o = laplacian_blocks(vi, vj, self.ctx.edges, 10)
            return float(np.vdot(pd, d.value) + np.vdot(po, o.value))

        vi, vj = Var(Ri), Var(Rj)
        d, o = laplacian_blocks(vi, vj, self.ctx.edges, 10)
        s = Var(np.vdot(pd, d.value) + np.vdot(po, o.value),
                [(d, lambda g: g * pd), (o, lambda g: g * po)])
        backward(s)
        assert rel_err(vi.grad, fd_tensor(value, Ri)) < 1e-7
        assert rel_err(vj.grad, fd_tensor(value, Rj)) < 1e-7

    def test_isqrt_blocks_asymmetric_input(self):
        base = self.rng.standard_normal((4, 3, 3))
        D = np.einsum("iab,icb->iac", base, base) + 0.5 * np.eye(3)
        D = D + 0.05 * self.rng.standard_normal(D.shape)  # asymmetric part
        probe = self.rng.standard_normal(D.shape)

        def value():
            S = isqrt_blocks(Var(D))
            return float(np.vdot(probe, S.value))

        Dv = Var(D)
        s = probe_sum(isqrt_blocks(Dv), probe)
        backward(s)
        assert rel_err(Dv.grad, fd_tensor(value, D, step=1e-6)) < 1e-6

    def test_svr_branch(self):
        _, _, aux = forward_tape(self.params, self.ctx)
        D0 = aux["diag"].value.copy()
        O0 = aux["off"].value.copy()
        probe = self.rng.standard_normal(self.ctx.X0.shape)

        def operator():
            return SheafLaplacian(n=self.ctx.n, d_v=self.ctx.d_v,
                                  edges=self.ctx.edges, diag=D0, off=O0)

        def value():
            h, _ = svr_branch(Var(D0), Var(O0), operator(), self.ctx.X0,
                              self.ctx)
            return float(np.vdot(probe, h.value))

        Dv, Ov = Var(D0), Var(O0)
        h, _ = svr_branch(Dv, Ov, operator(), self.ctx.X0, self.ctx)
        backward(probe_sum(h, probe))
        assert rel_err(Dv.grad, fd_tensor(value, D0)) < 1e-6
        assert rel_err(Ov.grad, fd_tensor(value, O0)) < 1e-6

    def test_cheb_branch(self):
        _, _, aux = forward_tape(self.params, self.ctx)
        Dv = Var(aux["diag"].value.copy())
        S = isqrt_blocks(Dv)
        md0, mo0 = sandwich_blocks(S, Dv, Var(aux["off"].value.copy()),
                                   self.ctx.edges)
        md0, mo0 = md0.value.copy(), mo0.value.copy()
        gam = self.params.gamma.copy()
        probe = self.rng.standard_normal(self.ctx.X0.shape)

        def value():
            h = cheb_branch(Var(md0), Var(mo0), Var(gam), self.ctx.X0, self.ctx)
            return float(np.vdot(probe, h.value))

        mdv, mov, gv = Var(md0), Var(mo0), Var(gam)
        h = cheb_branch(mdv, mov, gv, self.ctx.X0, self.ctx)
        backward(probe_sum(h, probe))
        assert rel_err(mdv.grad, fd_tensor(value, md0)) < 1e-6
        assert rel_err(mov.grad, fd_tensor(value, mo0)) < 1e-6
        assert rel_err(gv.grad, fd_tensor(value, gam)) < 1e-6


def rel_close(a, b, tol=1e-13):
    return np.linalg.norm(a - b) <= tol * max(np.linalg.norm(b), 1e-300)


class TestContractionFormulas:
    """The tape's matmul contractions against their einsum formulas."""

    def setup_method(self):
        rng = np.random.default_rng(31)
        self.edges = np.array([(i, (i + 1) % 12) for i in range(12)]
                              + [(0, 6), (3, 9)])
        base = rng.normal(size=(12, 4, 4))
        self.D = np.einsum("iab,icb->iac", base, base) + 0.1 * np.eye(4)
        self.O = rng.normal(size=(len(self.edges), 4, 4))
        self.S = rng.normal(size=(12, 4, 4))   # not symmetric on purpose
        self.rng = rng

    def test_sandwich_forward(self):
        I, J = self.edges[:, 0], self.edges[:, 1]
        md, mo = sandwich_blocks(Var(self.S), Var(self.D), Var(self.O),
                                 self.edges)
        assert rel_close(md.value, np.einsum("iab,ibc,icd->iad",
                                             self.S, self.D, self.S))
        assert rel_close(mo.value, np.einsum("eab,ebc,ecd->ead",
                                             self.S[I], self.O, self.S[J]))

    def test_sandwich_block_vjps(self):
        I, J = self.edges[:, 0], self.edges[:, 1]
        g_md = self.rng.normal(size=self.D.shape)
        g_mo = self.rng.normal(size=self.O.shape)
        Dv = Var(self.D)
        md, _ = sandwich_blocks(Var(self.S), Dv, Var(self.O), self.edges)
        backward(probe_sum(md, g_md))
        assert rel_close(Dv.grad, np.einsum("iba,ibc,idc->iad",
                                            self.S, g_md, self.S))
        Ov = Var(self.O)
        _, mo = sandwich_blocks(Var(self.S), Var(self.D), Ov, self.edges)
        backward(probe_sum(mo, g_mo))
        assert rel_close(Ov.grad, np.einsum("eba,ebc,edc->ead",
                                            self.S[I], g_mo, self.S[J]))

    def test_restriction_maps_forward_and_vjp(self):
        plans = self.rng.random(size=(len(self.edges), 4, 4))
        W = self.rng.normal(size=(4, 3))
        g_ij = self.rng.normal(size=(len(self.edges), 3, 4))
        g_ji = self.rng.normal(size=(len(self.edges), 3, 4))
        Rij, Rji = restriction_maps(Var(W), plans)
        assert rel_close(Rij.value, np.einsum("pd,mpq->mdq", W, plans))
        assert rel_close(Rji.value, np.einsum("pd,mqp->mdq", W, plans))
        Wv = Var(W)
        backward(probe_sum(restriction_maps(Wv, plans)[0], g_ij))
        assert rel_close(Wv.grad, np.einsum("mpq,mdq->pd", plans, g_ij))
        Wv = Var(W)
        backward(probe_sum(restriction_maps(Wv, plans)[1], g_ji))
        assert rel_close(Wv.grad, np.einsum("mqp,mdq->pd", plans, g_ji))

    def test_restriction_maps_match_transport_formula(self):
        params, ctx = make_context()
        g = Graph.from_edges(ctx.n, ctx.edges)
        Rij, Rji = restriction_maps(Var(params.W_theta), ctx.plans)
        rset = restrictions_from_plans(g, ctx.plans, params.W_theta)
        assert np.array_equal(Rij.value, rset.Rij)
        assert np.array_equal(Rji.value, rset.Rji)

    def test_isqrt_blocks_vjp(self):
        g = self.rng.normal(size=self.D.shape)
        Dv = Var(self.D)
        backward(probe_sum(isqrt_blocks(Dv), g))
        w, V = np.linalg.eigh(self.D)
        h, hp = w ** -0.5, -0.5 * w ** -1.5
        dw = w[:, :, None] - w[:, None, :]
        close = np.abs(dw) < 1e-9 * np.maximum(w[:, -1:], 1.0)[:, :, None]
        phi = np.where(close, 0.5 * (hp[:, :, None] + hp[:, None, :]),
                       (h[:, :, None] - h[:, None, :])
                       / np.where(close, 1.0, dw))
        gt = np.einsum("iba,ibc,icd->iad", V, g, V)
        gb = np.einsum("iab,ibc,idc->iad", V, phi * gt, V)
        assert rel_close(Dv.grad, 0.5 * (gb + gb.transpose(0, 2, 1)))


class TestSolverStatus:
    def test_unconverged_svr_solves_warn(self, caplog):
        params, ctx = make_context()
        ctx = replace(ctx, cg_max_iter=1)
        _, _, aux = forward_tape(params, ctx)
        Dv = Var(aux["diag"].value.copy())
        Ov = Var(aux["off"].value.copy())
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="otsheaf.model"):
            h, info = svr_branch(Dv, Ov, aux["L"], ctx.X0, ctx)
            assert not info.converged
            backward(probe_sum(h, np.ones(h.value.shape)))
        msgs = [r.getMessage() for r in caplog.records
                if r.name == "otsheaf.model"]
        assert len(msgs) == 2
        assert msgs[0].startswith("svr forward solve")
        assert msgs[1].startswith("svr adjoint solve")
        for msg in msgs:
            assert ": 1 CG iterations, residual " in msg

    def test_converged_solves_stay_quiet(self, caplog):
        params, ctx = make_context()
        with caplog.at_level(logging.WARNING, logger="otsheaf.model"):
            grad_params(params, ctx)
        assert not [r for r in caplog.records if r.name == "otsheaf.model"]


class TestFullGradcheck:
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_all_blocks_against_central_differences(self, n_layers):
        params, ctx = make_context(n_layers=n_layers)
        grads, _, _ = grad_params(params, ctx)
        fd = finite_difference_gradients(params, ctx, step=1e-4)
        for name in grads:
            err = rel_err(grads[name], fd[name])
            assert err <= 1e-4, f"{name}: relative error {err:.2e}"

    def test_zero_kappa_kills_gradients(self):
        params, ctx = make_context()
        from dataclasses import replace
        ctx0 = replace(ctx, kappa=np.zeros(ctx.n))
        grads, loss, _ = grad_params(params, ctx0)
        # fully shrunk predictions are constant, so the loss is flat
        assert loss == pytest.approx(np.log(ctx.C) + ctx.kl_value
                                     + ctx.spec_value)
        for g in grads.values():
            assert np.allclose(g, 0.0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_gradient_aborts(self):
        params, ctx = make_context()
        params.W_cls[0, 0] = np.inf
        with pytest.raises(FloatingPointError):
            grad_params(params, ctx)


class TestForwardParity:
    def test_tape_matches_inference_pipeline(self):
        params, ctx = make_context()
        logits, _, aux = forward_tape(params, ctx)
        B = SheafIncidence(
            n=ctx.n, edges=ctx.edges,
            Rij=np.einsum("pd,mpq->mdq", params.W_theta, ctx.plans),
            Rji=np.einsum("pd,mqp->mdq", params.W_theta, ctx.plans))
        L = assemble_laplacian(B)
        # the tape and the assembly share one block formula, bit for bit
        tape_L = assemble_laplacian(SheafIncidence(
            n=ctx.n, edges=ctx.edges, Rij=aux["Rij"].value,
            Rji=aux["Rji"].value))
        assert np.array_equal(tape_L.diag, aux["diag"].value)
        assert np.array_equal(tape_L.off, aux["off"].value)
        cfg = DiffusionConfig(dt=ctx.dt, cg_tol=ctx.cg_tol,
                              cg_max_iter=ctx.cg_max_iter)
        h_svr, _ = svr_diffuse(L, ctx.X0.reshape(-1), cfg)
        h_afm, _, _ = afm_filter(normalized_laplacian(L), ctx.X0.reshape(-1),
                                 params.gamma, scale=ctx.cheb_scale)
        Z = fuse(h_svr.reshape(ctx.X0.shape), h_afm.reshape(ctx.X0.shape),
                 params.W_mix)
        probs = predict(Z, params.W_cls)
        e = np.exp(logits.value - logits.value.max(axis=1, keepdims=True))
        tape_probs = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(tape_probs, probs, atol=1e-10)

    def test_one_operator_serves_every_layer(self):
        params, ctx = make_context(n_layers=2)
        _, _, aux = forward_tape(params, ctx)
        L = aux["L"]
        assert L.diag is aux["diag"].value and L.off is aux["off"].value
        assert L._csr is not None   # built by the first layer's CG solve

    def test_loss_includes_frozen_terms(self):
        params, ctx = make_context()
        loss, _, aux = model_loss(params, ctx)
        assert loss.value == pytest.approx(
            aux["ce"] + ctx.kl_value + ctx.spec_value)

    def test_loss_deterministic(self):
        params, ctx = make_context()
        assert loss_value(params, ctx) == loss_value(params, ctx)
