import logging
import weakref
from dataclasses import replace

import numpy as np
import pytest

from otsheaf.autodiff import Var, backward, linear
from otsheaf.calibration import calibrate_prediction
from otsheaf.diffusion import (
    CGConfig,
    chebyshev_apply,
    chebyshev_weights,
    fuse,
    predict,
    svr_diffuse,
)
from otsheaf.graphs import Graph
from otsheaf.laplacian import (
    SheafIncidence,
    SheafLaplacian,
    assemble_laplacian,
)
from otsheaf.model import (
    calibrated_ce,
    diffusion_layer,
    finite_difference_gradients,
    forward_tape,
    grad_params,
    isqrt_blocks,
    laplacian_blocks,
    loss_value,
    restriction_maps,
    restriction_vjp,
    sandwich_blocks,
    sheaf_laplacian,
    softmax,
)
from otsheaf.verify import _gradcheck_fixture
from tests.test_laplacian import dense_sls, diag_operator


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


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
    return Var(np.vdot(W, v.value), (v,), lambda g, live: (g * W,))


class TestEngine:
    def test_quadratic_matches_hand_derivative(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        Wv = Var(W)
        y = linear(Var(x[None, :]), Wv)
        loss = Var((y.value ** 2).sum(), (y,),
                   lambda g, live: (2 * g * y.value,))
        backward(loss)
        assert np.allclose(Wv.grad, 2 * np.outer(W @ x, x))

    def test_fanout_accumulates(self):
        x = Var(np.array([2.0]))
        y = Var(x.value * 3.0, (x,), lambda g, live: (3.0 * g,))
        z = Var(x.value + y.value, (x, y), lambda g, live: (g, g))
        backward(z)
        assert x.grad[0] == pytest.approx(4.0)


class TestLiveness:
    def test_vjp_receives_the_live_mask(self):
        # a leaf, a plain array and a node built from constants alone
        leaf = Var(np.array([1.0, 2.0]))
        const = Var(np.array([3.0, 4.0]), (np.ones(2),),
                    lambda g, live: (g,))
        masks = []

        def vjp(g, live):
            masks.append(live)
            return g * const.value, None, None

        root = Var(leaf.value @ const.value,
                   (leaf, np.ones(2), const), vjp)
        backward(root)
        assert masks == [(True, False, False)]
        np.testing.assert_array_equal(leaf.grad, [3.0, 4.0])
        assert const.grad is None

    def test_vjp_of_a_node_with_constant_parents_never_runs(self):
        calls = []

        def vjp(g, live):
            calls.append(live)
            return (g,)

        x = Var(np.array([2.0]))
        const = Var(np.array([5.0]), (np.array([1.0]),), vjp)
        below = Var(const.value * 2.0, (const,), vjp)
        root = Var(x.value * below.value, (x, below),
                   lambda g, live: (g * below.value, g * x.value))
        assert not const.live and not below.live and root.live
        backward(root)
        assert calls == []
        np.testing.assert_array_equal(x.grad, [10.0])

    def test_constant_node_frees_its_closure_at_construction(self):
        captured = np.array([2.0, 5.0])
        probe = weakref.ref(captured)
        node = Var(captured * 3.0, (np.ones(2),),
                   lambda g, live, c=captured: (g * c,))
        del captured
        assert probe() is None
        assert node.parents == () and node.vjp is None


class TestPushOwnership:
    @pytest.mark.parametrize("u_first", [True, False])
    def test_shared_gradients_are_never_written_into(self, u_first):
        # u hands its upstream gradient to a, a view of it to b and the
        # gradient again to c; w adds a second gradient into a and b.  An
        # in-place add into a's or b's first gradient would also change
        # u's, and through it the other two.
        a, b, c = Var(np.zeros(3)), Var(np.zeros(3)), Var(np.zeros(3))
        u = Var(np.zeros(3), (a, b, c), lambda g, live: (g, g[:], g))
        w = Var(np.zeros(3), (a, b), lambda g, live: (2.0 * g, 3.0 * g))
        gu, gw = np.array([1.0, 2.0, 3.0]), np.array([-4.0, 0.5, 7.0])
        if u_first:
            root = Var(0.0, (u, w), lambda g, live: (gu.copy(), gw.copy()))
        else:
            root = Var(0.0, (w, u), lambda g, live: (gw.copy(), gu.copy()))
        backward(root)
        np.testing.assert_array_equal(a.grad, gu + 2.0 * gw)
        np.testing.assert_array_equal(b.grad, gu + 3.0 * gw)
        np.testing.assert_array_equal(c.grad, gu)
        np.testing.assert_array_equal(gu, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(gw, [-4.0, 0.5, 7.0])


class TestTapeRelease:
    def test_backward_consumes_the_tape(self):
        # the array mid's VJP captures is reachable only through that closure
        x, w = Var(np.array([1.0, 2.0])), Var(np.array([3.0, -1.0]))
        captured = np.array([2.0, 5.0])
        probe = weakref.ref(captured)
        mid = Var(x.value * captured, (x,),
                  lambda g, live, c=captured: (g * c,))
        del captured
        root = Var(mid.value @ w.value, (mid, w),
                   lambda g, live: (g * w.value, g * mid.value))
        assert probe() is not None
        backward(root)
        for node in (root, mid):
            assert node.parents == ()
            assert node.grad is None
        assert probe() is None
        np.testing.assert_array_equal(x.grad, w.value * [2.0, 5.0])
        np.testing.assert_array_equal(w.grad, mid.value)

    def test_backward_of_a_forward_tape_frees_its_operators(self):
        params, ctx = _gradcheck_fixture()
        logits, leaves, aux = forward_tape(params, ctx)
        L = weakref.ref(aux["L"])
        diag = aux["diag"]
        del aux
        kappa = np.full(ctx.n, 0.5)
        probs = softmax(logits.value)
        ce = calibrated_ce(logits, probs, calibrate_prediction(probs, kappa),
                           replace(ctx, kappa=kappa))
        del logits
        backward(ce)
        assert L() is None
        assert diag.parents == () and diag.grad is None
        for leaf in leaves.values():
            assert leaf.grad is not None


class TestPrimitiveGradients:
    def setup_method(self):
        self.params, self.ctx = _gradcheck_fixture()
        self.rng = np.random.default_rng(99)

    def test_restriction_maps(self):
        W = self.params.W_theta.copy()
        plans = self.ctx.plans
        m, d_e = plans.shape[0], W.shape[1]
        probe = self.rng.standard_normal((m, d_e, plans.shape[1]))

        def value():
            R = restriction_maps(W, plans)
            return float(np.vdot(probe, R[:m]) + np.vdot(probe, R[m:]))

        grad = restriction_vjp(W, plans,
                               lambda R, e: np.concatenate([probe[e]] * 2))
        assert rel_err(grad, fd_tensor(value, W)) < 1e-7

    def test_laplacian_blocks(self):
        # W maps 3-dim stalks into a 2-dim edge stalk: rank-deficient R
        W = self.rng.standard_normal((3, 2))
        plans = self.rng.standard_normal((12, 3, 3))
        pd = self.rng.standard_normal((10, 3, 3))
        po = self.rng.standard_normal((12, 3, 3))

        def value(wd, wo):
            d, o, _ = laplacian_blocks(Var(W), plans, self.ctx.edges, 10)
            return float(wd * np.vdot(pd, d.value) + wo * np.vdot(po, o.value))

        # the diagonal blocks alone, the off blocks alone, and both, whose
        # two gradients the tape sums into W's
        for wd, wo in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]:
            Wv = Var(W)
            d, o, _ = laplacian_blocks(Wv, plans, self.ctx.edges, 10)
            s = Var(wd * np.vdot(pd, d.value) + wo * np.vdot(po, o.value),
                    (d, o), lambda g, live: (g * wd * pd, g * wo * po))
            backward(s)
            assert rel_err(Wv.grad, fd_tensor(lambda: value(wd, wo), W)) < 1e-7

    def test_isqrt_blocks_asymmetric_input(self):
        base = self.rng.standard_normal((4, 3, 3))
        D = np.einsum("iab,icb->iac", base, base) + 0.5 * np.eye(3)
        D = D + 0.05 * self.rng.standard_normal(D.shape)  # asymmetric part
        probe = self.rng.standard_normal(D.shape)

        def value():
            S = isqrt_blocks(Var(D), diag_operator(D))
            return float(np.vdot(probe, S.value))

        Dv = Var(D)
        s = probe_sum(isqrt_blocks(Dv, diag_operator(D)), probe)
        backward(s)
        assert rel_err(Dv.grad, fd_tensor(value, D, step=1e-6)) < 1e-6

    def layer_probe(self, half):
        """The layer's blocks, S and one probe on its columns of `half`.

        The probe on the other branch's d_v columns is zero, so the layer's
        gradient is that branch's alone.
        """
        _, _, aux = forward_tape(self.params, self.ctx)
        D0 = aux["diag"].value.copy()
        O0 = aux["off"].value.copy()
        S0 = isqrt_blocks(Var(D0), aux["L"]).value.copy()
        probe = np.zeros((self.ctx.n, 2 * self.ctx.d_v))
        cols = slice(0, self.ctx.d_v) if half == "svr" else slice(
            self.ctx.d_v, None)
        probe[:, cols] = self.rng.standard_normal(self.ctx.X0.shape)
        return D0, O0, S0, probe

    def layer(self, S, D, O, gamma):
        L = SheafLaplacian(n=self.ctx.n, d_v=self.ctx.d_v,
                           edges=self.ctx.edges, diag=D.value, off=O.value)
        return diffusion_layer(S, D, O, L, gamma, self.ctx.X0, self.ctx,
                               [], release=True)[0]

    def test_svr_branch(self):
        D0, O0, S0, probe = self.layer_probe("svr")
        gam = self.params.gamma.copy()

        def value():
            h = self.layer(Var(S0), Var(D0), Var(O0), Var(gam))
            return float(np.vdot(probe, h.value))

        Dv, Ov = Var(D0), Var(O0)
        backward(probe_sum(self.layer(Var(S0), Dv, Ov, Var(gam)), probe))
        assert rel_err(Dv.grad, fd_tensor(value, D0)) < 1e-6
        assert rel_err(Ov.grad, fd_tensor(value, O0)) < 1e-6

    def test_cheb_branch(self):
        D0, O0, S0, probe = self.layer_probe("cheb")
        gam = self.params.gamma.copy()

        def value():
            h = self.layer(Var(S0), Var(D0), Var(O0), Var(gam))
            return float(np.vdot(probe, h.value))

        Sv, Dv, Ov, gv = Var(S0), Var(D0), Var(O0), Var(gam)
        backward(probe_sum(self.layer(Sv, Dv, Ov, gv), probe))
        assert rel_err(Sv.grad, fd_tensor(value, S0)) < 1e-6
        assert rel_err(Dv.grad, fd_tensor(value, D0)) < 1e-6
        assert rel_err(Ov.grad, fd_tensor(value, O0)) < 1e-6
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

    def test_sandwich_block_vjps_in_S(self):
        I, J = self.edges[:, 0], self.edges[:, 1]
        g_md = self.rng.normal(size=self.D.shape)
        g_mo = self.rng.normal(size=self.O.shape)
        Sv = Var(self.S)
        md, _ = sandwich_blocks(Sv, Var(self.D), Var(self.O), self.edges)
        backward(probe_sum(md, g_md))
        assert rel_close(Sv.grad,
                         np.einsum("iad,ibc,icd->iab", g_md, self.D, self.S)
                         + np.einsum("iad,iab,ibc->icd", g_md, self.S, self.D))
        Sv = Var(self.S)
        _, mo = sandwich_blocks(Sv, Var(self.D), Var(self.O), self.edges)
        backward(probe_sum(mo, g_mo))
        ref = np.zeros_like(self.S)
        np.add.at(ref, I, np.einsum("ead,ebc,ecd->eab", g_mo, self.O,
                                    self.S[J]))
        np.add.at(ref, J, np.einsum("ead,eab,ebc->ecd", g_mo, self.S[I],
                                    self.O))
        assert rel_close(Sv.grad, ref)

    def test_laplacian_blocks_vjps(self):
        I, J = self.edges[:, 0], self.edges[:, 1]
        plans = self.rng.normal(size=self.O.shape)
        W = self.rng.normal(size=(4, 4))
        Ri = np.einsum("pd,mpq->mdq", W, plans)
        Rj = np.einsum("pd,mqp->mdq", W, plans)
        g_d = self.rng.normal(size=self.D.shape)   # not symmetric
        g_o = self.rng.normal(size=self.O.shape)
        Wv = Var(W)
        d, o, _ = laplacian_blocks(Wv, plans, self.edges, 12)
        backward(Var(np.vdot(g_d, d.value) + np.vdot(g_o, o.value),
                     (d, o), lambda g, live: (g * g_d, g * g_o)))
        # the gradients the parent tape sent to R_ij and R_ji, taken to W
        g_ij = (np.einsum("exc,eyc->exy", Ri, g_d[I])
                + np.einsum("exb,eby->exy", Ri, g_d[I])
                - np.einsum("exc,eyc->exy", Rj, g_o))
        g_ji = (np.einsum("exc,eyc->exy", Rj, g_d[J])
                + np.einsum("exb,eby->exy", Rj, g_d[J])
                - np.einsum("exb,eby->exy", Ri, g_o))
        assert rel_close(Wv.grad, np.einsum("mpq,mdq->pd", plans, g_ij)
                         + np.einsum("mqp,mdq->pd", plans, g_ji))

    def test_restriction_maps_forward_and_vjp(self):
        plans = self.rng.random(size=(len(self.edges), 4, 4))
        W = self.rng.normal(size=(4, 3))
        g_ij = self.rng.normal(size=(len(self.edges), 3, 4))
        g_ji = self.rng.normal(size=(len(self.edges), 3, 4))
        m = len(self.edges)
        R = restriction_maps(W, plans)
        assert rel_close(R[:m], np.einsum("pd,mpq->mdq", W, plans))
        assert rel_close(R[m:], np.einsum("pd,mqp->mdq", W, plans))
        zero = np.zeros_like(g_ij)
        grad = restriction_vjp(W, plans,
                               lambda R, e: np.concatenate([g_ij[e], zero[e]]))
        assert rel_close(grad, np.einsum("mpq,mdq->pd", plans, g_ij))
        grad = restriction_vjp(W, plans,
                               lambda R, e: np.concatenate([zero[e], g_ji[e]]))
        assert rel_close(grad, np.einsum("mqp,mdq->pd", plans, g_ji))

    def test_restriction_maps_match_transport_formula(self):
        # R_ij = W' P and R_ji = W' P', bit for bit the product of W' with
        # each plan, written straight into one stack
        params, ctx = _gradcheck_fixture()
        g = Graph.from_edges(ctx.n, ctx.edges)
        W = params.W_theta
        R = restriction_maps(W, ctx.plans)
        assert np.array_equal(R[:g.m], np.matmul(W.T, ctx.plans))
        assert np.array_equal(R[g.m:],
                              np.matmul(W.T, ctx.plans.transpose(0, 2, 1)))

    def test_isqrt_blocks_vjp(self):
        g = self.rng.normal(size=self.D.shape)
        Dv = Var(self.D)
        backward(probe_sum(isqrt_blocks(Dv, diag_operator(self.D)), g))
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
        params, ctx = _gradcheck_fixture()
        ctx = replace(ctx, cg_max_iter=1)
        _, _, aux = forward_tape(params, ctx)
        Dv = Var(aux["diag"].value.copy())
        Ov = Var(aux["off"].value.copy())
        S = isqrt_blocks(Var(Dv.value), aux["L"])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="otsheaf.model"):
            h, info = diffusion_layer(S, Dv, Ov, aux["L"], Var(params.gamma),
                                      ctx.X0, ctx, [], release=True)
            assert not info.converged
            probe = np.zeros(h.value.shape)
            probe[:, :ctx.d_v] = 1.0
            backward(probe_sum(h, probe))
        msgs = [r.getMessage() for r in caplog.records
                if r.name == "otsheaf.model"]
        assert len(msgs) == 2
        assert msgs[0].startswith("svr forward solve")
        assert msgs[1].startswith("svr adjoint solve")
        for msg in msgs:
            assert ": 1 CG iterations, residual " in msg

    def test_converged_solves_stay_quiet(self, caplog):
        params, ctx = _gradcheck_fixture()
        with caplog.at_level(logging.WARNING, logger="otsheaf.model"):
            grad_params(params, ctx)
        assert not [r for r in caplog.records if r.name == "otsheaf.model"]


class TestFullGradcheck:
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_all_blocks_against_central_differences(self, n_layers):
        params, ctx = _gradcheck_fixture(n_layers=n_layers)
        grads, _, _ = grad_params(params, ctx)
        fd = finite_difference_gradients(params, ctx)
        for name in grads:
            err = rel_err(grads[name], fd[name])
            assert err <= 1e-4, f"{name}: relative error {err:.2e}"

    def test_zero_kappa_kills_gradients(self):
        params, ctx = _gradcheck_fixture()
        from dataclasses import replace
        ctx0 = replace(ctx, kappa=np.zeros(ctx.n))
        grads, loss, _ = grad_params(params, ctx0)
        # fully shrunk predictions are constant, so the loss is flat
        assert loss == pytest.approx(np.log(len(params.W_cls)))
        for g in grads.values():
            assert np.allclose(g, 0.0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_gradient_aborts(self):
        params, ctx = _gradcheck_fixture()
        params.W_cls[0, 0] = np.inf
        with pytest.raises(FloatingPointError):
            grad_params(params, ctx)


class TestForwardParity:
    def test_tape_matches_inference_pipeline(self):
        params, ctx = _gradcheck_fixture()
        logits, _, aux = forward_tape(params, ctx)
        B = SheafIncidence(
            n=ctx.n, edges=ctx.edges,
            Rij=np.einsum("pd,mpq->mdq", params.W_theta, ctx.plans),
            Rji=np.einsum("pd,mqp->mdq", params.W_theta, ctx.plans))
        L = assemble_laplacian(B)
        # the tape and the assembly share one block formula, bit for bit
        tape_L = sheaf_laplacian(params.W_theta, ctx.plans, ctx.edges, ctx.n)
        assert np.array_equal(tape_L.diag, aux["diag"].value)
        assert np.array_equal(tape_L.off, aux["off"].value)
        h_svr, _ = svr_diffuse(L, ctx.X0.reshape(-1), ctx.dt,
                               CGConfig(tol=ctx.cg_tol,
                                        max_iter=ctx.cg_max_iter))
        SLS = dense_sls(L)
        h_afm, _ = chebyshev_apply(lambda v: v - SLS @ v, ctx.X0.reshape(-1),
                                   chebyshev_weights(params.gamma))
        Z = fuse(h_svr.reshape(ctx.X0.shape), h_afm.reshape(ctx.X0.shape),
                 params.W_mix)
        probs = predict(Z, params.W_cls)
        e = np.exp(logits.value - logits.value.max(axis=1, keepdims=True))
        tape_probs = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(tape_probs, probs, atol=1e-10)

    def test_one_operator_serves_every_layer(self):
        params, ctx = _gradcheck_fixture(n_layers=2)
        _, _, aux = forward_tape(params, ctx)
        L = aux["L"]
        assert L.diag is aux["diag"].value and L.off is aux["off"].value
        assert L._bsr is not None   # built by the first layer's CG solve

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_one_forward_constructs_one_operator(self, monkeypatch, n_layers):
        # laplacian_blocks' L is the pass's one SheafLaplacian: S, every
        # layer's solves and filter, and aux["L"] all read it
        params, ctx = _gradcheck_fixture(n_layers=n_layers)
        built = []
        real_init = SheafLaplacian.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(SheafLaplacian, "__init__", counted)
        _, _, aux = forward_tape(params, ctx)
        assert len(built) == 1 and built[0] is aux["L"]
        assert aux["L"]._eigh is not None

    def test_loss_deterministic(self):
        params, ctx = _gradcheck_fixture()
        assert loss_value(params, ctx) == loss_value(params, ctx)
