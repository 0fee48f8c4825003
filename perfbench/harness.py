"""Closed-loop runs of one workload, their output checks and their metrics.

A run is a sequence of fits. Each fit trains on a fresh split of the
workload's fixture graph and is followed by one `evaluate` call; the next
fit starts only after that call returns. The loop stops when the next fit
would end after `seconds`, but never before MIN_FITS fits, so setup_s is a
median of several set-ups. Before the first timed fit, one
untimed fit of the workload's tiny shape loads what the package imports
lazily. A traced run runs each fit twice on the same split, untraced and
traced, alternating which goes first: the untraced pass gives the tracing
overhead, the traced pass the per-layer numbers.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from spans import Tracer, counting_warnings, epoch_targets, layer_targets, rebound
from workloads import Workload, split_seed

MIN_FITS = 3          # set-ups per untraced run
QUALITY_FITS = 3      # test_acc and test_ece average the first fits of a run


@dataclass
class FitRecord:
    fit: int
    split_seed: int
    traced: bool
    setup_s: float | None = None
    epoch_s: list = field(default_factory=list)
    eval_s: float | None = None
    test_acc: float | None = None
    test_ece: float | None = None


@dataclass
class RunResult:
    workload: Workload
    tracer: Tracer
    fits: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    check_failures: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    warnings_outside: int = 0
    wall_s: float = 0.0

    @property
    def correct(self) -> bool:
        return not self.check_failures


def run_workload(wl: Workload, seed: int, seconds: float,
                 trace: bool) -> RunResult:
    from otsheaf import Dataset, evaluate, fit, make_split
    tiny = wl.tiny()
    g, feats, labels = tiny.graph()
    data = Dataset(g, feats, labels, make_split(labels, tiny.per_class, seed))
    try:
        evaluate(fit(data, tiny.config(), tiny.variant)[0], data,
                 tiny.config(), variant=tiny.variant)
    except Exception:
        pass   # an error here recurs in the timed fits, which count it

    g, feats, labels = wl.graph()
    cfg = wl.config()
    result = RunResult(workload=wl, tracer=Tracer())
    min_fits = 1 if trace else MIN_FITS
    t_start = time.perf_counter()
    durations = []
    with counting_warnings(result.tracer) as counter:
        while len(durations) < min_fits or (
                time.perf_counter() - t_start + statistics.fmean(durations)
                <= seconds):
            t0 = time.perf_counter()
            s = split_seed(seed, len(durations))
            data = Dataset(g, feats, labels,
                           make_split(labels, per_class=wl.per_class, seed=s))
            passes = (False, True) if trace else (False,)
            if len(durations) % 2:
                passes = passes[::-1]
            for traced in passes:
                _fit_and_evaluate(result, wl, cfg, data, s, traced)
            durations.append(time.perf_counter() - t0)
    result.warnings_outside = counter.outside
    result.wall_s = time.perf_counter() - t_start
    return result


def _fit_and_evaluate(result: RunResult, wl: Workload, cfg, data,
                      seed: int, traced: bool) -> None:
    from otsheaf import evaluate, fit
    tracer = result.tracer
    tracer.fit = len(result.fits)
    rec = FitRecord(fit=tracer.fit, split_seed=seed, traced=traced)
    result.fits.append(rec)
    first = len(tracer.spans)
    with rebound(tracer, layer_targets() if traced else epoch_targets()):
        try:
            with tracer.span("fit") as fit_span:
                params, reports = fit(data, cfg, variant=wl.variant)
        except Exception as exc:
            started = _epochs(tracer, first)
            result.attempted += max(len(started), 1)
            result.failed += 1
            _record_error(result, rec, exc)
            return
        epochs = _epochs(tracer, first)
        rec.setup_s = epochs[0].start - fit_span.start
        rec.epoch_s = [s.duration for s in epochs]
        result.attempted += len(reports)
        bad = [r.epoch for r in reports if not math.isfinite(r.raw_loss)]
        result.failed += len(bad)
        if bad:
            _check_failed(result, rec, f"non-finite raw_loss in epochs {bad}")
        if len(reports) != wl.epochs:
            _check_failed(result, rec, f"{len(reports)} epochs run, "
                                       f"{wl.epochs} asked for")

        result.attempted += 1
        try:
            with tracer.span("evaluate") as eval_span:
                res = evaluate(params, data, cfg, variant=wl.variant)
        except Exception as exc:
            result.failed += 1
            _record_error(result, rec, exc)
            return
    rec.eval_s = eval_span.duration
    problem = _probability_rows(res.predictions, data.g.n, data.labels.C)
    if problem:
        result.failed += 1
        _check_failed(result, rec, f"evaluate predictions: {problem}")
        return
    rec.test_acc, rec.test_ece = res.test_acc, res.ece


def _epochs(tracer: Tracer, first: int):
    return [s for s in tracer.spans[first:]
            if s.name == "training.train_epoch"]


def _probability_rows(p: np.ndarray, n: int, C: int) -> str | None:
    if p.shape != (n, C):
        return f"shape {p.shape}, expected {(n, C)}"
    if not np.all(np.isfinite(p)):
        return "non-finite entries"
    if p.min() < 0.0:
        return f"negative entry {p.min():.3e}"
    worst = float(np.abs(p.sum(axis=1) - 1.0).max())
    if worst > 1e-9:
        return f"a row sums to 1 {worst:+.3e}"
    return None


def _record_error(result: RunResult, rec: FitRecord, exc: Exception) -> None:
    tracer = result.tracer
    span = tracer.spans[tracer.error] if tracer.error is not None else None
    result.errors.append({
        "fit": rec.fit, "traced": rec.traced, "type": type(exc).__name__,
        "message": str(exc), "span": span.name if span else None,
        "stage": span.stage if span else None,
        "traceback": traceback.format_exc()})
    tracer.error = None


def _check_failed(result: RunResult, rec: FitRecord, what: str) -> None:
    result.check_failures.append({"fit": rec.fit, "traced": rec.traced,
                                  "check": what})


# ------------------------------------------------------------------ metrics

def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result: RunResult) -> dict:
    """name -> (value, unit), from the untraced fits."""
    fits = [f for f in result.fits if not f.traced]
    epoch_ms = [t * 1e3 for f in fits for t in f.epoch_s]
    tail = (float(np.percentile(epoch_ms, result.workload.tail_pct))
            if epoch_ms else 0.0)
    return {
        "setup_s": (_median([f.setup_s for f in fits if f.setup_s is not None]),
                    "s"),
        "epochs_per_s": (_ratio(len(epoch_ms), sum(epoch_ms) / 1e3), "1/s"),
        "epoch_ms_p50": (_median(epoch_ms), "ms"),
        "epoch_ms_tail": (tail, "ms"),
        # the mean: evaluate's time can be bimodal (0.45 s or 0.65 s at
        # n=600), and the median of a few such calls jumps between modes
        "eval_s": (_mean([f.eval_s for f in fits if f.eval_s is not None]),
                   "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def quality(result: RunResult) -> dict:
    """Outputs a user trains for; deterministic given the seed, so not timed."""
    first = [f for f in result.fits if not f.traced][:QUALITY_FITS]
    first = [f for f in first if f.test_acc is not None]
    return {
        "test_acc": (_mean([f.test_acc for f in first]), "fraction"),
        "test_ece": (_mean([f.test_ece for f in first]), "fraction"),
        "failed_frac": (_ratio(result.failed, result.attempted), "fraction"),
    }


def per_layer(result: RunResult) -> dict:
    """name -> (value, unit), from the traced fits' spans.

    Times are per epoch and count only spans inside epochs, unless the name
    says per call or per fit. Self time is a span's duration minus its
    child spans.
    """
    tracer = result.tracer
    traced = {f.fit for f in result.fits if f.traced}
    self_s = tracer.self_times()
    spans = [(s, self_s[i]) for i, s in enumerate(tracer.spans)
             if s.fit in traced]
    in_epoch = [(s, st) for s, st in spans if s.stage == "epoch"]
    n_epochs = sum(1 for s, _ in in_epoch if s.name == "training.train_epoch")

    def named(name, pool=in_epoch):
        return [(s, st) for s, st in pool if s.name == name]

    def ms(name, own=False):
        return _ratio(1e3 * sum(st if own else s.duration
                                for s, st in named(name)), n_epochs)

    def calls(name):
        return _ratio(len(named(name)), n_epochs)

    def frac(name, key):
        hits = named(name)
        return _ratio(sum(bool(s.info.get(key)) for s, _ in hits), len(hits))

    plans = named("transport.edge_plans", spans)
    cg = named("diffusion.svr_diffuse")
    post = named("calibration.posterior")
    untraced = [t for f in result.fits if not f.traced for t in f.epoch_s]
    traced_epochs = [t for f in result.fits if f.traced for t in f.epoch_s]
    eps_untraced = _ratio(len(untraced), sum(untraced))
    eps_traced = _ratio(len(traced_epochs), sum(traced_epochs))
    return {
        "transport.edge_plans_ms": (
            _ratio(1e3 * sum(s.duration for s, _ in plans), len(plans)), "ms"),
        "transport.edge_plans_calls": (_ratio(len(plans), len(traced)),
                                       "calls/fit"),
        "transport.plan_mb": (max((s.info["mb"] for s, _ in plans
                                   if "mb" in s.info), default=0.0), "MB"),
        "laplacian.gap_estimate_ms": (ms("laplacian.gap_estimate"), "ms"),
        "laplacian.gap_estimate_calls": (calls("laplacian.gap_estimate"),
                                         "calls/epoch"),
        "laplacian.gap_converged_frac": (
            frac("laplacian.gap_estimate", "converged"), "fraction"),
        "laplacian.assemble_ms": (ms("laplacian.assemble"), "ms"),
        "laplacian.reassemble_ms": (ms("laplacian.reassemble"), "ms"),
        "spectral.ascent_ms": (ms("spectral.run_gap_ascent"), "ms"),
        "spectral.ascent_self_ms": (
            ms("spectral.run_gap_ascent", own=True)
            + ms("spectral.wolfe_ascent_step", own=True), "ms"),
        "spectral.project_ms": (ms("spectral.project"), "ms"),
        "spectral.project_calls": (calls("spectral.project"), "calls/epoch"),
        "spectral.wolfe_steps": (calls("spectral.wolfe_ascent_step"),
                                 "steps/epoch"),
        "spectral.wolfe_accept_frac": (
            frac("spectral.wolfe_ascent_step", "accepted"), "fraction"),
        "model.forward_self_ms": (ms("model.forward_tape", own=True), "ms"),
        "model.restriction_ms": (ms("model.restriction_maps"), "ms"),
        "model.blocks_ms": (ms("model.laplacian_blocks"), "ms"),
        "model.isqrt_ms": (ms("model.isqrt_blocks"), "ms"),
        "model.sandwich_ms": (ms("model.sandwich_blocks"), "ms"),
        "diffusion.cg_ms": (ms("diffusion.svr_diffuse"), "ms"),
        "diffusion.cg_solves": (calls("diffusion.svr_diffuse"),
                                "solves/epoch"),
        "diffusion.cg_iters": (_ratio(sum(s.info.get("iters", 0)
                                          for s, _ in cg), n_epochs),
                               "iters/epoch"),
        "diffusion.cg_converged_frac": (
            frac("diffusion.svr_diffuse", "converged"), "fraction"),
        "diffusion.cheb_ms": (ms("diffusion.chebyshev_apply"), "ms"),
        "autodiff.backward_self_ms": (ms("autodiff.backward", own=True), "ms"),
        "calibration.posterior_ms": (ms("calibration.posterior"), "ms"),
        "calibration.posterior_sweeps": (
            _ratio(sum(s.info.get("sweeps", 0) for s, _ in post), len(post)),
            "sweeps/call"),
        "calibration.posterior_converged_frac": (
            frac("calibration.posterior", "converged"), "fraction"),
        "training.epoch_self_ms": (ms("training.train_epoch", own=True), "ms"),
        "training.warnings": (
            _ratio(sum(s.info.get("warnings", 0) for s, _ in in_epoch),
                   n_epochs), "records/epoch"),
        "trace.overhead_frac": (
            1.0 - _ratio(eps_traced, eps_untraced), "fraction"),
    }
