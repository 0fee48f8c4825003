"""Spans recorded around calls into otsheaf, from outside the package.

A traced call is timed by rebinding, for the length of a `with` block, the
name that the calling module looks up: `fit` finds `train_epoch` in the
globals of `otsheaf.training`, so replacing `otsheaf.training.train_epoch`
times every epoch without touching the package. Nothing under `src/` knows
about these wrappers.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# spans that open a stage; every span inherits the stage of its parent
STAGES = {"fit": "setup", "training.train_epoch": "epoch",
          "evaluate": "evaluate"}


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    stage: str | None
    fit: int
    start: float
    end: float = float("nan")
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span list with a stack of the spans currently open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.fit = -1
        self.error: int | None = None   # innermost span an error left

    @contextmanager
    def span(self, name: str):
        """Span `name`, child of the innermost open span, for the block."""
        parent = self.stack[-1] if self.stack else None
        stage = STAGES.get(name)
        if stage is None and parent is not None:
            stage = self.spans[parent].stage
        span = Span(name, parent, stage, self.fit, time.perf_counter())
        idx = len(self.spans)
        self.spans.append(span)
        self.stack.append(idx)
        try:
            yield span
        except BaseException as exc:
            span.info["error"] = type(exc).__name__
            if self.error is None:
                self.error = idx
            raise
        finally:
            span.end = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, inspect=None):
        """fn, timed as span `name`; inspect(result) adds fields to the span."""
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
            if inspect is not None:
                span.info.update(inspect(out))
            return out
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children of one span run one after another on one thread, so the
        time they cover is the sum of their durations.
        """
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out


@contextmanager
def rebound(tracer: Tracer, targets):
    """Rebind (module, attribute, span name, inspect) targets for the block."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
    try:
        for (mod, attr, name, inspect), (_, _, fn) in zip(targets, saved):
            setattr(mod, attr, tracer.wrap(name, fn, inspect))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _plans(out):
    return {"mb": out.nbytes / 1e6}


def _estimate(est):
    return {"converged": bool(est.converged), "residual": float(est.residual2)}


def _posterior(post):
    return {"sweeps": int(post.sweeps), "converged": bool(post.converged)}


def _wolfe(out):
    return {"accepted": bool(out[2])}


def _diffuse(out):
    info = out[1]
    return {"iters": int(info.total_iterations),
            "converged": bool(info.converged)}


def epoch_targets():
    """Rebinding that times epochs only: the untraced run."""
    import otsheaf.training as training
    return [(training, "train_epoch", "training.train_epoch", None)]


def layer_targets():
    """Rebinding that times every layer boundary: the traced run.

    Names are looked up where they are called: the estimator that
    `train_epoch` hands to `run_gap_ascent` is the training module's
    `normalized_range_gap`, and the adjoint CG solve looks up
    `svr_diffuse` in the model module when `backward` reaches it.
    """
    import otsheaf.model as model
    import otsheaf.spectral as spectral
    import otsheaf.training as training
    return epoch_targets() + [
        (training, "edge_plans", "transport.edge_plans", _plans),
        (training, "forward_tape", "model.forward_tape", None),
        (training, "backward", "autodiff.backward", None),
        (training, "assemble_laplacian", "laplacian.assemble", None),
        (training, "normalized_range_gap", "laplacian.gap_estimate", _estimate),
        (training, "posterior_update", "calibration.posterior", _posterior),
        (training, "run_gap_ascent", "spectral.run_gap_ascent", None),
        (training, "reassemble_restrictions", "laplacian.reassemble", None),
        (spectral, "wolfe_ascent_step", "spectral.wolfe_ascent_step", _wolfe),
        (spectral, "project", "spectral.project", None),
        (model, "restriction_maps", "model.restriction_maps", None),
        (model, "laplacian_blocks", "model.laplacian_blocks", None),
        (model, "isqrt_blocks", "model.isqrt_blocks", None),
        (model, "sandwich_blocks", "model.sandwich_blocks", None),
        (model, "svr_diffuse", "diffusion.svr_diffuse", _diffuse),
        (model, "chebyshev_apply", "diffusion.chebyshev_apply", None),
    ]


class WarningCounter(logging.Handler):
    """Counts records that reach the `otsheaf` logger on the innermost open span."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer
        self.outside = 0   # records emitted while no span was open

    def emit(self, record):
        if not self.tracer.stack:
            self.outside += 1
            return
        info = self.tracer.spans[self.tracer.stack[-1]].info
        info["warnings"] = info.get("warnings", 0) + 1


@contextmanager
def counting_warnings(tracer: Tracer):
    logger = logging.getLogger("otsheaf")
    handler = WarningCounter(tracer)
    logger.addHandler(handler)
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
