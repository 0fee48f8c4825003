"""Per-edge Beta posteriors over prediction agreement, and what they buy.

Each edge carries a Beta(alpha, beta) belief about how often its endpoint
predictions agree.  Per round, soft agreement counts are extracted from the
predictions, rescaled by a class-coupling calibration factor, absorbed into
the posterior (with a cap on total concentration), and the posterior means
kappa shrink node predictions toward the uniform prior.  The summed KL to the
initial prior feeds a deviation term of PAC-Bayes form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, digamma

from .graphs import Graph, Labels

POSTERIOR_MAX_SWEEPS = 10
POSTERIOR_TOL = 1e-6


@dataclass
class PosteriorState:
    alpha_bar: np.ndarray
    beta_bar: np.ndarray
    kappa_bar: np.ndarray
    a0: float
    b0: float
    sweeps: int
    converged: bool
    coupling: ClassCoupling   # class_coupling of kappa_bar on the mask


@dataclass
class ClassCoupling:
    Pi: np.ndarray   # (C, C) symmetric mean agreement by class pair
    c_het: float     # Frobenius norm of Pi


def class_coupling(kappa_bar: np.ndarray, labels: Labels, g: Graph,
                   mask: np.ndarray) -> ClassCoupling:
    """Mean edge agreement bucketed by the true class pair of the endpoints.

    Only edges with both endpoints in `mask` (the labeled set) contribute.
    Pi is symmetrized; class pairs with no labeled edge stay at zero.
    """
    C = labels.C
    mask = np.asarray(mask)
    if mask.dtype == bool:
        labeled = mask
    else:
        labeled = np.zeros(g.n, dtype=bool)
        labeled[mask] = True
    I, J = g.edges[:, 0], g.edges[:, 1]
    both = labeled[I] & labeled[J]
    sums = np.zeros((C, C))
    counts = np.zeros((C, C))
    ci, cj = labels.y[I[both]], labels.y[J[both]]
    np.add.at(sums, (ci, cj), kappa_bar[both])
    np.add.at(counts, (ci, cj), 1.0)
    sums = sums + sums.T
    counts = counts + counts.T
    # the doubled diagonal cancels in the ratio
    Pi = np.divide(sums, counts, out=np.zeros((C, C)), where=counts > 0)
    return ClassCoupling(Pi=Pi, c_het=float(np.linalg.norm(Pi)))


def posterior_update(a0: float, b0: float, predictions: np.ndarray, g: Graph,
                     labels: Labels, mask: np.ndarray, gamma_cap: float,
                     n_msg: int) -> PosteriorState:
    """Fixed-point absorption of one round of n_msg messages per edge.

    Every edge starts from the shared Beta(a0, b0) prior; both must be at
    least 1.  Each sweep (i) reads soft agreement s_e = n_msg * <y_i, y_j>
    from the predictions, (ii) rescales it by Pi[c_i, c_j] / mean(Pi) using
    the predicted classes, (iii) forms the conjugate posterior and rescales
    any edge whose concentration alpha+beta exceeds gamma_cap back onto the
    cap.
    The coupling matrix starts from the prior means and is recomputed from
    the new means after each sweep (the state keeps the last); iteration
    stops when the means move less than POSTERIOR_TOL in max norm, or
    after POSTERIOR_MAX_SWEEPS.
    """
    if a0 < 1 or b0 < 1:
        raise ValueError("Beta prior parameters must be at least 1")
    I, J = g.edges[:, 0], g.edges[:, 1]
    s_raw = n_msg * np.einsum("ec,ec->e", predictions[I], predictions[J])
    c_hat = predictions.argmax(axis=1)
    kappa = np.full(g.m, a0 / (a0 + b0))
    coupling = class_coupling(kappa, labels, g, mask)
    alpha_bar, beta_bar = np.full(g.m, a0), np.full(g.m, b0)
    sweeps = 0
    converged = False
    for sweeps in range(1, POSTERIOR_MAX_SWEEPS + 1):
        mean_pi = float(coupling.Pi.mean())
        if mean_pi > 0:
            s = s_raw * coupling.Pi[c_hat[I], c_hat[J]] / mean_pi
        else:
            s = s_raw
        s = np.clip(s, 0.0, float(n_msg))  # keep the posterior parameters valid
        alpha_bar = a0 + s
        beta_bar = b0 + (n_msg - s)
        total = alpha_bar + beta_bar
        over = total > gamma_cap
        if np.any(over):
            shrink = gamma_cap / total[over]
            alpha_bar[over] *= shrink
            beta_bar[over] *= shrink
        kappa_new = alpha_bar / (alpha_bar + beta_bar)
        delta = float(np.max(np.abs(kappa_new - kappa))) if kappa.size else 0.0
        kappa = kappa_new
        coupling = class_coupling(kappa, labels, g, mask)
        if delta < POSTERIOR_TOL:
            converged = True
            break
    return PosteriorState(
        alpha_bar=alpha_bar, beta_bar=beta_bar, kappa_bar=kappa,
        a0=a0, b0=b0, sweeps=sweeps, converged=converged,
        coupling=coupling,
    )


def node_kappa(posterior: PosteriorState, g: Graph) -> np.ndarray:
    """Mean incident-edge agreement per node; isolated nodes use the prior mean."""
    sums = np.zeros(g.n)
    np.add.at(sums, g.edges[:, 0], posterior.kappa_bar)
    np.add.at(sums, g.edges[:, 1], posterior.kappa_bar)
    prior_mean = posterior.a0 / (posterior.a0 + posterior.b0)
    return np.divide(sums, g.degrees, out=np.full(g.n, prior_mean),
                     where=g.degrees > 0)


def calibrate_prediction(y_hat: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Shrink predictions toward uniform: kappa * y_hat + (1 - kappa) / C.

    The one formula for calibrated probabilities: the loss, the epoch
    reports and evaluate all read its output.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    k = np.asarray(kappa, dtype=np.float64)
    if k.ndim == y_hat.ndim - 1:
        k = k[..., None]
    return k * y_hat + (1.0 - k) / y_hat.shape[-1]


def beta_kl(a1, b1, a0, b0):
    """KL(Beta(a1, b1) || Beta(a0, b0)) in closed form."""
    return (betaln(a0, b0) - betaln(a1, b1)
            + (a1 - a0) * digamma(a1)
            + (b1 - b0) * digamma(b1)
            + (a0 - a1 + b0 - b1) * digamma(a1 + b1))


def kl_term(posterior: PosteriorState, n: int, delta: float) -> float:
    """sqrt((sum_e KL(posterior_e || Beta(a0, b0)) + ln(2/delta)) / (2n)).

    The prior (a0, b0) is the one the posterior started from.
    """
    if n <= 0:
        raise ValueError("n must be a positive count of labeled nodes")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    total = float(np.sum(beta_kl(posterior.alpha_bar, posterior.beta_bar,
                                 posterior.a0, posterior.b0)))
    return float(np.sqrt((total + np.log(2.0 / delta)) / (2.0 * n)))


def variance_bound(gamma: float, n_tot: float) -> float:
    """gamma / (gamma + n_tot)^2 * (1 - 1/(gamma + n_tot + 1))."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    t = gamma + n_tot
    return gamma / t ** 2 * (1.0 - 1.0 / (t + 1.0))


def beta_variance(a, b):
    return a * b / ((a + b) ** 2 * (a + b + 1.0))


def ece(predictions: np.ndarray, labels: Labels, mask: np.ndarray):
    """Expected calibration error with ten equal-width confidence bins.

    Returns (ece_value, rows) where each row is
    (bin_low, bin_high, mean_confidence, accuracy, count); empty bins carry
    zeros for the confidence and accuracy columns.
    """
    bins = 10
    idx = np.asarray(mask)
    if idx.dtype == bool:
        idx = np.flatnonzero(idx)
    conf = predictions[idx].max(axis=1)
    correct = predictions[idx].argmax(axis=1) == labels.y[idx]
    which = np.clip((conf * bins).astype(int), 0, bins - 1)
    rows = []
    total = idx.size
    value = 0.0
    for b in range(bins):
        in_bin = which == b
        count = int(in_bin.sum())
        lo, hi = b / bins, (b + 1) / bins
        if count == 0:
            rows.append((lo, hi, 0.0, 0.0, 0))
            continue
        c = float(conf[in_bin].mean())
        a = float(correct[in_bin].mean())
        value += count / total * abs(a - c)
        rows.append((lo, hi, c, a, count))
    return float(value), rows
