"""Per-edge Beta posteriors over prediction agreement, and what they buy.

Each edge carries a Beta(alpha, beta) belief about how often its endpoint
predictions agree.  Per round, soft agreement counts are extracted from the
predictions, rescaled by a class-coupling calibration factor, absorbed into
the posterior (with a cap on total concentration), and the posterior means
kappa shrink node predictions toward the uniform prior.  The summed KL to the
initial prior feeds a deviation term of PAC-Bayes form.

That KL needs ln Gamma and the digamma function psi.  They are evaluated
here in numpy: scipy's special-function module would cost every process
about 3.5 MB and 0.1 s to import.  Arguments below LGAMMA_SHIFT are
moved up by the recurrences Gamma(x + 1) = x Gamma(x) and
psi(x + 1) = psi(x) + 1/x, and the Stirling series (Abramowitz & Stegun
1964, 6.1.41 and 6.3.18) is summed above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, Labels

POSTERIOR_MAX_SWEEPS = 10
POSTERIOR_TOL = 1e-6

# ln Gamma and psi: the shift is even, since _lgamma_digamma pairs its
# factors, and from x >= 10 seven series terms reach double precision.
# They run from the highest power of 1/x^2 down: B_2k / (2k (2k - 1)) for
# ln Gamma and B_2k / (2k) for psi, k = 7..1.
LGAMMA_SHIFT = 10
_LGAMMA_SERIES = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260,
                  -1 / 360, 1 / 12)
_DIGAMMA_SERIES = (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252,
                   -1 / 120, 1 / 12)
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


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


def _lgamma_digamma(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln Gamma(x) and psi(x) for a 1-D float array of x > 0.

    x below LGAMMA_SHIFT is raised to z = x + LGAMMA_SHIFT, and the
    recurrences subtract ln prod_k (x + k) and sum_k 1/(x + k), k < SHIFT.
    The factors are paired, (x + k)(x + SHIFT-1 - k) = q + k(SHIFT-1 - k)
    with q = x (x + SHIFT-1), and a pair's reciprocals sum to
    (2x + SHIFT-1) / (q + k(SHIFT-1 - k)).
    """
    small = x < LGAMMA_SHIFT
    xs = x[small]
    z = x.copy()
    z[small] += LGAMMA_SHIFT
    inv = 1.0 / z
    inv2 = inv * inv
    log_z = np.log(z)
    lg = _LGAMMA_SERIES[0] * inv2
    psi = _DIGAMMA_SERIES[0] * inv2
    for c_lg, c_psi in zip(_LGAMMA_SERIES[1:-1], _DIGAMMA_SERIES[1:-1]):
        lg += c_lg
        lg *= inv2
        psi += c_psi
        psi *= inv2
    lg += _LGAMMA_SERIES[-1]
    lg *= inv
    lg += (z - 0.5) * log_z - z + _HALF_LOG_2PI
    psi += _DIGAMMA_SERIES[-1]
    psi *= inv2
    psi += 0.5 * inv
    np.subtract(log_z, psi, out=psi)
    top = LGAMMA_SHIFT - 1
    q = xs * (xs + top)
    prod, recip = q.copy(), 1.0 / q
    for k in range(1, LGAMMA_SHIFT // 2):
        pair = q + k * (top - k)
        prod *= pair
        recip += 1.0 / pair
    lg[small] -= np.log(prod)
    psi[small] -= (2.0 * xs + top) * recip
    return lg, psi


def beta_kl(a1, b1, a0, b0):
    """KL(Beta(a1, b1) || Beta(a0, b0)) in closed form.

    With betaln(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b), every
    ln Gamma and psi argument of the call goes through one
    `_lgamma_digamma` pass.  That form cancels, so betaln's error scales
    with its largest ln Gamma term rather than with betaln itself; this is
    felt only when one argument is orders of magnitude above the other.
    """
    a1, b1 = np.broadcast_arrays(np.asarray(a1, dtype=np.float64),
                                 np.asarray(b1, dtype=np.float64))
    a0, b0 = np.broadcast_arrays(np.asarray(a0, dtype=np.float64),
                                 np.asarray(b0, dtype=np.float64))
    lg, psi = _lgamma_digamma(np.concatenate(
        [a1.ravel(), b1.ravel(), (a1 + b1).ravel(),
         a0.ravel(), b0.ravel(), (a0 + b0).ravel()]))
    post = 3 * a1.size
    lg1 = lg[:post].reshape(3, *a1.shape)
    psi1 = psi[:post].reshape(3, *a1.shape)
    lg0 = lg[post:].reshape(3, *a0.shape)
    return (lg0[0] + lg0[1] - lg0[2] - (lg1[0] + lg1[1] - lg1[2])
            + (a1 - a0) * psi1[0]
            + (b1 - b0) * psi1[1]
            + (a0 - a1 + b0 - b1) * psi1[2])


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
