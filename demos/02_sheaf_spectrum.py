"""Assemble sheaf Laplacians and read their spectra.

A scalar sheaf on a cycle reproduces the classical graph spectrum exactly.
A transport-lifted sheaf is usually rank-deficient on the edges, which
fills the bottom of the raw spectrum with near-null modes; the
degree-normalized operator separates genuine mixing from that clutter.
"""

import numpy as np

from otsheaf.graphs import Graph, erdos_renyi
from otsheaf.laplacian import (
    SheafIncidence,
    assemble_laplacian,
    estimate_spectrum,
    normalized_range_gap,
)
from otsheaf.transport import LiftConfig, lift_all_edges

# --- scalar sheaf on a cycle: closed-form cross-check ----------------------
n = 40
edges = np.array([(i, (i + 1) % n) for i in range(n)])
ones = np.ones((n, 1, 1))
B = SheafIncidence(n=n, edges=np.sort(edges, axis=1), Rij=ones, Rji=ones.copy())
L = assemble_laplacian(B)
est = estimate_spectrum(L)
exact = 2.0 * (1.0 - np.cos(2.0 * np.pi / n))
print(f"cycle C_{n}: lambda_2 = {est.lambda2:.6f}, "
      f"closed form 2(1-cos(2 pi/n)) = {exact:.6f}")
print(f"             lambda_max = {est.lambda_max:.6f} (exact 4 at n even)")

# --- transport-lifted sheaf on a random graph -------------------------------
g = erdos_renyi(30, 4.0, seed=2, ensure_connected=True)
rng = np.random.default_rng(2)
H = rng.uniform(0.5, 1.5, size=(g.n, 8))
W_proj = rng.uniform(0.2, 0.8, size=(8, 5))
W_theta = rng.normal(0.0, 0.6, size=(5, 3))   # edge stalks narrower than node stalks
Ls = assemble_laplacian(lift_all_edges(g, H, W_proj, W_theta, LiftConfig()))
w = np.linalg.eigvalsh(Ls.to_dense())
print(f"\nlifted sheaf on ER(30): operator size {Ls.N}, "
      f"smallest 6 raw eigenvalues:")
print("  ", np.array_str(w[:6], precision=3, suppress_small=False))
print(f"  {np.sum(w < 1e-6)} of {Ls.N} raw modes sit below 1e-6: "
      f"near-null clutter with no clean cutoff")

# the normalized operator reports connectivity above its null modes
gap = normalized_range_gap(Ls)
print(f"  normalized mixing gap lambda_2 = {gap.lambda2:.5f} "
      f"(lambda_max = {gap.lambda_max:.5f}, spectrum lives in [0, 2])")
