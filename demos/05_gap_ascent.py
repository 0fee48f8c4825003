"""Raise the mixing gap of a sheaf by backtracking Wolfe ascent.

Each accepted step adds a pattern-restricted outer product of the gap
eigenvector on the same sparsity pattern; a step whose iterate would leave
the positive-semidefinite operators is halved until it stays inside.  The
feasible step sizes form one interval, so the first one inside is found by
bisecting the halving ladder: at most 4 factorizations a step, not one per
halving.  The ledger of lambda_2 values never decreases, and the
connectivity penalty c_het / lambda_2 falls accordingly.
"""

import numpy as np

from otsheaf.graphs import erdos_renyi
from otsheaf.laplacian import (
    SheafIncidence,
    assemble_laplacian,
    estimate_spectrum,
    top_eigenvalue,
)
from otsheaf.spectral import run_gap_ascent, spec_penalty

rng = np.random.default_rng(11)
g = erdos_renyi(20, 4.0, seed=11, ensure_connected=True)
B = SheafIncidence(n=g.n, edges=g.edges,
                   Rij=rng.normal(size=(g.m, 2, 2)),
                   Rji=rng.normal(size=(g.m, 2, 2)))
L = assemble_laplacian(B)

est = estimate_spectrum(L)
print(f"start: lambda_2 = {est.lambda2:.4f}, "
      f"lambda_max = {top_eigenvalue(L.to_bsr(), 0):.4f}")
print(f"       penalty at c_het=0.8: {spec_penalty(0.8, est.lambda2):.4f}")

L_up, ledger = run_gap_ascent(L, steps=25, seed=11)
hist = np.array(ledger)
print(f"\n25 ascent steps, lambda_2 ledger (every 5th):")
print("  ", np.array_str(hist[::5], precision=4))
print(f"monotone: {bool(np.all(np.diff(hist) >= -1e-8))}, "
      f"total gain {hist[-1] - hist[0]:.4f}")
print(f"penalty after ascent: {spec_penalty(0.8, hist[-1]):.4f}")

# the iterate stays representable: symmetric PSD blocks on the edge pattern
w = np.linalg.eigvalsh(L_up.to_dense())
print(f"final operator: min eigenvalue {w[0]:.2e} (PSD), "
      f"same block pattern with {L_up.m} off-diagonal blocks")
