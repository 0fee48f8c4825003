"""Implicit diffusion solves and the adaptive frequency filter.

One implicit Euler step (I + dt L) x = b is solved by conjugate gradients;
with dt = 1/lambda_max the system's condition number is at most 2, so the
iteration count is small and flat across graph sizes.  The spectral filter
on the normalized operator reweights frequency bands with learned logits.
"""

import numpy as np
import scipy.sparse as sp

from otsheaf.diffusion import (
    CGConfig,
    cg_solve,
    chebyshev_apply,
    chebyshev_weights,
    svr_diffuse,
)
from otsheaf.graphs import erdos_renyi
from otsheaf.laplacian import SheafIncidence, assemble_laplacian

rng = np.random.default_rng(0)

for n in (100, 1000, 10000):
    g = erdos_renyi(n, 6.0, seed=n, ensure_connected=True)
    ones = np.ones((g.m, 1, 1))
    L = assemble_laplacian(SheafIncidence(n=g.n, edges=g.edges,
                                          Rij=ones, Rji=ones.copy()))
    # cheap upper estimate of lambda_max: Gershgorin row sums
    lam_hi = 2.0 * float(g.degrees.max())
    dt = 1.0 / lam_hi
    b = rng.normal(size=L.N)
    res = cg_solve(lambda v: v + dt * L.matvec(v), b,
                   CGConfig(tol=1e-8, max_iter=1000))
    ceiling = int(np.ceil(np.sqrt(2.0) * np.log(np.linalg.norm(b) / 1e-8)))
    print(f"n={n:6d}: m={g.m:6d}, CG iterations {res.iterations:3d} "
          f"(kappa<=2 ceiling {ceiling}), residual {res.residual:.1e}")

# one diffusion step on a flat stalk signal, as the model takes it
g = erdos_renyi(200, 5.0, seed=7, ensure_connected=True)
ones = np.ones((g.m, 1, 1))
L = assemble_laplacian(SheafIncidence(n=g.n, edges=g.edges,
                                      Rij=ones, Rji=ones.copy()))
x = rng.normal(size=L.N)
_, info = svr_diffuse(L, x, 0.05, CGConfig(tol=1e-8, max_iter=500))
print(f"\nsvr_diffuse: {info.total_iterations} CG iterations, "
      f"residual {info.residual:.1e}")

# the adaptive filter is a Chebyshev series in M = I - D^{-1/2} L D^{-1/2};
# the normalized Laplacian has its spectrum in [0, 2], so M's lies in [-1, 1]
D_isqrt = sp.diags(1.0 / np.sqrt(L.diag[:, 0, 0]))   # scalar stalks: degrees
M = sp.identity(L.N, format="csr") - D_isqrt @ L.to_bsr() @ D_isqrt
gamma = np.array([0.5, -1.0, 0.25, 0.0])       # logits over frequency bands
weights = chebyshev_weights(gamma)
f, _ = chebyshev_apply(M.dot, x, weights)
print(f"chebyshev filter: band weights {np.array_str(weights, precision=4)}, "
      f"response norm ratio {np.linalg.norm(f) / np.linalg.norm(x):.4f}")
