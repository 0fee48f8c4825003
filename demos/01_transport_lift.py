"""Lift two node feature vectors onto an edge via entropic transport.

The edge stalk sees each endpoint as a probability measure over feature
atoms; the transport plan between those measures is what the restriction
maps are built from.  Sharper regularization concentrates the plan.
The entropic plan is the whole lift: it is already the optimum of any
KL-proximal step started from it, so no second pass follows.
"""

import numpy as np

from otsheaf.transport import (
    LiftConfig,
    entropic_objective,
    feature_cost_matrix,
    normalize_to_measure,
    restriction_from_plan,
    sinkhorn,
)

rng = np.random.default_rng(0)

# two nodes with 6 raw features, projected to a 4-dimensional stalk
d0, d_v = 6, 4
h_i = rng.uniform(0.5, 1.5, size=d0)
h_j = rng.uniform(0.5, 1.5, size=d0)
W_proj = rng.uniform(0.2, 0.8, size=(d0, d_v))
W_theta = rng.normal(0.0, 0.5, size=(d_v, d_v))

mu = normalize_to_measure(h_i @ W_proj)
nu = normalize_to_measure(h_j @ W_proj)
C = feature_cost_matrix(d_v)
print("endpoint measures")
print("  mu =", np.array_str(mu, precision=4))
print("  nu =", np.array_str(nu, precision=4))

# the plan has exactly these marginals; the cost is squared distance
# between atom indices on the stalk
for eps in (2.0, 0.5, 0.1):
    P = sinkhorn(mu, nu, C, LiftConfig(eps=eps)).P
    print(f"eps={eps:4.1f}: row-marginal error "
          f"{np.abs(P.sum(axis=1) - mu).max():.2e}, "
          f"plan entropy {-np.sum(P * np.log(P + 1e-300)):.3f}, "
          f"objective {entropic_objective(P, C, eps):.4f}")

# the restriction maps are linear images of the plan: R_ij = W' P
plan = sinkhorn(mu, nu, C, LiftConfig())
Rij = restriction_from_plan(plan.P, W_theta)
Rji = restriction_from_plan(plan.P.T, W_theta)
print("\nrestriction maps for eps=0.5")
print("  R_ij =\n", np.array_str(Rij, precision=4))
print("  R_ji =\n", np.array_str(Rji, precision=4))
print("  consistency |R_ij - W' P|:",
      np.abs(Rij - W_theta.T @ plan.P).max())
