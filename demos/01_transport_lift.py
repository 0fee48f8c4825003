"""Lift two node feature vectors onto an edge via entropic transport.

The edge stalk sees each endpoint as a probability measure over feature
atoms; the transport plan between those measures is what the restriction
maps are built from, by the model's one builder of them,
`model.restriction_maps`.  Sharper regularization concentrates the plan.
The entropic plan is the whole lift: it is already the optimum of any
KL-proximal step started from it, so no second pass follows.  Training
lifts with `transport.edge_plans`, batched over edges and in closed form
up to one root per edge; the dense `sinkhorn` is its reference.
"""

import numpy as np

from otsheaf.model import restriction_maps
from otsheaf.transport import (
    edge_plans,
    entropic_objective,
    feature_cost_matrix,
    normalize_to_measure,
    sinkhorn,
)

rng = np.random.default_rng(0)

# two nodes with 6 raw features, projected to a 4-dimensional stalk
d0, d_v = 6, 4
h_i = rng.uniform(0.5, 1.5, size=d0)
h_j = rng.uniform(0.5, 1.5, size=d0)
W_proj = rng.uniform(0.2, 0.8, size=(d0, d_v))
W_theta = rng.normal(0.0, 0.5, size=(d_v, d_v))

X = np.stack([h_i, h_j]) @ W_proj   # projected signal, one row per node
edge = np.array([[0, 1]])
mu = normalize_to_measure(X[0])
nu = normalize_to_measure(X[1])
C = feature_cost_matrix(d_v)
print("endpoint measures")
print("  mu =", np.array_str(mu, precision=4))
print("  nu =", np.array_str(nu, precision=4))

# the plan has exactly these marginals; the cost is squared distance
# between atom indices on the stalk.  edge_plans is the lift training
# runs; it matches the dense reference to the lift's tolerance
for eps in (2.0, 0.5, 0.1):
    P = edge_plans(edge, X, eps)[0]
    reference = sinkhorn(mu, nu, C, eps).P
    print(f"eps={eps:4.1f}: row-marginal error "
          f"{np.abs(P.sum(axis=1) - mu).max():.2e}, "
          f"plan entropy {-np.sum(P * np.log(P + 1e-300)):.3f}, "
          f"objective {entropic_objective(P, C, eps):.4f}, "
          f"max |edge_plans - sinkhorn| {np.abs(P - reference).max():.2e}")
    print("  plan =\n", np.array_str(P, precision=4))

# the restriction maps are linear images of the plan: R_ij = W' P and
# R_ji = W' P', formed for the one-edge stack edge_plans returns
plans = edge_plans(edge, X, 0.5)
Rij, Rji = restriction_maps(W_theta, plans)
print("\nrestriction maps for eps=0.5")
print("  R_ij =\n", np.array_str(Rij, precision=4))
print("  R_ji =\n", np.array_str(Rji, precision=4))
print("  consistency |R_ij - W' P|:",
      np.abs(Rij - W_theta.T @ plans[0]).max())
