"""Optimal-transport sheaf diffusion with PAC-Bayes calibrated predictions."""

from .calibration import (
    beta_variance,
    class_coupling,
    ece,
    kl_term,
    node_kappa,
    posterior_update,
    variance_bound,
)
from .config import RunConfig, build_config
from .diffusion import CGConfig, cg_solve, svr_diffuse
from .graphs import (
    Graph,
    Labels,
    NodeFeatures,
    SplitMask,
    convert_csv,
    erdos_renyi,
    homophily_ratio,
    load_graph,
    make_split,
    nrs,
    save_graph,
    synthetic_dataset,
)
from .laplacian import (
    SheafIncidence,
    SheafLaplacian,
    assemble_laplacian,
    estimate_spectrum,
    normalized_range_gap,
    sparsify,
)
from .model import ModelParams, grad_params, init_params
from .spectral import gap_gradient, run_gap_ascent, spec_penalty, wolfe_ascent_step
from .training import (
    Dataset,
    EpochReport,
    EvalResult,
    TrainConfig,
    TrainingDiverged,
    calibrate,
    evaluate,
    fit,
    oversmoothing_sweep,
    risk_variance_series,
    score,
    stability_bound,
    stability_metric,
    train_epoch,
    write_curves,
    write_reliability,
)
from .transport import edge_plans, sinkhorn
from .verify import CHECKS, CheckResult, run_checks

__version__ = "0.1.0"
