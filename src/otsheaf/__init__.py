"""Optimal-transport sheaf diffusion with PAC-Bayes calibrated predictions."""

from .calibration import (
    EdgeBeta,
    beta_variance,
    class_coupling,
    ece,
    init_prior,
    kl_term,
    node_kappa,
    posterior_update,
    variance_bound,
)
from .config import RunConfig, build_config
from .diffusion import CGConfig, DiffusionConfig, afm_filter, cg_solve, svr_diffuse
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
    SparsifierConfig,
    assemble_laplacian,
    estimate_range_gap,
    estimate_spectrum,
    normalized_laplacian,
    normalized_range_gap,
    sparsify,
)
from .model import ModelParams, grad_params, init_params, model_loss
from .spectral import WolfeConfig, gap_gradient, run_gap_ascent, spec_penalty, wolfe_ascent_step
from .training import (
    Dataset,
    EpochReport,
    EvalResult,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    fit,
    oversmoothing_sweep,
    risk_variance_series,
    stability_bound,
    stability_metric,
    train_epoch,
    write_curves,
    write_reliability,
)
from .transport import LiftConfig, edge_plans, sinkhorn
from .verify import CHECKS, CheckResult, run_checks

__version__ = "0.1.0"
