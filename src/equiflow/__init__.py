"""Numerical laboratory for reparameterization equivariance of training flows."""

from .diffcalc import (
    DIM_CAP,
    ScalarField,
    VectorMap,
    fd_gradient,
    fd_jacobian,
    gradient,
    gradient_and_hessian,
    hessian,
    jacobian,
    jacobian_and_second_derivatives,
    second_derivatives,
)
from .errors import (
    ConfigurationError,
    DivergenceError,
    EquiflowError,
    EvaluationDomainError,
    SingularMatrixError,
    ToleranceGapError,
)
from .flows import (
    FlowField,
    GGNWeight,
    adam_stationary_flow,
    fisher_matrix,
    ggn_matrix,
    gradient_flow,
    nesterov_flow,
    newton_flow,
)
from .geometry import (
    FAMILIES,
    Connection,
    Diffeomorphism,
    OptimizerState,
    StateVelocity,
    affine_diffeomorphism,
    catalog,
    compose,
    pullback_connection,
    pullback_loss,
    pushforward_state,
    pushforward_tangent,
    sample_diffeomorphism,
    shear_diffeomorphism,
    state_order1,
    state_order2,
    translation,
)
from .harness import (
    ALGORITHMS,
    FlowBuilder,
    ResidualReport,
    TableReport,
    classify_equivariance,
    default_flow_builder,
    default_recipe,
    expected_verdict,
    naturality_residual,
    render_reports_text,
    render_table_text,
    reproduce_table,
    synthetic_dataset,
)
from .integrate import (
    DriftResult,
    Trajectory,
    equivariance_drift,
    integrate,
    trajectory_csv_text,
)
from .models import (
    Dataset,
    Model,
    dataset_loss,
    linear_model,
    load_dataset,
    mlp_tanh,
    network_jacobian,
)

__version__ = "0.1.0"
