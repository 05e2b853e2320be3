"""Numerical analysis of conformal vector fields on Riemannian charts.

The package works with coordinate charts whose metric components are small
closed-form expressions.  On top of an exact forward-mode differentiation
engine it provides: conformality checks (L_xi g = 2 phi g), zero finding and
classification of zeros (Killing-type, homothetic, or essential), geodesic
Taylor identities at zeros, and tracing of zero-set components together with
umbilicity verification of the traced submanifolds.

All operations are pure functions of their inputs; any sampling is driven by
an explicit seeded generator, so results are reproducible bit for bit.
"""

from .expr import (
    EvalDomainError,
    ExprSyntaxError,
    Jet,
    eval_jet,
    eval_jets,
    parse,
    substitute,
)
from .geometry import (
    Chart,
    ChartDomainError,
    FieldSpec,
    MetricError,
    TensorValue,
    covariant_derivative_field,
    divergence,
    exterior_derivative_dual,
    flat,
    gradient,
    metric_at,
    sample_interior,
    sharp,
)
from .conformal import (
    ConformalReport,
    conformal_factor,
    conformal_factor_gradient,
    conformal_residual,
    connection_change_residual,
    is_conformal,
    rescale_metric,
)
from .essential import (
    VERDICT_ESSENTIAL,
    VERDICT_HOMOTHETIC,
    VERDICT_INVALID,
    VERDICT_KILLING,
    ZeroClassification,
    classify_zero,
    find_zeros,
    limit_point_audit,
)
from .geodesic import (
    DomainExitError,
    GeodesicState,
    dxi_identity_residual,
    exp_map,
    integrate_geodesic,
    taylor_scalar_check,
    taylor_vector_check,
)
from .zeroset import (
    OffZeroSetError,
    PatchError,
    SubmanifoldPatch,
    second_fundamental_form,
    trace_component,
    umbilicity_conformal_invariance_check,
    umbilicity_report,
)
from . import models

__version__ = "0.1.0"
