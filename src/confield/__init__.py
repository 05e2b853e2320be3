"""Numerical analysis of conformal vector fields on Riemannian charts.

The package works with coordinate charts whose metric components are small
closed-form expressions.  On top of an exact forward-mode differentiation
engine it provides: conformality checks (L_xi g = 2 phi g), zero finding and
classification of zeros (Killing-type, homothetic, or essential), the two
pointwise identities at a zero, nabla xi = A + phi I with A skew and
nabla^2 xi(v, v) = 2 dphi(v) v - |v|^2 grad phi, which are the first two
derivatives of xi along a geodesic, and tracing of zero-set components
together with umbilicity verification of the traced submanifolds.

All operations are pure functions of their inputs; any sampling draws from
an explicit :class:`Stream`, the package's seeded SplitMix64 generator, so
results are reproducible bit for bit, and numpy's random module is never loaded.
"""

from .expr import (
    EvalDomainError,
    ExprSyntaxError,
    Jet,
    eval_jet,
    eval_jets,
    parse,
)
from .geometry import (
    Chart,
    ChartDomainError,
    FieldSpec,
    MetricError,
    Stream,
    sample_interior,
)
from .conformal import (
    ConformalReport,
    conformal_factor_gradient,
    conformal_residual,
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
    taylor_checks,
)
from .zeroset import (
    OffZeroSetError,
    PatchError,
    SubmanifoldPatch,
    second_fundamental_form,
    trace_component,
    umbilicity_report,
)
from . import models

__version__ = "0.1.0"
