"""Numerical toolkit for spin-boson relaxation at positive temperature."""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    ConfigurationError,
    DivergentIntegralError,
    DomainError,
    EvaluationError,
    InfraredError,
    PreconditionError,
    ScalingError,
    SpinBathError,
    TruncationError,
    UsageError,
)
from .bath_correlations import (
    JSource,
    KernelTable,
    c2_saturation,
    j_source_from_spec,
    q1,
    q2,
    qz,
    tabulate_kernels,
)
from .config import (
    ConstantsConfig,
    KernelsConfig,
    LsoConfig,
    OracleConfig,
    OutputConfig,
    RunConfig,
    SweepConfig,
    load_config,
    parse_config,
)
from .constants_ledger import (
    ConstantsReport,
    EigenvectorBounds,
    constants_c1_c2,
    constants_report,
    default_eps_hat,
    delta0_threshold,
    eigenvector_bounds,
)
from .relaxation import (
    LevelShiftMatrix,
    RateReport,
    default_time_horizon,
    gamma_rate,
    lso_entries,
    lso_matrix,
    p_infinity,
    p_of_t,
    rate_and_lso,
    report_dict,
)
from .spectral_density import (
    BathSpec,
    FormFactor,
    GluedFunction,
    GridSpec,
    check_condition_A,
    coupling_function,
    eval_J,
    glue,
    infrared_exponent,
    power_exp,
    regularity_norm,
    tabulated,
)
from .truncated_oracle import (
    DiscretizedBath,
    FiniteModel,
    OracleReport,
    TruncationSpec,
    build_model,
    check_unitary_equivalence,
    discretize,
    kms_vector,
    lso_finite,
    run_oracle_schedule,
    standard_oracle_bath,
    standard_test_bath,
    weyl_sequence_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
