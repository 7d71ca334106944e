"""Spectrally-projected value iteration for MDP policy evaluation."""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    EigenFailureError,
    InsufficientTraceError,
    InvalidActionIndexError,
    InvalidDimensionError,
    InvalidKError,
    InvalidParameterError,
    MatrixTooLargeError,
    NegativeEntryError,
    NonSquareError,
    ParseError,
    PowerOverflowError,
    RowSumViolationError,
    SingularSystemError,
    SpecviError,
    SplitConjugatePairError,
    ZeroResidualError,
)
from .mdp import (
    InducedChain,
    Mdp,
    Policy,
    StochasticMatrix,
    as_discount,
    induce_chain,
    make_random_mdp,
    make_symmetric_walk,
    read_matrix,
    read_mdp,
    write_matrix,
    write_mdp,
)
from .spectral import (
    CompressedOperator,
    OrthonormalBasis,
    build_basis,
    compress,
    gelfand_finals,
    gelfand_sequence,
    inf_norm,
    power_vanishing_check,
    spectral_radius,
    two_norm,
)
from .evaluation import (
    ApproximationError,
    EvaluationResult,
    RunStatus,
    approximation_error,
    direct_solve,
    exact_vi,
    projected_vi,
    rate_estimate,
    reconstruct,
    series_eval,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    emit_trace_csv,
    read_trace_csv,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
