"""Sparse main effects plus low-rank interactions for mixed data frames.

Estimates a natural-parameter matrix X = sum_k alpha_k U^k + L from an
incompletely observed table with numeric, binary, and count columns, by
minimizing an exponential-family quasi-likelihood penalized by the l1 norm
of the coefficients and the nuclear norm of the interaction matrix.
"""

from .bcgd import ModelFit, SolverConfig, fit, impute, objective
from .dictionary import (
    CorruptionsDictionary,
    CustomDictionary,
    Dictionary,
    GroupEffectsDictionary,
    RowColumnDictionary,
    build_dictionary,
    equal_group_assignment,
)
from .expfam import LinkSpec, predicted_means
from .frame import (
    ColumnType,
    MixedDataFrame,
    default_links,
    read_csv,
    read_schema,
    write_csv,
)
from .selection import LambdaGrid, CVReport, cross_validate, default_grid
from .simulate import SimDesign, SimInstance, error_metrics, simulate_instance
from .subsolvers import (
    WeightedLassoProblem,
    WeightedNuclearProblem,
    nuclear_norm,
    soft_threshold_singular_values,
    solve_weighted_lasso,
    solve_weighted_nuclear,
)

__version__ = "0.1.0"

__all__ = [
    "ColumnType",
    "CorruptionsDictionary",
    "CustomDictionary",
    "CVReport",
    "Dictionary",
    "GroupEffectsDictionary",
    "LambdaGrid",
    "LinkSpec",
    "MixedDataFrame",
    "ModelFit",
    "RowColumnDictionary",
    "SimDesign",
    "SimInstance",
    "SolverConfig",
    "WeightedLassoProblem",
    "WeightedNuclearProblem",
    "build_dictionary",
    "cross_validate",
    "default_grid",
    "default_links",
    "equal_group_assignment",
    "error_metrics",
    "fit",
    "impute",
    "nuclear_norm",
    "objective",
    "predicted_means",
    "read_csv",
    "read_schema",
    "simulate_instance",
    "soft_threshold_singular_values",
    "solve_weighted_lasso",
    "solve_weighted_nuclear",
    "write_csv",
]
