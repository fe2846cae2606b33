"""Closed-form Bayesian estimation of support bounds and tail parameters
for generalized Pareto subclasses, with an independent numerical oracle."""

__version__ = "0.1.0"

from .distributions import (GPMapping, GPParams, Gamma, LogPower, Lomax,
                            Pareto, Power, ShiftedExp, Uniform, as_generator,
                            inverted_pareto, to_gp)
from .errors import (ConvergenceError, CoverageError, DataError, DomainError,
                     InvalidRegimeError, NoInformationError, TailBayesError,
                     UnsupportedMappingError, UsageError)
from .pot_pipeline import (FittedModel, ModelSpec, SuffStats, SupportReport,
                           fit, holdout_log_predictive, merge, pot_fit,
                           predict, select_threshold, sequential_update,
                           suff_stats, support)
from .predictives import (ParetoLogLink, ParetoNegLogLink, ParetoShiftLink,
                          Trapezoid)
from .special_functions import upper_inc_gamma_neg

__all__ = [
    "__version__",
    "GPMapping", "GPParams", "Gamma", "LogPower", "Lomax", "Pareto", "Power",
    "ShiftedExp", "Uniform", "as_generator", "inverted_pareto", "to_gp",
    "ConvergenceError", "CoverageError", "DataError", "DomainError",
    "InvalidRegimeError", "NoInformationError", "TailBayesError",
    "UnsupportedMappingError", "UsageError",
    "FittedModel", "ModelSpec", "SuffStats", "SupportReport", "fit",
    "holdout_log_predictive", "merge", "pot_fit", "predict",
    "select_threshold", "sequential_update", "suff_stats", "support",
    "ParetoLogLink", "ParetoNegLogLink", "ParetoShiftLink", "Trapezoid",
    "upper_inc_gamma_neg",
]
