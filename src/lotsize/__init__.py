"""Learning setup decisions for capacitated lot-sizing and re-solving with fixed variables."""

from .core import (
    FEAS_TOL,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    FixPlan,
    Instance,
    Solution,
    SolveStats,
    Violation,
    check_solution,
    flow_feasible,
    objective_value,
)
from .generate import Dataset, GenParams, desk_params, generate_dataset, generate_instance

__version__ = "0.1.0"

__all__ = [
    "FEAS_TOL",
    "STATUS_INFEASIBLE",
    "STATUS_OPTIMAL",
    "STATUS_TIME_LIMIT",
    "Dataset",
    "FixPlan",
    "GenParams",
    "Instance",
    "Solution",
    "SolveStats",
    "Violation",
    "check_solution",
    "desk_params",
    "flow_feasible",
    "generate_dataset",
    "generate_instance",
    "objective_value",
    "__version__",
]
