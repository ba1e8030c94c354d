"""Static analysis of workflow specifications (Section 3 of the paper).

Production graph, safety / full dependency assignment, recursion-structure
classification, simple-workflow consistency and the port-level reachability
oracle used as ground truth by the test suite.
"""

from repro.analysis.consistency import are_consistent, boundary_reachability_matrix
from repro.analysis.production_graph import PGEdge, ProductionGraph
from repro.analysis.reachability import (
    RunReachabilityOracle,
    WorkflowPortGraph,
    dependency_matrix,
    induced_dependency_matrix,
)
from repro.analysis.recursion import (
    is_linear_recursive,
    is_recursive,
    is_strictly_linear_recursive,
    recursion_summary,
    recursive_modules,
)
from repro.analysis.safety import (
    full_dependency_assignment,
    full_dependency_matrices,
    is_safe,
    is_safe_view,
    view_full_assignment,
)

__all__ = [
    "ProductionGraph",
    "PGEdge",
    "dependency_matrix",
    "induced_dependency_matrix",
    "WorkflowPortGraph",
    "RunReachabilityOracle",
    "are_consistent",
    "boundary_reachability_matrix",
    "is_recursive",
    "is_linear_recursive",
    "is_strictly_linear_recursive",
    "recursive_modules",
    "recursion_summary",
    "full_dependency_matrices",
    "full_dependency_assignment",
    "is_safe",
    "is_safe_view",
    "view_full_assignment",
]
