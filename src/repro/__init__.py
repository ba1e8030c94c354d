"""repro: a reproduction of "Labeling Workflow Views with Fine-Grained Dependencies".

The package implements the paper's fine-grained workflow model (context-free
workflow grammars with dependency assignments), views with grey-box
dependencies, the safety and recursion-structure analyses of Section 3, the
view-adaptive dynamic labeling scheme FVL of Section 4 (with its
space-efficient, query-efficient and matrix-free variants), the DRL baseline
it is compared against, the workload generators of the evaluation and a
benchmark harness that regenerates every figure and table of Section 6.

Quickstart::

    from repro import FVLScheme, Derivation, default_view
    from repro.workloads import build_running_example

    spec = build_running_example()
    scheme = FVLScheme(spec)

    derivation = Derivation(spec)            # starts at the start module S
    labeler = scheme.label_run(derivation)   # labels data items as they appear
    derivation.expand("S:1", 1)              # apply production p1 online
    view_label = scheme.label_default_view() # static label of the default view

    d1, d2 = 1, derivation.run.n_data_items  # two data item ids
    scheme.depends(labeler.label(d1), labeler.label(d2), view_label)
"""

from repro.core import (
    DataLabel,
    FVLScheme,
    FVLVariant,
    GrammarIndex,
    MatrixFreeViewLabel,
    PortLabel,
    RunLabeler,
    ViewLabel,
    ViewLabeler,
)
from repro.engine import (
    CacheStats,
    EngineStats,
    QueryEngine,
)
from repro.errors import (
    DecodingError,
    LabelingError,
    NotStrictlyLinearError,
    ReproError,
    UnsafeWorkflowError,
    ValidationError,
    VisibilityError,
)
from repro.matrices import BoolMatrix
from repro.service import (
    CheckpointPolicy,
    RunLifecycleManager,
)
from repro.store import (
    LabelStore,
    MappedRunStore,
    NodeTable,
    PathTable,
    checkpoint_run,
    compact,
)
from repro.model import (
    DataEdge,
    DependencyAssignment,
    Derivation,
    Module,
    Production,
    SimpleWorkflow,
    ViewProjection,
    WorkflowGrammar,
    WorkflowRun,
    WorkflowSpecification,
    WorkflowView,
    black_box_view,
    default_view,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "Module",
    "SimpleWorkflow",
    "DataEdge",
    "Production",
    "WorkflowGrammar",
    "DependencyAssignment",
    "WorkflowSpecification",
    "WorkflowView",
    "default_view",
    "black_box_view",
    "Derivation",
    "WorkflowRun",
    "ViewProjection",
    # core
    "FVLScheme",
    "FVLVariant",
    "GrammarIndex",
    "RunLabeler",
    "ViewLabel",
    "ViewLabeler",
    "MatrixFreeViewLabel",
    "DataLabel",
    "PortLabel",
    "BoolMatrix",
    # store
    "PathTable",
    "LabelStore",
    "NodeTable",
    "MappedRunStore",
    "checkpoint_run",
    "compact",
    # engine
    "QueryEngine",
    "EngineStats",
    "CacheStats",
    # service
    "RunLifecycleManager",
    "CheckpointPolicy",
    # errors
    "ReproError",
    "ValidationError",
    "UnsafeWorkflowError",
    "NotStrictlyLinearError",
    "LabelingError",
    "DecodingError",
    "VisibilityError",
]
