"""The paper's primary contribution: view-adaptive dynamic labeling (FVL).

Grammar preprocessing, compressed parse trees, dynamic data labels, static
view labels (three materialisation variants plus the matrix-free
specialisation), the decoding predicate and the visibility check.
"""

from repro.core.decoder import (
    depends,
    inputs_matrix,
    intermediate_matrix,
    outputs_matrix,
)
from repro.core.labels import (
    DataLabel,
    EdgeLabel,
    PortLabel,
    ProductionEdgeLabel,
    RecursionEdgeLabel,
    common_prefix_length,
)
from repro.core.matrix_free import (
    MatrixFreeViewLabel,
    build_matrix_free_label,
    depends_matrix_free,
)
from repro.core.parse_tree import CompressedParseTree, ParseNode
from repro.core.preprocessing import GrammarIndex
from repro.core.run_labeler import RunLabeler
from repro.core.scheme import FVLScheme
from repro.core.view_label import FVLVariant, ViewLabel, ViewLabeler
from repro.core.visibility import is_visible, path_visibility, visible_batch, visible_mask

__all__ = [
    "GrammarIndex",
    "EdgeLabel",
    "ProductionEdgeLabel",
    "RecursionEdgeLabel",
    "PortLabel",
    "DataLabel",
    "common_prefix_length",
    "CompressedParseTree",
    "ParseNode",
    "RunLabeler",
    "FVLVariant",
    "ViewLabel",
    "ViewLabeler",
    "MatrixFreeViewLabel",
    "build_matrix_free_label",
    "depends_matrix_free",
    "inputs_matrix",
    "outputs_matrix",
    "depends",
    "intermediate_matrix",
    "is_visible",
    "path_visibility",
    "visible_batch",
    "visible_mask",
    "FVLScheme",
]
