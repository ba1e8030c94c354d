"""Decoding data labels with view labels (Section 4.4, Algorithms 1 and 2).

Given the labels ``phi_r(d1)`` and ``phi_r(d2)`` of two data items and the
label ``phi_v(U)`` of the view the query is asked through, the ternary
predicate :func:`depends` decides whether ``d2`` depends on ``d1`` w.r.t.
``U``.  It only manipulates the labels (plus the global grammar index shared
by all labels of a specification); it never touches the run.

The implementation follows the case analysis of Algorithm 2:

* **Boundary cases** — one of the items is an initial input or a final
  output of the run; the answer reduces to ``lambda*(S)`` or to a single
  chain of ``Inputs`` / ``Outputs`` matrices (Algorithm 1).
* **Case 1** — the two ports live on the same parse-tree path (one module is
  derived from the other): the answer is always *no*.
* **Case 2a** — the lowest common ancestor of the two parse-tree nodes is a
  module node: combine an output chain, one ``Z`` matrix and an input chain.
* **Case 2b** — the LCA is a recursive node: additionally traverse the
  recursion chain between the two members with a cycle product
  (``Inputs((s, t+i, j-i))`` in the paper's notation) and use the ``Z``
  matrix of the cycle production.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.labels import (
    DataLabel,
    EdgeLabel,
    ProductionEdgeLabel,
    RecursionEdgeLabel,
    common_prefix_length,
)
from repro.core.preprocessing import GrammarIndex
from repro.core.view_label import ViewLabel
from repro.errors import DecodingError
from repro.matrices import BoolMatrix
from repro.model.module import Module

__all__ = [
    "inputs_matrix",
    "outputs_matrix",
    "depends",
    "intermediate_matrix",
]


# ---------------------------------------------------------------------------
# Algorithm 1: procedures Inputs and Outputs
# ---------------------------------------------------------------------------


def inputs_matrix(edge: EdgeLabel, view_label: ViewLabel) -> BoolMatrix:
    """Procedure ``Inputs``: input-to-input reachability along one tree edge.

    For a production edge ``(k, i)`` this is ``I(k, i)``; for a recursion
    edge ``(s, t, i)`` it is the product of the ``i - 1`` consecutive ``I``
    matrices along the cycle (computed with fast powering, Lemma 5).
    """
    if isinstance(edge, ProductionEdgeLabel):
        return view_label.inputs(edge.k, edge.i)
    if isinstance(edge, RecursionEdgeLabel):
        return view_label.inputs_chain(edge.s, edge.t, edge.i - 1)
    raise DecodingError(f"unknown edge label {edge!r}")


def outputs_matrix(edge: EdgeLabel, view_label: ViewLabel) -> BoolMatrix:
    """Procedure ``Outputs``: reversed output-to-output reachability along one edge."""
    if isinstance(edge, ProductionEdgeLabel):
        return view_label.outputs(edge.k, edge.i)
    if isinstance(edge, RecursionEdgeLabel):
        return view_label.outputs_chain(edge.s, edge.t, edge.i - 1)
    raise DecodingError(f"unknown edge label {edge!r}")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _module_at_path(path: Sequence[EdgeLabel], index: GrammarIndex) -> Module:
    """The module of the parse-tree node reached by a port-label path."""
    if not path:
        return index.start_module
    last = path[-1]
    if isinstance(last, ProductionEdgeLabel):
        return index.edge_target_module(last.k, last.i)
    if isinstance(last, RecursionEdgeLabel):
        return index.chain_member_module(last.s, last.t, last.i)
    raise DecodingError(f"unknown edge label {last!r}")


def _chain_over(
    labels: Sequence[EdgeLabel],
    view_label: ViewLabel,
    identity_size: int,
    matrix_for,
) -> BoolMatrix:
    """Left-to-right product of per-edge matrices over a path segment."""
    result: BoolMatrix | None = None
    for edge in labels:
        matrix = matrix_for(edge, view_label)
        result = matrix if result is None else result @ matrix
    if result is None:
        result = BoolMatrix.identity(identity_size)
    return result


def _inputs_chain_over(
    labels: Sequence[EdgeLabel],
    view_label: ViewLabel,
    identity_size: int,
) -> BoolMatrix:
    """Left-to-right product of ``Inputs`` matrices over a path segment."""
    return _chain_over(labels, view_label, identity_size, inputs_matrix)


def _outputs_chain_over(
    labels: Sequence[EdgeLabel],
    view_label: ViewLabel,
    identity_size: int,
) -> BoolMatrix:
    """Left-to-right product of ``Outputs`` matrices over a path segment."""
    return _chain_over(labels, view_label, identity_size, outputs_matrix)


def _is_prefix(shorter: Sequence[EdgeLabel], longer: Sequence[EdgeLabel]) -> bool:
    return len(shorter) <= len(longer) and tuple(longer[: len(shorter)]) == tuple(shorter)


# ---------------------------------------------------------------------------
# Algorithm 2: the decoding predicate pi
# ---------------------------------------------------------------------------


def depends(
    label1: DataLabel,
    label2: DataLabel,
    view_label: ViewLabel,
) -> bool:
    """The decoding predicate ``pi(phi_r(d1), phi_r(d2), phi_v(U))``.

    Returns ``True`` iff data item ``d2`` (labelled ``label2``) depends on
    data item ``d1`` (labelled ``label1``) with respect to the view whose
    label is ``view_label``.
    """
    index = view_label.index
    o1, i1 = label1.producer, label1.consumer
    o2, i2 = label2.producer, label2.consumer

    # Case I: nothing depends on a final output; an initial input depends on nothing.
    if i1 is None or o2 is None:
        return False

    # Case II: initial input -> final output, answered by lambda*(S).
    if o1 is None and i2 is None:
        return view_label.lam_star_start().get(i1.port, o2.port)

    # Case III: initial input -> intermediate item.
    if o1 is None:
        matrix = _inputs_chain_over(
            i2.path, view_label, identity_size=index.start_module.n_inputs
        )
        return matrix.get(i1.port, i2.port)

    # Case IV: intermediate item -> final output (symmetric, with Outputs).
    if i2 is None:
        matrix = _outputs_chain_over(
            o1.path, view_label, identity_size=index.start_module.n_outputs
        )
        # matrix[x, y] == True iff output x of S is reachable FROM output y of M1.
        return matrix.get(o2.port, o1.port)

    # Main cases: both items are intermediate.
    matrix = intermediate_matrix(o1.path, i2.path, view_label)
    if matrix is None:
        return False
    return matrix.get(o1.port, i2.port)


def intermediate_matrix(
    l1: tuple[EdgeLabel, ...],
    l2: tuple[EdgeLabel, ...],
    view_label: ViewLabel,
) -> BoolMatrix | None:
    """Reachability matrix from the outputs at path ``l1`` to the inputs at ``l2``.

    ``None`` means no dependency can exist between the two parse-tree nodes
    (the matrix would be all-false).  The result depends only on the two
    paths and the view label — not on the queried ports — which is what lets
    batched callers answer every query pair sharing the same paths with a
    single matrix assembly.
    """
    return _intermediate_matrix(l1, l2, view_label)


def _intermediate_matrix(
    l1: tuple[EdgeLabel, ...],
    l2: tuple[EdgeLabel, ...],
    view_label: ViewLabel,
) -> BoolMatrix | None:
    # Case 1: one module is derived from the other (or they coincide).
    if _is_prefix(l1, l2) or _is_prefix(l2, l1):
        return None

    split = common_prefix_length(l1, l2)
    e1 = l1[split]
    e2 = l2[split]

    if isinstance(e1, ProductionEdgeLabel) and isinstance(e2, ProductionEdgeLabel):
        return _case_module_lca(l1, l2, split, e1, e2, view_label)
    if isinstance(e1, RecursionEdgeLabel) and isinstance(e2, RecursionEdgeLabel):
        return _case_recursive_lca(l1, l2, split, e1, e2, view_label)
    raise DecodingError(
        "malformed labels: sibling edges of the same parse-tree node must have "
        f"the same kind, got {e1!r} and {e2!r}"
    )


def _case_module_lca(
    l1: tuple[EdgeLabel, ...],
    l2: tuple[EdgeLabel, ...],
    split: int,
    e1: ProductionEdgeLabel,
    e2: ProductionEdgeLabel,
    view_label: ViewLabel,
) -> BoolMatrix | None:
    """Case 2a: the LCA is a module node; both diverging edges carry ``(k, .)``."""
    index = view_label.index
    if e1.k != e2.k:
        raise DecodingError(
            "malformed labels: sibling production edges disagree on the "
            f"production number ({e1!r} vs {e2!r})"
        )
    i, j = e1.i, e2.i
    if i > j:
        # The producer-side module comes after the consumer-side module in the
        # topological order; no path can exist.
        return None
    z = view_label.z(e1.k, i, j)
    if z.is_all_false():
        return None
    out_chain = _outputs_chain_over(
        l1[split + 1 :],
        view_label,
        identity_size=_module_at_path(l1, index).n_outputs,
    )
    in_chain = _inputs_chain_over(
        l2[split + 1 :],
        view_label,
        identity_size=_module_at_path(l2, index).n_inputs,
    )
    return out_chain.T @ z @ in_chain


def _case_recursive_lca(
    l1: tuple[EdgeLabel, ...],
    l2: tuple[EdgeLabel, ...],
    split: int,
    e1: RecursionEdgeLabel,
    e2: RecursionEdgeLabel,
    view_label: ViewLabel,
) -> BoolMatrix | None:
    """Case 2b: the LCA is a recursive node; diverging edges carry ``(s, t, .)``."""
    index = view_label.index
    if (e1.s, e1.t) != (e2.s, e2.t):
        raise DecodingError(
            "malformed labels: sibling recursion edges disagree on the cycle "
            f"({e1!r} vs {e2!r})"
        )
    s, t = e1.s, e1.t
    i, j = e1.i, e2.i
    if i == j:  # pragma: no cover - impossible for well-formed labels
        raise DecodingError("diverging recursion edges cannot share the child index")

    if i < j:
        # The producer side lives on chain member i, the consumer side below
        # member j, which is nested (more deeply) inside member i.
        if len(l1) == split + 1:
            # o1 is an output port of chain member i itself; nothing inside
            # member i is reachable from its outputs.
            return None
        e_down = l1[split + 1]
        if not isinstance(e_down, ProductionEdgeLabel):
            raise DecodingError(
                "malformed label: the child edge of a chain member must be a "
                f"production edge, got {e_down!r}"
            )
        cycle_edge = index.cycle_edge(s, t + i - 1)
        if cycle_edge.production != e_down.k:
            raise DecodingError(
                "malformed labels: chain member was not expanded with its cycle "
                "production"
            )
        i_prime = e_down.i
        j_prime = cycle_edge.position
        if i_prime > j_prime:
            return None
        z = view_label.z(e_down.k, i_prime, j_prime)
        if z.is_all_false():
            return None
        out_chain = _outputs_chain_over(
            l1[split + 2 :],
            view_label,
            identity_size=_module_at_path(l1, index).n_outputs,
        )
        chain_down = view_label.inputs_chain(s, t + i, j - i - 1)
        in_chain = _inputs_chain_over(
            l2[split + 1 :],
            view_label,
            identity_size=_module_at_path(l2, index).n_inputs,
        )
        return out_chain.T @ z @ chain_down @ in_chain

    # i > j: the producer side is nested inside chain member j+1 (or deeper),
    # the consumer side hangs off member j outside the recursion chain.
    if len(l2) == split + 1:
        # i2 is an input port of chain member j; nothing nested inside member j
        # can reach its own inputs.
        return None
    e_down = l2[split + 1]
    if not isinstance(e_down, ProductionEdgeLabel):
        raise DecodingError(
            "malformed label: the child edge of a chain member must be a "
            f"production edge, got {e_down!r}"
        )
    cycle_edge = index.cycle_edge(s, t + j - 1)
    if cycle_edge.production != e_down.k:
        raise DecodingError(
            "malformed labels: chain member was not expanded with its cycle production"
        )
    c_prime = cycle_edge.position
    d_prime = e_down.i
    if c_prime > d_prime:
        return None
    z = view_label.z(e_down.k, c_prime, d_prime)
    if z.is_all_false():
        return None
    out_chain = _outputs_chain_over(
        l1[split + 1 :],
        view_label,
        identity_size=_module_at_path(l1, index).n_outputs,
    )
    chain_up = view_label.outputs_chain(s, t + j, i - j - 1)
    in_chain = _inputs_chain_over(
        l2[split + 2 :],
        view_label,
        identity_size=_module_at_path(l2, index).n_inputs,
    )
    return (chain_up @ out_chain).T @ z @ in_chain
