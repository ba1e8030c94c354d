"""Workflow productions ``M ->f W`` (Definition 3).

A production replaces a composite module ``M`` with a simple workflow ``W``.
The bijection ``f`` maps input ports of ``M`` to initial input ports of ``W``
and output ports of ``M`` to final output ports of ``W``.  Following the
paper's convention, the default bijection maps ports positionally
("top-to-bottom"): input port ``x`` of ``M`` maps to the ``x``-th initial
input of ``W``; explicit permutations can be supplied.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ValidationError
from repro.model.module import Module
from repro.model.workflow import SimpleWorkflow

__all__ = ["Production"]


class Production:
    """A workflow production ``lhs -> rhs`` with a port bijection.

    Parameters
    ----------
    lhs:
        The composite module being replaced.
    rhs:
        The simple workflow that replaces it.
    input_map / output_map:
        Optional permutations.  ``input_map[x - 1]`` is the index (1-based)
        into ``rhs.initial_inputs`` that input port ``x`` of ``lhs`` maps to.
        ``output_map`` is analogous for output ports and
        ``rhs.final_outputs``.  The default is the identity permutation.
    """

    def __init__(
        self,
        lhs: Module,
        rhs: SimpleWorkflow,
        *,
        input_map: Sequence[int] | None = None,
        output_map: Sequence[int] | None = None,
    ) -> None:
        if rhs.n_initial_inputs != lhs.n_inputs:
            raise ValidationError(
                f"production for {lhs.name!r}: module has {lhs.n_inputs} input "
                f"ports but the workflow has {rhs.n_initial_inputs} initial inputs"
            )
        if rhs.n_final_outputs != lhs.n_outputs:
            raise ValidationError(
                f"production for {lhs.name!r}: module has {lhs.n_outputs} output "
                f"ports but the workflow has {rhs.n_final_outputs} final outputs"
            )
        self._lhs = lhs
        self._rhs = rhs
        self._input_map = self._check_permutation(input_map, lhs.n_inputs, "input")
        self._output_map = self._check_permutation(output_map, lhs.n_outputs, "output")
        #: Slot owned by :func:`repro.analysis.reachability.port_layout`: the body's
        #: layout is a function of the production alone and dies with it.
        self.port_layout = None

    @staticmethod
    def _check_permutation(
        mapping: Sequence[int] | None, size: int, kind: str
    ) -> tuple[int, ...]:
        if mapping is None:
            return tuple(range(1, size + 1))
        values = tuple(int(v) for v in mapping)
        if sorted(values) != list(range(1, size + 1)):
            raise ValidationError(
                f"{kind}_map {values!r} is not a permutation of 1..{size}"
            )
        return values

    # -- accessors ---------------------------------------------------------

    @property
    def lhs(self) -> Module:
        return self._lhs

    @property
    def rhs(self) -> SimpleWorkflow:
        return self._rhs

    @property
    def input_map(self) -> tuple[int, ...]:
        return self._input_map

    @property
    def output_map(self) -> tuple[int, ...]:
        return self._output_map

    def rhs_initial_input(self, lhs_port: int) -> tuple[str, int]:
        """The ``(occurrence, port)`` of ``rhs`` that lhs input ``lhs_port`` maps to."""
        if not 1 <= lhs_port <= self._lhs.n_inputs:
            raise ValidationError(
                f"{self._lhs.name!r} has no input port {lhs_port}"
            )
        return self._rhs.initial_inputs[self._input_map[lhs_port - 1] - 1]

    def rhs_final_output(self, lhs_port: int) -> tuple[str, int]:
        """The ``(occurrence, port)`` of ``rhs`` that lhs output ``lhs_port`` maps to."""
        if not 1 <= lhs_port <= self._lhs.n_outputs:
            raise ValidationError(
                f"{self._lhs.name!r} has no output port {lhs_port}"
            )
        return self._rhs.final_outputs[self._output_map[lhs_port - 1] - 1]

    def size(self) -> int:
        """Total size |p| of the production: ports of lhs plus rhs occurrences."""
        return (
            self._lhs.n_inputs
            + self._lhs.n_outputs
            + len(self._rhs)
            + len(self._rhs.edges)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        modules = ",".join(self._rhs.module_names())
        return f"Production({self._lhs.name} -> [{modules}])"
