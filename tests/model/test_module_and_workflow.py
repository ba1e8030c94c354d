"""Unit tests for modules, simple workflows and their structural constraints."""

import pytest

from repro.errors import ValidationError, WorkflowStructureError
from repro.model import DataEdge, Module, SimpleWorkflow


def test_module_port_ranges():
    m = Module("M", 2, 3)
    assert list(m.input_ports) == [1, 2]
    assert list(m.output_ports) == [1, 2, 3]


def test_module_requires_positive_ports():
    with pytest.raises(ValidationError):
        Module("M", 0, 1)
    with pytest.raises(ValidationError):
        Module("M", 1, 0)


def test_module_requires_name():
    with pytest.raises(ValidationError):
        Module("", 1, 1)


def test_module_port_names_default_and_explicit():
    m = Module("M", 1, 1)
    assert m.input_name(1) == "M.in1"
    named = Module("N", 1, 1, input_names=("x",), output_names=("y",))
    assert named.input_name(1) == "x"
    assert named.output_name(1) == "y"


def test_module_port_name_length_mismatch():
    with pytest.raises(ValidationError):
        Module("M", 2, 1, input_names=("only-one",))


def test_module_invalid_port_lookup():
    m = Module("M", 1, 2)
    with pytest.raises(ValidationError):
        m.input_name(2)
    with pytest.raises(ValidationError):
        m.output_name(3)


def _two_module_workflow():
    a = Module("a", 1, 1)
    b = Module("b", 1, 1)
    return SimpleWorkflow([("a", a), ("b", b)], [DataEdge("a", 1, "b", 1)])


def test_simple_workflow_boundaries():
    w = _two_module_workflow()
    assert w.initial_inputs == (("a", 1),)
    assert w.final_outputs == (("b", 1),)
    assert w.n_initial_inputs == 1
    assert w.n_final_outputs == 1


def test_simple_workflow_topological_order():
    w = _two_module_workflow()
    assert w.topological_order == ("a", "b")
    assert w.position_of("a") == 1
    assert w.occurrence_at(2) == "b"


def test_simple_workflow_rejects_adjacent_edges():
    a = Module("a", 1, 1)
    b = Module("b", 2, 1)
    c = Module("c", 1, 1)
    with pytest.raises(WorkflowStructureError):
        SimpleWorkflow(
            [("a", a), ("b", b), ("c", c)],
            [DataEdge("a", 1, "b", 1), DataEdge("c", 1, "b", 1), DataEdge("a", 1, "b", 2)],
        )


def test_simple_workflow_rejects_cycles():
    a = Module("a", 1, 1)
    b = Module("b", 1, 1)
    with pytest.raises(WorkflowStructureError):
        SimpleWorkflow(
            [("a", a), ("b", b)],
            [DataEdge("a", 1, "b", 1), DataEdge("b", 1, "a", 1)],
        )


def test_simple_workflow_rejects_unknown_ports():
    a = Module("a", 1, 1)
    b = Module("b", 1, 1)
    with pytest.raises(ValidationError):
        SimpleWorkflow([("a", a), ("b", b)], [DataEdge("a", 2, "b", 1)])


def test_simple_workflow_rejects_unknown_occurrence():
    a = Module("a", 1, 1)
    with pytest.raises(ValidationError):
        SimpleWorkflow([("a", a)], [DataEdge("a", 1, "zzz", 1)])


def test_simple_workflow_rejects_duplicate_occurrence_ids():
    a = Module("a", 1, 1)
    with pytest.raises(ValidationError):
        SimpleWorkflow([("a", a), ("a", a)], [])


def test_simple_workflow_multiset_of_same_module():
    a = Module("a", 1, 1)
    w = SimpleWorkflow([("a1", a), ("a2", a)], [DataEdge("a1", 1, "a2", 1)])
    assert w.module_names() == ("a", "a")


def test_explicit_boundary_order_is_validated():
    a = Module("a", 2, 1)
    w = SimpleWorkflow([("a", a)], [], initial_input_order=[("a", 2), ("a", 1)])
    assert w.initial_inputs == (("a", 2), ("a", 1))
    with pytest.raises(ValidationError):
        SimpleWorkflow([("a", a)], [], initial_input_order=[("a", 1)])


def test_topological_order_is_deterministic_under_edge_order():
    a, b, c = Module("a", 1, 2), Module("b", 1, 1), Module("c", 2, 1)
    edges = [DataEdge("a", 1, "b", 1), DataEdge("a", 2, "c", 1), DataEdge("b", 1, "c", 2)]
    w1 = SimpleWorkflow([("a", a), ("b", b), ("c", c)], edges)
    w2 = SimpleWorkflow([("a", a), ("b", b), ("c", c)], list(reversed(edges)))
    assert w1.topological_order == w2.topological_order == ("a", "b", "c")


def test_empty_workflow_is_rejected():
    with pytest.raises(ValidationError):
        SimpleWorkflow([], [])
