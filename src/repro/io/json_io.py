"""JSON serialisation of specifications, views and derivations.

The paper stores all experimental inputs as files (its prototype used XML).
The JSON codecs here are the library's one interchange format for model
objects: they round-trip specifications, views
and recorded derivations (as production-application scripts), which is what
the benchmark harness uses to persist workloads.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import SerializationError
from repro.model import (
    DataEdge,
    DependencyAssignment,
    Derivation,
    Module,
    Production,
    SimpleWorkflow,
    WorkflowGrammar,
    WorkflowSpecification,
    WorkflowView,
)

__all__ = [
    "specification_to_dict",
    "specification_from_dict",
    "view_to_dict",
    "view_from_dict",
    "derivation_to_dict",
    "derivation_from_dict",
    "dump_specification",
    "load_specification",
]


# -- modules / workflows ------------------------------------------------------------


def _module_to_dict(module: Module) -> dict[str, Any]:
    return {"name": module.name, "inputs": module.n_inputs, "outputs": module.n_outputs}


def _module_from_dict(data: dict[str, Any]) -> Module:
    return Module(data["name"], int(data["inputs"]), int(data["outputs"]))


def _workflow_to_dict(workflow: SimpleWorkflow) -> dict[str, Any]:
    return {
        "occurrences": [
            {"id": occ_id, "module": module.name}
            for occ_id, module in workflow.occurrences.items()
        ],
        "edges": [
            {
                "src": edge.src_occurrence,
                "src_port": edge.src_port,
                "dst": edge.dst_occurrence,
                "dst_port": edge.dst_port,
            }
            for edge in workflow.edges
        ],
        "initial_inputs": [list(pair) for pair in workflow.initial_inputs],
        "final_outputs": [list(pair) for pair in workflow.final_outputs],
    }


def _workflow_from_dict(
    data: dict[str, Any], modules: dict[str, Module]
) -> SimpleWorkflow:
    try:
        occurrences = [
            (entry["id"], modules[entry["module"]]) for entry in data["occurrences"]
        ]
    except KeyError as exc:
        raise SerializationError(f"workflow references unknown module {exc}") from exc
    edges = [
        DataEdge(e["src"], int(e["src_port"]), e["dst"], int(e["dst_port"]))
        for e in data["edges"]
    ]
    return SimpleWorkflow(
        occurrences,
        edges,
        initial_input_order=[tuple(pair) for pair in data["initial_inputs"]],
        final_output_order=[tuple(pair) for pair in data["final_outputs"]],
    )


def _dependencies_to_dict(dependencies: DependencyAssignment) -> dict[str, Any]:
    return {
        name: sorted([list(pair) for pair in pairs])
        for name, pairs in dependencies.as_dict().items()
    }


def _dependencies_from_dict(data: dict[str, Any]) -> DependencyAssignment:
    return DependencyAssignment(
        {name: {(int(i), int(o)) for i, o in pairs} for name, pairs in data.items()}
    )


# -- specifications ---------------------------------------------------------------------


def specification_to_dict(specification: WorkflowSpecification) -> dict[str, Any]:
    """Serialise a specification (grammar plus dependency assignment)."""
    grammar = specification.grammar
    return {
        "modules": [_module_to_dict(m) for m in grammar.modules.values()],
        "composite": sorted(grammar.composite_modules),
        "start": grammar.start,
        "productions": [
            {
                "lhs": production.lhs.name,
                "rhs": _workflow_to_dict(production.rhs),
                "input_map": list(production.input_map),
                "output_map": list(production.output_map),
            }
            for production in grammar.productions
        ],
        "dependencies": _dependencies_to_dict(specification.dependencies),
    }


def specification_from_dict(data: dict[str, Any]) -> WorkflowSpecification:
    """Deserialise a specification produced by :func:`specification_to_dict`."""
    modules = {entry["name"]: _module_from_dict(entry) for entry in data["modules"]}
    productions = []
    for entry in data["productions"]:
        lhs = modules.get(entry["lhs"])
        if lhs is None:
            raise SerializationError(f"production references unknown module {entry['lhs']!r}")
        productions.append(
            Production(
                lhs,
                _workflow_from_dict(entry["rhs"], modules),
                input_map=entry.get("input_map"),
                output_map=entry.get("output_map"),
            )
        )
    grammar = WorkflowGrammar(modules, data["composite"], data["start"], productions)
    dependencies = _dependencies_from_dict(data["dependencies"])
    return WorkflowSpecification(grammar, dependencies)


def dump_specification(specification: WorkflowSpecification, path: str) -> None:
    """Write a specification to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(specification_to_dict(specification), handle, indent=2, sort_keys=True)


def load_specification(path: str) -> WorkflowSpecification:
    """Read a specification from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return specification_from_dict(json.load(handle))


# -- views ------------------------------------------------------------------------------------


def view_to_dict(view: WorkflowView) -> dict[str, Any]:
    return {
        "name": view.name,
        "visible_composites": sorted(view.visible_composites),
        "dependencies": _dependencies_to_dict(view.dependencies),
    }


def view_from_dict(data: dict[str, Any]) -> WorkflowView:
    return WorkflowView(
        data["visible_composites"],
        _dependencies_from_dict(data["dependencies"]),
        name=data.get("name", "view"),
    )


# -- derivations --------------------------------------------------------------------------------


def derivation_to_dict(derivation: Derivation) -> dict[str, Any]:
    """Serialise a derivation as the ordered list of production applications."""
    run = derivation.run
    return {
        "steps": [
            {"instance": record.parent_uid, "production": record.production_index}
            for record in run.records
        ]
    }


def derivation_from_dict(
    specification: WorkflowSpecification, data: dict[str, Any]
) -> Derivation:
    """Replay a recorded derivation against a specification."""
    derivation = Derivation(specification)
    for step in data["steps"]:
        derivation.expand(step["instance"], int(step["production"]))
    return derivation
