"""The matrix bank's gather against the view label's accessors.

:class:`repro.engine.kernel.MatrixBank` resolves every ``I(k, i)``,
``O(k, i)`` and ``Z(k, i, j)`` key a batch brings in one gather out of the
body closures of the decoded view state; ``ViewLabel.inputs`` / ``outputs`` /
``z`` copy one matrix out of a closure at a time (``ClosureSlices``).  For
every production-graph edge of the running example, BioAID, the synthetic
family and the nested chain, under several views each, the engine's bank (one
label per view) and each of the three variants' labels must agree key for key: the same matrix (zero padding included), the
same ``(rows, cols)`` and the class the matrix has — and a key resolves to
``-1`` exactly where the accessor raises (an edge outside the view, a
production the view does not retain, a position outside the body).  Every
block of every body is read, so a block offset off by one moves some matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FVLScheme, FVLVariant
from repro.core.view_label import ViewLabel
from repro.engine import kernel
from repro.engine.cache import DecodedViewState, StaticViewState
from repro.errors import DecodingError, VisibilityError
from repro.model import default_view
from repro.workloads import (
    build_bioaid_specification,
    build_nested_chain_specification,
    build_running_example,
    build_synthetic_specification,
    random_view,
    running_example_views,
)


def _running():
    spec = build_running_example()
    return spec, running_example_views(spec)


def _generated(spec):
    return spec, [default_view(spec)] + [
        random_view(spec, size, seed=seed, mode=mode, name=f"{mode}-{seed}")
        for size, seed, mode in ((2, 1, "grey"), (4, 2, "white"), (3, 3, "black"))
    ]


GRAMMARS = {
    "running": _running,
    "bioaid": lambda: _generated(build_bioaid_specification()),
    "synthetic": lambda: _generated(
        build_synthetic_specification(
            workflow_size=8, module_degree=3, nesting_depth=3, recursion_length=2
        )
    ),
    "nested-chain": lambda: _generated(build_nested_chain_specification(6, 30, 3)),
}


def _keys(index):
    """``(bank key, accessor name, accessor arguments)`` of every function and its neighbours.

    Positions run from 0 to one past the body, and productions from 0 to
    one past the grammar, so the keys no edge answers to are asked too.
    """
    n = index.n_productions()
    for k in range(n + 2):
        width = len(index.production(k).rhs) if 1 <= k <= n else 1
        for i in range(width + 2):
            yield kernel._bank_key(kernel._INPUTS, k, i, 0), "inputs", (k, i)
            yield kernel._bank_key(kernel._OUTPUTS, k, i, 0), "outputs", (k, i)
            for j in range(width + 2):
                yield kernel._bank_key(kernel._Z, k, i, j), "z", (k, i, j)


def _class(matrix) -> int:
    if not matrix.data.any():  # a zero dimension included
        return kernel._ALL_FALSE
    return kernel._ALL_TRUE if matrix.data.all() else kernel._MIXED


@pytest.mark.parametrize("variant", list(FVLVariant))
@pytest.mark.parametrize("grammar", list(GRAMMARS))
def test_one_gather_resolves_every_function_as_the_label_reads_it(grammar, variant, monkeypatch):
    spec, views = GRAMMARS[grammar]()
    scheme = FVLScheme(spec)
    # The space-efficient label closes a body afresh on every access; one
    # closure per (label, production) is the same array and keeps this fast.
    closed = {}
    close_body = ViewLabel._close_body

    def close_once(label, k):
        if (id(label), k) not in closed:
            closed[id(label), k] = close_body(label, k)
        return closed[id(label), k]

    monkeypatch.setattr(ViewLabel, "_close_body", close_once)
    defined = undefined = 0
    for view in views:
        # The bank is the engine's, over the one label it serves per view;
        # the reference is each materialisation's own accessors.
        label = scheme.label_view(view, variant)
        state = DecodedViewState(StaticViewState(view.name, scheme.index, lambda: scheme.label_view(view)))
        bank = state.static.bank
        keys = list(_keys(scheme.index))
        asked = np.asarray([key for key, _, _ in keys], dtype=np.int64)
        codes = bank.codes(asked, np.zeros_like(asked), state)
        assert len(bank) == 1 + int(np.count_nonzero(codes > 0))  # each key appended once
        for code, (key, name, args) in zip(codes.tolist(), keys):
            try:
                matrix = getattr(label, name)(*args)
            except (DecodingError, VisibilityError):
                assert code == kernel._UNDEFINED, (view.name, name, args)
                undefined += 1
                continue
            assert code > kernel._IDENTITY, (view.name, name, args)
            rows, cols = matrix.shape
            padded = np.zeros((bank.ports, bank.ports), dtype=np.float32)
            padded[:rows, :cols] = matrix.data
            assert np.array_equal(bank.matrices[code], padded), (view.name, name, args)
            assert bank.shapes[code].tolist() == [rows, cols], (view.name, name, args)
            assert bank.classes[code] == _class(matrix), (view.name, name, args)
            defined += 1
        # Asked again, every key is known: nothing is gathered or appended twice.
        again = bank.codes(asked, np.zeros_like(asked), state)
        assert np.array_equal(again, codes) and len(bank) == 1 + int(np.count_nonzero(codes > 0))
    assert defined > 0 and undefined > 0
