"""Differential tests for the vectorised trie fold of ``path_visibility``.

The fold is pointer jumping over the trie's ``parent`` column with the
recursion-edge test keyed on the clamped chain position; the references it
must equal bit for bit are the per-label-object predicate ``is_visible`` on
materialised paths, a from-scratch fold, and itself extended from any earlier
result (``prefix=``) — on live, compacted and mapped multi-segment tables.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FVLScheme, is_visible, path_visibility, visible_batch
from repro.core.labels import DataLabel, PortLabel
from repro.errors import DecodingError
from repro.model.views import default_view
from repro.store import MappedRunStore, checkpoint_run
from repro.workloads import build_synthetic_specification, random_run, random_view


def _reference_flags(table, n_paths, view_label) -> list[bool]:
    """``is_visible`` on the materialised edge-label tuple of every path id."""
    return [
        is_visible(DataLabel(PortLabel(table.path(p), 1), None), view_label)
        for p in range(n_paths)
    ]


def _n_paths(table) -> int:
    return min(len(column) for column in table.raw_columns())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec_seed=st.integers(min_value=0, max_value=50),
    nesting_depth=st.integers(min_value=1, max_value=3),
    recursion_length=st.integers(min_value=1, max_value=3),
    run_seed=st.integers(min_value=0, max_value=10_000),
    target_items=st.integers(min_value=40, max_value=260),
    n_expand=st.integers(min_value=1, max_value=6),
    mode=st.sampled_from(["grey", "white", "black"]),
    cuts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_fold_equals_reference_from_any_append_point(
    spec_seed, nesting_depth, recursion_length, run_seed, target_items, n_expand, mode, cuts
):
    # Cycles of length 1..3 nested 1..3 deep: a random derivable-closed view
    # over them routinely keeps C{d}_1 and drops C{d}_2, i.e. drops a
    # production in the middle of a cycle, so recursion rows retained up to
    # some chain position and not beyond are the common case here.
    spec = build_synthetic_specification(
        workflow_size=4,
        module_degree=2,
        nesting_depth=nesting_depth,
        recursion_length=recursion_length,
        seed=spec_seed,
    )
    scheme = FVLScheme(spec)
    view = random_view(spec, n_expand, seed=run_seed, mode=mode, name="fold")
    view_label = scheme.label_view(view)
    events = random_run(spec, target_items, seed=run_seed).events
    first, second = sorted(1 + int(cut * (len(events) - 1)) for cut in cuts)

    labeler = scheme.run_labeler()
    table = labeler.store.table
    with tempfile.TemporaryDirectory() as directory:
        run_file = Path(directory) / "fold.fvl"
        snapshots = []
        done = 0
        for upto in (first, second, len(events)):
            for event in events[done:upto]:
                labeler(event)
            done = upto
            checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
            scratch = path_visibility(table, view_label)
            assert scratch.dtype == np.bool_
            assert scratch.tolist() == _reference_flags(table, _n_paths(table), view_label)
            # Extending any earlier result gives the same array.
            for earlier in snapshots:
                extended = path_visibility(table, view_label, prefix=earlier)
                assert extended.tolist() == scratch.tolist()
            snapshots.append(scratch)

        final = snapshots[-1]
        uids = sorted(labeler.labels)
        per_item = [is_visible(labeler.label(uid), view_label) for uid in uids]
        assert visible_batch(labeler.store, view_label, uids, flags=final) == per_item

        # Compacted columns (packed ``array`` buffers) ...
        labeler.store.compact()
        assert path_visibility(table, view_label).tolist() == final.tolist()
        assert path_visibility(table, view_label, prefix=snapshots[0]).tolist() == final.tolist()
        # ... and a mapped file of up to three segments (int32 parent/c columns).
        mapped = MappedRunStore(run_file)
        try:
            assert path_visibility(mapped.table, view_label).tolist() == final.tolist()
            for earlier in snapshots:
                assert (
                    path_visibility(mapped.table, view_label, prefix=earlier).tolist()
                    == final.tolist()
                )
        finally:
            mapped.close()


def test_deep_recursion_is_resolved_once_per_clamped_position(
    running_spec, running_scheme, monkeypatch
):
    """A long chain has one distinct ``i`` per member but few distinct tests."""
    import repro.core.visibility as visibility

    derivation = random_run(running_spec, 600, seed=2)
    labeler = running_scheme.label_run(derivation)
    table = labeler.store.table
    _, packed, c = table.raw_columns()
    recursion = [(int(w), int(i)) for w, i in zip(packed, c) if w >= 0 and w & 1]
    assert max(i for _, i in recursion) > 20  # the run really is a deep recursion
    view_label = running_scheme.label_view(default_view(running_spec))

    calls = []
    original = visibility._recursion_retained

    def counting(index, retained, s, t, i):
        calls.append((s, t, i))
        return original(index, retained, s, t, i)

    monkeypatch.setattr(visibility, "_recursion_retained", counting)
    flags = path_visibility(table, view_label)
    index = running_scheme.index
    longest_cycle = max(index.cycle_length(s) for s in range(1, index.n_cycles + 1))
    assert len(calls) == len(set(calls))
    assert len(calls) <= len({w for w, _ in recursion}) * (longest_cycle + 1)
    assert len(calls) < len(set(recursion))
    assert flags.tolist() == _reference_flags(table, len(flags), view_label)


class _TornTable:
    """A table caught mid-append: ``parent`` is one row ahead of ``packed``/``c``."""

    def __init__(self, table, rows: int) -> None:
        parent, packed, c = table.raw_columns()
        self._columns = (list(parent[: rows + 1]), list(packed[:rows]), list(c[:rows]))

    def raw_columns(self):
        return self._columns


def test_torn_tail_is_clamped_and_lands_in_the_next_extension(running_spec, running_scheme):
    derivation = random_run(running_spec, 150, seed=4)
    labeler = running_scheme.label_run(derivation)
    table = labeler.store.table
    view_label = running_scheme.label_view(default_view(running_spec))
    full = path_visibility(table, view_label)
    rows = len(full) - 7
    torn = path_visibility(_TornTable(table, rows), view_label)
    assert len(torn) == rows
    assert torn.tolist() == full[:rows].tolist()
    assert path_visibility(table, view_label, prefix=torn).tolist() == full.tolist()


def test_prefix_edge_cases(running_spec, running_scheme):
    derivation = random_run(running_spec, 120, seed=6)
    labeler = running_scheme.label_run(derivation)
    table = labeler.store.table
    view_label = running_scheme.label_view(default_view(running_spec))
    full = path_visibility(table, view_label)
    # A complete prefix is returned as is; an empty or root-only one is ignored.
    assert path_visibility(table, view_label, prefix=full) is full
    for short in (np.zeros(0, dtype=bool), np.ones(1, dtype=bool)):
        assert path_visibility(table, view_label, prefix=short).tolist() == full.tolist()
    # The prefix is never written to.
    earlier = full[: len(full) // 2].copy()
    earlier.setflags(write=False)
    assert path_visibility(table, view_label, prefix=earlier).tolist() == full.tolist()
    with pytest.raises(DecodingError, match="longer than the trie"):
        path_visibility(table, view_label, prefix=np.ones(len(full) + 1, dtype=bool))
