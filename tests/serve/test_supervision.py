"""Fault containment in the ProvenanceServer: a faulted step fails its own
frames loudly, and the next submitter is served."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FVLScheme
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.faults import FaultPlan, InjectedFault
from repro.model.projection import ViewProjection
from repro.serve import ProvenanceServer
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view

pytestmark = pytest.mark.usefixtures("detach_engines")


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


@pytest.fixture(scope="module")
def workload(spec):
    derivation = random_run(spec, 200, seed=61)
    view = random_view(spec, 6, seed=62, mode="grey", name="supervise-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 100, seed=63)
    return derivation, view, items, pairs


@pytest.fixture()
def served(scheme, workload, tmp_path):
    derivation, view, items, pairs = workload
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view)
    run_file = tmp_path / "supervise.fvl"
    reference.checkpoint(run_file)
    engine = QueryEngine(scheme)
    server = ProvenanceServer(engine)
    server.attach(run_file)
    return server, view, pairs, expected


def test_a_faulted_step_fails_its_frame_and_the_next_submitter_is_served(served, ask):
    server, view, pairs, expected = served
    plan = FaultPlan().on("scheduler.batch", count=1)
    with server:
        with plan.armed():
            future = server.submit_batch("depends", pairs[:1], view)
            # The fault lands between pop and process, on the submitter's own
            # step: its future fails loudly instead of hanging forever.
            with pytest.raises(InjectedFault):
                future.result(timeout=0)
            assert isinstance(server.last_error, InjectedFault)
            # The next submitter combines and gets the same answers.
            assert np.array_equal(ask(server, "depends", pairs[:1], view), expected[:1])
        assert plan.fired("scheduler.batch") == 1
        assert server._combiner is None


def test_repeated_faults_fail_each_step_and_serving_goes_on(served, ask):
    server, view, pairs, expected = served
    plan = FaultPlan().on("scheduler.batch", count=3)
    with server:
        with plan.armed():
            for _ in range(3):
                with pytest.raises(InjectedFault):
                    server.submit_batch("depends", pairs[1:2], view).result(timeout=0)
            assert np.array_equal(ask(server, "depends", pairs[1:2], view), expected[1:2])
    assert plan.fired("scheduler.batch") == 3


def test_inline_drain_does_not_cross_the_fault_point(served, ask):
    """drain_once() is the threadless scheduler: no combiner, no scheduler.batch."""
    server, view, pairs, expected = served
    plan = FaultPlan().on("scheduler.batch", count=None)
    with plan.armed():
        assert np.array_equal(ask(server, "depends", pairs[2:3], view), expected[2:3])
    assert plan.hits("scheduler.batch") == 0


def test_stop_returns_under_a_standing_fault(served):
    """A stopping server under a standing fault fails its frames and returns, no hang."""
    server, view, pairs, expected = served
    plan = FaultPlan().on("scheduler.batch", count=None)
    with plan.armed():
        server.start()
        future = server.submit_batch("depends", pairs[3:4], view)
        with pytest.raises(InjectedFault):
            future.result(timeout=0)
        server.stop()
    assert not server.running and server._combiner is None
    assert plan.fired("scheduler.batch") == 1
