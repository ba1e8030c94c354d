"""Worker supervision in the ProvenanceServer: dead workers restart loudly."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import FVLScheme
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.faults import FaultPlan, InjectedFault
from repro.model.projection import ViewProjection
from repro.serve import ProvenanceServer
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view


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


def _wait_for(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


def test_worker_death_fails_its_batch_and_restarts(served, ask):
    server, view, pairs, expected = served
    plan = FaultPlan().on("scheduler.batch", count=1)
    with server:
        with plan.armed():
            future = server.submit_batch("depends", pairs[:1], view)
            # The injected death lands between collect and process: the
            # batch's future fails loudly instead of hanging forever.
            with pytest.raises(InjectedFault):
                future.result(timeout=5.0)
            _wait_for(lambda: server.stats.worker_restarts == 1)
            assert isinstance(server.last_error, InjectedFault)
            # The restarted worker keeps serving the same answers.
            assert np.array_equal(ask(server, "depends", pairs[:1], view), expected[:1])
        assert server.stats.worker_restarts == 1


def test_repeated_worker_deaths_restart_each_time(served, ask):
    server, view, pairs, expected = served
    plan = FaultPlan().on("scheduler.batch", count=3)
    with server:
        with plan.armed():
            for _ in range(3):
                with pytest.raises(InjectedFault):
                    server.submit_batch("depends", pairs[1:2], view).result(timeout=5.0)
            _wait_for(lambda: server.stats.worker_restarts == 3)
            assert np.array_equal(ask(server, "depends", pairs[1:2], view), expected[1:2])
    assert server.stats.worker_restarts == 3


def test_inline_drain_does_not_cross_the_fault_point(served, ask):
    """drain_once() is the threadless scheduler: no worker, no scheduler.batch."""
    server, view, pairs, expected = served
    plan = FaultPlan().on("scheduler.batch", count=None)
    with plan.armed():
        assert np.array_equal(ask(server, "depends", pairs[2:3], view), expected[2:3])
    assert plan.hits("scheduler.batch") == 0


def test_workers_exit_cleanly_while_armed(served):
    """A stopping server under a standing fault drains and joins, no hang."""
    server, view, pairs, expected = served
    plan = FaultPlan().on("scheduler.batch", count=None)
    with plan.armed():
        server.start()
        future = server.submit_batch("depends", pairs[3:4], view)
        with pytest.raises(InjectedFault):
            future.result(timeout=5.0)
        server.stop()  # must join: the supervisor respects stopping
    assert not server.running
    assert server.stats.worker_restarts >= 1
