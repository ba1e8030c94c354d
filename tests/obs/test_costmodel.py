"""Cost attribution: self-time folding, queue wait, top groups, bounds."""

from __future__ import annotations

import time

import pytest

from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import PHASE_BY_SPAN, UNKNOWN, Sampler, Trace, phase_costs, top_costs


def stamped(trace, name, parent=None, *, t0, wall, cpu=None, attrs=None):
    span = trace.begin_span(name, parent.span_id if parent else None, attrs)
    span.t0 = t0
    span.wall_s = wall
    span.cpu_s = wall if cpu is None else cpu
    return span


def make_trace():
    """net.frame(1.0s) > scheduler.batch(0.8s) > engine spans, queued 0.2s."""
    trace = Trace(7)
    root = stamped(trace, "net.frame", t0=0.0, wall=1.0, cpu=-1.0)
    sched = stamped(trace, "scheduler.batch", root, t0=0.2, wall=0.8)
    eng = stamped(trace, "engine.depends_batch", sched, t0=0.3, wall=0.5)
    stamped(
        trace, "engine.group_eval", eng, t0=0.35, wall=0.2,
        attrs={"structural_pairs": 3, "matrix_pairs": 1},
    )
    return trace


def phase_walls(spans):
    return {phase: wall for phase, (wall, _cpu) in phase_costs(spans).items()}


def folded(sampler, run="r", view="v"):
    """A sampled request shaped like :func:`make_trace`, finished for real.

    The root opened (just over) a second before ``finish`` closes it; the
    stamped children sit inside that second, so only the root's wall is live.
    """
    request = sampler.open(7, "depends", run, view, None, 4)
    root = request.root
    root.t0 = time.perf_counter() - 1.0
    sched = stamped(request.trace, "scheduler.batch", root, t0=root.t0 + 0.2, wall=0.8)
    stamped(request.trace, "engine.depends_batch", sched, t0=root.t0 + 0.3, wall=0.5)
    sampler.finish(request)
    return request


def test_self_time_folding_never_double_bills_nested_phases():
    walls = phase_walls(make_trace().spans)
    # 1.0 - 0.8 child - 0.2 queue wait: the frame's own work before admission
    # is the queue wait, so nothing of it is billed twice.
    assert walls["net"] == pytest.approx(0.0)
    assert walls["scheduler"] == pytest.approx(0.3)  # 0.8 - 0.5 child
    # depends_batch self (0.3) + group_eval leaf (0.2) share the phase.
    assert walls["engine"] == pytest.approx(0.5)
    assert walls["queue_wait"] == pytest.approx(0.2)  # sched.t0 - root.t0
    assert sum(walls.values()) == pytest.approx(1.0)  # the root's wall, exactly


def test_open_spans_bill_up_to_the_root_end():
    """The reply closes the root inside the scheduler step that answered it."""
    trace = Trace(1)
    root = stamped(trace, "net.frame", t0=0.0, wall=1.0, cpu=-1.0)
    sched = trace.begin_span("scheduler.batch", root.span_id)  # still open
    sched.t0 = 0.25
    stamped(trace, "engine.depends_batch", sched, t0=0.3, wall=0.5)
    walls = phase_walls(trace.spans)
    assert walls == {
        "net": pytest.approx(0.0),
        "queue_wait": pytest.approx(0.25),
        "scheduler": pytest.approx(0.25),  # ends at 1.0: 0.75 - 0.5 child
        "engine": pytest.approx(0.5),
    }


def test_unfinished_spans_are_not_billed():
    trace = Trace(1)
    root = trace.begin_span("net.frame")  # never finished: wall_s stays -1.0
    stamped(trace, "engine.decode", root, t0=root.t0, wall=0.1)
    assert phase_costs(trace.spans) == {}  # no root wall to partition
    assert phase_costs(Trace(2).spans) == {}  # empty trace: a no-op


def test_unknown_span_names_bill_to_their_dotted_prefix():
    assert "store.flush" not in PHASE_BY_SPAN
    trace = Trace(1)
    stamped(trace, "store.flush", t0=0.0, wall=0.5)
    assert phase_walls(trace.spans) == {"store": pytest.approx(0.5)}


def test_cost_groups_are_bounded(monkeypatch):
    monkeypatch.setattr(obs_trace, "MAX_COST_GROUPS", 2)
    reg = MetricsRegistry()
    sampler = Sampler(reg, sample_rate=1.0)
    for index in range(4):
        folded(sampler, run=f"r{index}")
    folded(sampler, run="r1")  # a group already counted keeps its series
    runs = {key[0] for key in reg.snapshot()["cost_seconds_total"]}
    assert runs == {"r0", "r1", UNKNOWN}


def test_top_costs_rank_groups_from_one_snapshot():
    snap = {
        "cost_seconds_total": {
            ("r", "v", "None", "net"): 0.1,
            ("r", "v", "None", "queue_wait"): 0.9,
            ("r", "v", "None", "engine"): 0.5,
            ("r", "w", "None", "engine"): 0.2,
        },
        "cost_cpu_seconds_total": {("r", "v", "None", "engine"): 0.4},
    }
    first, second = top_costs(snap)
    assert (first["run"], first["view"], first["variant"]) == ("r", "v", "None")
    assert first["wall_s"] == pytest.approx(1.5)
    assert first["cpu_s"] == pytest.approx(0.4)
    # queue_wait never wins dominance: the engine's 0.5s does.
    assert first["dominant_phase"] == "engine"
    assert second["view"] == "w"
    assert top_costs(snap, 1) == [first]
    assert top_costs({}) == []


def test_totals_mirror_into_registry_counters():
    reg = MetricsRegistry()
    sampler = Sampler(reg, sample_rate=1.0)
    request = folded(sampler)
    snap = reg.snapshot()["cost_seconds_total"]
    assert snap[("r", "v", "None", "scheduler")] == pytest.approx(0.3)
    assert snap[("r", "v", "None", "engine")] == pytest.approx(0.5)
    assert snap[("r", "v", "None", "queue_wait")] == pytest.approx(0.2)
    assert sum(snap.values()) == pytest.approx(request.root.wall_s, rel=1e-9)
    cpu = reg.snapshot()["cost_cpu_seconds_total"]
    assert cpu[("r", "v", "None", "engine")] == pytest.approx(0.5)
    # Shed requests are answered by nobody: nothing to fold.
    shed = sampler.open(8, "depends", "r", "shed", None, 1)
    sampler.finish(shed, shed=True)
    assert all(key[1] != "shed" for key in reg.snapshot()["cost_seconds_total"])
