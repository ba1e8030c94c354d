"""Tests for the socket server and pooled client (net/server.py, net/client.py)."""

from __future__ import annotations

import socket
import struct
import threading
import time
from contextlib import contextmanager

import pytest

import repro.serve.server as serve_module
from repro.core import FVLScheme, FVLVariant
from repro.engine import DEFAULT_RUN, DependsQuery, QueryEngine
from repro.errors import DecodingError
from repro.model.projection import ViewProjection
from repro.net import (
    ProvenanceClient,
    ProvenanceNetServer,
    RemoteQueryError,
    ServerOverloadedError,
)
from repro.obs.metrics import parse_exposition
from repro.obs.trace import WARMUP, Sampler
from repro.serve import BatchPolicy, ProvenanceServer
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
    derivation = random_run(spec, 250, seed=41)
    view = random_view(spec, 6, seed=42, mode="grey", name="net-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 300, seed=43)
    return derivation, view, items, pairs


@pytest.fixture(scope="module")
def run_file(scheme, workload, tmp_path_factory):
    derivation, view, items, pairs = workload
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)
    expected_visible = reference.is_visible_batch(items, view)
    path = tmp_path_factory.mktemp("net") / "net.fvl"
    reference.checkpoint(path)
    return path, expected, expected_visible


@pytest.fixture()
def served(scheme, workload, run_file, tmp_path):
    """A running scheduler + net server on a unix socket and a TCP port."""
    _, view, items, pairs = workload
    path, expected, expected_visible = run_file
    engine = QueryEngine(scheme)
    server = ProvenanceServer(engine, workers=2)
    server.attach(path)
    engine.add_view(view)
    sock_path = tmp_path / "prov.sock"
    with server:
        with ProvenanceNetServer(
            server, unix_path=sock_path, host="127.0.0.1", port=0
        ) as net:
            yield net, sock_path, view, items, pairs, expected, expected_visible


# -- correctness over the wire --------------------------------------------------


def test_unix_socket_answers_bit_identical(served):
    net, sock_path, view, items, pairs, expected, expected_visible = served
    with ProvenanceClient(unix_path=sock_path) as client:
        assert client.depends_batch(pairs, view.name) == expected
        assert client.is_visible_batch(items, view.name) == expected_visible


def test_tcp_answers_match_unix(served):
    net, sock_path, view, items, pairs, expected, _ = served
    assert net.tcp_address is not None
    with ProvenanceClient(address=net.tcp_address) as client:
        assert client.depends_batch(pairs, view.name) == expected


def test_explicit_variant_crosses_the_wire(served):
    net, sock_path, view, _, pairs, expected, _ = served
    with ProvenanceClient(unix_path=sock_path) as client:
        got = client.depends_batch(
            pairs[:25], view.name, variant=FVLVariant.SPACE_EFFICIENT
        )
        assert got == expected[:25]


def test_singleton_helpers_coalesce_client_side(served):
    net, sock_path, view, items, pairs, expected, expected_visible = served
    with ProvenanceClient(unix_path=sock_path, pool_size=2, max_linger_us=2000) as client:
        n = 24
        results: list = [None] * n

        def probe(index: int) -> None:
            if index % 2:
                results[index] = client.depends(*pairs[index], view.name)
            else:
                results[index] = client.is_visible(items[index], view.name)

        threads = [threading.Thread(target=probe, args=(i,)) for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(n):
            want = expected[index] if index % 2 else expected_visible[index]
            assert results[index] == want
    # Coalescing produced fewer request frames than probes.
    assert net.stats.frames < n


def test_empty_batches_short_circuit(served):
    net, sock_path, view, _, _, _, _ = served
    with ProvenanceClient(unix_path=sock_path) as client:
        assert client.depends_batch([], view.name) == []
        assert client.is_visible_batch([], view.name) == []


def test_many_threaded_clients_bit_identical(served):
    net, sock_path, view, items, pairs, expected, expected_visible = served
    n_clients = 8
    errors: list = []

    def client_thread() -> None:
        try:
            with ProvenanceClient(unix_path=sock_path, retries=8) as client:
                assert client.depends_batch(pairs, view.name) == expected
                assert client.is_visible_batch(items, view.name) == expected_visible
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            errors.append(exc)

    threads = [threading.Thread(target=client_thread) for _ in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    stats = net.stats
    assert stats.connections >= n_clients
    assert stats.answered_frames >= 2 * n_clients
    assert stats.sheds == 0  # 8 x 300 pairs against a 65,536-query queue: nothing to shed


# -- failure surfaces -----------------------------------------------------------


def test_unknown_view_raises_remote_error(served):
    net, sock_path, _, _, pairs, _, _ = served
    with ProvenanceClient(unix_path=sock_path) as client:
        with pytest.raises(RemoteQueryError, match="unknown view") as info:
            client.depends_batch(pairs[:3], "no-such-view")
        assert info.value.kind == "ViewError"


def test_unknown_run_raises_remote_error(served):
    net, sock_path, view, _, pairs, _, _ = served
    with ProvenanceClient(unix_path=sock_path) as client:
        with pytest.raises(RemoteQueryError):
            client.depends_batch(pairs[:3], view.name, run="no-such-run")


@pytest.mark.parametrize("entry", ["constructor", "depends_batch", "is_visible_batch", "DependsQuery", "wire"])
def test_removed_variant_fails_loudly(served, scheme, run_file, entry):
    """``matrix-free`` was an engine variant once; now it is a typed error naming the three that are."""
    net, sock_path, view, items, pairs, expected, _ = served
    accepted = "'default', 'space-efficient', 'query-efficient'"
    if entry == "wire":
        with ProvenanceClient(unix_path=sock_path) as client:
            with pytest.raises(RemoteQueryError, match="matrix-free") as info:
                client.depends_batch(pairs[:3], view.name, variant="matrix-free")
            assert info.value.kind == "DecodingError" and accepted in info.value.remote_message
            # The connection (there is one in the pool) stays usable.
            assert client.depends_batch(pairs[:25], view.name) == expected[:25]
            assert net.stats.connections == 1
        return
    engine = QueryEngine(scheme)
    engine.attach(run_file[0])
    calls = {
        "constructor": lambda: QueryEngine(scheme, variant="matrix-free"),
        "depends_batch": lambda: engine.depends_batch(pairs[:3], view, variant="matrix-free"),
        "is_visible_batch": lambda: engine.is_visible_batch(items[:3], view, variant="matrix-free"),
        "DependsQuery": lambda: engine.depends_many(
            [DependsQuery(*pairs[0], view, variant="matrix-free")]
        ),
    }
    with pytest.raises(DecodingError, match="matrix-free") as info:
        calls[entry]()
    assert accepted in str(info.value)


def test_bogus_view_and_variant_names_mint_no_metric_series(served):
    """Hostile frames are answered with typed errors and leave the exposition's series alone.

    The latency histogram is labelled ``{op, view, variant}``, the cost
    counters ``{run, view, variant, phase}``, and a label lives as long as
    the registry, so the wire's strings label them only once the engine
    knows them: one ``(unknown)`` child takes every other frame, whatever it
    names.
    """
    net, sock_path, view, _, pairs, expected, _ = served
    n = 900
    with ProvenanceClient(unix_path=sock_path, jitter_seed=5) as client:

        def bogus(i: int) -> None:
            run = DEFAULT_RUN
            if i % 3 == 1:
                name, variant, kind = f"no-such-view-{i}", None, "ViewError"
            elif i % 3 == 2:
                name, variant, kind = view.name, f"no-such-variant-{i}", "DecodingError"
            else:
                name, variant, kind = view.name, None, "LabelingError"
                run = f"no-such-run-{i}"
            with pytest.raises(RemoteQueryError) as info:
                client.depends_batch(pairs[:2], name, variant=variant, run=run)
            assert info.value.kind == kind

        for i in range(n):
            if i == 3:  # one bogus frame of each kind has been answered
                first = client.server_metrics()
            bogus(i)
        after = client.server_metrics()
        # The next good frame on the same connection is answered.
        assert client.depends_batch(pairs[:25], view.name) == expected[:25]
        assert net.stats.connections == 1
    assert "no-such-" not in after
    series = parse_exposition(after)
    children = {
        (dict(labels)["view"], dict(labels)["variant"])
        for name, labels in series
        if name == "tail_request_seconds_count"
    }
    assert children == {(view.name, "(unknown)"), ("(unknown)", "None"), (view.name, "None")}
    cost_runs = {dict(labels)["run"] for name, labels in series if name == "cost_seconds_total"}
    # Some bogus-run frame was head-sampled and billed, under ``(unknown)``.
    assert "(unknown)" in cost_runs and cost_runs <= {DEFAULT_RUN, "(unknown)"}
    # Counters gain digits, buckets exemplars, a head-sampled trace its cost
    # rows under the fixed labels; an unbounded family grew ~3 KB per frame.
    assert len(after) - len(first) < 4096


# -- one record per frame, every frame head-sampled -------------------------------


class StepClock:
    """Each reading is ``step`` seconds after the last, so a request's wall is ``step``."""

    def __init__(self, step: float) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


@contextmanager
def traced_stack(scheme, workload, run_file, tmp_path, clock=time.perf_counter):
    """A running stack whose sampler head-samples every frame."""
    _, view, _, _ = workload
    engine = QueryEngine(scheme)
    sampler = Sampler(engine.metrics, sample_rate=1.0, clock=clock)
    server = ProvenanceServer(engine, workers=2, sampler=sampler)
    server.attach(run_file[0])
    engine.add_view(view)
    sock_path = tmp_path / "traced.sock"
    with server, ProvenanceNetServer(server, unix_path=sock_path):
        with ProvenanceClient(unix_path=sock_path) as client:
            yield server, client


def test_cost_phases_partition_every_traced_frames_wall(scheme, workload, run_file, tmp_path):
    """Σ phases == Σ root walls: the reply closes the root inside the open
    ``scheduler.batch``, which bills up to the root's end, and the queue
    wait is carved out of ``net``, not added beside it."""
    _, view, _, pairs = workload
    frame, want = (pairs * 2)[:256], (run_file[1] * 2)[:256]
    with traced_stack(scheme, workload, run_file, tmp_path) as (server, client):
        for _ in range(200):
            assert client.depends_batch(frame, view.name) == want
        # The sampler finishes a frame before its reply is queued.
        snap = server.metrics.snapshot()
        kept = server.sampler.kept()
    assert len(kept) == 200 and not snap.get("tail_evicted_total")
    costs = snap["cost_seconds_total"]
    roots = sum(record.root.wall_s for record in kept)
    assert sum(costs.values()) == pytest.approx(roots, rel=1e-6)
    assert costs[(DEFAULT_RUN, view.name, "None", "scheduler")] > 0
    assert costs[(DEFAULT_RUN, view.name, "None", "engine")] > 0


def test_a_traced_frame_lands_as_a_head_record_nesting_scheduler_and_engine(
    scheme, workload, run_file, tmp_path
):
    """Over a real socket at rate 1: past warm-up, a fast healthy frame is
    kept for its head sample alone, with its whole span tree."""
    _, view, _, pairs = workload
    clock = StepClock(1.0)  # every warm-up frame takes a second ...
    with traced_stack(scheme, workload, run_file, tmp_path, clock) as (server, client):
        for _ in range(WARMUP):
            client.depends_batch(pairs[:64], view.name)
        clock.step = 1e-6  # ... and the next one a microsecond
        assert client.depends_batch(pairs[:64], view.name) == run_file[1][:64]
        record = server.sampler.kept()[-1]
    assert record.reason == "head" and record.wall_s == pytest.approx(1e-6)
    [root] = record.to_dict()["spans"]
    assert (root["name"], root["attrs"]["n"]) == ("net.frame", 64)
    [step] = root["children"]
    assert step["path"] == "net.frame/scheduler.batch"
    assert {child["name"] for child in step["children"]} >= {"engine.depends_batch"}


def test_full_queue_sheds_instead_of_hanging(scheme, workload, tmp_path):
    """A wedged scheduler (no workers) yields SHED replies, never a hang."""
    _, view, _, pairs = workload
    backed_up = ProvenanceServer(
        QueryEngine(scheme), policy=BatchPolicy(max_batch=8, max_queue=8)
    )
    sock_path = tmp_path / "wedged.sock"
    with ProvenanceNetServer(backed_up, unix_path=sock_path) as net:
        filler = ProvenanceClient(unix_path=sock_path, timeout=10.0)
        fill_done = threading.Event()

        def fill() -> None:
            try:
                filler.depends_batch(pairs[:8], view.name)  # never answered
            except Exception:
                pass
            finally:
                fill_done.set()

        thread = threading.Thread(target=fill, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while backed_up.pending < 8 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert backed_up.pending == 8
        with ProvenanceClient(unix_path=sock_path) as client:
            with pytest.raises(ServerOverloadedError) as info:
                client.depends_batch(pairs[:4], view.name)
            assert info.value.queue_depth == 8
            assert info.value.retry_after_s > 0
        assert net.stats.sheds == 1
        filler.close()
        fill_done.wait(5.0)


def test_oversized_batch_answers_error_and_survives(
    scheme, workload, tmp_path, count_constructions
):
    _, view, _, pairs = workload
    tiny = ProvenanceServer(
        QueryEngine(scheme), policy=BatchPolicy(max_batch=8, max_queue=8)
    )
    requests = count_constructions(serve_module, "_Request")
    sock_path = tmp_path / "tiny.sock"
    with ProvenanceNetServer(tiny, unix_path=sock_path) as net:
        with ProvenanceClient(unix_path=sock_path) as client:
            with pytest.raises(RemoteQueryError, match="never fit") as info:
                client.depends_batch(pairs[:20], view.name)
            assert info.value.kind == "ValueError"
            # The loop survived; the same connection still answers stats.
            assert client.server_stats()["status"] == "ok"
            assert net.stats.connections == 1
    # Refused on its size alone: nothing was built for the hostile frame.
    assert not requests


def test_a_wire_frame_costs_one_future(served, count_constructions):
    """2,048 pairs cross socket -> scheduler -> engine behind O(1) futures."""
    net, sock_path, view, _, pairs, expected, _ = served
    frame = (pairs * 7)[:2048]
    futures = count_constructions(serve_module, "Future")
    requests = count_constructions(serve_module, "_Request")
    with ProvenanceClient(unix_path=sock_path) as client:
        assert client.depends_batch(frame, view.name) == (expected * 7)[:2048]
    assert len(requests) == 1
    assert len(futures) == 1


def test_bad_frame_fails_alone_across_connections(scheme, workload, run_file, tmp_path):
    """Two connections' same-key frames coalesce; only the offender errors."""
    _, view, _, pairs = workload
    path, expected, _ = run_file
    engine = QueryEngine(scheme)
    server = ProvenanceServer(engine)
    server.attach(path)
    engine.add_view(view)
    sock_path = tmp_path / "blast.sock"
    good, bad = pairs[:120], list(pairs[120:200])
    bad[17] = (bad[17][0], 10**9)
    outcomes: dict = {}

    def ask(name: str, frame) -> None:
        try:
            with ProvenanceClient(unix_path=sock_path, timeout=10.0) as client:
                outcomes[name] = client.depends_batch(frame, view.name)
        except Exception as exc:
            outcomes[name] = exc

    with ProvenanceNetServer(server, unix_path=sock_path):
        threads = [
            threading.Thread(target=ask, args=("good", good)),
            threading.Thread(target=ask, args=("bad", bad)),
        ]
        for thread in threads:
            thread.start()
        # No workers yet: both frames park in the queue, so the first step
        # the scheduler takes is guaranteed to coalesce them.
        deadline = time.monotonic() + 5.0
        while server.pending < 200 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.pending == 200
        before = server.stats
        with server:
            for thread in threads:
                thread.join(10.0)
        after = server.stats
    engine.detach(DEFAULT_RUN)
    assert outcomes["good"] == expected[:120]
    assert isinstance(outcomes["bad"], RemoteQueryError)
    assert outcomes["bad"].kind == "LabelingError"
    assert after.batches - before.batches == 1
    # The coalesced call that raised plus one retry per frame.
    assert after.engine_calls - before.engine_calls == 3


def test_shed_retries_eventually_succeed(served):
    """retries= resends after the server's retry-after hint."""
    net, sock_path, view, _, pairs, expected, _ = served
    with ProvenanceClient(unix_path=sock_path, retries=10) as client:
        threads = []
        results: list = [None] * 6
        def hammer(index: int) -> None:
            results[index] = client.depends_batch(pairs, view.name)
        for index in range(6):
            threads.append(threading.Thread(target=hammer, args=(index,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(answers == expected for answers in results)


def test_garbage_on_the_port_drops_that_connection_only(served):
    net, sock_path, view, _, pairs, expected, _ = served
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(str(sock_path))
    raw.sendall(struct.pack("<I", 1 << 30))  # absurd length prefix
    assert raw.recv(1) == b""  # server hangs up on the violator
    raw.close()
    with ProvenanceClient(unix_path=sock_path) as client:  # others unaffected
        assert client.depends_batch(pairs[:10], view.name) == expected[:10]


# -- stats & lifecycle ----------------------------------------------------------


def test_stats_endpoint_exposes_scheduler_and_transport(served):
    net, sock_path, view, _, pairs, _, _ = served
    with ProvenanceClient(unix_path=sock_path) as client:
        client.depends_batch(pairs[:10], view.name)
        payload = client.server_stats()
        # Workers resolve futures before bumping counters, so the answers can
        # arrive a beat ahead of the stats — poll briefly.
        deadline = time.monotonic() + 5.0
        while payload["server"]["answered"] < 10 and time.monotonic() < deadline:
            time.sleep(0.01)
            payload = client.server_stats()
    assert payload["status"] == "ok"
    assert payload["runs"] == [DEFAULT_RUN]
    assert payload["queue_depth"] >= 0
    assert payload["server"]["answered"] >= 10
    assert payload["server"]["engine_calls"] >= 1
    assert payload["net"]["frames"] >= 1
    assert payload["net"]["connections"] >= 1


def test_start_twice_rejected_and_restartable(scheme, tmp_path):
    server = ProvenanceServer(QueryEngine(scheme))
    sock_path = tmp_path / "cycle.sock"
    net = ProvenanceNetServer(server, unix_path=sock_path)
    with net:
        assert net.running
        with pytest.raises(RuntimeError, match="already running"):
            net.start()
    assert not net.running
    with net:  # the socket path is reusable after a clean stop
        assert net.running


def test_stale_socket_file_is_reclaimed(scheme, tmp_path):
    sock_path = tmp_path / "stale.sock"
    dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    dead.bind(str(sock_path))
    dead.close()  # bound but never listening: a crash leftover
    server = ProvenanceServer(QueryEngine(scheme))
    with ProvenanceNetServer(server, unix_path=sock_path) as net:
        assert net.running


def test_live_socket_is_not_stolen(scheme, workload, tmp_path):
    _, view, _, pairs = workload
    sock_path = tmp_path / "owned.sock"
    first = ProvenanceServer(QueryEngine(scheme))
    with ProvenanceNetServer(first, unix_path=sock_path):
        second = ProvenanceNetServer(ProvenanceServer(QueryEngine(scheme)), unix_path=sock_path)
        with pytest.raises(OSError):
            second.start()


def test_client_requires_exactly_one_target(tmp_path):
    with pytest.raises(ValueError, match="exactly one"):
        ProvenanceClient()
    with pytest.raises(ValueError, match="exactly one"):
        ProvenanceClient(unix_path=tmp_path / "x.sock", address=("h", 1))


def test_net_server_requires_a_listener(scheme):
    with pytest.raises(ValueError, match="bind"):
        ProvenanceNetServer(ProvenanceServer(QueryEngine(scheme)))


# -- more decoded view state than the byte budget holds, through the socket ------


def test_nine_views_under_a_budget_for_two_answer_like_the_oracle(scheme, spec, tmp_path):
    """Every bit through scheduler and socket equals the label-free oracle,
    whether the view's per-run state is resident or was evicted and rebuilt."""
    import random

    from repro.analysis import RunReachabilityOracle

    derivation = random_run(spec, 250, seed=41)
    rng = random.Random(9)
    frames = []
    for index in range(9):
        view = random_view(
            spec, 2 + index % 5, seed=500 + index, mode=("grey", "black")[index % 2], name=f"wire-{index}"
        )
        oracle = RunReachabilityOracle(derivation.run, view, spec)
        visible = sorted(oracle.projection.visible_items)
        sources = rng.sample(visible, min(8, len(visible)))  # one graph search per source
        pairs = [(rng.choice(sources), rng.choice(visible)) for _ in range(256)]
        uids = rng.sample(sorted(derivation.run.data_items), 64)
        frames.append(
            (
                view,
                pairs,
                [oracle.depends(d1, d2) for d1, d2 in pairs],
                uids,
                [oracle.is_visible(uid) for uid in uids],
            )
        )
    writer = QueryEngine(scheme)
    writer.add_run(DEFAULT_RUN, derivation)
    run_file = tmp_path / "nine.fvl"
    writer.checkpoint(run_file)

    # The dry run the budget comes from: all nine resident.
    roomy = QueryEngine(scheme)
    roomy.attach(run_file)
    for view, pairs, _, uids, _ in frames:
        roomy.depends_batch(pairs, view)
        roomy.is_visible_batch(uids, view)
    per_run = sorted(state.nbytes for state in roomy.decoded_states().values())
    assert roomy.stats.views.evictions == 0 and len(per_run) == 9 and per_run[0] > 0
    budget = roomy.stats.views.bytes - sum(per_run) + sum(per_run[-2:])
    roomy.detach(DEFAULT_RUN)

    engine = QueryEngine(scheme, state_budget_bytes=budget)
    server = ProvenanceServer(engine, workers=2)
    server.attach(run_file)
    sock_path = tmp_path / "nine.sock"
    with server, ProvenanceNetServer(server, unix_path=sock_path):
        with ProvenanceClient(unix_path=sock_path) as client:
            for view, *_ in frames:
                engine.add_view(view)
            for _ in range(3):
                for view, pairs, depends, uids, visible in frames:
                    assert client.depends_batch(pairs, view.name) == depends
                    assert client.is_visible_batch(uids, view.name) == visible
                    stats = engine.stats.views
                    assert stats.bytes <= stats.max_bytes == budget
    stats = engine.stats
    # Nine views through room for fewer: every cycle finds every view evicted.
    assert stats.views.misses >= 3 * 9 and stats.views.evictions >= 3 * 9 - 9
    assert stats.views.evictions == stats.views.misses - len(engine.decoded_states())
    assert stats.labels_built == 9
    engine.detach(DEFAULT_RUN)
