"""Two-process observability smoke check (CI obs-smoke job).

The ISSUE-9 acceptance scenario, end to end, with real OS processes:

* **Leader** (subprocess): ingests a BioAID-like run under a
  `RunLifecycleManager` with a JSONL `EventLog` installed — two flushes
  build a segment chain, a compaction merges it — then hands the run file
  over.  Its event log must contain the checkpoint events *before* the
  compaction event.
* **Follower** (subprocess): attaches the run file through a
  `ProvenanceServer` whose sampler head-samples every request (rate 1.0),
  and serves the binary frame protocol on a unix socket.  On shutdown it
  writes the Prometheus exposition and the sampler's one ring of kept
  requests (`kept.jsonl`) into the artifacts directory.
* **Driver** (this process): queries the follower with `ProvenanceClient`
  (trace ids on by default), scrapes the metrics op, and requires

  - the scrape to parse and its query counters to equal exactly what was
    submitted,
  - at least one kept request with >= 3 nested spans
    (net.frame -> scheduler.batch -> engine.*),
  - the event log to show checkpoints strictly before the compaction.

The ISSUE-10 watchdog scenario rides on the same pair of processes: the
follower attaches a `Watchdog` with a fast shed-rate SLO, the driver has it
arm a `scheduler.admit` fault plan (every non-blocking admission sheds) and
hammers the socket until the health op reports *degraded*, then disarms the
plan and waits for the alert to clear.  Answers must be bit-identical
across the storm, the follower's event log must show `alert` strictly
before `alert_clear`, and a dashboard snapshot of the recovered server is
filed as an artifact.

Run with:  PYTHONPATH=src python scripts/obs_smoke.py [--artifacts DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench import sample_query_pairs  # noqa: E402
from repro.core import FVLScheme  # noqa: E402
from repro.model.projection import ViewProjection  # noqa: E402
from repro.net import ProvenanceClient, ServerOverloadedError  # noqa: E402
from repro.obs.events import read_events  # noqa: E402
from repro.obs.metrics import parse_exposition  # noqa: E402
from repro.workloads import build_bioaid_specification, random_run, random_view  # noqa: E402

RUN_SIZE = 600
RUN_SEED = 42
VIEW_SEED = 7
N_PAIRS = 400
TIMEOUT = 120.0

LEADER_SCRIPT = textwrap.dedent(
    """
    import os, sys
    sys.path.insert(0, sys.argv[3])
    from repro.core import FVLScheme
    from repro.core.run_labeler import RunLabeler
    from repro.engine import DEFAULT_RUN, QueryEngine
    from repro.obs.events import EventLog, install_event_log, uninstall_event_log
    from repro.service import CheckpointPolicy, RunLifecycleManager
    from repro.workloads import build_bioaid_specification, random_run

    tmp, artifacts, src = sys.argv[1], sys.argv[2], sys.argv[3]
    log = install_event_log(EventLog(os.path.join(artifacts, "events.jsonl")))
    try:
        spec = build_bioaid_specification()
        scheme = FVLScheme(spec)
        events = random_run(spec, 600, seed=42).events
        run_file = os.path.join(tmp, "obs-smoke.fvl")

        engine = QueryEngine(scheme)
        manager = RunLifecycleManager(
            engine, policy=CheckpointPolicy(every_events=1, every_seconds=None)
        )
        labeler = RunLabeler(scheme.index)
        manager.manage(DEFAULT_RUN, run_file, labeler=labeler)
        for event in events[: len(events) // 2]:
            labeler(event)
        manager.poll_once()                  # segment 1 -> checkpoint event
        for event in events[len(events) // 2 :]:
            labeler(event)
        manager.poll_once()                  # segment 2 -> checkpoint event
        result = manager.compact_run(DEFAULT_RUN)   # -> compaction event
        assert result.compacted, "expected the two-segment chain to compact"
        manager.unmanage(DEFAULT_RUN)
    finally:
        uninstall_event_log()
        log.close()
    """
)

FOLLOWER_SCRIPT = textwrap.dedent(
    """
    import json, os, sys, time
    sys.path.insert(0, sys.argv[3])
    from repro.core import FVLScheme
    from repro.engine import QueryEngine
    from repro.faults import FaultPlan
    from repro.net import ProvenanceNetServer
    from repro.obs.events import EventLog, install_event_log, uninstall_event_log
    from repro.obs.trace import Sampler
    from repro.obs.watchdog import SLO
    from repro.serve import ProvenanceServer
    from repro.workloads import build_bioaid_specification, random_view

    tmp, artifacts, src = sys.argv[1], sys.argv[2], sys.argv[3]

    def wait_for(name, timeout=120.0):
        deadline = time.monotonic() + timeout
        path = os.path.join(tmp, name)
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise SystemExit(f"follower timed out waiting for {name}")
            time.sleep(0.01)

    log = install_event_log(
        EventLog(os.path.join(artifacts, "follower_events.jsonl"))
    )
    try:
        spec = build_bioaid_specification()
        scheme = FVLScheme(spec)
        view = random_view(spec, 6, seed=7, mode="grey", name="obs-smoke-view")

        engine = QueryEngine(scheme)
        sampler = Sampler(engine.metrics, sample_rate=1.0)
        server = ProvenanceServer(engine, workers=2, sampler=sampler)
        server.attach(os.path.join(tmp, "obs-smoke.fvl"))
        engine.add_view(view)
        with server:
            with ProvenanceNetServer(
                server, unix_path=os.path.join(tmp, "serve.sock")
            ):
                # One fast-ticking SLO: shed rate above 1/s over a 2 s
                # window fires, and clears after two healthy ticks.
                server.attach_watchdog(
                    [SLO("shed_rate", "rate", "net_sheds_total",
                         threshold=1.0, window_s=2.0, clear_after=2)],
                    interval_s=0.2,
                )
                open(os.path.join(tmp, "follower-ready"), "w").close()

                # Storm: every non-blocking admission sheds while armed.
                wait_for("storm-start")
                plan = FaultPlan(seed=9).on("scheduler.admit", count=None)
                with plan.armed():
                    open(os.path.join(tmp, "storm-armed"), "w").close()
                    wait_for("storm-stop")
                open(os.path.join(tmp, "storm-cleared"), "w").close()

                wait_for("client-done")
                sampler.dump(os.path.join(artifacts, "kept.jsonl"))
                with open(os.path.join(artifacts, "metrics.txt"), "w") as fh:
                    fh.write(engine.metrics.exposition())
    finally:
        uninstall_event_log()
        log.close()
    """
)


def wait_for(path: str, what: str) -> None:
    deadline = time.monotonic() + TIMEOUT
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise SystemExit(f"driver timed out waiting for {what}")
        time.sleep(0.01)


def _span_depth(node: dict, prefix_path: list) -> bool:
    """Whether ``node`` roots a net -> scheduler -> engine span chain."""
    if not node["name"].startswith(prefix_path[0]):
        return False
    if len(prefix_path) == 1:
        return True
    return any(_span_depth(child, prefix_path[1:]) for child in node["children"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifacts",
        default=os.path.join(os.path.dirname(__file__), "..", "artifacts", "obs-smoke"),
        help="directory for the event logs, metrics text, and kept-request dump",
    )
    args = parser.parse_args()
    artifacts = os.path.abspath(args.artifacts)
    os.makedirs(artifacts, exist_ok=True)

    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, RUN_SIZE, seed=RUN_SEED)
    view = random_view(spec, 6, seed=VIEW_SEED, mode="grey", name="obs-smoke-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, N_PAIRS, seed=3)
    src_dir = os.path.join(os.path.dirname(__file__), "..", "src")

    with tempfile.TemporaryDirectory(prefix="obs-smoke-") as tmp:
        # -- leader: ingest + checkpoint + compact, event log installed --------
        leader = subprocess.run(
            [sys.executable, "-c", LEADER_SCRIPT, tmp, artifacts, src_dir],
            timeout=TIMEOUT,
        )
        assert leader.returncode == 0, "leader process exited non-zero"

        events = read_events(os.path.join(artifacts, "events.jsonl"))
        kinds = [e["event"] for e in events]
        assert kinds.count("checkpoint") >= 2, kinds
        assert "compaction" in kinds, kinds
        assert "lease_acquire" in kinds and "lease_release" in kinds, kinds
        # Ordering: every checkpoint of the chain precedes the compaction.
        assert max(
            i for i, k in enumerate(kinds) if k == "checkpoint"
        ) < kinds.index("compaction"), kinds

        # -- follower: serve the compacted file with every request traced ------
        follower = subprocess.Popen(
            [sys.executable, "-c", FOLLOWER_SCRIPT, tmp, artifacts, src_dir]
        )
        sock = os.path.join(tmp, "serve.sock")
        try:
            wait_for(os.path.join(tmp, "follower-ready"), "the follower process")
            with ProvenanceClient(unix_path=sock, breaker_threshold=None) as cli:
                before = cli.depends_batch(pairs, view.name)
                cli.is_visible_batch(items, view.name)
                # The exact-count asserts below read THIS scrape; everything
                # the storm adds lands after it.
                scrape = cli.server_metrics()
                assert cli.server_health()["status"] == "ok"

                # -- shed storm: watchdog must notice, then recover ---------
                open(os.path.join(tmp, "storm-start"), "w").close()
                wait_for(os.path.join(tmp, "storm-armed"), "the armed fault plan")
                sheds = 0
                degraded = False
                deadline = time.monotonic() + TIMEOUT
                while time.monotonic() < deadline:
                    try:
                        cli.depends_batch(pairs[:8], view.name)
                    except ServerOverloadedError:
                        sheds += 1
                    health = cli.server_health()
                    if health["status"] == "degraded":
                        degraded = True
                        break
                    time.sleep(0.02)
                assert degraded, "watchdog never reported degraded health"
                assert sheds >= 3, f"storm produced only {sheds} sheds"
                assert any(
                    a["slo"] == "shed_rate" for a in health["alerts"]
                ), health

                open(os.path.join(tmp, "storm-stop"), "w").close()
                wait_for(os.path.join(tmp, "storm-cleared"), "the disarmed plan")
                deadline = time.monotonic() + TIMEOUT
                while cli.server_health()["status"] != "ok":
                    assert time.monotonic() < deadline, (
                        "watchdog never cleared the shed_rate alert")
                    time.sleep(0.1)

                # Bit-identical answers after the storm.
                after = cli.depends_batch(pairs, view.name)
                assert np.array_equal(after, before), "answers changed across the storm"

            # -- dashboard snapshot against the still-live server -----------
            dash = subprocess.run(
                [
                    sys.executable,
                    os.path.join(os.path.dirname(__file__), "obs_dashboard.py"),
                    "--unix", sock,
                    "--snapshot", os.path.join(artifacts, "dashboard.txt"),
                ],
                timeout=TIMEOUT,
                stdout=subprocess.DEVNULL,
            )
            assert dash.returncode == 0, "dashboard snapshot exited non-zero"

            open(os.path.join(tmp, "client-done"), "w").close()
            assert follower.wait(timeout=TIMEOUT) == 0, "follower exited non-zero"
        finally:
            if follower.poll() is None:
                follower.kill()
                follower.wait()

        # -- the watchdog fired and then cleared, in that order ----------------
        follower_events = read_events(
            os.path.join(artifacts, "follower_events.jsonl")
        )
        fkinds = [e["event"] for e in follower_events]
        assert "alert" in fkinds, fkinds
        assert "alert_clear" in fkinds, fkinds
        assert fkinds.index("alert") < fkinds.index("alert_clear"), fkinds
        alert = follower_events[fkinds.index("alert")]
        assert alert["slo"] == "shed_rate", alert
        assert "fault_injected" in fkinds, fkinds

        # -- the scrape parses and counts exactly what was submitted -----------
        parsed = parse_exposition(scrape)

        def total(name, **labels):
            want = set(labels.items())
            return sum(
                v for (n, lv), v in parsed.items() if n == name and want <= set(lv)
            )

        assert total("engine_queries_total", op="depends") == len(pairs), (
            total("engine_queries_total", op="depends"), len(pairs))
        assert total("engine_queries_total", op="visible") == len(items), (
            total("engine_queries_total", op="visible"), len(items))
        assert total("serve_answered_total") == len(pairs) + len(items)
        assert total("net_answered_frames_total") == 2
        assert total("trace_sampled_total") == 2

        # -- at least one kept trace nests net -> scheduler -> engine ----------
        kept_path = os.path.join(artifacts, "kept.jsonl")
        with open(kept_path, "r", encoding="utf-8") as fh:
            kept = [json.loads(line) for line in fh if line.strip()]
        traces = [record for record in kept if "spans" in record]
        assert traces, "the rate-1.0 sampler kept no traced request"
        nested = [
            t
            for t in traces
            if any(
                _span_depth(root, ["net.frame", "scheduler.batch", "engine."])
                for root in t["spans"]
            )
        ]
        assert nested, f"no trace nests net->scheduler->engine: {traces[:1]}"

        print(
            f"obs smoke OK: scrape counted {len(pairs)} depends + {len(items)} "
            f"visible queries exactly; {len(events)} events with checkpoints "
            f"before compaction; {len(traces)} kept traces of which "
            f"{len(nested)} nest net->scheduler->engine; shed storm filed "
            f"alert then alert_clear with bit-identical answers; artifacts "
            f"in {artifacts}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
