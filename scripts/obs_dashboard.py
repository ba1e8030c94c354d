"""Live terminal ops dashboard for a running provenance server.

Scrapes a live server over the binary wire protocol — the stats op for the
watchdog verdict, queue state, and cost table; the metrics op for the
Prometheus exposition — and renders a refreshing terminal view: qps,
p50/p99 latency from the tail sampler's histogram, queue depth and the
queue and intake peaks, shed/quarantine state, the costliest (run, view) groups, and
any firing alerts.

Rates and percentiles are computed client-side: each parsed scrape is
recorded in a :class:`~repro.obs.timeseries.SnapshotRing` (the ring the
watchdog reads), which differences cumulative counters and histogram buckets
over the window, so the dashboard needs nothing from the server beyond the
two existing wire ops.

Run against a live server:

    PYTHONPATH=src python scripts/obs_dashboard.py --unix /tmp/prov.sock
    PYTHONPATH=src python scripts/obs_dashboard.py --host 127.0.0.1 --port 7711

``--once`` prints a single frame and exits (no ANSI clearing); ``--snapshot
PATH`` also writes that frame to a file (the CI artifact hook).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.net import ProvenanceClient  # noqa: E402
from repro.obs.metrics import parse_exposition  # noqa: E402
from repro.obs.timeseries import SnapshotRing  # noqa: E402

CLEAR = "\x1b[2J\x1b[H"
BOLD = "\x1b[1m"
RED = "\x1b[31m"
GREEN = "\x1b[32m"
YELLOW = "\x1b[33m"
RESET = "\x1b[0m"


def series_total(parsed: dict, name: str, **labels: str) -> float:
    """Sum every series of ``name`` whose labels include ``labels``."""
    want = set(labels.items())
    return sum(
        value
        for (series, lv), value in parsed.items()
        if series == name and want <= set(lv)
    )


def as_snapshot(parsed: dict) -> dict:
    """A parsed exposition in the registry snapshot's shape, which
    :class:`SnapshotRing` differences: ``{family: {label values: number}}``,
    and each histogram child as its per-bucket counts."""
    snap: dict = {}
    cumulative: dict = {}
    for (series, labels), value in parsed.items():
        key = tuple(v for name, v in labels if name != "le")
        if series.endswith("_bucket"):
            edge = (float(dict(labels)["le"]), value)
            cumulative.setdefault((series[: -len("_bucket")], key), []).append(edge)
        else:
            snap.setdefault(series, {})[key] = value
    for (name, key), edges in cumulative.items():
        edges.sort()
        totals = [count for _, count in edges]
        snap.setdefault(name, {})[key] = {
            "buckets": tuple(bound for bound, _ in edges[:-1]),
            "counts": [int(c - below) for c, below in zip(totals, [0.0] + totals)],
            "count": int(totals[-1]),
            "sum": snap.get(f"{name}_sum", {}).get(key, 0.0),
        }
    return snap


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1e3:.1f}ms"


def render(ring: SnapshotRing, stats: dict, address: str, window_s: float,
           *, color: bool = True) -> str:
    """One dashboard frame as a string: ``stats`` is the latest stats
    payload, ``ring`` holds the scrapes up to it."""

    def paint(text: str, code: str) -> str:
        return f"{code}{text}{RESET}" if color else text

    def rate(name: str) -> float:
        return ring.rate(name, window_s=window_s)

    def latency(q: float) -> str:
        return _fmt_seconds(ring.percentile("tail_request_seconds", q, window_s=window_s))

    def total(name: str) -> int:
        return int(sum(ring.latest[1].get(name, {}).values()))

    status = stats.get("status", "ok")
    alerts = stats.get("alerts", [])
    server = stats.get("server", {})
    net = stats.get("net", {})
    status_text = (
        paint(status.upper(), GREEN if status == "ok" else RED + BOLD)
    )
    lines = [
        f"{paint('PROVENANCE SERVER', BOLD)}  {address}   "
        f"{time.strftime('%Y-%m-%d %H:%M:%S')}",
        f"status: {status_text}    runs: {', '.join(stats.get('runs', [])) or '-'}",
        "",
        "traffic   qps {:>10.1f}   frames/s {:>8.1f}   sheds/s {:>6.1f}   "
        "errors/s {:>6.1f}".format(
            rate("serve_answered_total"),
            rate("net_frames_total"),
            rate("net_sheds_total"),
            rate("net_errors_total"),
        ),
        "latency   p50 {:>10s}   p90 {:>12s}   p99 {:>10s}   (tail edge, "
        "{:.0f}s window)".format(
            latency(0.50), latency(0.90), latency(0.99), window_s,
        ),
        "queue     depth {:>8d}   peak {:>12d}   intake peak {:>5d}".format(
            int(stats.get("queue_depth", 0)),
            int(server.get("queue_peak", 0)),
            int(net.get("intake_high_watermark", 0)),
        ),
        "health    reopens {:>9d}   quarantined {:>2d}   "
        "kept traces {:>4d}".format(
            int(server.get("reopens", 0)),
            total("lifecycle_quarantined_runs"), total("tail_kept_total"),
        ),
        "",
    ]
    if alerts:
        lines.append(paint("alerts (watchdog):", BOLD))
        for alert in alerts:
            lines.append(
                "  "
                + paint("[FIRING]", RED + BOLD)
                + " {slo}  value={value}  threshold={threshold}  "
                "since {since_s}s".format(**alert)
            )
    else:
        lines.append(
            "alerts (watchdog): "
            + paint("none firing", GREEN)
            + ("" if "alerts" in stats else "  (no watchdog attached)")
        )
    lines.append("")
    costs = stats.get("top_costs", [])
    lines.append(paint("top cost groups (sampled)", BOLD))
    if costs:
        lines.append(
            "  {:<12s} {:<18s} {:>8s} {:>8s}  {}".format(
                "run", "view", "wall_s", "cpu_s", "phase"
            )
        )
        for row in costs:
            lines.append(
                "  {:<12s} {:<18s} {:>8.3f} {:>8.3f}  {}".format(
                    str(row.get("run", ""))[:12],
                    str(row.get("view", ""))[:18],
                    float(row.get("wall_s", 0.0)),
                    float(row.get("cpu_s", 0.0)),
                    row.get("dominant_phase", ""),
                )
            )
    else:
        lines.append("  (no sampled costs yet)")
    return "\n".join(lines)


def scrape_once(client: ProvenanceClient, ring: SnapshotRing) -> dict:
    """Record one scrape of the exposition in ``ring``; returns the stats payload."""
    ring.record_snapshot(as_snapshot(parse_exposition(client.server_metrics())))
    return client.server_stats()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--unix", metavar="PATH", help="unix socket of the server")
    parser.add_argument("--host", help="TCP host of the server")
    parser.add_argument("--port", type=int, default=0, help="TCP port")
    parser.add_argument(
        "--interval", type=float, default=1.0, help="seconds between scrapes"
    )
    parser.add_argument(
        "--window", type=float, default=10.0, help="rate/percentile window seconds"
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print a single frame (two scrapes, one interval apart) and exit",
    )
    parser.add_argument(
        "--snapshot", metavar="PATH",
        help="also write the frame to PATH (implies --once)",
    )
    args = parser.parse_args(argv)
    if args.unix is None and args.host is None:
        parser.error("pass --unix PATH or --host/--port")
    address = args.unix and f"unix:{args.unix}" or f"tcp:{args.host}:{args.port}"
    ring = SnapshotRing()
    once = args.once or args.snapshot is not None
    client_kwargs = (
        {"unix_path": args.unix}
        if args.unix is not None
        else {"address": (args.host, args.port)}
    )
    with ProvenanceClient(**client_kwargs) as client:
        if once:
            scrape_once(client, ring)
            time.sleep(min(args.interval, 0.2))
            stats = scrape_once(client, ring)
            frame = render(ring, stats, address, args.window, color=False)
            print(frame)
            if args.snapshot:
                with open(args.snapshot, "w", encoding="utf-8") as fh:
                    fh.write(frame + "\n")
            return 0
        try:
            while True:
                stats = scrape_once(client, ring)
                sys.stdout.write(CLEAR + render(ring, stats, address, args.window) + "\n")
                sys.stdout.flush()
                time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


if __name__ == "__main__":
    raise SystemExit(main())
