"""Live terminal ops dashboard for a running provenance server.

Scrapes a live server over the binary wire protocol — the stats op for the
watchdog verdict, queue state, and cost table; the metrics op for the
Prometheus exposition — and renders a refreshing terminal view: qps,
p50/p99 latency from the tail sampler's histogram, queue depth and
watermarks, shed/quarantine state, the costliest (run, view, variant)
groups, and any firing alerts.

Rates and percentiles are computed client-side from a small ring of parsed
scrapes (cumulative counter deltas over the window), so the dashboard needs
nothing from the server beyond the two existing wire ops.

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
from collections import deque

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.net import ProvenanceClient  # noqa: E402
from repro.obs.metrics import parse_exposition  # noqa: E402

CLEAR = "\x1b[2J\x1b[H"
BOLD = "\x1b[1m"
RED = "\x1b[31m"
GREEN = "\x1b[32m"
YELLOW = "\x1b[33m"
RESET = "\x1b[0m"


class Scrape:
    """One timed scrape: parsed exposition + stats payload."""

    __slots__ = ("ts", "metrics", "stats")

    def __init__(self, ts: float, metrics: dict, stats: dict) -> None:
        self.ts = ts
        self.metrics = metrics
        self.stats = stats


def _total(parsed: dict, name: str, **labels: str) -> float:
    """Sum every series of ``name`` whose labels include ``labels``."""
    want = set(labels.items())
    return sum(
        value
        for (series, lv), value in parsed.items()
        if series == name and want <= set(lv)
    )


def _buckets(parsed: dict, name: str) -> "list[tuple[float, float]]":
    """Cumulative ``(le, count)`` pairs of a histogram family, summed
    across children, sorted by bound."""
    acc: dict[float, float] = {}
    for (series, lv), value in parsed.items():
        if series != f"{name}_bucket":
            continue
        le = dict(lv).get("le", "+Inf")
        bound = float("inf") if le == "+Inf" else float(le)
        acc[bound] = acc.get(bound, 0.0) + value
    return sorted(acc.items())


class Window:
    """A bounded ring of scrapes answering windowed rates and percentiles."""

    def __init__(self, window_s: float, capacity: int = 128) -> None:
        self.window_s = window_s
        self._ring: "deque[Scrape]" = deque(maxlen=capacity)

    def push(self, scrape: Scrape) -> None:
        self._ring.append(scrape)

    @property
    def latest(self) -> "Scrape | None":
        return self._ring[-1] if self._ring else None

    def _pair(self) -> "tuple[Scrape, Scrape] | None":
        if len(self._ring) < 2:
            return None
        latest = self._ring[-1]
        baseline = self._ring[-2]
        for scrape in self._ring:
            if latest.ts - scrape.ts <= self.window_s:
                baseline = scrape
                break
        if baseline.ts >= latest.ts:
            baseline = self._ring[-2]
        return baseline, latest

    def rate(self, name: str, **labels: str) -> float:
        pair = self._pair()
        if pair is None:
            return 0.0
        baseline, latest = pair
        increase = _total(latest.metrics, name, **labels) - _total(
            baseline.metrics, name, **labels
        )
        elapsed = latest.ts - baseline.ts
        return max(0.0, increase) / elapsed if elapsed > 0 else 0.0

    def percentile(self, name: str, q: float) -> float:
        """Windowed q-quantile upper bound from histogram bucket deltas
        (falls back to the cumulative distribution on the first scrape)."""
        pair = self._pair()
        if pair is None:
            if not self._ring:
                return 0.0
            deltas = _buckets(self._ring[-1].metrics, name)
        else:
            baseline, latest = pair
            base = dict(_buckets(baseline.metrics, name))
            deltas = [
                (bound, count - base.get(bound, 0.0))
                for bound, count in _buckets(latest.metrics, name)
            ]
            if any(count < 0 for _, count in deltas):  # counter reset
                deltas = _buckets(latest.metrics, name)
            elif deltas and deltas[-1][1] <= 0:
                # Idle window: show the lifetime distribution over zeros.
                deltas = _buckets(latest.metrics, name)
        total = deltas[-1][1] if deltas else 0.0
        if total <= 0:
            return 0.0
        target = q * total
        for bound, count in deltas:
            if count >= target:
                return bound
        return deltas[-1][0]


def _fmt_seconds(value: float) -> str:
    if value == float("inf"):
        return "inf"
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1e3:.1f}ms"


def render(window: Window, address: str, *, color: bool = True) -> str:
    """One dashboard frame as a string."""

    def paint(text: str, code: str) -> str:
        return f"{code}{text}{RESET}" if color else text

    scrape = window.latest
    if scrape is None:
        return "no scrape yet"
    stats = scrape.stats
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
            window.rate("serve_answered_total"),
            window.rate("net_frames_total"),
            window.rate("net_sheds_total"),
            window.rate("net_errors_total"),
        ),
        "latency   p50 {:>10s}   p90 {:>12s}   p99 {:>10s}   (tail edge, "
        "{:.0f}s window)".format(
            _fmt_seconds(window.percentile("tail_request_seconds", 0.50)),
            _fmt_seconds(window.percentile("tail_request_seconds", 0.90)),
            _fmt_seconds(window.percentile("tail_request_seconds", 0.99)),
            window.window_s,
        ),
        "queue     depth {:>8d}   watermark {:>7d}   peak {:>9d}   "
        "intake wm {:>5d}".format(
            int(stats.get("queue_depth", 0)),
            int(server.get("queue_depth_high_watermark", 0)),
            int(server.get("queue_peak", 0)),
            int(net.get("intake_high_watermark", 0)),
        ),
        "health    restarts {:>5d}   reopens {:>9d}   quarantined {:>2d}   "
        "kept traces {:>4d}".format(
            int(server.get("worker_restarts", 0)),
            int(server.get("reopens", 0)),
            int(_total(scrape.metrics, "lifecycle_quarantined_runs")),
            int(_total(scrape.metrics, "tail_kept_total")),
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
            "  {:<12s} {:<18s} {:<10s} {:>8s} {:>8s}  {}".format(
                "run", "view", "variant", "wall_s", "cpu_s", "phase"
            )
        )
        for row in costs:
            lines.append(
                "  {:<12s} {:<18s} {:<10s} {:>8.3f} {:>8.3f}  {}".format(
                    str(row.get("run", ""))[:12],
                    str(row.get("view", ""))[:18],
                    str(row.get("variant", ""))[:10],
                    float(row.get("wall_s", 0.0)),
                    float(row.get("cpu_s", 0.0)),
                    row.get("dominant_phase", ""),
                )
            )
    else:
        lines.append("  (no sampled costs yet)")
    return "\n".join(lines)


def scrape_once(client: ProvenanceClient) -> Scrape:
    return Scrape(
        time.monotonic(),
        parse_exposition(client.server_metrics()),
        client.server_stats(),
    )


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
    window = Window(args.window)
    once = args.once or args.snapshot is not None
    client_kwargs = (
        {"unix_path": args.unix}
        if args.unix is not None
        else {"address": (args.host, args.port)}
    )
    with ProvenanceClient(**client_kwargs) as client:
        if once:
            window.push(scrape_once(client))
            time.sleep(min(args.interval, 0.2))
            window.push(scrape_once(client))
            frame = render(window, address, color=False)
            print(frame)
            if args.snapshot:
                with open(args.snapshot, "w", encoding="utf-8") as fh:
                    fh.write(frame + "\n")
            return 0
        try:
            while True:
                window.push(scrape_once(client))
                sys.stdout.write(CLEAR + render(window, address) + "\n")
                sys.stdout.flush()
                time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


if __name__ == "__main__":
    raise SystemExit(main())
