"""Per-query cost attribution: fold span timings into a (run, view, variant,
phase) cost table.

A span tree already says where one traced request spent its time; operators
need the *aggregate* — "which run/view is burning the fleet, and in which
layer" — and the future cluster router needs the same table as a rebalance
signal.  :class:`CostModel` folds every finished head-sampled trace into a
bounded in-memory table keyed ``(run, view, variant, phase)``:

* each span contributes its **self time** (wall minus the wall of its direct
  children), so a phase is never double-billed for the layers below it;
* span names map to phases — ``net`` (framing + reply packing),
  ``scheduler`` (batch bookkeeping), ``engine`` (group evaluation),
  ``decode`` (pair-matrix decode), ``label_view`` (the one static
  labelling a view's first query pays), ``gather`` (mmap row gathers) —
  unknown names fall back to their dotted prefix;
* **queue wait** — the gap between the net-frame root opening and the
  ``scheduler.batch`` span starting — is attributed as its own phase, since
  it is the one cost no span's self time contains;
* the structural-vs-matrix split rides along from ``engine.group_eval``
  attrs as per-key pair counts.

Costs come from *head-sampled* traces only (a uniform 1/64 of traffic), so
relative shares are unbiased; scale absolute numbers by the sample rate.
The same totals are mirrored into ``cost_seconds_total`` /
``cost_cpu_seconds_total`` registry counters, so one ``server_metrics()``
scrape carries the whole attribution table off-process.
"""

from __future__ import annotations

import threading

__all__ = ["CostModel", "PHASE_BY_SPAN"]

#: Span name -> phase.  Unknown span names bill to their dotted prefix.
PHASE_BY_SPAN = {
    "net.frame": "net",
    "scheduler.batch": "scheduler",
    "engine.depends_batch": "engine",
    "engine.visible_batch": "engine",
    "engine.group_eval": "engine",
    "engine.decode": "decode",
    "engine.label_view": "label_view",
    "mmap.gather": "gather",
}

_QUEUE_WAIT = "queue_wait"


class CostModel:
    """Bounded per-(run, view, variant, phase) wall/CPU cost accumulator."""

    def __init__(self, metrics=None, *, max_keys: int = 1024) -> None:
        #: (run, view, variant, phase) -> [wall_s, cpu_s]
        self._costs: dict[tuple, list] = {}
        #: (run, view, variant) -> [traced queries, structural pairs, matrix pairs]
        self._queries: dict[tuple, list] = {}
        self._lock = threading.Lock()
        self._max_keys = max_keys
        self._overflowed = 0
        if metrics is not None:
            self._wall_c = metrics.counter(
                "cost_seconds_total",
                "sampled wall seconds attributed per run/view/variant/phase",
                ("run", "view", "variant", "phase"),
            )
            self._cpu_c = metrics.counter(
                "cost_cpu_seconds_total",
                "sampled CPU seconds attributed per run/view/variant/phase",
                ("run", "view", "variant", "phase"),
            )
            self._overflow_c = metrics.counter(
                "cost_keys_overflow_total",
                "attributions dropped because the cost table hit max_keys",
            )
        else:
            self._wall_c = self._cpu_c = self._overflow_c = None

    def record(self, trace, *, run: str, view: str, variant=None,
               queries: int = 1) -> None:
        """Fold one finished trace's spans into the table.

        ``queries`` is how many logical queries the trace answered (a wire
        frame carries a whole batch), so per-query costs divide correctly.
        """
        spans = list(trace.spans)
        if not spans:
            return
        variant = str(getattr(variant, "value", variant))
        group = (run, view, variant)
        child_wall: dict[int, float] = {}
        child_cpu: dict[int, float] = {}
        for span in spans:
            if span.parent_id:
                if span.wall_s > 0.0:
                    child_wall[span.parent_id] = (
                        child_wall.get(span.parent_id, 0.0) + span.wall_s
                    )
                if span.cpu_s > 0.0:
                    child_cpu[span.parent_id] = (
                        child_cpu.get(span.parent_id, 0.0) + span.cpu_s
                    )
        per_phase: dict[str, list] = {}
        root_t0 = None
        sched_t0 = None
        structural = matrix = 0
        for span in spans:
            if span.parent_id is None and (root_t0 is None or span.t0 < root_t0):
                root_t0 = span.t0
            if span.name == "scheduler.batch" and sched_t0 is None:
                sched_t0 = span.t0
            if span.name == "engine.group_eval" and span.attrs:
                structural += int(span.attrs.get("structural_pairs", 0))
                matrix += int(span.attrs.get("matrix_pairs", 0))
            if span.wall_s < 0.0:
                continue  # unfinished span: nothing trustworthy to bill
            phase = PHASE_BY_SPAN.get(span.name) or span.name.split(".", 1)[0]
            cell = per_phase.setdefault(phase, [0.0, 0.0])
            cell[0] += max(0.0, span.wall_s - child_wall.get(span.span_id, 0.0))
            if span.cpu_s >= 0.0:
                cell[1] += max(0.0, span.cpu_s - child_cpu.get(span.span_id, 0.0))
        if sched_t0 is not None and root_t0 is not None and sched_t0 > root_t0:
            cell = per_phase.setdefault(_QUEUE_WAIT, [0.0, 0.0])
            cell[0] += sched_t0 - root_t0
        with self._lock:
            counts = self._queries.get(group)
            if counts is None:
                counts = self._queries[group] = [0, 0, 0]
            counts[0] += queries
            counts[1] += structural
            counts[2] += matrix
            for phase, (wall, cpu) in per_phase.items():
                key = group + (phase,)
                cell = self._costs.get(key)
                if cell is None:
                    if len(self._costs) >= self._max_keys:
                        self._overflowed += 1
                        if self._overflow_c is not None:
                            self._overflow_c.inc()
                        continue
                    cell = self._costs[key] = [0.0, 0.0]
                cell[0] += wall
                cell[1] += cpu
        if self._wall_c is not None:
            for phase, (wall, cpu) in per_phase.items():
                self._wall_c.labels(run, view, variant, phase).inc(wall)
                self._cpu_c.labels(run, view, variant, phase).inc(cpu)

    # -- views -------------------------------------------------------------------

    def table(self, top: "int | None" = None) -> list[dict]:
        """Rows sorted by wall seconds descending, one per (key, phase)."""
        with self._lock:
            rows = [
                {
                    "run": run,
                    "view": view,
                    "variant": variant,
                    "phase": phase,
                    "wall_s": wall,
                    "cpu_s": cpu,
                    "queries": self._queries.get((run, view, variant), [0, 0, 0])[0],
                }
                for (run, view, variant, phase), (wall, cpu) in self._costs.items()
            ]
        rows.sort(key=lambda r: (-r["wall_s"], r["run"], r["view"], r["phase"]))
        return rows[:top] if top is not None else rows

    def top_groups(self, n: int = 5) -> list[dict]:
        """The costliest (run, view, variant) groups with per-query cost.

        This is the rebalance signal: total sampled wall per group, the
        phase that dominates it, and wall-per-query so a router can compare
        a few expensive queries against a flood of cheap ones.
        """
        with self._lock:
            totals: dict[tuple, float] = {}
            dominant: dict[tuple, tuple[str, float]] = {}
            for (run, view, variant, phase), (wall, _cpu) in self._costs.items():
                group = (run, view, variant)
                totals[group] = totals.get(group, 0.0) + wall
                if phase != _QUEUE_WAIT and wall > dominant.get(group, ("", -1.0))[1]:
                    dominant[group] = (phase, wall)
            queries = {g: c[0] for g, c in self._queries.items()}
            splits = {g: (c[1], c[2]) for g, c in self._queries.items()}
        out = []
        for group, wall in sorted(totals.items(), key=lambda kv: -kv[1])[:n]:
            run, view, variant = group
            n_queries = queries.get(group, 0)
            structural, matrix = splits.get(group, (0, 0))
            out.append(
                {
                    "run": run,
                    "view": view,
                    "variant": variant,
                    "wall_s": wall,
                    "queries": n_queries,
                    "wall_per_query_us": (
                        wall / n_queries * 1e6 if n_queries else 0.0
                    ),
                    "dominant_phase": dominant.get(group, ("", 0.0))[0],
                    "structural_pairs": structural,
                    "matrix_pairs": matrix,
                }
            )
        return out

    @property
    def overflowed(self) -> int:
        with self._lock:
            return self._overflowed
