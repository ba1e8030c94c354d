"""Workload definitions and seeded input generation.

Everything a run needs — specification, derivation, views, query frames as
int64 arrays, and the bits every answer must equal — is built here, before
the clock starts, from the workload's fixed shape and the ``--seed``.

What the seed moves and what it does not: the *queries* (which items are
asked about, in every frame, follower batch and visibility probe) are drawn
from the seed.  The derivation and the views are fixed per workload,
because they define what the workload stresses: two BioAID derivations of
the same size differ by 2x in decode cost per pair (3.7 vs 8.1 us measured
over six derivation seeds), which is a different workload, not noise.

Expected bits come from :class:`repro.analysis.RunReachabilityOracle`, which
walks the projected run's item graph and never looks at a label.  Its cost
is one graph search per distinct source item, so all frames on one view draw
their ``d1`` side from that view's bounded pool of sources.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.analysis import RunReachabilityOracle
from repro.workloads import (
    build_bioaid_specification,
    build_nested_chain_specification,
    random_run,
    random_view,
)

#: Derivation and view seeds: part of the workload definitions, not inputs.
RUN_SEED = 42
VIEW_SEED = 100
#: Target size of the BioAID derivation (``random_run`` is quadratic in it).
RUN_ITEMS = 20_000
#: Pairs a follower answers after each checkpoint.
FOLLOW_PAIRS = 256
#: Views added to the cold-start stack each round (the engine has not seen them).
VIEW_ADDS = 1


@dataclass(frozen=True)
class Workload:
    """The fixed shape of one workload (sizes are per round)."""

    name: str
    why: str
    spec: str  # "chain" | "bioaid"
    #: (module count, mode) of each view registered at cold start.
    views: tuple
    connections: int
    frames: int
    frame_pairs: int
    #: False: every block frame asks views[0]; True: frame i asks view i mod n.
    cycle_views: bool
    #: Every n-th block frame is an is_visible frame (0 = none).
    visible_every: int
    ingest_slices: int
    #: Distinct ``d1`` items of views[0]'s frames (other views get a quarter, at least 32).
    sources: int
    #: Share of an ingest pass's time spent waiting for fsync on a quiet
    #: reference host (measured once with a counting fsync); weights the disk
    #: and CPU speed factors when the pass is normalised.
    ingest_io_share: float


_GREY8 = ((8, "grey"), (8, "grey"))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wire_small_structural",
            why="deep non-recursive chain: the interval index decides ~96% of pairs, "
            "so per-frame net/serve fixed costs dominate and core decode does little",
            spec="chain",
            views=_GREY8,
            connections=2,
            frames=32,
            frame_pairs=256,
            cycle_views=False,
            visible_every=0,
            ingest_slices=3,
            sources=256,
            ingest_io_share=0.25,
        ),
        Workload(
            name="wire_large_recursive",
            why="20k-item recursive BioAID run: >99% of pairs fall through to matrix "
            "decode, so engine/core.decoder dominate and the wire does little",
            spec="bioaid",
            views=_GREY8,
            connections=1,
            frames=5,
            frame_pairs=2048,
            cycle_views=False,
            visible_every=0,
            ingest_slices=3,
            sources=256,
            ingest_io_share=0.17,
        ),
        Workload(
            name="ingest_follow",
            why="the write path: label, checkpoint per slice, follower attach after "
            "every checkpoint, compaction; store serves writes beside reads",
            spec="bioaid",
            views=_GREY8,
            connections=1,
            frames=4,
            frame_pairs=1024,
            cycle_views=False,
            visible_every=0,
            ingest_slices=12,
            sources=256,
            ingest_io_share=0.3,
        ),
        Workload(
            name="multiview_churn",
            why="9 views cycled through the engine's 8-entry view-state LRU: every "
            "frame misses, so label_view and view-state decode set the cost",
            spec="bioaid",
            views=tuple((2 + i % 5, "grey" if i % 2 == 0 else "black") for i in range(9)),
            connections=1,
            frames=9,
            frame_pairs=256,
            cycle_views=True,
            visible_every=4,
            ingest_slices=3,
            sources=96,
            ingest_io_share=0.17,
        ),
    )
}


@dataclass(frozen=True)
class Frame:
    """One request frame and the answer it must get."""

    view: str
    kind: str  # "depends" | "visible"
    ids: np.ndarray  # (n, 2) pairs or (n,) uids, int64
    expected: np.ndarray  # bool, one per pair/uid

    @property
    def n(self) -> int:
        return int(self.ids.shape[0])

    @cached_property
    def items(self) -> list:
        """The ids as Python lists, the form the net tier hands the scheduler."""
        return self.ids.tolist()


@dataclass(frozen=True)
class Slice:
    """Events ``[lo, hi)`` of the derivation and the follower batch after them."""

    lo: int
    hi: int
    follow: Frame


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    specification: object
    derivation: object
    events: tuple
    n_items: int
    views: tuple  # registered at cold start
    extra_views: tuple  # added by view_add, one frame each
    block: tuple  # Frames of one serve block
    warmup: tuple  # one Frame per registered view
    add_frames: tuple  # one Frame per extra view
    slices: tuple

    @property
    def block_pairs(self) -> int:
        return sum(frame.n for frame in self.block)


def _specification(workload: Workload, scale: float):
    """The workload's specification and derivation target, ``scale`` times the size."""
    if workload.spec == "chain":
        # One derivation exists: depth x 30 stages of degree-3 modules.
        return build_nested_chain_specification(max(6, int(40 * scale)), 30, 3), 1 << 30
    return build_bioaid_specification(), max(500, int(RUN_ITEMS * scale))


def _item_uids(events) -> "tuple[np.ndarray, list[int]]":
    """All item uids in creation order, and the item count after each event."""
    uids: list[int] = []
    counts: list[int] = []
    for index, event in enumerate(events):
        if index == 0:
            uids.extend(event.input_items)
            uids.extend(event.output_items)
        else:
            uids.extend(item.uid for item in event.new_items)
        counts.append(len(uids))
    return np.asarray(uids, dtype=np.int64), counts


class _ViewOracle:
    """One view's oracle plus the visible items in creation order."""

    def __init__(self, run, view, specification, uids: np.ndarray, rng, sources: int) -> None:
        self.view = view
        self.oracle = RunReachabilityOracle(run, view, specification)
        mask = np.fromiter(
            (self.oracle.is_visible(int(uid)) for uid in uids), dtype=bool, count=len(uids)
        )
        self.positions = np.nonzero(mask)[0]  # creation positions of visible items
        self.visible = uids[mask]
        # The view's source pool, kept in creation order so that a prefix of
        # it is the part durable after a slice.
        picked = np.sort(
            rng.choice(self.visible.size, size=min(sources, self.visible.size), replace=False)
        )
        self.source_positions = self.positions[picked]
        self.sources = self.visible[picked]

    def depends_frame(self, rng, n: int, durable: "int | None" = None) -> Frame:
        """``n`` pairs over the visible items among the first ``durable`` created."""
        targets, sources = self.visible, self.sources
        if durable is not None:
            targets = targets[: int(np.searchsorted(self.positions, durable))]
            sources = sources[: int(np.searchsorted(self.source_positions, durable))]
        if targets.size == 0:
            raise ValueError(f"view {self.view.name!r} shows no durable item")
        if sources.size == 0:
            sources = targets[:1]
        ids = np.stack([rng.choice(sources, size=n), rng.choice(targets, size=n)], axis=1)
        depends = self.oracle.depends
        expected = np.fromiter(
            (depends(int(d1), int(d2)) for d1, d2 in ids), dtype=bool, count=n
        )
        return Frame(self.view.name, "depends", ids, expected)

    def visible_frame(self, rng, n: int, uids: np.ndarray) -> Frame:
        ids = rng.choice(uids, size=n)
        visible = self.oracle.is_visible
        expected = np.fromiter((visible(int(uid)) for uid in ids), dtype=bool, count=n)
        return Frame(self.view.name, "visible", ids, expected)


def generate(workload: Workload, seed: int, scale: float = 1.0) -> Inputs:
    """Build one run's inputs; the same ``(workload, seed, scale)`` gives the same.

    ``scale`` shrinks the run (smoke tests); everything measured uses 1.0.
    """
    specification, target = _specification(workload, scale)
    derivation = random_run(specification, target, seed=RUN_SEED)
    events = tuple(derivation.events)
    uids, counts = _item_uids(events)
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])

    shapes = list(workload.views) + [(2 + i % 7, "grey") for i in range(VIEW_ADDS)]
    oracles = []
    for index, (size, mode) in enumerate(shapes):
        view = random_view(
            specification, size, seed=VIEW_SEED + index, mode=mode, name=f"view-{index}"
        )
        busy = index == 0 or workload.cycle_views  # a view the block's frames ask
        sources = workload.sources if busy else max(32, workload.sources // 4)
        oracles.append(_ViewOracle(derivation.run, view, specification, uids, rng, sources))
    registered = oracles[: len(workload.views)]
    extra = oracles[len(workload.views) :]

    block = []
    for index in range(workload.frames):
        oracle = registered[index % len(registered)] if workload.cycle_views else registered[0]
        if workload.visible_every and index % workload.visible_every == workload.visible_every - 1:
            block.append(oracle.visible_frame(rng, workload.frame_pairs, uids))
        else:
            block.append(oracle.depends_frame(rng, workload.frame_pairs))
    warmup = tuple(o.depends_frame(rng, workload.frame_pairs) for o in registered)
    add_frames = tuple(o.depends_frame(rng, workload.frame_pairs) for o in extra)

    slices = []
    lo = 0
    for index in range(workload.ingest_slices):
        hi = round(len(events) * (index + 1) / workload.ingest_slices)
        follow = registered[0].depends_frame(rng, FOLLOW_PAIRS, durable=counts[hi - 1])
        slices.append(Slice(lo, hi, follow))
        lo = hi

    return Inputs(
        workload=workload,
        specification=specification,
        derivation=derivation,
        events=events,
        n_items=len(uids),
        views=tuple(o.view for o in registered),
        extra_views=tuple(o.view for o in extra),
        block=tuple(block),
        warmup=warmup,
        add_frames=add_frames,
        slices=tuple(slices),
    )
