"""The traced run's second half: one layer at a time, from outside.

Every rung times public calls of one module on the workload's own frames or
file, interleaved pass by pass with the other rungs of its ladder and with
the reference kernel, so all rungs of a ladder see the same host and every
sample is normalised like the end-to-end ones.  A rung's value is the median
of its passes; ``report`` prints each ladder with the delta over the rung
below.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import FVLScheme, MappedRunStore, QueryEngine, RunLabeler, checkpoint_run
from repro.engine import grammar_fingerprint
from repro.index import StructuralIndex
from repro.io import LabelCodec
from repro.net import (
    FrameAssembler,
    ProvenanceClient,
    decode_reply,
    decode_request,
    encode_answers,
    encode_depends_request,
    encode_visible_request,
)
from repro.serve import ProvenanceServer
from repro.store import verify_run

from perf.calib import CALIB_REF_MS, kernel_ms
from perf.inputs import Inputs
from perf.rounds import CLIENT_RETRIES, Spans, Stack, Tally, ask, serve_block
from perf.stats import speed_factor

#: Share of a traced run's ``--seconds`` spent on rounds; the rest is split
#: over the ladders below.
ROUNDS_SHARE = 0.4
LADDER_SHARES = {"query": 0.35, "cold": 0.25, "ingest": 0.2, "obs": 0.2}
MIN_PASSES = 3
#: Pairs the single-pair rung decides per pass (the scalar path costs ~50x a batched pair).
SCALAR_PAIRS = 200

_now = time.perf_counter


def _sample(rungs: dict, seconds: float) -> dict:
    """Interleave ``rungs`` until ``seconds`` are spent; normalised samples per rung.

    A rung function returns one duration-like number, or a dict of several.
    """
    samples: dict = {}
    deadline = _now() + seconds
    calib = kernel_ms()
    passes = 0
    while passes < MIN_PASSES or _now() < deadline:
        for name, rung in rungs.items():
            value = rung()
            after = kernel_ms()
            k = speed_factor(calib, after, CALIB_REF_MS)
            calib = after
            for key, number in (value if isinstance(value, dict) else {name: value}).items():
                samples.setdefault(key, []).append(number / k)
        passes += 1
    return samples


def _query_rungs(inputs: Inputs, stack: Stack, tally: Tally) -> dict:
    block = inputs.block
    pairs = inputs.block_pairs
    quiet = Spans()

    probe = next(frame for frame in block if frame.kind == "depends")
    view_label = stack.engine.scheme.label_view(stack.engine.view(probe.view))
    mapped = stack.engine.mapped_store()
    labels = [
        (mapped.label(d1), mapped.label(d2)) for d1, d2 in probe.items[:SCALAR_PAIRS]
    ]
    depends = stack.engine.scheme.depends

    def core_pair() -> float:
        start = _now()
        answer = [depends(l1, l2, view_label) for l1, l2 in labels]
        elapsed = _now() - start
        tally.attempted += 1
        if answer == probe.expected[: len(labels)].tolist():
            tally.checked_pairs += len(labels)
        else:
            tally.failed += 1
        return elapsed / len(labels) * 1e6

    def engine_batch() -> float:
        start = _now()
        answers = [ask(stack.engine, frame) for frame in block]
        elapsed = _now() - start
        for frame, answer in zip(block, answers):
            tally.check(frame, answer)
        return elapsed / pairs * 1e6

    def serve_submit() -> float:
        start = _now()
        answers = []
        for frame in block:
            futures = stack.server.submit_many(frame.kind, frame.items, frame.view)
            answers.append([future.result() for future in futures])
        elapsed = _now() - start
        for frame, answer in zip(block, answers):
            tally.check(frame, answer)
        return elapsed / pairs * 1e6

    def net_codec() -> float:
        start = _now()
        for request_id, frame in enumerate(block):
            _codec_round_trip(request_id, frame)
        return (_now() - start) / pairs * 1e6

    def net_wire() -> float:
        elapsed, _ = serve_block(stack, inputs, quiet, tally)
        return elapsed / pairs * 1e6

    return {
        "core.depends_pair_us": core_pair,
        "engine.batch_us_per_pair": engine_batch,
        "serve.submit_us_per_pair": serve_submit,
        "net.wire_us_per_pair": net_wire,
        "net.codec_us_per_pair": net_codec,
    }


def _codec_round_trip(request_id: int, frame) -> int:
    """Encode and decode one frame and its reply with no socket; bytes on the wire."""
    encode = encode_depends_request if frame.kind == "depends" else encode_visible_request
    # A trace id rides every frame the default client sends.
    wire = encode(request_id, "default", frame.view, None, frame.ids, trace_id=request_id + 1)
    (payload,) = FrameAssembler().feed(wire)
    request = decode_request(payload)
    reply = encode_answers(request.request_id, frame.expected)
    (payload,) = FrameAssembler().feed(reply)
    decode_reply(payload)
    return len(wire) + len(reply)


def _cold_rungs(inputs: Inputs, stack: Stack, tally: Tally) -> dict:
    specification = inputs.specification
    run_file = stack.run_file
    scheme = stack.engine.scheme

    def scheme_build() -> float:
        start = _now()
        FVLScheme(specification)
        return (_now() - start) * 1e3

    def label_view() -> float:
        fresh = FVLScheme(specification)
        start = _now()
        for view in inputs.views:
            fresh.label_view(view)
        return (_now() - start) * 1e3 / len(inputs.views)

    def attach_verified() -> float:
        start = _now()
        MappedRunStore(run_file, verify="attach").close()
        return (_now() - start) * 1e3

    def verify() -> float:
        start = _now()
        verify_run(run_file, deep=True)
        return (_now() - start) * 1e3

    def index_build() -> float:
        with MappedRunStore(run_file) as mapped:
            start = _now()
            trie = mapped.table.columns()
            nodes = mapped.nodes.columns()
            StructuralIndex.build(
                trie["parent"], trie["packed"], nodes["parent"], nodes["path_id"],
                intervals=mapped.structural_index(),
            )
            return (_now() - start) * 1e3

    def first_batch() -> float:
        engine = QueryEngine(scheme)
        for view in inputs.views:
            engine.add_view(view)
        engine.attach(run_file)
        start = _now()
        answers = [ask(engine, frame) for frame in inputs.warmup]
        elapsed = _now() - start
        engine.detach("default")
        for frame, answer in zip(inputs.warmup, answers):
            tally.check(frame, answer)
        return elapsed * 1e3 / len(inputs.warmup)

    def attach(warm: bool) -> float:
        engine = QueryEngine(scheme)
        server = ProvenanceServer(engine, workers=1)
        start = _now()
        server.attach(run_file, warm=warm)
        elapsed = _now() - start
        engine.detach("default")
        return elapsed * 1e3

    def hotmx_save() -> float:
        start = _now()
        stack.server.save_matrix_cache()
        return (_now() - start) * 1e3

    return {
        "core.scheme_build_ms": scheme_build,
        "core.label_view_ms": label_view,
        "store.attach_ms": attach_verified,
        "store.verify_ms": verify,
        "index.build_ms": index_build,
        "engine.first_batch_ms": first_batch,
        "serve.attach_cold_ms": lambda: attach(False),
        "serve.attach_warm_ms": lambda: attach(True),
        "serve.hotmx_save_ms": hotmx_save,
    }


def _ingest_rungs(inputs: Inputs, stack: Stack, workdir: str) -> dict:
    scheme = stack.engine.scheme
    fingerprint = grammar_fingerprint(scheme.index)
    segmented = os.path.join(workdir, "segmented.fvl")
    probe = next(frame for frame in inputs.block if frame.kind == "depends")

    def checkpoints() -> dict:
        """The slices as bare ``checkpoint_run`` delta appends (no lifecycle manager)."""
        if os.path.exists(segmented):
            os.unlink(segmented)
        labeler = RunLabeler(scheme.index)
        durations = []
        for piece in inputs.slices:
            for event in inputs.events[piece.lo : piece.hi]:
                labeler(event)
            start = _now()
            checkpoint_run(segmented, labeler.store, labeler.tree.nodes, fingerprint=fingerprint)
            durations.append(_now() - start)
        return {
            "store.checkpoint_us_per_item": sum(durations) / inputs.n_items * 1e6,
            "store.checkpoint_p50_ms": float(np.median(durations)) * 1e3,
        }

    def gather(path: str) -> float:
        with MappedRunStore(path) as mapped:
            rows = probe.ids.ravel() - mapped.store.base_uid
            mapped.store.gather_rows(rows)  # pays the lazy scrub
            start = _now()
            for _ in range(8):
                mapped.store.gather_rows(rows)
            return (_now() - start) / (8 * rows.size) * 1e6

    return {
        "checkpoints": checkpoints,
        "store.gather_us_per_row": lambda: gather(stack.run_file),
        "store.gather_seg_us_per_row": lambda: gather(segmented),
    }


def _obs_rungs(inputs: Inputs, stack: Stack, tally: Tally) -> "tuple[ProvenanceClient, dict]":
    """The rungs, and the second client (no trace ids) the caller must close."""
    quiet = Spans()
    plain = ProvenanceClient(
        unix_path=stack.socket, pool_size=inputs.workload.connections,
        retries=CLIENT_RETRIES, trace_ids=False,
    )

    def block_ms(client) -> float:
        elapsed, _ = serve_block(stack, inputs, quiet, tally, client=client)
        return elapsed * 1e3

    def scrape() -> float:
        start = _now()
        stack.client.server_metrics()
        return (_now() - start) * 1e3

    return plain, {
        "obs.block_traced_ms": lambda: block_ms(stack.client),
        "obs.block_untraced_ms": lambda: block_ms(plain),
        "obs.scrape_ms": scrape,
    }


def wire_bytes_per_pair(inputs: Inputs) -> float:
    """Request plus reply bytes of one block over its pairs (exact)."""
    total = sum(_codec_round_trip(index, frame) for index, frame in enumerate(inputs.block))
    return total / inputs.block_pairs


def _exact(inputs: Inputs, stack: Stack) -> dict:
    """Label lengths of the run and its views (exact)."""
    scheme = stack.engine.scheme
    codec = LabelCodec(scheme.index)
    mapped = stack.engine.mapped_store()
    step = max(1, inputs.n_items // 2000)
    first = mapped.store.base_uid
    bits = [
        codec.data_label_bits(mapped.label(uid))
        for uid in range(first, first + inputs.n_items, step)
    ]
    view_bits = [scheme.label_view(view).size_bits() for view in inputs.views]
    return {
        "core.data_label_bits": sum(bits) / len(bits),
        "core.view_label_bytes": sum(view_bits) / len(view_bits) / 8.0,
    }


def measure(inputs: Inputs, stack: Stack, workdir: str, seconds: float, tally: Tally) -> dict:
    """All ladders within ``seconds``; ``{"samples": {rung: [..]}, "exact": {..}}``."""
    samples = _sample(_query_rungs(inputs, stack, tally), seconds * LADDER_SHARES["query"])
    samples.update(_sample(_cold_rungs(inputs, stack, tally), seconds * LADDER_SHARES["cold"]))
    samples.update(
        _sample(_ingest_rungs(inputs, stack, workdir), seconds * LADDER_SHARES["ingest"])
    )
    plain, rungs = _obs_rungs(inputs, stack, tally)
    try:
        samples.update(_sample(rungs, seconds * LADDER_SHARES["obs"]))
    finally:
        plain.close()
    exact = _exact(inputs, stack)
    exact["serve.hotmx_entries"] = stack.server.save_matrix_cache()
    return {"samples": samples, "exact": exact}
