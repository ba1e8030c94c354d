"""Input generation: a seed fixes the queries, another seed moves them."""

import numpy as np

from perf import inputs

SCALE = 0.1


def _frames(generated):
    return (
        list(generated.block)
        + list(generated.warmup)
        + list(generated.add_frames)
        + [piece.follow for piece in generated.slices]
    )


def test_same_seed_same_frames_and_bits():
    workload = inputs.WORKLOADS["multiview_churn"]
    first = inputs.generate(workload, 7, SCALE)
    second = inputs.generate(workload, 7, SCALE)
    assert len(_frames(first)) == len(_frames(second))
    for a, b in zip(_frames(first), _frames(second)):
        assert (a.view, a.kind) == (b.view, b.kind)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.expected, b.expected)


def test_another_seed_other_queries_same_run():
    workload = inputs.WORKLOADS["ingest_follow"]
    first = inputs.generate(workload, 7, SCALE)
    other = inputs.generate(workload, 8, SCALE)
    assert first.n_items == other.n_items  # the derivation belongs to the workload
    assert [v.name for v in first.views] == [v.name for v in other.views]
    assert not np.array_equal(first.block[0].ids, other.block[0].ids)
    assert not np.array_equal(first.slices[-1].follow.ids, other.slices[-1].follow.ids)


def test_follower_pairs_only_name_durable_items():
    generated = inputs.generate(inputs.WORKLOADS["ingest_follow"], 3, SCALE)
    created = {}
    for index, event in enumerate(generated.events):
        uids = (
            list(event.input_items) + list(event.output_items)
            if index == 0
            else [item.uid for item in event.new_items]
        )
        for uid in uids:
            created[uid] = index
    for piece in generated.slices:
        assert all(created[int(uid)] < piece.hi for uid in piece.follow.ids.ravel())
    assert generated.slices[-1].hi == len(generated.events)


def test_block_shape_follows_the_workload():
    for workload in inputs.WORKLOADS.values():
        generated = inputs.generate(workload, 1, SCALE)
        assert len(generated.block) == workload.frames
        assert all(frame.n == workload.frame_pairs for frame in generated.block)
        assert len(generated.warmup) == len(workload.views)
        assert len(generated.slices) == workload.ingest_slices
        views = {frame.view for frame in generated.block}
        assert len(views) == (len(workload.views) if workload.cycle_views else 1)
