"""``PairTable.probe`` against a dict: every slot, every miss, on built, merged and taken tables."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pair_table import (
    ABSENT,
    EMPTY,
    NO_DEPENDENCY,
    VERDICT_FALSE,
    VERDICT_TRUE,
    PairTable,
    pair_keys,
)

PORTS = 2
#: Path ids a key is packed from: small ones, one near the top of the int32
#: range, and ABSENT (a boundary key's missing side) on either half.
PATHS = st.one_of(st.integers(0, 12), st.just(ABSENT - 1), st.just(ABSENT))
KINDS = st.sampled_from((0, NO_DEPENDENCY, VERDICT_FALSE, VERDICT_TRUE))


def _table(rows: dict) -> PairTable:
    """A table over ``{key: sentinel}``; a matrix row's block holds ``_bit(key)`` at (0, 0)."""
    keys = sorted(rows)
    blocks = np.zeros((len(keys), PORTS * PORTS), dtype=bool)
    blocks[:, 0] = [_bit(key) for key in keys]
    sentinels = [rows[key] for key in keys]
    shape = [PORTS] * len(keys)
    return PairTable.build(PORTS, keys, blocks, shape, shape, sentinels)


def _bit(key: int) -> bool:
    return key % 3 == 1


def _check(table: PairTable, rows: dict, needles: list) -> None:
    """``probe(needles)`` finds exactly ``rows``'s keys, each at the row holding it."""
    rank = {key: position for position, key in enumerate(sorted(rows))}
    keys = np.asarray(needles, dtype=np.int64)
    slot, found = table.probe(keys)
    assert slot.shape == found.shape == keys.shape
    assert slot.dtype == np.intp and found.dtype == bool
    assert found.tolist() == [key in rank for key in needles]
    for key, at, hit in zip(needles, slot.tolist(), found.tolist()):
        if hit:
            assert at == rank[key]
            assert int(table.keys[at]) == key
            off = int(table.off[at])
            assert min(off, 0) == rows[key]
            assert off < 0 or bool(table.pool[off]) == _bit(key)
    np.testing.assert_array_equal(keys, np.asarray(needles, dtype=np.int64))  # not sorted in place


def _needles(data, rows: dict) -> list:
    """Unsorted, duplicated needles: keys of the table, other keys, and both extremes."""
    present = sorted(rows)
    pool = st.builds(pair_keys, PATHS, PATHS).map(int)
    if present:
        pool = pool | st.sampled_from(present) | st.sampled_from([present[0] - 1, present[-1] + 1])
    pool = pool | st.sampled_from([0, int(pair_keys(ABSENT, ABSENT))])
    return data.draw(st.lists(pool, max_size=60), label="needles")


TABLES = st.dictionaries(st.builds(pair_keys, PATHS, PATHS).map(int), KINDS, max_size=40)


@settings(max_examples=150, deadline=None)
@given(rows=TABLES, data=st.data())
def test_probe_matches_a_dict(rows, data):
    _check(_table(rows), rows, _needles(data, rows))


@settings(max_examples=100, deadline=None)
@given(rows=TABLES, data=st.data())
def test_probe_matches_a_dict_on_merged_and_taken_tables(rows, data):
    keys = sorted(rows)
    fresh_keys = set(data.draw(st.sets(st.sampled_from(keys)) if keys else st.just(set())))
    old = {key: kind for key, kind in rows.items() if key not in fresh_keys}
    fresh = {key: rows[key] for key in fresh_keys}
    merged = _table(old).merged(_table(fresh), first_order=len(old))
    assert len(merged) == len(rows)
    _check(merged, rows, _needles(data, rows))
    kept = sorted(data.draw(st.sets(st.integers(0, max(len(rows) - 1, 0))), label="kept"))
    kept = [at for at in kept if at < len(rows)]
    taken = merged.take(np.asarray(kept, dtype=np.intp))
    subset = {keys[at]: rows[keys[at]] for at in kept}
    _check(taken, subset, _needles(data, rows))


def test_probe_of_the_empty_table_and_of_no_needles():
    needles = [5, 0, int(pair_keys(ABSENT, 3)), 5]
    _check(EMPTY, {}, needles)
    _check(_table({7: 0}), {7: 0}, [])
    _check(_table({7: 0}), {7: 0}, [8, 7, 6, 7])


def test_take_copies_the_chosen_matrix_blocks_and_nothing_per_sentinel_row():
    """``take`` is ``build`` over the chosen rows, with no zero-padded block per row.

    On 16 ports a padded block is 256 bytes, more than six times what a
    sentinel row holds, so a save of many verdict rows would peak at
    several times the table it writes if every row got one.
    """
    import tracemalloc

    rng = np.random.default_rng(45)
    ports, n = 16, 20_000
    sentinels = rng.choice([NO_DEPENDENCY, VERDICT_FALSE, VERDICT_TRUE], n)
    sentinels[::500] = 0
    blocks = rng.random((n, ports * ports)) < 0.5
    shape = np.full(n, ports)
    table = PairTable.build(ports, np.arange(n) * 3, blocks, shape, shape, sentinels, rng.integers(0, 9, n))
    select = np.sort(rng.choice(n, n // 2, replace=False))
    select[0] = 0  # a matrix row
    tracemalloc.start()
    try:
        taken = table.take(select)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * taken.nbytes
    built = PairTable.build(
        ports, table.keys[select], blocks[select], shape[select], shape[select], sentinels[select],
        table.hits[select], table.order[select],
    )
    for name in ("keys", "off", "rows", "cols", "hits", "order", "pool"):
        column, expected = getattr(taken, name), getattr(built, name)
        assert column.dtype == expected.dtype and np.array_equal(column, expected), name
    assert taken.pool.size == np.count_nonzero(sentinels[select] == 0) * ports * ports
