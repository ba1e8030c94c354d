"""The decode kernel: Algorithm 2 over the trie columns, for many keys at once.

:func:`repro.core.decoder._intermediate_matrix` decides one ``(producer path,
consumer path)`` pair from two edge-label tuples with a handful of
:class:`~repro.matrices.BoolMatrix` products.  :func:`decide_many` decides a
whole batch of pairs from the trie's ``parent`` / ``packed`` / ``c`` columns:

1. **climb** — one vectorised walk to every pair's lowest common ancestor.
   The arenas append a child after its parent, so of two distinct nodes the
   one with the larger id cannot be the other's ancestor: it is lifted, and
   the nodes a side lifts are its path segment below the LCA.  A column that
   breaks the id order raises :class:`DecodingError` instead of looping;
2. **split** — the decoder's case analysis (prefix, module LCA, recursive
   LCA with the producer above or below the consumer) as masks, applied in
   the decoder's order so a pair is only ever answered *no dependency* where
   the decoder would have got that far;
3. **resolve** — every factor (``I``/``O`` of a segment edge, ``Z`` of the
   divergence, recursion chain products) becomes an integer code of the
   view's :class:`MatrixBank`, which knows each code's *class*: all-true,
   all-false or mixed;
4. **classify** — a key whose product is forced is settled from the classes
   alone, as a verdict for every port pair and with no product built: an
   all-false factor annihilates (:data:`VERDICT_FALSE`, like the decoder's
   *no dependency*), and factors that are all all-true multiply to all-true
   (:data:`VERDICT_TRUE`);
5. **multiply** — for the keys with a mixed factor left,
   ``out_chain^T · chain_up^T · Z · chain_down · in_chain`` as stacked
   products of zero-padded ``ports x ports`` float32 matrices gathered by
   code (segment products by pairwise tree reduction).

Whatever is not a clean case — an edge the view does not define, siblings
that disagree, a chain beyond the bank's bounds, an id outside the trie — is
marked :data:`REFERENCE` and left to the reference decoder, which decides or
raises exactly as it always has.  The kernel never guesses.

Float32 stacks, not bit rows: 2,000 stacked 8x8 boolean products take 0.16 ms
as ``matmul(float32) > 0`` against 0.25 ms as ``uint64`` bit rows (which also
cap a matrix at 64 columns) and 0.83 ms as stacked ``uint8``.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.pair_table import VERDICT_FALSE, VERDICT_TRUE
from repro.errors import DecodingError
from repro.store.path_table import _FIELD_BITS, _FIELD_MASK

__all__ = ["MATRIX", "REFERENCE", "VERDICT_FALSE", "VERDICT_TRUE", "MatrixBank", "decide_many"]

#: Per-key outcomes of :func:`decide_many`, beside :data:`VERDICT_FALSE` and
#: :data:`VERDICT_TRUE` (negative: a pair-table ``off`` as they are).
MATRIX = 0  # the key's block holds its reachability matrix
REFERENCE = 1  # not a clean case: the reference decoder decides (or raises)

#: Bits of a packed edge word, ``kind | a << 1 | b << 17``.
_WORD_BITS = 2 * _FIELD_BITS + 1
#: Bank key families; the chain product of a function is its family + _CHAIN.
_INPUTS, _OUTPUTS, _Z, _CHAIN = 0, 1, 2, 3
#: Code 0 is the identity (its shape, (-1, -1), reads "whatever fits"); -1 is
#: a factor that cannot be had cleanly.
_IDENTITY, _UNDEFINED = 0, -1
#: Classes of a code's matrix.  All-true needs non-zero dimensions; a matrix
#: with a zero dimension is vacuously both and annihilates a product, which is
#: the all-false behaviour.  The identity counts as all-true: it is neutral in
#: a product, and every key has a ``Z`` that is not the identity.
_ALL_TRUE, _ALL_FALSE, _MIXED = 0, 1, 2
#: Longest recursion chain resolved by running products; beyond it the
#: reference's fast exponentiation (``O(log count)`` products) decides.
MAX_CHAIN = 4096
#: Cells (float32) a transient matrix stack may hold.
_STACK_CELLS = 1 << 20


def _bank_key(family, a, b, c):
    """``family << 56 | a << 40 | b << 24 | c`` (fields of 16, 16 and 24 bits)."""
    return (family << 56) | (a << 40) | (b << 24) | c


class MatrixBank:
    """The matrices of one ``(view, variant)`` as a float32 stack addressed by code.

    A *key* names a factor of Algorithm 2 — ``I(k, i)``, ``O(k, i)``,
    ``Z(k, i, j)`` or a recursion chain product ``(function, s, t, count)``
    — and a *code* is the position of its zero-padded ``ports x ports`` matrix
    in :attr:`matrices` (or ``-1``: undefined); :attr:`classes` holds each
    code's class, filled when the code is appended, chain products included
    (classified as the matrices they are).  Codes are resolved lazily, by
    the first batch that asks, through the accessors of the decoded view
    state handed in (so the space-efficient variant's production memo is
    what gets searched) and never change: an eager bank of the chain grammar
    is ~4,000 matrices per view, most of them ``Z(k, i, j)`` no query reads.
    The chain products of one ``(function, s, t)`` are one running product
    ``P_n = P_{n-1} · E(t + n - 1)``, every step kept.  Growth happens under a
    lock and only appends — a matrix is written before its code is published,
    a full stack is replaced by a larger copy — so codes read before
    :attr:`matrices` always index it.
    """

    def __init__(self, index) -> None:
        #: The paper's constant ``c``: every matrix fits ``ports x ports``.
        self.ports = ports = max(1, index.max_ports())
        # The grammar's cycles, flattened.  They are 1-based; slot 0 is a
        # length-1 dummy that masked-out lanes index without a division by zero.
        self.cycles = [[(0, 0)]] + [[edge.key for edge in cycle] for cycle in index.cycles]
        self.cycle_len = np.asarray([len(cycle) for cycle in self.cycles], dtype=np.int64)
        self.cycle_base = np.cumsum(self.cycle_len) - self.cycle_len
        flat = np.asarray([key for cycle in self.cycles for key in cycle], dtype=np.int64)
        self.cycle_k, self.cycle_pos = flat[:, 0], flat[:, 1]
        self._cycle_nbytes = self.cycle_len.nbytes + self.cycle_base.nbytes + flat.nbytes
        self._lock = threading.Lock()
        self._codes: dict[int, int] = {}
        #: ``(family, s, t) -> [steps, code]``: how far the running product got.
        self._chains: dict[tuple[int, int, int], list[int]] = {}
        #: Chain products held.
        self.chain_codes = 0
        self.matrices = np.zeros((64, ports, ports), dtype=np.float32)
        self.matrices[_IDENTITY] = np.eye(ports, dtype=np.float32)
        #: ``(rows, cols)`` of each matrix inside its padded block.
        self.shapes = np.full((64, 2), -1, dtype=np.int32)
        #: ``_ALL_TRUE`` / ``_ALL_FALSE`` / ``_MIXED`` of each matrix.
        self.classes = np.zeros(64, dtype=np.int8)
        self._size = 1

    def __len__(self) -> int:
        """Matrices held (the identity included)."""
        return self._size

    @property
    def nbytes(self) -> int:
        """Bytes held: the stack, its shapes and classes as allocated, and the cycle columns."""
        return self.matrices.nbytes + self.shapes.nbytes + self.classes.nbytes + self._cycle_nbytes

    def cycle_slot(self, s, rotation):
        """Flat index of cycle ``s``'s edge at the (cyclic, 1-based) ``rotation``."""
        return self.cycle_base[s] + (rotation - 1) % self.cycle_len[s]

    def codes(self, keys: np.ndarray, state) -> np.ndarray:
        """The code of every key, resolving the ones no batch asked for yet."""
        unique, inverse = np.unique(keys, return_inverse=True)
        found = [self._codes.get(key) for key in unique.tolist()]
        if None in found:
            with self._lock:
                found = [self._code(key, state) for key in unique.tolist()]
        return np.asarray(found, dtype=np.int64)[inverse]

    def _code(self, key: int, state) -> int:
        code = self._codes.get(key)
        if code is not None:
            return code
        family = key >> 56
        a, b, c = (key >> 40) & _FIELD_MASK, (key >> 24) & _FIELD_MASK, key & 0xFFFFFF
        if family >= _CHAIN:
            return self._chain(family, a, b, c, state)
        try:
            accessor = (state.inputs, state.outputs, state.z)[family]
            data = accessor(a, b, c).data if family == _Z else accessor(a, b).data
        except Exception:
            # Whatever the accessor raised, the reference decoder raises it
            # again, in its own order, for the pair that needed the factor.
            data = None
        code = _UNDEFINED
        if data is not None and max(data.shape) <= self.ports:
            padded = np.zeros((self.ports, self.ports), dtype=np.float32)
            padded[: data.shape[0], : data.shape[1]] = data
            code = self._append(padded, data.shape)
        self._codes[key] = code
        return code

    def _chain(self, family: int, s: int, t: int, count: int, state) -> int:
        """Run ``(family, s, t)``'s product on to ``count`` steps, keeping every step."""
        cycle = self.cycles[s]
        tip = self._chains.setdefault((family, s, t), [0, _IDENTITY])
        while tip[0] < count and tip[1] != _UNDEFINED:
            k, position = cycle[(t + tip[0] - 1) % len(cycle)]
            edge = self._code(_bank_key(family - _CHAIN, k, position, 0), state)
            # Chain products count against the state budget like the chain
            # memo they stand in for: recursion depths come from the queried
            # labels, which an adversarial stream can make unbounded.  One
            # that would double the stack must fit the doubling; the others
            # wait until the budget has room for a matrix at all.
            full = self._size == len(self.matrices)
            cost = self.nbytes - self._cycle_nbytes if full else self.matrices[0].nbytes
            if edge != _UNDEFINED and not state.decode_cache.has_room(cost):
                return _UNDEFINED  # not recorded: asked again once there is room
            tip[0] += 1
            if edge == _UNDEFINED:
                tip[1] = _UNDEFINED  # the view drops this cycle edge: no longer chain is defined
            else:
                rows = self.shapes[edge if tip[0] == 1 else tip[1], 0]
                product = np.minimum(self.matrices[tip[1]] @ self.matrices[edge], 1.0)
                tip[1] = self._append(product, (rows, self.shapes[edge, 1]))
                self.chain_codes += 1
            self._codes[_bank_key(family, s, t, tip[0])] = tip[1]
        # Zero steps are the identity; a product that broke at step tip[0]
        # stays broken for every longer count; else the loop's last step.
        code = _IDENTITY if count == 0 else tip[1]
        return self._codes.setdefault(_bank_key(family, s, t, count), code)

    def _append(self, padded: np.ndarray, shape) -> int:
        code = self._size
        if code == len(self.matrices):
            self.matrices = np.concatenate((self.matrices, np.zeros_like(self.matrices)))
            self.shapes = np.concatenate((self.shapes, np.full_like(self.shapes, -1)))
            self.classes = np.concatenate((self.classes, np.zeros_like(self.classes)))
        self.matrices[code] = padded
        self.shapes[code] = shape
        rows, cols = shape
        if not padded.any():  # a zero dimension included: the padding is all there is
            self.classes[code] = _ALL_FALSE
        elif not padded[:rows, :cols].all():
            self.classes[code] = _MIXED
        self._size = code + 1
        return code


def _climb(parent, left: np.ndarray, right: np.ndarray):
    """Lift every pair to its LCA; ``(side, node, count)`` of the lifted nodes.

    Sides are numbered ``0 .. n-1`` (left) and ``n .. 2n-1`` (right).  The
    lifted nodes come grouped by side, each side bottom first; ``count`` is
    how many each side lifted (its segment below the LCA, diverging child
    included).
    """
    n = left.size
    at = np.concatenate((left, right))
    other = np.concatenate((np.arange(n, 2 * n), np.arange(n)))
    sides, nodes = [], []
    while True:
        lift = np.nonzero(at > at[other])[0]
        if lift.size == 0:
            break
        node = at[lift]
        up = parent[node]
        disordered = (up >= node) | (up < 0)
        if disordered.any():
            bad = int(node[np.argmax(disordered)])
            raise DecodingError(
                f"malformed path trie: the parent of path {bad} is {int(parent[bad])}, "
                "not an earlier path"
            )
        sides.append(lift)
        nodes.append(node)
        at[lift] = up
    if not sides:
        return np.empty(0, np.int64), np.zeros(1, np.int64), np.zeros(2 * n, np.int64)
    side = np.concatenate(sides)
    grouped = np.argsort(side, kind="stable")
    side = side[grouped]
    return side, np.concatenate(nodes)[grouped], np.bincount(side, minlength=2 * n)


def _segment_products(matrices: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The left-to-right product of each row of codes, by pairwise tree reduction.

    ``grid``'s width is a power of two (identity-padded on the right).
    """
    rows, width = grid.shape
    out = np.empty((rows,) + matrices.shape[1:], dtype=np.float32)
    step = max(1, _STACK_CELLS // (width * matrices[0].size))
    for lo in range(0, rows, step):
        stack = matrices[grid[lo : lo + step]]
        while stack.shape[1] > 1:
            stack = np.minimum(stack[:, 0::2] @ stack[:, 1::2], 1.0)
        out[lo : lo + step] = stack[:, 0]
    return out


def decide_many(trie, bank: MatrixBank, state, path1: np.ndarray, path2: np.ndarray):
    """Decide every ``(path1[r], path2[r])`` pair; see the module docstring.

    ``trie`` is the ``(parent, packed, c)`` column triple the int64 ids
    index, ``state`` the decoded view state whose accessors define the
    matrices.  Returns ``(outcome, blocks, shapes)``: per key one of
    :data:`MATRIX` / :data:`VERDICT_FALSE` / :data:`VERDICT_TRUE` /
    :data:`REFERENCE`, and for the matrix keys the zero-padded flat
    ``ports x ports`` block and the real ``(rows, cols)`` inside it.  Keys
    are processed in slabs sized from the port count, so the transient
    stacks stay bounded for wide grammars.
    """
    cells = bank.ports**2
    outcome = np.full(path1.size, REFERENCE, dtype=np.int64)
    blocks = np.zeros((path1.size, cells), dtype=bool)
    shapes = np.zeros((path1.size, 2), dtype=np.int32)
    n_paths = min(len(column) for column in trie)
    inside = np.nonzero((path1 < n_paths) & (path2 < n_paths))[0]
    slab = max(1, _STACK_CELLS // (8 * cells))
    for lo in range(0, inside.size, slab):
        rows = inside[lo : lo + slab]
        outcome[rows], blocks[rows], shapes[rows] = _decide_slab(
            trie, bank, state, path1[rows], path2[rows]
        )
    return outcome, blocks, shapes


def _decide_slab(trie, bank: MatrixBank, state, path1: np.ndarray, path2: np.ndarray):
    parent, packed, child = trie
    n, n_cycles = int(path1.size), len(bank.cycles) - 1
    side, node, count = _climb(parent, path1, path2)
    end = np.cumsum(count)
    # The last node a side lifted is its diverging child (index ``split`` of
    # the decoder's paths), the one before it the grandchild (``split + 1``).
    last = np.maximum(end - 1, 0)
    diverging = np.where(count > 0, node[last], 0)
    grandchild = np.where(count > 1, node[np.maximum(last - 1, 0)], 0)
    count1, count2 = count[:n], count[n:]

    # Case 1: one path is a prefix of the other (or they coincide).
    no_matrix = (count1 == 0) | (count2 == 0)
    reference = np.zeros(n, dtype=bool)

    def settle(verdict: np.ndarray, condition) -> None:
        """Give ``verdict`` to the keys no earlier step of the decoder settled."""
        verdict |= condition & ~(no_matrix | reference)

    w1, w2 = packed[diverging[:n]], packed[diverging[n:]]
    recursive = (w1 & 1) == 1
    a1, b1 = (w1 >> 1) & _FIELD_MASK, w1 >> (_FIELD_BITS + 1)
    a2, b2 = (w2 >> 1) & _FIELD_MASK, w2 >> (_FIELD_BITS + 1)

    # Case 2a, module LCA: sibling edges (k, i) and (k, j); Z(k, i, j) needs
    # i < j.  (Words that do not unpack, or siblings of different kinds, are
    # nobody's case.)
    settle(
        reference,
        (w1 < 0) | (w2 < 0) | ((w1 | w2) >> _WORD_BITS != 0) | (((w1 ^ w2) & 1) == 1)
        | (~recursive & ((a1 != a2) | (b1 == b2))),
    )
    settle(no_matrix, ~recursive & (b1 > b2))
    z_k, z_i, z_j = a1, b1, b2
    # Edges at the top of each side that are not segment factors, and the
    # bank key of the recursion chain between the two sides, if there is one.
    skip1 = skip2 = np.ones(n, dtype=np.int64)
    down = up = has_chain = np.zeros(n, dtype=bool)
    chain_key = np.zeros(n, dtype=np.int64)

    if recursive.any():
        # Case 2b, recursive LCA: sibling edges (s, t, i) and (s, t, j), i != j.
        # The side nearer the root hangs off chain member min(i, j) by a
        # production edge (its grandchild edge here), which must belong to that
        # member's cycle production; Z is taken inside that production, between
        # the hanging module and the position where the chain goes on.
        i = child[diverging[:n]].astype(np.int64)
        j = child[diverging[n:]].astype(np.int64)
        steps = np.abs(i - j) - 1
        settle(
            reference,
            recursive & ((w1 != w2) | (i == j) | (a1 < 1) | (a1 > n_cycles) | (steps > MAX_CHAIN)),
        )
        down = recursive & (i < j)  # the producer hangs off member i, the consumer is below j
        up = recursive & (i > j)
        settle(no_matrix, (down & (count1 == 1)) | (up & (count2 == 1)))
        pending = recursive & ~(no_matrix | reference)
        hang = packed[np.where(pending, np.where(down, grandchild[:n], grandchild[n:]), 0)]
        hang_k, hang_i = (hang >> 1) & _FIELD_MASK, hang >> (_FIELD_BITS + 1)
        s = np.where(pending, a1, 0)
        member = np.where(down, i, j)
        slot = bank.cycle_slot(s, b1 + member - 1)
        onward = bank.cycle_pos[slot]
        z_k = np.where(recursive, hang_k, z_k)
        z_i = np.where(recursive, np.where(down, hang_i, onward), z_i)
        z_j = np.where(recursive, np.where(down, onward, hang_i), z_j)
        settle(
            reference,
            recursive
            & ((hang < 0) | (hang >> _WORD_BITS != 0) | ((hang & 1) == 1)
               | (bank.cycle_k[slot] != hang_k) | (z_i == z_j)),
        )
        settle(no_matrix, recursive & (z_i > z_j))
        has_chain = recursive & (steps > 0)
        start = (b1 + member - 1) % bank.cycle_len[s] + 1  # rotation t + min(i, j)
        family = np.where(down, _INPUTS + _CHAIN, _OUTPUTS + _CHAIN)
        chain_key = _bank_key(family, s, start, np.where(has_chain, steps, 0))
        skip1, skip2 = np.where(down, 2, 1), np.where(up, 2, 1)

    z = np.full(n, _IDENTITY, dtype=np.int64)
    pending = np.nonzero(~(no_matrix | reference))[0]
    if pending.size:
        z[pending] = bank.codes(_bank_key(_Z, z_k[pending], z_i[pending], z_j[pending]), state)
    settle(reference, z == _UNDEFINED)
    settle(no_matrix, bank.classes[z] == _ALL_FALSE)

    # The segment factors: every lifted node below its side's skipped edges.
    from_top = end[side] - 1 - np.arange(side.size)  # 0 = the side's diverging child
    owner = np.where(side < n, side, side - n)
    skip = np.concatenate((skip1, skip2))
    factor = np.nonzero((from_top >= skip[side]) & ~(no_matrix | reference)[owner])[0]
    side, owner, column = side[factor], owner[factor], (from_top - skip[side])[factor]
    word = packed[node[factor]]
    steps = child[node[factor]].astype(np.int64) - 1  # a recursion edge (s, t, i) is i - 1 steps
    malformed = (word < 0) | (word >> _WORD_BITS != 0)
    word = np.where(malformed, 0, word)
    a, b = (word >> 1) & _FIELD_MASK, word >> (_FIELD_BITS + 1)
    is_chain = (word & 1) == 1
    malformed |= is_chain & ((a < 1) | (a > n_cycles) | (steps < 0) | (steps > MAX_CHAIN))
    is_chain &= ~malformed
    b = np.where(is_chain, (b - 1) % bank.cycle_len[np.where(is_chain, a, 0)] + 1, b)
    family = np.where(side < n, _OUTPUTS, _INPUTS) + np.where(is_chain, _CHAIN, 0)
    keys = _bank_key(family, a, b, np.where(is_chain, steps, 0))
    chained = np.nonzero(has_chain & ~(no_matrix | reference))[0]
    codes = bank.codes(np.concatenate((keys[~malformed], chain_key[chained])), state)
    code = np.full(keys.size, _UNDEFINED, dtype=np.int64)
    code[~malformed] = codes[: codes.size - chained.size]
    chain = np.full(n, _IDENTITY, dtype=np.int64)
    chain[chained] = codes[codes.size - chained.size :]
    settle(reference, (np.bincount(owner[code == _UNDEFINED], minlength=n) > 0) | (chain == _UNDEFINED))
    chain_up, chain_down = np.where(up, chain, _IDENTITY), np.where(down, chain, _IDENTITY)

    # Every factor of the keys still open is defined, so the decoder would
    # multiply them: an all-false one makes the product all-false whatever the
    # others hold, and without one only a mixed factor keeps it from all-true.
    # (An undefined factor reads some class; its key is the reference's.)
    classes = bank.classes
    factor_class = classes[code]
    all_false = classes[chain] == _ALL_FALSE
    mixed = (classes[chain] == _MIXED) | (classes[z] == _MIXED)
    all_false[owner[factor_class == _ALL_FALSE]] = True
    mixed[owner[factor_class == _MIXED]] = True
    settle(no_matrix, all_false)
    outcome = np.where(mixed, MATRIX, VERDICT_TRUE)
    outcome = np.where(reference, REFERENCE, np.where(no_matrix, VERDICT_FALSE, outcome))
    blocks = np.zeros((n, bank.ports**2), dtype=bool)
    shapes = np.zeros((n, 2), dtype=np.int32)
    live = np.nonzero(outcome == MATRIX)[0]
    if live.size == 0:
        return outcome, blocks, shapes
    matrices, bank_shapes = bank.matrices, bank.shapes

    # One grid row of factor codes per side of a live key (producer sides
    # first), top-most factor in column 0, identity beyond the bottom one.
    row_of = np.full(2 * n, -1, dtype=np.int64)
    row_of[live] = np.arange(live.size)
    row_of[live + n] = np.arange(live.size, 2 * live.size)
    kept = row_of[side] >= 0
    width = 1 << int(column[kept].max()).bit_length() if kept.any() else 1
    grid = np.full((2 * live.size, width), _IDENTITY)
    grid[row_of[side[kept]], column[kept]] = code[kept]
    segments = _segment_products(matrices, grid)
    out_chain, in_chain = segments[: live.size], segments[live.size :]

    product = np.swapaxes(out_chain, 1, 2)
    if up[live].any():
        product = np.minimum(product @ np.swapaxes(matrices[chain_up[live]], 1, 2), 1.0)
    product = np.minimum(product @ matrices[z[live]], 1.0)
    if down[live].any():
        product = np.minimum(product @ matrices[chain_down[live]], 1.0)
    blocks[live] = (product @ in_chain > 0).reshape(live.size, -1)

    # The matrix is (outputs at path1) x (inputs at path2): the trailing
    # dimension of each side's bottom-most factor with a shape of its own
    # (the identity, e.g. a chain of zero steps, has none: -1) or, where a
    # side has no such factor, of the next factor inwards.
    trailing = bank_shapes[grid, 1]
    bottom = width - 1 - np.argmax(trailing[:, ::-1] >= 0, axis=1)
    tail = trailing[np.arange(2 * live.size), bottom]
    outputs, inputs = tail[: live.size], tail[live.size :]
    above, below = bank_shapes[chain_up[live], 1], bank_shapes[chain_down[live], 1]
    z_rows, z_cols = bank_shapes[z[live]].T
    shapes[live, 0] = np.where(outputs >= 0, outputs, np.where(above >= 0, above, z_rows))
    shapes[live, 1] = np.where(inputs >= 0, inputs, np.where(below >= 0, below, z_cols))
    return outcome, blocks, shapes
