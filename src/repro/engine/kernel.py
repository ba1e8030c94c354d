"""The decode kernel: Algorithm 2 over the trie columns, for many keys at once.

:func:`repro.core.decoder._intermediate_matrix` decides one ``(producer path,
consumer path)`` pair from two edge-label tuples with a handful of
:class:`~repro.matrices.BoolMatrix` products.  :func:`decide_many` decides a
whole batch of pairs from the trie's ``parent`` / ``packed`` / ``c`` columns,
boundary pairs included — a side keyed :data:`~repro.core.pair_table.ABSENT`
(an initial input's producer path, a final output's consumer path):

1. **climb** — one vectorised walk to every pair's lowest common ancestor.
   The arenas append a child after its parent, so of two distinct nodes the
   one with the larger id cannot be the other's ancestor: it is lifted, and
   the nodes a side lifts are its path segment below the LCA.  An ``ABSENT``
   side stands at the root, so the other side lifts its whole path.  A
   column that breaks the id order raises :class:`DecodingError` instead of
   looping;
2. **split** — the decoder's case analysis (prefix, module LCA, recursive
   LCA with the producer above or below the consumer) as masks, applied in
   the decoder's order so a pair is only ever answered *no dependency* where
   the decoder would have got that far.  A boundary key is one chain: the
   ``Inputs`` chain over the consumer path (decoder Case III), the
   ``Outputs`` chain over the producer path (Case IV) — every lifted edge a
   factor, a recursion edge as a chain code — or ``lambda*(S)`` when both
   sides are absent (Case II);
3. **resolve** — every factor (``I``/``O`` of a segment edge, ``Z`` of the
   divergence, recursion chain products) becomes an integer code of the
   view's :class:`MatrixBank`, which knows each code's *class*: all-true,
   all-false or mixed.  A slab asks the bank once, for every factor of its
   open keys; the ``I``/``O``/``Z`` it meets first, and the cycle edges of
   its new chains, are read in one gather out of the view's body closures.
   A chain of any depth is one of the few steps the bank holds up to its
   Lemma-5 period;
4. **classify** — an interior key whose product is forced is settled from
   the classes alone, as a verdict for every port pair and with no product
   built: an all-false factor annihilates (:data:`VERDICT_FALSE`, like the
   decoder's *no dependency*), and factors that are all all-true multiply to
   all-true (:data:`VERDICT_TRUE`).  A boundary key is always multiplied:
   its row keeps the real shape every port read of it is checked against.
   A boundary chain of identities alone (an empty path, or chains of zero
   steps) is the identity of the size the reference gives it;
5. **multiply** — for the keys with a mixed factor left and the boundary keys,
   ``out_chain^T · chain_up^T · Z · chain_down · in_chain`` as stacked
   products of zero-padded ``ports x ports`` float32 matrices gathered by
   code (segment products by pairwise tree reduction).

Every key the reference decoder (:mod:`repro.core.decoder`) decides, the
kernel decides.  What is left — an edge the view does not define, siblings
that disagree, an id outside the trie — is marked :data:`REFERENCE`: a key
the reference raises for, which the engine has it raise, type and message
included.  The kernel never guesses.

Float32 stacks, not bit rows: 2,000 stacked 8x8 boolean products take 0.16 ms
as ``matmul(float32) > 0`` against 0.25 ms as ``uint64`` bit rows (which also
cap a matrix at 64 columns) and 0.83 ms as stacked ``uint8``.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.analysis.reachability import port_layout
from repro.core.pair_table import ABSENT, VERDICT_FALSE, VERDICT_TRUE
from repro.errors import DecodingError
from repro.store.path_table import _FIELD_BITS, _FIELD_MASK, ROOT_PATH

__all__ = ["MATRIX", "REFERENCE", "VERDICT_FALSE", "VERDICT_TRUE", "MatrixBank", "decide_many"]

#: Per-key outcomes of :func:`decide_many`, beside :data:`VERDICT_FALSE` and
#: :data:`VERDICT_TRUE` (negative: a pair-table ``off`` as they are).
MATRIX = 0  # the key's block holds its reachability matrix
REFERENCE = 1  # not a clean case: the reference decoder raises for it

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
#: a product, and every interior key has a factor that is not the identity, its
#: ``Z`` (a boundary key is always multiplied).
_ALL_TRUE, _ALL_FALSE, _MIXED = 0, 1, 2
#: Cells (float32) a transient matrix stack may hold.
_STACK_CELLS = 1 << 20


def _bank_key(family, a, b, c):
    """``family << 56 | a << 40 | b << 24 | c`` (fields of 16, 16 and 24 bits)."""
    return (family << 56) | (a << 40) | (b << 24) | c


def _bank_fields(key):
    """``(family, a, b, c)`` of bank keys (ints or arrays): :func:`_bank_key` undone."""
    return key >> 56, (key >> 40) & _FIELD_MASK, (key >> 24) & _FIELD_MASK, key & 0xFFFFFF


class _PortColumns:
    """Where each ``I``/``O``/``Z`` of every production sits in its body's closure.

    Edge ``(k, i)`` owns row ``edge[k, i]`` (row 0: no such edge).  Per row
    ``r`` of a matrix, ``lead[family, row]`` holds the flat offset of that
    row's cells in production ``k``'s closure, and per column ``c``,
    ``trail[family, row]`` the offset to add (``-1`` past the matrix's
    extent): cell ``(r, c)`` is ``closure.flat[lead[r] + trail[c]]``.
    ``I(k, i)`` reads ``closure[lhs_in[r], start_i + c]``, ``O(k, i)``
    ``closure[mid_i + c, lhs_out[r]]`` and ``Z(k, i, j)``
    ``closure[mid_i + r, start_j + c]`` — its lead from edge ``(k, i)``, its
    trail from ``(k, j)`` — as :class:`~repro.analysis.reachability.ClosureSlices`
    slices them out of each production's
    :class:`~repro.analysis.reachability.PortLayout`.  Built once per grammar,
    in whole-array steps, and shared by every scheme and view.
    """

    def __init__(self, index) -> None:
        #: The paper's constant ``c``: every matrix fits ``ports x ports``.
        self.ports = max(1, index.max_ports())
        layouts = [port_layout(production) for production in index.grammar.productions]
        positions = np.asarray([0] + [len(layout.blocks) for layout in layouts])
        k = np.repeat(np.arange(positions.size), positions)  # each edge's production
        #: ``(production, position) -> row``; a column past the widest body is all 0.
        self.edge = np.zeros((positions.size, positions.max() + 2), dtype=np.int64)
        at = np.arange(k.size) - np.repeat(np.cumsum(positions) - positions, positions) + 1
        self.edge[k, at] = np.arange(1, k.size + 1)
        width = np.asarray([0] + [layout.n_ports for layout in layouts])[k, None]
        bounds = [np.zeros((0, 3), np.int64)] + [layout.bounds for layout in layouts]
        start, mid, end = np.concatenate(bounds).T
        ports = np.arange(self.ports)

        def spans(first, length, scale=1):
            return np.where(ports < length[:, None], (first[:, None] + ports) * scale, -1)

        def padded(sides):
            sizes = np.asarray([0] + [side.size for side in sides])
            lhs = np.full((sizes.size, self.ports), -1, dtype=np.int64)
            column = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            lhs[np.repeat(np.arange(sizes.size), sizes), column] = np.concatenate(
                [np.zeros(0, np.int64)] + sides
            )
            return lhs[k]

        lhs_in = padded([layout.lhs_in for layout in layouts])
        lhs_out = padded([layout.lhs_out for layout in layouts])
        inputs, outputs = spans(start, mid - start), spans(mid, end - mid, width)
        lead = (np.where(lhs_in >= 0, lhs_in * width, -1), lhs_out, outputs)
        # Row 0 stands for every key that names no edge.
        none = np.full((1, self.ports), -1)
        self.lead = np.stack([np.concatenate((none, rows)) for rows in lead])
        self.trail = np.stack([np.concatenate((none, rows)) for rows in (inputs, outputs, inputs)])

    @classmethod
    def of(cls, index) -> "_PortColumns":
        """The columns of ``index``'s grammar, built on first use and kept while it lives."""
        columns = _PORT_COLUMNS.get(index.grammar)
        if columns is None:
            columns = _PORT_COLUMNS[index.grammar] = cls(index)
        return columns


#: grammar -> its :class:`_PortColumns` (a racing second build is harmless).
_PORT_COLUMNS = weakref.WeakKeyDictionary()


class MatrixBank:
    """The matrices of one view as a float32 stack addressed by code.

    A *key* names a factor of Algorithm 2 — ``I(k, i)``, ``O(k, i)``,
    ``Z(k, i, j)`` or a recursion chain ``(function, s, t)`` — and a *code*
    is the position of its zero-padded ``ports x ports`` matrix in
    :attr:`matrices` (or ``-1``: undefined); :attr:`classes` holds each
    code's class, filled when the code is appended, chain products included
    (classified as the matrices they are).  Codes are resolved lazily, by
    the first batch that asks, and never change: an eager bank of the chain
    grammar is ~4,000 matrices per view, most of them ``Z(k, i, j)`` no query
    reads.  The ``I``/``O``/``Z`` keys a batch brings, and the cycle edges of
    its new chains, are resolved together by :meth:`_gather`, one fancy
    index into the body closures the decoded view state hands out
    (:meth:`~repro.engine.cache.DecodedViewState.closure`, the label's own);
    a key is undefined exactly where the label's accessors raise, and a key
    that reads an undefined code goes to the reference decoder on the plain
    label, which raises the accessor's error.

    A chain is the running product ``P_n = E(t) ⋯ E(t + n - 1)`` over its
    cycle of length ``L``.  The next factor depends on ``n mod L`` alone, so
    from the first repeat of ``(n mod L, P_n)`` — at steps ``a`` and
    ``a + p`` — the product is periodic (Lemma 5): :meth:`_run_chain` keeps
    steps ``0 .. a + p - 1`` and a count ``n`` reads step ``n`` below
    ``a + p``, else ``a + (n - a) mod p``.  A chain of any depth is a
    constant of the grammar and the view.  A cycle edge the view drops ends
    the product: every later step is undefined.  Growth happens under a lock
    and only appends — a matrix is written before its code is published, a
    full stack is replaced by a larger copy — so codes read before
    :attr:`matrices` always index it.
    """

    def __init__(self, index) -> None:
        self._columns = _PortColumns.of(index)
        #: The paper's constant ``c``: every matrix fits ``ports x ports``.
        self.ports = ports = self._columns.ports
        # The grammar's cycles, flattened.  They are 1-based; slot 0 is a
        # length-1 dummy that masked-out lanes index without a division by zero.
        self.cycles = [[(0, 0)]] + [[edge.key for edge in cycle] for cycle in index.cycles]
        self.cycle_len = np.asarray([len(cycle) for cycle in self.cycles], dtype=np.int64)
        self.cycle_base = np.cumsum(self.cycle_len) - self.cycle_len
        flat = np.asarray([key for cycle in self.cycles for key in cycle], dtype=np.int64)
        self.cycle_k, self.cycle_pos = flat[:, 0], flat[:, 1]
        # The size of a chain of zero steps: the inputs (family _INPUTS) or
        # outputs (_OUTPUTS) of its first member, per cycle slot; column 0 is
        # the start module's, the size of an empty path.
        start = index.start_module
        members = [start] + [
            index.grammar.module(edge.source) for cycle in index.cycles for edge in cycle
        ]
        self.identity_size = np.asarray(
            [[m.n_inputs for m in members], [m.n_outputs for m in members]], dtype=np.int64
        )
        self._cycle_nbytes = (
            self.cycle_len.nbytes + self.cycle_base.nbytes + flat.nbytes + self.identity_size.nbytes
        )
        self._lock = threading.Lock()
        self._codes: dict[int, int] = {}
        #: chain key -> (codes of steps 0 .. a + p - 1, a, p).
        self._chains: dict[int, tuple[tuple[int, ...], int, int]] = {}
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

    def codes(self, keys: np.ndarray, counts: np.ndarray, state) -> np.ndarray:
        """The code of every key, resolving the ones no batch asked for yet.

        ``counts`` holds how many steps of each chain key (read beside an
        ``I``/``O``/``Z`` key: 0).
        """
        unique, inverse = np.unique(keys, return_inverse=True)
        listed = unique.tolist()
        codes, chains = self._codes, self._chains
        if any(key not in codes and key not in chains for key in listed):
            with self._lock:
                self._resolve(listed, state)
        split = int(np.searchsorted(unique, _CHAIN << 56))  # chain keys sort last
        found = [codes[key] for key in listed[:split]] + [_UNDEFINED] * (len(listed) - split)
        found = np.asarray(found, dtype=np.int64)[inverse]
        at = np.nonzero(inverse >= split)[0]
        if at.size:
            # A count n reads step n below a + p, else step a + (n - a) mod p.
            records = [chains[key] for key in listed[split:]]
            tail = np.asarray([a for _, a, _ in records])
            period = np.asarray([p for _, _, p in records])
            first = np.cumsum(tail + period) - (tail + period)  # each chain's step 0
            run = inverse[at] - split
            tail, period, n = tail[run], period[run], counts[at]
            step = np.where(n < tail + period, n, tail + (n - tail) % period)
            held = np.asarray([code for steps, _, _ in records for code in steps], dtype=np.int64)
            found[at] = held[first[run] + step]
        return found

    def _resolve(self, listed: list[int], state) -> None:
        """Resolve the keys no batch asked for yet: one gather, then the new chains."""
        chains = [key for key in listed if key >> 56 >= _CHAIN and key not in self._chains]
        # A new chain multiplies the edges of its cycle, gathered with the factors.
        factors = {key for key in listed if key >> 56 < _CHAIN}
        for family, s, _, _ in map(_bank_fields, chains):
            factors.update(_bank_key(family - _CHAIN, *edge, 0) for edge in self.cycles[s])
        factors.difference_update(self._codes)
        if factors:
            self._gather(np.asarray(sorted(factors), dtype=np.int64), state)
        for key in chains:
            self._run_chain(key)

    def _gather(self, keys: np.ndarray, state) -> None:
        """Resolve ``I``/``O``/``Z`` ``keys`` in one gather out of the state's closures."""
        edge = self._columns.edge
        family, k, i, j = _bank_fields(keys)
        k = np.where(k < len(edge), k, 0)
        closures = {}
        for production in set(k.tolist()) - {0}:
            closure = state.closure(production)
            if closure is not None:
                closures[production] = closure.reshape(-1)
        # A production the view does not retain has no edge either: row 0,
        # whose lead and trail mark no cell.
        held = np.zeros(len(edge), dtype=bool)
        held[list(closures)] = True
        k = np.where(held[k], k, 0)
        last, is_z = edge.shape[1] - 1, family == _Z
        row_i = edge[k, np.minimum(i, last)]
        row_j = np.where(is_z, edge[k, np.minimum(j, last)], row_i)
        lead, trail = self._columns.lead[family, row_i], self._columns.trail[family, row_j]
        rows, cols = lead >= 0, trail >= 0
        inside = rows[:, :, None] & cols[:, None, :]
        inside[is_z & (i >= j)] = False  # Z(k, i, j <= i) is all-false
        data = np.zeros(inside.shape, dtype=bool)
        if closures:
            sizes = [closure.size for closure in closures.values()]
            base = np.zeros(len(edge), dtype=np.int64)
            base[list(closures)] = np.cumsum(sizes) - sizes
            cells = base[k][:, None, None] + lead[:, :, None] + trail[:, None, :]
            data[inside] = np.concatenate(list(closures.values()))[cells[inside]]
        append = np.nonzero((row_i > 0) & (row_j > 0))[0]
        code = np.full(keys.size, _UNDEFINED, dtype=np.int64)
        first = self._append(data[append], rows[append].sum(axis=1), cols[append].sum(axis=1))
        code[append] = first + np.arange(append.size)
        self._codes.update(zip(keys.tolist(), code.tolist()))

    def _run_chain(self, key: int) -> None:
        """Run chain ``key`` to its first repeated ``(n mod L, P_n)`` and record its steps.

        Steps are run in rounds that at least double the steps held, each the
        prefix products of its edge factors times the last step held; only
        the steps before the repeat join the stack.  A product the view breaks
        at step ``d + 1`` holds steps ``0 .. d`` and reads undefined beyond.
        """
        family, s, t, _ = _bank_fields(key)
        cycle = self.cycles[s]
        length = len(cycle)
        ring = [
            self._codes[_bank_key(family - _CHAIN, *cycle[(t - 1 + n) % length], 0)]
            for n in range(length)
        ]
        broken = _UNDEFINED in ring
        if broken:
            held = ring.index(_UNDEFINED)
            products, tail, period = self._prefix(ring[:held]), held + 1, 1
        else:
            products = np.zeros((0, self.ports, self.ports), dtype=np.float32)
            seen, tail = {}, None
            while tail is None:
                n = len(products)
                more = self._prefix([ring[(n + m) % length] for m in range(max(n, length + 1))])
                if n:
                    more = np.minimum(products[-1] @ more, 1.0)
                products = np.concatenate((products, more))
                for step in range(n + 1, len(products) + 1):
                    seen_at = seen.setdefault((step % length, products[step - 1].tobytes()), step)
                    if seen_at != step:
                        tail, period = seen_at, step - seen_at
                        break
            held = tail + period - 1
        # Every step has the rows of the first edge factor, the columns of its last.
        cols = self.shapes[[ring[n % length] for n in range(held)], 1]
        first = self._append(products[:held], self.shapes[ring[0], 0], cols)
        steps = (_IDENTITY, *range(first, first + held)) + (_UNDEFINED,) * broken
        self._chains[key] = (steps, tail, period)
        self.chain_codes += held

    def _prefix(self, edges: list[int]) -> np.ndarray:
        """``E_1 ⋯ E_m`` for every ``m``: the prefix products of the codes' matrices.

        By doubling: ``log2`` stacked products (boolean products are associative).
        """
        prefix = self.matrices[edges]
        shift = 1
        while shift < len(edges):
            prefix[shift:] = np.minimum(prefix[:-shift] @ prefix[shift:], 1.0)
            shift *= 2
        return prefix

    def _append(self, matrices: np.ndarray, rows, cols) -> int:
        """Append ``matrices`` with their real ``(rows, cols)`` and classes; the first one's code.

        The padding is zero, so a matrix is all-false when it has no true
        cell (an empty dimension included) and all-true when its true cells
        fill its ``rows x cols``.
        """
        first, last = self._size, self._size + len(matrices)
        while last > len(self.matrices):  # grow by doubling
            self.matrices = np.concatenate((self.matrices, np.zeros_like(self.matrices)))
            self.shapes = np.concatenate((self.shapes, np.full_like(self.shapes, -1)))
            self.classes = np.concatenate((self.classes, np.zeros_like(self.classes)))
        self.matrices[first:last] = matrices
        self.shapes[first:last, 0], self.shapes[first:last, 1] = rows, cols
        filled = np.count_nonzero(matrices, axis=(1, 2))
        area = self.shapes[first:last, 0].astype(np.int64) * self.shapes[first:last, 1]
        self.classes[first:last] = np.where(
            filled == 0, _ALL_FALSE, np.where(filled == area, _ALL_TRUE, _MIXED)
        )
        self._size = last
        return first


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
    index (:data:`~repro.core.pair_table.ABSENT` on a boundary key's missing
    side), ``state`` the decoded view state whose closures and
    ``lambda*(S)`` define the matrices.  Returns ``(outcome, blocks, shapes)``: per key one of
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
    absent1, absent2 = path1 == ABSENT, path2 == ABSENT
    start = np.nonzero(absent1 & absent2)[0]
    if start.size:
        outcome[start], blocks[start], shapes[start] = _start_matrix(bank, state)
    inside = np.nonzero(
        ((path1 < n_paths) | absent1) & ((path2 < n_paths) | absent2) & ~(absent1 & absent2)
    )[0]
    slab = max(1, _STACK_CELLS // (8 * cells))
    for lo in range(0, inside.size, slab):
        rows = inside[lo : lo + slab]
        outcome[rows], blocks[rows], shapes[rows] = _decide_slab(
            trie, bank, state, path1[rows], path2[rows]
        )
    return outcome, blocks, shapes


def _start_matrix(bank: MatrixBank, state):
    """Case II, ``lambda*(S)``: its outcome, padded block and shape."""
    try:
        data = state.label.lam_star_start().data
    except Exception:
        return REFERENCE, False, 0  # the reference decoder raises it again
    rows, cols = data.shape
    block = np.zeros((bank.ports, bank.ports), dtype=bool)
    block[:rows, :cols] = data
    return MATRIX, block.reshape(-1), (rows, cols)


def _decide_slab(trie, bank: MatrixBank, state, path1: np.ndarray, path2: np.ndarray):
    parent, packed, child = trie
    n, n_cycles = int(path1.size), len(bank.cycles) - 1
    # A boundary key's missing side sits at the root, so its other side lifts
    # its whole path: every edge of it is a factor of the Inputs chain (Case
    # III, no producer path) or the Outputs chain (Case IV, no consumer path).
    absent1, absent2 = path1 == ABSENT, path2 == ABSENT
    interior = ~(absent1 | absent2)
    side, node, count = _climb(
        parent, np.where(absent1, ROOT_PATH, path1), np.where(absent2, ROOT_PATH, path2)
    )
    end = np.cumsum(count)
    # The last node a side lifted is its diverging child (index ``split`` of
    # the decoder's paths), the one before it the grandchild (``split + 1``).
    last = np.maximum(end - 1, 0)
    diverging = np.where(count > 0, node[last], 0)
    grandchild = np.where(count > 1, node[np.maximum(last - 1, 0)], 0)
    count1, count2 = count[:n], count[n:]

    # Case 1: one path is a prefix of the other (or they coincide).
    no_matrix = interior & ((count1 == 0) | (count2 == 0))
    reference = np.zeros(n, dtype=bool)

    def settle(verdict: np.ndarray, condition) -> None:
        """Give ``verdict`` to the keys no earlier step of the decoder settled."""
        verdict |= condition & ~(no_matrix | reference)

    w1, w2 = packed[diverging[:n]], packed[diverging[n:]]
    recursive = interior & ((w1 & 1) == 1)
    a1, b1 = (w1 >> 1) & _FIELD_MASK, w1 >> (_FIELD_BITS + 1)
    a2, b2 = (w2 >> 1) & _FIELD_MASK, w2 >> (_FIELD_BITS + 1)

    # Case 2a, module LCA: sibling edges (k, i) and (k, j); Z(k, i, j) needs
    # i < j.  (Words that do not unpack, or siblings of different kinds, are
    # nobody's case.)
    settle(
        reference,
        interior
        & ((w1 < 0) | (w2 < 0) | ((w1 | w2) >> _WORD_BITS != 0) | (((w1 ^ w2) & 1) == 1)
           | (~recursive & ((a1 != a2) | (b1 == b2)))),
    )
    settle(no_matrix, interior & ~recursive & (b1 > b2))
    z_k, z_i, z_j = a1, b1, b2
    # Edges at the top of each side that are not segment factors (a boundary
    # side has none), and the bank key and steps of the recursion chain
    # between the two sides, if there is one.
    skip1 = skip2 = interior.astype(np.int64)
    down = up = has_chain = np.zeros(n, dtype=bool)
    chain_key = chain_steps = np.zeros(n, dtype=np.int64)

    if recursive.any():
        # Case 2b, recursive LCA: sibling edges (s, t, i) and (s, t, j), i != j.
        # The side nearer the root hangs off chain member min(i, j) by a
        # production edge (its grandchild edge here), which must belong to that
        # member's cycle production; Z is taken inside that production, between
        # the hanging module and the position where the chain goes on.
        i = child[diverging[:n]].astype(np.int64)
        j = child[diverging[n:]].astype(np.int64)
        chain_steps = np.abs(i - j) - 1
        settle(reference, recursive & ((w1 != w2) | (i == j) | (a1 < 1) | (a1 > n_cycles)))
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
               | (bank.cycle_k[slot] != hang_k)),
        )
        settle(no_matrix, recursive & (z_i > z_j))
        has_chain = recursive & (chain_steps > 0)
        start = (b1 + member - 1) % bank.cycle_len[s] + 1  # rotation t + min(i, j)
        chain_key = _bank_key(np.where(down, _INPUTS + _CHAIN, _OUTPUTS + _CHAIN), s, start, 0)
        skip1, skip2 = np.where(down, 2, skip1), np.where(up, 2, skip2)

    # The Z between the two sides (a boundary key has none: the identity).
    pending = np.nonzero(interior & ~(no_matrix | reference))[0]
    z_keys = _bank_key(_Z, z_k[pending], z_i[pending], z_j[pending])

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
    malformed |= is_chain & ((a < 1) | (a > n_cycles) | (steps < 0))
    is_chain &= ~malformed
    cycle = np.where(is_chain, a, 0)
    b = np.where(is_chain, (b - 1) % bank.cycle_len[cycle] + 1, b)
    io = np.where(side < n, _OUTPUTS, _INPUTS)
    keys = _bank_key(io + np.where(is_chain, _CHAIN, 0), a, b, 0)
    steps = np.where(is_chain, steps, 0)
    # One bank call for every factor of the keys still open: the factors of a
    # key its Z then settles are resolved too, as the Z is settled first below.
    chained = np.nonzero(has_chain & ~(no_matrix | reference))[0]
    codes = bank.codes(
        np.concatenate((z_keys, keys[~malformed], chain_key[chained])),
        np.concatenate((np.zeros(pending.size, np.int64), steps[~malformed], chain_steps[chained])),
        state,
    )
    z = np.full(n, _IDENTITY, dtype=np.int64)
    z[pending] = codes[: pending.size]
    code = np.full(keys.size, _UNDEFINED, dtype=np.int64)
    code[~malformed] = codes[pending.size : codes.size - chained.size]
    chain = np.full(n, _IDENTITY, dtype=np.int64)
    chain[chained] = codes[codes.size - chained.size :]
    settle(reference, z == _UNDEFINED)
    settle(no_matrix, bank.classes[z] == _ALL_FALSE)
    settle(reference, (np.bincount(owner[code == _UNDEFINED], minlength=n) > 0) | (chain == _UNDEFINED))
    # A boundary chain of identities alone (an empty path, or chains of zero
    # steps): its size is set below, as no code's shape says it.
    identity = ~interior & ~reference & (np.bincount(owner[code > _IDENTITY], minlength=n) == 0)
    chain_up, chain_down = np.where(up, chain, _IDENTITY), np.where(down, chain, _IDENTITY)

    # Every factor of the keys still open is defined, so the decoder would
    # multiply them: an all-false one makes the product all-false whatever the
    # others hold, and without one only a mixed factor keeps it from all-true.
    # (An undefined factor reads some class; its key is the reference's.)  A
    # boundary key is always multiplied: its matrix row keeps the shape every
    # read of it is checked against.
    classes = bank.classes
    factor_class = classes[code]
    all_false = classes[chain] == _ALL_FALSE
    mixed = (classes[chain] == _MIXED) | (classes[z] == _MIXED) | ~interior
    all_false[owner[factor_class == _ALL_FALSE]] = True
    mixed[owner[factor_class == _MIXED]] = True
    settle(no_matrix, interior & all_false)
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
    # Each row is multiplied at the power-of-two width its own factors need,
    # so a boundary key's whole path does not widen every other row's stack.
    rows = 2 * live.size
    row_of = np.full(2 * n, -1, dtype=np.int64)
    row_of[live] = np.arange(live.size)
    row_of[live + n] = np.arange(live.size, rows)
    kept = row_of[side] >= 0
    needs = np.bincount(row_of[side[kept]], minlength=rows)
    needs = np.left_shift(1, np.ceil(np.log2(np.maximum(needs, 1))).astype(np.int64))
    width = int(needs.max())
    grid = np.full((rows, width), _IDENTITY)
    grid[row_of[side[kept]], column[kept]] = code[kept]
    segments = np.empty((rows,) + matrices.shape[1:], dtype=np.float32)
    for need in np.unique(needs).tolist():
        at = np.nonzero(needs == need)[0]
        segments[at] = _segment_products(matrices, grid[at, :need])
    out_chain, in_chain = segments[: live.size], segments[live.size :]

    # Case IV is the Outputs chain itself, untransposed.
    inputs_only, outputs_only = absent1[live], absent2[live]
    product = np.where(outputs_only[:, None, None], out_chain, np.swapaxes(out_chain, 1, 2))
    if up[live].any():
        product = np.minimum(product @ np.swapaxes(matrices[chain_up[live]], 1, 2), 1.0)
    product = np.minimum(product @ matrices[z[live]], 1.0)
    if down[live].any():
        product = np.minimum(product @ matrices[chain_down[live]], 1.0)
    blocks[live] = (product @ in_chain > 0).reshape(live.size, -1)

    # The matrix is (outputs at path1) x (inputs at path2): the trailing
    # dimension of each side's bottom-most factor with a shape of its own
    # (the identity, e.g. a chain of zero steps, has none: -1) or, where a
    # side has no such factor, of the next factor inwards.  A boundary
    # matrix is its one chain: the leading dimension of its side's top-most
    # factor with a shape by the trailing one of its bottom-most.
    trailing, leading = bank_shapes[grid, 1], bank_shapes[grid, 0]
    bottom = width - 1 - np.argmax(trailing[:, ::-1] >= 0, axis=1)
    tail = trailing[np.arange(rows), bottom]
    lead = leading[np.arange(rows), np.argmax(leading >= 0, axis=1)]
    outputs, inputs = tail[: live.size], tail[live.size :]
    above, below = bank_shapes[chain_up[live], 1], bank_shapes[chain_down[live], 1]
    z_rows, z_cols = bank_shapes[z[live]].T
    shapes[live, 0] = np.where(
        inputs_only,
        lead[live.size :],
        np.where(
            outputs_only,
            lead[: live.size],
            np.where(outputs >= 0, outputs, np.where(above >= 0, above, z_rows)),
        ),
    )
    shapes[live, 1] = np.where(
        outputs_only, outputs, np.where(inputs >= 0, inputs, np.where(below >= 0, below, z_cols))
    )
    if identity.any():
        # The identity of the first factor's size: the first chain member's
        # inputs (Case III) or outputs (Case IV), or for an empty path the
        # start module's.
        size = bank.identity_size[np.where(absent1, _INPUTS, _OUTPUTS), 0]
        top = column == 0
        size[owner[top]] = bank.identity_size[io[top], bank.cycle_slot(cycle[top], b[top])]
        inside = np.arange(bank.ports) < size[identity, None, None]
        blocks[identity] = (np.eye(bank.ports, dtype=bool) & inside).reshape(-1, bank.ports**2)
        shapes[identity] = size[identity, None]
    return outcome, blocks, shapes
