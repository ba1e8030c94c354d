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
   open keys; the ``I``/``O``/``Z`` it meets first, and the cycle edges its
   chain products step over, are read in one gather out of the view's body
   closures;
4. **classify** — an interior key whose product is forced is settled from
   the classes alone, as a verdict for every port pair and with no product
   built: an all-false factor annihilates (:data:`VERDICT_FALSE`, like the
   decoder's *no dependency*), and factors that are all all-true multiply to
   all-true (:data:`VERDICT_TRUE`).  A boundary key is always multiplied:
   its row keeps the real shape every port read of it is checked against;
5. **multiply** — for the keys with a mixed factor left and the boundary keys,
   ``out_chain^T · chain_up^T · Z · chain_down · in_chain`` as stacked
   products of zero-padded ``ports x ports`` float32 matrices gathered by
   code (segment products by pairwise tree reduction).

Whatever is not a clean case — an edge the view does not define, siblings
that disagree, a chain beyond :data:`MAX_CHAIN` or steps the budget left out,
an id outside the trie, a boundary chain of identities alone — is marked
:data:`REFERENCE` and left to the reference decoder (:mod:`repro.core.decoder`)
on the plain view label, which decides or raises exactly as the public
predicate does; its row is admitted to the pair table like any other.  The
kernel never guesses.

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
#: a product, and every key has a factor that is not the identity (an interior
#: key its ``Z``; a boundary key without one is the reference's).
_ALL_TRUE, _ALL_FALSE, _MIXED = 0, 1, 2
#: Longest recursion chain resolved by running products; beyond it the
#: reference's fast exponentiation (``O(log count)`` products) decides.
MAX_CHAIN = 4096
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
    ``Z(k, i, j)`` or a recursion chain product ``(function, s, t, count)``
    — and a *code* is the position of its zero-padded ``ports x ports`` matrix
    in :attr:`matrices` (or ``-1``: undefined); :attr:`classes` holds each
    code's class, filled when the code is appended, chain products included
    (classified as the matrices they are).  Codes are resolved lazily, by
    the first batch that asks, and never change: an eager bank of the chain
    grammar is ~4,000 matrices per view, most of them ``Z(k, i, j)`` no query
    reads.  The ``I``/``O``/``Z`` keys a batch brings are resolved together
    by :meth:`_gather`, one fancy index into the body closures the decoded
    view state hands out (:meth:`~repro.engine.cache.DecodedViewState.closure`,
    the label's own); a key is undefined exactly where the label's accessors raise, and a key
    that reads an undefined code goes to the reference decoder on the plain
    label, which raises the accessor's error.  The chain
    products of one ``(function, s, t)`` are one running product
    ``P_n = P_{n-1} · E(t + n - 1)``, every step kept, whose edge factors
    come from the same gather and whose new steps a batch runs by prefix
    doubling.  Growth happens under a lock and only appends — a matrix is
    written before its code is published, a full stack is replaced by a
    larger copy — so codes read before :attr:`matrices` always index it.
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
        listed = unique.tolist()
        found = [self._codes.get(key) for key in listed]
        if None in found:
            with self._lock:
                found = self._resolve(listed, state)
        return np.asarray(found, dtype=np.int64)[inverse]

    def _resolve(self, listed: list[int], state) -> list[int]:
        """The codes of ascending distinct keys: one gather, then the running products."""
        missing = [key for key in listed if key not in self._codes]
        factors = [key for key in missing if key >> 56 < _CHAIN]
        chains = missing[len(factors) :]  # chain families sort after the factor families
        # How far each running product (family, s, t) -- a key with count 0 --
        # is asked to go; the cycle edges it still multiplies on are gathered
        # with the factors.
        targets: dict[int, int] = {}
        for key in chains:
            run = key - (key & 0xFFFFFF)
            targets[run] = max(targets.get(run, 0), key & 0xFFFFFF)
        if targets:
            edges = {edge for run, n in targets.items() for edge in self._chain_edges(run, n)}
            factors = sorted(edges.difference(self._codes).union(factors))
        if factors:
            self._gather(np.asarray(factors, dtype=np.int64), state)
        if targets:
            self._run_chains(targets, state)
        for key in chains:
            if key not in self._codes:
                # Zero steps are the identity; a product that broke stays
                # broken for every longer count; else the budget left the
                # count out, and it is asked again once there is room.
                family, s, t, count = _bank_fields(key)
                if count == 0 or self._chains[(family, s, t)][1] == _UNDEFINED:
                    self._codes[key] = _UNDEFINED if count else _IDENTITY
        return [self._codes.get(key, _UNDEFINED) for key in listed]

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
        code[append] = self._size + np.arange(append.size)
        self._reserve(append.size)
        at = slice(self._size, self._size + append.size)
        data, inside = data[append], inside[append]
        self.matrices[at] = data
        self.shapes[at, 0], self.shapes[at, 1] = rows[append].sum(axis=1), cols[append].sum(axis=1)
        # The padding is zero, so an empty dimension leaves nothing: all-false.
        self.classes[at] = np.where(
            data.any(axis=(1, 2)),
            np.where((data == inside).all(axis=(1, 2)), _ALL_TRUE, _MIXED),
            _ALL_FALSE,
        )
        self._size += append.size
        self._codes.update(zip(keys.tolist(), code.tolist()))

    def _chain_edges(self, run: int, count: int) -> list[int]:
        """Bank keys of the cycle edges ``run``'s product still multiplies on to ``count``."""
        family, s, t, _ = _bank_fields(run)
        cycle = self.cycles[s]
        steps = self._chains.get((family, s, t), (0,))[0]
        return [
            _bank_key(family - _CHAIN, *cycle[(t + step - 1) % len(cycle)], 0)
            for step in range(steps, min(count, steps + len(cycle)))
        ]

    def _run_chains(self, targets: dict[int, int], state) -> None:
        """Run each product (a key of count 0) on to its target count, keeping every step.

        The step whose cycle edge the view drops is recorded undefined, and
        the product stays broken.  Steps the budget leaves out are not run.
        """
        plans = []
        for run, count in targets.items():
            family, s, t, _ = _bank_fields(run)
            tip = self._chains.setdefault((family, s, t), [0, _IDENTITY])
            if tip[1] == _UNDEFINED or tip[0] >= count:
                continue
            # The edge factor of every step still to run, up to the first one
            # the view drops.
            cycle = self.cycles[s]
            ring = [
                self._codes.get(_bank_key(family - _CHAIN, *edge, 0), _UNDEFINED) for edge in cycle
            ]
            edges = [ring[(t - 1 + n) % len(cycle)] for n in range(tip[0], count)]
            dropped = _UNDEFINED in edges
            edges = edges[: edges.index(_UNDEFINED)] if dropped else edges
            plans.append((run, tip, edges, dropped))
        # Chain products count against the state budget: recursion depths
        # come from the queried labels, which an adversarial stream can make
        # unbounded.  Steps that would double the stack must fit the
        # doubling; the others wait until the budget has room for a matrix at all.
        need = sum(len(edges) for _, _, edges, _ in plans)
        room = 0
        if need and state.has_room(self.matrices[0].nbytes):
            while self._size + need > len(self.matrices) and state.has_room(
                self.nbytes - self._cycle_nbytes
            ):
                self._reserve(len(self.matrices) - self._size + 1)  # one doubling
            room = min(need, len(self.matrices) - self._size)
        admitted = []
        for run, tip, edges, dropped in plans:
            take = min(len(edges), room)
            room -= take
            admitted.append((run, tip, edges[:take]))
            if dropped and take == len(edges):
                admitted.append((run, tip, None))
        self._extend([(run, tip, edges) for run, tip, edges in admitted if edges])
        for run, tip, edges in admitted:
            if edges is None:  # the view drops this cycle edge
                tip[0], tip[1] = tip[0] + 1, _UNDEFINED
                self._codes[run + tip[0]] = _UNDEFINED

    def _extend(self, parts: list) -> None:
        """Append the next steps of running products: ``(run, tip, edge codes)`` each.

        Step ``n`` of a product is ``tip · E_1 ⋯ E_n``: the prefix products of
        its edge factors by doubling (``log2`` stacked products; boolean
        products are associative), then one stacked product with the tip.
        Shapes and classes are written, for all parts at once, before the
        codes are published.
        """
        if not parts:
            return
        products, rows = [], []
        for _, tip, edges in parts:
            prefix = self.matrices[edges]
            shift = 1
            while shift < len(edges):
                prefix[shift:] = np.minimum(prefix[:-shift] @ prefix[shift:], 1.0)
                shift *= 2
            products.append(np.minimum(self.matrices[tip[1]] @ prefix, 1.0))
            # Every product of a run has the rows of its first edge factor.
            rows += [self.shapes[edges[0] if tip[0] == 0 else tip[1], 0]] * len(edges)
        edges = [edge for _, _, part in parts for edge in part]
        first, last = self._size, self._size + len(edges)
        self.matrices[first:last] = np.concatenate(products)
        self.shapes[first:last, 0], self.shapes[first:last, 1] = rows, self.shapes[edges, 1]
        self._classify(slice(first, last))
        self._size = last
        for run, tip, part in parts:
            steps, codes = run + tip[0] + 1, first + len(part)
            self._codes.update(zip(range(steps, steps + len(part)), range(first, codes)))
            tip[0], tip[1], first = tip[0] + len(part), codes - 1, codes
        self.chain_codes += len(edges)

    def _reserve(self, n: int) -> None:
        """Grow the stack (by doubling) until ``n`` more matrices fit."""
        while self._size + n > len(self.matrices):
            self.matrices = np.concatenate((self.matrices, np.zeros_like(self.matrices)))
            self.shapes = np.concatenate((self.shapes, np.full_like(self.shapes, -1)))
            self.classes = np.concatenate((self.classes, np.zeros_like(self.classes)))

    def _classify(self, at: slice) -> None:
        """The class of each matrix at ``at``, from its cells and its shape.

        The padding is zero, so a matrix is all-false when it has no true
        cell (an empty dimension included) and all-true when its true cells
        fill its ``rows x cols``.
        """
        filled = np.count_nonzero(self.matrices[at], axis=(1, 2))
        area = self.shapes[at, 0].astype(np.int64) * self.shapes[at, 1]
        self.classes[at] = np.where(
            filled == 0, _ALL_FALSE, np.where(filled == area, _ALL_TRUE, _MIXED)
        )


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
    if max(rows, cols) > bank.ports:
        return REFERENCE, False, 0
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
    # side has none), and the bank key of the recursion chain between the two
    # sides, if there is one.
    skip1 = skip2 = interior.astype(np.int64)
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
    malformed |= is_chain & ((a < 1) | (a > n_cycles) | (steps < 0) | (steps > MAX_CHAIN))
    is_chain &= ~malformed
    b = np.where(is_chain, (b - 1) % bank.cycle_len[np.where(is_chain, a, 0)] + 1, b)
    family = np.where(side < n, _OUTPUTS, _INPUTS) + np.where(is_chain, _CHAIN, 0)
    keys = _bank_key(family, a, b, np.where(is_chain, steps, 0))
    # One bank call for every factor of the keys still open: the factors of a
    # key its Z then settles are resolved too, as the Z is settled first below.
    chained = np.nonzero(has_chain & ~(no_matrix | reference))[0]
    codes = bank.codes(np.concatenate((z_keys, keys[~malformed], chain_key[chained])), state)
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
    # steps) is an identity of the start module's size, which no shape says.
    settle(reference, ~interior & (np.bincount(owner[code > _IDENTITY], minlength=n) == 0))
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
    return outcome, blocks, shapes
