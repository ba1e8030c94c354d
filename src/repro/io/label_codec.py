"""Bit-exact encoding of data labels (used to report label lengths in bits).

The experiments of Section 6 report data-label lengths in bits (Figures 17,
21, 24).  The codec below defines a concrete binary format for the labels of
Section 4.2.2 and reports exact sizes:

* grammar-dependent fields (production number ``k``, cycle id ``s``, rotation
  ``t``, port index) use fixed widths derived from the specification, since
  the specification is of constant size;
* the child index ``i`` of an edge label is unbounded (it grows with the
  number of recursion unfoldings, i.e. with the run size), so it is encoded
  with Elias gamma coding — this is what makes label lengths grow as
  ``O(log n)``;
* a data label factors out the common prefix of its two port labels
  (Section 4.2.2 notes this halves the size) and stores the prefix once, the
  two distinct suffixes, and the two port indices.

``encode``/``decode`` provide an actual byte serialisation (round-tripped in
the tests); ``data_label_bits`` reports the exact bit count without padding
to whole bytes.
"""

from __future__ import annotations

from repro.core.labels import (
    DataLabel,
    EdgeLabel,
    PortLabel,
    ProductionEdgeLabel,
    RecursionEdgeLabel,
    common_prefix_length,
)
from repro.core.preprocessing import GrammarIndex
from repro.errors import SerializationError

__all__ = ["elias_gamma_bits", "LabelCodec"]


def elias_gamma_bits(value: int) -> int:
    """Number of bits of the Elias gamma code of a positive integer."""
    value = int(value)  # accept numpy scalars from mapped columns
    if value < 1:
        raise ValueError("Elias gamma codes positive integers only")
    return 2 * (value.bit_length() - 1) + 1


def _fixed_width(n_values: int) -> int:
    """Bits needed to address ``n_values`` distinct values (at least 1)."""
    return max(1, (max(n_values, 1) - 1).bit_length()) if n_values > 1 else 1


class _BitWriter:
    def __init__(self) -> None:
        self.bits: list[int] = []

    def write(self, value: int, width: int) -> None:
        if value < 0 or value >= (1 << width):
            raise SerializationError(f"value {value} does not fit in {width} bits")
        for position in reversed(range(width)):
            self.bits.append((value >> position) & 1)

    def write_gamma(self, value: int) -> None:
        value = int(value)  # accept numpy scalars from mapped columns
        if value < 1:
            raise SerializationError("Elias gamma codes positive integers only")
        length = value.bit_length() - 1
        self.bits.extend([0] * length)
        self.write(value, length + 1)

    def to_bytes(self) -> bytes:
        data = bytearray()
        for start in range(0, len(self.bits), 8):
            chunk = self.bits[start : start + 8]
            chunk = chunk + [0] * (8 - len(chunk))
            byte = 0
            for bit in chunk:
                byte = (byte << 1) | bit
            data.append(byte)
        return bytes(data)

    def __len__(self) -> int:
        return len(self.bits)


class _BitReader:
    def __init__(self, data: bytes, n_bits: int) -> None:
        self._bits: list[int] = []
        for byte in data:
            for position in reversed(range(8)):
                self._bits.append((byte >> position) & 1)
        self._bits = self._bits[:n_bits]
        self._cursor = 0

    def read(self, width: int) -> int:
        if self._cursor + width > len(self._bits):
            raise SerializationError("truncated label encoding")
        value = 0
        for _ in range(width):
            value = (value << 1) | self._bits[self._cursor]
            self._cursor += 1
        return value

    def read_gamma(self) -> int:
        zeros = 0
        while self.read(1) == 0:
            zeros += 1
        value = 1
        for _ in range(zeros):
            value = (value << 1) | self.read(1)
        return value


class LabelCodec:
    """Encodes and measures data labels for one preprocessed specification."""

    def __init__(self, index: GrammarIndex) -> None:
        self._index = index
        self._k_bits = _fixed_width(index.n_productions() + 1)
        self._s_bits = _fixed_width(index.n_cycles + 1)
        max_cycle = max(
            (index.cycle_length(s) for s in range(1, index.n_cycles + 1)), default=1
        )
        self._t_bits = _fixed_width(max_cycle + 1)
        self._port_bits = _fixed_width(index.max_ports() + 1)
        self._rhs_bits = _fixed_width(index.max_rhs_size() + 1)

    # -- sizes ---------------------------------------------------------------------

    def edge_label_bits(self, edge: EdgeLabel) -> int:
        """Exact size of one edge label (1 kind bit plus its fields)."""
        if isinstance(edge, ProductionEdgeLabel):
            return 1 + self._k_bits + self._rhs_bits
        if isinstance(edge, RecursionEdgeLabel):
            return 1 + self._s_bits + self._t_bits + elias_gamma_bits(edge.i)
        raise SerializationError(f"unknown edge label {edge!r}")

    def path_bits(self, path: tuple[EdgeLabel, ...]) -> int:
        """Size of a path: gamma-coded length followed by the edge labels."""
        return elias_gamma_bits(len(path) + 1) + sum(
            self.edge_label_bits(edge) for edge in path
        )

    def port_label_bits(self, label: PortLabel) -> int:
        return self.path_bits(label.path) + self._port_bits

    def data_label_bits(self, label: DataLabel) -> int:
        """Exact size of a data label with the common path prefix factored out."""
        bits = 2  # presence flags for producer / consumer
        if label.producer is None or label.consumer is None:
            present = label.producer or label.consumer
            if present is not None:
                bits += self.port_label_bits(present)
            return bits
        prefix = common_prefix_length(label.producer.path, label.consumer.path)
        shared = label.producer.path[:prefix]
        bits += self.path_bits(shared)
        bits += self.path_bits(label.producer.path[prefix:]) + self._port_bits
        bits += self.path_bits(label.consumer.path[prefix:]) + self._port_bits
        return bits

    # -- byte serialisation ------------------------------------------------------------

    def encode(self, label: DataLabel) -> tuple[bytes, int]:
        """Encode a data label; returns ``(payload, number_of_bits)``."""
        writer = _BitWriter()
        writer.write(0 if label.producer is None else 1, 1)
        writer.write(0 if label.consumer is None else 1, 1)
        if label.producer is None or label.consumer is None:
            present = label.producer or label.consumer
            if present is not None:
                self._write_port_label(writer, present)
            return writer.to_bytes(), len(writer)
        prefix = common_prefix_length(label.producer.path, label.consumer.path)
        self._write_path(writer, label.producer.path[:prefix])
        self._write_path(writer, label.producer.path[prefix:])
        writer.write(label.producer.port, self._port_bits)
        self._write_path(writer, label.consumer.path[prefix:])
        writer.write(label.consumer.port, self._port_bits)
        return writer.to_bytes(), len(writer)

    def decode(self, payload: bytes, n_bits: int) -> DataLabel:
        """Decode a label produced by :meth:`encode`."""
        reader = _BitReader(payload, n_bits)
        has_producer = reader.read(1) == 1
        has_consumer = reader.read(1) == 1
        if not has_producer or not has_consumer:
            label = self._read_port_label(reader)
            if has_producer:
                return DataLabel(label, None)
            if has_consumer:
                return DataLabel(None, label)
            raise SerializationError("a data label needs at least one port label")
        shared = self._read_path(reader)
        producer_suffix = self._read_path(reader)
        producer_port = reader.read(self._port_bits)
        consumer_suffix = self._read_path(reader)
        consumer_port = reader.read(self._port_bits)
        return DataLabel(
            PortLabel(shared + producer_suffix, producer_port),
            PortLabel(shared + consumer_suffix, consumer_port),
        )

    # -- internals -----------------------------------------------------------------------

    def _write_edge(self, writer: _BitWriter, edge: EdgeLabel) -> None:
        if isinstance(edge, ProductionEdgeLabel):
            writer.write(0, 1)
            writer.write(edge.k, self._k_bits)
            writer.write(edge.i, self._rhs_bits)
        elif isinstance(edge, RecursionEdgeLabel):
            writer.write(1, 1)
            writer.write(edge.s, self._s_bits)
            writer.write(edge.t, self._t_bits)
            writer.write_gamma(edge.i)
        else:  # pragma: no cover - defensive
            raise SerializationError(f"unknown edge label {edge!r}")

    def _read_edge(self, reader: _BitReader) -> EdgeLabel:
        if reader.read(1) == 0:
            k = reader.read(self._k_bits)
            i = reader.read(self._rhs_bits)
            return ProductionEdgeLabel(k, i)
        s = reader.read(self._s_bits)
        t = reader.read(self._t_bits)
        i = reader.read_gamma()
        return RecursionEdgeLabel(s, t, i)

    def _write_path(self, writer: _BitWriter, path: tuple[EdgeLabel, ...]) -> None:
        writer.write_gamma(len(path) + 1)
        for edge in path:
            self._write_edge(writer, edge)

    def _read_path(self, reader: _BitReader) -> tuple[EdgeLabel, ...]:
        length = reader.read_gamma() - 1
        return tuple(self._read_edge(reader) for _ in range(length))

    def _write_port_label(self, writer: _BitWriter, label: PortLabel) -> None:
        self._write_path(writer, label.path)
        writer.write(label.port, self._port_bits)

    def _read_port_label(self, reader: _BitReader) -> PortLabel:
        path = self._read_path(reader)
        port = reader.read(self._port_bits)
        return PortLabel(path, port)
