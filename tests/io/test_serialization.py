"""Round-trip tests for the JSON codec and the bit-exact label codec."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FVLScheme
from repro.io import (
    LabelCodec,
    derivation_from_dict,
    derivation_to_dict,
    dump_specification,
    elias_gamma_bits,
    load_specification,
    specification_from_dict,
    specification_to_dict,
    view_from_dict,
    view_to_dict,
)
from repro.workloads import build_running_example, random_run, running_example_view_u2
from tests.conftest import derive_running


def _assert_same_spec(a, b):
    assert sorted(a.grammar.module_names) == sorted(b.grammar.module_names)
    assert a.grammar.composite_modules == b.grammar.composite_modules
    assert a.grammar.start == b.grammar.start
    assert len(a.grammar.productions) == len(b.grammar.productions)
    assert a.dependencies == b.dependencies
    for pa, pb in zip(a.grammar.productions, b.grammar.productions):
        assert pa.lhs.name == pb.lhs.name
        assert pa.rhs.topological_order == pb.rhs.topological_order
        assert pa.rhs.edges == pb.rhs.edges
        assert pa.rhs.initial_inputs == pb.rhs.initial_inputs


def test_specification_json_roundtrip(running_spec):
    data = specification_to_dict(running_spec)
    _assert_same_spec(running_spec, specification_from_dict(data))


def test_specification_json_file_roundtrip(tmp_path, bioaid_spec):
    path = tmp_path / "spec.json"
    dump_specification(bioaid_spec, str(path))
    _assert_same_spec(bioaid_spec, load_specification(str(path)))


def test_view_roundtrips(running_spec, view_u2):
    restored = view_from_dict(view_to_dict(view_u2))
    assert restored.visible_composites == view_u2.visible_composites
    assert restored.dependencies == view_u2.dependencies


def test_derivation_roundtrip(running_spec):
    derivation = derive_running(running_spec, seed=4)
    data = derivation_to_dict(derivation)
    replayed = derivation_from_dict(running_spec, data)
    assert replayed.run.n_data_items == derivation.run.n_data_items
    assert replayed.run.records == derivation.run.records


def test_elias_gamma_bits():
    assert elias_gamma_bits(1) == 1
    assert elias_gamma_bits(2) == 3
    assert elias_gamma_bits(7) == 5
    with pytest.raises(ValueError):
        elias_gamma_bits(0)


def test_label_codec_roundtrip_and_sizes(running_spec, running_scheme):
    codec = LabelCodec(running_scheme.index)
    derivation = derive_running(running_spec, seed=9)
    labeler = running_scheme.label_run(derivation)
    n = derivation.run.n_data_items
    for uid in derivation.run.data_items:
        label = labeler.label(uid)
        payload, bits = codec.encode(label)
        assert codec.decode(payload, bits) == label
        assert len(payload) == math.ceil(bits / 8)
        # The reported analytic size matches the encoder's output exactly.
        assert bits == codec.data_label_bits(label)


@settings(max_examples=30, deadline=None)
@given(value=st.integers(min_value=1, max_value=10**6))
def test_elias_gamma_matches_formula(value):
    assert elias_gamma_bits(value) == 2 * int(math.log2(value)) + 1


def test_codec_scales_logarithmically(bioaid_spec):
    scheme = FVLScheme(bioaid_spec)
    codec = LabelCodec(scheme.index)
    small = random_run(bioaid_spec, 200, seed=1)
    large = random_run(bioaid_spec, 3200, seed=1)
    small_bits = max(
        codec.data_label_bits(label)
        for label in scheme.label_run(small).labels.values()
    )
    large_bits = max(
        codec.data_label_bits(label)
        for label in scheme.label_run(large).labels.values()
    )
    # 16x more data items should cost only a handful of extra bits.
    assert large_bits - small_bits <= 20
