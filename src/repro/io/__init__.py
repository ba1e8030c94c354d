"""Serialisation: the JSON codec for model objects and the bit-exact label codec."""

from repro.io.json_io import (
    derivation_from_dict,
    derivation_to_dict,
    dump_specification,
    load_specification,
    specification_from_dict,
    specification_to_dict,
    view_from_dict,
    view_to_dict,
)
from repro.io.label_codec import LabelCodec, elias_gamma_bits

__all__ = [
    "specification_to_dict",
    "specification_from_dict",
    "dump_specification",
    "load_specification",
    "view_to_dict",
    "view_from_dict",
    "derivation_to_dict",
    "derivation_from_dict",
    "LabelCodec",
    "elias_gamma_bits",
]
