"""Serialisation: JSON and XML codecs for model objects, bit-exact label codec."""

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
from repro.io.xml_io import (
    dump_specification_xml,
    load_specification_xml,
    specification_from_xml,
    specification_to_xml,
    view_from_xml,
    view_to_xml,
)

__all__ = [
    "specification_to_dict",
    "specification_from_dict",
    "dump_specification",
    "load_specification",
    "view_to_dict",
    "view_from_dict",
    "derivation_to_dict",
    "derivation_from_dict",
    "specification_to_xml",
    "specification_from_xml",
    "dump_specification_xml",
    "load_specification_xml",
    "view_to_xml",
    "view_from_xml",
    "LabelCodec",
    "elias_gamma_bits",
]
