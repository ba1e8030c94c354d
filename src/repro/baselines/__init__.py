"""The baseline the paper compares against: DRL [5], a dynamic labeling
scheme for one view (the Figure 23 query-time comparison)."""

from repro.baselines.drl import DRL_ORDER_HEADER_BITS, DRLLabel, DRLRunLabeler, DRLScheme

__all__ = [
    "DRLScheme",
    "DRLRunLabeler",
    "DRLLabel",
    "DRL_ORDER_HEADER_BITS",
]
