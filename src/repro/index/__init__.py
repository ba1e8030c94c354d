"""Interval columns over a run's parse tree (an offline utility, see :mod:`.structural`)."""

from repro.index.structural import StructuralIndex, compute_tree_intervals, tree_levels

__all__ = ["StructuralIndex", "compute_tree_intervals", "tree_levels"]
