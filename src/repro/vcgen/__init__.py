"""Verification condition generation for the ISel TV system."""

from repro.vcgen.syncgen import SpecOverBudget, VcGenError, generate_sync_points

__all__ = ["SpecOverBudget", "VcGenError", "generate_sync_points"]
