"""Structure-quality metrics."""

from .gdt import gdt_ts, lddt
from .kabsch import Superposition, kabsch, superpose
from .rmsd import distance_rmse, rmsd
from .tm_score import d0_from_length, tm_score, tm_score_structures

__all__ = [
    "Superposition",
    "d0_from_length",
    "distance_rmse",
    "gdt_ts",
    "kabsch",
    "lddt",
    "rmsd",
    "superpose",
    "tm_score",
    "tm_score_structures",
]
