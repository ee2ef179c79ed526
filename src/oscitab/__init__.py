"""Combinatorics of semistandard oscillating tableaux with exact arithmetic."""

from . import analysis, correspondences, oscillating, polyring, shapes, tableaux

__all__ = [
    "analysis",
    "correspondences",
    "oscillating",
    "polyring",
    "shapes",
    "tableaux",
]
