"""Combinatorics of semistandard oscillating tableaux with exact arithmetic."""

from . import correspondences, oscillating, polyring, shapes, tableaux

__all__ = [
    "analysis",
    "correspondences",
    "oscillating",
    "polyring",
    "shapes",
    "tableaux",
]


def __getattr__(name):
    # analysis needs dataclasses, which most calls never use, so it loads on first access
    if name == "analysis":
        from importlib import import_module

        return import_module(".analysis", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "analysis"})
