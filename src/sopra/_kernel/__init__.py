"""Kernel backend selection.

The compiled extension (`_chabits.cpp`, backend "compiled") is used when
present; the pure-Python fallback (`pyhabits.py`, backend "python") is
always available and produces bit-identical results. Set SOPRA_KERNEL to
"python" or "compiled" to force one.
"""

from __future__ import annotations

import os

from .pyhabits import AGG_MAX, AGG_MEAN, AGG_SUM
from .pyhabits import HabitStore as PyHabitStore

try:
    from ._chabits import HabitStore as CHabitStore
except ImportError:
    CHabitStore = None


def available_backends() -> dict[str, type]:
    backends: dict[str, type] = {"python": PyHabitStore}
    if CHabitStore is not None:
        backends["compiled"] = CHabitStore
    return backends


def get_backend(name: str | None = None) -> type:
    name = name or os.environ.get("SOPRA_KERNEL") or default_backend()
    backends = available_backends()
    if name not in backends:
        raise ValueError(f"unknown kernel backend {name!r}; available: {sorted(backends)}")
    return backends[name]


def default_backend() -> str:
    return "compiled" if CHabitStore is not None else "python"
