"""Friendly checks for configuration knobs.

:class:`~repro.parties.SAPConfig`, :class:`~repro.streaming.StreamConfig`,
:class:`~repro.serve.SessionSpec` and the stream sources check their knobs
with these, so every knob is refused with the same :class:`ValueError`
wording, whichever surface (Python API, CLI flag, workload file) set it.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Sequence

__all__ = ["require_bool", "require_choice", "require_int", "require_real"]


def require_bool(name: str, value: Any) -> None:
    """Refuse anything but ``True`` or ``False``."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def require_int(name: str, value: Any, minimum: int = 1) -> None:
    """Refuse anything but a Python ``int`` (not a bool) of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(
            f"{name} must be an integer with {name} >= {minimum}, got {value!r}"
        )


def require_real(name: str, value: Any) -> None:
    """Refuse anything but a finite real number (not a bool)."""
    if (
        not isinstance(value, numbers.Real)
        or isinstance(value, bool)
        or not math.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def require_choice(name: str, value: Any, choices: Sequence[str]) -> None:
    """Refuse a name-keyed knob outside ``choices``."""
    if value not in choices:
        raise ValueError(
            f"unknown {name} {value!r}; available: {', '.join(choices)}"
        )
