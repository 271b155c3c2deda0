"""Small unit-conversion helpers.

All internal library quantities are SI (seconds, volts, watts, joules,
hertz).  These helpers make call sites read like the paper text, e.g.
``us(75)`` for the 75 microsecond array read time.
"""

from __future__ import annotations

#: Bits per byte.
BITS_PER_BYTE = 8


def ns(value: float) -> float:
    """Nanoseconds to seconds."""
    return value * 1e-9


def us(value: float) -> float:
    """Microseconds to seconds."""
    return value * 1e-6


def ms(value: float) -> float:
    """Milliseconds to seconds."""
    return value * 1e-3


def mv(value: float) -> float:
    """Millivolts to volts."""
    return value * 1e-3


def mhz(value: float) -> float:
    """Megahertz to hertz."""
    return value * 1e6
