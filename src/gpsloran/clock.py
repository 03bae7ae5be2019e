"""Injectable time sources.

Long-running capture code never calls ``time.time`` or ``time.sleep``
directly; it goes through a :class:`Clock` so tests (and accelerated
simulation runs) can substitute their own notion of time.  ``now()`` is
an int of UTC epoch milliseconds, the form every instant takes on its
way to disk; only the constructors take an aware ``datetime`` start.
"""
from __future__ import annotations

import time
from datetime import datetime
from typing import Protocol

from .timeutil import epoch_ms


class Clock(Protocol):
    def now(self) -> int:
        """Current instant in UTC epoch milliseconds."""
        ...

    def monotonic(self) -> float:
        """Wall-clock seconds from any origin; unlike ``now()``, never sped up."""
        ...

    def sleep(self, seconds: float) -> None:
        """Block for *seconds* of this clock's time."""
        ...


class SystemClock:
    """Wall-clock time."""

    def now(self) -> int:
        return time.time_ns() // 1_000_000

    monotonic = staticmethod(time.monotonic)

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class AcceleratedClock:
    """Clock that runs at a fixed positive multiple of wall time from an anchor point.

    ``now()`` reports ``start + factor * (wall elapsed since construction)``,
    and ``sleep(s)`` blocks for ``s / factor`` wall seconds.  With
    ``factor=86400`` a simulated day passes in one wall second.
    """

    def __init__(self, start: datetime, factor: float = 1.0):
        self.start = epoch_ms(start)
        self.factor = float(factor)
        self._anchor = time.monotonic()

    def now(self) -> int:
        elapsed = time.monotonic() - self._anchor
        return self.start + int(elapsed * self.factor * 1000)

    monotonic = staticmethod(time.monotonic)

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds / self.factor)
