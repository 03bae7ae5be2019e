"""Shared time formatting and parsing helpers.

All timestamps in this package are timezone-aware UTC datetimes carried at
millisecond precision.  The helpers here are the single place where those
values are rendered to or read from text, so exports and logs stay
byte-for-byte reproducible.
"""
from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

UTC = timezone.utc

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ms|s|m|h|d)?\s*$")
_UNIT_SECONDS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def ensure_utc(dt: datetime) -> datetime:
    """Return *dt* as an aware UTC datetime (naive input is taken as UTC)."""
    if dt.tzinfo is None:
        return dt.replace(tzinfo=UTC)
    return dt.astimezone(UTC)


def iso_ms(dt: datetime) -> str:
    """Format a UTC timestamp as ``YYYY-MM-DDTHH:MM:SS.mmmZ``."""
    dt = ensure_utc(dt)
    return f"{dt:%Y-%m-%dT%H:%M:%S}.{dt.microsecond // 1000:03d}Z"


def parse_iso_ms(text: str) -> datetime:
    """Parse an ISO 8601 timestamp, accepting a trailing ``Z`` for UTC;
    ``ValueError`` on anything else, a value that is not text included."""
    if not isinstance(text, str):
        raise ValueError(f"not an ISO 8601 timestamp: {text!r}")
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    return ensure_utc(datetime.fromisoformat(text))


def basic_stamp(dt: datetime) -> str:
    """Format a UTC timestamp in basic ISO 8601 for use in file names."""
    return f"{ensure_utc(dt):%Y%m%dT%H%M%S}Z"


def parse_duration(text: str | float | int) -> float:
    """Parse a duration like ``"500ms"``, ``"1.5h"``, or ``"90"`` to seconds.

    A bare number is taken as seconds.  Raises ``ValueError`` on anything
    else, including negative values (which no caller here has a use for).
    """
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        match = _DURATION_RE.match(text)
        if not match:
            raise ValueError(f"invalid duration: {text!r}")
        value = float(match.group(1)) * _UNIT_SECONDS.get(match.group(2) or "s", 1.0)
    if value < 0:
        raise ValueError(f"duration must be non-negative: {text!r}")
    return value


def day_start(dt: datetime) -> datetime:
    """Midnight UTC at the start of *dt*'s day."""
    dt = ensure_utc(dt)
    return dt.replace(hour=0, minute=0, second=0, microsecond=0)


def next_utc_midnight(dt: datetime) -> datetime:
    """First UTC midnight strictly after *dt*.

    A timestamp exactly on a midnight maps to the following midnight, so a
    segment opened at a day boundary always spans a full day.
    """
    return day_start(dt) + timedelta(days=1)
