"""Shared time formatting and parsing helpers.

An instant is an int: UTC milliseconds since the Unix epoch, from the
capture clock through segment names and the event log to the records
and exports.  :func:`epoch_ms` and :func:`from_ms` convert at the edges
where a ``datetime`` comes in or is needed.  The helpers here are the
single place where times are rendered to or read from text, so exports
and logs stay byte-for-byte reproducible.
"""
from __future__ import annotations

import functools
import re
from datetime import date, datetime, timedelta, timezone

UTC = timezone.utc
MS_PER_DAY = 86_400_000

_EPOCH = datetime(1970, 1, 1)  # naive, read as UTC
_EPOCH_ORDINAL = _EPOCH.toordinal()
_ONE_MS = timedelta(milliseconds=1)

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ms|s|m|h|d)?\s*$")
_UNIT_SECONDS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def epoch_ms(dt: datetime) -> int:
    """*dt* as UTC epoch milliseconds, rounded down (naive input is UTC)."""
    if dt.tzinfo is not None:
        dt = dt.astimezone(UTC).replace(tzinfo=None)
    return (dt - _EPOCH) // _ONE_MS


def from_ms(ms: int) -> datetime:
    """The aware UTC datetime of epoch milliseconds *ms*."""
    return (_EPOCH + ms * _ONE_MS).replace(tzinfo=UTC)


def day_ms(day: date) -> int:
    """Epoch milliseconds of midnight UTC at the start of *day*."""
    return (day.toordinal() - _EPOCH_ORDINAL) * MS_PER_DAY


@functools.lru_cache(maxsize=1024)
def _day_prefix(day: int) -> str:
    moment = date.fromordinal(_EPOCH_ORDINAL + day)
    return f"{moment.year:04d}-{moment.month:02d}-{moment.day:02d}T"


def iso_ms(ms: int) -> str:
    """Format epoch milliseconds as ``YYYY-MM-DDTHH:MM:SS.mmmZ``, the
    year zero-padded to four digits."""
    day, rest = divmod(ms, MS_PER_DAY)
    seconds, milli = divmod(rest, 1000)
    minutes, second = divmod(seconds, 60)
    hour, minute = divmod(minutes, 60)
    return f"{_day_prefix(day)}{hour:02d}:{minute:02d}:{second:02d}.{milli:03d}Z"


def parse_iso_ms(text: str) -> int:
    """Parse an ISO 8601 timestamp to epoch milliseconds, accepting a
    trailing ``Z`` for UTC and taking one without an offset as UTC;
    ``ValueError`` on anything else, a value that is not text included."""
    if not isinstance(text, str):
        raise ValueError(f"not an ISO 8601 timestamp: {text!r}")
    if len(text) == 24 and text[10] == "T" and text[19] == "." and text[23] == "Z":
        # the form iso_ms writes: no offset before the Z
        return (datetime.fromisoformat(text[:23]) - _EPOCH) // _ONE_MS
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    return epoch_ms(datetime.fromisoformat(text))


def basic_stamp(ms: int) -> str:
    """Format epoch milliseconds in basic ISO 8601, to the second, for use
    in file names."""
    return iso_ms(ms)[:19].replace("-", "").replace(":", "") + "Z"


def parse_duration(text: str) -> float:
    """Parse a duration like ``"500ms"``, ``"1.5h"``, or ``"90"`` to seconds.

    A bare number is taken as seconds.  Raises ``ValueError`` on anything
    else, including negative values (which no caller here has a use for).
    """
    match = _DURATION_RE.match(text)
    if not match:
        raise ValueError(f"invalid duration: {text!r}")
    return float(match.group(1)) * _UNIT_SECONDS[match.group(2) or "s"]
