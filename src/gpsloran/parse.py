"""Decode classified receiver sentences into typed GPS and Loran records.

Sentences carry a UTC time of day but (mostly) no date.  Each ZDA or RMC
line reports an instant, its date plus its own time of day, and
:func:`parse_classified` reads those first.  The segment's *anchor* is the
earliest reported instant, else the segment's open time, else noon of a
configured start date.  Every GGA and ``$PLRM`` store is then dated by its
own :class:`DateContext`: the first time of day takes the instant nearest
the anchor, each later one advances a day when the time of day jumps back
more than 12 hours (midnight rollover), and a record that crosses a *hole*,
12 hours or more between two consecutive reported instants, moves to the
day the date sentences report after the hole.  A timestamp is integer UTC
epoch milliseconds.

A record (:class:`GpsFix`, :class:`LoranMeasurement`) is a named tuple
whose fields are in its export file's column order, so the export renders
it by position.  Each field's range check exists once, here: the parsers
call it, and so do the export readers in :mod:`gpsloran.convert`, so a
record never holds a value the parser would have rejected.

Supported sentences:

``$--GGA`` (GPS fix; any talker)
    field 1   UTC time of day ``hhmmss.sss``
    field 2,3 latitude ``ddmm.mmmm`` + hemisphere N/S
    field 4,5 longitude ``dddmm.mmmm`` + hemisphere E/W
    field 6   fix quality (0 = no fix)
    field 7   satellites in use
    field 8   HDOP
    field 9   altitude above MSL, meters

``$--ZDA`` / ``$--RMC``
    parsed only for the instant they report: the time of day at field 1
    and the date (ZDA: day,month,year at 2,3,4; RMC: ddmmyy at field 9).

``$PLRM`` (proprietary Loran observation, one sentence per station)
    ``$PLRM,<hhmmss.sss>,<gri>,<role>,<toa_us>,<snr_db>,<ecd_us>*hh``
    where ``gri`` is the 4-digit group repetition interval designator
    (interval = designator x 10 microseconds), ``role`` is a station
    letter in {M, V, W, X, Y, Z}, ``toa_us`` the time of arrival within
    the GRI frame, ``snr_db`` the signal-to-noise ratio, and ``ecd_us``
    the envelope-to-cycle difference.  Other ``$P...`` stores stay
    classified but unparsed.

Malformed lines never abort a batch: each one becomes a structured
:class:`ParseIssue` and parsing continues, so a day-long unattended run
survives corrupt input.
"""
from __future__ import annotations

import math
import re
from array import array
from collections.abc import Iterator, Sequence
from datetime import date
from pathlib import Path
from typing import NamedTuple

from .timeutil import MS_PER_DAY, day_ms

STATION_ROLES = frozenset("MVWXYZ")
GRI_MIN = 4000
GRI_MAX = 9999
_HALF_DAY_MS = MS_PER_DAY // 2

_TOD_RE = re.compile(r"^(\d{2})(\d{2})(\d{2})(?:\.(\d{1,3}))?$")
_COORD_RE = re.compile(r"^(\d{4,5})\.(\d+)$")
_RMC_DATE_RE = re.compile(r"^(\d{2})(\d{2})(\d{2})$")
# What int() and float() forgive in a number and NMEA never writes in one:
# digit separators and surrounding white space.
_NUMBER_NOISE = re.compile(r"[_\s]").search


class ParseError(ValueError):
    """A single malformed sentence, naming the offending field."""

    def __init__(self, message: str, field_name: str | None = None):
        super().__init__(message)
        self.field_name = field_name


class GpsFix(NamedTuple):
    """One GGA fix, timestamped in UTC epoch milliseconds, its fields in
    the ``timeline_gps`` column order.  ``fix_quality == 0`` marks a no-fix
    record whose position fields are None; such records are excluded from
    position statistics but kept in the timeline.  :func:`check_fix` holds
    its range checks."""

    timestamp: int
    lat: float | None
    lon: float | None
    alt_m: float | None
    fix_quality: int
    num_sats: int
    hdop: float | None


class LoranMeasurement(NamedTuple):
    """One Loran station observation from a ``$PLRM`` sentence,
    timestamped in UTC epoch milliseconds, its fields in the
    ``timeline_loran`` column order.  :func:`loran_values` holds its range
    checks."""

    timestamp: int
    gri: int
    station_role: str
    toa_us: float
    snr_db: float
    ecd_us: float


class ParseIssue(NamedTuple):
    """One skipped line, with provenance into its classified store."""

    source_file: str
    line_number: int
    message: str
    field_name: str | None = None
    raw: str = ""


def _nearest(tod: int, instant: int) -> int:
    """The instant at time of day *tod* nearest *instant*; a tie at exactly
    12 hours keeps *instant*'s day."""
    candidate = instant - instant % MS_PER_DAY + tod
    if candidate - instant > _HALF_DAY_MS:
        return candidate - MS_PER_DAY
    if candidate - instant < -_HALF_DAY_MS:
        return candidate + MS_PER_DAY
    return candidate


class DateContext:
    """Dates one store's times of day, which arrive in receiver order.

    ``resolve`` turns a time of day into an instant, both in milliseconds.
    The first takes the instant nearest *anchor*.  Each later one keeps the
    day of the one before, and advances a day when the time of day jumps
    back more than 12 hours (midnight rollover).

    *holes* are the (start, end) pairs of consecutive reported instants 12
    hours or more apart.  Take the first hole that ends after the previous
    instant (for the first time of day, the anchor).  The new instant may
    have crossed it when it lies behind the previous instant or past the
    hole's start, and the previous instant lies less than one step past
    the hole's start (the store was not reporting inside the hole).  It
    then moves to the instant nearest the hole's end, if that lies nearer
    the end than the new instant lies to the previous one or to the
    hole's start.
    """

    def __init__(self, anchor: int, holes: Sequence[tuple[int, int]] = ()):
        self.anchor = anchor
        self.holes = holes
        self.last: int | None = None

    def resolve(self, tod: int) -> int:
        last = self.last
        if last is None:
            last = self.anchor
            instant = _nearest(tod, last)
        else:
            instant = last - last % MS_PER_DAY + tod
            if instant - last < -_HALF_DAY_MS:
                instant += MS_PER_DAY
        for start, end in self.holes:
            if end > last:
                step = abs(instant - last)
                if (instant < last or instant > start) and last - start < step:
                    moved = _nearest(tod, end)
                    if abs(moved - end) < min(step, abs(instant - start)):
                        instant = moved
                break
        self.last = instant
        return instant


def parse_tod(value: str) -> int:
    """Milliseconds into the UTC day of ``hhmmss`` with up to three
    fractional digits."""
    if (len(value) == 10 and value[6] == "." and value.isascii()
            and (digits := value[:6] + value[7:]).isdigit()):  # hhmmss.sss, the receivers' form
        whole = int(digits)
        hour, minute, second = whole // 10_000_000, whole // 100_000 % 100, whole // 1000 % 100
        ms = whole % 1000
    else:
        match = _TOD_RE.match(value)
        if not match:
            raise ParseError(f"malformed time of day: {value!r}", "time")
        hour, minute, second, fraction = match.groups()
        hour, minute, second = int(hour), int(minute), int(second)
        ms = int((fraction or "").ljust(3, "0"))
    if hour > 23 or minute > 59 or second > 59:
        raise ParseError(f"time of day out of range: {value!r}", "time")
    return ((hour * 60 + minute) * 60 + second) * 1000 + ms


def parse_coordinate(value: str, hemisphere: str, field_name: str = "coordinate") -> float:
    """Decode an NMEA ``ddmm.mmmm``/``dddmm.mmmm`` + hemisphere pair.

    Returns signed decimal degrees: degrees + minutes/60, negated for the
    S and W hemispheres.
    """
    match = _COORD_RE.match(value)
    if not match:
        raise ParseError(f"malformed {field_name}: {value!r}", field_name)
    digits = match.group(1)
    degrees = int(digits[:-2])
    minutes = float(value[len(digits) - 2 :])
    if minutes >= 60.0:
        raise ParseError(f"{field_name} minutes out of range: {value!r}", field_name)
    decimal = degrees + minutes / 60.0
    if hemisphere in ("N", "E"):
        return decimal
    if hemisphere in ("S", "W"):
        return -decimal
    raise ParseError(f"bad {field_name} hemisphere: {hemisphere!r}", field_name)


def _require_fields(fields: list[str], minimum: int, sentence: str) -> None:
    if len(fields) < minimum:
        raise ParseError(
            f"{sentence} needs {minimum} fields, got {len(fields)}", "field-count"
        )


def parse_float(value: str, field_name: str) -> float:
    """*value*, not a bool, as a finite float; ``ParseError`` naming *field_name* if not.
    A text must not hold ``_`` or white space."""
    kind = type(value)
    try:
        number = float(None if kind is bool or kind is str and _NUMBER_NOISE(value) else value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"malformed {field_name}: {value!r}", field_name) from None
    if not math.isfinite(number):
        raise ParseError(f"non-finite {field_name}: {value!r}", field_name)
    return number


def parse_int(value: str, field_name: str) -> int:
    """*value*, a text or an int, as an int; ``ParseError`` naming *field_name* if not.
    A text must not hold ``_`` or white space."""
    kind = type(value)
    try:
        return int(value if kind is int or kind is str and not _NUMBER_NOISE(value) else None)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"malformed {field_name}: {value!r}", field_name) from None


def check_fix(lat: float | None, lon: float | None, fix_quality: int, num_sats: int,
              hdop: float | None) -> None:
    """The range checks of a GGA fix's values; ``ParseError`` on the first
    that fails."""
    if lat is not None and not -90.0 <= lat <= 90.0:
        raise ParseError(f"latitude out of range: {lat}")
    if lon is not None and not -180.0 <= lon <= 180.0:
        raise ParseError(f"longitude out of range: {lon}")
    if fix_quality < 0:
        raise ParseError(f"fix_quality must be non-negative: {fix_quality}")
    if num_sats < 0:
        raise ParseError(f"num_sats must be non-negative: {num_sats}")
    if hdop is not None and hdop < 0:
        raise ParseError(f"hdop must be non-negative: {hdop}")
    if fix_quality > 0 and (lat is None or lon is None):
        raise ParseError("positive fix_quality requires a position")


def parse_gga(fields: list[str], ctx: DateContext) -> GpsFix:
    """Parse a comma-split GGA sentence (header at index 0).

    Empty position fields are an error unless fix quality is 0, in which
    case a flagged no-fix record is produced.
    """
    _require_fields(fields, 10, "GGA")
    tod = parse_tod(fields[1])
    quality = parse_int(fields[6], "fix_quality") if fields[6] else 0
    if fields[2] or fields[3] or quality > 0:
        lat = parse_coordinate(fields[2], fields[3], "latitude")
        lon = parse_coordinate(fields[4], fields[5], "longitude")
    else:
        lat = lon = None
    num_sats = parse_int(fields[7], "num_sats") if fields[7] else 0
    hdop = parse_float(fields[8], "hdop") if fields[8] else None
    alt = parse_float(fields[9], "alt_m") if fields[9] else None
    # A fix that fails the range checks still counts as the time of day it
    # carried for the midnight rollover.
    timestamp = ctx.resolve(tod)
    check_fix(lat, lon, quality, num_sats, hdop)
    return GpsFix(timestamp, lat, lon, alt, quality, num_sats, hdop)


def parse_date_sentence(fields: list[str], sentence: str) -> int:
    """Epoch milliseconds of the UTC day a ZDA (else RMC) field list reports."""
    if sentence == "ZDA":
        _require_fields(fields, 5, "ZDA")
        day, month, year = fields[2], fields[3], fields[4]
        if _NUMBER_NOISE(day + month + year):
            raise ParseError(f"malformed ZDA date: {day!r},{month!r},{year!r}", "date")
    else:
        _require_fields(fields, 10, "RMC")
        match = _RMC_DATE_RE.match(fields[9])
        if not match:
            raise ParseError(f"malformed RMC date: {fields[9]!r}", "date")
        day, month, year2 = map(int, match.groups())
        year = 1900 + year2 if year2 >= 80 else 2000 + year2
    try:
        return day_ms(date(int(year), int(month), int(day)))
    except ValueError as exc:
        raise ParseError(f"malformed {sentence} date: {exc}", "date") from None


def loran_values(gri, role, toa, snr, ecd) -> tuple[int, str, float, float, float]:
    """A Loran observation's values, from text (or numbers), checked in
    field order; ``ParseError`` naming the first field that fails.  Four
    clean texts of finite numbers, as a receiver writes, convert at once;
    anything else converts field by field, each after the checks before it."""
    try:  # '+' raises TypeError unless all four are texts
        if _NUMBER_NOISE(gri + toa + snr + ecd):
            raise ValueError
        numbers = int(gri), float(toa), float(snr), float(ecd)
        each = not math.isfinite(numbers[1] + numbers[2] + numbers[3])
    except (TypeError, ValueError):
        each = True
    if each:
        gri = parse_int(gri, "gri")
    else:
        gri, toa, snr, ecd = numbers
    if not GRI_MIN <= gri <= GRI_MAX:
        raise ParseError(f"GRI designator out of range: {gri}", "gri")
    if role not in STATION_ROLES:
        raise ParseError(f"unknown station role: {role!r}", "station_role")
    if each:
        toa = parse_float(toa, "toa_us")
    if not 0.0 <= toa < gri * 10:
        raise ParseError(f"toa_us outside GRI frame: {toa}", "toa_us")
    if each:
        snr, ecd = parse_float(snr, "snr_db"), parse_float(ecd, "ecd_us")
    return gri, role, toa, snr, ecd


def gps_values(lat, lon, alt, quality, sats, hdop) -> tuple:
    """A fix's values as an export holds them, from text (``""`` for none)
    or numbers, checked by :func:`check_fix`; ``ParseError`` if not."""
    lat, lon, alt = _optional(lat, "lat_deg"), _optional(lon, "lon_deg"), _optional(alt, "alt_m")
    quality, sats = parse_int(quality, "fix_quality"), parse_int(sats, "num_sats")
    hdop = _optional(hdop, "hdop")
    check_fix(lat, lon, quality, sats, hdop)
    return lat, lon, alt, quality, sats, hdop


def _optional(value, name: str) -> float | None:
    return None if value is None or value == "" else parse_float(value, name)


def parse_loran(fields: list[str], ctx: DateContext) -> LoranMeasurement:
    """Parse a comma-split ``$PLRM`` sentence (header at index 0)."""
    if len(fields) != 7:
        raise ParseError(f"PLRM needs 7 fields, got {len(fields)}", "field-count")
    tod = parse_tod(fields[1])
    values = loran_values(*fields[2:])
    return LoranMeasurement(ctx.resolve(tod), *values)


# --- batch parsing of classified stores ------------------------------------


class ParsedSegment(NamedTuple):
    """One segment's record stores, parsed as they are read.

    *stores* are the GGA stores in glob order, then ``P_LRM``, each a lazy
    iterator of its records in line order, and *names* their file names.
    *issues* are lists of :class:`ParseIssue`: one per GGA store, the date
    stores', then ``P_LRM``'s; a store's list fills as it is read."""

    names: list[str]
    stores: list[Iterator[GpsFix | LoranMeasurement]]
    issues: list[list[ParseIssue]]

    @property
    def errors(self) -> list[ParseIssue]:
        """The issues found so far: the GGA stores', the date stores', then
        ``P_LRM``'s, each in line order."""
        return [issue for issues in self.issues for issue in issues]


def split_sentence(raw: str) -> list[str]:
    """Comma-split a sentence with any trailing ``*hh`` checksum removed."""
    star = raw.rfind("*")
    if star != -1 and len(raw) - star == 3:
        raw = raw[:star]
    return raw.split(",")


def _class_files(classified_dir: Path) -> dict[str, list[Path]]:
    """The standard-sentence stores, grouped by sentence code."""
    groups: dict[str, list[Path]] = {}
    for path in sorted(classified_dir.glob("?????.txt")):
        if path.stem.isalpha() and path.stem.isupper():
            groups.setdefault(path.stem[2:], []).append(path)
    return groups


def _parse_store(path: Path, parse, errors: list[ParseIssue]) -> Iterator:
    """Yield ``parse(fields)`` of each line of the store at *path*, in line
    order; a ``ParseError`` becomes a :class:`ParseIssue` in *errors*."""
    with open(path, "rb") as handle:
        for line_number, raw_bytes in enumerate(handle, start=1):
            raw = raw_bytes.rstrip(b"\r\n").decode("latin-1")
            try:
                record = parse(split_sentence(raw))
            except ParseError as exc:
                errors.append(ParseIssue(path.name, line_number, str(exc), exc.field_name, raw))
            else:
                yield record


def parse_classified(
    classified_dir: Path,
    fallback_date: date | None = None,
    open_time: int | None = None,
) -> ParsedSegment:
    """Read the date stores under *classified_dir* and return its GGA and
    ``P_LRM`` stores, to be parsed as they are read.

    The anchor is the earliest instant the ZDA/RMC stores report, else
    *open_time* (the epoch milliseconds the segment opened at), else noon
    of *fallback_date*; with none, ValueError (a configuration problem,
    unlike per-line errors, which are collected in the result).
    """
    classified_dir = Path(classified_dir)
    groups = _class_files(classified_dir)
    reported = array("q")
    date_errors: list[ParseIssue] = []
    for sentence in ("ZDA", "RMC"):
        for path in groups.get(sentence, []):
            reported.extend(_parse_store(
                path, lambda f, s=sentence: parse_date_sentence(f, s) + parse_tod(f[1]),
                date_errors))
    reported = array("q", sorted(reported))
    if reported:
        anchor = reported[0]
    elif open_time is not None:
        anchor = open_time
    elif fallback_date is not None:
        anchor = day_ms(fallback_date) + _HALF_DAY_MS
    else:
        raise ValueError(
            f"no date sentence in {classified_dir} and no fallback date configured"
        )
    holes = [(a, b) for a, b in zip(reported, reported[1:]) if b - a >= _HALF_DAY_MS]

    gga = groups.get("GGA", [])
    stores = [(path, parse_gga) for path in gga]
    loran_store = classified_dir / "P_LRM.txt"
    if loran_store.exists():
        stores.append((loran_store, parse_loran))
    issues: list[list[ParseIssue]] = [[] for _ in stores]
    return ParsedSegment(
        names=[path.name for path, _ in stores],
        stores=[_parse_store(path, lambda f, parse=parse, ctx=DateContext(anchor, holes):
                             parse(f, ctx), errors)
                for (path, parse), errors in zip(stores, issues)],
        issues=[*issues[:len(gga)], date_errors, *issues[len(gga):]],
    )
