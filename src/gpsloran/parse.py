"""Decode classified receiver sentences into typed GPS and Loran records.

Sentences carry a UTC time of day but (mostly) no date, so parsing threads
a :class:`DateContext` through each line store: the context is seeded from
the first date-bearing sentence (ZDA or RMC) in the segment, or from a
configured fallback date, and advances across midnight when the time of
day wraps.

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
    parsed only for their date fields (ZDA: day,month,year at 2,3,4;
    RMC: ddmmyy at field 9) to maintain the date context.

``$PLRM`` (proprietary Loran observation, one sentence per station)
    ``$PLRM,<hhmmss.sss>,<gri>,<role>,<toa_us>,<snr_db>,<ecd_us>*hh``
    where ``gri`` is the 4-digit group repetition interval designator
    (interval = designator x 10 microseconds), ``role`` is a station
    letter in {M, V, W, X, Y, Z}, ``toa_us`` the time of arrival within
    the GRI frame, ``snr_db`` the signal-to-noise ratio, and ``ecd_us``
    the envelope-to-cycle difference.  Additional proprietary grammars
    register in :data:`PROPRIETARY_PARSERS` without touching the batch
    driver.

Malformed lines never abort a batch: each one becomes a structured
:class:`ParseIssue` and parsing continues, so a day-long unattended run
survives corrupt input.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import Callable

from .timeutil import UTC, ensure_utc

STATION_ROLES = frozenset("MVWXYZ")
GRI_MIN = 4000
GRI_MAX = 9999

_TOD_RE = re.compile(r"^(\d{2})(\d{2})(\d{2})(?:\.(\d{1,3}))?$")
_COORD_RE = re.compile(r"^(\d{4,5})\.(\d+)$")
_RMC_DATE_RE = re.compile(r"^(\d{2})(\d{2})(\d{2})$")

# Sentences whose only contribution is the date context.
DATE_SENTENCES = ("ZDA", "RMC")


class ParseError(ValueError):
    """A single malformed sentence, naming the offending field."""

    def __init__(self, message: str, field_name: str | None = None):
        super().__init__(message)
        self.field_name = field_name


@dataclass(frozen=True)
class GpsFix:
    """One GGA fix.  ``fix_quality == 0`` marks a no-fix record whose
    position fields are None; such records are excluded from position
    statistics but kept in the timeline."""

    timestamp: datetime
    lat: float | None
    lon: float | None
    alt_m: float | None
    fix_quality: int
    num_sats: int
    hdop: float | None
    source_line: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.lat is not None and not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if self.lon is not None and not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")
        if self.fix_quality < 0:
            raise ValueError(f"fix_quality must be non-negative: {self.fix_quality}")
        if self.num_sats < 0:
            raise ValueError(f"num_sats must be non-negative: {self.num_sats}")
        if self.hdop is not None and self.hdop < 0:
            raise ValueError(f"hdop must be non-negative: {self.hdop}")
        if self.fix_quality > 0 and (self.lat is None or self.lon is None):
            raise ValueError("positive fix_quality requires a position")

    @property
    def no_fix(self) -> bool:
        return self.fix_quality == 0


@dataclass(frozen=True)
class LoranMeasurement:
    """One Loran station observation from a ``$PLRM`` sentence."""

    timestamp: datetime
    gri: int
    station_role: str
    toa_us: float
    snr_db: float
    ecd_us: float
    source_line: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not GRI_MIN <= self.gri <= GRI_MAX:
            raise ValueError(f"GRI designator out of range: {self.gri}")
        if self.station_role not in STATION_ROLES:
            raise ValueError(f"unknown station role: {self.station_role!r}")
        if not 0.0 <= self.toa_us < self.gri * 10:
            raise ValueError(f"toa_us outside GRI frame: {self.toa_us}")

    @property
    def station(self) -> str:
        """Designator string, e.g. ``9930M``."""
        return f"{self.gri}{self.station_role}"


@dataclass
class ParseIssue:
    """One skipped line, with provenance into its classified store."""

    source_file: str
    line_number: int
    message: str
    field_name: str | None = None
    raw: str = ""


class DateContext:
    """Tracks the current UTC date while times of day stream past.

    ``resolve`` combines a time of day with the current date, advancing
    the date by one day when the time of day jumps back more than 12
    hours (midnight rollover).  The date never regresses within a
    context's lifetime.
    """

    def __init__(self, current_date: date, source: str):
        self.current_date = current_date
        self.source = source
        self.last_tod: time | None = None

    def observe_date(self, day: date, source: str) -> None:
        """Adopt an explicitly reported date, but never move backwards."""
        if day > self.current_date:
            self.current_date = day
            self.source = source
            self.last_tod = None

    def resolve(self, tod: time) -> datetime:
        if self.last_tod is not None:
            jump = _tod_seconds(tod) - _tod_seconds(self.last_tod)
            if jump < -12 * 3600:
                self.current_date += timedelta(days=1)
        self.last_tod = tod
        return datetime.combine(self.current_date, tod, tzinfo=UTC)


def _tod_seconds(tod: time) -> float:
    return tod.hour * 3600 + tod.minute * 60 + tod.second + tod.microsecond / 1e6


def parse_tod(value: str) -> time:
    """Parse ``hhmmss`` with up to three fractional digits."""
    match = _TOD_RE.match(value)
    if not match:
        raise ParseError(f"malformed time of day: {value!r}", "time")
    hour, minute, second = int(match.group(1)), int(match.group(2)), int(match.group(3))
    fraction = (match.group(4) or "").ljust(3, "0")
    if hour > 23 or minute > 59 or second > 59:
        raise ParseError(f"time of day out of range: {value!r}", "time")
    return time(hour, minute, second, int(fraction) * 1000)


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
    """*value* as a finite float; ``ParseError`` naming *field_name* if not."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"malformed {field_name}: {value!r}", field_name) from None
    if not math.isfinite(number):
        raise ParseError(f"non-finite {field_name}: {value!r}", field_name)
    return number


def parse_int(value: str, field_name: str) -> int:
    """*value* as an int; ``ParseError`` naming *field_name* if not."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"malformed {field_name}: {value!r}", field_name) from None


def parse_gga(fields: list[str], ctx: DateContext, source_line: int | None = None) -> GpsFix:
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
    try:
        return GpsFix(
            timestamp=ctx.resolve(tod),
            lat=lat,
            lon=lon,
            alt_m=alt,
            fix_quality=quality,
            num_sats=num_sats,
            hdop=hdop,
            source_line=source_line,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_date_sentence(fields: list[str], sentence: str) -> date:
    """Extract the UTC calendar date from a ZDA or RMC field list."""
    try:
        if sentence == "ZDA":
            _require_fields(fields, 5, "ZDA")
            return date(int(fields[4]), int(fields[3]), int(fields[2]))
        if sentence == "RMC":
            _require_fields(fields, 10, "RMC")
            match = _RMC_DATE_RE.match(fields[9])
            if not match:
                raise ParseError(f"malformed RMC date: {fields[9]!r}", "date")
            day, month, year2 = int(match.group(1)), int(match.group(2)), int(match.group(3))
            year = 1900 + year2 if year2 >= 80 else 2000 + year2
            return date(year, month, day)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"malformed {sentence} date: {exc}", "date") from None
    raise ParseError(f"not a date sentence: {sentence}", "sentence")


def parse_loran(
    fields: list[str], ctx: DateContext, source_line: int | None = None
) -> LoranMeasurement:
    """Parse a comma-split ``$PLRM`` sentence (header at index 0)."""
    if len(fields) != 7:
        raise ParseError(f"PLRM needs 7 fields, got {len(fields)}", "field-count")
    tod = parse_tod(fields[1])
    gri = parse_int(fields[2], "gri")
    if not GRI_MIN <= gri <= GRI_MAX:
        raise ParseError(f"GRI designator out of range: {gri}", "gri")
    role = fields[3]
    if role not in STATION_ROLES:
        raise ParseError(f"unknown station role: {role!r}", "station_role")
    toa = parse_float(fields[4], "toa_us")
    if not 0.0 <= toa < gri * 10:
        raise ParseError(f"toa_us outside GRI frame: {toa}", "toa_us")
    snr = parse_float(fields[5], "snr_db")
    ecd = parse_float(fields[6], "ecd_us")
    return LoranMeasurement(
        timestamp=ctx.resolve(tod),
        gri=gri,
        station_role=role,
        toa_us=toa,
        snr_db=snr,
        ecd_us=ecd,
        source_line=source_line,
    )


# Registry of proprietary vendor tags this pipeline can decode.  Adding a
# grammar means adding a parse function and one entry here.
PROPRIETARY_PARSERS: dict[str, Callable[[list[str], DateContext, int | None], LoranMeasurement]] = {
    "LRM": parse_loran,
}


# --- serialization ---------------------------------------------------------
#
# serialize() is the exact inverse of the parsers above at the declared
# field precisions (coordinates: 4 decimal minutes; times: milliseconds;
# TOA/SNR/ECD: 1 decimal; HDOP: 2 decimals; altitude: 1 decimal).  The
# quantize_* helpers snap a value onto that grid, defined as
# parse(format(x)) so quantized values round-trip bit-exactly.


def _coordinate_parts(magnitude: float) -> tuple[int, str]:
    degrees = int(magnitude)
    minutes = f"{(magnitude - degrees) * 60.0:07.4f}"
    if minutes == "60.0000":
        degrees += 1
        minutes = "00.0000"
    return degrees, minutes


def format_coordinate(value: float, axis: str) -> tuple[str, str]:
    """Encode signed degrees as an NMEA field pair; zero maps to N/E."""
    if axis == "lat":
        hemisphere = "N" if value >= 0 else "S"
        width = 2
    else:
        hemisphere = "E" if value >= 0 else "W"
        width = 3
    degrees, minutes = _coordinate_parts(abs(value))
    return f"{degrees:0{width}d}{minutes}", hemisphere


def quantize_coordinate(value: float, axis: str = "lat") -> float:
    """Snap degrees onto the 4-decimal-minutes serialization grid."""
    text, hemisphere = format_coordinate(value, axis)
    return parse_coordinate(text, hemisphere, axis)


def quantize_decimal(value: float, decimals: int = 1) -> float:
    """Snap onto a fixed-decimal grid, exactly as serialized and reparsed."""
    return float(f"{value:.{decimals}f}")


def format_tod(moment: datetime) -> str:
    return f"{moment:%H%M%S}.{moment.microsecond // 1000:03d}"


def _with_checksum(body: str) -> bytes:
    payload = body.encode("ascii")
    fold = 0
    for byte in payload:
        fold ^= byte
    return b"$" + payload + f"*{fold:02X}".encode("ascii")


def serialize(record: GpsFix | LoranMeasurement) -> bytes:
    """Render a record as a checksummed sentence (without line terminator).

    ``parse(serialize(r)) == r`` whenever ``r``'s fields already sit on
    the serialization grid (see the quantize helpers).
    """
    if isinstance(record, GpsFix):
        if record.no_fix and record.lat is None:
            lat_text = ns = lon_text = ew = ""
        else:
            lat_text, ns = format_coordinate(record.lat, "lat")
            lon_text, ew = format_coordinate(record.lon, "lon")
        hdop = "" if record.hdop is None else f"{record.hdop:.2f}"
        alt = "" if record.alt_m is None else f"{record.alt_m:.1f}"
        body = (
            f"GPGGA,{format_tod(record.timestamp)},{lat_text},{ns},{lon_text},{ew},"
            f"{record.fix_quality},{record.num_sats:02d},{hdop},{alt},M,,M,,"
        )
        return _with_checksum(body)
    if isinstance(record, LoranMeasurement):
        body = (
            f"PLRM,{format_tod(record.timestamp)},{record.gri},{record.station_role},"
            f"{record.toa_us:.1f},{record.snr_db:.1f},{record.ecd_us:.1f}"
        )
        return _with_checksum(body)
    raise TypeError(f"cannot serialize {type(record).__name__}")


def serialize_zda(moment: datetime, talker: str = "GP") -> bytes:
    """Render a ZDA date/time sentence for *moment* (UTC)."""
    body = (
        f"{talker}ZDA,{format_tod(moment)},{moment.day:02d},{moment.month:02d},"
        f"{moment.year:04d},00,00"
    )
    return _with_checksum(body)


# --- batch parsing of classified stores ------------------------------------


@dataclass
class ParsedSegment:
    """Everything parse_classified() extracted from one segment."""

    gps: list[GpsFix]
    loran: list[LoranMeasurement]
    errors: list[ParseIssue]
    seed_date: date | None
    date_source: str


def split_sentence(raw: str) -> list[str]:
    """Comma-split a sentence with any trailing ``*hh`` checksum removed."""
    star = raw.rfind("*")
    if star != -1 and len(raw) - star == 3:
        raw = raw[:star]
    return raw.split(",")


def _first_date(path: Path, sentence: str) -> date | None:
    with open(path, "rb") as handle:
        for raw in handle:
            fields = split_sentence(raw.rstrip(b"\r\n").decode("latin-1"))
            try:
                return parse_date_sentence(fields, sentence)
            except ParseError:
                continue
    return None


def _first_tod(path: Path) -> time | None:
    """Time of day of the first parsable line in a store (all supported
    sentences carry it at field 1)."""
    with open(path, "rb") as handle:
        for raw in handle:
            fields = split_sentence(raw.rstrip(b"\r\n").decode("latin-1"))
            if len(fields) > 1:
                try:
                    return parse_tod(fields[1])
                except ParseError:
                    continue
    return None


def _class_files(classified_dir: Path) -> dict[str, list[Path]]:
    """Group the class stores we parse: sentence code or ``P_<tag>`` key."""
    groups: dict[str, list[Path]] = {}
    for path in sorted(classified_dir.glob("*.txt")):
        stem = path.stem
        if stem.startswith("P_") and len(stem) > 2:
            groups.setdefault(stem, []).append(path)
        elif len(stem) == 5 and stem.isalpha() and stem.isupper():
            groups.setdefault(stem[2:], []).append(path)
    return groups


def parse_classified(
    classified_dir: Path,
    fallback_date: date | None = None,
    open_time: datetime | None = None,
) -> ParsedSegment:
    """Parse every supported class store under *classified_dir*.

    The date context seeds from the earliest date carried by the
    segment's ZDA/RMC stores, else *fallback_date*, else the date of
    *open_time*; raises ValueError if none exists (a configuration
    problem, unlike per-line errors, which are collected in the result).
    Each class store gets its own context seeded from that date, since
    each store is in receiver order and crosses midnight at most once
    per day of capture.

    *open_time* is the instant the segment started (for live captures,
    the segment open timestamp).  When given, it anchors the rollover
    window before the first line: a store whose first time of day sits
    more than 12 h ahead of the open time is data buffered from the
    previous day, so a fallback seed shifts back one day, and a first
    time of day more than 12 h behind the open time rolls the date
    forward through the usual midnight rule.  Without it, the first
    line's time of day is taken at face value against the seed date.
    """
    classified_dir = Path(classified_dir)
    groups = _class_files(classified_dir)

    seed: date | None = None
    date_source = "configured-start-date"
    for sentence in DATE_SENTENCES:
        for path in groups.get(sentence, []):
            found = _first_date(path, sentence)
            if found is not None and (seed is None or found < seed):
                seed = found
                date_source = sentence
    seeded_from_fallback = False
    if seed is None:
        if fallback_date is not None:
            seed = fallback_date
        elif open_time is not None:
            seed = ensure_utc(open_time).date()
            date_source = "segment-open-time"
        else:
            raise ValueError(
                f"no date sentence in {classified_dir} and no fallback date configured"
            )
        seeded_from_fallback = True

    gps: list[GpsFix] = []
    loran: list[LoranMeasurement] = []
    errors: list[ParseIssue] = []
    open_tod = ensure_utc(open_time).time() if open_time is not None else None

    def parse_store(path: Path, handler) -> None:
        store_seed = seed
        if seeded_from_fallback and open_tod is not None:
            first = _first_tod(path)
            if first is not None and _tod_seconds(first) - _tod_seconds(open_tod) > 12 * 3600.0:
                store_seed = store_seed - timedelta(days=1)
        ctx = DateContext(store_seed, date_source)
        if open_tod is not None:
            ctx.last_tod = open_tod
        with open(path, "rb") as handle:
            for line_number, raw_bytes in enumerate(handle, start=1):
                raw = raw_bytes.rstrip(b"\r\n").decode("latin-1")
                try:
                    handler(split_sentence(raw), ctx, line_number)
                except ParseError as exc:
                    errors.append(
                        ParseIssue(
                            source_file=path.name,
                            line_number=line_number,
                            message=str(exc),
                            field_name=exc.field_name,
                            raw=raw,
                        )
                    )

    for path in groups.get("GGA", []):
        parse_store(path, lambda f, ctx, n: gps.append(parse_gga(f, ctx, n)))

    for sentence in DATE_SENTENCES:
        for path in groups.get(sentence, []):
            parse_store(
                path,
                lambda f, ctx, n, s=sentence: ctx.observe_date(parse_date_sentence(f, s), s),
            )

    for key, paths in groups.items():
        if not key.startswith("P_"):
            continue
        handler = PROPRIETARY_PARSERS.get(key[2:])
        if handler is None:
            continue
        for path in paths:
            parse_store(path, lambda f, ctx, n, h=handler: loran.append(h(f, ctx, n)))

    return ParsedSegment(
        gps=gps, loran=loran, errors=errors, seed_date=seed, date_source=date_source
    )
