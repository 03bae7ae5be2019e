"""Merge parsed records into one timestamp-sorted timeline and export it.

The merged timeline orders records by (timestamp, GPS before Loran,
arrival order) - a deterministic total order, so identical inputs always
export byte-identical files.  GPS wins ties because it is the reference
truth an analysis reads first.

Records carry integer UTC epoch milliseconds, so sorting, gap finding and
the manifest work on ints; each distinct instant is formatted to text once
on export, and each run of equal timestamp texts read back to an int once.

Export schemas (fixed column order, timestamps as ISO 8601 UTC with
milliseconds, floats in shortest round-trip form):

- ``timeline_gps``:   timestamp, lat_deg, lon_deg, alt_m, fix_quality,
  num_sats, hdop
- ``timeline_loran``: timestamp, gri, station_role, toa_us, snr_db, ecd_us
- ``timeline_all``:   timestamp, record_type, then the sparse union of
  the above

Two formats: ``columns`` (CSV) and ``lines`` (one JSON object per line).
A ``manifest.json`` records counts, time span, per-file digests, and the
list of gaps longer than the gap threshold.
"""
from __future__ import annotations

import csv
import json
import math
import re
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import ExitStack
from dataclasses import dataclass
from operator import add, attrgetter, itemgetter, le
from pathlib import Path

from .fsutil import AtomicWriter, atomic_write_json
from .parse import (STATION_ROLES, GpsFix, LoranMeasurement, check_fix, loran_values,
                    parse_float, parse_int)
from .timeutil import iso_ms, parse_iso_ms

GPS_TYPE = "gps_fix"
LORAN_TYPE = "loran"

GPS_COLUMNS = ("timestamp", "lat_deg", "lon_deg", "alt_m", "fix_quality", "num_sats", "hdop")
LORAN_COLUMNS = ("timestamp", "gri", "station_role", "toa_us", "snr_db", "ecd_us")
ALL_COLUMNS = ("timestamp", "record_type") + GPS_COLUMNS[1:] + LORAN_COLUMNS[1:]

FORMAT_EXTENSIONS = {"columns": "csv", "lines": "jsonl"}

DEFAULT_GAP_THRESHOLD_S = 300.0

MANIFEST_NAME = "manifest.json"

_ISO_MS_TEXT = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z", re.ASCII)  # as iso_ms writes


Record = GpsFix | LoranMeasurement


def merge_sort(gps: list[GpsFix], loran: list[LoranMeasurement]) -> list[Record]:
    """Merge both record streams into one timeline sorted by timestamp.

    The sort is stable and GPS comes first in its input, so ties at equal
    timestamps break GPS-before-Loran, then by arrival order within each
    stream; the result is a stable total order.
    """
    return sorted([*gps, *loran], key=attrgetter("timestamp"))


# --- export -----------------------------------------------------------------

# Per record type: its values in column order, their JSON keys, the cells
# around them in a timeline_all CSV row, its record_type JSON member, and
# the index of the station role, the one value JSON quotes.
_GPS_LAYOUT = (
    attrgetter("lat", "lon", "alt_m", "fix_quality", "num_sats", "hdop"),
    tuple(f',"{name}":' for name in GPS_COLUMNS[1:]),
    f",{GPS_TYPE},", "," * (len(LORAN_COLUMNS) - 1), f'","record_type":"{GPS_TYPE}"', None,
)
_LORAN_LAYOUT = (
    attrgetter("gri", "station_role", "toa_us", "snr_db", "ecd_us"),
    tuple(f',"{name}":' for name in LORAN_COLUMNS[1:]),
    f",{LORAN_TYPE}" + "," * len(GPS_COLUMNS), "", f'","record_type":"{LORAN_TYPE}"',
    LORAN_COLUMNS.index("station_role") - 1,
)
_JSON_ROLES = {role: json.dumps(role) for role in STATION_ROLES}
_EXPORT_FILES = {fmt: [f"timeline_{kind}.{ext}" for kind in ("gps", "loran", "all")]
                 for fmt, ext in FORMAT_EXTENSIONS.items()}
_BLOCK_RECORDS = 1024  # records rendered between two writes to each file


def _render_blocks(timeline: list[Record], formats: tuple[str, ...]):
    """Yield ``{file name: text}`` of all six export files, a block of
    records at a time.  Each distinct timestamp is formatted once and each
    value converted with ``str()`` once (``None`` is an empty CSV cell and
    a JSON ``null``); every file is built from those texts.  Parsing admits
    finite numbers only, so ``str()`` of a number is its JSON text."""
    columns = "columns" in formats
    lines = "lines" in formats
    instant = stamp = None
    for start in range(0, len(timeline), _BLOCK_RECORDS):
        gps_csv, loran_csv, all_csv, gps_json, loran_json, all_json = [], [], [], [], [], []
        for record in timeline[start : start + _BLOCK_RECORDS]:
            if record.timestamp != instant:
                instant = record.timestamp
                stamp = iso_ms(instant)
            if isinstance(record, GpsFix):
                values, keys, all_head, all_tail, json_type, role = _GPS_LAYOUT
                own_csv, own_json = gps_csv, gps_json
            else:
                values, keys, all_head, all_tail, json_type, role = _LORAN_LAYOUT
                own_csv, own_json = loran_csv, loran_json
            texts = [None if value is None else str(value) for value in values(record)]
            complete = None not in texts
            if columns:
                row = ",".join(texts) if complete else ",".join([text or "" for text in texts])
                own_csv.append(f"{stamp},{row}\n")
                all_csv.append(f"{stamp}{all_head}{row}{all_tail}\n")
            if lines:
                if role is not None:
                    texts[role] = _JSON_ROLES[texts[role]]
                if complete:
                    members = sparse = "".join(map(add, keys, texts))
                else:
                    members = "".join([key + (text or "null") for key, text in zip(keys, texts)])
                    sparse = "".join([key + text for key, text in zip(keys, texts) if text])
                own_json.append(f'{{"timestamp":"{stamp}"{members}}}\n')
                all_json.append(f'{{"timestamp":"{stamp}{json_type}{sparse}}}\n')
        rendered = map("".join, (gps_csv, loran_csv, all_csv, gps_json, loran_json, all_json))
        yield dict(zip(_EXPORT_FILES["columns"] + _EXPORT_FILES["lines"], rendered))


def export_formats(formats: str | tuple[str, ...] | list[str]) -> tuple[str, ...]:
    """Validate export format names; each comes back once, in first-named order.

    A single name may be given alone.  Raises ``ValueError`` on anything
    that is not a key of ``FORMAT_EXTENSIONS``.
    """
    if not isinstance(formats, (list, tuple)):
        formats = (formats,)
    for fmt in formats:
        if not isinstance(fmt, str) or fmt not in FORMAT_EXTENSIONS:
            raise ValueError(f"unknown export format: {fmt!r}")
    return tuple(dict.fromkeys(formats))


def export(
    timeline: list[Record],
    formats: tuple[str, ...] | str,
    out_dir: Path,
    *,
    session_id: str = "",
    parse_errors: int = 0,
    quarantined: int = 0,
    gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S,
) -> dict:
    """Write timeline exports plus ``manifest.json`` into *out_dir*.

    Deterministic: the same timeline always produces byte-identical
    files.  All files are streamed to disk in one pass over the timeline,
    each hashed as it is written.  On any failure every file this call
    made, final or temporary, is removed, so a directory never holds a
    partial export set.  Returns the manifest payload.
    """
    formats = export_formats(formats)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    writers: dict[str, AtomicWriter] = {}
    with ExitStack() as stack:  # a failure discards every writer
        for fmt in formats:
            for name, header in zip(_EXPORT_FILES[fmt], (GPS_COLUMNS, LORAN_COLUMNS, ALL_COLUMNS)):
                writers[name] = writer = stack.enter_context(AtomicWriter(out_dir / name))
                if fmt == "columns":
                    writer.write((",".join(header) + "\n").encode("utf-8"))
        for block in _render_blocks(timeline, formats):
            for name, writer in writers.items():
                writer.write(block[name].encode("utf-8"))
        digests = {name: writer.commit() for name, writer in writers.items()}

    summary = summarize(SummaryFold(timeline), (r.timestamp for r in timeline), gap_threshold_s)
    station_counts = {key: stats.count for key, stats in sorted(summary.stations.items())}
    manifest = {
        "session_id": session_id,
        "time_span": None
        if summary.time_span is None
        else {"first": iso_ms(summary.time_span[0]), "last": iso_ms(summary.time_span[1])},
        "record_counts": {
            "gps_fix": summary.gps_fix_count + summary.no_fix_count,
            "loran": sum(station_counts.values()),
            "loran_by_station": station_counts,
            "parse_errors": parse_errors,
            "quarantined": quarantined,
        },
        "export_files": [
            {"path": name, "format": fmt, "digest": digests[name]}
            for fmt in formats
            for name in _EXPORT_FILES[fmt]
        ],
        "gap_threshold_s": gap_threshold_s,
        "gap_list": [
            {"start": iso_ms(start), "end": iso_ms(end)} for start, end in summary.gaps
        ],
    }
    atomic_write_json(out_dir / MANIFEST_NAME, manifest)
    return manifest


# --- import readers ---------------------------------------------------------


def read_gps_export(path: Path, emit: Callable[[GpsFix, str], object]) -> array:
    """Read a ``timeline_gps`` export (either format); see :func:`_read_export`."""
    return _read_export(Path(path), GPS_COLUMNS, _gps_fix, emit)


def read_loran_export(path: Path, emit: Callable[[LoranMeasurement, str], object]) -> array:
    """Read a ``timeline_loran`` export (either format); see :func:`_read_export`."""
    return _read_export(Path(path), LORAN_COLUMNS, _loran_measurement, emit)


def _gps_fix(timestamp, lat, lon, alt, quality, sats, hdop) -> GpsFix:
    lat, lon, alt = _optional(lat, "lat_deg"), _optional(lon, "lon_deg"), _optional(alt, "alt_m")
    quality, sats = parse_int(quality, "fix_quality"), parse_int(sats, "num_sats")
    hdop = _optional(hdop, "hdop")
    check_fix(lat, lon, quality, sats, hdop)
    return GpsFix(timestamp, lat, lon, alt, quality, sats, hdop)


def _loran_measurement(timestamp, gri, role, toa, snr, ecd) -> LoranMeasurement:
    return LoranMeasurement(timestamp, *loran_values(gri, role, toa, snr, ecd))


def _optional(value, name: str) -> float | None:
    return None if value is None or value == "" else parse_float(value, name)


def _read_export(path: Path, columns: tuple[str, ...], build, emit) -> array:
    """Read an export file once: a CSV row's values by the header's column
    positions, a JSON line's by member name (an absent one is ``None``).
    *build* makes a record from them in *columns* order and hands it to
    *emit* with its timestamp as ``iso_ms`` text, the file's own text where
    it has that form; a run of equal texts is parsed once.  Returns the
    file's timestamps in time order.  A malformed file raises ``ValueError``
    naming the file and the line."""
    stamps = array("q")
    line_number = 0  # the line last read, which an error names

    def numbered(handle):
        nonlocal line_number
        for line_number, line in enumerate(handle, 1):
            yield line

    def records():  # only the file's own faults are named by file and line
        text = instant = stamp = object()  # no row's timestamp
        rows = _json_rows if path.suffix == ".jsonl" else _csv_rows
        with open(path, "r", encoding="utf-8", newline="") as handle:
            try:
                for row in rows(numbered(handle), columns):
                    if row[0] != text:
                        text, instant = row[0], parse_iso_ms(row[0])
                        stamp = text if _ISO_MS_TEXT.fullmatch(text) else iso_ms(instant)
                    stamps.append(instant)
                    yield build(instant, *row[1:]), stamp
            except (TypeError, ValueError, csv.Error) as exc:
                raise ValueError(f"{path}:{line_number}: {exc}") from None

    for record, stamp in records():
        emit(record, stamp)
    return stamps if all(map(le, stamps, stamps[1:])) else array("q", sorted(stamps))


def _csv_rows(lines, columns: tuple[str, ...]):
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        return
    if missing := [name for name in columns if name not in header]:
        raise ValueError(f"header lacks column {missing[0]!r}")
    pick = itemgetter(*map(header.index, columns))
    for row in reader:
        if len(row) == len(header):
            yield pick(row)
        elif row:
            raise ValueError(f"{len(row)} cells, header has {len(header)}")


def _json_rows(lines, columns: tuple[str, ...]):
    for line in lines:
        if line.strip():
            row = json.loads(line)
            if not isinstance(row, dict):
                raise ValueError("not a JSON object")
            yield list(map(row.get, columns))


# --- summary statistics -----------------------------------------------------


@dataclass
class StationStats:
    count: int
    min_snr: float
    mean_snr: float
    max_snr: float


@dataclass
class SessionSummary:
    total_records: int
    gps_fix_count: int
    no_fix_count: int
    bbox: tuple[float, float, float, float] | None
    stations: dict[str, StationStats]
    time_span: tuple[int, int] | None
    gaps: list[tuple[int, int]]


class SummaryFold:
    """The order-free part of a summary, folded a record at a time: record
    counts, the fixes' bounding box and each station's SNR values (8 bytes
    each)."""

    def __init__(self, records: Iterable[Record] = ()) -> None:
        self.fixes = self.no_fix = 0
        self.bbox: tuple[float, float, float, float] | None = None
        self.snr: dict[str, array] = defaultdict(lambda: array("d"))
        for record in records:
            self.add(record)

    def add(self, record: Record) -> None:
        if isinstance(record, LoranMeasurement):
            self.snr[record.station].append(record.snr_db)
        elif record.no_fix:
            self.no_fix += 1
        else:
            self.fixes += 1
            lat, lon = record.lat, record.lon
            lat_min, lat_max, lon_min, lon_max = self.bbox or (lat, lat, lon, lon)
            self.bbox = (min(lat_min, lat), max(lat_max, lat), min(lon_min, lon), max(lon_max, lon))


def summarize(fold: SummaryFold, stamps: Iterator[int],
              gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S) -> SessionSummary:
    """Per-station SNR stats, GPS fix count/bounding box (no-fix records
    excluded) from *fold*, and the overall time span and the gaps longer
    than the threshold from *stamps*, the same records' timestamps in time
    order, as pairs of epoch milliseconds."""
    first = last = next(stamps, None)
    gaps = []
    for stamp in stamps:
        if (stamp - last) / 1000 > gap_threshold_s:
            gaps.append((last, stamp))
        last = stamp
    return SessionSummary(
        total_records=fold.fixes + fold.no_fix + sum(map(len, fold.snr.values())),
        gps_fix_count=fold.fixes,
        no_fix_count=fold.no_fix,
        bbox=fold.bbox,
        stations={
            station: StationStats(
                count=len(values),
                min_snr=min(values),
                mean_snr=math.fsum(values) / len(values),
                max_snr=max(values),
            )
            for station, values in sorted(fold.snr.items())
        },
        time_span=None if first is None else (first, last),
        gaps=gaps,
    )
