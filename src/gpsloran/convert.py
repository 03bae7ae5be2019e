"""Merge parsed records into one timestamp-sorted timeline and export it.

The merged timeline orders records by (timestamp, GPS before Loran,
arrival order) - a deterministic total order, so identical inputs always
export byte-identical files.  GPS wins ties because it is the reference
truth an analysis reads first.

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
import statistics
from dataclasses import dataclass
from datetime import datetime
from operator import add, attrgetter
from pathlib import Path

from .fsutil import AtomicWriter, atomic_write_json, read_json
from .parse import STATION_ROLES, GpsFix, LoranMeasurement
from .timeutil import iso_ms, parse_iso_ms

GPS_TYPE = "gps_fix"
LORAN_TYPE = "loran"

GPS_COLUMNS = ("timestamp", "lat_deg", "lon_deg", "alt_m", "fix_quality", "num_sats", "hdop")
LORAN_COLUMNS = ("timestamp", "gri", "station_role", "toa_us", "snr_db", "ecd_us")
ALL_COLUMNS = ("timestamp", "record_type") + GPS_COLUMNS[1:] + LORAN_COLUMNS[1:]

FORMAT_EXTENSIONS = {"columns": "csv", "lines": "jsonl"}

DEFAULT_GAP_THRESHOLD_S = 300.0

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class TimelineRecord:
    timestamp: datetime
    payload: GpsFix | LoranMeasurement
    arrival_index: int

    def __post_init__(self) -> None:
        if self.timestamp != self.payload.timestamp:
            raise ValueError("timeline timestamp must equal the payload timestamp")

    @property
    def record_type(self) -> str:
        return GPS_TYPE if isinstance(self.payload, GpsFix) else LORAN_TYPE


def merge_sort(gps: list[GpsFix], loran: list[LoranMeasurement]) -> list[TimelineRecord]:
    """Merge both record streams into one sorted timeline.

    Ties at equal timestamps break GPS-before-Loran, then by arrival
    order within each stream; the result is a stable total order.
    """
    records = [TimelineRecord(fix.timestamp, fix, index) for index, fix in enumerate(gps)]
    offset = len(records)
    records.extend(
        TimelineRecord(obs.timestamp, obs, offset + index) for index, obs in enumerate(loran)
    )
    return sorted(
        records,
        key=lambda r: (r.timestamp, 0 if r.record_type == GPS_TYPE else 1, r.arrival_index),
    )


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


def _render_blocks(timeline: list[TimelineRecord], formats: tuple[str, ...]):
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
            payload = record.payload
            if payload.timestamp != instant:
                instant = payload.timestamp
                stamp = iso_ms(instant)
            if isinstance(payload, GpsFix):
                values, keys, all_head, all_tail, json_type, role = _GPS_LAYOUT
                own_csv, own_json = gps_csv, gps_json
            else:
                values, keys, all_head, all_tail, json_type, role = _LORAN_LAYOUT
                own_csv, own_json = loran_csv, loran_json
            texts = [None if value is None else str(value) for value in values(payload)]
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
    timeline: list[TimelineRecord],
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
    try:
        for fmt in formats:
            for name, header in zip(_EXPORT_FILES[fmt], (GPS_COLUMNS, LORAN_COLUMNS, ALL_COLUMNS)):
                writers[name] = writer = AtomicWriter(out_dir / name)
                if fmt == "columns":
                    writer.write((",".join(header) + "\n").encode("utf-8"))
        for block in _render_blocks(timeline, formats):
            for name, writer in writers.items():
                writer.write(block[name].encode("utf-8"))
        digests = {name: writer.commit() for name, writer in writers.items()}
    except BaseException:
        for writer in writers.values():
            writer.discard()
        raise

    summary = summarize(timeline, gap_threshold_s)
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


def _optional_float(value) -> float | None:
    if value in (None, ""):
        return None
    return float(value)


def read_gps_export(path: Path) -> list[GpsFix]:
    """Read a ``timeline_gps`` export (either format) back into records."""
    fixes = []
    for row in _read_rows(Path(path)):
        fixes.append(
            GpsFix(
                timestamp=parse_iso_ms(row["timestamp"]),
                lat=_optional_float(row.get("lat_deg")),
                lon=_optional_float(row.get("lon_deg")),
                alt_m=_optional_float(row.get("alt_m")),
                fix_quality=int(row["fix_quality"]),
                num_sats=int(row["num_sats"]),
                hdop=_optional_float(row.get("hdop")),
            )
        )
    return fixes


def read_loran_export(path: Path) -> list[LoranMeasurement]:
    """Read a ``timeline_loran`` export (either format) back into records."""
    measurements = []
    for row in _read_rows(Path(path)):
        measurements.append(
            LoranMeasurement(
                timestamp=parse_iso_ms(row["timestamp"]),
                gri=int(row["gri"]),
                station_role=row["station_role"],
                toa_us=float(row["toa_us"]),
                snr_db=float(row["snr_db"]),
                ecd_us=float(row["ecd_us"]),
            )
        )
    return measurements


def _read_rows(path: Path) -> list[dict]:
    if path.suffix == ".jsonl":
        with open(path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def read_manifest(out_dir: Path) -> dict:
    return read_json(Path(out_dir) / MANIFEST_NAME)


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
    time_span: tuple[datetime, datetime] | None
    gaps: list[tuple[datetime, datetime]]


def summarize(timeline: list[TimelineRecord], gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S) -> SessionSummary:
    """Per-station SNR stats, GPS fix count/bounding box (no-fix records
    excluded), overall time span, and gaps longer than the threshold."""
    lats, lons = [], []
    no_fix = 0
    snr_by_station: dict[str, list[float]] = {}
    for record in timeline:
        payload = record.payload
        if isinstance(payload, GpsFix):
            if payload.no_fix:
                no_fix += 1
            else:
                lats.append(payload.lat)
                lons.append(payload.lon)
        else:
            snr_by_station.setdefault(payload.station, []).append(payload.snr_db)

    gaps = []
    for earlier, later in zip(timeline, timeline[1:]):
        if (later.timestamp - earlier.timestamp).total_seconds() > gap_threshold_s:
            gaps.append((earlier.timestamp, later.timestamp))

    return SessionSummary(
        total_records=len(timeline),
        gps_fix_count=len(lats),
        no_fix_count=no_fix,
        bbox=(min(lats), max(lats), min(lons), max(lons)) if lats else None,
        stations={
            station: StationStats(
                count=len(values),
                min_snr=min(values),
                mean_snr=statistics.fmean(values),
                max_snr=max(values),
            )
            for station, values in sorted(snr_by_station.items())
        },
        time_span=(timeline[0].timestamp, timeline[-1].timestamp) if timeline else None,
        gaps=gaps,
    )
