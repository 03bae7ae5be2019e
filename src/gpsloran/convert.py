"""Merge parsed records into one timestamp-sorted timeline and export it.

The merged timeline orders records by (timestamp, store order, arrival
order) - a deterministic total order, so identical inputs always export
byte-identical files.  The GPS stores come before the Loran store, so GPS
wins ties: it is the reference truth an analysis reads first.  The merge
holds a bounded window of each store and yields the timeline in blocks,
which the export renders as they come, so a segment of any length is
converted in the same memory.

Records carry integer UTC epoch milliseconds, so the merge sorts ints.
Each distinct instant is formatted to text once on export, and the span
and gaps are folded from those texts (:meth:`SummaryFold.take`), as
``stats`` folds them from the texts it reads back.

Export schemas (fixed column order, timestamps as ISO 8601 UTC with
milliseconds, floats in shortest round-trip form):

- ``timeline_gps``:   timestamp, lat_deg, lon_deg, alt_m, fix_quality,
  num_sats, hdop
- ``timeline_loran``: timestamp, gri, station_role, toa_us, snr_db, ecd_us
- ``timeline_all``:   timestamp, record_type, then the sparse union of
  the above

Two formats: ``columns`` (CSV) and ``lines`` (one JSON object per line).
A ``manifest.json`` records counts, time span, per-file digests, and the
list of gaps longer than the gap threshold; that is all the export folds.
The SNR figures and the bounding box are ``stats``' alone, from the
exports.
"""
from __future__ import annotations

import functools
import json
import logging
import math
import re
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import ExitStack
from itertools import chain, islice
from operator import add, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .fsutil import AtomicWriter, atomic_write_json, read_json, sha256_file
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

if TYPE_CHECKING:  # the records come from parse, which reading an export does not load
    from .parse import GpsFix, LoranMeasurement
    Record = GpsFix | LoranMeasurement


# The newest records of each store the merge holds back.  A record that
# arrives after fewer than this many records of its store with later
# timestamps is merged in place; a later one can raise ReorderOverflow, and
# convert_classified then sorts each whole store instead.
REORDER_WINDOW = 256
_BLOCK_RECORDS = 256  # records a yielded block holds at most
_timestamp = itemgetter(0)  # a record's first field


class ReorderOverflow(ValueError):
    """A record of store number *store* came at or before a timestamp
    :func:`merge_sort` had already yielded."""

    def __init__(self, store: int, record: Record):
        super().__init__(f"store {store}: a record at {iso_ms(record.timestamp)} "
                         "arrived later than the reorder window")
        self.store = store
        self.record = record


def merge_sort(*stores: Iterable[Record],
               window: int | None = REORDER_WINDOW) -> Iterator[list[Record]]:
    """Merge record stores into one timeline sorted by timestamp, yielded
    in time order as blocks of at most ``_BLOCK_RECORDS`` records.

    Ties at equal timestamps break by store order, then by arrival order
    within a store, so the timeline is ``sorted(chain(*stores),
    key=timestamp)``, a stable total order.  With a *window* the stores are
    read as the timeline is yielded (see :func:`_windowed`), and a record
    that arrives too late raises :class:`ReorderOverflow`; with
    ``window=None`` each store is read whole and sorted, which never raises.
    """
    runs = [sorted(chain(*stores), key=_timestamp)] if window is None else _windowed(stores, window)
    for run in runs:
        for start in range(0, len(run), _BLOCK_RECORDS):
            yield run[start : start + _BLOCK_RECORDS]


def _windowed(stores: tuple[Iterable[Record], ...], window: int) -> Iterator[list[Record]]:
    """The timeline of *stores* in consecutive sorted runs.  The store whose
    held records end earliest gives up its next *window* records, the
    newest *window* records read from each store are held back, and what
    is older than every store's held-back records is yielded.  A record
    read at or before a timestamp already yielded raises
    :class:`ReorderOverflow`."""
    sources = [iter(store) for store in stores]
    held: list[list[Record]] = [[] for _ in sources]  # each in time order
    live = list(range(len(sources)))  # the stores not yet read to the end
    last = -math.inf  # the latest timestamp yielded
    while live:
        k = min(live, key=lambda j: held[j][-1].timestamp if held[j] else -math.inf)
        chunk = sorted(islice(sources[k], window), key=_timestamp)
        if len(chunk) < window:
            live.remove(k)
        if chunk:
            if chunk[0].timestamp <= last:
                raise ReorderOverflow(k, chunk[0])
            hold = held[k]
            cut = bisect_right(hold, chunk[0].timestamp, key=_timestamp)
            hold[cut:] = sorted([*hold[cut:], *chunk], key=_timestamp)
        frontier = min((held[j][-window].timestamp if held[j] else -math.inf for j in live),
                       default=math.inf)
        run = []
        for hold in held:
            cut = bisect_left(hold, frontier, key=_timestamp)
            run += hold[:cut]
            del hold[:cut]
        if run:
            run.sort(key=_timestamp)
            last = run[-1].timestamp
            yield run


# --- export -----------------------------------------------------------------

# The JSON keys of a fix's values, and the empty Loran cells after them in
# a timeline_all CSV row.
_GPS_KEYS = tuple(f',"{name}":' for name in GPS_COLUMNS[1:])
_GPS_ALL_TAIL = "," * (len(LORAN_COLUMNS) - 1)
_EXPORT_FILES = {fmt: [f"timeline_{kind}.{ext}" for kind in ("gps", "loran", "all")]
                 for fmt, ext in FORMAT_EXTENSIONS.items()}


def _render(block: list[Record], formats: tuple[str, ...], fold: SummaryFold,
            counts: dict[str, int]) -> dict[str, str]:
    """``{file name: text}`` of a block of records in all six export files.
    Each distinct timestamp is formatted once, and the block's texts go to
    *fold* for the span and gaps; each Loran record is counted in *counts*
    by station.  A record's fields are in its export's column order, so it
    renders by position, each value converted to text once (``None`` is an
    empty CSV cell and a JSON ``null``).  Parsing admits finite numbers and
    the ``STATION_ROLES`` letters only, so the text of a number is its JSON
    text and a role needs no escaping."""
    from .parse import LoranMeasurement  # loaded already by what parsed the block
    columns = "columns" in formats
    lines = "lines" in formats
    instant = stamp = None
    stamps = []
    gps_csv, loran_csv, all_csv, gps_json, loran_json, all_json = [], [], [], [], [], []
    for record in block:
        if record.timestamp != instant:
            instant = record.timestamp
            stamp = iso_ms(instant)
            stamps.append(stamp)
        if type(record) is LoranMeasurement:
            _, gri, role, toa, snr_db, ecd = record
            gri, toa, snr_db, ecd = str(gri), repr(toa), repr(snr_db), repr(ecd)
            counts[gri + role] += 1
            if columns:  # a timeline_all row leaves the six GPS cells empty
                loran_csv.append(f"{stamp},{gri},{role},{toa},{snr_db},{ecd}\n")
                all_csv.append(f"{stamp},{LORAN_TYPE},,,,,,,{gri},{role},{toa},{snr_db},{ecd}\n")
            if lines:
                loran_json.append(f'{{"timestamp":"{stamp}","gri":{gri},"station_role":"{role}",'
                                  f'"toa_us":{toa},"snr_db":{snr_db},"ecd_us":{ecd}}}\n')
                all_json.append(f'{{"timestamp":"{stamp}","record_type":"{LORAN_TYPE}","gri":{gri},'
                                f'"station_role":"{role}","toa_us":{toa},"snr_db":{snr_db},'
                                f'"ecd_us":{ecd}}}\n')
            continue
        texts = [None if value is None else str(value) for value in record[1:]]
        complete = None not in texts
        if columns:
            row = ",".join(texts) if complete else ",".join([text or "" for text in texts])
            gps_csv.append(f"{stamp},{row}\n")
            all_csv.append(f"{stamp},{GPS_TYPE},{row}{_GPS_ALL_TAIL}\n")
        if lines:
            if complete:
                members = sparse = "".join(map(add, _GPS_KEYS, texts))
            else:
                members = "".join([key + (text or "null") for key, text in zip(_GPS_KEYS, texts)])
                sparse = "".join([key + text for key, text in zip(_GPS_KEYS, texts) if text])
            gps_json.append(f'{{"timestamp":"{stamp}"{members}}}\n')
            all_json.append(f'{{"timestamp":"{stamp}","record_type":"{GPS_TYPE}"{sparse}}}\n')
    fold.take(stamps)
    rendered = map("".join, (gps_csv, loran_csv, all_csv, gps_json, loran_json, all_json))
    return dict(zip(_EXPORT_FILES["columns"] + _EXPORT_FILES["lines"], rendered))


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


def export(blocks: Iterable[list[Record]], formats: tuple[str, ...] | str, out_dir: Path, *,
           session_id: str = "", parse_errors: int | Callable[[], int] = 0,
           quarantined: int = 0, gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S) -> dict:
    """Write timeline exports plus ``manifest.json`` into *out_dir*.

    *blocks* are the timeline in time order, a block of records at a time
    (as :func:`merge_sort` yields it).  Deterministic: the same timeline
    always produces byte-identical files.  Each block is rendered, hashed
    and written, and its counts, time span and gaps folded, as it arrives.
    The parse error count may be a callable, read once the timeline is
    written, for stores parsed as they are merged.  On any failure every
    file this call made, final or temporary, is removed, so a directory
    never holds a partial export set.  Returns the manifest payload.
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
        fold, counts, records = SummaryFold(gap_threshold_s), defaultdict(int), 0
        for block in blocks:
            rendered = _render(block, formats, fold, counts)
            records += len(block)
            for name, writer in writers.items():
                writer.write(rendered[name].encode("utf-8"))
        digests = {name: writer.commit() for name, writer in writers.items()}

    loran = sum(counts.values())
    manifest = {
        "session_id": session_id,
        "time_span": None
        if fold.first is None
        else {"first": iso_ms(fold.first), "last": iso_ms(fold.last)},
        "record_counts": {
            "gps_fix": records - loran,
            "loran": loran,
            "loran_by_station": dict(sorted(counts.items())),
            "parse_errors": parse_errors() if callable(parse_errors) else parse_errors,
            "quarantined": quarantined,
        },
        "export_files": [
            {"path": name, "format": fmt, "digest": digests[name]}
            for fmt in formats
            for name in _EXPORT_FILES[fmt]
        ],
        "gap_threshold_s": gap_threshold_s,
        "gap_list": [
            {"start": iso_ms(start), "end": iso_ms(end)} for start, end in fold.gaps
        ],
    }
    atomic_write_json(out_dir / MANIFEST_NAME, manifest)
    return manifest


# --- import readers ---------------------------------------------------------


def read_gps_export(path: Path, emit: Callable[[list], object], digests: dict | None) -> None:
    """Read a ``timeline_gps`` export (either format); see :func:`_read_export`."""
    _read_export(Path(path), GPS_COLUMNS, emit, digests)


def read_loran_export(path: Path, emit: Callable[[list], object], digests: dict | None) -> None:
    """Read a ``timeline_loran`` export (either format); see :func:`_read_export`."""
    _read_export(Path(path), LORAN_COLUMNS, emit, digests)


def export_digests(directory: Path) -> dict[str, str] | None:
    """The digest the ``manifest.json`` in *directory* gives each export
    file, by name: none without a manifest, ``None`` if it cannot be read."""
    try:
        manifest = read_json(Path(directory) / MANIFEST_NAME)
        return {entry["path"]: entry["digest"] for entry in manifest["export_files"]}
    except FileNotFoundError:
        return {}
    except (OSError, ValueError, LookupError, TypeError):
        return None


def _verified(path: Path, digests: dict[str, str] | None) -> bool:
    """Whether *path*'s sha256 is the digest *digests* give it; a stale digest
    or an unreadable manifest (``None``) logs a warning, no entry does not."""
    name = path.name
    if digests is not None and (name not in digests or sha256_file(path) == digests[name]):
        return name in digests  # a file made by hand, or as exported
    reason = "digest_mismatch" if digests else "manifest_unreadable"
    logging.getLogger(__name__).warning("event=export_unverified file=%s reason=%s", path, reason)
    return False


def _read_export(path: Path, columns: tuple[str, ...], emit, digests) -> None:
    """Read an export file and hand *emit* its rows, ``_BLOCK_RECORDS`` at
    a time: each row the texts of its *columns* as export writes them, the
    timestamp in ``iso_ms`` form, ``str()`` of each value and ``""`` for
    none.  A CSV row's cells are taken by the header's column positions, a
    JSON line's by member name.  A file its manifest vouches for
    (:func:`_verified`) is taken as written: CSV rows split on commas, JSON
    values through ``str()``.  Other files are parsed by ``csv``, and each
    row's timestamp and values (by :mod:`gpsloran.parse`'s ``gps_values`` or
    ``loran_values``) are checked before their texts are made; only they
    load ``csv`` and the parser.  A malformed file raises ``ValueError``
    naming the file and the line; what *emit* raises passes as raised."""
    trusted, errors = _verified(path, digests), (TypeError, ValueError)
    if not trusted:
        import csv
        from .parse import gps_values, loran_values
        errors += (csv.Error,)
    line_number = 0  # the line last read, which an error names

    def numbered(handle):
        nonlocal line_number
        for line_number, line in enumerate(handle, 1):
            yield line

    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = numbered(handle)
        if path.suffix == ".jsonl":
            rows = _json_rows(lines, columns)
        else:
            rows = _csv_rows((line[:-1].split(",") for line in lines) if trusted
                             else csv.reader(lines), columns)
        if not trusted:
            rows = _checked(rows, gps_values if columns is GPS_COLUMNS else loran_values)
        elif path.suffix == ".jsonl":
            rows = (["" if value is None else str(value) for value in row] for row in rows)
        while True:
            try:
                block = list(islice(rows, _BLOCK_RECORDS))
            except errors as exc:
                raise ValueError(f"{path}:{line_number}: {exc}") from None
            if not block:
                return
            emit(block)


def _checked(rows, check):
    """*rows* with each timestamp and value checked, as texts; a run of
    equal timestamp texts is checked once."""
    text = stamp = object()  # no row's timestamp
    for row in rows:
        if row[0] != text:
            text, instant = row[0], parse_iso_ms(row[0])
            stamp = text if _ISO_MS_TEXT.fullmatch(text) else iso_ms(instant)
        yield (stamp, *["" if value is None else str(value) for value in check(*row[1:])])


def _csv_rows(reader, columns: tuple[str, ...]):
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


_minute_ms = functools.lru_cache(maxsize=64)(lambda minute: parse_iso_ms(minute + ":00.000Z"))


def _instant(stamp: str) -> int:  # of an iso_ms text; each minute is parsed once
    return _minute_ms(stamp[:16]) + int(stamp[17:19] + stamp[20:23])


# --- summary statistics -----------------------------------------------------


_SNR_BLOCK = 4096  # SNR values the stations hold between them before they are folded


class SummaryFold:
    """A summary folded a block of records at a time.  :meth:`take` takes a
    set of their timestamp texts in any order, for the time span and the
    gaps longer than *gap_threshold_s*: all that :func:`export` folds.
    ``stats`` also fills in the fix counts and bounding box, and :attr:`snr`
    with each station's SNR values, which :meth:`fold_snr` folds a block
    at a time into :attr:`stations`."""

    def __init__(self, gap_threshold_s: float) -> None:
        self.fixes = self.no_fix = 0
        self.bbox: tuple[float, float, float, float] | None = None
        self.snr: dict[str, array] = defaultdict(lambda: array("d"))
        self.stations: dict[str, tuple[int, float, float, list]] = {}  # count, min, max, sum
        self.gap_threshold_s = gap_threshold_s
        self.first: int | None = None
        self.last: int | None = None
        self.gaps: list[tuple[int, int]] = []

    def fold_snr(self, least: int = _SNR_BLOCK) -> None:
        """Once the stations hold *least* SNR values or more between them,
        fold each one's into its count, min and max (the first of equal
        extremes, as ``min`` and ``max`` keep) and exact sum, and drop them."""
        if sum(map(len, self.snr.values())) < least:
            return
        for station, values in self.snr.items():
            if values:
                count, low, high, terms = self.stations.get(station, (0, values[0], values[0], []))
                self.stations[station] = (count + len(values), min(low, min(values)),
                                          max(high, max(values)), _sum_terms(terms, values))
                del values[:]

    def take(self, stamps: Iterable[str]) -> None:
        """Fold a set of ``iso_ms`` timestamp texts, in any order, into the
        span and the gaps: the stretches free of it (before, between when
        longer than the threshold, and after its instants) intersected with
        those free of the sets before are those free of all, and a gap is
        one between two instants.  Stretches only shrink: only those
        reaching into the set's span are swept, and no instant is kept."""
        stamps, limit = set(stamps), self.gap_threshold_s
        if not stamps:
            return
        lo, hi = _instant(min(stamps)), _instant(max(stamps))  # the texts sort as their instants
        # no gap lies within a span no longer than the threshold
        ordered = [lo, hi] if (hi - lo) / 1000 <= limit else sorted(map(_instant, stamps))
        free = [(-math.inf, lo), *((a, b) for a, b in zip(ordered, ordered[1:])
                                   if (b - a) / 1000 > limit), (hi, math.inf)]
        if self.first is None:
            self.first, self.last, self.gaps = lo, hi, free[1:-1]
            return
        i = bisect_right(self.gaps, lo, key=itemgetter(1))
        j = bisect_left(self.gaps, hi, key=itemgetter(0))
        held = ([(-math.inf, self.first)] * (self.first > lo) + self.gaps[i:j]
                + [(self.last, math.inf)] * (self.last < hi))
        both, k, m = [], 0, 0
        while k < len(held) and m < len(free):  # a linear sweep of two sorted lists
            (a, b), (c, d) = held[k], free[m]
            if (min(b, d) - max(a, c)) / 1000 > limit:
                both.append((max(a, c), min(b, d)))
            k, m = (k + 1, m) if b < d else (k, m + 1)
        self.gaps[i:j] = [(a, b) for a, b in both if -math.inf < a and b < math.inf]
        self.first, self.last = min(self.first, lo), max(self.last, hi)


def _sum_terms(held: list, values: array) -> list:
    """Floats whose exact sum is that of *held* and *values*, each the rounded
    sum (``math.fsum``, at C speed) of what those before it leave, so the
    first is the rounded sum of all; or that sum as one Fraction once a
    float sum overflows."""
    if all(type(term) is float for term in held):
        rest, terms = array("d", held), []
        rest += values
        try:
            while not terms or terms[-1]:
                terms.append(math.fsum(rest))
                rest.append(-terms[-1])
            return terms[:-1] or terms  # a sum of zero keeps the sign fsum gave it
        except OverflowError:
            pass
    from fractions import Fraction
    return [sum(map(Fraction, values), sum(map(Fraction, held)))]


def summarize(fold: SummaryFold) -> dict[str, tuple[int, float, float, float]]:
    """Each station's SNR count, min, mean and max, by station name in
    sorted order, of what *fold* took.  The mean is the rounded sum
    (``math.fsum``'s) over the count, or, past the float range, the exact
    sum over the count, rounded."""
    fold.fold_snr(1)
    stations = {}
    for station, (count, low, high, terms) in sorted(fold.stations.items()):
        try:
            mean = math.fsum(terms) / count
        except OverflowError:
            mean = float(terms[0] / count)  # the sum, a Fraction past the float range
        stations[station] = count, low, mean, high
    return stations
