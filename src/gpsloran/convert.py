"""Merge parsed records into one timestamp-sorted timeline and export it.

The merged timeline orders records by (timestamp, store order, arrival
order) - a deterministic total order, so identical inputs always export
byte-identical files.  The GPS stores come before the Loran store, so GPS
wins ties: it is the reference truth an analysis reads first.  The merge
holds a bounded window of each store and yields the timeline in blocks,
which the export renders as they come, so a segment of any length is
converted in the same memory.

Records carry integer UTC epoch milliseconds, so the merge sorts ints.
Each distinct instant is formatted to text once on export; those texts
fold into runs of instants, whose ends give the span and the gaps
(:meth:`SummaryFold.take`), as the texts ``stats`` reads back do.

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

import json
import logging
import math
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, islice
from operator import add, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .fsutil import OutputSet, json_document, read_json, sha256_file
from .timeutil import iso_ms, parse_iso_ms

GPS_TYPE = "gps_fix"
LORAN_TYPE = "loran"

GPS_COLUMNS = ("timestamp", "lat_deg", "lon_deg", "alt_m", "fix_quality", "num_sats", "hdop")
LORAN_COLUMNS = ("timestamp", "gri", "station_role", "toa_us", "snr_db", "ecd_us")
ALL_COLUMNS = ("timestamp", "record_type") + GPS_COLUMNS[1:] + LORAN_COLUMNS[1:]

FORMAT_EXTENSIONS = {"columns": "csv", "lines": "jsonl"}

DEFAULT_GAP_THRESHOLD_S = 300.0

MANIFEST_NAME = "manifest.json"

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
_TEXTS_HELD = 1024  # distinct values a _FloatTexts holds the text of at most


class _FloatTexts(dict):
    """``repr`` of each float looked up in it, held for the repeated non-zero
    ones.  A zero is never held: ``0.0 == -0.0`` and they hash alike, but
    their texts differ."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value and len(self) < _TEXTS_HELD:
            self[value] = text
        return text


def _render(block: list[Record], formats: tuple[str, ...], fold: SummaryFold,
            counts: dict[str, int], float_texts: _FloatTexts) -> dict[str, str]:
    """``{file name: text}`` of a block of records in all six export files.
    Each distinct timestamp is formatted once, with the heads of its rows,
    and the block's texts go to *fold* for the span and gaps; each Loran
    record is counted in *counts* by station.  A record's fields are in its
    export's column order, so it renders by position, each value converted
    to text once (``None`` is an empty CSV cell and a JSON ``null``); a
    Loran record's float SNR and ECD texts come from *float_texts*, and its
    value texts are joined once per format.  Parsing admits finite numbers and
    the ``STATION_ROLES`` letters only, so the text of a number is its JSON
    text and a role needs no escaping."""
    from .parse import LoranMeasurement  # loaded already by what parsed the block
    columns = "columns" in formats
    lines = "lines" in formats
    instant = stamp = None
    stamps = []
    gps_csv, loran_csv, all_csv, gps_json, loran_json, all_json = [], [], [], [], [], []
    for record in block:
        if record[0] != instant:
            instant = record[0]
            stamp = iso_ms(instant)
            stamps.append(stamp)
            csv_head, csv_all_head = stamp + ",", stamp + f",{LORAN_TYPE},,,,,,,"
            json_head = '{"timestamp":"' + stamp + '"'
            json_all_head = json_head + f',"record_type":"{LORAN_TYPE}"'
        if type(record) is LoranMeasurement:
            _, gri, role, toa, snr_db, ecd = record
            gri, toa = str(gri), repr(toa)
            snr_db = float_texts[snr_db] if type(snr_db) is float else repr(snr_db)
            ecd = float_texts[ecd] if type(ecd) is float else repr(ecd)
            counts[gri + role] += 1
            if columns:  # a timeline_all row leaves the six GPS cells empty
                row = f"{gri},{role},{toa},{snr_db},{ecd}\n"
                loran_csv.append(csv_head + row)
                all_csv.append(csv_all_head + row)
            if lines:
                row = (f',"gri":{gri},"station_role":"{role}","toa_us":{toa},'
                       f'"snr_db":{snr_db},"ecd_us":{ecd}}}\n')
                loran_json.append(json_head + row)
                all_json.append(json_all_head + row)
            continue
        texts = [None if value is None else str(value) for value in record[1:]]
        complete = None not in texts
        if columns:
            row = ",".join(texts) if complete else ",".join([text or "" for text in texts])
            gps_csv.append(f"{csv_head}{row}\n")
            all_csv.append(f"{stamp},{GPS_TYPE},{row}{_GPS_ALL_TAIL}\n")
        if lines:
            if complete:
                members = sparse = "".join(map(add, _GPS_KEYS, texts))
            else:
                members = "".join([key + (text or "null") for key, text in zip(_GPS_KEYS, texts)])
                sparse = "".join([key + text for key, text in zip(_GPS_KEYS, texts) if text])
            gps_json.append(f"{json_head}{members}}}\n")
            all_json.append(f'{json_head},"record_type":"{GPS_TYPE}"{sparse}}}\n')
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
           session_id: str = "", parse_errors: Callable[[OutputSet], int] = lambda out: 0,
           quarantined: int = 0, gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S) -> dict:
    """Write timeline exports plus ``manifest.json`` into *out_dir*.

    *blocks* are the timeline in time order, a block of records at a time
    (as :func:`merge_sort` yields it).  Deterministic: the same timeline
    always produces byte-identical files.  Each block is rendered, hashed
    and written, and its counts, time span and gaps folded, as it arrives.
    *parse_errors*, called once the timeline is written, writes its files
    into the export's ``OutputSet`` and returns the parse error count.  The
    exports, those files and the manifest last are one set, so on any
    failure every file this call made is removed: a directory never holds
    a partial export set.  Returns the manifest payload.
    """
    formats = export_formats(formats)
    names = [name for fmt in formats for name in _EXPORT_FILES[fmt]]
    with OutputSet(out_dir) as out:
        for fmt in formats:
            for name, header in zip(_EXPORT_FILES[fmt], (GPS_COLUMNS, LORAN_COLUMNS, ALL_COLUMNS)):
                out.write(name, f"{','.join(header)}\n".encode() if fmt == "columns" else b"")
        fold, counts, records = SummaryFold(gap_threshold_s), defaultdict(int), 0
        float_texts = _FloatTexts()
        for block in blocks:
            rendered = _render(block, formats, fold, counts, float_texts)
            records += len(block)
            for name in names:
                out.write(name, rendered[name].encode("utf-8"))
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
                "parse_errors": parse_errors(out),
                "quarantined": quarantined,
            },
            "export_files": [
                {"path": name, "format": fmt, "digest": out.digest(name)}
                for fmt in formats
                for name in _EXPORT_FILES[fmt]
            ],
            "gap_threshold_s": gap_threshold_s,
            "gap_list": [
                {"start": iso_ms(start), "end": iso_ms(end)} for start, end in fold.gaps
            ],
        }
        out.write(MANIFEST_NAME, json_document(manifest))
        out.commit()
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
    logging.getLogger(__name__).warning("event=export_unverified file=%s reason=%s",
                                        json.dumps(str(path)), reason)
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
            text = row[0]
            stamp = iso_ms(parse_iso_ms(text))
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


# --- summary statistics -----------------------------------------------------


_SNR_BLOCK = 4096  # SNR values the stations hold between them before they are folded


class SummaryFold:
    """A summary folded a block of records at a time.  :meth:`take` takes a
    set of their timestamp texts in any order into :attr:`runs`, which give
    the time span and the gaps longer than *gap_threshold_s*: all that
    :func:`export` folds.  ``stats`` also fills in the fix counts and
    bounding box, and :attr:`snr` with each station's SNR values, which
    :meth:`fold_snr` folds a block at a time into :attr:`stations`."""

    def __init__(self, gap_threshold_s: float) -> None:
        self.fixes = self.no_fix = 0
        self.bbox: tuple[float, float, float, float] | None = None
        self.snr: dict[str, array] = defaultdict(lambda: array("d"))
        self.stations: dict[str, tuple[int, float, float, list]] = {}  # count, min, max, sum
        self.gap_threshold_s = gap_threshold_s
        self.runs: list[tuple[int, int]] = []

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

    @property
    def first(self) -> int | None:
        return self.runs[0][0] if self.runs else None

    @property
    def last(self) -> int | None:
        return self.runs[-1][1] if self.runs else None

    @property
    def gaps(self) -> list[tuple[int, int]]:
        """The spaces between consecutive runs, each longer than the threshold."""
        return [(end, start) for (_, end), (start, _) in zip(self.runs, self.runs[1:])]

    def take(self, stamps: Iterable[str]) -> None:
        """Fold a set of ``iso_ms`` timestamp texts, in any order, into
        :attr:`runs`: the maximal stretches ``(first, last)`` of the instants
        taken in which no two consecutive ones are further apart than the
        threshold, in time order.  The set's instants and the runs within
        the threshold of its span (found by bisection) are merged, each run
        into the one before it unless the space between them is a gap."""
        stamps, limit = set(stamps), self.gap_threshold_s
        if not stamps:
            return
        lo, hi = parse_iso_ms(min(stamps)), parse_iso_ms(max(stamps))  # the texts sort as their instants
        # no gap lies within a span no longer than the threshold
        instants = [lo, hi] if (hi - lo) / 1000 <= limit else sorted(map(parse_iso_ms, stamps))
        runs = self.runs  # runs[i:j] are those no gap away from the set's span
        i = bisect_left(runs, True, key=lambda run: not (lo - run[1]) / 1000 > limit)
        j = bisect_left(runs, True, key=lambda run: (run[0] - hi) / 1000 > limit)
        merged: list[tuple[int, int]] = []
        for start, end in sorted([*runs[i:j], *zip(instants, instants)]):
            if merged and not (start - merged[-1][1]) / 1000 > limit:
                start, held = merged.pop()
                end = max(held, end)
            merged.append((start, end))
        runs[i:j] = merged


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
