import csv
import errno
import io
import itertools
import json
import math
import os
import random
import tempfile
import unittest.mock
from collections import Counter
from datetime import datetime, timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpsloran.convert import (
    ALL_COLUMNS,
    DEFAULT_GAP_THRESHOLD_S,
    GPS_COLUMNS,
    GPS_TYPE,
    LORAN_COLUMNS,
    LORAN_TYPE,
    MANIFEST_NAME,
    ReorderOverflow,
    export,
    merge_sort,
    read_gps_export,
    read_loran_export,
    SummaryFold,
    summarize,
)
from gpsloran import convert, fsutil
from gpsloran.fsutil import OutputSet, read_json, sha256_file
from gpsloran.parse import GpsFix, LoranMeasurement
from gpsloran.timeutil import epoch_ms, iso_ms, parse_iso_ms

from conftest import flat_timeline, ms, read_records, reference_gaps


T0 = ms(2020, 4, 17, 12, 0, 0)


def fix_at(moment, lat=37.0, no_fix=False):
    if no_fix:
        return GpsFix(moment, None, None, None, 0, 0, None)
    return GpsFix(moment, lat, 127.0, 30.0, 1, 8, 1.0)


def loran_at(moment, role="M", snr=12.0, gri=9930):
    return LoranMeasurement(moment, gri, role, 45678.9, snr, 0.5)


# --- merge -------------------------------------------------------------------


def test_merge_tie_breaks_gps_first_then_arrival():
    t1 = T0 + 1000
    gps = [fix_at(t1), fix_at(T0)]
    loran = [loran_at(t1)]
    merged = flat_timeline(gps, loran)
    assert [(r.timestamp, type(r)) for r in merged] == [
        (T0, GpsFix),
        (t1, GpsFix),
        (t1, LoranMeasurement),
    ]
    # the t1 GPS fix arrived before the t0 one but sorts after it
    assert merged[0] is gps[1]
    assert merged[1] is gps[0]
    assert merged[2] is loran[0]


def test_merge_preserves_arrival_order_within_equal_keys():
    measurements = [loran_at(T0, role=role) for role in "MXYZ"]
    merged = flat_timeline([], measurements)
    assert all(r is m for r, m in zip(merged, measurements, strict=True))


def test_merge_empty_inputs():
    assert list(merge_sort([], [])) == []


@given(
    st.lists(st.integers(min_value=0, max_value=20), max_size=40),
    st.lists(st.integers(min_value=0, max_value=20), max_size=40),
)
def test_merge_is_sorted_and_loses_nothing(gps_offsets, loran_offsets):
    gps = [fix_at(T0 + s * 1000) for s in gps_offsets]
    loran = [loran_at(T0 + s * 1000) for s in loran_offsets]
    merged = flat_timeline(gps, loran)
    assert len(merged) == len(gps) + len(loran)
    times = [r.timestamp for r in merged]
    assert times == sorted(times)
    # GPS precedes Loran at the same instant
    for earlier, later in zip(merged, merged[1:]):
        if earlier.timestamp == later.timestamp:
            pair = (type(earlier), type(later))
            assert pair != (LoranMeasurement, GpsFix)
    # stability within each stream: the same objects, in arrival order at ties
    for stream, kind in ((gps, GpsFix), (loran, LoranMeasurement)):
        own = [r for r in merged if type(r) is kind]
        expected = sorted(stream, key=lambda r: r.timestamp)
        assert all(r is e for r, e in zip(own, expected, strict=True))


def _displaced(steps, swaps):
    """Offsets in time order (a step of 0 is a tie) with the adjacent pairs
    at *swaps* exchanged in turn, so a record may come many places late."""
    offsets = list(itertools.accumulate(steps))
    for at in swaps:
        if at + 1 < len(offsets):
            offsets[at], offsets[at + 1] = offsets[at + 1], offsets[at]
    return offsets


displaced_offsets = st.builds(_displaced, st.lists(st.integers(0, 3), max_size=40),
                              st.lists(st.integers(0, 40), max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.lists(displaced_offsets, max_size=4), st.integers(1, 8), st.booleans())
def test_windowed_merge_equals_the_full_sort_or_raises(offsets, window, gps_first):
    """With a window the merge yields the stable full sort or raises; a
    store in time order never raises, and without a window it never does."""
    stores = [[fix_at(T0 + 100 * s) if gps_first and not index else loran_at(T0 + 100 * s)
               for s in store] for index, store in enumerate(offsets)]
    expected = sorted(itertools.chain(*stores), key=lambda r: r.timestamp)
    assert all(r is e for r, e in zip(flat_timeline(*stores, window=None), expected, strict=True))
    try:
        merged = flat_timeline(*stores, window=window)
    except ReorderOverflow as exc:
        assert stores[exc.store] != sorted(stores[exc.store], key=lambda r: r.timestamp)
        assert any(exc.record is r for r in stores[exc.store])
    else:
        assert all(r is e for r, e in zip(merged, expected, strict=True))


def test_windowed_merge_raises_on_a_record_later_than_the_window():
    late = loran_at(T0 + 500)
    store = [loran_at(T0 + 1000 * s) for s in range(1, 12)] + [late]
    with pytest.raises(ReorderOverflow) as raised:
        flat_timeline([fix_at(T0 + 1000 * s) for s in range(12)], store, window=2)
    assert raised.value.store == 1 and raised.value.record is late
    assert flat_timeline(store, window=None)[0] is late


# --- exports -----------------------------------------------------------------


def sample_timeline():
    gps = [
        fix_at(T0),
        fix_at(T0 + 1000, lat=37.5),
        fix_at(T0 + 2000, no_fix=True),
    ]
    loran = [
        loran_at(T0 + 500),
        loran_at(T0 + 1500, role="X", snr=9.5),
    ]
    return list(merge_sort(gps, loran))  # its blocks, to export more than once


def test_record_fields_follow_the_export_columns():
    """The export renders a record by position, so its fields are in its
    file's column order."""
    assert LoranMeasurement._fields == LORAN_COLUMNS
    assert GpsFix._fields == tuple({"lat_deg": "lat", "lon_deg": "lon"}.get(name, name)
                                   for name in GPS_COLUMNS)


def test_export_writes_all_files_and_manifest(tmp_path):
    timeline = sample_timeline()
    manifest = export(
        timeline,
        ("columns", "lines"),
        tmp_path,
        session_id="s1",
        parse_errors=lambda out: 2,
        quarantined=3,
    )
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "timeline_gps.csv",
        "timeline_loran.csv",
        "timeline_all.csv",
        "timeline_gps.jsonl",
        "timeline_loran.jsonl",
        "timeline_all.jsonl",
        MANIFEST_NAME,
    }
    assert manifest["record_counts"]["gps_fix"] == 3
    assert manifest["record_counts"]["loran"] == 2
    assert manifest["record_counts"]["loran_by_station"] == {"9930M": 1, "9930X": 1}
    assert manifest["record_counts"]["parse_errors"] == 2
    assert manifest["record_counts"]["quarantined"] == 3
    assert manifest["session_id"] == "s1"
    assert manifest["time_span"] == {
        "first": "2020-04-17T12:00:00.000Z",
        "last": "2020-04-17T12:00:02.000Z",
    }
    assert read_json(tmp_path / MANIFEST_NAME) == manifest
    # digests in the manifest match the files on disk
    for entry in manifest["export_files"]:
        assert "/" not in entry["path"]
        assert sha256_file(tmp_path / entry["path"]) == entry["digest"]


def test_export_csv_layout(tmp_path):
    export(sample_timeline(), "columns", tmp_path, session_id="s1")
    gps_text = (tmp_path / "timeline_gps.csv").read_text()
    rows = list(csv.reader(io.StringIO(gps_text)))
    assert rows[0] == list(GPS_COLUMNS)
    assert rows[1] == ["2020-04-17T12:00:00.000Z", "37.0", "127.0", "30.0", "1", "8", "1.0"]
    assert rows[3] == ["2020-04-17T12:00:02.000Z", "", "", "", "0", "0", ""]
    loran_rows = list(csv.reader(io.StringIO((tmp_path / "timeline_loran.csv").read_text())))
    assert loran_rows[0] == list(LORAN_COLUMNS)
    assert loran_rows[1] == [
        "2020-04-17T12:00:00.500Z", "9930", "M", "45678.9", "12.0", "0.5",
    ]
    all_rows = list(csv.reader(io.StringIO((tmp_path / "timeline_all.csv").read_text())))
    assert all_rows[0] == list(ALL_COLUMNS)
    assert len(all_rows) == 1 + 5
    assert [row[1] for row in all_rows[1:]] == [
        GPS_TYPE, LORAN_TYPE, GPS_TYPE, LORAN_TYPE, GPS_TYPE,
    ]


def test_export_jsonl_layout(tmp_path):
    export(sample_timeline(), "lines", tmp_path, session_id="s1")
    gps_lines = (tmp_path / "timeline_gps.jsonl").read_text().splitlines()
    first = json.loads(gps_lines[0])
    assert first == {
        "timestamp": "2020-04-17T12:00:00.000Z",
        "lat_deg": 37.0,
        "lon_deg": 127.0,
        "alt_m": 30.0,
        "fix_quality": 1,
        "num_sats": 8,
        "hdop": 1.0,
    }
    no_fix = json.loads(gps_lines[2])
    assert no_fix["lat_deg"] is None  # per-type exports keep explicit nulls
    all_lines = (tmp_path / "timeline_all.jsonl").read_text().splitlines()
    merged_no_fix = json.loads(all_lines[4])
    assert merged_no_fix["record_type"] == GPS_TYPE
    assert "lat_deg" not in merged_no_fix  # merged export drops empty cells


def test_export_is_deterministic(tmp_path):
    timeline = sample_timeline()
    export(timeline, ("columns", "lines"), tmp_path / "a", session_id="s1")
    export(timeline, ("columns", "lines"), tmp_path / "b", session_id="s1")
    for name in ("timeline_gps.csv", "timeline_all.jsonl", MANIFEST_NAME):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_export_round_trip_both_formats(tmp_path):
    timeline = sample_timeline()
    gps_in = [r for block in timeline for r in block if type(r) is GpsFix]
    loran_in = [r for block in timeline for r in block if type(r) is LoranMeasurement]
    export(timeline, ("columns", "lines"), tmp_path, session_id="s1")
    assert read_records(read_gps_export, tmp_path / "timeline_gps.csv") == gps_in
    assert read_records(read_gps_export, tmp_path / "timeline_gps.jsonl") == gps_in
    assert read_records(read_loran_export, tmp_path / "timeline_loran.csv") == loran_in
    assert read_records(read_loran_export, tmp_path / "timeline_loran.jsonl") == loran_in


def golden_timeline():
    """A fixed timeline covering every rendering case of the exports."""
    t1 = T0 + 1000
    t2 = T0 + 2250
    gps = [
        GpsFix(T0, 37.5, 127.25, 30.0, 1, 8, 1.0),
        GpsFix(t1, -33.86881667, -151.2093, -12.3, 2, 11, 0.85),
        GpsFix(t1 + 7, 0.0, -0.0, None, 1, 4, None),  # fix, no hdop/alt
        GpsFix(t2, None, None, None, 0, 0, None),  # no fix
    ]
    loran = [
        LoranMeasurement(T0, 9930, "M", 12345.6, 18.4, 0.1),
        LoranMeasurement(T0, 9930, "W", 31234.5, -3.5, -0.25),
        LoranMeasurement(T0, 7430, "X", 50000.0, 1e-05, 0.0),
        LoranMeasurement(t1, 9930, "M", 12345.7, 18.5, 0.2),
        LoranMeasurement(t2, 9930, "Y", 98000.1, 6.0, -1.5),
        LoranMeasurement(t2 + 999, 5990, "Z", 0.0, 40.0, 5.0),
    ]
    return merge_sort(gps, loran)


GOLDEN_DIGESTS = {
    "timeline_gps.csv":
        "cb805ef427196937ea99ad11f0e98711720a4dfb2f042945b731607dc78cc9bc",
    "timeline_loran.csv":
        "7fbac9f646efecd70ace71510f0a2d06a3f6165538463c411328dd2cf9bd0e03",
    "timeline_all.csv":
        "d9e56ed7f8d86398308d820bccc01b429a52422757839d1be0c05360d4e9214b",
    "timeline_gps.jsonl":
        "e4536feb1b849bcb8f905a692829248bd1986e53c012f58273bc0ad06b503709",
    "timeline_loran.jsonl":
        "2483a2640c8587b5bf83b8d5e83902e99f9711dca3f69a53b518b013253623d0",
    "timeline_all.jsonl":
        "b48f18c919662536e0c87db52adfb565ffc84e656d5ada46e62cdf2fde2493b1",
    MANIFEST_NAME:
        "5648745685f9391437e3926252fb39e4d7a6dae208dc2ba57b4514ac5496d835",
}


@given(st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, 12.5, -12.5, 12, 12.0, 0]) | st.floats(
    allow_nan=False, allow_infinity=False)] * 2), min_size=1, max_size=40))
def test_each_loran_value_renders_as_written(values):
    """``0.0`` and ``-0.0`` (and ``12`` and ``12.0``) compare and hash alike,
    but each renders as its own text, in any order within a block."""
    records = [LoranMeasurement(T0 + index, 9930, "M", 100.0, snr, ecd)
               for index, (snr, ecd) in enumerate(values)]
    with tempfile.TemporaryDirectory() as scratch:
        export([records], ("columns", "lines"), Path(scratch))
        rows = (Path(scratch) / "timeline_loran.csv").read_text().splitlines()[1:]
        members = [json.loads(line) for line in
                   (Path(scratch) / "timeline_loran.jsonl").read_text().splitlines()]
    expected = [(repr(snr), repr(ecd)) for snr, ecd in values]
    assert [tuple(row.split(",")[4:]) for row in rows] == expected
    assert [(repr(member["snr_db"]), repr(member["ecd_us"])) for member in members] == expected


def test_export_golden_digests(tmp_path):
    manifest = export(
        golden_timeline(), ("columns", "lines"), tmp_path,
        session_id="golden", parse_errors=lambda out: 1, quarantined=2, gap_threshold_s=1.0,
    )
    on_disk = {path.name: sha256_file(path) for path in tmp_path.iterdir()}
    assert on_disk == GOLDEN_DIGESTS
    assert {entry["path"]: entry["digest"] for entry in manifest["export_files"]} == {
        name: digest for name, digest in GOLDEN_DIGESTS.items() if name != MANIFEST_NAME
    }


def long_timeline():
    """Several thousand records, so the output crosses internal write blocks."""
    rng = random.Random(7)
    gps, loran = [], []
    for second in range(600):
        moment = T0 + second * 1000 + rng.choice((0, 0, 125))
        gps.append(fix_at(moment, lat=round(rng.uniform(-90, 90), 6), no_fix=second % 97 == 5))
        for role in "MWXY":
            loran.append(loran_at(moment, role=role, snr=round(rng.uniform(-5, 30), 1)))
    return merge_sort(gps, loran)


LONG_MANIFEST_DIGEST = "8f4329b8061b26ddc43076d2dcfc9189ed828ba06178edd0ff7e2c5ca46b0530"


def test_export_long_timeline_digest(tmp_path):
    export(long_timeline(), ("lines", "columns"), tmp_path, session_id="long")
    assert sha256_file(tmp_path / MANIFEST_NAME) == LONG_MANIFEST_DIGEST


def test_export_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export([], "parquet", tmp_path, session_id="s1")


def test_export_writes_and_lists_a_repeated_format_once(tmp_path):
    manifest = export([], ("columns", "columns"), tmp_path, session_id="s1")
    assert [entry["path"] for entry in manifest["export_files"]] == [
        "timeline_gps.csv",
        "timeline_loran.csv",
        "timeline_all.csv",
    ]


def test_export_failure_leaves_no_partial_files(tmp_path, monkeypatch):
    """A write failing partway through timeline_all.csv, after the other
    files and part of this one have gone out, leaves no file at all."""
    real_write = OutputSet.write
    written = []

    def failing_write(self, name, data):
        if name == "timeline_all.csv" and written.count(name):
            real_write(self, name, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "disk full")
        written.append(name)
        real_write(self, name, data)

    monkeypatch.setattr(OutputSet, "write", failing_write)
    with pytest.raises(OSError):
        export(sample_timeline(), ("columns", "lines"), tmp_path, session_id="s1")
    assert written.count("timeline_all.csv") == 1  # the header went out first
    assert written.count("timeline_gps.csv") == written.count("timeline_loran.csv") == 2
    assert list(tmp_path.iterdir()) == []  # finals and .tmp files alike


def test_export_failure_before_the_manifest_leaves_no_files(tmp_path):
    """A failure once the timeline is written, counting parse errors here,
    leaves no export without its manifest, nor the directory made for them."""
    def failing_count(out):
        raise OSError(errno.EIO, "parse error store unreadable")

    with pytest.raises(OSError):
        export(sample_timeline(), ("columns",), tmp_path / "out", session_id="s1",
               parse_errors=failing_count)
    assert list(tmp_path.rglob("*")) == []


def test_export_failure_while_renaming_removes_committed_files(tmp_path, monkeypatch):
    real_replace = os.replace
    renamed = []

    def failing_replace(src, dst):
        if os.path.basename(dst) == "timeline_all.jsonl":
            raise OSError(errno.EIO, "rename failed")
        renamed.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        export(sample_timeline(), ("columns", "lines"), tmp_path, session_id="s1")
    assert len(renamed) == 5  # every other file was already in place
    assert list(tmp_path.iterdir()) == []


def test_export_on_a_full_disk_leaves_no_files(tmp_path, monkeypatch):
    """On a full disk the bytes still buffered fail again when a file is
    closed for removal; every other file must be removed all the same."""
    real_open = open

    def full_disk_open(path, mode="r"):
        if os.path.basename(path) == "timeline_all.csv.tmp":
            real_open(path, mode).close()
            return real_open("/dev/full", mode)
        return real_open(path, mode)

    monkeypatch.setattr(fsutil, "open", full_disk_open, raising=False)
    with pytest.raises(OSError):
        export(long_timeline(), ("columns", "lines"), tmp_path, session_id="s1")
    assert list(tmp_path.iterdir()) == []


def test_export_empty_timeline(tmp_path):
    manifest = export([], "columns", tmp_path, session_id="s1")
    assert manifest["record_counts"]["gps_fix"] == 0
    assert manifest["time_span"] is None
    rows = (tmp_path / "timeline_gps.csv").read_text().splitlines()
    assert rows == [",".join(GPS_COLUMNS)]


def test_manifest_gap_list(tmp_path):
    gps = [
        fix_at(T0),
        fix_at(T0 + 120_000),
        fix_at(T0 + 1_320_000),  # 20-minute hole
    ]
    manifest = export(
        merge_sort(gps, []), "columns", tmp_path, session_id="s1", gap_threshold_s=600
    )
    assert manifest["gap_threshold_s"] == 600
    assert manifest["gap_list"] == [
        {"start": "2020-04-17T12:02:00.000Z", "end": "2020-04-17T12:22:00.000Z"}
    ]


# instants within 40 minutes on a coarse grid, so equal instants and gaps
# longer than a few minutes both occur
manifest_instants = st.integers(0, 2400).map(lambda second: T0 + second * 1000)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(fix_at, manifest_instants, no_fix=st.booleans()), max_size=30),
       st.lists(st.builds(loran_at, manifest_instants, role=st.sampled_from("MXY"),
                          gri=st.sampled_from([7430, 9930])), max_size=30),
       st.integers(1, 4), st.sampled_from([0, 1, 60, 300]))
def test_manifest_equals_the_list_based_summary(gps, loran, block, threshold):
    """The counts, time span and gaps ``export`` folds a block at a time
    equal those computed from lists of every record, with blocks small
    enough that runs of equal instants and gaps straddle them."""
    with unittest.mock.patch.object(convert, "_BLOCK_RECORDS", block), \
            tempfile.TemporaryDirectory() as scratch:
        manifest = export(merge_sort(gps, loran, window=None), "columns", Path(scratch),
                          gap_threshold_s=threshold)
    instants = [record.timestamp for record in (*gps, *loran)]
    stations = Counter(f"{obs.gri}{obs.station_role}" for obs in loran)
    assert manifest["record_counts"] == {
        "gps_fix": len(gps), "loran": len(loran), "loran_by_station": dict(sorted(stations.items())),
        "parse_errors": 0, "quarantined": 0}
    assert manifest["time_span"] == (
        {"first": iso_ms(min(instants)), "last": iso_ms(max(instants))} if instants else None)
    assert manifest["gap_list"] == [{"start": iso_ms(start), "end": iso_ms(end)}
                                    for start, end in reference_gaps(instants, threshold)]


# --- summary statistics --------------------------------------------------------


def fold_of(blocks, gap_threshold_s=DEFAULT_GAP_THRESHOLD_S):
    """A timeline folded a block at a time as ``stats`` folds it: each
    block's timestamp texts taken, and its SNR values folded."""
    fold = SummaryFold(gap_threshold_s)
    for block in blocks:
        fold.take(iso_ms(record.timestamp) for record in block)
        for record in block:
            if isinstance(record, LoranMeasurement):
                fold.snr[f"{record.gri}{record.station_role}"].append(record.snr_db)
        fold.fold_snr()
    return fold


def test_summarize_snr_stats():
    loran = [loran_at(T0 + i * 1000, snr=snr) for i, snr in enumerate((10.0, 12.0, 14.0))]
    assert summarize(fold_of(merge_sort([], loran))) == {"9930M": (3, 10.0, 12.0, 14.0)}


SNR_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, 12.5]))


@given(st.lists(st.lists(st.tuples(st.sampled_from("MX"), SNR_VALUES), max_size=20), max_size=8),
       st.integers(1, 40))
@example([[("M", 1e308), ("M", 1e308)]], 1)
@example([[("M", 1e308)], [("M", 1e308), ("M", -1e308)]], 1)
@example([[("M", -0.0), ("M", 0.0)], [("M", -0.0)]], 1)
def test_snr_fold_gives_the_count_min_mean_and_max_of_all_values(blocks, least):
    """SNR values folded a block at a time, once the stations hold *least*
    of them, give each station's count, min and max of all its values, and
    the mean ``math.fsum(values) / count``; where that sum overflows, the
    exact sum rounded over the count, or past the float range the exact
    mean rounded."""
    fold, values = SummaryFold(300.0), {}
    for block in blocks:
        for role, value in block:
            fold.snr["9930" + role].append(value)
            values.setdefault("9930" + role, []).append(value)
        fold.fold_snr(least)
    expected = {}
    for station, kept in sorted(values.items()):
        try:
            mean = math.fsum(kept) / len(kept)
        except OverflowError:
            exact = sum(map(Fraction, kept))
            try:
                mean = float(exact) / len(kept)
            except OverflowError:
                mean = float(exact / len(kept))
        expected[station] = repr((len(kept), min(kept), mean, max(kept)))
    assert {station: repr(stats) for station, stats in summarize(fold).items()} == expected


def test_summarize_splits_stations():
    loran = [
        loran_at(T0, role="M", snr=5.0),
        loran_at(T0 + 1000, role="X", snr=20.0),
        loran_at(T0 + 2000, role="M", snr=7.0),
    ]
    stations = summarize(fold_of(merge_sort([], loran)))
    assert list(stations) == ["9930M", "9930X"]
    assert stations["9930M"][0] == 2
    assert stations["9930X"][2] == 20.0


def test_summarize_gap_detection():
    gps = [
        fix_at(T0),
        fix_at(T0 + 120_000),
        fix_at(T0 + 7_200_000),
        fix_at(T0 + 7_260_000),
    ]
    fold = fold_of(merge_sort(gps, []), gap_threshold_s=300)
    assert fold.gaps == [
        (T0 + 120_000, T0 + 7_200_000),
    ]
    assert (fold.first, fold.last) == (T0, T0 + 7_260_000)


def test_summarize_empty_timeline():
    fold = fold_of([])
    assert fold.fixes == fold.no_fix == 0
    assert fold.bbox is None
    assert fold.first is None
    assert summarize(fold) == {}
    assert fold.gaps == []


def test_gap_exactly_at_threshold_is_not_a_gap():
    gps = [fix_at(T0), fix_at(T0 + 300_000)]
    assert fold_of(merge_sort(gps, []), gap_threshold_s=300).gaps == []


@given(st.lists(st.lists(st.integers(0, 40).map(lambda k: T0 + k * 250), max_size=15),
                max_size=6), st.sampled_from([0, 0.25, 0.2505, 0.75, 1, 3]))
@example([[T0, T0 + 250], [T0 + 1000, T0 + 1250], [T0 + 500, T0 + 750]], 0.25)  # a bridge
@example([[T0, T0 + 2500], [T0 + 1250]], 0.25)  # within a gap, which it splits
def test_take_gives_the_span_and_gaps_of_the_sorted_instants(sets, threshold):
    """Sets of timestamp texts taken one after another, each in any order
    and overlapping the others, give the span of all their instants and
    the gaps between consecutive ones sorted: a later set may join runs
    an earlier gap parted, or fall within a gap and leave it open."""
    taken = SummaryFold(threshold)
    for instants in sets:
        taken.take(map(iso_ms, instants))
    every = [instant for instants in sets for instant in instants]
    span = (min(every), max(every)) if every else (None, None)
    assert (taken.first, taken.last, taken.gaps) == (*span, reference_gaps(every, threshold))


def _week_date(moment):
    year, week, weekday = moment.isocalendar()
    return f"{year:04d}-W{week:02d}-{weekday}T{moment:%H:%M:%S}.{moment.microsecond // 1000:03d}Z"


# Each form ``parse_iso_ms`` accepts, written from the same instant; the
# first is the one ``iso_ms`` writes, and the week date has its length and
# separator positions.
TIMESTAMP_FORMS = (
    lambda moment: iso_ms(epoch_ms(moment)),
    _week_date,
    lambda moment: iso_ms(epoch_ms(moment))[:-1] + "z",
    lambda moment: iso_ms(epoch_ms(moment))[:-1],
    lambda moment: iso_ms(epoch_ms(moment))[:-1] + "+00:00",
    lambda moment: iso_ms(epoch_ms(moment)).replace("T", " "),
    lambda moment: iso_ms(epoch_ms(moment))[:-1] + "000Z",
    lambda moment: (moment + timedelta(hours=2)).strftime("%Y-%m-%dT%H:%M:%S.%f") + "+02:00",
)


@given(
    st.lists(
        st.tuples(st.datetimes(min_value=datetime(1000, 1, 1), max_value=datetime(9999, 12, 30)),
                  st.integers(0, len(TIMESTAMP_FORMS) - 1), st.integers(1, 3)),
        min_size=1, max_size=12,
    ),
    st.sampled_from(["csv", "jsonl"]),
)
def test_reader_hands_on_each_timestamp_as_iso_ms_text(rows, extension):
    """Every timestamp text the reader passes on, its own or made, is
    ``iso_ms(parse_iso_ms(text))``, in both formats and for runs of one
    text, and every other cell is ``str()`` of its checked value."""
    texts = [TIMESTAMP_FORMS[form](moment.replace(microsecond=moment.microsecond // 1000 * 1000))
             for moment, form, repeat in rows for _ in range(repeat)]
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / f"timeline_loran.{extension}"
        if extension == "csv":
            path.write_text(",".join(LORAN_COLUMNS) + "\n"
                            + "".join(f"{text},9930,M,100.0,12.0,0.5\n" for text in texts))
        else:
            path.write_text("".join(json.dumps({"timestamp": text, "gri": 9930, "station_role": "M",
                                                "toa_us": 100.0, "snr_db": 12.0, "ecd_us": 0.5})
                                    + "\n" for text in texts))
        passed = []
        read_loran_export(path, passed.extend, {})
    assert [row[0] for row in passed] == [iso_ms(parse_iso_ms(text)) for text in texts]
    assert all(tuple(row[1:]) == ("9930", "M", "100.0", "12.0", "0.5") for row in passed)


def test_reader_passes_on_the_callbacks_own_errors(tmp_path):
    """An error raised by *emit* is the caller's, not a fault of the file:
    it comes out as raised, without the file and line an export's own
    faults are named by."""
    path = tmp_path / "timeline_loran.csv"
    path.write_text(",".join(LORAN_COLUMNS) + "\n2020-04-17T12:00:00.000Z,9930,M,100.0,12.0,0.5\n")

    def emit(rows):
        raise ValueError("the caller's fault")

    with pytest.raises(ValueError) as caught:
        read_loran_export(path, emit, {})
    assert str(caught.value) == "the caller's fault"
