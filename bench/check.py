"""Compare the program's outputs to the generator's expected values.

Every check returns a list of problems (empty when the output is right),
so a run can count failed operations instead of stopping at the first.
Exports are read with the standard library and compared numerically to
the expected records; nothing here imports ``gpsloran``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime, timezone
from pathlib import Path

GAP_THRESHOLD_S = 300.0
_DAY_EPOCH: dict[str, int] = {}


def ts_ms(text: str) -> int:
    """``YYYY-MM-DDTHH:MM:SS.mmmZ`` to epoch milliseconds."""
    day = _DAY_EPOCH.get(text[:10])
    if day is None:
        moment = datetime.strptime(text[:10], "%Y-%m-%d").replace(tzinfo=timezone.utc)
        day = _DAY_EPOCH[text[:10]] = round(moment.timestamp()) * 1000
    if len(text) != 24 or text[10] != "T" or text[23] != "Z":
        raise ValueError(f"bad timestamp {text!r}")
    return (day + int(text[11:13]) * 3_600_000 + int(text[14:16]) * 60_000
            + int(text[17:19]) * 1000 + int(text[20:23]))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _opt(value, kind):
    return None if value in ("", None) else kind(value)


def _gps_row(row: dict) -> tuple:
    return ("gps", ts_ms(row["timestamp"]), _opt(row.get("lat_deg"), float),
            _opt(row.get("lon_deg"), float), _opt(row.get("alt_m"), float),
            int(row["fix_quality"]), int(row["num_sats"]), _opt(row.get("hdop"), float))


def _loran_row(row: dict) -> tuple:
    return ("loran", ts_ms(row["timestamp"]), int(row["gri"]), row["station_role"],
            float(row["toa_us"]), float(row["snr_db"]), float(row["ecd_us"]))


def _all_row(row: dict) -> tuple:
    kind = row.get("record_type")
    if kind == "gps_fix":
        return _gps_row(row)
    if kind == "loran":
        return _loran_row(row)
    raise ValueError(f"unknown record_type {kind!r}")


def same_record(got: tuple, want: tuple) -> bool:
    if got == want:
        return True
    if len(got) != len(want) or got[:2] != want[:2]:
        return False
    for a, b in zip(got[2:], want[2:]):
        if isinstance(b, float) and isinstance(a, float):
            if not math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9):
                return False
        elif a != b:
            return False
    return True


def _read_rows(path: Path) -> list[dict]:
    if path.suffix == ".jsonl":
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def compare_rows(path: Path, parse_row, want: list[tuple]) -> list[str]:
    name = f"{path.parent.name}/{path.name}"
    try:
        got = [parse_row(row) for row in _read_rows(path)]
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"{name}: unreadable: {exc}"]
    problems = []
    if len(got) != len(want):
        problems.append(f"{name}: {len(got)} rows, expected {len(want)}")
    for index, (a, b) in enumerate(zip(got, want)):
        if not same_record(a, b):
            problems.append(f"{name}: row {index + 1} is {a}, expected {b}")
            break
    return problems


def gaps(timeline: list[tuple]) -> list[tuple[int, int]]:
    return [(a[1], b[1]) for a, b in zip(timeline, timeline[1:])
            if b[1] - a[1] > GAP_THRESHOLD_S * 1000]


def check_classified(classified_dir: Path, expected: dict) -> list[str]:
    """Every raw line sits in exactly one class file, in stream order."""
    classified_dir = Path(classified_dir)
    got = {p.stem: p.read_bytes() for p in classified_dir.glob("*.txt")}
    want = {label: b"".join(line + b"\n" for line in lines)
            for label, lines in expected["classes"].items()}
    problems = []
    for label in sorted(set(got) | set(want)):
        if got.get(label) != want.get(label):
            problems.append(f"{classified_dir.name}/{label}.txt differs from the expected lines")
    try:
        report = json.loads((classified_dir / "report.json").read_text())
        total = sum(len(lines) for lines in expected["classes"].values())
        if report["total_lines"] != total or report["quarantined_lines"] != expected["quarantined"]:
            problems.append(f"{classified_dir.name}/report.json counts differ")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"{classified_dir.name}/report.json unreadable: {exc}")
    return problems


def check_exports(exports_dir: Path, expected: dict, formats: tuple[str, ...]) -> list[str]:
    """Exports equal the expected records; the manifest matches the files."""
    exports_dir = Path(exports_dir)
    try:
        manifest = json.loads((exports_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"{exports_dir.name}/manifest.json unreadable: {exc}"]
    problems = []
    timeline = expected["timeline"]
    gps = [r for r in timeline if r[0] == "gps"]
    loran = [r for r in timeline if r[0] == "loran"]
    stations: dict[str, int] = {}
    for record in loran:
        key = f"{record[2]}{record[3]}"
        stations[key] = stations.get(key, 0) + 1
    want_counts = {"gps_fix": len(gps), "loran": len(loran),
                   "loran_by_station": dict(sorted(stations.items())),
                   "parse_errors": len(expected["errors"]),
                   "quarantined": expected["quarantined"]}
    if manifest.get("record_counts") != want_counts:
        problems.append(f"{exports_dir.name}: manifest counts {manifest.get('record_counts')}, "
                        f"expected {want_counts}")
    span = manifest.get("time_span")
    if timeline and (not span or ts_ms(span["first"]) != timeline[0][1]
                     or ts_ms(span["last"]) != timeline[-1][1]):
        problems.append(f"{exports_dir.name}: manifest time span {span} is wrong")
    got_gaps = [(ts_ms(g["start"]), ts_ms(g["end"])) for g in manifest.get("gap_list", [])]
    if got_gaps != gaps(timeline):
        problems.append(f"{exports_dir.name}: manifest gap list is wrong")

    listed = {entry["path"]: entry for entry in manifest.get("export_files", [])}
    for fmt, ext in (("columns", "csv"), ("lines", "jsonl")):
        names = [f"timeline_gps.{ext}", f"timeline_loran.{ext}", f"timeline_all.{ext}"]
        present = [n for n in names if (exports_dir / n).exists()]
        if fmt not in formats:
            if present:
                problems.append(f"{exports_dir.name}: unexpected {fmt} exports")
            continue
        for name in names:
            entry = listed.get(name)
            if entry is None or not (exports_dir / name).exists():
                problems.append(f"{exports_dir.name}/{name} missing or not in the manifest")
            elif sha256_file(exports_dir / name) != entry["digest"]:
                problems.append(f"{exports_dir.name}/{name} digest differs from the manifest")
        problems += compare_rows(exports_dir / names[0], _gps_row, gps)
        problems += compare_rows(exports_dir / names[1], _loran_row, loran)
        problems += compare_rows(exports_dir / names[2], _all_row, timeline)

    try:
        rows = _read_rows(exports_dir / "parse_errors.jsonl")
        got_errors = sorted((r["source_file"], r["line_number"], r["raw"]) for r in rows)
        if got_errors != sorted(tuple(e) for e in expected["errors"]):
            problems.append(f"{exports_dir.name}/parse_errors.jsonl differs from the expected errors")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"{exports_dir.name}/parse_errors.jsonl unreadable: {exc}")
    return problems


def check_segment(session_dir: Path, name: str, expected: dict, formats) -> list[str]:
    stem = Path(name).stem
    return (check_classified(Path(session_dir) / "classified" / stem, expected)
            + check_exports(Path(session_dir) / "exports" / stem, expected, tuple(formats)))


def judge(session_dir: Path, name: str, expected: dict, formats,
          known_fault: dict | None = None) -> tuple[list[str], bool]:
    """A segment's problems, and whether its outputs are exactly those of a
    known fault: wrong against *expected* but equal to *known_fault*."""
    problems = check_segment(session_dir, name, expected, formats)
    known = (bool(problems) and known_fault is not None
             and not check_segment(session_dir, name, known_fault, formats))
    return problems, known


def check_capture(session_dir: Path, fed: bytes) -> tuple[list[str], list[tuple[str, int, int]]]:
    """The raw segments, in order, concatenate to exactly the fed bytes.

    Returns the problems and each segment's (name, start, end) byte span.
    """
    session_dir = Path(session_dir)
    spans, offset, problems = [], 0, []
    names = []
    for line in (session_dir / "events.jsonl").read_text().splitlines():
        event = json.loads(line)
        if event.get("event") == "segment_closed":
            names.append(event["segment"])
    for name in names:
        data = (session_dir / name).read_bytes()
        if fed[offset:offset + len(data)] != data:
            problems.append(f"{name}: bytes differ from the fed stream at offset {offset}")
        spans.append((name, offset, offset + len(data)))
        offset += len(data)
    if offset != len(fed):
        problems.append(f"captured {offset} bytes, fed {len(fed)}")
    return problems, spans


def check_stats(stdout: str, out_dir: Path, timeline: list[tuple]) -> list[str]:
    """``gpsloran stats`` over a session: counts, SNR summaries, gaps, series."""
    fixes = [r for r in timeline if r[0] == "gps" and r[5] != 0]
    snr: dict[str, list[float]] = {}
    for record in timeline:
        if record[0] == "loran":
            snr.setdefault(f"{record[2]}{record[3]}", []).append(record[5])
    lines = stdout.splitlines()
    fields = dict(part.split("=", 1) for part in (lines[0].split() if lines else []))
    want = {"records": str(len(timeline)), "gps_fixes": str(len(fixes)),
            "no_fix": str(sum(1 for r in timeline if r[0] == "gps" and r[5] == 0)),
            "loran": str(sum(len(v) for v in snr.values()))}
    problems = [] if fields == want else [f"stats totals {fields}, expected {want}"]
    station_lines = {}
    for line in lines:
        if line.startswith("station="):
            parts = dict(part.split("=", 1) for part in line.split())
            station_lines[parts["station"]] = parts
    if sorted(station_lines) != sorted(snr):
        problems.append(f"stats stations {sorted(station_lines)}, expected {sorted(snr)}")
    for station, values in snr.items():
        parts = station_lines.get(station)
        if parts is None:
            continue
        mean = math.fsum(values) / len(values)
        if (int(parts["count"]) != len(values) or float(parts["snr_min"]) != min(values)
                or float(parts["snr_max"]) != max(values)
                or not math.isclose(float(parts["snr_mean"]), mean, rel_tol=1e-9)):
            problems.append(f"stats for station {station} are wrong: {parts}")
        path = Path(out_dir) / f"snr_{station}.csv"
        if not path.exists() or len(path.read_text().splitlines()) != len(values) + 1:
            problems.append(f"{path.name} does not hold {len(values)} rows")
    if f"gaps={len(gaps(timeline))}" not in lines:
        problems.append("stats gap count is wrong")
    fix_path = Path(out_dir) / "gps_fixes.csv"
    if not fix_path.exists() or len(fix_path.read_text().splitlines()) != len(fixes) + 1:
        problems.append("gps_fixes.csv row count is wrong")
    return problems
