"""The checker rejects deliberately wrong exports.

Run with ``python3 -m pytest bench/test_check.py`` or as part of
``python3 bench/run.py --selfcheck``.  A small generated segment goes
through ``gpsloran classify`` and ``gpsloran convert``; the checker must
pass the untouched output and reject each mutated copy, even when the
manifest digest is re-stamped to match the mutated file.  The multi-day
segment that the date-context fault misdates counts as that known fault
only while its outputs are exactly the fault's; any other wrong output of
it is a problem.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import check
import gen

ROOT = Path(__file__).resolve().parent.parent


def _restamp(exports: Path, name: str) -> None:
    manifest_path = exports / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["export_files"]:
        if entry["path"] == name:
            entry["digest"] = check.sha256_file(exports / name)
    manifest_path.write_text(json.dumps(manifest))


def _edit_lines(path: Path, edit) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(edit(lines)))


def _misdate(lines):
    row = lines[5].decode()
    day = gen.datetime.fromisoformat(row[:10]) + gen.timedelta(days=1)
    lines[5] = (f"{day:%Y-%m-%d}" + row[10:]).encode()
    return lines


def _swap(lines):
    lines[3], lines[4] = lines[4], lines[3]
    return lines


def _drop(lines):
    del lines[6]
    return lines


MUTATIONS = {
    "a misdated row": ("exports", "timeline_all.csv", _misdate),
    "two swapped rows": ("exports", "timeline_gps.csv", _swap),
    "a dropped export row": ("exports", "timeline_loran.csv", _drop),
    "a dropped raw line": ("classified", "P_LRM.txt", _drop),
}


def _process(base: Path, segment: gen.Segment) -> None:
    """``gpsloran classify`` and ``convert`` of *segment* in session *base*."""
    stem = Path(segment.name).stem
    base.mkdir(parents=True, exist_ok=True)
    raw = base / segment.name
    raw.write_bytes(segment.stream.to_bytes())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv in (["classify", "--segment", str(raw), "--out", str(base / "classified" / stem)],
                 ["convert", "--classified", str(base / "classified" / stem),
                  "--out", str(base / "exports" / stem), "--format", "columns"]):
        subprocess.run([sys.executable, "-m", "gpsloran.cli", *argv], cwd=ROOT, env=env,
                       check=True, capture_output=True, timeout=120)


def _mutate(base: Path, copy: Path, stem: str, kind: str, file_name: str, edit) -> None:
    shutil.copytree(base, copy)
    _edit_lines(copy / kind / stem / file_name, edit)
    if kind == "exports":
        _restamp(copy / kind / stem, file_name)


def mutations_caught(work: Path) -> dict[str, bool]:
    """Map each mutation (and the untouched output) to whether the checker
    judged it correctly."""
    segment = gen.batch_segments("day-dense", 7, 1, 300)[0]
    stem = Path(segment.name).stem
    base = work / "base"
    _process(base, segment)
    expected = segment.stream.expected()
    verdicts = {"the untouched output":
                not check.check_segment(base, segment.name, expected, ["columns"])}
    for index, (name, (kind, file_name, edit)) in enumerate(MUTATIONS.items()):
        copy = work / f"mutant-{index}"
        _mutate(base, copy, stem, kind, file_name, edit)
        verdicts[name] = bool(check.check_segment(copy, segment.name, expected, ["columns"]))

    multiday = gen.multiday_segment()
    stem = Path(multiday.name).stem
    right = multiday.stream.expected()
    misdated = gen.multiday_misdated(multiday.stream).expected()
    base = work / "multiday"
    _process(base, multiday)
    problems, known = check.judge(base, multiday.name, right, ["columns"], misdated)
    verdicts["the untouched multi-day segment (right, or exactly the known fault)"] = (
        not problems or known)
    copy = work / "multiday-mutant"
    _mutate(base, copy, stem, "exports", "timeline_gps.csv", _drop)
    problems, known = check.judge(copy, multiday.name, right, ["columns"], misdated)
    verdicts["a dropped row in the multi-day segment, as a problem"] = bool(problems) and not known
    return verdicts


def test_checker_rejects_wrong_exports(tmp_path):
    verdicts = mutations_caught(tmp_path)
    assert all(verdicts.values()), verdicts
