import calendar
import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import unittest.mock
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsloran import cli, convert, parse
from gpsloran.cli import main
from gpsloran.convert import (MANIFEST_NAME, export, merge_sort, read_gps_export,
                              read_loran_export)
from gpsloran.fsutil import read_json
from gpsloran.orchestrate import STATE_NAME, StateStore
from gpsloran.parse import GpsFix, LoranMeasurement
from gpsloran.simulate import Scenario, generate_stream
from gpsloran.timeutil import iso_ms

from conftest import (crlf, gga_line, ms, plrm_line, read_records, reference_gaps, sentence,
                      utc, zda_line)


def scenario_file(tmp_path, **overrides):
    payload = {
        "seed": 3,
        "start": "2020-04-17T00:00:00.000Z",
        "duration_s": 60,
        "gps_rate_hz": 1.0,
        "stations": [{"gri": 9930, "role": "M", "rate_hz": 0.1}],
    }
    payload.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return path


def segment_file(tmp_path):
    path = tmp_path / "raw_20200417T120000Z.log"
    path.write_bytes(
        crlf(
            zda_line(utc(2020, 4, 17, 12, 0, 0)),
            gga_line(tod="120001.000"),
            plrm_line(tod="120002.000"),
            b"#garbage",
        )
    )
    return path


def test_log_timestamps_are_utc(monkeypatch):
    created = calendar.timegm((2020, 4, 17, 16, 32, 5))  # 01:32 the next day in Seoul
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])  # let basicConfig install its handler
    monkeypatch.setattr(root, "level", root.level)
    monkeypatch.setenv("TZ", "Asia/Seoul")
    time.tzset()
    try:
        assert time.localtime(created).tm_hour == 1  # the local zone is in effect
        cli._setup_logging()
        record = logging.LogRecord("gpsloran", logging.INFO, __file__, 1, "hello", None, None)
        record.created, record.msecs = created, 250.0
        line = root.handlers[0].format(record)
    finally:
        monkeypatch.undo()
        time.tzset()
    assert line.startswith("ts=2020-04-17T16:32:05.250Z level=INFO ")


def test_no_arguments_is_an_error(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_is_an_error():
    assert main(["launch"]) == 1


def test_classify_command(tmp_path, capsys):
    segment = segment_file(tmp_path)
    out = tmp_path / "classified"
    assert main(["classify", "--segment", str(segment), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        '{"segment": "raw_20200417T120000Z.log", "total_lines": 4, "quarantined_lines": 1, '
        '"counts": {"GPGGA": 1, "GPZDA": 1, "P_LRM": 1, "quarantine": 1}, '
        '"output_paths": {"GPGGA": "GPGGA.txt", "GPZDA": "GPZDA.txt", "P_LRM": "P_LRM.txt", '
        '"quarantine": "quarantine.txt"}, '
        '"checksum_counts": {"valid": 3, "invalid": 0, "absent": 1}, '
        '"trailing_unterminated": false}\n'
    )
    assert (out / "report.json").read_text() == """{
  "checksum_counts": {
    "absent": 1,
    "invalid": 0,
    "valid": 3
  },
  "counts": {
    "GPGGA": 1,
    "GPZDA": 1,
    "P_LRM": 1,
    "quarantine": 1
  },
  "output_paths": {
    "GPGGA": "GPGGA.txt",
    "GPZDA": "GPZDA.txt",
    "P_LRM": "P_LRM.txt",
    "quarantine": "quarantine.txt"
  },
  "quarantined_lines": 1,
  "segment": "raw_20200417T120000Z.log",
  "total_lines": 4,
  "trailing_unterminated": false
}
"""
    assert (out / "GPGGA.txt").exists()


def test_classify_then_convert_then_stats(tmp_path, capsys):
    segment = segment_file(tmp_path)
    classified = tmp_path / "classified"
    exports = tmp_path / "exports"
    assert main(["classify", "--segment", str(segment), "--out", str(classified)]) == 0
    capsys.readouterr()

    assert (
        main(
            [
                "convert",
                "--classified",
                str(classified),
                "--out",
                str(exports),
                "--format",
                "columns",
                "--session-id",
                "cli-test",
            ]
        )
        == 0
    )
    counts = json.loads(capsys.readouterr().out)
    assert counts["gps_fix"] == 1
    assert counts["loran"] == 1
    assert counts["quarantined"] == 1
    gps = read_records(read_gps_export, exports / "timeline_gps.csv")
    assert gps[0].timestamp == ms(2020, 4, 17, 12, 0, 1)

    # stats wants a session layout: exports/<segment>/...
    session = tmp_path / "session"
    target = session / "exports" / "raw_20200417T120000Z"
    target.mkdir(parents=True)
    for path in exports.iterdir():
        (target / path.name).write_bytes(path.read_bytes())
    assert main(["stats", "--session", str(session)]) == 0
    out = capsys.readouterr().out
    assert "records=2 gps_fixes=1 no_fix=0 loran=1" in out
    assert "station=9930M" in out
    fixes = (session / "stats" / "gps_fixes.csv").read_text().splitlines()
    assert fixes[0] == "timestamp,lat_deg,lon_deg,alt_m"
    assert len(fixes) == 2
    snr = (session / "stats" / "snr_9930M.csv").read_text().splitlines()
    assert snr == ["timestamp,snr_db", "2020-04-17T12:00:02.000Z,12.0"]


def test_convert_start_date_fallback(tmp_path, capsys):
    segment = tmp_path / "seg.log"
    segment.write_bytes(crlf(gga_line(tod="120000.000")))
    classified = tmp_path / "classified"
    main(["classify", "--segment", str(segment), "--out", str(classified)])
    capsys.readouterr()

    # without a date source the conversion must fail loudly
    missing = main(["convert", "--classified", str(classified), "--out", str(tmp_path / "x")])
    assert missing == 1
    assert "error:" in capsys.readouterr().err

    exports = tmp_path / "exports"
    code = main(
        [
            "convert",
            "--classified",
            str(classified),
            "--out",
            str(exports),
            "--start-date",
            "2021-06-01",
        ]
    )
    assert code == 0
    capsys.readouterr()
    gps = read_records(read_gps_export, exports / "timeline_gps.csv")
    assert gps[0].timestamp == ms(2021, 6, 1, 12, 0, 0)


def test_record_replay_and_recover_roundtrip(tmp_path, capsys):
    scenario = scenario_file(tmp_path)
    stream_path = tmp_path / "stream.bin"
    assert (
        main(["simulate", "generate", "--scenario", str(scenario), "--out", str(stream_path)])
        == 0
    )
    summary = json.loads(capsys.readouterr().out)
    assert summary["gps_records"] == 60
    assert summary["loran_records"] == 6
    assert summary["sentences"] == 72

    out_dir = tmp_path / "capture"
    code = main(
        [
            "record",
            "--source",
            f"replay:{stream_path}",
            "--out",
            str(out_dir),
            "--session-id",
            "rec1",
            "--replay-speed",
            "0",
            "--rotate",
            "24h",
        ]
    )
    assert code == 0
    session_dir = out_dir / "rec1"
    raw = b"".join(p.read_bytes() for p in sorted(session_dir.glob("raw_*.log")))
    assert raw == stream_path.read_bytes()
    # record is capture-only: processing happens via recover or run
    state = StateStore.load(session_dir / STATE_NAME)
    assert all(entry.stage == "recorded" for entry in state.entries)

    assert main(["recover", "--state", str(session_dir)]) == 0
    state = StateStore.load(session_dir / STATE_NAME)
    assert all(entry.stage == "converted" for entry in state.entries)
    export_dirs = list((session_dir / "exports").iterdir())
    assert len(export_dirs) == 1
    manifest = read_json(export_dirs[0] / MANIFEST_NAME)
    assert manifest["record_counts"]["gps_fix"] == 60
    assert manifest["record_counts"]["loran"] == 6


def test_run_command_with_config(tmp_path, capsys):
    scenario = scenario_file(tmp_path)
    stream_path = tmp_path / "stream.bin"
    main(["simulate", "generate", "--scenario", str(scenario), "--out", str(stream_path)])
    capsys.readouterr()

    config = {
        "source": f"replay:{stream_path}",
        "out_dir": str(tmp_path / "sessions"),
        "session_id": "run1",
        "rotation": "24h",
        "replay_speed": 0,
        "inline_processing": True,
        "formats": ["columns", "lines"],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 0

    session_dir = tmp_path / "sessions" / "run1"
    state = StateStore.load(session_dir / STATE_NAME)
    assert all(entry.stage == "converted" for entry in state.entries)
    exports = sorted((session_dir / "exports").iterdir())
    loran = read_records(read_loran_export, exports[0] / "timeline_loran.jsonl")
    assert len(loran) == 6


def test_the_documented_examples_parse():
    """README's ``run`` config and the scenario in ``simulate``'s module
    docstring parse as the code reads them, so an example that drifts from
    the code fails here.  The ``run`` example shows the defaults: apart from
    its source, directory and session id, it reads as a config of only those."""
    import textwrap
    from gpsloran import orchestrate, simulate
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    config = json.loads(readme.split("### `run` config", 1)[1].split("```json\n", 1)[1]
                        .split("```", 1)[0])
    settings = orchestrate.pipeline_settings(config)
    assert settings["formats"] == config["formats"]
    bare = orchestrate.pipeline_settings({key: config[key] for key in
                                          ("source", "out_dir", "session_id")})

    def comparable(settings):  # each policy and clock by its class and fields
        return {key: (type(value), vars(value)) if hasattr(value, "__dict__") else value
                for key, value in settings.items()}

    assert comparable(settings) == comparable(bare)
    example = simulate.__doc__.split("Scenario files are JSON::", 1)[1].split("\n\n", 2)[1]
    scenario = simulate.Scenario.from_json(json.loads(textwrap.dedent(example)))
    assert [station.gri for station in scenario.stations] == [9930]


def test_run_command_requires_source_and_out_dir(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"out_dir": "/tmp/x"}))
    assert main(["run", "--config", str(config_path)]) == 1
    assert "source" in capsys.readouterr().err


@pytest.mark.parametrize("config", [["source", "out_dir"], "source out_dir", 5, None])
def test_run_rejects_a_config_that_is_not_an_object(tmp_path, capsys, config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert "error: config must be a JSON object" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("formats", [["csv"], ["columns", "csv"], "csv", 5, [["columns"]]])
def test_run_rejects_unknown_export_format_before_capture(tmp_path, capsys, formats):
    stream_path = tmp_path / "stream.bin"
    stream_path.write_bytes(gga_line() + b"\r\n")
    config = {
        "source": f"replay:{stream_path}",
        "out_dir": str(tmp_path / "sessions"),
        "replay_speed": 0,
        "on_eof": "stop",
        "inline_processing": True,
        "formats": formats,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 1
    assert "error: unknown export format: " in capsys.readouterr().err
    assert not (tmp_path / "sessions").exists()


@pytest.mark.parametrize("interval", ["1e400", "NaN", "0.0001"])
def test_run_rejects_a_rotation_interval_of_no_whole_ms(tmp_path, capsys, interval):
    """JSON's rule rejects an interval that is no finite number, and the
    rotation policy one of less than 1 ms; either error names the key."""
    stream_path = tmp_path / "stream.bin"
    stream_path.write_bytes(gga_line() + b"\r\n")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        f'{{"source": "replay:{stream_path}", "out_dir": "{tmp_path / "sessions"}", '
        f'"rotation": {{"mode": "fixed-interval", "interval_s": {interval}}}}}'
    )
    assert main(["run", "--config", str(config_path)]) == 1
    assert ("error: config key 'rotation': rotation interval must be finite and >= 1 ms: "
            if interval == "0.0001" else
            "error: config key 'rotation.interval_s' must be a finite number: "
            ) in capsys.readouterr().err
    assert not (tmp_path / "sessions").exists()


@pytest.mark.parametrize("path,value", [
    ("clock", "system"), ("rotation", 3600), ("retry", [1]), ("gap_threshold_s", "300"),
    ("gap_threshold_s", True), ("formats", []), ("quarantine_invalid", "no"),
    ("on_eof", "halt"), ("source", 5), ("source", ["replay:x"]), ("out_dir", 5),
    ("session_id", 5), ("max_workers", 0), ("max_workers", 1.5),
    ("retry.max_attempts", 0), ("retry.max_attempts", 2.5), ("retry.initial_delay_s", -1),
    ("retry.initial_delay_s", math.inf), ("retry.initial_delay_s", math.nan),
    ("clock.factor", math.inf), ("clock.factor", math.nan), ("clock.factor", 0),
    ("rotation.bogus", 1), ("retry.bogus", 1), ("session_id", ".."), ("session_id", "a/b"),
    ("retry.initial_delay_s", 1e300), ("retry.max_delay_s", 1e300), ("replay_speed", 1e308),
    ("clock.factor", {"kind": "accelerated", "start": "2020-04-17T00:00:00.000Z", "factor": 1e300}),
    ("clock.factor", {"kind": "accelerated", "start": "2020-04-17T00:00:00.000Z", "factor": 1e-300}),
    ("rotation", "abc"), ("clock.start", "x"), ("clock.start", {"kind": "system", "start": "x"}),
    ("clock.factor", {"kind": "system", "factor": 2.0}),
    ("source", "tcp:host:abc"), ("source", "tcp::"), ("source", "tcp:127.0.0.1:-1"),
    ("source", "tcp:127.0.0.1:70000"), ("source", "ftp:host:1"), ("source", "replay:"),
])
def test_run_rejects_a_wrong_typed_config_value_before_capture(tmp_path, capsys, path, value):
    """A config value of the wrong type or out of range, or a source text
    that names no source, is an error naming its key path
    (``retry.max_attempts`` is that key of the ``retry`` object, whose other
    keys an object value gives), found before the session directory is
    made."""
    stream_path = tmp_path / "stream.bin"
    stream_path.write_bytes(gga_line() + b"\r\n")
    config = {"source": f"replay:{stream_path}", "out_dir": str(tmp_path / "sessions"),
              "replay_speed": 0, "inline_processing": True}
    key, _, name = path.partition(".")
    config[key] = {name: value} if name and type(value) is not dict else value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))  # Infinity and NaN as JSON's readers take them
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert f"error: config key {path!r}" in err  # the quotes end the path
    assert "Traceback" not in err
    assert not (tmp_path / "sessions").exists()


def test_recover_corrupt_state_exits_1(tmp_path):
    session_dir = tmp_path / "session"
    session_dir.mkdir()
    (session_dir / STATE_NAME).write_text("{broken")
    assert main(["recover", "--state", str(session_dir)]) == 1


def test_stats_without_exports_is_an_error(tmp_path, capsys):
    session = tmp_path / "empty"
    session.mkdir()
    assert main(["stats", "--session", str(session)]) == 1
    assert "no exports" in capsys.readouterr().err


def test_stats_station_filter(tmp_path, capsys):
    target = tmp_path / "session" / "exports" / "raw_20200417T120000Z"
    target.mkdir(parents=True)
    segment = segment_file(tmp_path)
    classified = tmp_path / "classified"
    main(["classify", "--segment", str(segment), "--out", str(classified)])
    main(["convert", "--classified", str(classified), "--out", str(target)])
    capsys.readouterr()
    session = tmp_path / "session"
    assert main(["stats", "--session", str(session), "--station", "9930M"]) == 0
    assert (session / "stats" / "snr_9930M.csv").exists()


def stats_session(tmp_path):
    """Two exported segments: the first in both formats (stats reads its
    CSV), the second as JSON lines only, ten minutes later (a gap)."""
    t0 = ms(2020, 4, 17, 12, 0, 0)
    first_gps = [
        GpsFix(t0, 37.123456789, 127.5, 30.25, 1, 8, 0.9),
        GpsFix(t0 + 1000, 37.1234, 127.5001, None, 2, 6, None),  # no altitude
        GpsFix(t0 + 2000, None, None, None, 0, 0, None),  # no fix
    ]
    first_loran = []
    for second in range(3):
        at = t0 + second * 1000
        first_loran += [
            LoranMeasurement(at + 50, 7430, "M", 100.5, 3.25 + second, 0.1),
            LoranMeasurement(at + 120, 9930, "M", 2000.0, -1.5, 0.0),
            LoranMeasurement(at + 275, 7430, "Y", 310.0, 1e-05, -0.4),
            LoranMeasurement(at + 350, 9930, "X", 45678.9, 17.75, 2.5),
        ]
    t1 = t0 + 600_000
    second_gps = [GpsFix(t1, -33.9, -151.25, 5.0, 1, 12, 0.7)]
    second_loran = [
        LoranMeasurement(t1, 9930, "X", 45679.0, 18.0, 2.5),
        LoranMeasurement(t1 + 1, 7430, "M", 101.0, 4.0, 0.2),
    ]
    session = tmp_path / "session"
    exports = session / "exports"
    export(merge_sort(first_gps, first_loran), ("columns", "lines"),
           exports / "raw_20200417T120000Z")
    export(merge_sort(second_gps, second_loran), "lines", exports / "raw_20200417T121000Z")
    return session


def test_stats_golden_digests(tmp_path, capsys):
    """Pins ``stats`` stdout and every series file, without and with a
    station filter (present and absent); the digests were computed with
    the reader and series code that predates the one-read rewrite."""
    session = stats_session(tmp_path)
    digests = {}
    for run, extra in (("all", []), ("present", ["--station", "7430Y"]),
                       ("absent", ["--station", "8970M"])):
        out = tmp_path / run
        assert main(["stats", "--session", str(session), "--out", str(out), *extra]) == 0
        digests[f"{run}/stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        for path in sorted(out.iterdir()):
            digests[f"{run}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == STATS_GOLDEN


LORAN_HEADER = "timestamp,gri,station_role,toa_us,snr_db,ecd_us\n"
LORAN_ROW = "2020-04-17T12:00:00.000Z,9930,M,100.0,12.0,0.5\n"
LORAN_JSON = (
    '{"timestamp":"2020-04-17T12:00:00.000Z","gri":9930,"station_role":"M",'
    '"toa_us":100.0,"snr_db":12.0,"ecd_us":0.5}\n'
)
GPS_HEADER = "timestamp,lat_deg,lon_deg,alt_m,fix_quality,num_sats,hdop\n"
GPS_ROW = "2020-04-17T12:00:00.000Z,37.0,127.0,30.0,1,8,0.9\n"
GPS_JSON = (
    '{"timestamp":"2020-04-17T12:00:00.000Z","lat_deg":37.0,"lon_deg":127.0,'
    '"alt_m":30.0,"fix_quality":1,"num_sats":8,"hdop":0.9}\n'
)


@pytest.mark.parametrize(
    "name, text, line, problem",
    [
        ("timeline_loran.csv", LORAN_HEADER + LORAN_ROW + LORAN_ROW[:-5] + "\n", 3,
         "5 cells, header has 6"),
        ("timeline_loran.csv", LORAN_HEADER + LORAN_ROW[:-1] + ",7\n", 2,
         "7 cells, header has 6"),
        ("timeline_loran.csv",
         LORAN_HEADER.replace("gri,", "") + LORAN_ROW.replace("9930,", ""), 1,
         "header lacks column 'gri'"),
        ("timeline_loran.jsonl", LORAN_JSON + "[1, 2]\n", 2, "not a JSON object"),
        ("timeline_loran.jsonl", LORAN_JSON.replace('"2020-04-17T12:00:00.000Z"', "20200417"), 1,
         "not an ISO 8601 timestamp: 20200417"),
        ("timeline_loran.csv", LORAN_HEADER + LORAN_ROW.replace("12.0", "nan"), 2,
         "non-finite snr_db: 'nan'"),
        ("timeline_gps.jsonl",
         '{"timestamp":"2020-04-17T12:00:00.000Z","lat_deg":37.0,"lon_deg":127.0,'
         '"alt_m":null,"fix_quality":1,"num_sats":8,"hdop":Infinity}\n', 1,
         "non-finite hdop: inf"),
        # the range checks the parser makes hold for records read back too
        ("timeline_gps.csv", GPS_HEADER + GPS_ROW + GPS_ROW.replace("37.0", "-90.5"), 3,
         "latitude out of range: -90.5"),
        ("timeline_gps.csv", GPS_HEADER + GPS_ROW.replace("127.0", "180.5"), 2,
         "longitude out of range: 180.5"),
        ("timeline_gps.csv", GPS_HEADER + GPS_ROW.replace(",1,8,", ",-1,8,"), 2,
         "fix_quality must be non-negative: -1"),
        ("timeline_gps.jsonl", GPS_JSON.replace('"num_sats":8', '"num_sats":-8'), 1,
         "num_sats must be non-negative: -8"),
        ("timeline_gps.csv", GPS_HEADER + GPS_ROW.replace(",0.9", ",-0.9"), 2,
         "hdop must be non-negative: -0.9"),
        ("timeline_gps.jsonl", GPS_JSON.replace('"lat_deg":37.0,"lon_deg":127.0',
                                                '"lat_deg":null,"lon_deg":null'), 1,
         "positive fix_quality requires a position"),
        ("timeline_loran.csv", LORAN_HEADER + LORAN_ROW.replace("9930", "3999"), 2,
         "GRI designator out of range: 3999"),
        ("timeline_loran.csv", LORAN_HEADER + LORAN_ROW.replace(",M,", ",Q,"), 2,
         "unknown station role: 'Q'"),
        ("timeline_loran.jsonl", LORAN_JSON + LORAN_JSON.replace("100.0", "99300.0"), 2,
         "toa_us outside GRI frame: 99300.0"),
        # an integer column holds an integer in either format, never a float or a bool
        ("timeline_loran.csv", LORAN_HEADER + LORAN_ROW.replace("9930,", "9930.7,"), 2,
         "malformed gri: '9930.7'"),
        ("timeline_loran.jsonl", LORAN_JSON.replace('"gri":9930', '"gri":9930.7'), 1,
         "malformed gri: 9930.7"),
        ("timeline_gps.csv", GPS_HEADER + GPS_ROW.replace(",1,8,", ",true,8,"), 2,
         "malformed fix_quality: 'true'"),
        ("timeline_gps.jsonl", GPS_JSON.replace('"fix_quality":1', '"fix_quality":true'), 1,
         "malformed fix_quality: True"),
        ("timeline_gps.jsonl", GPS_JSON.replace('"num_sats":8', '"num_sats":8.0'), 1,
         "malformed num_sats: 8.0"),
        ("timeline_loran.jsonl", LORAN_JSON.replace('"snr_db":12.0', '"snr_db":true'), 1,
         "malformed snr_db: True"),
        ("timeline_gps.jsonl", GPS_JSON.replace('"lat_deg":37.0', '"lat_deg":false'), 1,
         "malformed lat_deg: False"),
        # int() and float() forgive digit separators and white space; a number here never has them
        ("timeline_loran.csv", LORAN_HEADER + LORAN_ROW.replace("9930,", "9_930,"), 2,
         "malformed gri: '9_930'"),
        ("timeline_gps.csv", GPS_HEADER + GPS_ROW.replace(",0.9", ", 0.9"), 2,
         "malformed hdop: ' 0.9'"),
    ],
    ids=["short-row", "long-row", "missing-column", "json-not-object", "json-number-timestamp",
         "csv-nan", "json-infinity", "csv-latitude", "csv-longitude", "csv-negative-quality",
         "json-negative-sats", "csv-negative-hdop", "json-quality-without-position",
         "csv-gri", "csv-role", "json-toa",
         "csv-float-gri", "json-float-gri", "csv-bool-quality", "json-bool-quality",
         "json-float-sats", "json-bool-snr", "json-bool-latitude", "csv-separator-gri",
         "csv-spaced-hdop"],
)
def test_stats_names_the_file_and_line_of_a_malformed_export(
    tmp_path, capsys, name, text, line, problem
):
    directory = tmp_path / "session" / "exports" / "raw_20200417T120000Z"
    directory.mkdir(parents=True)
    (directory / name).write_text(text)
    assert main(["stats", "--session", str(tmp_path / "session")]) == 1
    assert capsys.readouterr().err == f"error: {directory / name}:{line}: {problem}\n"


def stats_series(out: Path) -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("manifest, reason", [
    ("stale", "digest_mismatch"), ("unreadable", "manifest_unreadable"),
    ("absent", None), ("without-entry", None),
])
def test_stats_reads_an_export_its_manifest_does_not_vouch_for_strictly(
    tmp_path, capsys, caplog, manifest, reason
):
    """An export whose digest its manifest does not give is read by the
    strict reader, which writes each timestamp in ``iso_ms`` form again, so
    the results equal those of the file before it was altered.  A stale
    digest or an unreadable manifest logs one warning a file; no manifest,
    or no entry for the file, is silent."""
    session = stats_session(tmp_path)
    assert main(["stats", "--session", str(session), "--out", str(tmp_path / "before")]) == 0
    expected = capsys.readouterr().out
    directory = session / "exports" / "raw_20200417T120000Z"
    gps, loran = directory / "timeline_gps.csv", directory / "timeline_loran.csv"
    gps.write_text(gps.read_text().replace(".000Z,", ".000+00:00,"))
    if manifest == "unreadable":
        (directory / MANIFEST_NAME).write_text("{not json")
    elif manifest == "absent":
        (directory / MANIFEST_NAME).unlink()
    elif manifest == "without-entry":
        payload = read_json(directory / MANIFEST_NAME)
        payload["export_files"] = [entry for entry in payload["export_files"]
                                   if entry["path"] != gps.name]
        (directory / MANIFEST_NAME).write_text(json.dumps(payload))
    caplog.clear()

    assert main(["stats", "--session", str(session), "--out", str(tmp_path / "after")]) == 0
    assert capsys.readouterr().out == expected
    assert stats_series(tmp_path / "after") == stats_series(tmp_path / "before")
    warned = {"stale": [gps], "unreadable": [gps, loran]}.get(manifest, [])
    assert [(record.levelname, record.getMessage()) for record in caplog.records] == [
        ("WARNING", f"event=export_unverified file={path} reason={reason}") for path in warned]


def test_stats_checks_an_altered_export_whose_manifest_is_stale(tmp_path, capsys, caplog):
    """A value altered out of range after export no longer matches the
    manifest's digest, so the strict reader finds it."""
    session = stats_session(tmp_path)
    gps = session / "exports" / "raw_20200417T120000Z" / "timeline_gps.csv"
    gps.write_text(gps.read_text().replace(",37.123456789,", ",-90.5,"))
    assert main(["stats", "--session", str(session)]) == 1
    assert capsys.readouterr().err == f"error: {gps}:2: latitude out of range: -90.5\n"
    assert f"event=export_unverified file={gps} reason=digest_mismatch" in caplog.text


def test_stats_checks_no_field_of_an_export_its_manifest_vouches_for(tmp_path, capsys):
    """The parser checked every value before export wrote it, so ``stats``
    does not check them again in a file whose digest its manifest gives;
    without the manifests it does."""
    session = stats_session(tmp_path)
    checks = ("parse_float", "parse_int", "check_fix", "loran_values")

    def calls() -> list[int]:
        with contextlib.ExitStack() as stack:
            spies = [stack.enter_context(unittest.mock.patch.object(
                parse, name, wraps=getattr(parse, name))) for name in checks]
            assert main(["stats", "--session", str(session)]) == 0
        return [spy.call_count for spy in spies]

    assert calls() == [0, 0, 0, 0]
    for manifest in session.glob(f"exports/*/{MANIFEST_NAME}"):
        manifest.unlink()
    assert all(calls())
    capsys.readouterr()


def test_stats_prints_the_mean_of_snr_values_whose_sum_passes_the_float_range(tmp_path, capsys):
    """Two SNR values of 1e308, which the parser accepts and export writes
    as ``1e+308``, sum past the float range; ``stats`` prints their exact
    mean rather than failing."""
    segment = tmp_path / "seg.log"
    segment.write_bytes(crlf(zda_line(utc(2020, 4, 17, 12, 0, 0)),
                             *(plrm_line(tod=f"12000{i}.000", toa="100.0", snr="1e308")
                               for i in (1, 2))))
    classified = tmp_path / "classified"
    target = tmp_path / "session" / "exports" / "raw_20200417T120000Z"
    assert main(["classify", "--segment", str(segment), "--out", str(classified)]) == 0
    assert main(["convert", "--classified", str(classified), "--out", str(target)]) == 0
    assert (target / "timeline_loran.csv").read_text().splitlines()[1] == (
        "2020-04-17T12:00:01.000Z,9930,M,100.0,1e+308,0.5")
    capsys.readouterr()
    assert main(["stats", "--session", str(tmp_path / "session")]) == 0
    assert ("station=9930M count=2 snr_min=1e+308 snr_mean=1e+308 snr_max=1e+308\n"
            in capsys.readouterr().out)


def test_year_below_1000_survives_convert_and_stats(tmp_path, capsys):
    """A receiver reporting year 999 gets a four-digit year in every file,
    which stats then reads back."""
    segment = tmp_path / "seg.log"
    segment.write_bytes(crlf(sentence("GPZDA,120000.000,17,04,0999,00,00"),
                             gga_line(tod="120001.000")))
    classified = tmp_path / "classified"
    target = tmp_path / "session" / "exports" / "raw_09990417T120000Z"
    assert main(["classify", "--segment", str(segment), "--out", str(classified)]) == 0
    assert main(["convert", "--classified", str(classified), "--out", str(target)]) == 0
    rows = (target / "timeline_gps.csv").read_text().splitlines()
    assert rows[1].startswith("0999-04-17T12:00:01.000Z,")
    manifest = read_json(target / MANIFEST_NAME)
    assert manifest["time_span"]["first"] == "0999-04-17T12:00:01.000Z"
    capsys.readouterr()

    assert main(["stats", "--session", str(tmp_path / "session")]) == 0
    out = capsys.readouterr().out
    assert "time_span=0999-04-17T12:00:01.000Z..0999-04-17T12:00:01.000Z" in out
    fixes = (tmp_path / "session" / "stats" / "gps_fixes.csv").read_text().splitlines()
    assert fixes[1] == "0999-04-17T12:00:01.000Z,37.0,127.0,30.0"


def test_importing_the_cli_loads_no_capture_code():
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, gpsloran.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    for name in ("orchestrate", "record", "simulate", "classify"):
        assert f"gpsloran.{name}" not in loaded


STATS_GOLDEN = {
    "all/stdout":
        "38f2b72a1d68bc508c35ed5c17af5f6a434ec2a88cfed643e86f8e7e82bb8568",
    "all/gps_fixes.csv":
        "3af4e141d87c0d2a347136cf28e1dbd66b5fe4f2e1ecd8afc1fbb3d2aed71942",
    "all/snr_7430M.csv":
        "a551b4c9dadcc424873a6213f8b9b4812ad61c03ac2037cd2fea9a6b1ea567c4",
    "all/snr_7430Y.csv":
        "18212f65704d892aad2f487b674db3bde681024a0142d5d1c04ca4854de0182a",
    "all/snr_9930M.csv":
        "597ee3c431062b65ff5ad6e9aa7934be2c5228af8070ac303dd58e31f6c66ed3",
    "all/snr_9930X.csv":
        "b9bfc0eb36d0756e2611762cc250f99c1fae7dd7f6f3cd0151da5e1095804615",
    "present/stdout":
        "38f2b72a1d68bc508c35ed5c17af5f6a434ec2a88cfed643e86f8e7e82bb8568",
    "present/gps_fixes.csv":
        "3af4e141d87c0d2a347136cf28e1dbd66b5fe4f2e1ecd8afc1fbb3d2aed71942",
    "present/snr_7430Y.csv":
        "18212f65704d892aad2f487b674db3bde681024a0142d5d1c04ca4854de0182a",
    "absent/stdout":
        "38f2b72a1d68bc508c35ed5c17af5f6a434ec2a88cfed643e86f8e7e82bb8568",
    "absent/gps_fixes.csv":
        "3af4e141d87c0d2a347136cf28e1dbd66b5fe4f2e1ecd8afc1fbb3d2aed71942",
    "absent/snr_8970M.csv":
        "4dc0606cc4585ff7313cda9fd64478e4247c17a2bc8619b9bc01e3a5527ec8c8",
}


def test_simulate_serve_accepts_clients(tmp_path, capsys):
    import socket

    scenario = scenario_file(tmp_path, duration_s=10)
    stream, _ = generate_stream(Scenario.from_file(scenario))
    blob = stream.to_bytes()

    result = {}

    def run_serve():
        result["code"] = main(
            ["simulate", "serve", "--scenario", str(scenario), "--pace", "unpaced",
             "--listen", "127.0.0.1:0"]
        )

    thread = threading.Thread(target=run_serve, daemon=True)
    # capsys can't capture across threads reliably; read the port from a pipe
    import gpsloran.simulate as sim_mod

    started = threading.Event()
    address = {}
    original_start = sim_mod.SimServer.start

    def capture_start(server):
        original_start(server)
        address["value"] = server.address
        started.set()
        return server

    sim_mod.SimServer.start = capture_start
    try:
        thread.start()
        assert started.wait(timeout=5.0)
        host, _, port = address["value"].rpartition(":")
        got = b""
        with socket.create_connection((host, int(port)), timeout=5.0) as conn:
            while len(got) < len(blob):
                data = conn.recv(65536)
                if not data:
                    break
                got += data
        thread.join(timeout=5.0)
    finally:
        sim_mod.SimServer.start = original_start
    assert got == blob
    assert result.get("code") == 0


def test_pace_argument_validation(tmp_path, capsys):
    scenario = scenario_file(tmp_path)
    for pace in ("warp9", "accelerated:0", "accelerated:nan", "accelerated:inf"):
        code = main(["simulate", "serve", "--scenario", str(scenario), "--pace", pace])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: bad pace {pace!r}" in err and "Traceback" not in err


def test_failed_stats_leaves_no_series_files(tmp_path, capsys):
    """A malformed export in the last of three segments fails the command
    after the first two have been read and their rows written: every series
    file goes, temporary ones included, and so do the directories the run
    made; a directory that was there keeps what it held."""
    session = stats_session(tmp_path)
    last = session / "exports" / "raw_20200417T122000Z"
    last.mkdir()
    (last / "timeline_loran.csv").write_text(LORAN_HEADER + LORAN_ROW + LORAN_ROW[:-5] + "\n")
    problem = f"error: {last / 'timeline_loran.csv'}:3: 5 cells, header has 6\n"
    out = tmp_path / "out" / "stats"
    for extra in ([], ["--station", "7430M"]):
        assert main(["stats", "--session", str(session), "--out", str(out), *extra]) == 1
        assert capsys.readouterr().err == problem
        assert not (tmp_path / "out").exists()
    assert main(["stats", "--session", str(session)]) == 1
    assert capsys.readouterr().err == problem
    assert not (session / "stats").exists()

    out.mkdir(parents=True)
    (out / "gps_fixes.csv").write_text("from an earlier run\n")
    assert main(["stats", "--session", str(session), "--out", str(out)]) == 1
    assert capsys.readouterr().err == problem
    kept = [(path.name, path.read_text()) for path in out.iterdir()]
    assert kept == [("gps_fixes.csv", "from an earlier run\n")]


def reference_stats_stdout(records, gap_threshold_s=300.0):
    """``gpsloran stats``' stdout for *records* in the order it reads
    them, computed from lists of every value; the time span and the gaps
    come from all their timestamps, sorted."""
    lats, lons = [], []
    no_fix = 0
    snr_by_station = {}
    for record in records:
        if isinstance(record, GpsFix):
            if record.fix_quality == 0:
                no_fix += 1
            else:
                lats.append(record.lat)
                lons.append(record.lon)
        else:
            snr_by_station.setdefault(f"{record.gri}{record.station_role}", []).append(record.snr_db)

    stamps = sorted(record.timestamp for record in records)
    gaps = reference_gaps(stamps, gap_threshold_s)
    loran = len(records) - len(lats) - no_fix
    lines = [f"records={len(records)} gps_fixes={len(lats)} no_fix={no_fix} loran={loran}"]
    if stamps:
        lines.append(f"time_span={iso_ms(stamps[0])}..{iso_ms(stamps[-1])}")
    if lats:
        lines.append(f"bbox_lat={min(lats)}..{max(lats)} bbox_lon={min(lons)}..{max(lons)}")
    for station, values in sorted(snr_by_station.items()):
        lines.append(f"station={station} count={len(values)} snr_min={min(values)} "
                     f"snr_mean={statistics.fmean(values)} snr_max={max(values)}")
    lines.append(f"gaps={len(gaps)}")
    lines += [f"gap={iso_ms(start)}..{iso_ms(end)}" for start, end in gaps]
    return "".join(f"{line}\n" for line in lines)


T_STATS = ms(2020, 4, 17, 12, 0, 0)
# instants within 30 minutes on a coarse grid, so equal timestamps and
# 5-minute gaps both occur
stat_instants = st.builds(lambda second, milli: T_STATS + second * 1000 + milli,
                          st.integers(0, 1800), st.sampled_from([0, 250, 999]))
stat_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
# both zeros often, since the bounding box keeps the first of equal extremes
stat_lats = st.sampled_from([0.0, -0.0]) | st.floats(-90.0, 90.0)
stat_lons = st.sampled_from([0.0, -0.0]) | st.floats(-180.0, 180.0)
stat_fixes = st.one_of(
    st.builds(GpsFix, stat_instants, stat_lats, stat_lons, st.none() | stat_floats,
              st.integers(1, 8), st.integers(0, 12), st.none() | st.floats(0.0, 20.0)),
    st.builds(lambda t: GpsFix(t, None, None, None, 0, 0, None), stat_instants),  # no fix
    # a no-fix record that still carries a position, as parse_gga makes one
    # when the position fields are present
    st.builds(GpsFix, stat_instants, stat_lats, stat_lons, st.none() | stat_floats,
              st.just(0), st.integers(0, 12), st.none() | st.floats(0.0, 20.0)),
)
stat_observations = st.builds(
    LoranMeasurement, stat_instants, st.sampled_from([7430, 9930]), st.sampled_from("MXY"),
    st.floats(0.0, 74_299.0), stat_floats, stat_floats,
)
# per segment: its GPS file and its Loran file in any order, either may be
# empty, and the format they are written in
stat_segments = st.lists(
    st.tuples(st.lists(stat_fixes, max_size=12), st.lists(stat_observations, max_size=12),
              st.sampled_from(["columns", "lines"])),
    min_size=1, max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(segments=stat_segments, station=st.sampled_from([None, "9930M", "8970M"]))
def test_stats_fold_equals_the_list_based_summary(segments, station):
    """``stats`` folds records as it reads them, one file at a time and in
    file order, and prints what list-based code computes from every value;
    its series hold every row in file order."""
    with tempfile.TemporaryDirectory() as scratch:
        session = Path(scratch) / "session"
        for index, (fixes, observations, fmt) in enumerate(segments):
            export([[*fixes, *observations]], fmt, session / "exports" / f"raw_{index:02d}")

        def stats(out: Path) -> tuple[str, dict[str, str]]:
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert main(["stats", "--session", str(session), "--out", str(out),
                             *(["--station", station] if station else [])]) == 0
            return stdout.getvalue(), stats_series(out)

        stdout, series = stats(Path(scratch) / "trusted")
        # without manifests every file is read by the strict reader
        for manifest in session.glob(f"exports/*/{MANIFEST_NAME}"):
            manifest.unlink()
        assert stats(Path(scratch) / "strict") == (stdout, series)

    read_order = [record for fixes, observations, _ in segments for record in (*fixes, *observations)]
    assert stdout == reference_stats_stdout(read_order)
    gps = [fix for fixes, _, _ in segments for fix in fixes]
    loran = [obs for _, observations, _ in segments for obs in observations]
    stations = [station] if station else sorted({f"{obs.gri}{obs.station_role}" for obs in loran})
    assert sorted(series) == sorted(["gps_fixes.csv", *(f"snr_{s}.csv" for s in stations)])
    assert series["gps_fixes.csv"] == "timestamp,lat_deg,lon_deg,alt_m\n" + "".join(
        f"{iso_ms(f.timestamp)},{f.lat},{f.lon},{'' if f.alt_m is None else f.alt_m}\n"
        for f in gps if f.fix_quality != 0)
    for name in stations:
        assert series[f"snr_{name}.csv"] == "timestamp,snr_db\n" + "".join(
            f"{iso_ms(obs.timestamp)},{obs.snr_db}\n" for obs in loran
            if f"{obs.gri}{obs.station_role}" == name)


def stats_gaps(tmp_path, segments, threshold: str) -> list[str]:
    """The time span and gap lines ``stats`` prints for a session of
    *segments*, each a list of GPS fix and Loran observation seconds after
    T_STATS."""
    session = tmp_path / "session"
    if not session.exists():
        for index, (fix_seconds, observation_seconds) in enumerate(segments):
            export(merge_sort([GpsFix(T_STATS + s * 1000, 37.0, 127.0, 30.0, 1, 8, 0.9)
                               for s in fix_seconds],
                              [LoranMeasurement(T_STATS + s * 1000, 9930, "M", 45678.9, 12.0, 0.5)
                               for s in observation_seconds]),
                   "columns", session / "exports" / f"raw_{index:02d}")
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(["stats", "--session", str(session), "--out", str(tmp_path / threshold),
                     "--gap-threshold", threshold]) == 0
    return [line for line in stdout.getvalue().splitlines()
            if line.startswith(("time_span=", "gap"))]


def stat_span(name: str, start: int, end: int) -> str:
    return f"{name}={iso_ms(T_STATS + start * 1000)}..{iso_ms(T_STATS + end * 1000)}"


def test_stats_gaps_are_those_of_the_merged_files_not_of_each(tmp_path):
    """A GPS file silent from 0 to 400 s and a Loran file silent from 200
    to 600 s leave the merged timeline silent only from 200 to 400 s: no
    gap over 300 s, exactly that one over 150 s."""
    segment = ([-100, -50, 0, 400, 450, 500], [-100, -50, 0, 50, 100, 150, 200, 600, 650, 700])
    span = stat_span("time_span", -100, 700)
    assert stats_gaps(tmp_path, [segment], "300s") == [span, "gaps=0"]
    assert stats_gaps(tmp_path, [segment], "150s") == [span, "gaps=1", stat_span("gap", 200, 400)]


def test_stats_finds_the_gap_a_block_just_longer_than_the_threshold_holds(tmp_path):
    """A block that spans just over the threshold is read whole: of its
    instants at 0, 1 and 302 s, only 1 to 302 s is a gap, over 300 s and
    not over 301 s."""
    span = stat_span("time_span", 0, 302)
    assert stats_gaps(tmp_path, [([0, 1, 302], [])], "301s") == [span, "gaps=0"]
    assert stats_gaps(tmp_path, [([0, 1, 302], [])], "300s") == [
        span, "gaps=1", stat_span("gap", 1, 302)]


def test_stats_gaps_of_overlapping_segments(tmp_path):
    """A segment whose Loran file fills the GPS silence of an earlier one
    splits that silence; the time span covers both."""
    segments = [([0, 100, 200, 300, 800, 900], []), ([], [500, 1000])]
    span = stat_span("time_span", 0, 1000)
    assert stats_gaps(tmp_path, segments, "250s") == [span, "gaps=1", stat_span("gap", 500, 800)]
    assert stats_gaps(tmp_path, segments, "150s") == [
        span, "gaps=2", stat_span("gap", 300, 500), stat_span("gap", 500, 800)]
    assert stats_gaps(tmp_path, segments, "350s") == [span, "gaps=0"]


def test_stats_loads_no_capture_code(tmp_path):
    """``gpsloran stats`` in a fresh interpreter imports neither the
    capture, the routing nor the simulation code, as the module says, and
    over exports their manifests vouch for, neither the parser nor ``csv``
    (nor ``dataclasses`` and the ``inspect`` it loads)."""
    session = stats_session(tmp_path)

    def imported(*argv: str) -> set[str]:
        run = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True,
                             text=True)
        assert run.returncode == 0, run.stderr
        return {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")}

    loaded = imported("-m", "gpsloran.cli", "stats", "--session", str(session))
    loaded -= imported("-c", "pass")  # what the interpreter's own start imports on this host
    assert "gpsloran.convert" in loaded
    assert loaded.isdisjoint({f"gpsloran.{name}" for name in
                              ("record", "orchestrate", "classify", "simulate", "parse")})
    assert loaded.isdisjoint({"csv", "dataclasses", "inspect"})


def _modules_added(code: str) -> set[str]:
    """The modules a fresh interpreter loads while it runs *code*, by the
    module set before and after, so what its own start loads is left out."""
    script = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(*set(sys.modules) - before)"
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


def test_the_worker_and_record_load_only_what_they_run(tmp_path):
    """The segment path and a ``gpsloran record`` start load no
    ``dataclasses`` (nor the ``inspect`` it loads), and no socket, select or
    ``csv`` module, which only a TCP source, a serial source and the strict
    export reader use; importing the pipeline loads no thread pool."""
    unused = {"dataclasses", "inspect", "socket", "select", "csv"}
    assert _modules_added("import gpsloran.orchestrate").isdisjoint(unused | {"concurrent.futures"})
    empty = tmp_path / "empty.log"
    empty.write_bytes(b"")
    argv = ["record", "--source", f"replay:{empty}", "--out", str(tmp_path / "out"),
            "--replay-speed", "0", "--on-eof", "stop"]
    added = _modules_added(f"from gpsloran.cli import main\nassert main({argv!r}) == 0")
    assert "gpsloran.record" in added
    assert added.isdisjoint(unused)


def test_the_session_fold_loads_no_pipeline_code(tmp_path):
    """Folding a session's ``session.json`` and ``events.jsonl`` into its
    segments' stages, as a reader of a session directory would, loads
    neither the pipeline stages nor the capture code."""
    (tmp_path / "session.json").write_text(json.dumps({"session_id": "s1"}))
    (tmp_path / STATE_NAME).write_text("".join(json.dumps(event) + "\n" for event in (
        {"event": "segment_open", "segment": "raw_a.log", "open_time": "2020-04-17T12:00:00.000Z"},
        {"event": "segment_closed", "segment": "raw_a.log"},
        {"event": "stage", "segment": "raw_a.log", "stage": "classified", "error": "exploded"})))
    added = _modules_added(
        "from gpsloran.fsutil import STATE_NAME, StateStore\n"
        f"state = StateStore.load({str(tmp_path / STATE_NAME)!r})\n"
        "assert [tuple(entry) for entry in state.entries] == "
        "[('raw_a.log', 'classified', 'exploded')]")
    assert "gpsloran.fsutil" in added
    assert added.isdisjoint({f"gpsloran.{name}" for name in
                             ("classify", "parse", "convert", "record", "orchestrate", "clock")})


def test_convert_loads_no_capture_code(tmp_path):
    """``gpsloran convert`` in a fresh interpreter loads the parser and the
    exporter it runs, but neither the capture code nor its clock."""
    classified = tmp_path / "classified"
    assert main(["classify", "--segment", str(segment_file(tmp_path)), "--out",
                 str(classified)]) == 0
    argv = ["convert", "--classified", str(classified), "--out", str(tmp_path / "exports")]
    added = _modules_added("import contextlib, io\nfrom gpsloran.cli import main\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           f"    assert main({argv!r}) == 0")
    assert {"gpsloran.orchestrate", "gpsloran.parse", "gpsloran.convert"} <= added
    assert added.isdisjoint({"gpsloran.record", "gpsloran.clock", "gpsloran.simulate"})
    assert (tmp_path / "exports" / MANIFEST_NAME).exists()


def test_stats_calls_convert_summarize_once(tmp_path, capsys):
    """The benchmark times ``convert.summarize`` inside ``stats``, so one
    run calls it exactly once, through the module attribute."""
    session = stats_session(tmp_path)
    with unittest.mock.patch.object(convert, "summarize", wraps=convert.summarize) as summarize:
        assert main(["stats", "--session", str(session)]) == 0
    assert summarize.call_count == 1
    capsys.readouterr()


def test_the_names_the_benchmark_wraps_exist(tmp_path):
    """``bench/`` times each layer by wrapping these attributes by name,
    and a span around a name that is gone would read nothing.  It also
    calls the pipeline's setup by name, as below; one that is gone or takes
    other arguments would fail every benchmark run."""
    from datetime import datetime, timezone
    from gpsloran import clock, orchestrate, record
    wrapped = [
        *((orchestrate, name) for name in
          ("process_segment", "route", "parse_classified", "merge_sort", "export",
           "write_parse_errors", "pipeline_settings", "run_pipeline")),
        (orchestrate.StateStore, "add_segment"),
        (record.CaptureSession, "rotate"),
        *((convert, name) for name in ("read_gps_export", "read_loran_export", "merge_sort",
                                               "summarize")),
        (cli, "cmd_stats"),
    ]
    missing = [f"{owner.__name__}.{name}" for owner, name in wrapped
               if not callable(getattr(owner, name, None))]
    assert missing == []
    assert orchestrate.pipeline_settings({"formats": ["columns", "lines"]})["formats"] == [
        "columns", "lines"]
    orchestrate.Hooks().fire("mid-parse")
    state = orchestrate.StateStore(tmp_path / orchestrate.STATE_NAME, "bench")
    state.add_segment("raw_20200417T000000Z.log")
    assert [entry.name for entry in state.entries] == ["raw_20200417T000000Z.log"]
    assert issubclass(record.SourceClosed, Exception)
    start = datetime(2020, 4, 17, tzinfo=timezone.utc)
    assert clock.AcceleratedClock(start=start, factor=600.0).now() >= ms(2020, 4, 17)


def test_stats_memory_grows_by_under_2_bytes_a_record(tmp_path):
    """Beyond what one file needs, ``stats`` keeps no timestamp and no SNR
    value (the summary folds them a block at a time): four equal segments
    peak less than 2 bytes a record above one."""
    peaks = {}
    for count in (1, 4):
        session = tmp_path / f"session{count}"
        for index in range(count):
            shift = index * 3_600_000
            fixes = [GpsFix(T_STATS + shift + i * 1000, 37.0 + i * 1e-6, 127.0, 30.0, 1, 8, 0.9)
                     for i in range(1500)]
            observations = [LoranMeasurement(T_STATS + shift + i * 250, 9930, "MXYZ"[i % 4],
                                             45678.9, 10.0 + i % 7, 0.5) for i in range(6000)]
            export(merge_sort(fixes, observations), "columns", session / "exports" / f"raw_{index:02d}")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["stats", "--session", str(session), "--out", str(tmp_path / "warm")])
            tracemalloc.start()
            try:
                assert main(["stats", "--session", str(session), "--out",
                             str(tmp_path / f"out{count}")]) == 0
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    added = 3 * (len(fixes) + len(observations))
    assert peaks[4] - peaks[1] < 2 * added
