"""Acceptance suite: one test per release criterion.

Each test prints a single CRITERION line (PASS/FAIL) on the terminal in
addition to the normal pytest verdict, so a release run can be audited
at a glance.  Oracles here are deliberately independent of the package:
checksums via the conftest XOR fold, merge order via numpy lexsort,
end-to-end content via the simulator's ground truth, and crash
recovery via a reference rerun over the surviving bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from datetime import timedelta
from pathlib import Path

import numpy as np

import crash_driver
from conftest import (
    ManualClock,
    ScriptedSource,
    crlf,
    flat_timeline,
    gga_line,
    ms,
    plrm_line,
    read_records,
    rmc_line,
    sentence,
    utc,
    xor_fold,
    zda_line,
)
from gpsloran.classify import ChecksumStatus, route, verify_checksum
from gpsloran.cli import main as cli_main
from gpsloran.convert import MANIFEST_NAME, read_gps_export, read_loran_export
from gpsloran.fsutil import read_json
from gpsloran.orchestrate import (
    CLASSIFIED,
    CONVERTED,
    STATE_NAME,
    Hooks,
    StateStore,
    pipeline_settings,
    process_segment,
    recover,
    run_pipeline,
)
from gpsloran.parse import (
    DateContext,
    GpsFix,
    LoranMeasurement,
    parse_gga,
    parse_loran,
    split_sentence,
)
from gpsloran.fsutil import read_events
from gpsloran.record import CaptureSession, RotationPolicy
from gpsloran.simulate import (
    Corruption,
    PiecewiseLinear,
    Scenario,
    SimServer,
    StationSpec,
    generate_stream,
    quantize_coordinate,
    quantize_decimal,
    serialize,
)
from gpsloran.timeutil import parse_iso_ms


def _criterion(capsys, number: int, label: str, body) -> None:
    """Run one criterion body, print its PASS/FAIL line, re-raise failures."""
    failure = None
    try:
        body()
    except Exception as exc:  # noqa: BLE001 - reported, then re-raised
        failure = exc
    with capsys.disabled():
        print(f"\nCRITERION {number} {label}: {'FAIL' if failure else 'PASS'}")
    if failure is not None:
        raise failure


# --- 1: losslessness ----------------------------------------------------------


def test_criterion_1_losslessness(tmp_path, capsys):
    def body():
        t0 = time.monotonic()
        rng = random.Random(101)
        for trial in range(100):
            total = rng.randrange(1024, 65537)
            blob = rng.randbytes(total)
            cap = max(2, min(2048, total // 8))
            chunks = []
            i = 0
            while i < len(blob):
                n = rng.randrange(1, cap + 1)
                chunks.append(blob[i : i + n])
                i += n
            rotate_after = set(rng.sample(range(len(chunks)), 3))

            clock = ManualClock(utc(2020, 4, 17, 6, 0, 0))
            session = CaptureSession(
                tmp_path / f"t{trial}",
                session_id="cap",
                rotation=RotationPolicy(mode="fixed-interval", interval_s=60.0),
                flush_interval=5.0,
                clock=clock,
            )
            segments = []
            for index, chunk in enumerate(chunks):
                clock.advance(0.01)
                session.append(chunk)
                if index in rotate_after:
                    clock.advance(61.0)
                    while session.due_rotation():
                        segments.append(session.rotate())
            segments.append(session.close())

            assert len(segments) >= 4  # 3 forced rotations plus the final close
            assert b"".join(seg.path.read_bytes() for seg in segments) == blob
            assert sum(seg.byte_count for seg in segments) == total
            for seg in segments:
                assert hashlib.sha256(seg.path.read_bytes()).hexdigest() == seg.digest
        assert time.monotonic() - t0 < 30.0

    _criterion(capsys, 1, "losslessness", body)


# --- 2: partition and order ---------------------------------------------------


def _mixed_corpus(rng: random.Random, n: int) -> list[bytes]:
    day = utc(2020, 4, 17)
    lines = []
    for i in range(n):
        tod = f"{(i // 3600) % 24:02d}{(i // 60) % 60:02d}{i % 60:02d}.000"
        shape = rng.randrange(10)
        if shape <= 2:
            lines.append(gga_line(tod=tod, sats=rng.randint(4, 12)))
        elif shape == 3:
            lines.append(zda_line(day + timedelta(seconds=i)))
        elif shape == 4:
            lines.append(rmc_line(day + timedelta(seconds=i)))
        elif shape == 5:
            lines.append(plrm_line(tod=tod, gri=rng.choice([9930, 5970]), role=rng.choice("MVWXYZ")))
        elif shape == 6:
            lines.append(sentence(f"GPGSV,3,1,{rng.randint(4, 12):02d},01,40,083,46"))
        elif shape == 7:
            lines.append(sentence(f"PQXBA,{tod},{rng.randint(0, 999)}"))
        elif shape == 8:
            good = gga_line(tod=tod)
            lines.append(good[:-2] + (b"00" if good.endswith(b"FF") else b"FF"))
        else:
            # deliberate exact duplicates to exercise the multiset logic
            lines.append(rng.choice([b"#deadbeef", b"@@@noise@@@", b"", b"$", b"...."]))
    return lines


def test_criterion_2_partition_and_order(tmp_path, capsys):
    def body():
        rng = random.Random(202)
        lines = _mixed_corpus(rng, 10_000)
        segment = tmp_path / "raw_20200417T000000Z.log"
        segment.write_bytes(crlf(*lines))
        out = tmp_path / "classified"
        report = route(segment, out)

        outputs = {}
        for path in out.iterdir():
            if path.suffix == ".txt":
                outputs[path.name] = path.read_bytes().splitlines()

        merged = Counter()
        for file_lines in outputs.values():
            merged.update(file_lines)
        assert merged == Counter(lines)

        for name, file_lines in outputs.items():
            cursor = 0
            for line in file_lines:
                while cursor < len(lines) and lines[cursor] != line:
                    cursor += 1
                assert cursor < len(lines), f"{name} broke segment order"
                cursor += 1

        assert report.total_lines == len(lines)
        assert sum(report.counts.values()) == len(lines)

    _criterion(capsys, 2, "partition-and-order", body)


# --- 3: checksum oracle -------------------------------------------------------


def _oracle_status(line: bytes) -> ChecksumStatus:
    """Independent re-statement of the checksum rule."""
    star = line.rfind(b"*")
    if star == -1 or len(line) - star != 3:
        return ChecksumStatus.ABSENT
    suffix = line[star + 1 :]
    if any(c not in b"0123456789abcdefABCDEF" for c in suffix):
        return ChecksumStatus.INVALID
    start = line.find(b"$") + 1
    if xor_fold(line[start:star]) == int(suffix, 16):
        return ChecksumStatus.VALID
    return ChecksumStatus.INVALID


def test_criterion_3_checksum_oracle(capsys):
    def body():
        rng = random.Random(303)
        alphabet = "GPLRMNZAB,0123456789.-"
        agreements = 0
        for _ in range(10_000):
            shape = rng.randrange(5)
            body_text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 40)))
            payload = body_text.encode("ascii")
            if shape == 0:  # valid
                line = b"$" + payload + b"*%02X" % xor_fold(payload)
                assert _oracle_status(line) is ChecksumStatus.VALID
            elif shape == 1:  # corrupted hex
                wrong = (xor_fold(payload) + rng.randrange(1, 256)) % 256
                line = b"$" + payload + b"*%02X" % wrong
                assert _oracle_status(line) is ChecksumStatus.INVALID
            elif shape == 2:  # absent
                line = b"$" + payload
                assert _oracle_status(line) is ChecksumStatus.ABSENT
            elif shape == 3:  # malformed suffix
                suffix = rng.choice([b"*7", b"*7F0", b"*G1", b"*+5", b"* 5", b"*zz"])
                line = b"$" + payload + suffix
            else:  # arbitrary noise, stars and all
                line = bytes(rng.randrange(32, 127) for _ in range(rng.randrange(0, 40)))
            if verify_checksum(line) is _oracle_status(line):
                agreements += 1
        assert agreements == 10_000

    _criterion(capsys, 3, "checksum-oracle", body)


# --- 4: parser round-trip -----------------------------------------------------


def _fresh_ctx() -> DateContext:
    return DateContext(ms(2020, 4, 17, 12))


def _random_fix(rng: random.Random) -> GpsFix:
    ts = ms(2020, 4, 17) + rng.randrange(86_400_000)
    if rng.random() < 0.2:
        return GpsFix(
            timestamp=ts, lat=None, lon=None, alt_m=None,
            fix_quality=0, num_sats=rng.randint(0, 12), hdop=None,
        )
    return GpsFix(
        timestamp=ts,
        lat=rng.uniform(-90.0, 90.0),
        lon=rng.uniform(-180.0, 180.0),
        alt_m=rng.uniform(-100.0, 4000.0),
        fix_quality=rng.randint(1, 8),
        num_sats=rng.randint(0, 99),
        hdop=rng.uniform(0.0, 50.0),
    )


def _random_loran(rng: random.Random) -> LoranMeasurement:
    gri = rng.randint(4000, 9999)
    return LoranMeasurement(
        timestamp=ms(2020, 4, 17) + rng.randrange(86_400_000),
        gri=gri,
        station_role=rng.choice("MVWXYZ"),
        toa_us=rng.uniform(0.0, gri * 10 - 0.2),
        snr_db=rng.uniform(-30.0, 40.0),
        ecd_us=rng.uniform(-5.0, 5.0),
    )


def test_criterion_4_parser_round_trip(capsys):
    def body():
        rng = random.Random(404)
        gps_ok = 0
        for _ in range(1000):
            fix = _random_fix(rng)
            back = parse_gga(split_sentence(serialize(fix).decode("ascii")), _fresh_ctx())
            assert back.timestamp == fix.timestamp  # exact at ms
            if fix.fix_quality == 0:
                assert back == fix
            else:
                assert abs(back.lat - quantize_coordinate(fix.lat, "lat")) <= 1e-6
                assert abs(back.lon - quantize_coordinate(fix.lon, "lon")) <= 1e-6
                assert back.alt_m == quantize_decimal(fix.alt_m, 1)
                assert back.hdop == quantize_decimal(fix.hdop, 2)
                assert back.fix_quality == fix.fix_quality
                assert back.num_sats == fix.num_sats
            gps_ok += 1

        loran_ok = 0
        for _ in range(1000):
            rec = _random_loran(rng)
            back = parse_loran(split_sentence(serialize(rec).decode("ascii")), _fresh_ctx())
            assert back.timestamp == rec.timestamp
            assert back.gri == rec.gri
            assert back.station_role == rec.station_role
            assert back.toa_us == quantize_decimal(rec.toa_us, 1)  # exact at 1 decimal
            assert back.snr_db == quantize_decimal(rec.snr_db, 1)
            assert back.ecd_us == quantize_decimal(rec.ecd_us, 1)
            loran_ok += 1

        assert gps_ok == 1000 and loran_ok == 1000

    _criterion(capsys, 4, "parser-round-trip", body)


# --- 5: merge oracle ----------------------------------------------------------


def test_criterion_5_merge_oracle(capsys):
    def body():
        rng = random.Random(505)
        base = ms(2020, 4, 17)
        stamps = [base + rng.randrange(86_400_000) for _ in range(5000)]
        gps, loran = [], []
        for _ in range(50_000):
            ts = rng.choice(stamps)  # ~10 records per instant: dense ties
            if rng.random() < 0.5:
                gps.append(
                    GpsFix(
                        timestamp=ts, lat=37.0, lon=127.0, alt_m=30.0,
                        fix_quality=1, num_sats=8, hdop=1.0,
                    )
                )
            else:
                loran.append(
                    LoranMeasurement(
                        timestamp=ts, gri=9930, station_role="M",
                        toa_us=100.0, snr_db=10.0, ecd_us=0.0,
                    )
                )

        merged = flat_timeline(gps, loran, window=None)  # random arrival order
        assert len(merged) == 50_000

        ts_ms = np.array(
            [r.timestamp - base for r in gps] + [r.timestamp - base for r in loran],
            dtype=np.int64,
        )
        rank = np.array([0] * len(gps) + [1] * len(loran), dtype=np.int64)
        arrival = np.arange(len(gps) + len(loran), dtype=np.int64)
        order = np.lexsort((arrival, rank, ts_ms))
        inputs = gps + loran
        assert [id(r) for r in merged] == [id(inputs[i]) for i in order.tolist()]

    _criterion(capsys, 5, "merge-oracle", body)


# --- 6: end-to-end ground truth -----------------------------------------------


def test_criterion_6_end_to_end_ground_truth(tmp_path, capsys):
    def body():
        t0 = time.monotonic()
        start = parse_iso_ms("2020-04-17T00:00:00.000Z")
        snr_m = PiecewiseLinear(((0.0, 10.0), (43200.0, 18.0), (86400.0, 10.0)))
        scenario = Scenario(
            seed=20260417,
            start=start,
            duration_s=86400.0,
            gps_rate_hz=1.0,
            zda_period_s=10.0,
            stations=[
                StationSpec(gri=9930, role="M", rate_hz=0.1, snr_profile=snr_m.points),
                StationSpec(gri=9930, role="W", rate_hz=0.1),
            ],
            corruption=Corruption(
                bad_checksum_rate=0.004, garbage_line_rate=0.003, truncation_rate=0.003
            ),
        )
        stream, truth = generate_stream(scenario)
        assert len(truth.gps) > 80_000 and len(truth.loran) > 15_000

        server = SimServer(stream, pace="accelerated:86400").start()
        config = {
            "source": f"tcp:{server.host}:{server.port}",
            "out_dir": str(tmp_path / "cap"),
            "session_id": "day1",
            "clock": {"kind": "accelerated", "start": "2020-04-17T00:00:00.000Z", "factor": 86400.0},
            # rotation window longer than the scenario: a mid-stream cut would
            # tear one line into two segments by design (framing is per
            # segment), and rotation cadence is criterion 7's subject
            "rotation": "2400h",
            "on_eof": "stop",
            "formats": ["columns"],
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        try:
            code = cli_main(["run", "--config", str(cfg_path)])
        finally:
            server.stop()
        assert code == 0

        session_dir = tmp_path / "cap" / "day1"
        export_dirs = sorted(
            d for d in (session_dir / "exports").iterdir() if d.is_dir()
        )
        assert export_dirs
        gps_out, loran_out = [], []
        quarantined = parse_errors = 0
        for directory in export_dirs:
            counts = read_json(directory / MANIFEST_NAME)["record_counts"]
            quarantined += counts["quarantined"]
            parse_errors += counts["parse_errors"]
            gps_out.extend(read_records(read_gps_export, directory / "timeline_gps.csv"))
            loran_out.extend(read_records(read_loran_export, directory / "timeline_loran.csv"))

        # record-for-record equality with the simulator's ground truth
        assert gps_out == truth.gps
        assert loran_out == truth.loran
        # corrupted lines surface only in the counts
        assert quarantined == truth.bad_checksum_lines + truth.garbage_lines
        assert parse_errors == truth.truncated_lines

        assert cli_main(["stats", "--session", str(session_dir)]) == 0
        stats_dir = session_dir / "stats"
        with open(stats_dir / "gps_fixes.csv", newline="") as handle:
            fix_rows = list(csv.reader(handle))[1:]
        assert len(fix_rows) == len(truth.gps)

        with open(stats_dir / "snr_9930M.csv", newline="") as handle:
            snr_rows = list(csv.reader(handle))[1:]
        truth_m = [obs for obs in truth.loran if (obs.gri, obs.station_role) == (9930, "M")]
        assert len(snr_rows) == len(truth_m)
        for stamp, cell in snr_rows:
            offset = (parse_iso_ms(stamp) - start) / 1000
            assert float(cell) == quantize_decimal(snr_m.sample(offset), 1)

        assert time.monotonic() - t0 < 120.0

    _criterion(capsys, 6, "end-to-end-ground-truth", body)


# --- 7: rotation cadence ------------------------------------------------------


class _SleepingSource(ScriptedSource):
    """Steps advance simulated time through clock.sleep."""

    def read(self, max_bytes: int, timeout: float) -> bytes:
        if not self.steps:
            raise self._closed_error("script exhausted")
        advance, data = self.steps.pop(0)
        if advance:
            self.clock.sleep(advance)
        return data


def _day_block(day: int, gga_count: int) -> bytes:
    moment = utc(2020, 4, day, 12, 0, 1)
    lines = [zda_line(moment)]
    lines.extend(gga_line(tod=f"1200{2 + i:02d}.000") for i in range(gga_count))
    return crlf(*lines)


def test_criterion_7_rotation_cadence(tmp_path, capsys):
    def body():
        clock = ManualClock(utc(2020, 4, 17, 12, 0, 0))
        # mid-day blocks with day-long gaps: simulated time moves only by
        # the steps' sleeps, so every block is read 12 hours from a midnight
        steps = [
            (0.0, _day_block(17, 3)),
            (86400.0, b""),
            (0.0, _day_block(18, 4)),
            (86400.0, b""),
            (0.0, _day_block(19, 5)),
        ]
        config = {
            "out_dir": str(tmp_path),
            "session_id": "rot3",
            "on_eof": "stop",
            "inline_processing": True,
            "formats": ["columns"],
        }
        code = run_pipeline(
            config, clock=clock, source=_SleepingSource(clock, steps), hooks=Hooks()
        )
        assert code == 0

        session_dir = tmp_path / "rot3"
        raws = sorted(p.name for p in session_dir.glob("raw_*.log"))
        assert len(raws) == 3  # exactly one segment per simulated day

        boundaries = [
            event["boundary"]
            for event in read_events(session_dir)
            if event.get("event") == "segment_closed" and "boundary" in event
        ]
        assert boundaries == ["2020-04-18T00:00:00.000Z", "2020-04-19T00:00:00.000Z"]
        spacing = parse_iso_ms(boundaries[1]) - parse_iso_ms(boundaries[0])
        assert spacing == 86_400_000

        state = StateStore.load(session_dir / STATE_NAME)
        assert [e.stage for e in state.entries] == [CONVERTED] * 3
        for name, day, expected_gga in zip(raws, (17, 18, 19), (3, 4, 5)):
            manifest = read_json(session_dir / "exports" / name[:-4] / MANIFEST_NAME)
            assert manifest["record_counts"]["gps_fix"] == expected_gga
            span = manifest["time_span"]
            assert span["first"].startswith(f"2020-04-{day}T")
            assert span["last"].startswith(f"2020-04-{day}T")

    _criterion(capsys, 7, "rotation-cadence", body)


# --- 8: crash recovery --------------------------------------------------------


KILL_POINTS = [
    ("mid-capture", 7),
    ("post-rotation", 1),
    ("mid-classify", 1),
    ("mid-parse", 1),
    ("mid-convert", 1),
]


def test_criterion_8_crash_recovery(tmp_path, capsys):
    def body():
        driver = Path(__file__).with_name("crash_driver.py")
        seg1_bytes = b"".join(crash_driver.SEG1_CHUNKS)
        for point, occurrence in KILL_POINTS:
            root = tmp_path / point
            proc = subprocess.run(
                [sys.executable, str(driver), str(root), point, str(occurrence)],
                capture_output=True,
                timeout=60,
            )
            assert proc.returncode == crash_driver.KILL_EXIT_CODE, proc.stderr.decode()

            session_dir = root / crash_driver.SESSION_ID
            raws = sorted(p.name for p in session_dir.glob("raw_*.log"))
            assert raws == [crash_driver.SEG1_NAME, crash_driver.SEG2_NAME]
            assert (session_dir / crash_driver.SEG1_NAME).read_bytes() == seg1_bytes
            seg2_bytes = (session_dir / crash_driver.SEG2_NAME).read_bytes()
            if point == "mid-capture":
                # the kill lands 0.5 s after the last flush, so exactly the
                # final chunk (within the 1 s flush_interval) dies unflushed
                assert seg2_bytes == b"".join(crash_driver.SEG2_CHUNKS[:3])
            else:
                assert seg2_bytes == b""  # killed at rotation: nothing fed yet

            assert recover(session_dir) == 0
            state = StateStore.load(session_dir / STATE_NAME)
            assert [e.name for e in state.entries] == raws
            assert all(e.stage == CONVERTED and e.error is None for e in state.entries)
            assert any(e.get("recovered") for e in read_events(session_dir))

            # reference: uninterrupted processing of the same durable bytes
            ref = root / "reference"
            ref.mkdir()
            settings = pipeline_settings(dict(crash_driver.CONFIG))
            ref_state = StateStore(ref / STATE_NAME, crash_driver.SESSION_ID)
            for name in raws:
                shutil.copy2(session_dir / name, ref / name)
                ref_state.add_segment(name)
                process_segment(ref, name, settings, ref_state, Hooks())

            for name in raws:
                stem = name.rsplit(".", 1)[0]
                recovered_dir = session_dir / "exports" / stem
                reference_dir = ref / "exports" / stem
                names = sorted(p.name for p in recovered_dir.iterdir())
                assert names == sorted(p.name for p in reference_dir.iterdir())
                for file_name in names:
                    got = (recovered_dir / file_name).read_bytes()
                    assert got == (reference_dir / file_name).read_bytes(), (
                        f"{point}: {stem}/{file_name} differs after recovery"
                    )

    _criterion(capsys, 8, "crash-recovery", body)


# --- 9: liveness isolation ----------------------------------------------------


class _GatedSource(ScriptedSource):
    """ScriptedSource that resolves callable payloads at read time."""

    def read(self, max_bytes: int, timeout: float) -> bytes:
        data = super().read(max_bytes, timeout)
        return data() if callable(data) else data


def test_criterion_9_liveness_isolation(tmp_path, capsys):
    def body():
        clock = ManualClock(utc(2020, 4, 17, 12, 0, 0))
        session_dir = tmp_path / "c9"
        seg3_name = "raw_20200417T140320Z.log"
        failure_started = threading.Event()
        seg3_size_at_failure = []

        hooks = Hooks()

        def explode(count: int) -> None:
            if count == 2:
                path = session_dir / seg3_name
                seg3_size_at_failure.append(path.stat().st_size if path.exists() else None)
                failure_started.set()
                raise RuntimeError("converter exploded")

        hooks.on("mid-convert", explode)

        block1 = crlf(zda_line(utc(2020, 4, 17, 12, 0, 5)), gga_line(tod="120006.000"),
                      gga_line(tod="120007.000"))
        block2 = crlf(zda_line(utc(2020, 4, 17, 13, 1, 45)), gga_line(tod="130146.000"),
                      gga_line(tod="130147.000"), gga_line(tod="130148.000"))
        block3 = crlf(zda_line(utc(2020, 4, 17, 14, 3, 25)), gga_line(tod="140326.000"),
                      gga_line(tod="140327.000"), gga_line(tod="140328.000"),
                      gga_line(tod="140329.000"))

        def gated_block3() -> bytes:
            # capture segment 3 only once the converter failure is underway,
            # so the accrual below demonstrably overlaps it
            failure_started.wait(timeout=10.0)
            return block3

        steps = [
            (0.0, block1),
            (3700.0, b""),
            (0.0, block2),
            (3700.0, b""),
            (0.0, gated_block3),
        ]
        config = {
            "out_dir": str(tmp_path),
            "session_id": "c9",
            "rotation": "1h",
            "on_eof": "stop",
            "inline_processing": False,
            "max_workers": 1,
            "formats": ["columns"],
        }
        code = run_pipeline(
            config, clock=clock, source=_GatedSource(clock, steps), hooks=hooks
        )
        assert code == 2  # flagged segment reported, run not aborted

        raws = sorted(p.name for p in session_dir.glob("raw_*.log"))
        assert raws == [
            "raw_20200417T120000Z.log",
            "raw_20200417T130140Z.log",
            seg3_name,
        ]
        # capture never paused: all three segments hold their full feed
        assert (session_dir / raws[0]).read_bytes() == block1
        assert (session_dir / raws[1]).read_bytes() == block2
        assert (session_dir / raws[2]).read_bytes() == block3
        # segment 3 grew from empty only after the converter had failed
        assert failure_started.is_set()
        assert seg3_size_at_failure == [0]

        state = StateStore.load(session_dir / STATE_NAME)
        by_name = {e.name: e for e in state.entries}
        assert by_name[raws[0]].stage == CONVERTED and by_name[raws[0]].error is None
        assert by_name[raws[1]].stage == CLASSIFIED and by_name[raws[1]].error is not None
        assert "converter exploded" in by_name[raws[1]].error
        assert by_name[raws[2]].stage == CONVERTED and by_name[raws[2]].error is None

        assert (session_dir / "exports" / raws[0][:-4] / MANIFEST_NAME).exists()
        assert not (session_dir / "exports" / raws[1][:-4]).exists()
        assert (session_dir / "exports" / raws[2][:-4] / MANIFEST_NAME).exists()

        # the flagged segment is not lost: recovery converts it afterwards
        assert recover(session_dir) == 0
        state = StateStore.load(session_dir / STATE_NAME)
        assert all(e.stage == CONVERTED and e.error is None for e in state.entries)
        manifest = read_json(session_dir / "exports" / raws[1][:-4] / MANIFEST_NAME)
        assert manifest["record_counts"]["gps_fix"] == 3

    _criterion(capsys, 9, "liveness-isolation", body)
