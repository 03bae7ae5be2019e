"""Every record takes the date its own stream reports.

Each case is one segment run through ``process_segment`` and through
``gpsloran classify`` + ``gpsloran convert --classified``; the exported
timestamps must equal the instants the receiver wrote them for.
"""
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpsloran.classify import route
from gpsloran.cli import main
from gpsloran.convert import read_gps_export, read_loran_export
from gpsloran.orchestrate import STATE_NAME, Hooks, StateStore, pipeline_settings, process_segment
from gpsloran.parse import GpsFix, LoranMeasurement
from gpsloran.simulate import serialize, serialize_zda
from gpsloran.timeutil import MS_PER_DAY, from_ms, iso_ms

from conftest import ms, parse_records, read_records, rmc_line

HOUR = 3_600_000


def fix(at: int) -> bytes:
    return serialize(GpsFix(at, 37.0, 127.0, 30.0, 1, 8, 1.0))


def station(at: int) -> bytes:
    return serialize(LoranMeasurement(at, 9930, "M", 45678.9, 12.0, 0.5))


def flip_checksum(line: bytes) -> bytes:
    return line[:-2] + b"%02X" % (int(line[-2:], 16) ^ 0xFF)


class Receiver:
    """Lines in stream order, with the instant of every GGA and $PLRM line."""

    def __init__(self):
        self.lines: list[bytes] = []
        self.gps: list[int] = []
        self.loran: list[int] = []

    def second(self, at: int, date: bytes | None = None, gga_first: bool = True) -> None:
        """One second: a fix, the date line *date* before or after it, and a
        Loran observation half a second in."""
        dated = [date] if date is not None else []
        self.lines += [fix(at), *dated] if gga_first else [*dated, fix(at)]
        self.lines.append(station(at + 500))
        self.gps.append(at)
        self.loran.append(at + 500)

    def to_bytes(self) -> bytes:
        return b"".join(line + b"\r\n" for line in self.lines)


def midnight_rotated() -> tuple[int, Receiver]:
    """A segment opened at midnight, starting with the second buffered
    before it; ZDA every 10 s, after its second's fix."""
    opened = ms(2020, 4, 19)
    rx = Receiver()
    for at in range(opened - 1000, opened + 29_000, 1000):
        rx.second(at, serialize_zda(at) if at % 10_000 == 0 else None)
    return opened, rx


def silence_30h() -> tuple[int, Receiver]:
    """30 h without a sentence; each second's GGA ahead of its RMC."""
    opened = ms(2020, 4, 17, 12)
    rx = Receiver()
    for start in (opened, opened + 30 * HOUR):
        for at in range(start, start + 30_000, 1000):
            rx.second(at, rmc_line(from_ms(at)))
    return opened, rx


def fixes_stop_before_dates() -> tuple[int, Receiver]:
    """Fixes stop 2 h before the ZDA lines do; both resume after 30 h."""
    opened = ms(2020, 4, 17, 10)
    rx = Receiver()
    for at in range(opened, opened + 30_000, 1000):
        rx.second(at, serialize_zda(at))
    last_date = opened + 2 * HOUR + 30_000
    rx.lines += [serialize_zda(at) for at in range(opened + 60_000, last_date + 1, 60_000)]
    for at in range(last_date + 30 * HOUR, last_date + 30 * HOUR + 30_000, 1000):
        rx.second(at, serialize_zda(at))
    return opened, rx


def forward_jump_without_dates() -> tuple[int, Receiver]:
    """A 12.5 h forward jump and no date sentence: the day stays."""
    opened = ms(2020, 4, 17, 1)
    rx = Receiver()
    for at in (opened, opened + 1000, opened + 45_000_000, opened + 45_001_000):
        rx.second(at)
    return opened, rx


def two_days_with_quarantined_dates() -> tuple[int, Receiver]:
    """48 h at one second every 5 min, ZDA with each; the ZDA lines of two
    6 h stretches across midnight fail their checksum, so the reported
    instants are never 12 h apart."""
    opened = ms(2020, 4, 17, 6)
    rx = Receiver()
    for at in range(opened, opened + 48 * HOUR, 300_000):
        offset = (at - opened) // HOUR
        zda = serialize_zda(at)
        rx.second(at, flip_checksum(zda) if 15 <= offset < 21 or 39 <= offset < 45 else zda)
    return opened, rx


CASES = {
    "midnight-rotated": midnight_rotated,
    "silence-30h": silence_30h,
    "fixes-stop-before-dates": fixes_stop_before_dates,
    "forward-jump-without-dates": forward_jump_without_dates,
    "two-days-with-quarantined-dates": two_days_with_quarantined_dates,
}


def segment_name(opened: int) -> str:
    return "raw_" + iso_ms(opened)[:19].replace("-", "").replace(":", "") + "Z.log"


def exported(exports: Path) -> tuple[list[int], list[int]]:
    gps = read_records(read_gps_export, exports / "timeline_gps.csv")
    loran = read_records(read_loran_export, exports / "timeline_loran.csv")
    return [r.timestamp for r in gps], [r.timestamp for r in loran]


@pytest.mark.parametrize("case", CASES)
def test_process_segment_dates_every_record(tmp_path, case):
    opened, rx = CASES[case]()
    name = segment_name(opened)
    (tmp_path / name).write_bytes(rx.to_bytes())
    state = StateStore(tmp_path / STATE_NAME, "dates")
    state.add_segment(name)
    process_segment(tmp_path, name, pipeline_settings({"formats": ["columns"]}), state, Hooks())
    assert exported(tmp_path / "exports" / name[:-4]) == (rx.gps, rx.loran)


@pytest.mark.parametrize("case", CASES)
def test_classify_and_convert_date_every_record(tmp_path, capsys, case):
    opened, rx = CASES[case]()
    segment = tmp_path / "segment.log"
    segment.write_bytes(rx.to_bytes())
    classified, exports = tmp_path / "classified", tmp_path / "exports"
    assert main(["classify", "--segment", str(segment), "--out", str(classified)]) == 0
    convert = ["convert", "--classified", str(classified), "--out", str(exports)]
    assert main([*convert, "--start-date", iso_ms(opened)[:10]]) == 0
    capsys.readouterr()
    assert exported(exports) == (rx.gps, rx.loran)


@settings(max_examples=150, deadline=None)
@given(
    start=st.one_of(
        st.integers(-150, 150).map(lambda s: ms(2020, 4, 18) + s * 1000),
        st.integers(0, 86_399).map(lambda s: ms(2020, 4, 18) + s * 1000),
    ),
    period=st.integers(1, 60),
    gga_first=st.booleans(),
    buffered=st.integers(0, 3),
    lengths=st.tuples(st.integers(4, 90), st.integers(1, 90)),
    silence_s=st.builds(lambda hours, s: hours * 3600 + s,
                        st.integers(0, 47), st.integers(0, 3600)),
)
def test_parse_classified_timestamps_equal_the_receiver_instants(
    start, period, gga_first, buffered, lengths, silence_s
):
    """Two runs of seconds around one silence.  The segment opens *buffered*
    seconds into the first run; each run has a date sentence on its first
    second from the open instant on, and every *period* seconds after."""
    first = [start + i * 1000 for i in range(lengths[0])]
    resume = first[-1] + 1000 + silence_s * 1000
    second = [resume + i * 1000 for i in range(lengths[1])]
    # A record from the first run's last date sentence on, within a date
    # period of a whole number of days before the first date after the
    # silence, reads the same either side of the silence.
    assume(all(abs((resume - at + MS_PER_DAY // 2) % MS_PER_DAY - MS_PER_DAY // 2) > period * 1000
               for at in first[-period:]))
    rx = Receiver()
    for run, skip in ((first, buffered), (second, 0)):
        for index, at in enumerate(run):
            dated = index >= skip and (index - skip) % period == 0
            rx.second(at, serialize_zda(at) if dated else None, gga_first)
    with tempfile.TemporaryDirectory() as scratch:
        segment = Path(scratch) / "segment.log"
        segment.write_bytes(rx.to_bytes())
        classified = Path(scratch) / "classified"
        route(segment, classified)
        parsed = parse_records(classified, open_time=start + buffered * 1000)
    assert [f.timestamp for f in parsed.gps] == rx.gps
    assert [m.timestamp for m in parsed.loran] == rx.loran
    assert parsed.errors == []
