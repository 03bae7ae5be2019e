"""Seeded stream generator and oracle for the benchmark.

Everything here is written apart from the package under test: sentences
are built with their own writer and XOR checksum, and every line carries
the class file it must land in and the record (or parse error) it must
produce.  Nothing imports ``gpsloran``, so a change to the package's
simulator or serializer can neither shift the workloads nor hide a fault.

Run ``python3 bench/gen.py --workload day-dense --seed 1 --out DIR`` to
write a workload's raw segments plus ``expected.json`` (the expected
records per segment) for inspection.
"""
from __future__ import annotations

import argparse
import functools
import json
import operator
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

UTC = timezone.utc
QUARANTINE = "quarantine"
MAX_LINE_BYTES = 8192  # documented classify bound; longer lines are quarantined

# Workload make-up.  Corruption rates are per sentence written.
DENSE_STATIONS = [(9930, "M"), (9930, "W"), (9930, "X"), (9930, "Y"),
                  (7430, "M"), (7430, "X"), (7430, "Y")]
NOISY_STATIONS = [(9930, "M"), (9930, "X"), (7430, "M")]
MAKEUP = {
    "day-dense": dict(talker="GP", date_sentence="ZDA", zda_period_s=10,
                      stations=DENSE_STATIONS, loran_period_s=1, chatter=False,
                      bad_checksum=0.01, garbage=0.005, truncated=0.001, overlong=0.0),
    "day-noisy": dict(talker="GN", date_sentence="RMC", zda_period_s=None,
                      stations=NOISY_STATIONS, loran_period_s=10, chatter=True,
                      bad_checksum=0.05, garbage=0.04, truncated=0.04, overlong=0.0005),
}
MAKEUP["live-capture"] = MAKEUP["day-dense"]
# Batch workloads: (segments per round, seconds of receiver time per segment).
BATCH_LAYOUT = {"day-dense": (2, 1800), "day-noisy": (4, 3600)}

# Minimum field counts below which each parsed sentence is an error.
REQUIRED_FIELDS = {"GGA": 10, "ZDA": 5, "RMC": 10, "PLRM": 7}


def xor_checksum(body: bytes) -> int:
    return functools.reduce(operator.xor, body, 0)


def sentence(body: str) -> bytes:
    payload = body.encode("ascii")
    return b"$" + payload + b"*%02X" % xor_checksum(payload)


def epoch_ms(moment: datetime) -> int:
    return round(moment.timestamp() * 1000)


def tod_text(moment: datetime) -> str:
    return f"{moment:%H%M%S}.{moment.microsecond // 1000:03d}"


@dataclass
class Stream:
    """Lines in stream order, each with its due time and what it must become.

    ``records[i]`` is the expected record tuple, ``errors[i]`` is True for
    a line routed to a parsed class file that must become a parse error.
    GPS records are ``("gps", ms, lat, lon, alt, quality, sats, hdop)`` and
    Loran records ``("loran", ms, gri, role, toa, snr, ecd)``.
    """

    lines: list[bytes] = field(default_factory=list)
    due: list[float] = field(default_factory=list)  # epoch seconds
    labels: list[str] = field(default_factory=list)
    records: list[tuple | None] = field(default_factory=list)
    errors: list[bool] = field(default_factory=list)

    def add(self, line: bytes, due: float, label: str, record=None, error=False) -> None:
        self.lines.append(line)
        self.due.append(due)
        self.labels.append(label)
        self.records.append(record)
        self.errors.append(error)

    def slice(self, start: int, stop: int) -> "Stream":
        return Stream(self.lines[start:stop], self.due[start:stop], self.labels[start:stop],
                      self.records[start:stop], self.errors[start:stop])

    def to_bytes(self) -> bytes:
        return b"".join(line + b"\r\n" for line in self.lines)

    def expected(self) -> dict:
        """Expected outputs of processing exactly these lines as one segment."""
        classes: dict[str, list[bytes]] = {}
        for line, label in zip(self.lines, self.labels):
            classes.setdefault(label, []).append(line)
        gps, loran = [], []
        for index, record in enumerate(self.records):
            if record is not None:
                (gps if record[0] == "gps" else loran).append((record, index))
        timeline = sorted(gps + loran, key=lambda r: (r[0][1], r[0][0] != "gps", r[1]))
        error_lines = []
        positions: dict[str, int] = {}
        for line, label, error in zip(self.lines, self.labels, self.errors):
            positions[label] = positions.get(label, 0) + 1
            if error:
                error_lines.append((f"{label}.txt", positions[label], line.decode("latin-1")))
        return {
            "classes": classes,
            "gps": [r for r, _ in gps],
            "loran": [r for r, _ in loran],
            "timeline": [r for r, _ in timeline],
            "errors": error_lines,
            "quarantined": len(classes.get(QUARANTINE, [])),
        }


class Receiver:
    """A seeded receiver writing one workload's sentence mix second by second."""

    def __init__(self, workload: str, seed: int):
        self.cfg = MAKEUP[workload]
        self.rng = random.Random(seed)
        self.lat_q = 37 * 600000 + self.rng.randrange(600000)  # 1e-4 arc-minute units
        self.lon_q = 127 * 600000 + self.rng.randrange(600000)
        self.alt_dm = 300 + self.rng.randrange(200)
        self.snr = {station: 10.0 + self.rng.random() * 10 for station in self.cfg["stations"]}

    # -- sentence writers; each returns (line, label, record)

    def gga(self, tod: str, ms: int):
        rng = self.rng
        self.lat_q += rng.randint(-30, 30)
        self.lon_q += rng.randint(-30, 30)
        self.alt_dm += rng.randint(-3, 3)
        header = f"{self.cfg['talker']}GGA"
        if rng.random() < 0.01:
            body = f"{header},{tod},,,,,0,00,,,M,,M,,"
            return body, header, ("gps", ms, None, None, None, 0, 0, None)
        lat_deg, lat_min = divmod(self.lat_q, 600000)
        lon_deg, lon_min = divmod(self.lon_q, 600000)
        lat_text = f"{lat_deg:02d}{lat_min // 10000:02d}.{lat_min % 10000:04d}"
        lon_text = f"{lon_deg:03d}{lon_min // 10000:02d}.{lon_min % 10000:04d}"
        lat = lat_deg + float(lat_text[2:]) / 60.0
        lon = -(lon_deg + float(lon_text[3:]) / 60.0)
        quality = rng.choice((1, 1, 1, 2))
        sats = rng.randint(4, 12)
        hdop_text = f"{rng.randint(60, 250) / 100:.2f}"
        alt_text = f"{self.alt_dm / 10:.1f}"
        body = (f"{header},{tod},{lat_text},N,{lon_text},W,{quality},"
                f"{sats:02d},{hdop_text},{alt_text},M,18.0,M,,")
        return body, header, ("gps", ms, lat, lon, float(alt_text), quality, sats,
                              float(hdop_text))

    def zda(self, moment: datetime):
        header = f"{self.cfg['talker']}ZDA"
        body = (f"{header},{tod_text(moment)},{moment.day:02d},{moment.month:02d},"
                f"{moment.year:04d},00,00")
        return body, header, None

    def rmc(self, moment: datetime):
        header = f"{self.cfg['talker']}RMC"
        body = (f"{header},{tod_text(moment)},A,3730.5000,N,12311.1200,W,0.5,054.7,"
                f"{moment:%d%m%y},,")
        return body, header, None

    def plrm(self, tod: str, ms: int, gri: int, role: str):
        rng = self.rng
        snr = self.snr[(gri, role)] = min(max(self.snr[(gri, role)] + rng.uniform(-0.3, 0.3), -5.0), 30.0)
        toa_text = f"{rng.randrange(gri * 100) / 10:.1f}"
        snr_text = f"{snr:.1f}"
        ecd_text = f"{rng.randint(-50, 50) / 10:.1f}"
        body = f"PLRM,{tod},{gri},{role},{toa_text},{snr_text},{ecd_text}"
        record = ("loran", ms, gri, role, float(toa_text), float(snr_text), float(ecd_text))
        return body, "P_LRM", record

    def chatter(self):
        """GSA, GSV and VTG lines: classified, never parsed."""
        rng = self.rng
        sats = ",".join(f"{rng.randint(1, 32):02d}" for _ in range(12))
        out = [(f"GNGSA,A,3,{sats},1.5,0.9,1.2", "GNGSA")]
        for talker, count in (("GP", 3), ("GL", 2)):
            for part in range(1, count + 1):
                views = ",".join(f"{rng.randint(1, 32):02d},{rng.randint(5, 90):02d},"
                                 f"{rng.randint(0, 359):03d},{rng.randint(10, 50)}"
                                 for _ in range(4))
                out.append((f"{talker}GSV,{count},{part},{count * 4},{views}", f"{talker}GSV"))
        out.append(("GNVTG,054.7,T,034.4,M,0.5,N,0.9,K,A", "GNVTG"))
        return out

    # -- corruption

    def emit(self, stream: Stream, due: float, body: str, label: str, record) -> None:
        """Write one sentence, corrupted at the workload's per-line rates, and
        sometimes a garbage or overlong line before it."""
        cfg, rng = self.cfg, self.rng
        if rng.random() < cfg["garbage"]:
            junk = bytes(rng.choice(b"#%&()+-./0123456789:;<=>?@[]^_`{|}~abcdefxyz \x80\xfe")
                         for _ in range(rng.randint(1, 60)))
            stream.add(b"#" + junk, due, QUARANTINE)
        if rng.random() < cfg["overlong"]:
            payload = "GPGSV,9,9,99," + ",".join("07,45,123,40"
                                                  for _ in range(MAX_LINE_BYTES // 12))
            stream.add(sentence(payload), due, QUARANTINE)
        roll = rng.random()
        if roll < cfg["bad_checksum"]:
            good = sentence(body)
            bad = good[:-2] + b"%02X" % ((int(good[-2:], 16) + rng.randint(1, 255)) % 256)
            stream.add(bad, due, QUARANTINE)
            return
        roll -= cfg["bad_checksum"]
        if roll < cfg["truncated"]:
            fields = body.split(",")
            kind = "PLRM" if label == "P_LRM" else label[2:]
            need = REQUIRED_FIELDS.get(kind, len(fields))
            keep = rng.randint(2, min(need, len(fields)) - 1)
            line = b"$" + ",".join(fields[:keep]).encode("ascii")
            stream.add(line, due, label, None, kind in REQUIRED_FIELDS)
            return
        stream.add(sentence(body), due, label, record)

    def second(self, stream: Stream, moment: datetime) -> None:
        """All sentences the receiver emits for one second, due half a second later."""
        cfg = self.cfg
        due = moment.timestamp() + 0.5
        ms = epoch_ms(moment)
        epoch_s = ms // 1000
        hms = f"{moment:%H%M%S}"
        self.emit(stream, due, *self.gga(f"{hms}.000", ms))
        if cfg["date_sentence"] == "ZDA" and epoch_s % cfg["zda_period_s"] == 0:
            self.emit(stream, due, *self.zda(moment))
        if cfg["date_sentence"] == "RMC":
            self.emit(stream, due, *self.rmc(moment))
        if cfg["chatter"]:
            for body, label in self.chatter():
                self.emit(stream, due, body, label, None)
        order = list(range(len(cfg["stations"])))
        self.rng.shuffle(order)
        period = cfg["loran_period_s"]
        for index in order:
            if period > 1 and (epoch_s + 3 * index) % period:
                continue
            gri, role = cfg["stations"][index]
            # Stations share instants in pairs, and the first pair ties with GGA,
            # so both tie rules of the timeline order are exercised.
            offset = 200 * (index // 2)
            self.emit(stream, due, *self.plrm(f"{hms}.{offset:03d}", ms + offset, gri, role))


def build_stream(workload: str, seed: int, start: datetime, seconds: int) -> Stream:
    receiver = Receiver(workload, seed)
    stream = Stream()
    for offset in range(seconds):
        receiver.second(stream, start + timedelta(seconds=offset))
    return stream


@dataclass
class Segment:
    name: str  # raw_<open instant>Z.log, as the recorder names it
    stream: Stream


def segment_name(open_time: datetime) -> str:
    return f"raw_{open_time:%Y%m%dT%H%M%S}Z.log"


def day_start(workload: str, seed: int) -> datetime:
    """A seeded date and hour; segments never cross UTC midnight."""
    rng = random.Random(f"{workload}:{seed}:start")
    day = datetime(2020, 1, 1, tzinfo=UTC) + timedelta(days=rng.randrange(366))
    return day + timedelta(hours=1 + rng.randrange(6))


def batch_segments(workload: str, seed: int, count: int, span_s: int) -> list[Segment]:
    """*count* consecutive segments of *span_s* seconds each.  Every segment
    starts with the last second before its open instant, the way sentences
    buffered in the receiver land after a rotation."""
    start = day_start(workload, seed)
    stream = build_stream(workload, seed, start - timedelta(seconds=1), count * span_s)
    segments, first = [], 0
    for index in range(count):
        open_time = start + timedelta(seconds=index * span_s)
        cut = (open_time + timedelta(seconds=span_s - 1)).timestamp()
        last = first
        while last < len(stream.lines) and stream.due[last] < cut:
            last += 1
        if index == count - 1:
            last = len(stream.lines)
        segments.append(Segment(segment_name(open_time), stream.slice(first, last)))
        first = last
    return segments


MULTIDAY_START = datetime(2020, 4, 17, 12, 0, 0, tzinfo=UTC)
MULTIDAY_RESUME = MULTIDAY_START + timedelta(hours=30)


def multiday_segment() -> Segment:
    """Fixed input, independent of the seed: receiver-dated fixes, more than
    24 h of silence, then more fixes on the next UTC date.  Every record
    after the silence must carry the later date."""
    receiver = Receiver("day-noisy", 0)
    receiver.cfg = dict(receiver.cfg, bad_checksum=0.0, garbage=0.0, truncated=0.0,
                        overlong=0.0, chatter=False, loran_period_s=1)
    stream = Stream()
    for moment in (MULTIDAY_START, MULTIDAY_RESUME):
        for offset in range(30):
            receiver.second(stream, moment + timedelta(seconds=offset))
    return Segment(segment_name(MULTIDAY_START), stream)


def multiday_misdated(stream: Stream) -> Stream:
    """The multi-day segment as the date-context fault stamps it: the same
    lines and records, with every record after the silence a day early."""
    resume = epoch_ms(MULTIDAY_RESUME)
    records = [r if r is None or r[1] < resume else (r[0], r[1] - 86_400_000, *r[2:])
               for r in stream.records]
    return Stream(stream.lines, stream.due, stream.labels, records, stream.errors)


def live_stream(seed: int, data_seconds: int) -> tuple[datetime, Stream]:
    start = day_start("live-capture", seed)
    return start, build_stream("live-capture", seed, start, data_seconds)


def _jsonable(expected: dict) -> dict:
    return {
        "classes": {label: len(lines) for label, lines in expected["classes"].items()},
        "gps": expected["gps"],
        "loran": expected["loran"],
        "errors": expected["errors"],
        "quarantined": expected["quarantined"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("day-dense", "day-noisy", "live-capture"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--live-span-s", type=int, default=15000,
                        help="live-capture stream length in receiver seconds")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload == "live-capture":
        _, stream = live_stream(args.seed, args.live_span_s)
        segments = [Segment("stream.log", stream)]
    else:
        segments = batch_segments(args.workload, args.seed, *BATCH_LAYOUT[args.workload])
        if args.workload == "day-noisy":
            segments.append(multiday_segment())
    expected = {}
    for segment in segments:
        (out / segment.name).write_bytes(segment.stream.to_bytes())
        expected[segment.name] = _jsonable(segment.stream.expected())
    (out / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    print(json.dumps({s.name: len(s.stream.lines) for s in segments}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
