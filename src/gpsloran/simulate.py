"""Deterministic receiver simulator: synthetic GPS/Loran byte streams.

A :class:`Scenario` describes a capture period — GPS fix rate, Loran
stations with piecewise-linear SNR/TOA profiles, corruption rates — and
:func:`generate_stream` turns it into the exact byte stream an
integrated receiver would emit (interleaved GGA, ZDA, and ``$PLRM``
sentences) together with the ground-truth record list for every
uncorrupted sentence.  The same (scenario, seed) always yields identical
bytes and identical ground truth, which makes the simulator the oracle
for end-to-end pipeline tests.

All generated values are pre-snapped to the serialization grid (see the
quantize helpers below), so a pipeline that loses no data reproduces the
ground truth bit for bit.

Scenario files are JSON::

    {
      "seed": 42,
      "start": "2020-04-17T00:00:00Z",
      "duration_s": 86400,
      "gps_rate_hz": 1.0,
      "zda_period_s": 10.0,
      "position": {"lat": 37.0, "lon": 127.0, "alt_m": 30.0,
                   "noise_sigma_deg": 0.0001, "noise_sigma_alt_m": 0.5},
      "stations": [
        {"gri": 9930, "role": "M", "rate_hz": 0.1,
         "toa_profile": 45678.9,
         "snr_profile": [[0, 10.0], [43200, 18.0], [86400, 10.0]],
         "ecd_us": 1.2}
      ],
      "corruption": {"bad_checksum_rate": 0.0,
                     "garbage_line_rate": 0.0,
                     "truncation_rate": 0.0}
    }

Profiles are either a constant number or a list of ``[t_offset_s,
value]`` breakpoints, linearly interpolated and clamped at the ends.
"""
from __future__ import annotations

import logging
import math
import random
import socket
import threading
import time
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field as dataclass_field, fields
from itertools import count, takewhile
from pathlib import Path

from .convert import export, merge_sort
from .fsutil import json_number, read_json
from .parse import GpsFix, LoranMeasurement, check_fix, loran_values, parse_coordinate
from .timeutil import iso_ms, parse_iso_ms

logger = logging.getLogger(__name__)

_POSITION = frozenset({"lat", "lon", "alt_m", "noise_sigma_deg", "noise_sigma_alt_m"})


def _check_rate(name: str, rate: float) -> None:
    # Event times are whole milliseconds: a rate that is not positive never ends the
    # stream, and one above 1000 Hz repeats instants (at 1e300 Hz, t=0 forever).
    if not 0 < rate <= 1000:
        raise ValueError(f"{name} must be positive and at most 1000: {rate!r}")


def _check_numbers(spec) -> None:
    """Hold each ``"int"`` and ``"float"`` field (annotations are text here)
    to :func:`json_number`."""
    for item in fields(spec):
        if item.type in ("int", "float"):
            setattr(spec, item.name, json_number(getattr(spec, item.name), item.name, item.type))


class PiecewiseLinear:
    """Piecewise-linear function of scenario time (seconds from start),
    from a constant or from ``[t_offset_s, value]`` breakpoints in time
    order: linear between breakpoints and clamped at the ends."""

    def __init__(self, profile) -> None:
        pairs = profile if isinstance(profile, (list, tuple)) else [(0.0, profile)]
        self.points = [(json_number(t, "profile time"), json_number(v, "profile value"))
                       for t, v in pairs]
        self.times = [t for t, _ in self.points]
        if not self.points:
            raise ValueError("profile needs at least one point")
        if self.times != sorted(self.times):
            raise ValueError("profile breakpoints must be time-ordered")

    def sample(self, t: float) -> float:
        points = self.points
        if t <= points[0][0]:
            return points[0][1]
        if t >= points[-1][0]:
            return points[-1][1]
        index = bisect_left(self.times, t)  # the first pair with t0 < t <= t1
        (t0, v0), (t1, v1) = points[index - 1], points[index]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


@dataclass
class StationSpec:
    """One Loran station; each profile is given as :class:`PiecewiseLinear` takes it."""

    gri: int
    role: str
    rate_hz: float = 0.1
    toa_profile: PiecewiseLinear = 45678.9
    snr_profile: PiecewiseLinear = 12.0
    ecd_us: float = 0.0

    def __post_init__(self) -> None:
        _check_numbers(self)
        # parse's checks of a $PLRM line, so the ground truth holds only what the pipeline keeps
        loran_values(self.gri, self.role, 0.0, 0.0, self.ecd_us)
        _check_rate("rate_hz", self.rate_hz)
        for name in ("toa_profile", "snr_profile"):
            try:
                setattr(self, name, PiecewiseLinear(getattr(self, name)))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from None


@dataclass
class Corruption:
    bad_checksum_rate: float = 0.0
    garbage_line_rate: float = 0.0
    truncation_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_numbers(self)
        for name, rate in vars(self).items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {rate}")
        if self.bad_checksum_rate + self.truncation_rate > 1.0:
            raise ValueError("bad_checksum_rate + truncation_rate must not exceed 1")


@dataclass
class Scenario:
    seed: int = 0
    start: int = parse_iso_ms("2020-04-17T00:00:00.000Z")  # epoch milliseconds
    duration_s: float = 60.0
    gps_rate_hz: float = 1.0
    zda_period_s: float = 10.0
    lat: float = 37.0
    lon: float = 127.0
    alt_m: float = 30.0
    noise_sigma_deg: float = 0.0001
    noise_sigma_alt_m: float = 0.5
    fix_quality: int = 1
    stations: list[StationSpec] = dataclass_field(default_factory=list)
    corruption: Corruption = dataclass_field(default_factory=Corruption)

    def __post_init__(self) -> None:
        _check_numbers(self)
        if not self.duration_s > 0:
            raise ValueError(f"duration_s must be positive: {self.duration_s!r}")
        _check_rate("gps_rate_hz", self.gps_rate_hz)
        if 0 < self.zda_period_s < 0.001:  # a step under 1 ms may round to none
            raise ValueError(f"zda_period_s must be >= 0.001 or <= 0: {self.zda_period_s!r}")
        check_fix(self.lat, self.lon, self.fix_quality, 0, None)

    @classmethod
    def from_json(cls, payload: dict) -> Scenario:
        """The scenario a JSON object describes.  Each object's keys go to
        its class, ``position``'s to the scenario's own position fields, so
        a key that no class takes is a ``ValueError`` at every level."""
        try:
            scenario = {**payload}
            position = {**scenario.pop("position", {})}
            misplaced = sorted(scenario.keys() & _POSITION | position.keys() - _POSITION)
            if misplaced:
                raise ValueError(f"unknown scenario key: {misplaced[0]!r}")
            if "start" in scenario:
                scenario["start"] = parse_iso_ms(scenario["start"])
            stations = scenario["stations"] = []
            for index, item in enumerate(payload.get("stations", [])):
                try:
                    stations.append(StationSpec(**item))
                except ValueError as exc:
                    raise ValueError(f"stations[{index}]: {exc}") from None
            scenario["corruption"] = Corruption(**scenario.get("corruption", {}))
            return cls(**scenario, **position)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed scenario: {exc}") from None

    @classmethod
    def from_file(cls, path: Path) -> Scenario:
        return cls.from_json(read_json(Path(path)))


@dataclass(frozen=True)
class TimedChunk:
    offset_s: float
    data: bytes


@dataclass
class SimStream:
    chunks: list[TimedChunk]

    def to_bytes(self) -> bytes:
        return b"".join(chunk.data for chunk in self.chunks)


@dataclass
class GroundTruth:
    gps: list[GpsFix]
    loran: list[LoranMeasurement]
    emitted_sentences: int = 0
    bad_checksum_lines: int = 0
    truncated_lines: int = 0
    garbage_lines: int = 0

    @property
    def corrupted_lines(self) -> int:
        return self.bad_checksum_lines + self.truncated_lines


# --- serialization ---------------------------------------------------------
#
# serialize() is the exact inverse of gpsloran.parse at the declared
# field precisions (coordinates: 4 decimal minutes; times: milliseconds;
# TOA/SNR/ECD: 1 decimal; HDOP: 2 decimals; altitude: 1 decimal).  The
# quantize_* helpers snap a value onto that grid, defined as
# parse(format(x)) so quantized values round-trip bit-exactly.


def format_coordinate(value: float, axis: str) -> tuple[str, str]:
    """Encode signed degrees as an NMEA field pair; zero maps to N/E."""
    if axis == "lat":
        hemisphere = "N" if value >= 0 else "S"
        width = 2
    else:
        hemisphere = "E" if value >= 0 else "W"
        width = 3
    degrees = int(abs(value))
    minutes = f"{(abs(value) - degrees) * 60.0:07.4f}"
    if minutes == "60.0000":
        degrees += 1
        minutes = "00.0000"
    return f"{degrees:0{width}d}{minutes}", hemisphere


def quantize_coordinate(value: float, axis: str = "lat") -> float:
    """Snap degrees onto the 4-decimal-minutes serialization grid."""
    text, hemisphere = format_coordinate(value, axis)
    return parse_coordinate(text, hemisphere, axis)


def quantize_decimal(value: float, decimals: int = 1) -> float:
    """Snap onto a fixed-decimal grid, exactly as serialized and reparsed."""
    return float(f"{value:.{decimals}f}")


def format_tod(ms: int) -> str:
    """``hhmmss.sss`` of epoch milliseconds *ms*."""
    return iso_ms(ms)[11:23].replace(":", "")


def _with_checksum(body: str) -> bytes:
    payload = body.encode("ascii")
    fold = 0
    for byte in payload:
        fold ^= byte
    return b"$" + payload + f"*{fold:02X}".encode("ascii")


def serialize(record: GpsFix | LoranMeasurement) -> bytes:
    """Render a record as a checksummed sentence (without line terminator).

    ``parse(serialize(r)) == r`` whenever ``r``'s fields already sit on
    the serialization grid (see the quantize helpers).
    """
    if isinstance(record, GpsFix):
        if record.lat is None:
            lat_text = ns = lon_text = ew = ""
        else:
            lat_text, ns = format_coordinate(record.lat, "lat")
            lon_text, ew = format_coordinate(record.lon, "lon")
        hdop = "" if record.hdop is None else f"{record.hdop:.2f}"
        alt = "" if record.alt_m is None else f"{record.alt_m:.1f}"
        body = (
            f"GPGGA,{format_tod(record.timestamp)},{lat_text},{ns},{lon_text},{ew},"
            f"{record.fix_quality},{record.num_sats:02d},{hdop},{alt},M,,M,,"
        )
        return _with_checksum(body)
    if isinstance(record, LoranMeasurement):
        body = (
            f"PLRM,{format_tod(record.timestamp)},{record.gri},{record.station_role},"
            f"{record.toa_us:.1f},{record.snr_db:.1f},{record.ecd_us:.1f}"
        )
        return _with_checksum(body)
    raise TypeError(f"cannot serialize {type(record).__name__}")


def serialize_zda(ms: int, talker: str = "GP") -> bytes:
    """Render a ZDA date/time sentence for epoch milliseconds *ms*."""
    text = iso_ms(ms)
    return _with_checksum(f"{talker}ZDA,{format_tod(ms)},{text[8:10]},{text[5:7]},{text[:4]},00,00")


# Event kinds in emission-priority order at equal timestamps: the date
# sentence leads, then the fix, then station observations in scenario
# order.
_ZDA, _GGA, _PLRM = 0, 1, 2


def _event_times(rate_hz: float, duration_ms: int) -> Iterator[int]:
    return takewhile(lambda t_ms: t_ms < duration_ms,
                     (round(k * 1000.0 / rate_hz) for k in count()))


def _flip_checksum(line: bytes) -> bytes:
    star = line.rfind(b"*")
    value = int(line[star + 1 :], 16)
    return line[: star + 1] + f"{(value + 1) % 256:02X}".encode("ascii")


def _truncate(line: bytes) -> bytes:
    first = line.find(b",")
    second = line.find(b",", first + 1)
    return line[:second] if second != -1 else line[:first]


def generate_stream(scenario: Scenario) -> tuple[SimStream, GroundTruth]:
    """Build the receiver byte stream and its ground truth.

    Corrupted sentences (flipped checksum or truncation) and inserted
    garbage lines are counted but excluded from the ground truth; they
    must surface downstream only as quarantined lines or parse errors.
    """
    rng = random.Random(scenario.seed)
    duration_ms = round(scenario.duration_s * 1000)

    events: list[tuple[int, int, int]] = []
    if scenario.zda_period_s > 0:
        zda_ms = round(scenario.zda_period_s * 1000)
        events.extend((t, _ZDA, 0) for t in range(0, duration_ms, zda_ms))
    events.extend((t, _GGA, 0) for t in _event_times(scenario.gps_rate_hz, duration_ms))
    for index, station in enumerate(scenario.stations):
        events.extend(
            (t, _PLRM + index, index) for t in _event_times(station.rate_hz, duration_ms)
        )
    events.sort(key=lambda e: (e[0], e[1]))

    chunks: list[TimedChunk] = []
    truth = GroundTruth(gps=[], loran=[])
    rates = scenario.corruption

    for t_ms, kind, station_index in events:
        offset_s = t_ms / 1000.0
        moment = scenario.start + t_ms

        if rng.random() < rates.garbage_line_rate:
            garbage = f"#{rng.randrange(1 << 32):08x}".encode("ascii")
            chunks.append(TimedChunk(offset_s, garbage + b"\r\n"))
            truth.garbage_lines += 1

        record = None
        if kind == _ZDA:
            line = serialize_zda(moment)
        elif kind == _GGA:
            lat = quantize_coordinate(
                min(max(scenario.lat + rng.gauss(0.0, scenario.noise_sigma_deg), -90.0), 90.0),
                "lat",
            )
            lon = quantize_coordinate(
                min(max(scenario.lon + rng.gauss(0.0, scenario.noise_sigma_deg), -180.0), 180.0),
                "lon",
            )
            record = GpsFix(
                timestamp=moment,
                lat=lat,
                lon=lon,
                alt_m=quantize_decimal(
                    scenario.alt_m + rng.gauss(0.0, scenario.noise_sigma_alt_m), 1
                ),
                fix_quality=scenario.fix_quality,
                num_sats=rng.randint(6, 12),
                hdop=quantize_decimal(0.8 + 0.4 * rng.random(), 2),
            )
            line = serialize(record)
        else:
            station = scenario.stations[station_index]
            toa_cap = station.gri * 10 - 0.1
            record = LoranMeasurement(
                timestamp=moment,
                gri=station.gri,
                station_role=station.role,
                toa_us=quantize_decimal(
                    min(max(station.toa_profile.sample(offset_s), 0.0), toa_cap), 1
                ),
                snr_db=quantize_decimal(station.snr_profile.sample(offset_s), 1),
                ecd_us=quantize_decimal(station.ecd_us, 1),
            )
            line = serialize(record)

        truth.emitted_sentences += 1
        draw = rng.random()
        if draw < rates.bad_checksum_rate:
            line = _flip_checksum(line)
            truth.bad_checksum_lines += 1
            record = None
        elif draw < rates.bad_checksum_rate + rates.truncation_rate:
            line = _truncate(line)
            truth.truncated_lines += 1
            record = None

        if record is not None:
            (truth.gps if kind == _GGA else truth.loran).append(record)
        chunks.append(TimedChunk(offset_s, line + b"\r\n"))

    return SimStream(chunks), truth


def write_ground_truth(
    truth: GroundTruth,
    out_dir: Path,
    formats: tuple[str, ...] | str = "columns",
    *,
    gap_threshold_s: float = 300.0,
) -> dict:
    """Export the ground truth with the same schema files a pipeline run
    produces, so the two can be compared record for record."""
    return export(
        merge_sort(truth.gps, truth.loran, window=None),
        formats,
        Path(out_dir),
        session_id="ground-truth",
        gap_threshold_s=gap_threshold_s,
    )


# --- serving ----------------------------------------------------------------


class SimServer:
    """Serves a generated stream to one TCP client at a time.

    *pace* is ``unpaced`` (as fast as the socket accepts), ``real-time``
    (chunks spaced by their scenario offsets) or ``accelerated:<factor>``
    (those gaps divided by a positive, finite factor).  The stream position
    survives a client disconnect, so a reconnecting client resumes where it
    left off; once the final chunk is sent the server closes and stops.
    """

    def __init__(
        self,
        stream: SimStream,
        host: str = "127.0.0.1",
        port: int = 0,
        pace: str = "unpaced",
    ):
        mode, _, factor = pace.partition(":")
        speed_ups = {"unpaced": math.inf, "real-time": 1.0}  # unpaced: no chunk waits
        try:
            self._factor = float(factor) if mode == "accelerated" else speed_ups[pace]
        except (KeyError, ValueError):
            self._factor = math.nan
        if not (0 < self._factor < math.inf or pace == "unpaced"):
            raise ValueError(f"bad pace {pace!r}; use real-time, unpaced, or "
                             "accelerated:<factor> with a positive, finite factor")
        self._chunks = stream.chunks
        self._position = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1)
        self.host, self.port = self._listener.getsockname()[:2]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "SimServer":
        self._thread = threading.Thread(target=self._run, name="sim-server", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        self._listener.settimeout(0.1)
        try:
            while not self._stop.is_set() and self._position < len(self._chunks):
                try:
                    conn, peer = self._listener.accept()
                except TimeoutError:
                    continue
                except OSError:
                    break
                logger.info("event=client_connected peer=%s:%s", *peer[:2])
                with conn:
                    self._feed(conn)
                if self._position < len(self._chunks):
                    logger.info("event=client_left chunk=%d next=await_reconnect", self._position)
        finally:
            self._listener.close()

    def _feed(self, conn: socket.socket) -> None:
        anchor_wall = time.monotonic()
        anchor_offset = self._chunks[self._position].offset_s
        for index in range(self._position, len(self._chunks)):
            if self._stop.is_set():
                return
            chunk = self._chunks[index]
            delay = anchor_wall + (chunk.offset_s - anchor_offset) / self._factor - time.monotonic()
            if delay > 0.002:
                time.sleep(delay)
            try:
                conn.sendall(chunk.data)
            except OSError:
                return
            self._position = index + 1

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def stop(self) -> None:
        self._stop.set()
        self.join(timeout=2.0)
        self._listener.close()
