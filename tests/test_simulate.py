import math
import socket
from datetime import timedelta

import pytest

from gpsloran.classify import ChecksumStatus, classify_line, extract_lines, verify_checksum
from gpsloran.convert import read_gps_export, read_loran_export
from gpsloran.parse import DateContext, GpsFix, parse_gga, parse_loran, split_sentence
from gpsloran.simulate import (
    Corruption,
    GroundTruth,
    PiecewiseLinear,
    Scenario,
    SimServer,
    StationSpec,
    generate_stream,
    serve,
    write_ground_truth,
)

from conftest import flat_timeline, ms, read_records, utc


START = utc(2020, 4, 17)


def one_station_scenario(**kwargs):
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("start", START)
    kwargs.setdefault("duration_s", 60.0)
    kwargs.setdefault("stations", [StationSpec(gri=9930, role="M", rate_hz=0.1)])
    return Scenario(**kwargs)


# --- profiles ------------------------------------------------------------------


def test_piecewise_linear_interpolates_and_clamps():
    profile = PiecewiseLinear(((0.0, 10.0), (100.0, 20.0)))
    assert profile.sample(-5.0) == 10.0
    assert profile.sample(0.0) == 10.0
    assert profile.sample(50.0) == 15.0
    assert profile.sample(100.0) == 20.0
    assert profile.sample(500.0) == 20.0


def test_piecewise_linear_coerce():
    assert PiecewiseLinear.coerce(12.5).sample(99.0) == 12.5
    profile = PiecewiseLinear.coerce([[0, 1], [10, 2]])
    assert profile.sample(5.0) == 1.5
    with pytest.raises(ValueError):
        PiecewiseLinear(())
    with pytest.raises(ValueError):
        PiecewiseLinear(((10.0, 1.0), (0.0, 2.0)))


def test_corruption_validation():
    with pytest.raises(ValueError):
        Corruption(bad_checksum_rate=-0.1)
    with pytest.raises(ValueError):
        Corruption(bad_checksum_rate=0.7, truncation_rate=0.5)


@pytest.mark.parametrize("payload", [
    {"stations": [{"role": "M"}]},
    {"stations": [{"gri": 9930, "role": "M", "rate_hz": 0}]},
    {"stations": [{"gri": 9930, "role": "M", "rate_hz": -0.1}]},
    {"stations": [{"gri": 9930, "role": "M", "rate_hz": math.inf}]},
    {"stations": [{"gri": 9930, "role": "Q"}]},
    {"stations": [{"gri": 123, "role": "M"}]},
    {"corruption": {"bad_checksum": 0.1}},
    [],
], ids=["no-gri", "rate-0", "rate-negative", "rate-inf", "role-Q", "gri-123",
        "unknown-corruption-key", "array"])
def test_a_bad_scenario_is_a_value_error(payload):
    """A station whose lines parse would reject, or that would never end,
    and a scenario of the wrong shape fail as the scenario is built, before
    any stream is generated."""
    with pytest.raises(ValueError):
        Scenario.from_json(payload)


# --- stream generation -----------------------------------------------------------


def test_example_scenario_counts():
    # 60 s at 1 Hz GPS with one 0.1 Hz station: 60 GGA + 6 PLRM + 6 ZDA
    stream, truth = generate_stream(one_station_scenario())
    assert len(truth.gps) == 60
    assert len(truth.loran) == 6
    assert truth.emitted_sentences == 72
    lines, rest = extract_lines(stream.to_bytes())
    assert rest == b""
    assert len(lines) == 72
    labels = [classify_line(line) for line in lines]
    assert labels.count("GPGGA") == 60
    assert labels.count("P_LRM") == 6
    assert labels.count("GPZDA") == 6


def test_stream_is_deterministic_per_seed():
    a, truth_a = generate_stream(one_station_scenario(seed=42))
    b, truth_b = generate_stream(one_station_scenario(seed=42))
    assert a.to_bytes() == b.to_bytes()
    assert truth_a.gps == truth_b.gps
    assert truth_a.loran == truth_b.loran
    c, _ = generate_stream(one_station_scenario(seed=43))
    assert c.to_bytes() != a.to_bytes()


def test_chunks_are_time_ordered_with_crlf():
    stream, _ = generate_stream(one_station_scenario())
    offsets = [chunk.offset_s for chunk in stream.chunks]
    assert offsets == sorted(offsets)
    assert all(chunk.data.endswith(b"\r\n") for chunk in stream.chunks)


def test_every_clean_line_verifies_and_reparses():
    stream, truth = generate_stream(one_station_scenario(seed=3))
    lines, _ = extract_lines(stream.to_bytes())
    gps, loran = [], []
    contexts = {}
    for line in lines:
        if verify_checksum(line) is not ChecksumStatus.VALID:
            continue
        label = classify_line(line)
        ctx = contexts.setdefault(label, DateContext(ms(2020, 4, 17)))
        fields = split_sentence(line.decode("ascii"))
        if label == "GPGGA":
            gps.append(parse_gga(fields, ctx))
        elif label == "P_LRM":
            loran.append(parse_loran(fields, ctx))
    assert gps == truth.gps
    assert loran == truth.loran


def test_corruption_rates_within_binomial_bounds():
    n = 4000
    rate = 0.1
    scenario = one_station_scenario(
        seed=11,
        duration_s=float(n),
        gps_rate_hz=1.0,
        stations=[],
        zda_period_s=1e9,  # no ZDA beyond t=0
        corruption=Corruption(bad_checksum_rate=rate / 2, truncation_rate=rate / 2),
    )
    stream, truth = generate_stream(scenario)
    emitted = truth.emitted_sentences
    corrupted = truth.corrupted_lines
    sigma = math.sqrt(emitted * rate * (1 - rate))
    assert abs(corrupted - emitted * rate) <= 4 * sigma
    assert truth.bad_checksum_lines > 0 and truth.truncated_lines > 0
    # corrupted sentences are dropped from ground truth
    assert len(truth.gps) == emitted - corrupted - 1  # minus the t=0 ZDA
    # and are really unparseable on the wire
    lines, _ = extract_lines(stream.to_bytes())
    invalid = sum(1 for line in lines if verify_checksum(line) is ChecksumStatus.INVALID)
    assert invalid == truth.bad_checksum_lines
    assert len(lines) == emitted + truth.garbage_lines


def test_garbage_lines_fail_classification():
    scenario = one_station_scenario(
        seed=5, corruption=Corruption(garbage_line_rate=0.2)
    )
    stream, truth = generate_stream(scenario)
    assert truth.garbage_lines > 0
    lines, _ = extract_lines(stream.to_bytes())
    unknown = [line for line in lines if classify_line(line) == "unknown"]
    assert len(unknown) == truth.garbage_lines


def test_truncated_lines_do_not_parse():
    scenario = one_station_scenario(seed=9, corruption=Corruption(truncation_rate=0.5))
    stream, truth = generate_stream(scenario)
    assert truth.truncated_lines > 0
    lines, _ = extract_lines(stream.to_bytes())
    parse_failures = 0
    ctx = DateContext(ms(2020, 4, 17))
    for line in lines:
        if verify_checksum(line) is not ChecksumStatus.ABSENT:
            continue
        label = classify_line(line)
        fields = split_sentence(line.decode("ascii", "replace"))
        try:
            if label == "GPGGA":
                parse_gga(fields, ctx)
            elif label == "P_LRM":
                parse_loran(fields, ctx)
            elif label == "GPZDA":
                from gpsloran.parse import parse_date_sentence

                parse_date_sentence(fields, "ZDA")
            else:
                continue
        except Exception:
            parse_failures += 1
            continue
        pytest.fail(f"truncated line parsed: {line!r}")
    assert parse_failures == truth.truncated_lines


def test_loran_values_follow_profiles_exactly():
    profile = PiecewiseLinear(((0.0, 10.0), (60.0, 16.0)))
    scenario = one_station_scenario(
        seed=21,
        stations=[StationSpec(gri=9930, role="M", rate_hz=0.1, snr_profile=profile)],
    )
    _, truth = generate_stream(scenario)
    for obs in truth.loran:
        t = (obs.timestamp - ms(2020, 4, 17)) / 1000
        assert obs.snr_db == float(f"{profile.sample(t):.1f}")
        assert 0.0 <= obs.toa_us < 9930 * 10


def test_gps_noise_stays_near_base_position():
    scenario = one_station_scenario(seed=17, noise_sigma_deg=0.0001, stations=[])
    _, truth = generate_stream(scenario)
    for fix in truth.gps:
        assert abs(fix.lat - 37.0) < 0.01
        assert abs(fix.lon - 127.0) < 0.01
        assert fix.fix_quality == 1


def test_scenario_from_json_round_trip():
    scenario = Scenario.from_json(
        {
            "seed": 5,
            "start": "2020-04-17T00:00:00.000Z",
            "duration_s": 120,
            "gps_rate_hz": 2,
            "position": {"lat": -33.9, "lon": 151.2, "alt_m": 5.0},
            "fix_quality": 2,
            "stations": [
                {"gri": 7980, "role": "X", "rate_hz": 0.2, "snr_profile": [[0, 5], [120, 9]]}
            ],
            "corruption": {"bad_checksum_rate": 0.01},
        }
    )
    assert scenario.seed == 5
    assert scenario.start == START
    assert scenario.gps_rate_hz == 2.0
    assert scenario.lat == -33.9
    assert scenario.fix_quality == 2
    assert scenario.stations[0].station == "7980X"
    assert scenario.stations[0].snr_profile.sample(60.0) == 7.0
    assert scenario.corruption.bad_checksum_rate == 0.01
    _, truth = generate_stream(scenario)
    assert truth.gps and truth.gps[0].fix_quality == 2


def test_write_ground_truth_exports(tmp_path):
    _, truth = generate_stream(one_station_scenario())
    write_ground_truth(truth, tmp_path, ("columns",))
    gps = read_records(read_gps_export, tmp_path / "timeline_gps.csv")
    loran = read_records(read_loran_export, tmp_path / "timeline_loran.csv")
    merged = flat_timeline(truth.gps, truth.loran)
    assert gps == [r for r in merged if type(r) is GpsFix]
    assert loran == truth.loran


# --- serving ---------------------------------------------------------------------


def read_all(host, port, limit):
    got = b""
    with socket.create_connection((host, port), timeout=5.0) as conn:
        while len(got) < limit:
            data = conn.recv(65536)
            if not data:
                break
            got += data
    return got


def test_server_sends_full_stream_unpaced():
    stream, _ = generate_stream(one_station_scenario())
    blob = stream.to_bytes()
    server = serve(stream)
    got = read_all(server.host, server.port, len(blob))
    server.join(timeout=5.0)
    assert got == blob
    assert server.complete


def test_server_resumes_after_disconnect():
    import time as time_mod

    # paced so the server still holds most chunks when the client drops
    stream, _ = generate_stream(one_station_scenario(duration_s=600.0))
    blob = stream.to_bytes()
    server = SimServer(stream, pace="accelerated", factor=600.0).start()
    first = b""
    with socket.create_connection((server.host, server.port), timeout=5.0) as conn:
        while len(first) < len(blob) // 8:
            data = conn.recv(4096)
            if not data:
                break
            first += data
        # drop the connection mid-stream; bytes the server already pushed
        # into this socket's buffers are gone, like a real feed outage
    rest = b""
    deadline = time_mod.monotonic() + 5.0
    while time_mod.monotonic() < deadline:
        try:
            rest = read_all(server.host, server.port, len(blob))
            break
        except OSError:
            time_mod.sleep(0.05)
    server.join(timeout=5.0)
    assert server.complete
    assert rest, "server never accepted the reconnect"
    # the second connection picks up exactly at a chunk boundary at or
    # after where the first one stopped reading, and runs to the end
    assert blob.endswith(rest)
    hole_start = len(blob) - len(rest)
    assert hole_start >= len(first)
    boundaries = set()
    offset = 0
    for chunk in stream.chunks:
        boundaries.add(offset)
        offset += len(chunk.data)
    assert hole_start in boundaries


def test_server_rejects_bad_pacing():
    stream, _ = generate_stream(one_station_scenario())
    with pytest.raises(ValueError):
        SimServer(stream, pace="warp")
    with pytest.raises(ValueError):
        SimServer(stream, pace="accelerated", factor=0)
