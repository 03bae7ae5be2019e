import hashlib
import json
import math
import socket
from datetime import timedelta

import pytest

from gpsloran.cli import main
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
    write_ground_truth,
)

from conftest import flat_timeline, ms, read_records


START = ms(2020, 4, 17)


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


def test_piecewise_linear_from_a_constant_or_breakpoints():
    assert PiecewiseLinear(12.5).sample(99.0) == 12.5
    profile = PiecewiseLinear([[0, 1], [10, 2]])
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
    *({"stations": [{"gri": 9930, "role": "M", key: value}]}
      for key in ("snr_profile", "toa_profile", "ecd_us") for value in (math.nan, math.inf)),
    {"stations": [{"gri": 9930, "role": "M", "snr_profile": [[0, 10.0], [60, math.nan]]}]},
    {"stations": [{"gri": 9930, "role": "M", "snr_profile": [[0, 1], [5]]}]},
    {"stations": [{"gri": 9930, "role": "M", "snr_profile": [1, 2]}]},
    {"seed": "3"},
    {"stations": [{"gri": 9930.7, "role": "M"}]},
    {"fix_quality": True},
    {"lat": -10},
    {"stations": [{"gri": 9930, "role": "M", "rate": 5}]},
    {"gps_rate_hz": 1e300},
    {"gps_rate_hz": 1000.5},
    {"stations": [{"gri": 9930, "role": "M", "rate_hz": 1e300}]},
    {"zda_period_s": 1e-300},
    {"zda_period_s": 0.0009},
    {"duration_s": 0},
    {"gps_rate_hz": 0},
], ids=["no-gri", "rate-0", "rate-negative", "rate-inf", "role-Q", "gri-123",
        "unknown-corruption-key", "array", "snr-nan", "snr-inf", "toa-nan", "toa-inf",
        "ecd-nan", "ecd-inf", "snr-breakpoint-nan", "snr-breakpoint-short",
        "snr-not-pairs", "seed-text", "gri-float",
        "fix-quality-bool", "top-level-lat", "station-rate", "gps-rate-huge",
        "gps-rate-over-1000", "rate-huge", "zda-period-tiny", "zda-period-under-1ms",
        "duration-0", "gps-rate-0"])
def test_a_bad_scenario_is_a_value_error(tmp_path, capsys, payload):
    """A station whose lines parse would reject, a rate or ZDA period that
    would never end the stream (event times are whole milliseconds), and a
    scenario of the wrong shape fail as the scenario is built, before any
    stream is generated; ``simulate generate`` reports it as an error."""
    with pytest.raises(ValueError):
        Scenario.from_json(payload)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(payload))
    out = tmp_path / "stream.bin"
    assert main(["simulate", "generate", "--scenario", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("profile", [[[0, 1], [5]], [1, 2], math.nan],
                         ids=["short-breakpoint", "not-pairs", "nan"])
def test_a_bad_profile_names_its_station_and_field(profile):
    """A profile error names the station by its place in ``stations`` and
    the profile by its key."""
    payload = {"stations": [{"gri": 9930, "role": "M"},
                            {"gri": 9930, "role": "X", "snr_profile": profile}]}
    with pytest.raises(ValueError, match=r"^stations\[1\]: snr_profile: "):
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


def test_the_whole_millisecond_edges_make_one_sentence_a_millisecond():
    """1000 Hz and a 1 ms ZDA period, the finest steps whole-millisecond
    event times hold, are accepted and end the stream."""
    stream, truth = generate_stream(one_station_scenario(
        duration_s=0.01, gps_rate_hz=1000, zda_period_s=0.001,
        stations=[StationSpec(gri=9930, role="M", rate_hz=1000)]))
    assert len(truth.gps) == len(truth.loran) == 10
    assert truth.emitted_sentences == 30


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
    scenario = one_station_scenario(
        seed=21,
        stations=[StationSpec(gri=9930, role="M", rate_hz=0.1,
                              snr_profile=((0.0, 10.0), (60.0, 16.0)))],
    )
    profile = scenario.stations[0].snr_profile
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
    assert (scenario.stations[0].gri, scenario.stations[0].role) == (7980, "X")
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
    server = SimServer(stream).start()
    got = read_all(server.host, server.port, len(blob))
    server.join(timeout=5.0)
    assert got == blob


def test_server_resumes_after_disconnect():
    import time as time_mod

    # paced so the server still holds most chunks when the client drops
    stream, _ = generate_stream(one_station_scenario(duration_s=600.0))
    blob = stream.to_bytes()
    server = SimServer(stream, pace="accelerated:600").start()
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
    for pace in ("warp", "accelerated", "accelerated:0", "accelerated:-2", "accelerated:nan",
                 "accelerated:inf", "unpaced:2"):
        with pytest.raises(ValueError):
            SimServer(stream, pace=pace)


# --- golden digests ----------------------------------------------------------------

# Every scenario field set: two stations, breakpoint profiles with a repeated
# breakpoint time (30 s) that a 0.1 Hz station samples exactly, every
# corruption rate above 0, and a position and fix quality off their defaults.
GOLDEN_SCENARIO = {
    "seed": 11,
    "start": "2021-12-31T23:59:00.000Z",
    "duration_s": 120,
    "gps_rate_hz": 2.0,
    "zda_period_s": 7.5,
    "position": {"lat": -33.9, "lon": 151.2, "alt_m": 5.0,
                 "noise_sigma_deg": 0.0002, "noise_sigma_alt_m": 1.5},
    "fix_quality": 2,
    "stations": [
        {"gri": 9930, "role": "M", "rate_hz": 0.1, "ecd_us": 1.2,
         "toa_profile": [[0, 45678.9], [60, 45690.0], [120, 45600.0]],
         "snr_profile": [[0, 10.0], [30, 20.0], [30, 14.0], [90, 16.5]]},
        {"gri": 7980, "role": "X", "rate_hz": 0.4, "ecd_us": -0.7,
         "toa_profile": 31234.5, "snr_profile": [[10, 3.0], [100, 9.0]]},
    ],
    "corruption": {"bad_checksum_rate": 0.05, "garbage_line_rate": 0.04,
                   "truncation_rate": 0.03},
}

GOLDEN_DIGESTS = {
    "every-field": {
        "stream": "19940fee152f7a4a290ee439384014bbfdc8b30653edac358dc66873a0a2751e",
        "truth": "b13668fb1367eb16dd91a3af3eb7c93d161484e142255b1ebb11e018f2deecaa",
        "manifest.json": "891ed677c267c2df2d1e0161bacfd4e43ff9a326063900b04601b627234435f4",
        "timeline_all.csv": "491a80279593b58449e7f74c453b9d4c6ad7b84b3f4a93e170b6493604ccd55f",
        "timeline_all.jsonl": "b37867bc5c1bc0cbe0ada4e3085967b12f002cb03877132dc06310660d9ab4b5",
        "timeline_gps.csv": "b6982ee4bd75b69945bb7a80c68520820d05ce36c16aa4294ce566ef89ffc009",
        "timeline_gps.jsonl": "73378f2de380df6878c59af174f12413bcd358385f45748954c278bd26870368",
        "timeline_loran.csv": "bc858f9dd3b5845f9677c6efc3d41e0f0af7530a459b1f7e15bffa4dc9ae3f6c",
        "timeline_loran.jsonl": "e9a62926bc100939615538221f86d29141ae513a3ccca826b4b3c8abaa3bc4e4",
    },
    "no-zda": {
        "stream": "95b4ffb1aade8116199e89224541a03e0f162f6c2c3a769457225c5f708aa411",
        "truth": "86c6b79021feea005239ff9a5f6ebad9e5abd08d345109bb4e392379e61f7ddc",
        "manifest.json": "2ad4fae75a2180ae8e67a389aad646f19c3516fd8279dbbe2233e9a545fe9941",
        "timeline_all.csv": "6ca6185cb749675cb746e61a0f95e3df13e610cb2ded31f30b1a94afa2999825",
        "timeline_all.jsonl": "0101b478d026d1d937b6bc6710c63e4adb9676d16b1e67586ad8cba0a7813b71",
        "timeline_gps.csv": "c1e936d1e89d40fa4ca746fa3ab653e69e3251e2753448f2b1ab7b2038995123",
        "timeline_gps.jsonl": "df4d545c072c270a94a8565492759035edcba03b8ca5f07e6c720bb59cbd21e1",
        "timeline_loran.csv": "bf0a1ffd2e5080b421d58433801366e9f16a89b387bb3ff2855e09a4399c84a1",
        "timeline_loran.jsonl": "67966754b10becfa46cfb1c504b5f42a1779470507e8c91d0379b36cb8eed0f4",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case,payload", [
    ("every-field", GOLDEN_SCENARIO),
    ("no-zda", {**GOLDEN_SCENARIO, "zda_period_s": 0}),
])
def test_simulator_golden_digests(tmp_path, case, payload):
    """The stream bytes, the ground-truth records and their exports in both
    formats of two fixed scenarios, pinned by digest."""
    stream, truth = generate_stream(Scenario.from_json(payload))
    records = json.dumps([truth.gps, truth.loran, truth.emitted_sentences,
                          truth.bad_checksum_lines, truth.truncated_lines, truth.garbage_lines])
    write_ground_truth(truth, tmp_path, ("columns", "lines"))
    digests = {"stream": _sha256(stream.to_bytes()), "truth": _sha256(records.encode()),
               **{path.name: _sha256(path.read_bytes()) for path in sorted(tmp_path.iterdir())}}
    assert digests == GOLDEN_DIGESTS[case]
