import re
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpsloran.classify import ChecksumStatus, route, verify_checksum
from gpsloran.parse import (
    DateContext,
    GpsFix,
    LoranMeasurement,
    ParseError,
    parse_classified,
    parse_coordinate,
    parse_date_sentence,
    parse_float,
    parse_gga,
    parse_int,
    parse_loran,
    parse_tod,
    split_sentence,
)
from gpsloran.simulate import (
    format_coordinate,
    quantize_coordinate,
    quantize_decimal,
    serialize,
    serialize_zda,
)

from conftest import gga_line, ms, parse_records, plrm_line, rmc_line, sentence, utc, zda_line


def ctx(anchor=ms(2020, 4, 17, 12)):
    return DateContext(anchor)


def tod(hour: int, minute: int, second: int, milli: int = 0) -> int:
    """Milliseconds into the day, as parse_tod returns them."""
    return ((hour * 60 + minute) * 60 + second) * 1000 + milli


# --- time of day -------------------------------------------------------------


def test_parse_tod():
    assert parse_tod("120000") == 43_200_000
    assert parse_tod("235959.999") == 86_399_999
    assert parse_tod("000000.5") == 500
    assert parse_tod("063015.25") == tod(6, 30, 15, 250)


@pytest.mark.parametrize("bad", ["", "240000", "126000", "120060", "12000", "1200000", "12:00:00", "120000.1234"])
def test_parse_tod_rejects(bad):
    with pytest.raises(ParseError):
        parse_tod(bad)


TOD_RULE = re.compile(r"^(\d{2})(\d{2})(\d{2})(?:\.(\d{1,3}))?$")


def outcome(parse, *args):
    """What *parse* gives for *args*: its result, or its error's text and field."""
    try:
        return parse(*args)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.field_name)


def tod_by_rule(value: str) -> int:
    """The time-of-day rule, every text through TOD_RULE."""
    match = TOD_RULE.match(value)
    if not match:
        raise ParseError(f"malformed time of day: {value!r}", "time")
    hour, minute, second = map(int, match.groups()[:3])
    if hour > 23 or minute > 59 or second > 59:
        raise ParseError(f"time of day out of range: {value!r}", "time")
    return tod(hour, minute, second, int((match.group(4) or "").ljust(3, "0")))


_TOD_TEXTS = st.one_of(
    # hhmmss with 0-3 fraction digits, in range or not, at times with a trailing line feed
    st.builds(lambda h, m, s, fraction, end: f"{h:02d}{m:02d}{s:02d}{fraction}{end}",
              st.integers(0, 25), st.integers(0, 61), st.integers(0, 61),
              st.sampled_from(["", ".", ".5", ".25", ".999", ".1234"]), st.sampled_from(["", "\n"])),
    # hhmmss.sss with one character swapped for a digit that is not ASCII (a latin-1
    # superscript or fraction, an Arabic-Indic digit), a space or a separator
    st.builds(lambda at, char: f"{'123456.789'[:at]}{char}{'123456.789'[at + 1:]}",
              st.integers(0, 9), st.sampled_from("\xb2\xb3\xb9\xbd\u0663 _\n")),
    st.text(alphabet="0129.\n \xb2\xb3\xb9\xbd\u0663_", max_size=11),
)


@given(_TOD_TEXTS)
def test_parse_tod_follows_the_rule(value):
    assert outcome(parse_tod, value) == outcome(tod_by_rule, value)


# --- coordinates -------------------------------------------------------------
# Expected values frozen from independent degrees + minutes/60 arithmetic.


def test_parse_coordinate_known_values():
    assert parse_coordinate("4916.45", "N") == 49.274166666666666
    assert parse_coordinate("12311.12", "W") == -123.18533333333333
    assert parse_coordinate("3730.5000", "N") == 37.50833333333333
    assert parse_coordinate("00200.0000", "W") == -2.0
    assert parse_coordinate("0859.9999", "N") == 8.999998333333334
    assert parse_coordinate("0000.0000", "N") == 0.0
    assert parse_coordinate("18000.0000", "E") == 180.0


def test_parse_coordinate_hemisphere_sign():
    assert parse_coordinate("4916.45", "S") == -parse_coordinate("4916.45", "N")
    assert parse_coordinate("12311.12", "E") == -parse_coordinate("12311.12", "W")


def test_parse_coordinate_errors_name_the_field():
    with pytest.raises(ParseError) as info:
        parse_coordinate("4960.00", "N", "latitude")  # minutes must stay below 60
    assert info.value.field_name == "latitude"
    with pytest.raises(ParseError):
        parse_coordinate("49.16", "N")  # needs dddmm shape before the dot
    with pytest.raises(ParseError):
        parse_coordinate("4916.45", "Q")
    with pytest.raises(ParseError):
        parse_coordinate("", "N")
    with pytest.raises(ParseError):
        parse_coordinate("4916.45", "")


def test_format_coordinate_zero_is_north_east():
    assert format_coordinate(0.0, "lat") == ("0000.0000", "N")
    assert format_coordinate(0.0, "lon") == ("00000.0000", "E")
    assert format_coordinate(-2.0, "lon") == ("00200.0000", "W")
    assert format_coordinate(37.50833333333333, "lat") == ("3730.5000", "N")


@given(st.floats(min_value=-90.0, max_value=90.0, allow_nan=False))
def test_lat_survives_format_parse(value):
    text, hemisphere = format_coordinate(value, "lat")
    back = parse_coordinate(text, hemisphere, "latitude")
    assert back == quantize_coordinate(value, "lat")
    assert abs(back - value) <= 0.0001 / 60 / 2 + 1e-12  # half a minutes-grid step


@given(st.floats(min_value=-180.0, max_value=180.0, allow_nan=False))
def test_lon_survives_format_parse(value):
    text, hemisphere = format_coordinate(value, "lon")
    back = parse_coordinate(text, hemisphere, "longitude")
    assert back == quantize_coordinate(value, "lon")


def test_quantize_is_idempotent():
    for value in (37.123456789, -117.9999999, 0.0, 89.99999999):
        q = quantize_coordinate(value, "lat")
        assert quantize_coordinate(q, "lat") == q


# --- date context ------------------------------------------------------------


def test_rollover_advances_date_after_midnight():
    c = ctx()
    first = c.resolve(tod(23, 59, 59))
    second = c.resolve(tod(0, 0, 1))
    assert first == ms(2020, 4, 17, 23, 59, 59)
    assert second == ms(2020, 4, 18, 0, 0, 1)


def test_small_backward_jump_keeps_date():
    c = ctx()
    c.resolve(tod(12, 0, 0))
    again = c.resolve(tod(11, 0, 0))  # out-of-order delivery, not midnight
    assert again == ms(2020, 4, 17, 11, 0, 0)


def test_forward_jump_keeps_date():
    c = ctx()
    c.resolve(tod(1, 0, 0))
    later = c.resolve(tod(13, 30, 0))
    assert later == ms(2020, 4, 17, 13, 30, 0)


def test_rollover_happens_once_per_crossing():
    c = ctx()
    for time_of_day, expected_day in [
        (tod(23, 59, 58), 17),
        (tod(23, 59, 59), 17),
        (tod(0, 0, 0), 18),
        (tod(0, 0, 1), 18),
        (tod(0, 0, 2), 18),
    ]:
        assert c.resolve(time_of_day) - time_of_day == ms(2020, 4, expected_day)


def test_rollover_needs_a_jump_of_more_than_12_hours():
    c = ctx()
    c.resolve(tod(23, 59, 59, 999))
    assert c.resolve(tod(11, 59, 59, 999)) == ms(2020, 4, 17, 11, 59, 59, 999)  # exactly 12 h
    c = ctx()
    c.resolve(tod(23, 59, 59, 999))
    assert c.resolve(tod(11, 59, 59, 998)) == ms(2020, 4, 18, 11, 59, 59, 998)


def test_first_time_of_day_takes_the_instant_nearest_the_anchor():
    anchor = ms(2020, 4, 18, 0, 0, 5)
    assert DateContext(anchor).resolve(tod(23, 59, 59)) == ms(2020, 4, 17, 23, 59, 59)
    assert DateContext(anchor).resolve(tod(11, 0, 0)) == ms(2020, 4, 18, 11, 0, 0)
    # a tie at exactly 12 hours keeps the anchor's day, either way
    assert DateContext(anchor).resolve(tod(12, 0, 5)) == ms(2020, 4, 18, 12, 0, 5)
    assert DateContext(ms(2020, 4, 18, 12)).resolve(0) == ms(2020, 4, 18)


def test_hole_moves_a_record_to_the_date_after_it():
    hole = (ms(2020, 4, 17, 12, 0, 29), ms(2020, 4, 18, 18, 0, 0))
    c = DateContext(ms(2020, 4, 17, 12), [hole])
    assert c.resolve(tod(12, 0, 29)) == ms(2020, 4, 17, 12, 0, 29)
    assert c.resolve(tod(18, 0, 0)) == ms(2020, 4, 18, 18, 0, 0)
    assert c.resolve(tod(18, 0, 1)) == ms(2020, 4, 18, 18, 0, 1)


@pytest.mark.parametrize("hole_h", [20, 30])
def test_records_that_keep_reporting_through_a_hole_stay(hole_h):
    hole = (ms(2020, 4, 17, 12), ms(2020, 4, 17, 12) + hole_h * 3_600_000)
    c = DateContext(ms(2020, 4, 17, 12), [hole])
    for hour in range(12, 12 + hole_h + 1):
        assert c.resolve(tod(hour % 24, 0, 0)) == ms(2020, 4, 17, 12) + (hour - 12) * 3_600_000


def test_two_midnights_two_days():
    c = ctx()
    c.resolve(tod(23, 0, 0))
    c.resolve(tod(0, 30, 0))
    c.resolve(tod(23, 45, 0))
    final = c.resolve(tod(0, 15, 0))
    assert final == ms(2020, 4, 19, 0, 15, 0)


# --- GGA ---------------------------------------------------------------------


def gga_fields(line: bytes) -> list[str]:
    return split_sentence(line.decode("ascii"))


def test_parse_gga_full_fix():
    fields = gga_fields(gga_line(tod="063015.250", lat="4916.4500", ns="N",
                                 lon="12311.1200", ew="W", quality=2, sats=9,
                                 hdop="0.90", alt="1048.5"))
    fix = parse_gga(fields, ctx())
    assert fix.timestamp == ms(2020, 4, 17, 6, 30, 15, 250)
    assert fix.lat == 49.274166666666666
    assert fix.lon == -123.18533333333333
    assert fix.alt_m == 1048.5
    assert fix.fix_quality == 2
    assert fix.num_sats == 9
    assert fix.hdop == 0.9
    assert fix.fix_quality != 0


def test_parse_gga_no_fix_record():
    fields = split_sentence("GPGGA,120000.000,,,,,0,00,,,M,,M,,")
    fix = parse_gga(fields, ctx())
    assert fix.fix_quality == 0
    assert fix.lat is None and fix.lon is None and fix.alt_m is None
    assert fix.num_sats == 0
    assert fix.hdop is None


def test_parse_gga_empty_optionals():
    fields = split_sentence("GPGGA,120000.000,3700.0000,N,12700.0000,E,1,,,,M,,M,,")
    fix = parse_gga(fields, ctx())
    assert fix.num_sats == 0
    assert fix.hdop is None
    assert fix.alt_m is None


def test_parse_gga_positive_quality_needs_position():
    fields = split_sentence("GPGGA,120000.000,,,,,1,08,1.0,30.0,M,,M,,")
    with pytest.raises(ParseError):
        parse_gga(fields, ctx())


def test_parse_gga_rejects_short_sentence():
    with pytest.raises(ParseError) as info:
        parse_gga(["GPGGA", "120000"], ctx())
    assert "GGA" in str(info.value)


def test_parse_gga_rejects_out_of_range_latitude():
    fields = split_sentence("GPGGA,120000.000,9030.0000,N,12700.0000,E,1,08,1.0,30.0,M,,M,,")
    with pytest.raises(ParseError):
        parse_gga(fields, ctx())


# --- date sentences ----------------------------------------------------------


def test_parse_zda_date():
    fields = split_sentence("GPZDA,120000.000,17,04,2020,00,00")
    assert parse_date_sentence(fields, "ZDA") == ms(2020, 4, 17)


def test_parse_rmc_date_and_century_pivot():
    def rmc(ddmmyy):
        return split_sentence(f"GPRMC,120000,A,3730.5000,N,12311.1200,W,0.5,054.7,{ddmmyy},,")

    assert parse_date_sentence(rmc("170420"), "RMC") == ms(2020, 4, 17)
    assert parse_date_sentence(rmc("010180"), "RMC") == ms(1980, 1, 1)
    assert parse_date_sentence(rmc("311299"), "RMC") == ms(1999, 12, 31)
    assert parse_date_sentence(rmc("010100"), "RMC") == ms(2000, 1, 1)
    assert parse_date_sentence(rmc("311279"), "RMC") == ms(2079, 12, 31)


def test_parse_date_sentence_rejects_bad_dates():
    with pytest.raises(ParseError):
        parse_date_sentence(split_sentence("GPZDA,120000,17,13,2020,00,00"), "ZDA")
    with pytest.raises(ParseError, match="malformed ZDA date: '1_7',' 04','2020'"):
        parse_date_sentence(split_sentence("GPZDA,120000,1_7, 04,2020,00,00"), "ZDA")
    with pytest.raises(ParseError):
        parse_date_sentence(
            split_sentence("GPRMC,120000,A,,,,,,,17042,,"), "RMC"
        )


# --- Loran -------------------------------------------------------------------


def test_parse_loran_full():
    fields = split_sentence("PLRM,120000.500,9930,M,45678.9,12.0,0.5")
    rec = parse_loran(fields, ctx())
    assert rec.timestamp == ms(2020, 4, 17, 12, 0, 0, 500)
    assert rec.gri == 9930
    assert rec.station_role == "M"
    assert rec.toa_us == 45678.9
    assert rec.snr_db == 12.0
    assert rec.ecd_us == 0.5


@pytest.mark.parametrize(
    "body,bad_field",
    [
        ("PLRM,120000,3999,M,10000.0,12.0,0.5", "gri"),
        ("PLRM,120000,10000,M,10000.0,12.0,0.5", "gri"),
        ("PLRM,120000,9930,Q,10000.0,12.0,0.5", "station_role"),
        ("PLRM,120000,9930,M,99300.0,12.0,0.5", "toa_us"),  # = GRI frame, must be below
        ("PLRM,120000,9930,M,-1.0,12.0,0.5", "toa_us"),
        ("PLRM,120000,9930,M,45678.9,12.0", "field-count"),
        ("PLRM,120000,9930,M,45678.9,12.0,0.5,extra", "field-count"),
        ("PLRM,120000,9930,M,abc,12.0,0.5", "toa_us"),
    ],
)
def test_parse_loran_rejects(body, bad_field):
    with pytest.raises(ParseError) as info:
        parse_loran(split_sentence(body), ctx())
    assert info.value.field_name == bad_field


@pytest.mark.parametrize(
    "body,bad_field",
    [
        ("PLRM,120000,9930,M,45678.9,nan,0.5", "snr_db"),
        ("PLRM,120000,9930,M,45678.9,12.0,inf", "ecd_us"),
        ("PLRM,120000,9930,M,45678.9,-Infinity,0.5", "snr_db"),
        ("PLRM,120000,9930,M,45678.9,12.0,1e999", "ecd_us"),
        ("PLRM,120000,9930,M,nan,12.0,0.5", "toa_us"),
        ("GPGGA,120000.000,3700.0000,N,12700.0000,E,1,08,nan,30.0,M,,M,,", "hdop"),
        ("GPGGA,120000.000,3700.0000,N,12700.0000,E,1,08,1.0,1e999,M,,M,,", "alt_m"),
        ("GPGGA,120000.000,3700.0000,N,12700.0000,E,1,08,1.0,-inf,M,,M,,", "alt_m"),
    ],
)
def test_non_finite_numbers_are_parse_errors(body, bad_field):
    # NaN and infinities have no JSON form, so they must never reach an export
    parser = parse_loran if body.startswith("PLRM") else parse_gga
    with pytest.raises(ParseError) as info:
        parser(split_sentence(body), ctx())
    assert info.value.field_name == bad_field
    assert "non-finite" in str(info.value)


@pytest.mark.parametrize(
    "body,bad_field",
    [
        ("PLRM,123456.400,9_930,M,1_2345.6, 14.3 ,-1.2", "gri"),
        ("PLRM,123456.400,9930,M,1_2345.6, 14.3 ,-1.2", "toa_us"),
        ("PLRM,123456.400,9930,M,12345.6, 14.3 ,-1.2", "snr_db"),
        ("PLRM,123456.400,9930,M,12345.6,14.3,-1.2\t", "ecd_us"),
        ("PLRM,123456.400,9930,M,12345.6,14.3,\xa0-1.2", "ecd_us"),
        ("GPGGA,120000.000,3700.0000,N,12700.0000,E,0_1,08,1.0,30.0,M,,M,,", "fix_quality"),
        ("GPGGA,120000.000,3700.0000,N,12700.0000,E,1,08 ,1.0,30.0,M,,M,,", "num_sats"),
        ("GPGGA,120000.000,3700.0000,N,12700.0000,E,1,08,1.0,3_0.0,M,,M,,", "alt_m"),
    ],
)
def test_numbers_with_separators_or_spaces_are_parse_errors(body, bad_field):
    """int() and float() forgive ``_`` between digits and white space around
    them; an NMEA number never holds either, so the parser does not."""
    parser = parse_loran if body.startswith("PLRM") else parse_gga
    with pytest.raises(ParseError) as info:
        parser(split_sentence(body), ctx())
    assert info.value.field_name == bad_field
    assert str(info.value).startswith(f"malformed {bad_field}: ")


def loran_by_field(fields: list[str]) -> LoranMeasurement:
    """A ``$PLRM`` record, each field converted and checked before the next."""
    if len(fields) != 7:
        raise ParseError(f"PLRM needs 7 fields, got {len(fields)}", "field-count")
    instant = ctx().resolve(parse_tod(fields[1]))
    gri = parse_int(fields[2], "gri")
    if not 4000 <= gri <= 9999:
        raise ParseError(f"GRI designator out of range: {gri}", "gri")
    if fields[3] not in set("MVWXYZ"):
        raise ParseError(f"unknown station role: {fields[3]!r}", "station_role")
    toa = parse_float(fields[4], "toa_us")
    if not 0.0 <= toa < gri * 10:
        raise ParseError(f"toa_us outside GRI frame: {toa}", "toa_us")
    return LoranMeasurement(instant, gri, fields[3], toa, parse_float(fields[5], "snr_db"),
                            parse_float(fields[6], "ecd_us"))


_NUMBER_TEXTS = st.one_of(
    st.sampled_from(["9930", "3999", "10000", "+7430", "9_930", " 9930", "9930.0", "", "x", "nan",
                     "-inf", "1e999", "1e308", "-1e308", "45678.9", "-0.5", "0x10", "\u0669\u0669",
                     "12.3\n", "\xa012"]),
    st.floats(allow_nan=True).map(repr),
    st.text(alphabet="0123456789.-+e_ \t", max_size=8),
)


def mostly(usual):
    """Mostly *usual*, at times one of _NUMBER_TEXTS."""
    return st.integers(0, 3).flatmap(lambda draw: _NUMBER_TEXTS if draw == 3 else usual)


@given(mostly(st.integers(4000, 9999).map(str)), st.sampled_from(["M", "Z", "Q"]),
       *[mostly(st.floats(-100, 100_010).map(repr))] * 3)
def test_parse_loran_equals_field_by_field_checks(gri, role, toa, snr, ecd):
    """The one-go conversion gives the record, or the error text and field,
    that converting and checking each field in turn gives."""
    fields = ["PLRM", "120000.500", gri, role, toa, snr, ecd]
    assert outcome(parse_loran, fields, ctx()) == outcome(loran_by_field, fields)


def test_toa_upper_bound_tracks_gri():
    # 99299.9 us fits inside GRI 9930's frame; the same TOA fails for GRI 4000
    ok = split_sentence("PLRM,120000,9930,M,99299.9,12.0,0.5")
    assert parse_loran(ok, ctx()).toa_us == 99299.9
    bad = split_sentence("PLRM,120000,4000,M,40000.0,12.0,0.5")
    with pytest.raises(ParseError):
        parse_loran(bad, ctx())


# --- serialization and round trips -------------------------------------------


def test_serialize_gga_exact_bytes():
    fix = GpsFix(
        timestamp=ms(2020, 4, 17, 12, 0, 0),
        lat=37.0,
        lon=127.0,
        alt_m=30.0,
        fix_quality=1,
        num_sats=8,
        hdop=1.0,
    )
    assert serialize(fix) == sentence(
        "GPGGA,120000.000,3700.0000,N,12700.0000,E,1,08,1.00,30.0,M,,M,,"
    )


def test_serialize_plrm_exact_bytes():
    rec = LoranMeasurement(
        timestamp=ms(2020, 4, 17, 12, 0, 0, 500),
        gri=9930,
        station_role="M",
        toa_us=45678.9,
        snr_db=12.0,
        ecd_us=0.5,
    )
    assert serialize(rec) == sentence("PLRM,120000.500,9930,M,45678.9,12.0,0.5")


def test_serialize_zda_exact_bytes():
    assert serialize_zda(ms(2020, 4, 17, 0, 0, 10)) == sentence(
        "GPZDA,000010.000,17,04,2020,00,00"
    )


def test_serialized_sentences_carry_valid_checksums():
    line = serialize(
        GpsFix(
            timestamp=ms(2020, 4, 17),
            lat=-33.5,
            lon=151.2,
            alt_m=None,
            fix_quality=1,
            num_sats=7,
            hdop=None,
        )
    )
    assert verify_checksum(line) is ChecksumStatus.VALID


@st.composite
def gps_fixes(draw):
    moment = ms(2020, 4, 17) + draw(st.integers(min_value=0, max_value=86399999))
    no_fix = draw(st.booleans()) and draw(st.booleans())  # ~25% no-fix records
    if no_fix:
        lat = lon = None
        quality = 0
    else:
        lat = quantize_coordinate(
            draw(st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)), "lat"
        )
        lon = quantize_coordinate(
            draw(st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)), "lon"
        )
        quality = draw(st.integers(min_value=1, max_value=8))
    alt = draw(
        st.none()
        | st.floats(min_value=-100.0, max_value=9000.0, allow_nan=False).map(
            lambda v: quantize_decimal(v, 1)
        )
    )
    hdop = draw(
        st.none()
        | st.floats(min_value=0.0, max_value=50.0, allow_nan=False).map(
            lambda v: quantize_decimal(v, 2)
        )
    )
    sats = draw(st.integers(min_value=0, max_value=99))
    return GpsFix(
        timestamp=moment,
        lat=lat,
        lon=lon,
        alt_m=alt,
        fix_quality=quality,
        num_sats=sats,
        hdop=hdop,
    )


@given(gps_fixes())
def test_gps_round_trip(fix):
    line = serialize(fix)
    assert verify_checksum(line) is ChecksumStatus.VALID
    back = parse_gga(split_sentence(line.decode("ascii")), ctx())
    assert back == fix


@st.composite
def loran_measurements(draw):
    offset = draw(st.integers(min_value=0, max_value=86399999))
    gri = draw(st.integers(min_value=4000, max_value=9999))
    toa = quantize_decimal(
        draw(st.floats(min_value=0.0, max_value=gri * 10 - 0.1, allow_nan=False)), 1
    )
    return LoranMeasurement(
        timestamp=ms(2020, 4, 17) + offset,
        gri=gri,
        station_role=draw(st.sampled_from("MVWXYZ")),
        toa_us=toa,
        snr_db=quantize_decimal(
            draw(st.floats(min_value=-30.0, max_value=40.0, allow_nan=False)), 1
        ),
        ecd_us=quantize_decimal(
            draw(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)), 1
        ),
    )


@given(loran_measurements())
def test_loran_round_trip(rec):
    line = serialize(rec)
    assert verify_checksum(line) is ChecksumStatus.VALID
    back = parse_loran(split_sentence(line.decode("ascii")), ctx())
    assert back == rec


def test_split_sentence_strips_only_wellformed_checksum():
    assert split_sentence("GPGGA,1,2*7F") == ["GPGGA", "1", "2"]
    assert split_sentence("GPGGA,1,2*7") == ["GPGGA", "1", "2*7"]
    assert split_sentence("GPGGA,1,2") == ["GPGGA", "1", "2"]


# --- whole-segment parsing ---------------------------------------------------


def write_segment(path, lines):
    path.write_bytes(b"".join(line + b"\r\n" for line in lines))


def test_parse_classified_seeds_from_zda(tmp_path):
    segment = tmp_path / "raw_20200417T000000Z.log"
    write_segment(
        segment,
        [
            zda_line(utc(2020, 4, 17, 23, 59, 50)),
            gga_line(tod="235955.000"),
            plrm_line(tod="235958.000"),
            gga_line(tod="000005.000"),  # crosses midnight
            plrm_line(tod="000008.000"),
        ],
    )
    out = tmp_path / "classified"
    route(segment, out)
    parsed = parse_records(out)
    assert [f.timestamp for f in parsed.gps] == [
        ms(2020, 4, 17, 23, 59, 55),
        ms(2020, 4, 18, 0, 0, 5),
    ]
    assert [m.timestamp for m in parsed.loran] == [
        ms(2020, 4, 17, 23, 59, 58),
        ms(2020, 4, 18, 0, 0, 8),
    ]
    assert parsed.errors == []


def test_parse_classified_seeds_from_rmc_when_no_zda(tmp_path):
    segment = tmp_path / "raw.log"
    write_segment(segment, [rmc_line(utc(2020, 4, 17, 12, 0, 0)), gga_line(tod="120001.000")])
    out = tmp_path / "classified"
    route(segment, out)
    parsed = parse_records(out)
    assert parsed.gps[0].timestamp == ms(2020, 4, 17, 12, 0, 1)


def test_parse_classified_requires_some_date(tmp_path):
    segment = tmp_path / "raw.log"
    write_segment(segment, [gga_line()])
    out = tmp_path / "classified"
    route(segment, out)
    with pytest.raises(ValueError):
        parse_classified(out)
    parsed = parse_records(out, fallback_date=date(2021, 1, 2))
    assert parsed.gps[0].timestamp == ms(2021, 1, 2, 12, 0, 0)


def test_parse_classified_collects_errors_with_provenance(tmp_path):
    segment = tmp_path / "raw.log"
    write_segment(
        segment,
        [
            zda_line(utc(2020, 4, 17, 12, 0, 0)),
            gga_line(tod="120001.000"),
            sentence("GPGGA,120002.000,9999.0000,N,12700.0000,E,1,08,1.00,30.0,M,,M,,"),
            plrm_line(tod="120003.000"),
            sentence("PLRM,120004.000,9930,Q,45678.9,12.0,0.5"),
        ],
    )
    out = tmp_path / "classified"
    route(segment, out)
    parsed = parse_records(out)
    assert len(parsed.gps) == 1
    assert len(parsed.loran) == 1
    assert len(parsed.errors) == 2
    by_file = {issue.source_file: issue for issue in parsed.errors}
    assert by_file["GPGGA.txt"].line_number == 2
    assert by_file["GPGGA.txt"].field_name == "latitude"
    assert by_file["P_LRM.txt"].line_number == 2
    assert by_file["P_LRM.txt"].field_name == "station_role"
    assert "9999" in by_file["GPGGA.txt"].raw


def test_parse_classified_anchors_rollover_to_segment_open(tmp_path):
    # a rotation can buffer a few pre-midnight lines into the next segment
    segment = tmp_path / "raw_20200418T000000Z.log"
    write_segment(segment, [gga_line(tod="235958.500"), gga_line(tod="235959.500"), gga_line(tod="000000.500")])
    out = tmp_path / "classified"
    route(segment, out)
    parsed = parse_records(out, open_time=ms(2020, 4, 18))
    assert [f.timestamp for f in parsed.gps] == [
        ms(2020, 4, 17, 23, 59, 58, 500),
        ms(2020, 4, 17, 23, 59, 59, 500),
        ms(2020, 4, 18, 0, 0, 0, 500),
    ]


def test_parse_classified_open_time_forward_skew(tmp_path):
    # segment opened just before midnight whose first line is already past it
    segment = tmp_path / "raw_20200417T235958Z.log"
    write_segment(segment, [gga_line(tod="000001.000")])
    out = tmp_path / "classified"
    route(segment, out)
    parsed = parse_records(out, open_time=ms(2020, 4, 17, 23, 59, 58))
    assert parsed.gps[0].timestamp == ms(2020, 4, 18, 0, 0, 1)


def test_parse_classified_parses_only_p_lrm_among_proprietary_stores(tmp_path):
    segment = tmp_path / "raw.log"
    write_segment(
        segment,
        [
            zda_line(utc(2020, 4, 17, 12)),
            plrm_line(tod="120001.000"),
            sentence("PXYZ,120002.000,1"),
        ],
    )
    out = tmp_path / "classified"
    route(segment, out)
    parsed = parse_records(out)
    assert (out / "P_XYZ.txt").exists()
    assert [m.timestamp for m in parsed.loran] == [ms(2020, 4, 17, 12, 0, 1)]
    assert parsed.errors == []


def test_parse_classified_malformed_date_sentence_time_is_an_error(tmp_path):
    segment = tmp_path / "raw.log"
    write_segment(
        segment,
        [sentence("GPZDA,1200,17,04,2020,00,00"), zda_line(utc(2020, 4, 17, 12)), gga_line()],
    )
    out = tmp_path / "classified"
    route(segment, out)
    parsed = parse_records(out)
    assert [(e.source_file, e.line_number, e.field_name) for e in parsed.errors] == [
        ("GPZDA.txt", 1, "time")
    ]
    assert parsed.gps[0].timestamp == ms(2020, 4, 17, 12)


def test_parse_classified_per_class_contexts(tmp_path):
    # GGA crosses midnight; the Loran store starts later and must not
    # inherit a context already advanced past its own first lines
    segment = tmp_path / "raw.log"
    write_segment(
        segment,
        [
            zda_line(utc(2020, 4, 17, 23, 59, 50)),
            gga_line(tod="235959.000"),
            gga_line(tod="000001.000"),
            plrm_line(tod="235959.500"),
            plrm_line(tod="000001.500"),
        ],
    )
    out = tmp_path / "classified"
    route(segment, out)
    parsed = parse_records(out)
    assert parsed.loran[0].timestamp == ms(2020, 4, 17, 23, 59, 59, 500)
    assert parsed.loran[1].timestamp == ms(2020, 4, 18, 0, 0, 1, 500)
