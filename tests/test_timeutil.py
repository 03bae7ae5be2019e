from datetime import datetime, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpsloran.timeutil import (
    UTC,
    basic_stamp,
    epoch_ms,
    from_ms,
    iso_ms,
    parse_duration,
    parse_iso_ms,
)

from conftest import ms

# Epoch milliseconds of 0001-01-01T00:00:00.000Z and 9999-12-31T23:59:59.999Z.
FIRST_MS = ms(1, 1, 1)
LAST_MS = ms(9999, 12, 31, 23, 59, 59, 999)


def test_iso_ms_format():
    assert iso_ms(ms(2020, 4, 17)) == "2020-04-17T00:00:00.000Z"
    assert iso_ms(ms(2021, 12, 31, 23, 59, 59, 999)) == "2021-12-31T23:59:59.999Z"
    assert iso_ms(ms(1969, 12, 31, 23, 59, 59, 999)) == "1969-12-31T23:59:59.999Z"


def test_iso_ms_pads_years_below_1000():
    assert iso_ms(ms(999, 4, 17, 12, 0, 1)) == "0999-04-17T12:00:01.000Z"
    assert iso_ms(FIRST_MS) == "0001-01-01T00:00:00.000Z"
    assert parse_iso_ms("0999-04-17T12:00:01.000Z") == ms(999, 4, 17, 12, 0, 1)


def test_iso_ms_round_trip():
    moment = ms(2020, 4, 17, 6, 30, 15, 250)
    assert parse_iso_ms(iso_ms(moment)) == moment


@given(st.integers(min_value=FIRST_MS, max_value=LAST_MS))
def test_iso_round_trip_property(stamp):
    text = iso_ms(stamp)
    assert parse_iso_ms(text) == stamp
    moment = datetime(1970, 1, 1, tzinfo=UTC) + timedelta(milliseconds=stamp)
    if moment.year >= 1000:  # strftime does not pad a shorter year
        assert text == f"{moment:%Y-%m-%dT%H:%M:%S}.{moment.microsecond // 1000:03d}Z"


def test_parse_iso_ms_other_forms():
    assert parse_iso_ms("2020-04-17T12:00:01.500+00:00") == ms(2020, 4, 17, 12, 0, 1, 500)
    assert parse_iso_ms("2020-04-17T14:00:01+02:00") == ms(2020, 4, 17, 12, 0, 1)
    assert parse_iso_ms("2020-04-17T12:00:01z") == ms(2020, 4, 17, 12, 0, 1)
    assert parse_iso_ms("2020-04-17T12:00:01") == ms(2020, 4, 17, 12, 0, 1)


@pytest.mark.parametrize(
    "bad", ["", "2020-13-17T12:00:01.000Z", "2020-04-17T24:00:01.000Z", "2020-04-17T12:00:01.00xZ", None, 5]
)
def test_parse_iso_ms_rejects(bad):
    with pytest.raises(ValueError):
        parse_iso_ms(bad)


def test_epoch_ms_and_back():
    moment = datetime(2020, 4, 17, 6, 30, 15, 250999, tzinfo=UTC)
    assert epoch_ms(moment) == ms(2020, 4, 17, 6, 30, 15, 250)  # rounded down
    assert epoch_ms(moment.replace(tzinfo=None)) == epoch_ms(moment)
    assert from_ms(ms(2020, 4, 17, 6, 30, 15, 250)) == moment.replace(microsecond=250000)


def test_basic_stamp():
    assert basic_stamp(ms(2020, 4, 17)) == "20200417T000000Z"
    assert basic_stamp(ms(2020, 4, 17, 9, 30, 5, 999)) == "20200417T093005Z"  # rounded down


def test_parse_duration_units():
    assert parse_duration("500ms") == 0.5
    assert parse_duration("90s") == 90.0
    assert parse_duration("15m") == 900.0
    assert parse_duration("24h") == 86400.0
    assert parse_duration("2d") == 172800.0
    assert parse_duration("3.5") == 3.5
    # whitespace around the unit is tolerated for hand-written configs
    assert parse_duration(" 5 s ") == 5.0


@pytest.mark.parametrize("bad", ["", "abc", "-5s", "10w", "s", "5ss"])
def test_parse_duration_rejects(bad):
    with pytest.raises(ValueError):
        parse_duration(bad)

