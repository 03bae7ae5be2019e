from datetime import datetime, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpsloran.timeutil import (
    UTC,
    basic_stamp,
    day_start,
    iso_ms,
    next_utc_midnight,
    parse_duration,
    parse_iso_ms,
)

from conftest import utc


def test_iso_ms_format():
    assert iso_ms(utc(2020, 4, 17)) == "2020-04-17T00:00:00.000Z"
    assert iso_ms(datetime(2021, 12, 31, 23, 59, 59, 999000, tzinfo=UTC)) == (
        "2021-12-31T23:59:59.999Z"
    )


def test_iso_ms_round_trip():
    moment = datetime(2020, 4, 17, 6, 30, 15, 250000, tzinfo=UTC)
    assert parse_iso_ms(iso_ms(moment)) == moment


@given(st.integers(min_value=0, max_value=4102444800_000))
def test_iso_round_trip_property(ms):
    moment = datetime(1970, 1, 1, tzinfo=UTC) + timedelta(milliseconds=ms)
    assert parse_iso_ms(iso_ms(moment)) == moment


def test_basic_stamp():
    assert basic_stamp(utc(2020, 4, 17)) == "20200417T000000Z"
    assert basic_stamp(datetime(2020, 4, 17, 9, 30, 5, tzinfo=UTC)) == "20200417T093005Z"


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


def test_next_utc_midnight_strictly_after():
    # mid-day rolls to the next 00:00
    assert next_utc_midnight(datetime(2020, 4, 17, 9, 30, tzinfo=UTC)) == utc(2020, 4, 18)
    # exactly at midnight, the boundary is the following midnight
    assert next_utc_midnight(utc(2020, 4, 17)) == utc(2020, 4, 18)
    # a hair past midnight still rolls to the next day
    assert next_utc_midnight(
        datetime(2020, 4, 17, 0, 0, 0, 1, tzinfo=UTC)
    ) == utc(2020, 4, 18)


@given(
    st.datetimes(
        min_value=datetime(2000, 1, 1),
        max_value=datetime(2099, 12, 31),
    )
)
def test_next_utc_midnight_property(naive):
    moment = naive.replace(tzinfo=UTC)
    boundary = next_utc_midnight(moment)
    assert boundary > moment
    assert boundary - moment <= timedelta(days=1)
    assert boundary == day_start(boundary)
