import hashlib
import random
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsloran import classify
from gpsloran.classify import (
    MAX_LINE_BYTES,
    QUARANTINE_LABEL,
    REPORT_NAME,
    classify_line,
    extract_lines,
    route,
)
from gpsloran.fsutil import read_json

from conftest import ChecksumStatus, gga_line, plrm_line, sentence, verify_checksum, xor_fold


# --- framing -----------------------------------------------------------------


def test_extract_lines_basic():
    lines, carry = extract_lines(b"$A\r\n$B\n$C")
    assert lines == [b"$A", b"$B"]
    assert carry == b"$C"


def test_extract_lines_keeps_empty_lines():
    lines, carry = extract_lines(b"\n\r\nx\n")
    assert lines == [b"", b"", b"x"]
    assert carry == b""


def test_extract_lines_cr_only_inside_line_is_kept():
    # a CR not followed by LF is payload, not a terminator
    lines, carry = extract_lines(b"a\rb\nrest")
    assert lines == [b"a\rb"]
    assert carry == b"rest"
    # only the one CR right before the LF goes
    assert extract_lines(b"a\r\r\n") == ([b"a\r"], b"")


def test_extract_lines_every_split_point():
    # exhaustive oracle: one call on the whole buffer vs every 2-way split
    data = b"$GPGGA,1*7F\r\n\n$P\r\rX\nabc\r\n$T"
    whole, whole_carry = extract_lines(data)
    for cut in range(len(data) + 1):
        first, carry = extract_lines(data[:cut])
        second, carry = extract_lines(data[cut:], carry)
        assert first + second == whole, f"cut={cut}"
        assert carry == whole_carry, f"cut={cut}"


@given(st.binary(max_size=400), st.lists(st.integers(min_value=0, max_value=400), max_size=8))
def test_extract_lines_chunking_invariance(data, cuts):
    whole, whole_carry = extract_lines(data)
    points = sorted({min(c, len(data)) for c in cuts})
    pieces = []
    last = 0
    for p in points + [len(data)]:
        pieces.append(data[last:p])
        last = p
    lines = []
    carry = b""
    for piece in pieces:
        got, carry = extract_lines(piece, carry)
        lines.extend(got)
    assert lines == whole
    assert carry == whole_carry


# --- header classification ---------------------------------------------------


def test_classify_standard_sentence():
    assert classify_line(b"$GPGGA,120000,3700.0,N") == "GPGGA"


def test_classify_other_talkers():
    assert classify_line(b"$GLGSV,1,1,00*65") == "GLGSV"
    assert classify_line(b"$GPZDA,0*XX") == "GPZDA"


def test_classify_proprietary():
    assert classify_line(b"$PLRM,120000.000,9930,M,45678.9,12.0,0.5*4F") == "P_LRM"


def test_classify_proprietary_wins_over_standard_shape():
    # $P starts the proprietary namespace even when five letters follow
    assert classify_line(b"$PGRMZ,93,f,3*21") == "P_GRMZ"


def test_classify_bare_header_no_fields():
    assert classify_line(b"$GPGGA") == "GPGGA"
    assert classify_line(b"$GPGGA*00") == "GPGGA"


@pytest.mark.parametrize(
    "line",
    [
        b"",
        b"GPGGA,no,dollar",
        b"$gpgga,lowercase",
        b"$GPGG",  # four letters
        b"$GPGGAX,six-letter standard header",
        b"$123,numeric talker",
        b"#garbage",
        b"\x00\xff\xfe",
    ],
)
def test_classify_unknown(line):
    assert classify_line(line) == "unknown"


# --- checksum verification ---------------------------------------------------


def test_checksum_known_values():
    assert verify_checksum(b"$GPGLL,4916.45,N,12311.12,W,225444,A*31") is ChecksumStatus.VALID
    assert verify_checksum(b"$GPGLL,4916.45,N,12311.12,W,225444,A*00") is ChecksumStatus.INVALID
    assert verify_checksum(b"$GPGLL,4916.45,N,12311.12,W,225444,A") is ChecksumStatus.ABSENT


def test_checksum_lowercase_hex_accepted():
    body = b"GPGGA,1,2,3"
    line = b"$" + body + b"*%02x" % xor_fold(body)
    assert verify_checksum(line) is ChecksumStatus.VALID


def test_checksum_malformed_suffixes():
    # star must be followed by exactly two hex digits to count as a checksum
    assert verify_checksum(b"$GPGGA,1*7") is ChecksumStatus.ABSENT
    assert verify_checksum(b"$GPGGA,1*7F0") is ChecksumStatus.ABSENT
    assert verify_checksum(b"$GPGGA,1*G1") is ChecksumStatus.INVALID
    assert verify_checksum(b"$GPGGA,1*+5") is ChecksumStatus.INVALID
    assert verify_checksum(b"$GPGGA,1* 5") is ChecksumStatus.INVALID


def _oracle_status(line: bytes) -> ChecksumStatus:
    """Independent re-statement of the checksum rule for comparison."""
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


@given(st.binary(max_size=60))
def test_checksum_agrees_with_oracle_on_noise(payload):
    line = b"$" + payload
    assert verify_checksum(line) is _oracle_status(line)


@given(st.text(alphabet="GPLRMZ,0123456789.", max_size=40), st.integers(0, 255))
def test_checksum_agrees_with_oracle_on_sentences(body, fudge):
    payload = body.encode("ascii")
    line = b"$" + payload + b"*%02X" % ((xor_fold(payload) + fudge) % 256)
    expected = ChecksumStatus.VALID if fudge == 0 else ChecksumStatus.INVALID
    # guard: the payload itself must not contain a second star
    if b"*" not in payload:
        assert verify_checksum(line) is expected
    assert verify_checksum(line) is _oracle_status(line)


@settings(max_examples=200)
@given(st.binary(max_size=90).map(lambda b: b.replace(b"*", b"")),
       st.sampled_from([b"$", b"#", b""]), st.integers(0, 255),
       st.sampled_from([b"%02X", b"%02x", b"ZZ"]), st.integers(1, 9))
def test_a_line_alone_gets_the_chunk_kernels_status(payload, lead, fudge, suffix, chunk):
    """A line checked alone as an overlong one is folded ``READ_CHUNK`` bytes
    at a time; a chunk of a few bytes splits it many times over, and its
    status is the one the kernel over a whole buffer of lines gives it."""
    line = lead + payload + b"*" + (suffix % ((xor_fold(payload) + fudge) % 256)
                                    if b"%" in suffix else suffix)
    with mock.patch.object(classify, "READ_CHUNK", chunk), \
            mock.patch.object(classify, "MAX_LINE_BYTES", 0):
        alone = verify_checksum(line)
    assert alone.value == classify._checksum_states([b"noise", line])[1]
    assert alone is _oracle_status(line)


def test_an_overlong_line_alone_is_checked_in_a_few_chunks_of_memory():
    """A 16.8 MB line without LF that ends in a checksum is folded a chunk
    at a time: its check peaks below half the line's size."""
    body = bytes(range(33, 127)) * (16_800_000 // 94)
    line = b"$" + body + b"*%02X" % xor_fold(body)
    tracemalloc.start()
    try:
        status = verify_checksum(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status is ChecksumStatus.VALID
    assert peak < len(line) / 2


# --- routing -----------------------------------------------------------------


def _build_segment(path: Path, rng: random.Random, n: int = 400) -> list[bytes]:
    lines = []
    for i in range(n):
        pick = rng.random()
        if pick < 0.35:
            lines.append(gga_line(tod=f"{i % 24:02d}0101.000"))
        elif pick < 0.55:
            lines.append(plrm_line(tod=f"{i % 24:02d}0101.500"))
        elif pick < 0.65:
            lines.append(sentence(f"GPRMC,{i % 24:02d}0101,A,,,,,,,170420,,"))
        elif pick < 0.75:
            good = gga_line()
            lines.append(good[:-2] + b"%02X" % ((int(good[-2:], 16) + 1) % 256))
        elif pick < 0.85:
            lines.append(b"#%08x" % rng.getrandbits(32))
        else:
            lines.append(sentence("PQXB," + "x" * rng.randrange(0, 20)))
    path.write_bytes(b"".join(line + b"\r\n" for line in lines))
    return lines


def test_route_partitions_and_preserves_order(tmp_path):
    rng = random.Random(42)
    segment = tmp_path / "raw_20200417T000000Z.log"
    lines = _build_segment(segment, rng)
    out = tmp_path / "classified"
    report = route(segment, out)

    outputs = {}
    for path in out.iterdir():
        if path.name == REPORT_NAME:
            continue
        outputs[path.name] = path.read_bytes().splitlines()

    # every input line lands in exactly one output file
    assert sum((Counter(v) for v in outputs.values()), Counter()) == Counter(lines)

    # per-file order: each file's lines occur at strictly increasing
    # positions of the input sequence (greedy subsequence match)
    for name, file_lines in outputs.items():
        cursor = 0
        for line in file_lines:
            while cursor < len(lines) and lines[cursor] != line:
                cursor += 1
            assert cursor < len(lines), f"{name} broke segment order"
            cursor += 1

    assert report.total_lines == len(lines)
    assert sum(report.counts.values()) == len(lines)
    assert report.quarantined_lines == report.counts.get(QUARANTINE_LABEL, 0)
    assert sum(report.checksum_counts.values()) == len(lines)


def test_route_is_reproducible(tmp_path):
    rng = random.Random(99)
    segment = tmp_path / "raw_20200417T000000Z.log"
    _build_segment(segment, rng, n=120)
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    route(segment, out1)
    route(segment, out2)
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    for name in names1:
        if name == REPORT_NAME:
            continue
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_route_quarantines_invalid_checksums_by_default(tmp_path):
    good = gga_line()
    bad = good[:-2] + b"00"
    segment = tmp_path / "seg.log"
    segment.write_bytes(good + b"\r\n" + bad + b"\r\n")
    out = tmp_path / "classified"
    report = route(segment, out)
    assert (out / "GPGGA.txt").read_bytes() == good + b"\n"
    assert (out / "quarantine.txt").read_bytes() == bad + b"\n"
    assert report.quarantined_lines == 1
    assert report.checksum_counts["invalid"] == 1


def test_route_keeps_invalid_checksums_when_asked(tmp_path):
    good = gga_line()
    bad = good[:-2] + b"00"
    segment = tmp_path / "seg.log"
    segment.write_bytes(good + b"\r\n" + bad + b"\r\n")
    out = tmp_path / "classified"
    report = route(segment, out, quarantine_invalid=False)
    assert (out / "GPGGA.txt").read_bytes() == good + b"\n" + bad + b"\n"
    assert not (out / "quarantine.txt").exists()
    assert report.quarantined_lines == 0
    assert report.checksum_counts["invalid"] == 1


def test_route_quarantines_overlong_lines(tmp_path):
    monster = b"$GPGGA," + b"9" * (MAX_LINE_BYTES + 16)
    segment = tmp_path / "seg.log"
    segment.write_bytes(monster + b"\n" + gga_line() + b"\r\n")
    out = tmp_path / "classified"
    report = route(segment, out)
    assert (out / "quarantine.txt").read_bytes() == monster + b"\n"
    assert report.counts[QUARANTINE_LABEL] == 1
    assert report.counts["GPGGA"] == 1


def test_route_handles_unterminated_tail(tmp_path):
    segment = tmp_path / "seg.log"
    segment.write_bytes(gga_line() + b"\r\n" + b"$GPGGA,partial")
    out = tmp_path / "classified"
    report = route(segment, out)
    assert report.trailing_unterminated is True
    assert report.total_lines == 2
    # the partial line still routes by its header
    assert (out / "GPGGA.txt").read_bytes().count(b"\n") == 2


def test_route_empty_segment(tmp_path):
    segment = tmp_path / "seg.log"
    segment.write_bytes(b"")
    out = tmp_path / "classified"
    report = route(segment, out)
    assert report.total_lines == 0
    assert report.counts == {}
    assert (out / REPORT_NAME).exists()


def test_report_round_trips_through_json(tmp_path):
    segment = tmp_path / "seg.log"
    segment.write_bytes(gga_line() + b"\r\n" + plrm_line() + b"\r\n")
    out = tmp_path / "classified"
    report = route(segment, out)
    loaded = read_json(out / REPORT_NAME)
    assert loaded == report._asdict()
    assert loaded["counts"] == {"GPGGA": 1, "P_LRM": 1}


def _class_files(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _chunk_blob() -> bytes:
    return (
        b"".join(gga_line(tod=f"{h:02d}0000.000") + b"\r\n" for h in range(24))
        + b"\n\r\n#noise\n"
        + plrm_line()
        + b"\r\n$PLRM,partial\r"
    )


def test_route_chunk_size_invariance(tmp_path, monkeypatch):
    segment = tmp_path / "raw_20200417T000000Z.log"
    segment.write_bytes(_chunk_blob())
    route(segment, tmp_path / "baseline")
    baseline = _class_files(tmp_path / "baseline")
    assert set(baseline) == {"GPGGA.txt", "P_LRM.txt", QUARANTINE_LABEL + ".txt", REPORT_NAME}
    for size in range(1, 65):
        monkeypatch.setattr(classify, "READ_CHUNK", size)
        out = tmp_path / f"chunk{size}"
        route(segment, out)
        assert _class_files(out) == baseline, f"chunk size {size}"


@pytest.mark.parametrize("split_crlf", [True, False])
def test_route_framing_across_chunks(tmp_path, monkeypatch, split_crlf):
    first = sentence("GPGGA,1")
    if split_crlf:
        # the first chunk ends between the CR and the LF of the first line
        monkeypatch.setattr(classify, "READ_CHUNK", len(first) + 1)
    segment = tmp_path / "seg.log"
    segment.write_bytes(first + b"\r\n#junk\n\n\r\n$PLRM,tail\r")
    out = tmp_path / "classified"
    report = route(segment, out)
    assert (out / "GPGGA.txt").read_bytes() == first + b"\n"
    # empty lines are unknown, so quarantined, and keep their place
    assert (out / "quarantine.txt").read_bytes() == b"#junk\n\n\n"
    # the unterminated tail keeps its CR
    assert (out / "P_LRM.txt").read_bytes() == b"$PLRM,tail\r\n"
    assert report.total_lines == 5
    assert report.trailing_unterminated is True
    assert report.checksum_counts == {"valid": 1, "invalid": 0, "absent": 4}


def test_route_frames_a_segment_without_lf_in_linear_time(tmp_path, monkeypatch):
    # a receiver at the wrong baud rate: 1 MiB of noise and no line feed,
    # read 16 bytes at a time.  Re-copying the pending line for every chunk
    # would frame about 32 GiB; the pending bytes must be joined once.
    noise = (bytes(range(256)).replace(b"\n", b"") * 4200)[: 1 << 20]
    segment = tmp_path / "seg.log"
    segment.write_bytes(noise)
    framed = []

    def counting(data, carry=b""):
        framed.append(len(carry) + len(data))
        return extract_lines(data, carry)

    monkeypatch.setattr(classify, "READ_CHUNK", 16)
    monkeypatch.setattr(classify, "extract_lines", counting)
    out = tmp_path / "classified"
    report = route(segment, out)
    assert (out / "quarantine.txt").read_bytes() == noise + b"\n"
    assert report.counts == {QUARANTINE_LABEL: 1}
    assert report.trailing_unterminated is True
    assert sum(framed) <= 2 * len(noise)


def _golden_segment() -> bytes:
    lowercase_body = b"GPGGA,1,2,3"
    return (
        sentence("PGRMZ,93,f,3") + b"\r\n"  # proprietary, not talker PG
        + b"$GPGGA\r\n"  # header alone, no fields
        + b"$GPZDA,0*XX\n"  # checksum suffix that is not hex
        + b"$" + lowercase_body + b"*%02x" % xor_fold(lowercase_body) + b"\r\n"
        + gga_line()[:-2] + b"00\r\n"  # bad checksum
        + b"\x00\xfe#garbage\r\n"
        + b"\r\n"
        + b"$GPGGA," + b"9" * (MAX_LINE_BYTES - 7) + b"\r\n"  # exactly the limit
        + b"$GPGGA," + b"8" * (MAX_LINE_BYTES - 6) + b"\n"  # one byte over
        + plrm_line() + b"\r\n"
        + b"$GPZDA,0*XX"  # unterminated tail
    )


# sha256 of every file route() writes for _golden_segment(), keyed by
# quarantine_invalid.  Class files and report.json are read by parse and
# by `gpsloran convert --classified`, so these bytes must not drift.
_GOLDEN = {
    True: {
        "GPGGA.txt": "f709149473d76dcb27087fb9eeb2d85e7952b1aa00f3411940b538cbd4fbdc1b",
        "P_GRMZ.txt": "3356f8580d67bef6ee65b0e6d579687216fd71e9bba53057de43d28ec17e8cb2",
        "P_LRM.txt": "f7e9a3d8aface886415682a37c9cbd3efbfb29899e2ea9ba796b9f11d2c8f016",
        "quarantine.txt": "bb62e1993c2900498f2af7bebdafe43a6fffc693bb7850e48e8333cce4f6c663",
        "report.json": "724948b8162e0b976ddc5c07510053a93e59804f437a79445e432c5e3be73631",
    },
    False: {
        "GPGGA.txt": "3359e97b206c182d5449e97b519a9e50d4f4e9a69b5bd14687a0539dd1def386",
        "GPZDA.txt": "acd328d01e8d5c115d646579fa777ea061f9fbd032f0332b6a3c9a04a5e7c331",
        "P_GRMZ.txt": "3356f8580d67bef6ee65b0e6d579687216fd71e9bba53057de43d28ec17e8cb2",
        "P_LRM.txt": "f7e9a3d8aface886415682a37c9cbd3efbfb29899e2ea9ba796b9f11d2c8f016",
        "quarantine.txt": "160a852cbcd442afe1adc0bc058b73af957524b430555f71f5ed1df99899efa9",
        "report.json": "3ba93ef0c2affad6f12fd61e80563e8de2062297580837d60e7f4c1b3ba14def",
    },
}


@pytest.mark.parametrize("quarantine_invalid", [True, False])
def test_route_golden_digests(tmp_path, quarantine_invalid):
    segment = tmp_path / "raw_20200417T000000Z.log"
    segment.write_bytes(_golden_segment())
    out = tmp_path / "classified"
    route(segment, out, quarantine_invalid=quarantine_invalid)
    digests = {
        name: hashlib.sha256(data).hexdigest() for name, data in _class_files(out).items()
    }
    assert digests == _GOLDEN[quarantine_invalid]


_HEADERS = [b"$GPGGA", b"$GNGGA", b"$GPZDA", b"$PLRM", b"$PGRMZ", b"$P", b"$gpgga", b"$GPGG", b"GPGGA", b""]
_NO_LF = st.binary(max_size=24).filter(lambda data: b"\n" not in data)


def _with_checksum(header: bytes, body: bytes) -> bytes:
    payload = header[1:] + b"," + body
    return header[:1] + payload + b"*%02X" % xor_fold(payload)


_LINES = st.one_of(
    _NO_LF,
    st.lists(st.sampled_from(b"$*,\r09aFG"), max_size=24).map(bytes),  # stars, dollars, hex
    st.builds(lambda h, sep, body: h + sep + body, st.sampled_from(_HEADERS),
              st.sampled_from([b"", b",", b"*"]), _NO_LF),
    st.builds(_with_checksum, st.sampled_from(_HEADERS),
              st.binary(max_size=24).filter(lambda data: b"\n" not in data and b"*" not in data)),
)


@settings(deadline=None)  # a loaded host can stall one example past the default 200 ms
@given(
    st.lists(_LINES, max_size=40),
    st.integers(1, 64),
    st.integers(0, 40),
    st.booleans(),
    st.booleans(),
)
def test_route_follows_the_line_rules(lines, chunk, limit, quarantine_invalid, terminate_last):
    expected: dict[str, list[bytes]] = {}
    statuses = Counter(verify_checksum(line).value for line in lines)
    for line in lines:
        label = classify_line(line)
        if (
            label == "unknown"
            or len(line) > limit
            or (quarantine_invalid and verify_checksum(line) is ChecksumStatus.INVALID)
        ):
            label = QUARANTINE_LABEL
        expected.setdefault(f"{label}.txt", []).append(line)
    # an empty last line without its terminator is no line at all
    unterminated = bool(lines and lines[-1]) and not terminate_last
    data = b"".join(line + b"\r\n" for line in lines)
    if unterminated:
        data = data[:-2]
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.object(classify, "READ_CHUNK", chunk),
        mock.patch.object(classify, "MAX_LINE_BYTES", limit),
    ):
        segment = Path(tmp) / "seg.log"
        segment.write_bytes(data)
        report = route(segment, Path(tmp) / "out", quarantine_invalid=quarantine_invalid)
        files = _class_files(Path(tmp) / "out")
    assert files.pop(REPORT_NAME)
    assert files == {name: b"".join(line + b"\n" for line in group) for name, group in expected.items()}
    assert report.total_lines == len(lines)
    assert report.checksum_counts == {status.value: statuses[status.value] for status in ChecksumStatus}
    assert report.trailing_unterminated is unterminated
