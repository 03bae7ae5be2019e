"""Frame captured bytes into lines and sort them by message header.

Receiver output is a line-oriented byte stream.  Each line is classified
from its header alone:

- NMEA standard:     ``$`` + 5 uppercase letters, then ``,``/``*``/end.
  The first two letters are the talker id, the next three the sentence id
  (``$GPGGA`` -> talker ``GP``, sentence ``GGA``).
- NMEA proprietary:  ``$P`` + 1 or more uppercase alphanumerics, then
  ``,``/``*``/end.  The characters after ``$P`` are the vendor tag
  (``$PLRM`` -> tag ``LRM``).  NMEA reserves the ``P`` talker initial for
  proprietary sentences, so this rule is checked first; a line such as
  ``$PGRMZ`` is proprietary (tag ``GRMZ``), not standard talker ``PG``.
- unknown:           everything else.

Classification is total: any byte string gets exactly one class.  Content
is never decoded as text; framing and matching are byte-level.
"""
from __future__ import annotations

import re
from collections import defaultdict
from enum import Enum
from pathlib import Path
from typing import BinaryIO, NamedTuple

from .fsutil import atomic_write_json

# NMEA 0183 caps sentences at 82 characters; this generous bound tolerates
# long proprietary extensions while keeping per-line memory bounded.
MAX_LINE_BYTES = 8192

QUARANTINE_LABEL = "quarantine"

# Segments are read and routed in chunks of this many bytes, so route()
# holds at most one chunk of lines however large the segment is.
READ_CHUNK = 1 << 16

# Proprietary is the first alternative, so it wins; a standard match never
# starts with ``$P`` because any such header also matches the proprietary one.
_HEADER_RE = re.compile(rb"\$(?:P([A-Z0-9]+)|([A-Z]{2})([A-Z]{3}))(?:[,*]|\Z)")
# Each two-byte checksum field, either case, to its value; anything else is not hex.
_HEX_PAIRS = {bytes((high, low)): int(bytes((high, low)), 16)
              for high in b"0123456789abcdefABCDEF" for low in b"0123456789abcdefABCDEF"}


class ChecksumStatus(str, Enum):
    VALID = "valid"
    INVALID = "invalid"
    ABSENT = "absent"


def extract_lines(data: bytes, carry: bytes = b"") -> tuple[list[bytes], bytes]:
    """Frame *data* (prefixed by leftover *carry*) into terminator-free lines.

    Splits on LF and strips one optional preceding CR.  Bytes after the
    final LF come back as the new carry, so feeding a stream through this
    in chunks of any size yields the same lines as one big call.  Empty
    lines are kept as zero-length entries.
    """
    lines = (carry + data).replace(b"\r\n", b"\n").split(b"\n")
    residual = lines.pop()
    return lines, residual


def classify_line(line: bytes) -> str:
    """The file-name-safe class label of one line, from its header:
    ``GPGGA``, ``P_LRM``, or ``unknown``.  Total: never raises."""
    match = _HEADER_RE.match(line)
    if match is None:
        return "unknown"
    vendor_tag, talker, sentence = match.groups()
    if vendor_tag is not None:
        return f"P_{vendor_tag.decode('ascii')}"
    return (talker + sentence).decode("ascii")


def _suffix_xors(data: bytes) -> bytes:
    """Byte ``i`` of the result is the XOR of ``data[i:]`` and a zero byte
    ends it, so the XOR of ``data[a:b]`` is ``result[a] ^ result[b]``.  Each
    shift of the little-endian int doubles the bytes every byte folds."""
    fold = int.from_bytes(data, "little")
    shift, bits = 8, 8 * len(data)
    while shift < bits:
        fold ^= fold >> shift
        shift <<= 1
    return fold.to_bytes(len(data) + 1, "little")


def verify_checksum(line: bytes, xors: bytes | None = None, at: int = 0) -> ChecksumStatus:
    """Check the trailing ``*hh`` checksum field of an NMEA-style line.

    The checksum is the XOR of all bytes strictly between ``$`` and the
    ``*`` (from the start of the line if it has no ``$``), compared
    case-insensitively against the two hex digits after the ``*``.

    Returns ABSENT when the line has no two-character ``*``-introduced
    suffix at all, INVALID when the suffix is present but not hex or does
    not match.  *xors* are the :func:`_suffix_xors` of a buffer holding
    *line* at offset *at*, as :func:`route` passes its chunk's; without
    them the line is folded ``READ_CHUNK`` bytes at a time, so a line of
    any length costs a few chunks of memory.  Total: never raises.
    """
    star = line.rfind(b"*")
    if star == -1 or len(line) - star != 3:
        return ChecksumStatus.ABSENT
    expected = _HEX_PAIRS.get(line[star + 1 :])
    if expected is None:
        return ChecksumStatus.INVALID
    start = line.find(b"$", 0, star) + 1
    if xors is None:
        view, checksum = memoryview(line), 0
        for begin in range(start, star, READ_CHUNK):
            checksum ^= _suffix_xors(view[begin : min(begin + READ_CHUNK, star)])[0]
    else:
        checksum = xors[at + start] ^ xors[at + star]
    return ChecksumStatus.VALID if checksum == expected else ChecksumStatus.INVALID


class ClassificationReport(NamedTuple):
    segment: str
    total_lines: int
    quarantined_lines: int
    counts: dict[str, int]
    output_paths: dict[str, str]
    checksum_counts: dict[str, int]
    trailing_unterminated: bool


REPORT_NAME = "report.json"


def route(
    segment_path: Path,
    out_dir: Path,
    *,
    quarantine_invalid: bool = True,
) -> ClassificationReport:
    """Write every line of a closed segment into exactly one per-class file.

    Recognized classes with valid-or-absent checksums go to
    ``<label>.txt``; unknown lines, overlong lines, and (by default)
    invalid-checksum lines go to ``quarantine.txt``.  Within each file,
    lines keep their segment order and exact byte content.  Re-running on
    the same segment reproduces byte-identical outputs.  The segment is
    read in ``READ_CHUNK``-byte chunks; each chunk's checksums come from
    one :func:`_suffix_xors` of its lines and each class file gets one
    write per chunk, so memory stays within a few times one chunk plus the
    longest line.

    A ``report.json`` with the counts is written last, so its presence
    marks a completed classification.
    """
    segment_path = Path(segment_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    labels: dict[bytes, str] = {}  # matched header bytes -> class label
    counts: dict[str, int] = {}
    checksum_counts = dict.fromkeys(ChecksumStatus, 0)
    writers: dict[str, BinaryIO] = {}
    match_header = _HEADER_RE.match
    invalid = ChecksumStatus.INVALID
    limit = MAX_LINE_BYTES
    carry: list[bytes] = []  # pieces of the unfinished line, joined once when it ends
    try:
        with open(segment_path, "rb") as stream:
            while True:
                data = stream.read(READ_CHUNK)
                if data and b"\n" not in data:  # only the new chunk is searched
                    carry.append(data)
                    continue
                lines, tail = extract_lines(data, b"".join(carry))
                carry = [tail]
                if not data and tail:  # end of segment: an unterminated tail is kept verbatim
                    lines.append(tail)
                pending: defaultdict[str, list[bytes]] = defaultdict(list)
                # The lines as the class files hold them, less the overlong ones: a
                # segment without LF is one such line, folded only if it ends in *hh.
                xors = _suffix_xors(b"\n".join([line for line in lines if len(line) <= limit]))
                at = 0  # where the next line within the limit starts in those bytes
                for line in lines:
                    if len(line) > limit:
                        status = verify_checksum(line)
                    else:
                        status = verify_checksum(line, xors, at)
                        at += len(line) + 1
                    checksum_counts[status] += 1
                    match = match_header(line)
                    if (
                        match is None
                        or len(line) > limit
                        or (quarantine_invalid and status is invalid)
                    ):
                        label = QUARANTINE_LABEL
                    else:
                        key = match.group()
                        label = labels.get(key)
                        if label is None:
                            label = labels[key] = classify_line(key)
                    pending[label].append(line)
                for label, group in pending.items():
                    writer = writers.get(label)
                    if writer is None:
                        writer = writers[label] = open(out_dir / f"{label}.txt", "wb")
                    writer.write(b"\n".join(group) + b"\n")
                    counts[label] = counts.get(label, 0) + len(group)
                if not data:
                    break
    finally:
        for writer in writers.values():
            writer.close()

    report = ClassificationReport(
        segment=segment_path.name,
        total_lines=sum(counts.values()),
        quarantined_lines=counts.get(QUARANTINE_LABEL, 0),
        counts=dict(sorted(counts.items())),
        output_paths={label: f"{label}.txt" for label in sorted(writers)},
        checksum_counts={status.value: n for status, n in checksum_counts.items()},
        trailing_unterminated=bool(tail),
    )
    atomic_write_json(out_dir / REPORT_NAME, report._asdict())
    return report
