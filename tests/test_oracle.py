"""Segments of the benchmark's own generator, checked by its own oracle.

``bench/gen.py`` writes each line with the class file, the record or the
parse error it must become, and ``bench/check.py`` compares a segment's
outputs with that; neither imports ``gpsloran``, so a fault shared by the
package's parser, simulator and exporter cannot hide here.
"""
from __future__ import annotations

import ast
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpsloran.fsutil import CONVERTED, STATE_NAME, StateStore
from gpsloran.orchestrate import Hooks, pipeline_settings, process_segment

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import check  # noqa: E402
import gen  # noqa: E402

UTC = timezone.utc
FORMATS = ["columns", "lines"]
# A UTC midnight, the end of a leap day, and a year end: a segment that
# starts in the seconds before one crosses it.
BOUNDARIES = [datetime(2020, 4, 18, tzinfo=UTC), datetime(2020, 3, 1, tzinfo=UTC),
              datetime(2021, 1, 1, tzinfo=UTC)]


def test_the_oracle_imports_nothing_from_the_package():
    for module in (gen, check):
        tree = ast.parse(Path(module.__file__).read_text())
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not [name for name in names if name.split(".")[0] == "gpsloran"], module.__name__


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["day-dense", "day-noisy"]), st.integers(0, 1_000_000),
       st.sampled_from(BOUNDARIES), st.integers(0, 360), st.integers(20, 300))
@example("day-dense", 5, BOUNDARIES[0], 10, 60)
@example("day-noisy", 7, BOUNDARIES[1], 30, 120)
@example("day-dense", 7, BOUNDARIES[2], 150, 300)
@example("day-noisy", 5, BOUNDARIES[2], 1, 20)
def test_generated_segments_convert_as_the_oracle_expects(workload, seed, boundary, before,
                                                          seconds):
    """A segment of *seconds* from *before* seconds ahead of *boundary*
    classifies and exports, in both formats, exactly as ``check`` expects."""
    start = boundary - timedelta(seconds=before)
    stream = gen.build_stream(workload, seed, start, seconds)
    name = gen.segment_name(start)
    with tempfile.TemporaryDirectory() as scratch:
        session_dir = Path(scratch)
        (session_dir / name).write_bytes(stream.to_bytes())
        state = StateStore(session_dir / STATE_NAME, "oracle")
        state.add_segment(name)
        process_segment(session_dir, name, pipeline_settings({"formats": FORMATS}), state,
                        Hooks())
        assert state.entries == [(name, CONVERTED, None)]
        assert check.check_segment(session_dir, name, stream.expected(), FORMATS) == []
