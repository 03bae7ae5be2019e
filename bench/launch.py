"""Run the ``gpsloran`` CLI in a fresh process and report on the process.

``python3 bench/launch.py plain|traced OUT.json ARGS...`` imports
``gpsloran.cli``, runs ``main(ARGS)``, writes the process's own peak
resident memory (and, in ``traced`` mode, the import time and spans
around the reader, merge and summary functions that ``stats`` calls) to
OUT.json, and exits with the CLI's exit code.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

STATS_CALLS = ("read_gps_export", "read_loran_export", "merge_sort", "summarize")


def main() -> int:
    mode, out, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    start = time.monotonic()
    from gpsloran import cli, convert

    import_s = time.monotonic() - start
    from spans import Tracer, durations, median, peak_rss_kb, self_times

    tracer = Tracer()
    if mode == "traced":
        tracer.wrap(cli, "cmd_stats", "cmd_stats")
        for name in STATS_CALLS:
            tracer.wrap(convert, name, name)
    try:
        return cli.main(argv)
    finally:
        tracer.unwrap()
        spans = tracer.spans
        figures = {"peak_rss_kb": peak_rss_kb()}
        if mode == "traced":
            figures["cli.import_s"] = import_s
        if any(span[1] == "cmd_stats" for span in spans):
            figures.update({
                "convert.read_exports_s": sum(durations(spans, "read_gps_export"))
                + sum(durations(spans, "read_loran_export")),
                "convert.summarize_s": median(durations(spans, "summarize")),
                "cli.stats_self_s": median(self_times(spans, "cmd_stats", STATS_CALLS)),
            })
        out.write_text(json.dumps(figures))


if __name__ == "__main__":
    sys.exit(main())
