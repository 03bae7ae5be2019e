"""Command-line surface for the capture/classify/convert toolkit.

Subcommands::

    record    capture a receiver stream into rotating raw segments
    classify  sort one closed segment into per-message-type files
    convert   parse a classified directory and export the merged timeline
    run       full unattended pipeline driven by a JSON config file
    stats     per-station SNR series and GPS fix series from a session
    recover   finish processing for a session interrupted by a crash
    simulate  generate or serve a deterministic synthetic receiver stream

Exit codes: 0 success, 1 fatal configuration or I/O error, 2 partial
(some segments flagged).  Logs are line-oriented ``key=value`` text on
stderr; command results go to stdout.  Each command imports the modules
it uses when it runs, and each module the standard library modules it
uses where it uses them.  So ``stats`` loads neither the capture code nor
the parser and ``csv``, which only an export its manifest does not vouch
for needs; ``convert`` loads no capture code (``record``, ``clock``);
``record``, ``run`` and the pipeline load no ``dataclasses`` (nor the
``inspect`` it loads), and ``socket``, ``select`` and
``concurrent.futures`` only for a TCP source, a serial source and the
worker pool.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from datetime import date
from pathlib import Path

from .fsutil import OutputSet, atomic_write_bytes, read_json
from .timeutil import MS_PER_DAY, day_ms, iso_ms, parse_duration


class CliError(Exception):
    """Bad invocation or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for "partial"
        raise CliError(message)


def _setup_logging() -> None:
    formatter = logging.Formatter(
        "ts=%(asctime)s.%(msecs)03dZ level=%(levelname)s logger=%(name)s msg=%(message)s",
        datefmt="%Y-%m-%dT%H:%M:%S",
    )
    formatter.converter = time.gmtime  # the stamp says Z, so it must be UTC
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(formatter)
    logging.basicConfig(level=logging.INFO, handlers=[handler])


# --- subcommand implementations ---------------------------------------------


def cmd_record(args) -> int:
    from . import orchestrate
    config = {
        "source": args.source,
        "out_dir": args.out,
        "session_id": args.session_id,
        "rotation": args.rotate,
        "flush_interval_s": parse_duration(args.flush_interval),
        "replay_speed": args.replay_speed,
        "on_eof": args.on_eof,
        "process_segments": False,
    }
    return orchestrate.run_pipeline(config)


def cmd_classify(args) -> int:
    from . import classify
    report = classify.route(
        Path(args.segment),
        Path(args.out),
        quarantine_invalid=not args.keep_invalid_checksums,
    )
    print(json.dumps(report._asdict()))
    return 0


def cmd_convert(args) -> int:
    from . import orchestrate
    manifest = orchestrate.convert_classified(
        Path(args.classified),
        Path(args.out),
        args.format,
        orchestrate.Hooks(),
        session_id=args.session_id,
        gap_threshold_s=parse_duration(args.gap_threshold),
        open_time=(day_ms(date.fromisoformat(args.start_date)) + MS_PER_DAY // 2
                   if args.start_date else None),  # the start date's noon
    )
    print(json.dumps(manifest["record_counts"]))
    return 0


def cmd_run(args) -> int:
    from . import orchestrate
    config = read_json(Path(args.config))
    if type(config) is not dict or not {"source", "out_dir"} <= config.keys():
        raise CliError("config must be a JSON object holding 'source' and 'out_dir'")
    return orchestrate.run_pipeline(config)


def cmd_recover(args) -> int:
    from . import orchestrate
    return orchestrate.recover(Path(args.state))


def cmd_stats(args) -> int:
    from collections import defaultdict
    from . import convert
    session_dir = Path(args.session)
    exports = session_dir / "exports"
    export_dirs = sorted(d for d in exports.iterdir()
                         if d.is_dir() and not d.name.startswith(".")) if exports.is_dir() else []
    if not export_dirs:
        raise CliError(f"no exports found under {session_dir}")
    gap_threshold_s = parse_duration(args.gap_threshold)
    out = OutputSet(Path(args.out) if args.out else session_dir / "stats")

    # Each block of rows the readers hand on is folded, and its series rows
    # written, as it is read; a row is the texts of its cells.
    fold, series = convert.SummaryFold(gap_threshold_s), set()
    wanted = args.station

    def write(name: str, rows, header: str = "timestamp,snr_db\n") -> None:
        if name not in series:
            series.add(name)
            out.write(name, header.encode())
        out.write(name, "".join(rows).encode())

    def on_fixes(rows) -> None:  # timestamp, lat, lon, alt, fix_quality, num_sats, hdop
        fold.take({row[0] for row in rows})
        fixes = [row for row in rows if row[4] != "0"]
        fold.no_fix += len(rows) - len(fixes)
        if fixes:
            fold.fixes += len(fixes)
            lats, lons = [float(row[1]) for row in fixes], [float(row[2]) for row in fixes]
            # min() and max() keep the first of equal extremes (0.0 and -0.0), as a fix-by-fix fold
            lat_min, lat_max, lon_min, lon_max = fold.bbox or (lats[0], lats[0], lons[0], lons[0])
            fold.bbox = (min(lat_min, min(lats)), max(lat_max, max(lats)),
                         min(lon_min, min(lons)), max(lon_max, max(lons)))
            write("gps_fixes.csv", [f"{t},{lat},{lon},{alt}\n" for t, lat, lon, alt, *_ in fixes])

    def on_observations(rows) -> None:  # timestamp, gri, station_role, toa_us, snr_db, ecd_us
        fold.take({row[0] for row in rows})
        values, kept = fold.snr, defaultdict(list)
        for stamp, gri, role, _, snr, _ in rows:
            station = gri + role
            values[station].append(float(snr))
            if not wanted or station == wanted:
                kept[station].append(f"{stamp},{snr}\n")
        for station, lines in kept.items():
            write(f"snr_{station}.csv", lines)
        fold.fold_snr()

    with out:  # a failure discards every series, then the directories made for them
        write("gps_fixes.csv", (), "timestamp,lat_deg,lon_deg,alt_m\n")
        if wanted:
            write(f"snr_{wanted}.csv", ())
        for segment in export_dirs:
            digests = convert.export_digests(segment)  # one manifest read a directory
            for kind, reader, emit in (("gps", convert.read_gps_export, on_fixes),
                                       ("loran", convert.read_loran_export, on_observations)):
                path = segment / f"timeline_{kind}.csv"  # else its JSON lines
                if path.exists() or (path := path.with_suffix(".jsonl")).exists():
                    reader(path, emit, digests)
        stations = convert.summarize(fold)
        out.commit()

    loran = sum(count for count, *_ in stations.values())
    print(f"records={fold.fixes + fold.no_fix + loran} gps_fixes={fold.fixes} "
          f"no_fix={fold.no_fix} loran={loran}")
    if fold.first is not None:
        print(f"time_span={iso_ms(fold.first)}..{iso_ms(fold.last)}")
    if fold.bbox:
        lat_min, lat_max, lon_min, lon_max = fold.bbox
        print(f"bbox_lat={lat_min}..{lat_max} bbox_lon={lon_min}..{lon_max}")
    for station, (count, snr_min, snr_mean, snr_max) in stations.items():
        print(f"station={station} count={count} snr_min={snr_min} "
              f"snr_mean={snr_mean} snr_max={snr_max}")
    print(f"gaps={len(fold.gaps)}")
    for start, end in fold.gaps:
        print(f"gap={iso_ms(start)}..{iso_ms(end)}")
    return 0


def cmd_simulate(args) -> int:
    from . import simulate
    scenario = simulate.Scenario.from_file(Path(args.scenario))
    stream, truth = simulate.generate_stream(scenario)
    if args.truth_dir:
        simulate.write_ground_truth(truth, Path(args.truth_dir))
    summary = {
        "sentences": truth.emitted_sentences,
        "gps_records": len(truth.gps),
        "loran_records": len(truth.loran),
        "corrupted": truth.corrupted_lines,
        "garbage": truth.garbage_lines,
    }
    if args.sim_command == "generate":
        atomic_write_bytes(Path(args.out), stream.to_bytes())
        print(json.dumps(summary))
        return 0

    host, _, port = args.listen.rpartition(":")
    server = simulate.SimServer(stream, host or "127.0.0.1", int(port), args.pace).start()
    print(f"listening={server.address}", flush=True)
    print(json.dumps(summary), flush=True)
    try:
        server.join()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


# --- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    from .convert import DEFAULT_GAP_THRESHOLD_S, FORMAT_EXTENSIONS
    parser = _Parser(prog="gpsloran", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("record", help="capture a stream into rotating raw segments")
    p.add_argument("--source", required=True, help="kind:address, e.g. tcp:host:4001, serial:/dev/ttyUSB0, replay:capture.log")
    p.add_argument("--out", required=True, help="output directory for the session")
    p.add_argument("--rotate", default="utc-midnight", help="utc-midnight (default) or a fixed interval such as 24h")
    p.add_argument("--flush-interval", default="1s", help="durability flush interval (default 1s)")
    p.add_argument("--session-id", default="")
    p.add_argument("--replay-speed", type=float, default=1.0, help="replay pacing multiplier; 0 = unpaced")
    p.add_argument("--on-eof", choices=("stop", "reconnect"), default="reconnect")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("classify", help="sort one raw segment into per-class files")
    p.add_argument("--segment", required=True, help="closed raw segment file")
    p.add_argument("--out", required=True, help="output directory for class files")
    p.add_argument("--keep-invalid-checksums", action="store_true",
                   help="route checksum-invalid lines to their class file instead of quarantine")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("convert", help="parse classified files and export the merged timeline")
    p.add_argument("--classified", required=True, help="directory produced by classify")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=tuple(FORMAT_EXTENSIONS), default="columns")
    p.add_argument("--session-id", default="")
    p.add_argument("--start-date", default=None, help="YYYY-MM-DD whose noon anchors a segment with no ZDA/RMC instant")
    p.add_argument("--gap-threshold", default=str(DEFAULT_GAP_THRESHOLD_S))
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("run", help="full unattended pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("stats", help="emit SNR-vs-time and GPS fix series for a session")
    p.add_argument("--session", required=True, help="session directory (contains exports/)")
    p.add_argument("--station", default=None, help="limit SNR series to one station, e.g. 9930M")
    p.add_argument("--gap-threshold", default=str(DEFAULT_GAP_THRESHOLD_S))
    p.add_argument("--out", default=None, help="series output directory (default <session>/stats)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("recover", help="resume processing after a crash")
    p.add_argument("--state", required=True,
                   help="session directory (its session.json and events.jsonl)")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("simulate", help="deterministic receiver simulator")
    sim_sub = p.add_subparsers(dest="sim_command", required=True, parser_class=_Parser)
    g = sim_sub.add_parser("generate", help="write the stream bytes to a file")
    g.add_argument("--scenario", required=True, help="scenario JSON file")
    g.add_argument("--out", required=True, help="output byte-stream file")
    g.add_argument("--truth-dir", default=None, help="also export ground truth here")
    g.set_defaults(func=cmd_simulate)
    s = sim_sub.add_parser("serve", help="serve the stream over TCP")
    s.add_argument("--scenario", required=True)
    s.add_argument("--listen", default="127.0.0.1:0", help="host:port (port 0 picks a free port)")
    s.add_argument("--pace", default="real-time", help="real-time, unpaced, or accelerated:<factor>")
    s.add_argument("--truth-dir", default=None)
    s.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
