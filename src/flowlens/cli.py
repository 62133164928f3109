"""Command-line front end: analyze traces, generate scenarios, check DBs.

Exit codes: 0 success, 2 at least one trace rejected by the skewness gate,
64 usage error, 65 invalid fingerprint database or a trace whose analysis
failed, 66 unreadable input. A batch goes on past a failed trace and exits
with the highest of its traces' codes.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .hops import FingerprintDb, FingerprintFormatError
from .pcapio import PcapFormatError
from .report import AnalysisParams, analyze_trace, write_report
from .synth import ScenarioError, generate, load_scenario

EXIT_OK = 0
EXIT_GATE_REJECTED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _http_ports(value: str):
    try:
        ports = frozenset(int(p) for p in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad port list {value!r}")
    if not ports or any(not 0 < p < 65536 for p in ports):
        raise argparse.ArgumentTypeError(f"bad port list {value!r}")
    return ports


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowlens",
                     description="Per-time-block flow statistics, heavy-tail and "
                                 "hop-count analysis of packet traces.")
    parser.add_argument("--version", action="version", version=f"flowlens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = AnalysisParams()
    p_an = sub.add_parser("analyze", help="analyze one or more pcap traces")
    p_an.add_argument("traces", nargs="+", metavar="TRACE")
    p_an.add_argument("--out", default="flowlens-out", help="output directory")
    p_an.add_argument("--tau", type=float, default=defaults.tau,
                      help="block / rate-interval length in seconds")
    p_an.add_argument("--min-packets", type=int, default=defaults.min_packets,
                      help="flow admission threshold")
    p_an.add_argument("--greedy-threshold", type=int, default=defaults.greedy_threshold,
                      help="packets per block strictly above which a flow is greedy")
    p_an.add_argument("--skew-min", type=float, default=defaults.skew_min,
                      help="minimum throughput skewness to keep a trace")
    p_an.add_argument("--keep", default=defaults.keep, metavar="DIR:CIDRS",
                      help="direction filter, e.g. src:10.0.0.0/8,172.16.0.0/12")
    p_an.add_argument("--http-ports", type=_http_ports, default=defaults.http_ports,
                      metavar="P[,P...]", help="TCP ports classified as HTTP")
    p_an.add_argument("--fingerprints", default=None,
                      help="fingerprint DB path (default: $FLOWLENS_FP_DB or built-in)")
    p_an.add_argument("--force", action="store_true",
                      help="run the full analysis even for gate-rejected traces")

    p_gen = sub.add_parser("generate", help="emit a synthetic trace from a scenario file")
    p_gen.add_argument("--scenario", required=True)
    p_gen.add_argument("--out", default=".", help="output directory")
    p_gen.add_argument("--name", default="trace", help="basename for the pcap")

    p_db = sub.add_parser("fingerprint-db", help="fingerprint database utilities")
    db_sub = p_db.add_subparsers(dest="db_command", required=True)
    p_check = db_sub.add_parser("check", help="validate a fingerprint DB file")
    p_check.add_argument("path")

    return parser


def _cmd_analyze(args) -> int:
    fingerprints = args.fingerprints or os.environ.get("FLOWLENS_FP_DB") or None
    try:
        params = AnalysisParams(tau=args.tau, min_packets=args.min_packets,
                                greedy_threshold=args.greedy_threshold,
                                skew_min=args.skew_min, http_ports=args.http_ports,
                                keep=args.keep, fingerprints=fingerprints,
                                force=args.force)
    except ValueError as exc:
        print(f"flowlens analyze: bad arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    multi = len(args.traces) > 1
    stems = [Path(t).stem for t in args.traces]
    clashes = sorted({s for s in stems if stems.count(s) > 1})
    if clashes:
        print(f"flowlens analyze: traces would share an output directory: "
              f"{', '.join(clashes)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        db = (FingerprintDb.load(fingerprints) if fingerprints
              else FingerprintDb.default())
    except FingerprintFormatError as exc:
        print(f"flowlens analyze: bad fingerprint DB: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"flowlens analyze: cannot read fingerprint DB: {exc}", file=sys.stderr)
        return EXIT_NOINPUT

    out_root = Path(args.out)
    code = EXIT_OK
    for trace, stem in zip(args.traces, stems):
        try:
            result = analyze_trace(trace, params, db)
            write_report(result, out_root / stem if multi else out_root)
        except (OSError, PcapFormatError) as exc:
            print(f"flowlens analyze: {trace}: {exc}", file=sys.stderr)
            code = EXIT_NOINPUT
            continue
        except Exception as exc:        # one trace's failure must not end the batch
            log.debug("analysis of %s failed", trace, exc_info=True)
            print(f"flowlens analyze: {trace}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            code = max(code, EXIT_DATA)
            continue
        print(json.dumps(result.gate_line(), sort_keys=True), flush=True)
        if not result.gate_kept and not params.force:
            code = max(code, EXIT_GATE_REJECTED)
        del result      # hold one trace's records at a time, not the batch's
    return code


def _cmd_generate(args) -> int:
    try:
        spec = load_scenario(args.scenario)
    except OSError as exc:
        print(f"flowlens generate: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except ScenarioError as exc:
        print(f"flowlens generate: {exc}", file=sys.stderr)
        return EXIT_DATA
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        pcap_path, truth = generate(spec, out_dir / f"{args.name}.pcap")
    except ScenarioError as exc:
        print(f"flowlens generate: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(json.dumps({"pcap": str(pcap_path),
                      "ground_truth": str(pcap_path.with_name(pcap_path.stem + ".ground_truth.json")),
                      "flows": len(truth.flows),
                      "packets": truth.total_packets,
                      "bytes": truth.total_bytes}, sort_keys=True))
    return EXIT_OK


def _cmd_db_check(args) -> int:
    try:
        db = FingerprintDb.load(args.path)
    except FingerprintFormatError as exc:
        print(f"flowlens fingerprint-db check: INVALID: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"flowlens fingerprint-db check: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    print(f"OK: {len(db.entries)} entries")
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "fingerprint-db":
        return _cmd_db_check(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
