"""Command line front end.

Subcommands:

* run    - execute a scenario, optionally printing the trace
* check  - execute a scenario and verify its expect-trust assertions
* parse  - parse statements from a file or stdin, print canonical forms
* corpus - print the built-in statement corpus

Data goes to stdout, diagnostics to stderr.  Exit status: 0 success,
1 failed expectation, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys

from . import engine, scenario
from .corpus import CORPUS_TEXTS
from .statements import StatementError, code_lines, parse as parse_statement, render
from .trust import TramPolicy

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopsim",
        description="deterministic trust and promise-lifecycle simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("scenario", help="scenario file (.coop)")
        p.add_argument("--tram", choices=["incremental", "recency-history"],
                       help="override the trust assessment policy")
        p.add_argument("--interleave", choices=["file-order", "round-robin"],
                       help="override within-tick event ordering")
        p.add_argument("--quiet", action="store_true",
                       help="suppress non-essential output")

    p_run = sub.add_parser("run", help="run a scenario")
    add_run_flags(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="print the event trace to stdout")

    p_check = sub.add_parser("check", help="run and verify expectations")
    add_run_flags(p_check)

    p_parse = sub.add_parser("parse", help="canonicalize statements")
    p_parse.add_argument("file", nargs="?", default="-",
                         help="statement file, one per line (default stdin)")

    sub.add_parser("corpus", help="print the built-in corpus")
    return parser


def _read(path, read):
    """``read(path)``, or None once stderr says why it failed: the file
    cannot be read, is not UTF-8 or, for a scenario, does not load."""
    try:
        return read(path)
    except OSError as exc:
        print(f"coopsim: cannot read {path}: {exc}", file=sys.stderr)
    except scenario.ScenarioError as exc:
        print(f"coopsim: {path}: {exc}", file=sys.stderr)
    return None


def _run(args):
    """Load and run the scenario of ``args``: the result and its failed
    expectations.  A scenario that cannot be read or loaded exits 2."""
    loaded = _read(args.scenario, scenario.load_path)
    if loaded is None:
        raise SystemExit(EXIT_USAGE)
    # the choices are the values of the enums; None keeps the header's
    result = engine.run(
        loaded,
        tram=args.tram and TramPolicy(args.tram),
        interleave=args.interleave and scenario.InterleavingStrategy(args.interleave),
    )
    return result, [e for e in result.expects if not e.passed]


def cmd_run(args) -> int:
    result, failures = _run(args)
    if args.trace:
        sys.stdout.write(result.trace_text())
    if not args.quiet:
        print(
            f"ran {args.scenario}: {len(result.trace)} trace lines, "
            f"{len(result.expects)} expectations, {len(failures)} failed",
            file=sys.stderr,
        )
    return EXIT_FAILED if failures else EXIT_OK


def cmd_check(args) -> int:
    result, failures = _run(args)
    for e in result.expects:
        status = "ok" if e.passed else "FAIL"
        print(
            f"{status} t={e.tick} trust({e.subject},{e.target}) "
            f"expected={e.expected} actual={e.actual}"
        )
    if not args.quiet:
        print(
            f"{len(result.expects) - len(failures)}/{len(result.expects)} "
            "expectations hold",
            file=sys.stderr,
        )
    return EXIT_FAILED if failures else EXIT_OK


def cmd_parse(args) -> int:
    if args.file == "-":
        source = _read("-", lambda _: scenario.decode_text(sys.stdin.buffer.read()))
    else:
        source = _read(args.file, scenario.read_text)
    if source is None:
        return EXIT_USAGE
    status = EXIT_OK
    for line_no, text in code_lines(source):  # comments as in a scenario
        try:
            print(render(parse_statement(text)))
        except StatementError as exc:
            print(f"coopsim: line {line_no}: {exc}", file=sys.stderr)
            status = EXIT_USAGE
    return status


def cmd_corpus(args) -> int:
    for text in CORPUS_TEXTS:
        print(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": cmd_run,
        "check": cmd_check,
        "parse": cmd_parse,
        "corpus": cmd_corpus,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
