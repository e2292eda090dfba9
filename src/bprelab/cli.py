"""Command-line entry point.

Exit codes: 0 all checks passed, 2 at least one check failed, 1 usage or
config error (including violated suite preconditions).
"""

from __future__ import annotations

import argparse
import json
import sys

from ._version import __version__
from .config import load_config
from .errors import BpreLabError, ConfigError
from .harness import EXIT_USAGE, check_suite_needs, jsonable, run_experiment, verify_suite
from .harness import write_outputs
from .rates import rate_report


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this tool reserves 2 for failed checks."""

    def error(self, message):
        raise ConfigError(f"usage: {message}")


def _thread_count(text: str) -> int:
    """The value of run's --threads: an integer >= 1."""
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bprelab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bprelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the config's check suites and write a report")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory (default: from config, else <name>-report)")
    p_run.add_argument("--seed", type=int, help="override master_seed")
    p_run.add_argument("--threads", type=_thread_count, help=(
        "an integer >= 1 that nothing reads; the simulator forks one worker per usable CPU, "
        "and the results are the same at any worker count"))

    p_verify = sub.add_parser("verify", help="run the suites' checks at small sizes")
    p_verify.add_argument("config")
    p_verify.add_argument("--out", help="also write report.json and the CSV tables to this directory")
    p_verify.add_argument("--seed", type=int, help="override master_seed")

    p_rates = sub.add_parser("rates", help="print the computed rate report")
    p_rates.add_argument("config")
    p_rates.add_argument("--p", type=float, action="append", help="exponent(s); default from config")
    return parser


# command-line option -> the config key it overrides
_OVERRIDES = {"seed": "master_seed", "p": "p"}


def _overrides(args) -> dict:
    """The config values given on the command line; the loader checks them like file values."""
    given = {key: getattr(args, option, None) for option, key in _OVERRIDES.items()}
    return {key: value for key, value in given.items() if value is not None}


def _print_checks(report: dict) -> None:
    for check in report["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['id']}: {check['statement']}")
    summary = report["summary"]
    print(f"summary: {summary['passed']}/{summary['checks']} checks passed")


def _cmd_report(args) -> int:
    """run or verify: print the checks; write to --out, else, for run only, the config's out, else <name>-report."""
    cfg = load_config(args.config, _overrides(args))
    runner = run_experiment if args.command == "run" else verify_suite
    report, csv_tables, code = runner(cfg)
    _print_checks(report)
    out = args.out or (cfg.out or f"{cfg.name}-report" if args.command == "run" else None)
    if out:
        print(f"report: {write_outputs(report, csv_tables, out)}")
    return code


def _cmd_rates(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    check_suite_needs(cfg, ("rates",))
    reports = [rate_report(cfg.env, p) for p in cfg.p]
    print(json.dumps(jsonable({"name": cfg.name, "rates": reports}), indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _cmd_rates(args) if args.command == "rates" else _cmd_report(args)
    except BpreLabError as exc:
        print(f"bprelab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
