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


def _build_parser() -> _Parser:
    parser = _Parser(prog="bprelab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bprelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the config's check suites and write a report")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory (default: from config, else <name>-report)")
    p_run.add_argument("--seed", type=int, help="override master_seed")
    p_run.add_argument("--threads", type=int, help=(
        "thread count, checked to be >= 1; the simulator is vectorized and uses no "
        "threads, so the value changes neither the results nor the speed"))

    p_verify = sub.add_parser("verify", help="run the cross-module consistency checks")
    p_verify.add_argument("config")
    p_verify.add_argument("--out", help="also write report.json to this directory")
    p_verify.add_argument("--seed", type=int, help="override master_seed")

    p_rates = sub.add_parser("rates", help="print the computed rate report")
    p_rates.add_argument("config")
    p_rates.add_argument("--p", type=float, action="append", help="exponent(s); default from config")
    return parser


# command-line option -> the config key it overrides
_OVERRIDES = {"seed": "master_seed", "threads": "threads", "p": "p"}


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


def _cmd_run(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    report, csv_tables, code = run_experiment(cfg)
    _print_checks(report)
    out = args.out or cfg.out or f"{cfg.name}-report"
    report_path = write_outputs(report, csv_tables, out)
    print(f"report: {report_path}")
    return code


def _cmd_verify(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    report, csv_tables, code = verify_suite(cfg)
    _print_checks(report)
    if args.out:
        report_path = write_outputs(report, csv_tables, args.out)
        print(f"report: {report_path}")
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
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_rates(args)
    except BpreLabError as exc:
        print(f"bprelab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
