"""The parity cases: what `bprelab` prints and writes on the bundled configs, as digests.

The cases are `run` and `verify` on the six bundled configs, `rates` on all
six and `run configs/two_means.cfg --seed 5`. Each is run in-process through
`cli.main`, and its record holds the exit code, digests of stdout (without
the `report:` line, whose path varies), of stderr, of each CSV, and of the
report without `timings` and `config.source`, and one short digest of
(passed, observed) per check id. tests/test_parity.py compares a fresh run
against tests/parity.json.

A change that moves report content on purpose rewrites the file:

    PYTHONPATH=src python tests/parity.py

and the diff of parity.json names every check id whose verdict or observed
values moved. The streams are numpy's, so the file records the numpy and
Python versions it was written under.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from bprelab import cli

ROOT = Path(__file__).resolve().parents[1]
FILE = Path(__file__).with_name("parity.json")
CONFIGS = ("deterministic", "fixed_path", "gw_binary", "subcritical", "two_means", "two_state")


def cases() -> dict[str, list[str]]:
    """Each case's name and its argv, with the config path relative to the repository root."""
    argvs = [[command, f"configs/{name}.cfg"] for command in ("run", "verify", "rates") for name in CONFIGS]
    argvs.append(["run", "configs/two_means.cfg", "--seed", "5"])
    return {" ".join(argv): argv for argv in argvs}


def digest(text: str, size: int = 16) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:size]


def record(argv: list[str]) -> dict:
    """One case's exit code and digests, run from the repository root as its argv reads."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        writes = argv[0] != "rates"
        try:
            os.chdir(ROOT)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--out", tmp] * writes)
        finally:
            os.chdir(here)
        stdout = "".join(line for line in out.getvalue().splitlines(True) if not line.startswith("report: "))
        entry = {"exit_code": code, "stdout": digest(stdout), "stderr": digest(err.getvalue())}
        files = sorted(Path(tmp).iterdir()) if writes else []
        entry["csv"] = {path.name: digest(path.read_text()) for path in files if path.suffix == ".csv"}
        if (Path(tmp) / "report.json").exists():
            report = json.loads((Path(tmp) / "report.json").read_text())
            report.pop("timings")
            report["config"].pop("source")
            entry["report"] = digest(json.dumps(report, sort_keys=True))
            entry["checks"] = {check["id"]: digest(json.dumps([check["passed"], check["observed"]], sort_keys=True), 8)
                               for check in report["checks"]}
        return entry


def compute() -> dict:
    return {"versions": {"numpy": np.__version__, "python": platform.python_version()},
            "cases": {name: record(argv) for name, argv in cases().items()}}


def differences(want: dict, got: dict) -> list[str]:
    """Per case that moved: its name, the check ids whose digest moved, appeared or went, and
    the other parts that moved."""
    lines = []
    for name in sorted(want.keys() | got.keys()):
        old, new = want.get(name, {}), got.get(name, {})
        if old == new:
            continue
        old_checks, new_checks = old.get("checks", {}), new.get("checks", {})
        moved = [cid for cid in old_checks if cid in new_checks and old_checks[cid] != new_checks[cid]]
        parts = [part for part in sorted(old.keys() | new.keys()) if part != "checks" and old.get(part) != new.get(part)]
        lines.append(f"{name}: checks moved {moved}, added {sorted(new_checks.keys() - old_checks.keys())}, "
                     f"removed {sorted(old_checks.keys() - new_checks.keys())}; other parts moved {parts}")
    return lines


if __name__ == "__main__":
    fresh = compute()
    if FILE.exists():
        print("\n".join(differences(json.loads(FILE.read_text())["cases"], fresh["cases"])) or "no case moved")
    FILE.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
