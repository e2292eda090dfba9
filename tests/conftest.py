"""Shared fixtures: the standard test environments and a few reusable batches.

Batches are session-scoped because simulation dominates the suite's runtime;
tests must treat them as read-only. They store w (see stored.py), so any
reduction can be read from them.
"""

import re

import pytest

from bprelab import (
    IIDMixture,
    OffspringLaw,
    SimConfig,
)
from stored import stored_batch

GW_PMF = {0: 0.25, 2: 0.75}


@pytest.fixture(scope="session")
def gw_law():
    return OffspringLaw(GW_PMF)


@pytest.fixture(scope="session")
def gw_env(gw_law):
    return IIDMixture([gw_law], [1.0])


@pytest.fixture(scope="session")
def two_state_env():
    return IIDMixture([OffspringLaw({1: 0.5, 3: 0.5}), OffspringLaw({2: 1.0})], [0.5, 0.5])


@pytest.fixture(scope="session")
def m23_env():
    return IIDMixture([OffspringLaw({2: 1.0}), OffspringLaw({3: 1.0})], [0.5, 0.5])


@pytest.fixture(scope="session")
def gw_batch(gw_env):
    """A mid-size annealed batch on the binary law, shared across tests."""
    cfg = SimConfig(
        env=gw_env,
        mode="annealed",
        n_max=25,
        replicas=4000,
        master_seed=101,
    )
    return stored_batch(cfg)


@pytest.fixture(scope="session")
def degenerate_batch():
    cfg = SimConfig(
        env=IIDMixture([OffspringLaw({2: 1.0})], [1.0]),
        mode="annealed",
        n_max=20,
        replicas=300,
        master_seed=5,
    )
    return stored_batch(cfg)


# ---------------------------------------------------------------------------
# acceptance-line reporting: every test named test_acN_* contributes one
# PASS/FAIL line to the terminal summary, so the criteria can be read off
# a plain `pytest` run.

_AC_PATTERN = re.compile(r"test_ac(\d+)_")
_ac_results: dict[int, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _AC_PATTERN.search(report.nodeid)
    if not match:
        return
    label = report.nodeid.split("::")[-1]
    _ac_results[int(match.group(1))] = (report.outcome.upper(), label)


def pytest_terminal_summary(terminalreporter):
    if not _ac_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for k in sorted(_ac_results):
        outcome, label = _ac_results[k]
        mark = "PASS" if outcome == "PASSED" else outcome
        terminalreporter.write_line(f"AC-{k} {mark}: {label}")
