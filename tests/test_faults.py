"""Committed faults: every check family fails under a named fault of one src/ function.

A check family is a check id without its p, rho and n parts. FAULTS maps a
family to one fault: a replacement for one attribute under src/, and a
bundled config, with top-level overrides, on which every check of the family
passes as shipped and fails under the fault.
"""

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from bprelab import rates
from bprelab.config import load_config
from bprelab.harness import run_experiment

ROOT = Path(__file__).resolve().parent.parent


def rho_k_plus_one_weights(keys, top):
    """simulate._weights with rho^{k+1} in place of rho^k, so every A_hat_n is rho times too large."""
    rows = [[rho ** (k + 1) if k <= n else 0.0 for k in range(top + 1)] for rho, n in keys]
    return np.array(rows + [[0.0] * (top + 1)] * (len(rows) == 1))


class SquaredGrowthPath:
    """A path's laws with 2 log P_n as its log_means, so a series reads P_n^2 where P_n is."""

    def __init__(self, path):
        self.laws = path.laws
        self.log_means = 2 * path.log_means

    def __len__(self):
        return len(self.laws)


def squared_growth_series(path, *args, real=rates.series_diagnostic, **kwargs):
    """rates.series_diagnostic on SquaredGrowthPath(path): the quadratic series weighs P_n^{-2}."""
    return real(SquaredGrowthPath(path), *args, **kwargs)


@dataclass(frozen=True)
class Fault:
    name: str
    target: str
    replacement: object
    config: str
    overrides: dict


FAULTS = {
    "identity": Fault("rho^{k+1} weights", "bprelab.simulate._weights", rho_k_plus_one_weights,
                      "gw_binary.cfg", {"suites": ["identity"], "replicas": 2_000}),
    "criteria.series.super-rho": Fault("P_n^{-2} in the quadratic series", "bprelab.rates.series_diagnostic",
                                       squared_growth_series, "gw_binary.cfg", {"suites": ["criteria"]}),
}


def family(check_id: str) -> str:
    """check_id without its .p<x>, .rho<x> and .n<k> parts."""
    return re.sub(r"\.(?:p|rho)\d+(?:\.\d+)?(?=\.|$)|\.n\d+(?=\.|$)", "", check_id)


def family_checks(fault: Fault, name: str) -> list[dict]:
    report, _, _ = run_experiment(load_config(ROOT / "configs" / fault.config, fault.overrides))
    return [check for check in report["checks"] if family(check["id"]) == name]


@pytest.mark.parametrize("name", FAULTS)
def test_the_fault_fails_every_check_of_its_family(name, monkeypatch):
    fault = FAULTS[name]
    shipped = family_checks(fault, name)
    assert shipped and all(check["passed"] for check in shipped)
    monkeypatch.setattr(fault.target, fault.replacement)
    faulted = family_checks(fault, name)
    assert [check["id"] for check in faulted] == [check["id"] for check in shipped]
    assert not any(check["passed"] for check in faulted), fault.name
