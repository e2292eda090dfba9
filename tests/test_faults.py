"""Committed faults: every check family fails under a named fault of one src/ function.

A check family is a check id without its p, rho and n parts. FAULTS maps a
family to one fault: a replacement for one attribute under src/, a bundled
config with top-level overrides, and the command, `run` or `verify`, under
which every check of the family passes as shipped and fails under the fault.
"""

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from bprelab import exact_moments, rates, relations
from bprelab.config import load_config
from bprelab.harness import run_experiment, verify_suite

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


def sqrt_m_geo_predicted(env, *args, real=relations.annealed_oracles):
    """relations.annealed_oracles with sqrt(m_geo), the quenched rate, as each predicted_rho."""
    quenched = math.sqrt(env.geo_mean())
    return {p: oracle if oracle.predicted_rho is None else oracle._replace(predicted_rho=quenched)
            for p, oracle in real(env, *args).items()}


def late_gap_sums(inc):
    """relations._gap_sums with its window of increments starting one generation late."""
    return lambda n, gap: math.fsum(inc[n + 1 : n + 1 + gap])


def late_increment_second_moment(forms, n):
    """P2ClosedForms.increment_second_moment one term late: q1^(n+1) b2."""
    return forms.q1 ** (n + 1) * forms.b2


def late_quenched_increments(path, n_max, real=exact_moments.quenched_increment_second_moments):
    """exact_moments.quenched_increment_second_moments one generation late: entry n holds
    generation n + 1's increment, and the last entry, which the path cannot give, is 0."""
    return np.append(real(path, n_max)[1:], 0.0)


def scaled_growth_table(env, s, r_max, n_max, real=exact_moments.annealed_moment_table):
    """exact_moments.annealed_moment_table with each state's mean taken as (1 + 1e-6) m in its
    m^{-s} weight, so P_n is scaled by (1 + 1e-6)^n and row n by (1 + 1e-6)^{-s n}."""
    table = real(env, s, r_max, n_max)
    scale = (1.0 + 1e-6) ** (-s * np.arange(n_max + 1))
    return replace(table, values=table.values * scale[:, None])


def late_a_hat2_tail(forms, rho, n, real=exact_moments.P2ClosedForms.a_hat2_tail):
    """P2ClosedForms.a_hat2_tail starting one term late: b2 (rho^2 q1)^(n+1) / (1 - rho^2 q1)."""
    return real(forms, rho, n + 1)


@dataclass(frozen=True)
class Fault:
    name: str
    target: str
    replacement: object
    config: str
    overrides: dict
    command: str = "run"


FAULTS = {
    "identity": Fault("rho^{k+1} weights", "bprelab.simulate._weights", rho_k_plus_one_weights,
                      "gw_binary.cfg", {"suites": ["identity"], "replicas": 2_000}),
    "criteria.series.super-rho": Fault("P_n^{-2} in the quadratic series", "bprelab.rates.series_diagnostic",
                                       squared_growth_series, "gw_binary.cfg", {"suites": ["criteria"]}),
    "annealed-rate.ci-contains-predicted": Fault(
        "the annealed oracle predicts sqrt(m_geo)", "bprelab.relations.annealed_oracles", sqrt_m_geo_predicted,
        "two_means.cfg", {"suites": ["annealed-rate"], "replicas": 20_000}),
    "annealed-rate.estimates-match-exact": Fault(
        "the exact window starts one generation late", "bprelab.relations._gap_sums", late_gap_sums,
        "gw_binary.cfg", {"suites": ["annealed-rate"], "replicas": 20_000}),
    "exact.p2-partial-sums": Fault(
        "the increment second moment is one term late",
        "bprelab.exact_moments.P2ClosedForms.increment_second_moment", late_increment_second_moment,
        "gw_binary.cfg", {"suites": ["exact"]}),
    "quenched-rate.estimates-match-exact": Fault(
        "the exact window starts one generation late", "bprelab.relations._gap_sums", late_gap_sums,
        "two_state.cfg", {"suites": ["quenched-rate"], "replicas": 20_000}),
    "exact.quenched-p2-tail": Fault(
        "the path's increment second moments are one generation late",
        "bprelab.exact_moments.quenched_increment_second_moments", late_quenched_increments,
        "two_state.cfg", {"suites": ["exact"]}),
    "exact.martingale-mean": Fault(
        "P_n scaled by 1 + 1e-6", "bprelab.exact_moments.annealed_moment_table", scaled_growth_table,
        "gw_binary.cfg", {"suites": ["exact"]}),
    "exact.a-hat-partial-sums": Fault(
        "the A_hat tail starts one term late", "bprelab.exact_moments.P2ClosedForms.a_hat2_tail",
        late_a_hat2_tail, "gw_binary.cfg", {}, command="verify"),
}


def family(check_id: str) -> str:
    """check_id without its .p<x>, .rho<x> and .n<k> parts."""
    return re.sub(r"\.(?:p|rho)\d+(?:\.\d+)?(?=\.|$)|\.n\d+(?=\.|$)", "", check_id)


def family_checks(fault: Fault, name: str) -> list[dict]:
    command = {"run": run_experiment, "verify": verify_suite}[fault.command]
    report, _, _ = command(load_config(ROOT / "configs" / fault.config, fault.overrides))
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
