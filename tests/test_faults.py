"""Check families against the registry, and the committed faults that fail them.

A check family is a check id without its p, rho and n parts; `relations.FAMILIES`
registers each. The bundled `run` and `verify` reports reach every family but
those in NOT_BUNDLED, and the check ids that README names are registered.
FAULTS maps a family to one fault: a replacement for one attribute under src/,
a bundled config with top-level overrides, and the command, `run` or `verify`,
under which every check of the family passes as shipped and fails under the
fault. Every other family is in REPORTED, with the reason it has no fault.
"""

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from bprelab import estimators, exact_moments, harness, rates, relations
from bprelab.config import load_config
from bprelab.errors import ConfigError
from bprelab.harness import run_experiment, verify_suite

ROOT = Path(__file__).resolve().parent.parent


def rho_k_plus_one_weights(keys, top):
    """simulate._weights with rho^{k+1} in place of rho^k, so every A_hat_n is rho times too large."""
    rows = [[rho ** (k + 1) if k <= n else 0.0 for k in range(top + 1)] for rho, n in keys]
    return np.array(rows + [[0.0] * (top + 1)] * (len(rows) == 1))


class GrowthPowerPath:
    """A path's laws with power * log P_n as its log_means, so a series reads P_n^power where P_n is."""

    def __init__(self, path, power):
        self.laws = path.laws
        self.log_means = power * path.log_means

    def __len__(self):
        return len(self.laws)


def squared_growth_series(path, *args, real=rates.series_diagnostic, **kwargs):
    """rates.series_diagnostic on GrowthPowerPath(path, 2): the quadratic series weighs P_n^{-2}."""
    return real(GrowthPowerPath(path, 2), *args, **kwargs)


def inverse_growth_series(path, *args, real=rates.series_diagnostic, **kwargs):
    """rates.series_diagnostic on GrowthPowerPath(path, -1): each series weighs P_n where it weighs 1/P_n."""
    return real(GrowthPowerPath(path, -1), *args, **kwargs)


def arithmetic_mean_rates(env, p):
    """rates.annealed_rates with the power of the mean for the mean of the power: (E m_0)^(1-p)
    and (E m_0)^(-p/2), so by Jensen rhoc is sqrt(E m_0), above the quenched sqrt(m_geo)."""
    mean = env.expect(lambda law: law.mean)
    return mean ** ((p - 1.0) / p), math.sqrt(mean)


def swapped_annealed_rates(env, p, real=rates.annealed_rates):
    """rates.annealed_rates returning rhoc as rho0 and rho0 as rhoc."""
    return real(env, p)[::-1]


def sign_flipped_table(env, s, r_max, n_max, real=exact_moments.annealed_moment_table):
    """exact_moments.annealed_moment_table weighing m_0^{+s} where it weighs m_0^{-s}."""
    return replace(real(env, -s, r_max, n_max), s=float(s))


def late_quenched_table(path, r_max, n_max, real=exact_moments.quenched_moments):
    """exact_moments.quenched_moments one generation late: row n holds generation n - 1's moments."""
    table = real(path, r_max, n_max)
    return replace(table, values=np.vstack([table.values[:1], table.values[:-1]]))


def swapped_burkholder_constants(p, real=estimators.burkholder_constants):
    """estimators.burkholder_constants returning b_p as a_p and a_p as b_p."""
    return real(p)[::-1]


def unnormalized_fit(estimates, real=estimators.fit_decay):
    """estimators.fit_decay fitting log(value) instead of log(value) / p: each estimate read at p = 1."""
    return real([replace(e, p=1.0) for e in estimates])


def bias_at_start(real):
    """`real`, a relations oracle builder, with every bias read at generation 0 whatever the proxy's generation."""

    def oracles(*args):
        return {p: oracle if oracle.bias is None else oracle._replace(bias=lambda upto, bias=oracle.bias: bias(0))
                for p, oracle in real(*args).items()}

    return oracles


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
    "rates.annealed-le-quenched": Fault(
        "the annealed rates take the power of the mean", "bprelab.rates.annealed_rates", arithmetic_mean_rates,
        "two_means.cfg", {"suites": ["rates"]}),
    "rates.rho0-le-rhoc": Fault(
        "the annealed rates are returned swapped", "bprelab.rates.annealed_rates", swapped_annealed_rates,
        "two_state.cfg", {"suites": ["rates"]}),
    "exact.growth-envelope": Fault(
        "the annealed table weighs m_0^{+s}", "bprelab.exact_moments.annealed_moment_table", sign_flipped_table,
        "gw_binary.cfg", {"suites": ["exact"]}),
    "exact.recursion-slack": Fault(
        "the annealed table weighs m_0^{+s}", "bprelab.exact_moments.annealed_moment_table", sign_flipped_table,
        "two_state.cfg", {"suites": ["exact"]}),
    "exact.quenched-mean": Fault(
        "the path table is one generation late", "bprelab.exact_moments.quenched_moments", late_quenched_table,
        "two_state.cfg", {"suites": ["exact"]}),
    "exact.single-state-consistency": Fault(
        "the path table is one generation late", "bprelab.exact_moments.quenched_moments", late_quenched_table,
        "gw_binary.cfg", {"suites": ["exact"]}),
    "quenched-rate.fit-available": Fault(
        "each bias is read at generation 0", "bprelab.relations.quenched_oracles",
        bias_at_start(relations.quenched_oracles), "two_state.cfg", {"suites": ["quenched-rate"], "p": [2.0]}),
    "annealed-rate.fit-available": Fault(
        "each bias is read at generation 0", "bprelab.relations.annealed_oracles",
        bias_at_start(relations.annealed_oracles), "gw_binary.cfg", {"suites": ["annealed-rate"], "replicas": 2_000}),
    "quenched-rate.fit-matches-exact": Fault(
        "the fit omits the 1/p", "bprelab.estimators.fit_decay", unnormalized_fit,
        "two_state.cfg", {"suites": ["quenched-rate"], "replicas": 20_000}),
    "annealed-rate.fit-matches-exact": Fault(
        "the fit omits the 1/p", "bprelab.estimators.fit_decay", unnormalized_fit,
        "gw_binary.cfg", {"suites": ["annealed-rate"], "replicas": 20_000}),
    "burkholder": Fault(
        "the bracket's constants are swapped", "bprelab.estimators.burkholder_constants",
        swapped_burkholder_constants, "gw_binary.cfg", {"suites": ["burkholder"], "replicas": 2_000}),
    "criteria.series.sub-rho": Fault(
        "each series weighs P_n for 1/P_n", "bprelab.rates.series_diagnostic", inverse_growth_series,
        "gw_binary.cfg", {"suites": ["criteria"]}),
    "criteria.series.increment-sub-rho": Fault(
        "each series weighs P_n for 1/P_n", "bprelab.rates.series_diagnostic", inverse_growth_series,
        "two_means.cfg", {"suites": ["criteria"]}),
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


def test_a_faulted_growth_envelope_observes_how_far_it_escaped(monkeypatch):
    # the check observes each order's largest excess over its envelope, not only the orders
    fault = FAULTS["exact.growth-envelope"]
    [shipped] = family_checks(fault, "exact.growth-envelope")
    assert shipped["observed"] == {"orders": [2, 3, 4], "max_excess": [0.0, 0.0, 0.0]}
    monkeypatch.setattr(fault.target, fault.replacement)
    [faulted] = family_checks(fault, "exact.growth-envelope")
    assert faulted["observed"]["orders"] == [2, 3, 4]
    assert max(faulted["observed"]["max_excess"]) > 0.0, faulted["observed"]


# the families that no bundled config reaches, each reached by a test elsewhere
NOT_BUNDLED = ()

# the families without a fault, each with the reason
REPORTED = {
    "rates.sufficient-le-critical": "min(m^(1-1/p), m^(1/2)) never exceeds m^(1/2): it cannot fail",
    "rates.rates-collapse": "at p >= 2 annealed_rates returns one value as both rates: it cannot fail",
    "criteria.lp-criterion": "a marker that passes whenever the criterion evaluates",
    "criteria.critical-conditions": "a marker that passes whenever the hypotheses evaluate",
}


@pytest.fixture(scope="module")
def bundled_ids() -> list[str]:
    """The check ids of `run` and `verify` on each bundled config at 2,000 replicas."""
    ids = []
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        cfg = load_config(path, {"replicas": 2_000})
        for command in (run_experiment, verify_suite):
            try:
                ids += [check["id"] for check in command(cfg)[0]["checks"]]
            except ConfigError:  # run refuses subcritical.cfg, by design
                assert (path.name, command) == ("subcritical.cfg", run_experiment)
    return ids


def test_the_bundled_reports_reach_every_registered_family(bundled_ids):
    assert set(NOT_BUNDLED) <= set(relations.FAMILIES)
    assert {family(check_id) for check_id in bundled_ids} == set(relations.FAMILIES) - set(NOT_BUNDLED)


def test_every_family_is_faulted_or_reported():
    assert set(FAULTS) <= set(relations.FAMILIES)
    assert set(REPORTED) <= set(relations.FAMILIES)
    assert not set(FAULTS) & set(REPORTED)
    assert set(FAULTS) | set(REPORTED) == set(relations.FAMILIES)


def test_every_check_id_readme_names_is_registered():
    # a backticked `<suite>.<rest>` or `*.<rest>`, where * stands for any suite
    suites = "|".join(map(re.escape, harness._SUITES))
    named = re.findall(rf"`((?:\*|{suites})\.[a-z0-9.-]+)`", (ROOT / "README.md").read_text())
    assert "exact.a-hat-partial-sums" in named and "*.fit-available" in named
    for check_id in named:
        suite, _, rest = check_id.partition(".")
        ids = [f"{name}.{rest}" for name in harness._SUITES] if suite == "*" else [check_id]
        assert any(family(i) in relations.FAMILIES for i in ids), check_id
