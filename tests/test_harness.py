"""Suite orchestration: reports, exit codes, determinism, fault injection."""

import copy
import dataclasses
import json
import math

import pytest

import bprelab.estimators
import bprelab.exact_moments
import bprelab.rates
from bprelab import BpreLabError, ConfigError, EstimateUnavailableError, config, harness
from bprelab.config import load_config, parse_config
from bprelab.harness import run_experiment, verify_suite, write_outputs
from bprelab.simulate import MODE_QUENCHED


def strip_timings(report):
    out = copy.deepcopy(report)
    out.pop("timings")
    return out


def small_gw(**overrides):
    data = {
        "schema": 1,
        "name": "small-gw",
        "environment": {
            "kind": "mixture",
            "states": [{"law": {0: 0.25, 2: 0.75}, "weight": 1.0}],
        },
        "suites": ["rates", "exact", "annealed-rate", "criteria", "burkholder", "identity"],
        "p": [2.0],
        "n_max": 16,
        "gap": 10,
        "replicas": 8000,
        "master_seed": 21,
    } | overrides
    return parse_config(data)


class TestRunExperiment:
    def test_deterministic_config_passes_every_suite(self):
        cfg = load_config("configs/deterministic.cfg")
        report, tables, code = run_experiment(cfg)
        assert code == 0
        assert report["summary"]["ok"] is True
        assert report["summary"]["failed"] == 0
        assert report["summary"]["checks"] == report["summary"]["passed"] == len(report["checks"])
        assert list(report["suites"]) == list(cfg.suites)
        json.loads(json.dumps(report))

    def test_gw_fit_lands_near_true_rate(self):
        report, tables, code = run_experiment(small_gw())
        assert code == 0
        fit = report["suites"]["annealed-rate"]["per_p"][0]["fit"]
        assert abs(fit["fitted_rho"] - math.sqrt(1.5)) < 0.15
        assert any(name.endswith(".csv") for name in tables)

    def test_subcritical_environment_is_refused(self):
        cfg = load_config("configs/subcritical.cfg")
        with pytest.raises(BpreLabError, match="supercritical"):
            run_experiment(cfg)

    def test_n_max_beyond_a_fixed_path_is_named(self):
        env = {"kind": "fixed_path", "path": [{0: 0.25, 2: 0.75}, {3: 1.0}, {0: 0.25, 2: 0.75}]}
        cfg = small_gw(environment=env, suites=["quenched-rate"])
        with pytest.raises(ConfigError, match=r"^<memory>: n_max: 16 exceeds the fixed path's 3 states$"):
            run_experiment(cfg)
        # suites that simulate nothing still run on the path they have
        assert run_experiment(small_gw(environment=env, suites=["exact", "criteria"]))[2] == 0

    def test_report_deterministic_modulo_timings(self):
        first = strip_timings(run_experiment(small_gw())[0])
        second = strip_timings(run_experiment(small_gw())[0])
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_colliding_check_ids_are_refused(self):
        # distinct exponents that print alike give the same check ids
        cfg = small_gw(suites=["rates"], p=[2.0, 2.0000001])
        with pytest.raises(BpreLabError, match=r"'rates\.p2\.sufficient-le-critical' is repeated"):
            run_experiment(cfg)

    def test_duplicate_suites_run_once(self):
        # a repeated suite is refused when the config is parsed, so no
        # config that reaches run_experiment can run a suite twice
        with pytest.raises(ConfigError, match=r"suites\[1\]: duplicate entry 'exact'"):
            small_gw(suites=["exact", "exact"])
        report, _, code = run_experiment(small_gw(suites=["exact"]))
        assert code == 0
        assert list(report["suites"]) == ["exact"]

    def test_write_outputs(self, tmp_path):
        cfg = load_config("configs/deterministic.cfg")
        report, tables, _ = run_experiment(cfg)
        report_path = write_outputs(report, tables, tmp_path / "out")
        on_disk = json.loads(report_path.read_text())
        assert on_disk["summary"] == report["summary"]
        assert on_disk["tool"]["name"] == "bprelab"
        for name, lines in tables.items():
            text = (tmp_path / "out" / name).read_text()
            assert text.splitlines()[0] == lines[0]
            assert "," in lines[0]


class TestVerifySuite:
    def test_all_checks_pass_in_config_order(self):
        cfg = small_gw()
        report, tables, code = verify_suite(cfg)
        assert code == 0
        ids = [c["id"] for c in report["checks"]]
        assert ids == [f"verify.{name}" for name in cfg.verify]
        assert all(c["passed"] for c in report["checks"])
        assert report["suites"]["verify"]["checks_run"] == list(cfg.verify)

    def test_check_subset_and_order_respected(self):
        cfg = small_gw(verify=["rate-orderings", "p2-closed-forms"])
        report, _, code = verify_suite(cfg)
        assert code == 0
        ids = [c["id"] for c in report["checks"]]
        assert ids == ["verify.rate-orderings", "verify.p2-closed-forms"]

    def test_corrupted_constant_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            bprelab.estimators, "burkholder_constants", lambda p: (10.0, 0.01)
        )
        report, _, code = verify_suite(small_gw())
        assert code == 2
        by_id = {c["id"]: c for c in report["checks"]}
        assert by_id["verify.burkholder-sandwich"]["passed"] is False
        others = [c for c in report["checks"] if c["id"] != "verify.burkholder-sandwich"]
        assert all(c["passed"] for c in others)

    def test_short_fixed_path_is_verified_at_its_length(self):
        # the batch checks ask for four generations; a 3-state path gives them three
        env = {"kind": "fixed_path", "path": [{0: 0.25, 2: 0.75}, {3: 1.0}, {0: 0.25, 2: 0.75}]}
        report, _, code = verify_suite(small_gw(environment=env))
        assert code == 0
        assert [c["passed"] for c in report["checks"]] == [True] * len(config.VERIFY_CHECKS)

    def test_component_errors_become_failed_checks(self, monkeypatch):
        def boom(*args, **kwargs):
            raise EstimateUnavailableError("boom")

        monkeypatch.setattr(bprelab.estimators, "burkholder_sandwich", boom)
        report, _, code = verify_suite(small_gw(verify=["burkholder-sandwich"]))
        assert code == 2
        check = report["checks"][0]
        assert check["passed"] is False
        assert check["observed"]["error"] == "boom"


class TestSharedChecks:
    """`run` and `verify` derive a relation from one function, so they fail together."""

    @pytest.mark.parametrize(
        "field, broken, name",
        [
            ("quenched_sufficient_bound", lambda r: 2.0 * r.quenched_critical, "sufficient-le-critical"),
            ("annealed_rhoc", lambda r: 2.0 * r.quenched_critical, "annealed-le-quenched"),
            ("annealed_rho0", lambda r: 1.01 * r.annealed_rhoc, "rates-collapse"),
        ],
    )
    def test_broken_rate_ordering_fails_both(self, monkeypatch, field, broken, name):
        real = bprelab.rates.rate_report

        def rate_report(env, p):
            rep = real(env, p)
            return dataclasses.replace(rep, **{field: broken(rep)})

        monkeypatch.setattr(bprelab.rates, "rate_report", rate_report)
        report, _, code = run_experiment(small_gw(suites=["rates"]))
        assert code == 2
        by_id = {c["id"]: c["passed"] for c in report["checks"]}
        assert by_id[f"rates.p2.{name}"] is False

        report, _, code = verify_suite(small_gw(verify=["rate-orderings"]))
        assert code == 2
        assert report["checks"][0]["passed"] is False

    def test_wrong_exact_increments_fail_both(self, monkeypatch):
        # one slack comparison judges the simulated distances in run and verify
        real = bprelab.exact_moments.quenched_increment_second_moments
        monkeypatch.setattr(
            bprelab.exact_moments,
            "quenched_increment_second_moments",
            lambda path, n_max: 2.0 * real(path, n_max),
        )
        report, _, code = run_experiment(small_gw(suites=["quenched-rate"], path_seed=7))
        assert code == 2
        by_id = {c["id"]: c["passed"] for c in report["checks"]}
        assert by_id["quenched-rate.p2.estimates-match-exact"] is False

        report, _, code = verify_suite(small_gw(verify=["quenched-increments"]))
        assert code == 2
        assert report["checks"][0]["passed"] is False


TWO_STATE = {"kind": "mixture", "states": [{"law": {1: 0.5, 3: 0.5}}, {"law": {2: 1.0}}]}


class TestOneOwner:
    """A decision that run and verify both depend on is made in one place."""

    def test_registries_match_the_config_schema(self):
        assert tuple(harness._SUITES) == config.KNOWN_SUITES
        assert tuple(harness._VERIFY) == config.VERIFY_CHECKS

    @pytest.mark.parametrize("path_seed", [None, 7])
    def test_series_path_is_the_quenched_batch_path(self, path_seed):
        ctx = harness._Context(small_gw(environment=TWO_STATE, path_seed=path_seed))
        assert ctx.series_seed == (21 if path_seed is None else path_seed)
        batch = ctx.batch(MODE_QUENCHED, n_max=12, replicas=200, path_seed=ctx.series_seed)
        assert batch.path.laws == ctx.series_path(12).laws
        # the seed decides the path: another seed draws another one
        other = harness._Context(small_gw(environment=TWO_STATE, path_seed=ctx.series_seed + 1))
        assert other.series_path(12).laws != batch.path.laws

    def test_short_fixed_path_is_clamped(self):
        pmfs = [{2: 1.0}, {0: 0.25, 2: 0.75}, {3: 1.0}, {1: 0.5, 3: 0.5}, {2: 1.0}]
        env = {"kind": "fixed_path", "path": pmfs}
        ctx = harness._Context(small_gw(environment=env))
        assert [law.as_mapping() for law in ctx.series_path(12).laws] == pmfs
        assert ctx.series_path(3).laws == ctx.env.laws[:3]
