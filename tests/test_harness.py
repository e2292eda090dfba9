"""Suite orchestration: reports, exit codes, determinism, fault injection."""

import ast
import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bprelab.estimators
import bprelab.exact_moments
import bprelab.rates
import bprelab.simulate
from bprelab import (
    BpreLabError,
    ConfigError,
    EstimateUnavailableError,
    IIDMixture,
    OffspringLaw,
    SimConfig,
    config,
    harness,
    relations,
)
from bprelab.config import load_config, parse_config
from bprelab.harness import run_experiment, verify_suite, write_outputs
from bprelab.simulate import MODE_QUENCHED


def strip_timings(report):
    out = copy.deepcopy(report)
    out.pop("timings")
    return out


def verify_check(report, name):
    return {c["id"]: c for c in report["checks"]}[f"verify.{name}"]


def small_gw(**overrides):
    return parse_config(small_gw_data(**overrides))


def small_gw_data(**overrides):
    return {
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
        # a suite that simulates nothing still runs on the path it has
        assert run_experiment(small_gw(environment=env, suites=["exact"]))[2] == 0

    def test_report_deterministic_modulo_timings(self):
        first = strip_timings(run_experiment(small_gw())[0])
        second = strip_timings(run_experiment(small_gw())[0])
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_one_pass_per_relation_call(self, monkeypatch):
        # every p, rho and n of a relation call reads the one pass that the relation runs
        passes = []

        def spy(name):
            real = getattr(bprelab.simulate, name)

            def pass_(batch, keys):
                keys = list(keys)
                passes.append((name, len(keys)))
                return real(batch, keys)

            monkeypatch.setattr(bprelab.simulate, name, pass_)

        spy("increment_sums")
        spy("identity_residuals")
        report, _, code = run_experiment(small_gw(suites=["burkholder", "identity"], p=[1.5, 2.0]))
        assert code == 0
        assert len(report["suites"]["burkholder"]["results"]) == 18
        assert len(report["suites"]["identity"]["results"]) == 9
        assert passes == [("increment_sums", 9), ("identity_residuals", 9)]

    @pytest.mark.parametrize("name", ["two_state", "deterministic"])
    def test_a_mixture_simulates_the_path_seed_path_and_the_annealed_batch_only(self, monkeypatch, name):
        # every suite runs; quenched-rate simulates only the path drawn from path_seed
        sims, real = [], harness.run

        def spy(sim, **kwargs):
            sims.append(sim)
            return real(sim, **kwargs)

        monkeypatch.setattr(harness, "run", spy)
        cfg = load_config(f"configs/{name}.cfg", {"replicas": 2000, "n_max": 12, "gap": 6})
        run_experiment(cfg)  # the exit code is not the point: small sizes may miss a Monte Carlo check
        assert sorted((s.mode, s.path_seed, s.replicas) for s in sims) == [
            ("annealed", cfg.path_seed, 2000),
            ("quenched", cfg.path_seed, 2000),
        ]

    def test_keys_outside_a_relation_are_skipped_not_raised_by_the_pass(self):
        # with n_max 2 the identity suite asks for n = 0 and n = 1, and only n = 0 is in its domain
        report, _, code = run_experiment(small_gw(suites=["identity"], n_max=2, gap=1))
        assert code == 0
        assert [c["id"].rsplit(".", 1)[-1] for c in report["checks"]] == ["n0"] * 3
        batch = bprelab.simulate.run(SimConfig(env=IIDMixture([OffspringLaw({0: 0.25, 2: 0.75})], [1.0]),
                                               mode="annealed", n_max=2, replicas=200, master_seed=3))
        items = relations.identity(batch, (0.5, 1.0, 1.2, math.nan), (-1, 0, 1, 5))
        assert [item.suffix for item in items] == ["rho1.2.n0"]
        assert all(item.passed for item in items)

    def test_report_is_the_same_at_any_blas_thread_count(self):
        # the pass's matrix products give the same bytes on one BLAS thread as on the default
        script = (
            "import ast, json, sys\n"
            "from bprelab.config import parse_config\n"
            "from bprelab.harness import run_experiment\n"
            "report = run_experiment(parse_config(ast.literal_eval(sys.argv[1])))[0]\n"
            "report.pop('timings')\n"
            "print(json.dumps(report, sort_keys=True))\n"
        )
        data = small_gw_data(suites=["burkholder", "identity"], p=[1.5, 2.0])
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        env = {key: value for key, value in os.environ.items() if key not in threads}
        src = str(Path(bprelab.simulate.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        reports = [
            subprocess.run([sys.executable, "-c", script, repr(data)], env=env | extra,
                           capture_output=True, text=True, check=True).stdout
            for extra in (dict.fromkeys(threads, "1"), {})
        ]
        assert '"burkholder"' in reports[0]
        assert reports[0] == reports[1]

    def test_colliding_check_ids_are_refused(self, monkeypatch):
        # a relation that yields one suffix twice gives its suite one check id twice
        item = relations.Item("twice", "holds", True, {})
        monkeypatch.setattr(relations, "rate_orderings", lambda reports: [item, item])
        with pytest.raises(BpreLabError, match=r"^check id 'rates\.twice' is repeated"):
            run_experiment(small_gw(suites=["rates"]))

        # the repeat is refused when it is recorded, before a later suite simulates
        def ran(*args, **kwargs):
            pytest.fail("a simulation ran")

        monkeypatch.setattr(harness, "run", ran)
        with pytest.raises(BpreLabError, match=r"^check id 'rates\.twice' is repeated"):
            run_experiment(small_gw(suites=["rates", "annealed-rate"]))

    @pytest.mark.parametrize("entry", [run_experiment, verify_suite])
    def test_p_values_with_one_tag_are_refused_before_anything_runs(self, monkeypatch, entry):
        # distinct exponents that print alike would give the same check ids
        def ran(*args, **kwargs):
            pytest.fail("a suite, relation or simulation ran")

        monkeypatch.setattr(harness, "run", ran)
        monkeypatch.setattr(harness, "_SUITES", dict.fromkeys(harness._SUITES, ran))
        verify = {name: (statement, relation, ran) for name, (statement, relation, _) in harness._VERIFY.items()}
        monkeypatch.setattr(harness, "_VERIFY", verify)
        with pytest.raises(ConfigError) as exc:
            entry(small_gw(p=[2.0, 2.0000001]))
        assert str(exc.value) == "<memory>: p: 2.0 and 2.0000001 give check ids the same tag 'p2'"

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
        # every config runs every check, in the order of the table
        report, tables, code = verify_suite(small_gw())
        assert code == 0
        ids = [c["id"] for c in report["checks"]]
        assert ids == [f"verify.{name}" for name in harness._VERIFY]
        assert all(c["passed"] for c in report["checks"])
        assert report["suites"]["verify"]["checks_run"] == list(harness._VERIFY)

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
        assert [c["passed"] for c in report["checks"]] == [True] * len(harness._VERIFY)

    @pytest.mark.parametrize("states", [1, 2])
    def test_one_and_two_state_paths_pass_every_check(self, states):
        # the identity needs n < n_max - 1, so a 1-state path leaves it no n
        # and a 2-state path only n = 0
        env = {"kind": "fixed_path", "path": [{0: 0.25, 2: 0.75}, {3: 1.0}][:states]}
        report, _, code = verify_suite(small_gw(environment=env))
        assert code == 0
        assert [c["passed"] for c in report["checks"]] == [True] * len(harness._VERIFY)
        identity = verify_check(report, "increment-identity")["observed"]
        assert ("skipped" in identity) == (states == 1)

    def test_items_fold_into_one_check_per_name(self):
        report, _, code = verify_suite(small_gw(environment=TWO_STATE))
        assert code == 0
        orderings, identity = (verify_check(report, name)["observed"]
                               for name in ("rate-orderings", "increment-identity"))
        assert list(orderings) == [
            "p2.sufficient-le-critical", "p2.annealed-le-quenched", "p2.rates-collapse"
        ]
        assert orderings["p2.rates-collapse"]["passed"] is True
        assert set(orderings["p2.rates-collapse"]) == {"passed", "rho0", "rhoc"}
        # rho 1.1 and 1.3 at n = 1 and n_max - 2 of a 12-generation batch
        assert list(identity) == ["rho1.1.n1", "rho1.1.n10", "rho1.3.n1", "rho1.3.n10"]
        assert all(item["residual"] <= item["tolerance"] for item in identity.values())

    def test_a_relation_without_items_is_skipped_with_its_domain(self):
        report, _, code = verify_suite(small_gw(environment=FIXED3))
        assert code == 0
        assert [verify_check(report, name)["observed"] for name in ("rate-orderings", "growth-envelope")] == [
            {"skipped": "needs a supercritical stationary mixture"},
            {"skipped": "needs a stationary mixture"},
        ]

    def test_component_errors_become_failed_checks(self, monkeypatch):
        def boom(*args, **kwargs):
            raise EstimateUnavailableError("boom")

        monkeypatch.setattr(bprelab.estimators, "burkholder_sandwich", boom)
        report, _, code = verify_suite(small_gw())
        assert code == 2
        check = verify_check(report, "burkholder-sandwich")
        assert check["passed"] is False
        assert check["observed"]["error"] == "boom"

    def test_a_repeated_suffix_is_refused(self, monkeypatch):
        # the fold keys a check's observed values by suffix; a repeat would overwrite one
        item = relations.Item("twice", "holds", True, {})
        statement, _, _ = harness._VERIFY["rate-orderings"]
        repeating = (statement, lambda: [item, item], lambda ctx, n: {})
        monkeypatch.setitem(harness._VERIFY, "rate-orderings", repeating)
        with pytest.raises(BpreLabError, match=r"^verify\.rate-orderings: suffix 'twice' is repeated$"):
            verify_suite(small_gw())

    @pytest.mark.parametrize("name", ["gw_binary", "two_state", "gw_binary-0.45", "gw_binary-0.47"])
    def test_a_partial_sum_of_one_term_too_many_fails(self, monkeypatch, tmp_path, name):
        # the gap to the sup must equal the closed-form tail, not merely stay under it; the
        # "-<p0>" names are one-state mixtures {0: p0, 2: 1 - p0} with q1 = 1/m in (0.82, 1),
        # where the item's rho sits below the critical rate rather than on it
        name, _, p0 = name.partition("-")
        path = Path(f"configs/{name}.cfg")
        if p0:
            law = f"{{0: {p0}, 2: {1 - float(p0):.2f}}}"
            path = tmp_path / "near-critical.cfg"
            path.write_text(Path("configs/gw_binary.cfg").read_text().replace("{0: 0.25, 2: 0.75}", law))
        report, _, _ = verify_suite(load_config(path))
        assert verify_check(report, "p2-closed-forms")["observed"]["a-hat-partial-sums"]["passed"] is True

        real = bprelab.exact_moments.a_hat_second_moment_partial
        monkeypatch.setattr(
            bprelab.exact_moments, "a_hat_second_moment_partial",
            lambda env, rho, n_terms: real(env, rho, n_terms + 1),
        )
        report, _, code = verify_suite(load_config(path))
        assert code == 2
        check = verify_check(report, "p2-closed-forms")
        assert check["passed"] is False
        assert check["observed"]["a-hat-partial-sums"]["passed"] is False

    @pytest.mark.parametrize("q1", [0.5, 0.9, 0.99, 1 - 2**-51, 1 - 2**-52])
    def test_the_a_hat_rate_stays_summable_up_to_the_boundary(self, monkeypatch, q1):
        # the relation keeps no domain branch of its own: its rho must give rho^2 q1 < 1
        forms = bprelab.exact_moments.P2ClosedForms(q1=q1, b2=1.0)
        rhos = []

        def partial(env, rho, n_terms):
            rhos.append(rho)
            return forms.sup_a_hat2(rho) - forms.a_hat2_tail(rho, n_terms)

        monkeypatch.setattr(bprelab.exact_moments, "p2_closed_forms", lambda env: forms)
        monkeypatch.setattr(bprelab.exact_moments, "a_hat_second_moment_partial", partial)
        env = IIDMixture([OffspringLaw({0: 0.25, 2: 0.75})], [1.0])
        items = {item.suffix: item for item in relations.p2_partial_sums(env, 4, a_hat_rho=1.05)}
        (rho,) = rhos
        assert 1.0 <= rho <= 1.05 and rho * rho * q1 < 1.0
        assert math.isfinite(items["a-hat-partial-sums"].observed["a_hat_remainder_bound"])


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

        report, _, code = verify_suite(small_gw())
        assert code == 2
        assert verify_check(report, "rate-orderings")["passed"] is False

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
        assert set(report["suites"]["quenched-rate"]) == {"path_means", "per_p"}

        # the exact tables along the path sum the same increments
        report, _, code = run_experiment(small_gw(suites=["exact"], path_seed=7))
        assert code == 2
        assert [c["id"] for c in report["checks"] if not c["passed"]] == ["exact.quenched-p2-tail"]

        report, _, code = verify_suite(small_gw())
        assert code == 2
        assert verify_check(report, "quenched-increments")["passed"] is False

    @staticmethod
    def assert_identity_fails_both():
        report, _, code = run_experiment(small_gw(suites=["identity"]))
        assert code == 2
        assert report["checks"] and not any(c["passed"] for c in report["checks"])

        report, _, code = verify_suite(small_gw())
        assert code == 2
        assert verify_check(report, "increment-identity")["passed"] is False

    def test_shifted_weights_fail_both(self, monkeypatch):
        # rho^{k+1} in the weight matrix of the pass that the sandwich also reads
        real = bprelab.simulate._weights
        monkeypatch.setattr(
            bprelab.simulate, "_weights",
            lambda keys, top: np.array([rho for rho, _ in keys])[:, None] * real(keys, top),
        )
        self.assert_identity_fails_both()

    def test_one_off_mask_fails_both(self, monkeypatch):
        # k < n in place of k <= n: every A_hat_n loses its last term
        def weights(keys, top):
            ks = np.arange(top + 1)
            return np.array([np.where(ks < n, rho**ks, 0.0) for rho, n in keys])

        monkeypatch.setattr(bprelab.simulate, "_weights", weights)
        self.assert_identity_fails_both()


TWO_STATE = {"kind": "mixture", "states": [{"law": {1: 0.5, 3: 0.5}}, {"law": {2: 1.0}}]}
SUBCRITICAL = {"kind": "mixture", "states": [{"law": {0: 0.5, 1: 0.5}}, {"law": {1: 0.5, 2: 0.5}}]}
FIXED3 = {"kind": "fixed_path", "path": [{0: 0.25, 2: 0.75}, {3: 1.0}, {0: 0.25, 2: 0.75}]}
FIXED4 = {"kind": "fixed_path", "path": [{0: 0.25, 2: 0.75}, {3: 1.0}] * 2}
FIXED12 = {"kind": "fixed_path", "path": [{0: 0.25, 2: 0.75}, {3: 1.0}] * 6}
SUBCRITICAL12 = {"kind": "fixed_path", "path": [{0: 0.5, 1: 0.5}] * 12}


class TestSuiteNeeds:
    """Each suite's needs are one table, checked before any suite simulates."""

    # (suite, config key, overrides that fail that need only, refusal after the key)
    CASES = [
        ("rates", "environment", {"environment": FIXED3},
         "rates needs a 'kind: mixture' environment; a fixed path has no stationary law"),
        ("annealed-rate", "environment", {"environment": FIXED3},
         "annealed-rate needs a 'kind: mixture' environment; a fixed path has no stationary law"),
        ("rates", "environment", {"environment": SUBCRITICAL},
         "rates needs a supercritical environment"),
        ("quenched-rate", "environment", {"environment": SUBCRITICAL, "path_seed": 3},
         "quenched-rate needs a supercritical environment"),
        ("annealed-rate", "environment", {"environment": SUBCRITICAL},
         "annealed-rate needs a supercritical environment"),
        ("quenched-rate", "path_seed", {"environment": TWO_STATE},
         "quenched-rate on a mixture needs a path_seed"),
        ("quenched-rate", "gap", {"gap": 14, "path_seed": 3},
         "quenched-rate needs n_max - gap >= 3 for a fit of 4 points; n_max is 16"),
        ("annealed-rate", "gap", {"gap": 14},
         "annealed-rate needs n_max - gap >= 3 for a fit of 4 points; n_max is 16"),
        ("identity", "n_max", {"n_max": 1}, "identity needs n_max >= 2 for an n < n_max - 1; n_max is 1"),
        ("quenched-rate", "n_max", {"environment": FIXED3}, "16 exceeds the fixed path's 3 states"),
        ("burkholder", "n_max", {"environment": FIXED3}, "16 exceeds the fixed path's 3 states"),
        ("identity", "n_max", {"environment": FIXED3}, "16 exceeds the fixed path's 3 states"),
        ("criteria", "environment", {"environment": FIXED4},
         "criteria on a fixed path needs at least 8 states and a supercritical path average "
         "for its series probes; the path has 4 states"),
        ("criteria", "environment", {"environment": SUBCRITICAL12},
         "criteria on a fixed path needs at least 8 states and a supercritical path average "
         "for its series probes; the path has 12 states"),
    ]

    def test_cases_cover_the_table(self):
        table = {(suite, key) for suites, key, _, _ in harness._NEEDS for suite in suites}
        assert {(suite, key) for suite, key, _, _ in self.CASES} == table
        # every need of every suite has a case whose config fails that need
        for needed_by, key, holds, _ in harness._NEEDS:
            for suite in needed_by:
                assert any(
                    (s, k) == (suite, key) and not holds(harness._Context(small_gw(**overrides)))
                    for s, k, overrides, _ in self.CASES
                ), (suite, key)

    @pytest.mark.parametrize("suite, key, overrides, refusal", CASES)
    def test_refusal_names_file_and_key_before_simulating(self, monkeypatch, suite, key, overrides, refusal):
        def ran(*args, **kwargs):
            pytest.fail("a suite ran or simulated")

        monkeypatch.setattr(harness, "run", ran)
        monkeypatch.setattr(harness, "_SUITES", dict.fromkeys(harness._SUITES, ran))
        # a later suite's need is refused before the first suite runs
        cfg = small_gw(suites=["exact", suite], **overrides)
        with pytest.raises(ConfigError) as exc:
            run_experiment(cfg)
        assert str(exc.value) == f"<memory>: {key}: {refusal}"

    def test_quenched_bias_bound_is_the_shared_tail_formula(self):
        cfg = load_config("configs/fixed_path.cfg", {"suites": ["quenched-rate"], "replicas": 2000})
        report, _, _ = run_experiment(cfg)
        path = cfg.env.sample_path(cfg.n_max)
        horizon = cfg.n_max - 1
        inc = bprelab.exact_moments.quenched_increment_second_moments(path, cfg.n_max)
        estimates = report["suites"]["quenched-rate"]["per_p"][0]["estimates"]
        assert [e["n"] for e in estimates] == list(range(cfg.n_max - cfg.gap + 1))
        for est in estimates:
            if est["n"] + cfg.gap < horizon:
                tail = bprelab.exact_moments.quenched_p2_tail(path, est["n"] + cfg.gap, horizon)
                assert est["bias_bound"] == tail.upper
        # also beyond the tail's domain: the path's sum to the horizon plus the same remainder
        remainder = bprelab.exact_moments.quenched_p2_tail(path, 0, horizon).remainder
        for est in estimates:
            assert est["bias_bound"] == math.fsum(inc[est["n"] + cfg.gap :]) + remainder

    def test_identity_checks_every_rho_above_one(self):
        # the first, middle and last points of the grid derived from sqrt(m_geo), all above 1
        grid = bprelab.rates.default_rho_grid(math.sqrt(1.5))
        rhos = [grid[0], grid[len(grid) // 2], grid[-1]]
        assert min(rhos) > 1.0
        report, _, code = run_experiment(small_gw(suites=["identity"]))
        assert code == 0
        results = report["suites"]["identity"]["results"]
        assert len(report["checks"]) == len(results) == 3 * 3
        assert [r["rho"] for r in results[::3]] == rhos


class TestEverySuiteGivesAVerdict:
    """A suite that the needs admit records at least one check of its own."""

    # the suites that some n_max admits on each environment
    @pytest.mark.parametrize(
        "environment, admitted",
        [
            (TWO_STATE, set(config.KNOWN_SUITES)),
            (FIXED4, set(config.KNOWN_SUITES) - {"rates", "annealed-rate", "criteria"}),
            (FIXED12, set(config.KNOWN_SUITES) - {"rates", "annealed-rate"}),
        ],
        ids=["mixture", "path4", "path12"],
    )
    def test_admitted_suites_record_a_check(self, environment, admitted):
        ran = set()
        for suite in harness._SUITES:
            # 1 is the least n_max a config takes, 4 the least a rate suite's fit admits at gap 1
            for n_max in (1, 2, 3, 4):
                cfg = small_gw(environment=environment, suites=[suite], n_max=n_max, gap=1,
                               replicas=300, path_seed=3)
                try:
                    harness.check_suite_needs(cfg, cfg.suites)
                except ConfigError:
                    continue
                report, _, _ = run_experiment(cfg)
                assert any(c["suite"] == suite for c in report["checks"]), (suite, n_max)
                ran.add(suite)
        assert ran == admitted


class TestRateFitPaths:
    """Rate-fit paths that no bundled config reaches: ids, verdicts, observed keys and sections."""

    def per_p(self, report):
        return {s["p"]: s for s in report["suites"]["annealed-rate"]["per_p"]}

    def test_unbounded_second_moments_are_reported(self, monkeypatch):
        # equal weights on {0: .5, 1: .5} and {3: 1} give q1 = 2/2 + 1/6 = 7/6 >= 1
        env = {"kind": "mixture", "states": [{"law": {0: 0.5, 1: 0.5}}, {"law": {3: 1.0}}]}
        cfg = small_gw(environment=env, suites=["annealed-rate"], p=[1.5, 2.0], replicas=4000,
                       master_seed=1)
        fitted, real = [], bprelab.estimators.fit_decay

        def fit_decay(estimates):
            fitted.append(estimates[0].p)
            return real(estimates)

        monkeypatch.setattr(bprelab.estimators, "fit_decay", fit_decay)
        report, _, code = run_experiment(cfg)
        # at p = 2 the estimates are compared with the exact values, and no fit is tried
        assert fitted == [1.5]
        # the p = 2 comparison fails here (a calibration case for the Monte Carlo verdicts)
        assert code == 2
        by_id = {c["id"]: c for c in report["checks"]}
        assert list(by_id) == [
            "annealed-rate.p1.5.fit-available", "annealed-rate.p2.estimates-match-exact",
            "annealed-rate.p2.l2-unbounded-reported",
        ]
        reported = by_id["annealed-rate.p2.l2-unbounded-reported"]
        assert reported["passed"] is True
        assert reported["observed"] == {"q1": pytest.approx(7 / 6)}
        assert reported["statement"] == "an environment without bounded second moments is reported, not fitted"
        assert set(by_id["annealed-rate.p2.estimates-match-exact"]["observed"]) == {"worst_excess"}
        sections = self.per_p(report)
        assert sections[2.0]["fit"] is None
        assert sections[2.0]["fit_note"] == "second moments are unbounded here; no finite rate predicted"
        assert "predicted_rho" not in sections[2.0]
        assert sections[1.5]["bias_label"] == "oracle-unbounded bias"
        assert "bias_label" not in sections[2.0]

    def test_a_fit_without_an_admissible_window_is_a_failed_check(self):
        cfg = small_gw(suites=["annealed-rate"], n_max=13, gap=10, p=[1.5, 2.0], master_seed=1)
        report, _, code = run_experiment(cfg)
        assert code == 2
        by_id = {c["id"]: c for c in report["checks"]}
        assert list(by_id) == [
            "annealed-rate.p1.5.fit-available", "annealed-rate.p2.estimates-match-exact",
            "annealed-rate.p2.fit-available", "annealed-rate.p2.fit-matches-exact",
            "annealed-rate.p2.ci-contains-predicted",
        ]
        missing = by_id["annealed-rate.p1.5.fit-available"]
        assert missing["passed"] is False
        assert list(missing["observed"]) == ["error"]
        assert set(by_id["annealed-rate.p2.fit-available"]["observed"]) == {"fitted_rho"}
        assert set(by_id["annealed-rate.p2.fit-matches-exact"]["observed"]) == {
            "fitted_rho", "exact_rho", "slack_sigmas"}
        assert set(by_id["annealed-rate.p2.ci-contains-predicted"]["observed"]) == {"predicted", "ci"}
        sections = self.per_p(report)
        assert sections[1.5]["fit"] is None
        assert sections[1.5]["fit_note"] == missing["observed"]["error"]
        assert sections[1.5]["bias_label"] == "oracle-unbounded bias"
        assert set(sections[2.0]) == {"p", "estimates", "fit", "predicted_rho"}
        assert sections[2.0]["predicted_rho"] == pytest.approx(math.sqrt(1.5))


class TestOneOwner:
    """A decision that run and verify both depend on is made in one place."""

    def test_registries_match_the_config_schema(self):
        assert tuple(harness._SUITES) == config.KNOWN_SUITES

    def test_relations_import_no_orchestration(self):
        # relations are called without a config or a _Context, so they sit below both
        imported = set()
        for node in ast.walk(ast.parse(Path(relations.__file__).read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {alias.name for alias in node.names}
        assert {"estimators", "simulate"} <= imported
        for name in imported:
            assert not {"harness", "config", "cli"} & set(name.split(".")), name

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
