"""Suite orchestration: reports, exit codes, determinism, fault injection."""

import ast
import copy
import dataclasses
import gc
import json
import math
import mmap
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bprelab.cli
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
    ParameterError,
    SimConfig,
    UnsupportedOperationError,
    config,
    harness,
    relations,
)
from bprelab.cli import main
from bprelab.config import load_config, parse_config
from bprelab.estimators import LpEstimate
from bprelab.harness import run_experiment, verify_suite, write_outputs
from bprelab.simulate import BRACKET, IDENTITY, MODE_QUENCHED
from stored import stored_batch


# the suites verify runs, in the order of the suite table
VERIFY_SUITES = [suite for suite, row in harness._SUITES.items() if row.verify]


def strip_timings(report):
    out = copy.deepcopy(report)
    out.pop("timings")
    return out


def check(report, check_id):
    return {c["id"]: c for c in report["checks"]}[check_id]


def failed_ids(report):
    return {c["id"] for c in report["checks"] if not c["passed"]}


def parse_cell(cell: str):
    """A CSV value back to the bool, int or float whose repr it is."""
    if cell in ("True", "False"):
        return cell == "True"
    return int(cell) if cell.lstrip("-").isdigit() else float(cell)


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

    def test_each_block_is_reduced_once_at_every_declared_key(self, monkeypatch):
        # one worker, so this process reduces every block of the one annealed batch
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls, real = [], bprelab.simulate._reduce_block

        def spy(w, block, status, out):
            calls.append((block, list(out)))
            return real(w, block, status, out)

        monkeypatch.setattr(bprelab.simulate, "_reduce_block", spy)
        cfg = small_gw(suites=["burkholder", "identity"], p=[1.5, 2.0])
        report, _, code = run_experiment(cfg)
        assert code == 0
        assert len(report["suites"]["burkholder"]["results"]) == 18
        assert len(report["suites"]["identity"]["results"]) == 9
        assert [block for block, _ in calls] == list(range(-(-cfg.replicas // bprelab.simulate.BLOCK_ROWS)))
        assert all(keys == calls[0][1] for _, keys in calls)
        assert [key[0] for key in calls[0][1]] == ["bracket"] * 18 + ["identity"] * 9

    def test_timings_charge_each_batch_to_itself(self):
        cfg = load_config("configs/two_state.cfg", {"replicas": 2000, "n_max": 12, "gap": 6})
        timings = run_experiment(cfg)[0]["timings"]
        assert set(timings) == {*cfg.suites, "batches", "total"}
        assert set(timings["batches"]) == {"quenched", "annealed"}
        covered = sum(timings[suite] for suite in cfg.suites) + sum(timings["batches"].values())
        # the entries tile the loop; only its exit is left out
        assert 0.99 * timings["total"] <= covered <= timings["total"]
        # a reader's timing leaves its batch out: the identity suite reads a held batch
        assert timings["identity"] < timings["batches"]["annealed"]

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
        # with n_max 2 only n = 0 is in the identity's domain, and the suite asks for it alone
        report, _, code = run_experiment(small_gw(suites=["identity"], n_max=2, gap=1))
        assert code == 0
        assert [c["id"].rsplit(".", 1)[-1] for c in report["checks"]] == ["n0"] * 3
        batch = stored_batch(SimConfig(env=IIDMixture([OffspringLaw({0: 0.25, 2: 0.75})], [1.0]),
                                       mode="annealed", n_max=2, replicas=200, master_seed=3))
        keys = [(IDENTITY, rho, n) for rho in (0.5, 1.0, 1.2, math.nan) for n in (-1, 0, 1, 5)]
        items = relations.identity(batch, keys)
        assert [item.suffix for item in items] == ["rho1.2.n0"]
        assert all(item.passed for item in items)
        # a repeated key is one check
        items = relations.identity(batch, [(IDENTITY, rho, n) for rho in (1.2, 1.5, 1.2) for n in (0, 0)])
        assert [item.suffix for item in items] == ["rho1.2.n0", "rho1.5.n0"]

    @pytest.mark.parametrize("n_max", range(2, 7))
    def test_every_declared_bracket_and_identity_key_is_one_check(self, n_max):
        # a declared key outside the reducer's domain would be dropped without a check or a word
        cfg = small_gw(suites=["burkholder", "identity"], n_max=n_max, gap=1, p=[1.5, 2.0])
        ctx = harness._Context(cfg)
        declared = ([f"burkholder.p{p:g}.rho{rho:.4g}.n{n}" for _, p, rho, n in harness._bracket_keys(ctx)]
                    + [f"identity.rho{rho:.4g}.n{n}" for _, rho, n in harness._identity_keys(ctx)])
        assert len(set(declared)) == len(declared)
        report, _, _ = run_experiment(cfg)
        assert sorted(c["id"] for c in report["checks"]) == sorted(declared)

    @pytest.mark.parametrize("reduced", [False, True])
    def test_both_batch_relations_keep_exactly_the_admitted_keys(self, reduced):
        # at n_max 4 a bracket needs n < 4 and an identity n < 3: one key of each list is outside
        brackets = [(BRACKET, 2.0, 1.1, 0), (BRACKET, 2.0, 1.1, 4), (BRACKET, 1.5, 1.2, 3)]
        identities = [(IDENTITY, 1.3, 2), (IDENTITY, 1.3, 3), (IDENTITY, 1.1, 0)]
        sim = SimConfig(env=IIDMixture([OffspringLaw({0: 0.25, 2: 0.75})], [1.0]), mode="annealed",
                        n_max=4, replicas=1000, master_seed=5)
        batch = bprelab.simulate.run(sim, reductions=brackets + identities) if reduced else stored_batch(sim)
        sandwiches = relations.sandwiches(batch, brackets)
        assert [(item.p, item.rho, item.n) for item in sandwiches] == [(2.0, 1.1, 0), (1.5, 1.2, 3)]
        assert [(item.rho, item.n) for item in relations.identity(batch, identities)] == [(1.3, 2), (1.1, 0)]

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
        # a relation that yields one item twice gives its suite one check id twice
        item = relations.Item("rates-collapse", True, {}, p=2.0)
        monkeypatch.setattr(relations, "rate_orderings", lambda reports: [item, item])
        with pytest.raises(BpreLabError, match=r"^check id 'rates\.p2\.rates-collapse' is repeated"):
            run_experiment(small_gw(suites=["rates"]))

        # the repeat is refused when it is recorded, before a later suite simulates
        def ran(*args, **kwargs):
            pytest.fail("a simulation ran")

        monkeypatch.setattr(harness, "run", ran)
        with pytest.raises(BpreLabError, match=r"^check id 'rates\.p2\.rates-collapse' is repeated"):
            run_experiment(small_gw(suites=["rates", "annealed-rate"]))

    def test_an_unregistered_family_is_refused_before_any_check_is_written(self):
        assert relations.Item("name", True, {}, p=1.5, rho=1.23456, n=3).suffix == "p1.5.rho1.235.n3.name"
        ctx = harness._Context(small_gw())
        ctx.record("rates", [relations.Item("rates-collapse", True, {}, p=2.0)])
        before = list(ctx.checks)
        # a registered name under the wrong suite, after an item that alone would be recorded
        items = [relations.Item(name, True, {}, p=2.0) for name in ("annealed-le-quenched", "fit-available")]
        refusal = r"^check id 'rates\.p2\.fit-available': its family 'rates\.fit-available' is not in"
        with pytest.raises(BpreLabError, match=refusal):
            ctx.record("rates", items)
        assert ctx.checks == before

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

    def test_side_tables_parse_back_to_the_report(self):
        # each CSV row holds the field values of its record in the report, and each exact table
        # ends in its section's last_row
        report, tables, _ = run_experiment(load_config("configs/two_state.cfg", {"replicas": 3000}))
        suites = report["suites"]

        def cells(name):
            return [[parse_cell(cell) for cell in line.split(",")] for line in tables[name][1:]]

        records = {"rates.csv": suites["rates"]["reports"], "burkholder.csv": [
            sc | {"ok": sc["lower_ok"] and sc["upper_ok"]} for sc in suites["burkholder"]["results"]]}
        for suite in ("quenched-rate", "annealed-rate"):
            for section in suites[suite]["per_p"]:
                name = f"{suite.replace('-', '_')}_{relations.p_tag(section['p'])}.csv"
                records[name] = section["estimates"]
        for name, recs in records.items():
            fields = tables[name][0].split(",")
            # jsonable writes a non-finite float as its repr
            values = [[float(r[f]) if isinstance(r[f], str) else r[f] for f in fields] for r in recs]
            assert cells(name) == values
        for key, name in (("annealed_table", "exact_annealed.csv"), ("quenched_table", "exact_quenched.csv")):
            section = suites["exact"][key]
            assert tables[name][0] == "n,j,value"
            assert cells(name)[-section["orders"]:] == [
                [section["n_max"], j, value] for j, value in enumerate(section["last_row"], 1)]
        assert set(tables) == set(records) | {"exact_annealed.csv", "exact_quenched.csv"}


@pytest.mark.parametrize("wrap, unwrap", [(lambda x: x, lambda x: x), (lambda x: {"k": x}, lambda d: d["k"]),
                                          (lambda x: [x], lambda seq: seq[0])], ids=["top", "dict", "list"])
def test_jsonable_turns_numpy_scalars_into_json_values(wrap, unwrap):
    # a numpy scalar becomes its Python value, a non-finite float its repr
    cases = [(np.float64("nan"), "nan"), (np.float64("inf"), "inf"), (np.float64("-inf"), "-inf"),
             (np.float64(0.25), 0.25), (np.float32(0.5), 0.5), (np.bool_(True), True), (np.int64(7), 7)]
    for value, expected in cases:
        out = harness.jsonable(wrap(value))
        assert out == wrap(expected) and type(unwrap(out)) is type(expected), (value, out)
        assert json.loads(json.dumps(out)) == wrap(expected)


class TestVerifySuite:
    def test_all_checks_pass_in_config_order(self):
        # verify records the items of its suites as `<suite>.<suffix>`, in the suites' order
        report, tables, code = verify_suite(small_gw())
        assert code == 0
        assert all(c["passed"] for c in report["checks"])
        suites = [c["suite"] for c in report["checks"]]
        assert list(dict.fromkeys(suites)) == VERIFY_SUITES
        assert all(c["id"].startswith(c["suite"] + ".") for c in report["checks"])
        assert report["suites"]["verify"] == {
            "sizes": {"n_max": 12, "gap": 1, "replicas": 4000, "path_seed": 21},
            "not_applicable": {},
        }
        assert "quenched_rate_p2.csv" in tables
        # the A_hat partial sums are verify's; the fit is run's
        ids = {c["id"] for c in report["checks"]}
        assert "exact.a-hat-partial-sums" in ids
        assert not any(".fit-" in check_id or "ci-contains" in check_id for check_id in ids)

    def test_rate_items_and_identity_keys(self):
        report, tables, code = verify_suite(small_gw(environment=TWO_STATE))
        assert code == 0
        ids = [c["id"] for c in report["checks"]]
        assert [i for i in ids if i.startswith("rates.")] == [
            "rates.p2.sufficient-le-critical", "rates.p2.annealed-le-quenched", "rates.p2.rates-collapse"
        ]
        # the suite's rho grid at n = 1, n_max // 2 and n_max - 2 of a 12-generation batch
        identity = [c for c in report["checks"] if c["suite"] == "identity"]
        assert [c["id"].rsplit(".", 1)[1] for c in identity] == ["n1", "n6", "n10"] * 3
        assert all(c["observed"]["residual"] <= c["observed"]["tolerance"] for c in identity)
        # the gap-1 distances at every k < n_max, compared with the exact path values
        (slack,) = [c for c in report["checks"] if c["suite"] == "quenched-rate"]
        assert slack["id"] == "quenched-rate.p2.estimates-match-exact"
        assert [row.split(",")[1] for row in tables["quenched_rate_p2.csv"][1:]] == [str(k) for k in range(12)]
        assert len(report["suites"]["quenched-rate"]["path_means"]) == 12

    def test_corrupted_constant_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            bprelab.estimators, "burkholder_constants", lambda p: (10.0, 0.01)
        )
        report, _, code = verify_suite(small_gw())
        assert code == 2
        failed = {c["suite"] for c in report["checks"] if not c["passed"]}
        assert failed == {"burkholder"}

    def test_short_fixed_path_is_verified_at_its_length(self):
        # a 3-state path gives the small config 3 generations: no stationary law, no fit of 4 points;
        # each refused suite is named with its refusal
        report, _, code = verify_suite(small_gw(environment=FIXED3))
        assert code == 0
        not_applicable = report["suites"]["verify"]["not_applicable"]
        assert not_applicable == {
            "rates": "<memory>: environment: rates needs a 'kind: mixture' environment; "
                     "a fixed path has no stationary law",
            "quenched-rate": "<memory>: gap: quenched-rate needs n_max - gap >= 3 for a fit of 4 points; "
                             "n_max is 3",
        }
        assert report["suites"]["verify"]["sizes"]["n_max"] == 3
        suites = {c["suite"] for c in report["checks"]}
        assert suites == {"exact", "burkholder", "identity"}
        assert not suites & set(not_applicable)
        assert all(c["passed"] for c in report["checks"])

    def test_an_overflowing_pop_cap_leaves_the_simulating_suites_not_applicable(self, monkeypatch):
        monkeypatch.setattr(harness, "run", lambda *args, **kwargs: pytest.fail("a batch was simulated"))
        report, _, code = verify_suite(small_gw(pop_cap=3 * 10**18))
        assert code == 0
        refusal = ("<memory>: pop_cap: {} needs pop_cap times the largest offspring count below 2**62 "
                   "for exact int64 totals; pop_cap is 3000000000000000000")
        simulating = [suite for suite in VERIFY_SUITES if harness._SUITES[suite].reads]
        assert report["suites"]["verify"]["not_applicable"] == {suite: refusal.format(suite) for suite in simulating}
        assert {c["suite"] for c in report["checks"]} == {"rates", "exact"}

    @pytest.mark.parametrize("states", [1, 2])
    def test_one_and_two_state_paths_pass_every_check(self, states):
        # the identity needs n < n_max - 1, so a 1-state path leaves it no n
        # and a 2-state path only n = 0
        env = {"kind": "fixed_path", "path": [{0: 0.25, 2: 0.75}, {3: 1.0}][:states]}
        report, _, code = verify_suite(small_gw(environment=env))
        assert code == 0
        assert all(c["passed"] for c in report["checks"])
        not_applicable = report["suites"]["verify"]["not_applicable"]
        assert ("identity" in not_applicable) == (states == 1)
        assert set(not_applicable) - {"identity"} == {"rates", "quenched-rate"}
        if states == 1:
            assert not_applicable["identity"] == (
                "<memory>: n_max: identity needs n_max >= 2 for an n < n_max - 1; n_max is 1"
            )
        else:
            identity = [c["id"] for c in report["checks"] if c["suite"] == "identity"]
            assert identity and all(i.endswith(".n0") for i in identity)

    def test_a_suite_without_a_check_is_not_applicable(self):
        # at p = 1.5 alone the rate suite has no exact values to compare, and verify fits nothing
        report, tables, code = verify_suite(small_gw(environment=TWO_STATE, p=[1.5]))
        assert code == 0
        assert report["suites"]["verify"]["not_applicable"] == {
            "quenched-rate": "quenched-rate records no check at n_max 12, gap 1 and p [1.5]"
        }
        assert not any(c["suite"] == "quenched-rate" for c in report["checks"])
        assert report["summary"]["checks"] == len(report["checks"]) > 0

    def test_component_errors_propagate(self, monkeypatch, capsys):
        # an error inside a suite is the run's error, as in `run`: exit 1, not a failed check
        def boom(*args, **kwargs):
            raise EstimateUnavailableError("boom")

        monkeypatch.setattr(bprelab.estimators, "burkholder_sandwich", boom)
        with pytest.raises(EstimateUnavailableError, match=r"^boom$"):
            verify_suite(small_gw())
        assert main(["verify", "configs/gw_binary.cfg"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "bprelab: error: boom\n"

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
        assert check(report, "exact.a-hat-partial-sums")["passed"] is True

        real = bprelab.exact_moments.a_hat_second_moment_partial
        monkeypatch.setattr(
            bprelab.exact_moments, "a_hat_second_moment_partial",
            lambda env, rho, n_terms: real(env, rho, n_terms + 1),
        )
        report, _, code = verify_suite(load_config(path))
        assert code == 2
        assert failed_ids(report) == {"exact.a-hat-partial-sums"}
        # run's exact suite has no such item, and passes
        report, _, code = run_experiment(load_config(path, {"suites": ["exact"]}))
        assert code == 0
        assert "exact.a-hat-partial-sums" not in {c["id"] for c in report["checks"]}

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
        items = {item.suffix: item for item in relations.a_hat_partial_sums(env, 4, 1.05)}
        (rho,) = rhos
        assert 1.0 <= rho <= 1.05 and rho * rho * q1 < 1.0
        assert math.isfinite(items["a-hat-partial-sums"].observed["a_hat_remainder_bound"])


def assert_rate_sections(report, tables, ps):
    """Each rate suite's per_p holds, for each p in order, p and the estimates of its CSV table."""
    for suite in ("quenched-rate", "annealed-rate"):
        if suite not in report["suites"]:
            continue
        sections = report["suites"][suite]["per_p"]
        assert [section["p"] for section in sections] == list(ps)
        for section in sections:
            rows = tables[f"{suite.replace('-', '_')}_{relations.p_tag(section['p'])}.csv"][1:]
            assert section["estimates"]
            assert [(e["value"], e["stderr"]) for e in section["estimates"]] == [
                tuple(float(x) for x in row.split(",")[2:]) for row in rows
            ]


class TestVerifyBundledConfigs:
    """`verify` on each bundled config: every suite has checks or a reason, never both."""

    @pytest.mark.parametrize(
        "name, not_applicable",
        [
            ("deterministic", set()),
            ("fixed_path", {"rates"}),
            ("gw_binary", set()),
            ("subcritical", {"rates", "quenched-rate"}),
            ("two_state", set()),
        ],
    )
    def test_every_suite_has_checks_or_a_reason(self, name, not_applicable):
        cfg = load_config(f"configs/{name}.cfg")
        report, tables, code = verify_suite(cfg)
        assert code == 0
        ids = [c["id"] for c in report["checks"]]
        assert len(ids) == len(set(ids))
        reasons = report["suites"]["verify"]["not_applicable"]
        assert set(reasons) == not_applicable
        with_checks = {c["suite"] for c in report["checks"]}
        assert with_checks | set(reasons) == set(VERIFY_SUITES)
        assert not with_checks & set(reasons)
        # quenched-rate's section names each p and its estimates, though verify fits nothing
        assert ("quenched-rate" in report["suites"]) == ("quenched-rate" not in reasons)
        assert_rate_sections(report, tables, cfg.p)

    @pytest.mark.parametrize("name", ["deterministic", "fixed_path", "gw_binary", "two_state"])
    def test_run_rate_sections_hold_the_estimates(self, name):
        cfg = load_config(f"configs/{name}.cfg", {"replicas": 2000, "n_max": 12, "gap": 6})
        report, tables, _ = run_experiment(cfg)  # small sizes may miss a Monte Carlo check
        assert {"quenched-rate", "annealed-rate"} & set(report["suites"])
        assert_rate_sections(report, tables, cfg.p)


class TestSharedChecks:
    """`run` and `verify` run the same suites, so a fault fails the same check id in both."""

    @staticmethod
    def assert_fails_both(run_cfg, ids):
        report, _, code = run_experiment(run_cfg)
        assert code == 2
        assert ids <= failed_ids(report)
        report, _, code = verify_suite(small_gw())
        assert code == 2
        assert ids <= failed_ids(report)

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
        self.assert_fails_both(small_gw(suites=["rates"]), {f"rates.p2.{name}"})

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
        assert check(report, "quenched-rate.p2.estimates-match-exact")["passed"] is False
        assert set(report["suites"]["quenched-rate"]) == {"path_means", "per_p"}

        # the exact tables along the path sum the same increments
        report, _, code = run_experiment(small_gw(suites=["exact"], path_seed=7))
        assert code == 2
        assert failed_ids(report) == {"exact.quenched-p2-tail"}

        report, _, code = verify_suite(small_gw())
        assert code == 2
        assert failed_ids(report) == {"quenched-rate.p2.estimates-match-exact", "exact.quenched-p2-tail"}

    @classmethod
    def assert_identity_fails_both(cls):
        # at n_max 12 run's identity keys are verify's
        report, _, _ = run_experiment(small_gw(suites=["identity"], n_max=12))
        identity = {c["id"] for c in report["checks"]}
        assert len(identity) == 9
        cls.assert_fails_both(small_gw(suites=["identity"], n_max=12), identity)

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

    def test_corrupted_constant_fails_both(self, monkeypatch):
        monkeypatch.setattr(bprelab.estimators, "burkholder_constants", lambda p: (10.0, 0.01))
        # at n_max 12 run's sandwich keys are verify's
        report, _, _ = run_experiment(small_gw(suites=["burkholder"], n_max=12))
        self.assert_fails_both(small_gw(suites=["burkholder"], n_max=12),
                               {c["id"] for c in report["checks"]})


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
        ("quenched-rate", "replicas", {"replicas": 50, "path_seed": 3},
         "quenched-rate needs at least 100 replicas for its estimates; replicas is 50"),
        ("annealed-rate", "replicas", {"replicas": 50},
         "annealed-rate needs at least 100 replicas for its estimates; replicas is 50"),
        ("burkholder", "replicas", {"replicas": 99},
         "burkholder needs at least 100 replicas for its estimates; replicas is 99"),
    ] + [
        (suite, "pop_cap", {"pop_cap": 3 * 10**18, "path_seed": 3},
         f"{suite} needs pop_cap times the largest offspring count below 2**62 for exact int64 totals; "
         "pop_cap is 3000000000000000000")
        for suite in ("quenched-rate", "annealed-rate", "burkholder", "identity")
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
        bodies = {name: row._replace(body=ran) for name, row in harness._SUITES.items()}
        monkeypatch.setattr(harness, "_SUITES", bodies)
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
            (TWO_STATE, set(harness._SUITES)),
            (FIXED4, set(harness._SUITES) - {"rates", "annealed-rate", "criteria"}),
            (FIXED12, set(harness._SUITES) - {"rates", "annealed-rate"}),
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


@st.composite
def admission_laws(draw):
    """A point mass at 1 or 2, or a law on at most four of 0..3 with extra mass at 1, so its
    mean lies near 1 on either side."""
    if draw(st.booleans()):
        return {draw(st.sampled_from((1, 2))): 1.0}
    counts = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    counts[1] += draw(st.integers(1, 40))
    return {v: c / sum(counts) for v, c in enumerate(counts) if c}


@st.composite
def admission_environments(draw):
    """A mixture of one to three drawn laws, a weight possibly near 0, or a fixed path of 1 to 10."""
    if draw(st.booleans()):
        return {"kind": "fixed_path", "path": draw(st.lists(admission_laws(), min_size=1, max_size=10))}
    laws = draw(st.lists(admission_laws(), min_size=1, max_size=3))
    weights = draw(st.lists(st.sampled_from((1e-6, 0.01, 0.5, 1.0)), min_size=len(laws), max_size=len(laws)))
    return {"kind": "mixture",
            "states": [{"law": law, "weight": w / sum(weights)} for law, w in zip(laws, weights)]}


class TestAdmissionSweep:
    """Over drawn small environments, `_NEEDS` admits a suite exactly where it gives a verdict."""

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(environment=admission_environments(), n_max=st.integers(1, 4),
           p=st.sampled_from(([2.0], [1.5, 2.0])))
    def test_admitted_suites_record_a_check_and_refused_ones_raise_config_error(self, environment, n_max, p):
        def cfg(suites):
            return small_gw(environment=environment, suites=suites, n_max=n_max, gap=1, replicas=300,
                            path_seed=3, p=p)

        admitted = []
        for suite in harness._SUITES:
            try:
                harness.check_suite_needs(cfg([suite]), [suite])
            except ConfigError:
                with pytest.raises(ConfigError):
                    run_experiment(cfg([suite]))
            else:
                admitted.append(suite)
        if admitted:
            report, _, _ = run_experiment(cfg(admitted))
            recorded = {c["suite"] for c in report["checks"]}
            assert [suite for suite in admitted if suite not in recorded] == []


@st.composite
def supercritical_mixtures(draw):
    """A supercritical mixture of two or three admission_laws, at admission_environments' weights."""
    laws = draw(st.lists(admission_laws(), min_size=2, max_size=3))
    weights = draw(st.lists(st.sampled_from((1e-6, 0.01, 0.5, 1.0)), min_size=len(laws), max_size=len(laws)))
    environment = {"kind": "mixture",
                   "states": [{"law": law, "weight": w / sum(weights)} for law, w in zip(laws, weights)]}
    assume(small_gw(environment=environment).env.is_supercritical)
    return environment


class TestExactPropertiesOverDrawnMixtures:
    """The exact relations hold on drawn supercritical mixtures of 2-3 states with support <= 4."""

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(environment=supercritical_mixtures())
    def test_the_exact_relations_hold(self, environment):
        env, n = small_gw(environment=environment).env, harness.EXACT_TABLE_LEN
        (slack,), (sums,) = relations.recursion_slack(env, n), relations.annealed_p2_partial_sums(env, n)
        items = relations.rate_orderings([bprelab.rates.rate_report(env, p) for p in (1.5, 2.0, 3.0)])
        items += relations.growth_envelope(env, n, range(2, 5)) + [slack, sums]
        assert [item.suffix for item in items if not item.passed] == []
        assert slack.observed["min_slack"] >= -relations.ROUNDING
        assert sums.observed["max_rel_error"] <= relations.EXACT_REL

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(environment=supercritical_mixtures())
    def test_the_quenched_p2_bias_is_the_realized_tail(self, environment):
        env, n = small_gw(environment=environment).env, harness.EXACT_TABLE_LEN
        path = bprelab.simulate.quenched_path(env, n, 3)
        with pytest.MonkeyPatch.context() as patch:
            drawn = record_path_draws(patch)
            oracle = relations.quenched_oracles(env, path, n, [2.0])[2.0]
        longest = drawn[-1][0]
        assert oracle.bias_label is None
        if math.isfinite(oracle.bias(n)):
            # one fsum along a path twice as long as the oracle drew gives the same bits
            assert oracle.bias(n) == realized_tail(env, 3, n, 2 * longest)
        else:
            # a slowly growing mixture: the sum could still change at the last doubling under the cap
            assert 2 * longest > relations.TAIL_STATES

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(environment=supercritical_mixtures())
    def test_a_verify_repeats_no_check_id(self, environment):
        # record refuses a repeated id, so the verify must also return
        report, _, _ = verify_suite(small_gw(environment=environment, n_max=4, replicas=300, path_seed=3))
        ids = [c["id"] for c in report["checks"]]
        assert ids and len(set(ids)) == len(ids)


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
        # no bundled config reaches this family (test_faults.NOT_BUNDLED); this test does
        assert "annealed-rate.l2-unbounded-reported" in relations.FAMILIES
        assert set(by_id["annealed-rate.p2.estimates-match-exact"]["observed"]) == {"worst_excess"}
        sections = self.per_p(report)
        assert sections[2.0]["fit"] is None
        assert sections[2.0]["fit_note"] == "second moments are unbounded here; no finite rate predicted"
        assert "predicted_rho" not in sections[2.0]
        assert sections[1.5]["bias_label"] == "oracle-unbounded bias"
        assert "bias_label" not in sections[2.0]

    @pytest.mark.parametrize("degenerate", [True, False])
    def test_rate_fit_returns_the_section(self, degenerate):
        # geometric distances at rate 1.25 (zero when degenerate), with exact values equal to them
        estimates = [
            LpEstimate(p=2.0, n=n, value=0.0 if degenerate else 1.25 ** (-2 * n),
                       stderr=1e-8 * 1.25 ** (-2 * n), proxy_gap=20, capped_fraction=0.0,
                       replicas_used=1000, bias_bound=0.0)
            for n in range(10)
        ]
        oracle = relations.RateOracle(exact=lambda n, gap: estimates[n].value, predicted_rho=1.25)
        items, section = relations.rate_fit(estimates, oracle)
        assert all(item.detail is None for item in items)
        assert section["p"] == 2.0 and section["estimates"] == estimates
        if degenerate:
            assert [item.suffix for item in items] == ["p2.estimates-match-exact", "p2.degenerate-no-fit"]
            assert set(section) == {"p", "estimates", "fit", "fit_note"}
            assert section["fit"] is None
        else:
            assert [item.suffix for item in items] == [
                "p2.estimates-match-exact", "p2.fit-available", "p2.fit-matches-exact",
                "p2.ci-contains-predicted",
            ]
            assert all(item.passed for item in items)
            assert set(section) == {"p", "estimates", "fit", "predicted_rho"}
            assert set(section["fit"]) == set(relations.FIT_PAYLOAD)
            assert section["fit"]["fitted_rho"] == pytest.approx(1.25)
            assert section["predicted_rho"] == 1.25

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


    def test_a_p_without_an_oracle_is_fitted_as_a_diagnostic(self):
        # p = 3 has no exact values, bias bound, predicted rate or label in either mode
        cfg = small_gw(environment=TWO_STATE, suites=["quenched-rate", "annealed-rate"], p=[3.0],
                       n_max=13, gap=6, path_seed=7, master_seed=1)
        report, _, _ = run_experiment(cfg)
        assert [c["id"] for c in report["checks"]] == [
            "quenched-rate.p3.fit-available", "annealed-rate.p3.fit-available"]
        for suite in ("quenched-rate", "annealed-rate"):
            (section,) = report["suites"][suite]["per_p"]
            assert not {"bias_label", "predicted_rho"} & set(section)
            assert all(e["bias_bound"] is None for e in section["estimates"])

    def test_a_new_oracle_needs_no_harness_change(self, monkeypatch):
        # an oracle that gives p = 4 exact values is all it takes to check p = 4 against them
        real = relations.annealed_oracles

        def annealed_oracles(env, n_max, ps):
            oracles = real(env, n_max, ps)
            oracles[4.0] = relations.RateOracle(exact=lambda n, gap: 0.0)
            return oracles

        monkeypatch.setattr(relations, "annealed_oracles", annealed_oracles)
        report, _, _ = run_experiment(small_gw(suites=["annealed-rate"], p=[2.0, 4.0]))
        by_id = {c["id"]: c for c in report["checks"]}
        assert "annealed-rate.p4.estimates-match-exact" in by_id
        assert set(by_id["annealed-rate.p4.estimates-match-exact"]["observed"]) == {"worst_excess"}


def two_means(**overrides):
    """The bundled mixture of a subcritical law (mean 0.9) and {3: 1} at equal weights: q1 = 13/18."""
    return load_config("configs/two_means.cfg", overrides)


def record_path_draws(patch) -> list[tuple[int, int]]:
    """The (length, seed) of each `simulate.quenched_path` call made while `patch` is active."""
    drawn, real = [], bprelab.simulate.quenched_path

    def quenched_path(env, length, seed):
        drawn.append((length, seed))
        return real(env, length, seed)

    patch.setattr(bprelab.simulate, "quenched_path", quenched_path)
    return drawn


def realized_tail(env, seed, n_max, length=2**12):
    """sum_{n_max <= k < length} E_xi|W_{k+1} - W_k|^2 along the mixture's path at seed, in one
    fsum over one long path: what a mixture's quenched p = 2 oracle takes for its remainder."""
    path = bprelab.simulate.quenched_path(env, length, seed)
    return math.fsum(bprelab.exact_moments.quenched_increment_second_moments(path, length)[n_max:])


# the q1 = 7/6 mixture: its annealed second moments are unbounded, its quenched ones bounded
SEVEN_SIXTHS = {"kind": "mixture", "states": [{"law": {0: 0.5, 1: 0.5}}, {"law": {3: 1.0}}]}


class TestRateOracles:
    """What each (mode, p) oracle knows, read off the exact layer."""

    def test_annealed_exact_is_the_difference_of_closed_form_tails(self):
        env = two_means().env
        forms = bprelab.exact_moments.p2_closed_forms(env)
        exact = relations.annealed_oracles(env, 30, [2.0])[2.0].exact
        for n in range(10):
            assert exact(n, 20) == pytest.approx(forms.tail(n) - forms.tail(n + 20), rel=1e-12)

    def test_quenched_exact_is_the_difference_of_path_tails(self):
        env = two_means().env
        path = bprelab.simulate.quenched_path(env, 31, 7)
        exact = relations.quenched_oracles(env, path, 30, [2.0])[2.0].exact
        for n in range(10):
            lower = [bprelab.exact_moments.quenched_p2_tail(path, k, 30).lower for k in (n, n + 20)]
            assert exact(n, 20) == pytest.approx(lower[0] - lower[1], rel=1e-12)

    def test_fields_set_at_each_p(self):
        env = load_config("configs/two_state.cfg").env
        annealed = relations.annealed_oracles(env, 12, [1.5, 2.0, 3.0])
        path = bprelab.simulate.quenched_path(env, 12, 11)
        quenched = relations.quenched_oracles(env, path, 12, [1.5, 2.0, 3.0])
        set_fields = lambda oracle: {name for name, value in oracle._asdict().items() if value is not None}
        assert {p: set_fields(o) for p, o in annealed.items()} == {
            1.5: {"bias_label"}, 2.0: {"exact", "bias", "predicted_rho"}, 3.0: set()}
        assert annealed[1.5].bias_label == "oracle-unbounded bias"
        assert annealed[2.0].predicted_rho == 1.0 / math.sqrt(bprelab.exact_moments.p2_closed_forms(env).q1)
        # every mean on this path exceeds 1, so its own remainder bounds the tail
        assert {p: set_fields(o) for p, o in quenched.items()} == {
            1.5: set(), 2.0: {"exact", "bias"}, 3.0: set()}

    def test_unbounded_second_moments_give_no_predicted_rate(self):
        env = small_gw(environment=SEVEN_SIXTHS).env
        oracle = relations.annealed_oracles(env, 12, [2.0])[2.0]
        assert oracle.unbounded_q1 == pytest.approx(7 / 6)
        assert oracle.predicted_rho is None and oracle.bias is None
        # the quenched bias sums the realized path past its mean <= 1 states: q1 >= 1 does not matter
        path = bprelab.simulate.quenched_path(env, 12, 7)
        assert min(law.mean for law in path.laws[:12]) <= 1.0
        quenched = relations.quenched_oracles(env, path, 12, [2.0])[2.0]
        assert quenched.bias_label is None
        assert math.isfinite(quenched.bias(12)) and quenched.bias(12) == realized_tail(env, 7, 12)

    def test_a_subcritical_state_takes_the_realized_tail_on_a_mixture_only(self):
        env, n_max = two_means().env, 30
        path = bprelab.simulate.quenched_path(env, n_max, 7)
        assert bprelab.exact_moments.quenched_p2_tail(path, 0, n_max - 1).remainder == math.inf
        oracle = relations.quenched_oracles(env, path, n_max, [2.0])[2.0]
        assert oracle.bias_label is None
        assert oracle.bias(n_max) == realized_tail(env, 7, n_max) > 0.0
        inc = bprelab.exact_moments.quenched_increment_second_moments(path, n_max)
        assert oracle.bias(10) == math.fsum(inc[10:]) + realized_tail(env, 7, n_max)
        # the same laws as a fixed path have no future: the remainder stays infinite
        fixed = small_gw(environment={"kind": "fixed_path", "path": [law.as_mapping() for law in path.laws]})
        oracle = relations.quenched_oracles(fixed.env, path, n_max, [2.0])[2.0]
        assert oracle.bias(n_max) == math.inf and oracle.bias_label is None

    def test_a_fixed_path_keeps_the_geometric_remainder(self):
        # every mean on the bundled fixed path exceeds 1, so its remainder is finite and positive
        cfg = load_config("configs/fixed_path.cfg")
        path = cfg.env.sample_path(cfg.n_max)
        oracle = relations.quenched_oracles(cfg.env, path, cfg.n_max, [2.0])[2.0]
        bar2 = max(law.centered_abs_moment(2.0) for law in path.laws)
        mu_min = min(law.mean for law in path.laws)
        assert oracle.bias(cfg.n_max) == bar2 * math.exp(-path.log_means[-1]) / (1.0 - 1.0 / mu_min) > 0.0

    def test_the_realized_tail_is_reproducible_and_extends_the_path_itself(self, monkeypatch):
        env = two_means().env
        path = bprelab.simulate.quenched_path(env, 30, 7)
        drawn = record_path_draws(monkeypatch)
        bias = relations.quenched_oracles(env, path, 30, [2.0])[2.0].bias(30)
        assert relations.quenched_oracles(env, path, 30, [2.0])[2.0].bias(30) == bias
        # twice the same draws: 2 n_max, 4 n_max, ... states, each from the path's own seed
        lengths = [length for length, _ in drawn[: len(drawn) // 2]]
        assert drawn == 2 * [(length, 7) for length in lengths]
        assert lengths == [60 * 2**k for k in range(len(lengths))] and len(lengths) >= 2
        # the last doubling changed nothing
        assert bias == realized_tail(env, 7, 30, lengths[-1]) == realized_tail(env, 7, 30, lengths[-2])

    def test_a_mixture_that_is_not_supercritical_has_an_infinite_tail(self, monkeypatch):
        # means 2 and 1/2 at equal weights: E[log m_0] is exactly 0, and log m_0 varies
        env = small_gw(environment={"kind": "mixture", "states": [
            {"law": {1: 0.5, 3: 0.5}}, {"law": {0: 0.5, 1: 0.5}}]}).env
        assert env.geo_mean() == 1.0 and not env.is_supercritical
        path = bprelab.simulate.quenched_path(env, 12, 7)
        drawn = record_path_draws(monkeypatch)
        assert relations.quenched_oracles(env, path, 12, [2.0])[2.0].bias(12) == math.inf
        assert drawn == []

    def test_a_tail_still_changing_at_the_cap_is_infinite(self, monkeypatch):
        env = two_means().env
        path = bprelab.simulate.quenched_path(env, 30, 7)
        monkeypatch.setattr(relations, "TAIL_STATES", 120)
        drawn = record_path_draws(monkeypatch)
        assert relations.quenched_oracles(env, path, 30, [2.0])[2.0].bias(30) == math.inf
        assert drawn == [(60, 7), (120, 7)]

    def test_a_mixture_path_without_a_seed_is_refused(self):
        env = two_means().env
        path = bprelab.simulate.quenched_path(env, 30, 7)
        path.seed = None
        with pytest.raises(ParameterError, match="seed"):
            relations.quenched_oracles(env, path, 30, [2.0])


class TestTwoMeans:
    """The bundled mixture whose annealed and quenched p = 2 rates differ."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_quenched_p2_fit_through_a_subcritical_state(self, seed):
        cfg = two_means(suites=["quenched-rate"], replicas=5000, master_seed=seed)
        report, _, code = run_experiment(cfg)
        assert code == 0
        section = report["suites"]["quenched-rate"]["per_p"][1]
        assert section["p"] == 2.0 and section["fit"] is not None
        assert "bias_label" not in section
        assert all(math.isfinite(e["bias_bound"]) for e in section["estimates"])
        # the last estimate's proxy is W_{n_max}: its bias is the realized tail alone
        last = section["estimates"][-1]
        assert last["n"] + last["proxy_gap"] == cfg.n_max
        assert last["bias_bound"] == realized_tail(cfg.env, cfg.path_seed, cfg.n_max)

    def test_run_and_verify_pass_and_the_annealed_rate_is_not_the_quenched_one(self):
        cfg = two_means()
        report, _, code = run_experiment(cfg)
        assert code == 0 and report["summary"]["checks"] == 54
        assert verify_suite(cfg)[2] == 0
        (section,) = [s for s in report["suites"]["annealed-rate"]["per_p"] if s["p"] == 2.0]
        quenched_critical = bprelab.rates.quenched_bounds(cfg.env, 2.0)[1]
        assert section["fit"]["ci_low"] <= section["predicted_rho"] <= section["fit"]["ci_high"]
        assert not section["fit"]["ci_low"] <= quenched_critical <= section["fit"]["ci_high"]


    def test_verify_sections_carry_no_quenched_bias_label(self):
        # the small quenched batch's path passes the subcritical state; its p = 2 bias is still
        # the realized tail, a value and not an expectation, so no section needs a label
        report, _, code = verify_suite(two_means())
        assert code == 0
        sizes = report["suites"]["verify"]["sizes"]
        quenched = {s["p"]: s for s in report["suites"]["quenched-rate"]["per_p"]}
        assert set(quenched[2.0]) == set(quenched[1.5]) == {"p", "estimates"}
        assert all(math.isfinite(e["bias_bound"]) for e in quenched[2.0]["estimates"])
        assert quenched[2.0]["estimates"][-1]["bias_bound"] == realized_tail(
            two_means().env, sizes["path_seed"], sizes["n_max"])

    def test_the_seven_sixths_mixture_fits_its_quenched_p2_rate(self):
        # at master seed 11 a path-only remainder is infinite (a mean <= 1 is on the path), which
        # admits no fit window; the realized tail admits one, and the fit matches the exact slope
        report, _, _ = run_experiment(two_means(environment=SEVEN_SIXTHS, master_seed=11))
        assert check(report, "quenched-rate.p2.fit-available")["passed"] is True
        assert check(report, "quenched-rate.p2.fit-matches-exact")["passed"] is True


class TestDeclaredKeys:
    """Each suite that reads a batch reads back exactly the reducer keys its `_SUITES` row declares."""

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("name", ["gw_binary", "two_state"])
    def test_each_reader_reads_its_declared_keys_once_in_order(self, monkeypatch, name, command):
        declared, read, current, real = {}, {}, [], bprelab.simulate.partials

        def spy(batch, key):
            read.setdefault(current[-1], []).append(key)
            return real(batch, key)

        def reader(suite, row):
            def body(ctx, batch, keys):
                declared[suite] = row.keys(ctx)
                current.append(suite)
                return row.body(ctx, batch, keys)
            return row._replace(body=body)

        # estimators binds partials for the moment and bracket reads, simulate for the identity's
        monkeypatch.setattr(bprelab.simulate, "partials", spy)
        monkeypatch.setattr(bprelab.estimators, "partials", spy)
        monkeypatch.setattr(harness, "_SUITES", {suite: reader(suite, row) if row.reads else row
                                                 for suite, row in harness._SUITES.items()})
        cfg = load_config(f"configs/{name}.cfg", {"replicas": 2000, "n_max": 12, "gap": 6})
        (run_experiment if command == "run" else verify_suite)(cfg)
        assert declared and set(read) == set(declared)
        for suite, keys in declared.items():
            assert read[suite] == keys, suite


class TestBatchLifetime:
    """Each batch is simulated once, for its first reader, and held until the run returns."""

    @pytest.mark.parametrize("name, command, modes", [
        ("two_state", "run", ["quenched", "annealed"]),
        ("two_state", "verify", ["quenched", "annealed"]),
        ("two_means", "run", ["quenched", "annealed"]),
        ("two_means", "verify", ["quenched", "annealed"]),
        ("deterministic", "run", ["quenched", "annealed"]),
        ("deterministic", "verify", ["quenched", "annealed"]),
        ("gw_binary", "run", ["annealed"]),
        ("gw_binary", "verify", ["quenched", "annealed"]),
        ("fixed_path", "run", ["quenched"]),
        ("fixed_path", "verify", ["quenched"]),
        ("subcritical", "run", None),  # refused before any suite runs: exit 1
        ("subcritical", "verify", ["annealed"]),
    ])
    def test_each_batch_is_simulated_once_for_the_admitted_suites(self, monkeypatch, name, command, modes):
        sims, reads, real_run, real_loop = [], [], harness.run, harness._run_suites

        def spy(sim, **kwargs):
            sims.append(sim)
            return real_run(sim, **kwargs)

        def loop(ctx, suites, body):
            rows = [harness._SUITES[suite] for suite in suites]
            reads.extend(row.reads(ctx) for row in rows if row.reads)
            return real_loop(ctx, suites, body)

        monkeypatch.setattr(harness, "run", spy)
        monkeypatch.setattr(harness, "_run_suites", loop)
        # the replica count decides no suite's admission or batch
        cfg = load_config(f"configs/{name}.cfg", {"replicas": 2000})
        if modes is None:
            with pytest.raises(ConfigError):
                run_experiment(cfg)
            modes = []
        else:
            (run_experiment if command == "run" else verify_suite)(cfg)
        assert len(set(sims)) == len(sims)
        assert [sim.mode for sim in sims] == modes == list(dict.fromkeys(reads))

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_a_batch_lives_until_its_run_returns(self, monkeypatch, command):
        # a run holds each batch from its first reader to its end, and refcounting alone frees
        # every batch and unmaps its shared mapping once the run returns: with the collector off,
        # a cycle or a section that kept a batch would keep it alive; on a mixture verify reads
        # the quenched batch, then the annealed one, as run does here
        suites = ["quenched-rate", "annealed-rate", "burkholder", "identity"]
        last = suites[-1]
        refs, alive_at_last, real, real_body = {}, {}, harness.run, harness._SUITES[last].body

        def mapping(status):
            while isinstance(status, np.ndarray):
                status = status.base
            assert isinstance(status.obj, mmap.mmap)  # status's base is a memoryview of the mapping
            return status.obj

        def spy(sim, **kwargs):
            batch = real(sim, **kwargs)
            refs[sim.mode] = weakref.ref(batch)
            refs[f"{sim.mode} mapping"] = weakref.ref(mapping(batch.status))
            return batch

        def last_body(ctx, batch, keys):
            alive_at_last.update({key: ref() is not None for key, ref in refs.items()})
            return real_body(ctx, batch, keys)

        monkeypatch.setattr(harness, "run", spy)
        monkeypatch.setitem(harness._SUITES, last, harness._SUITES[last]._replace(body=last_body))
        cfg = load_config("configs/two_state.cfg", {"replicas": 2000, "n_max": 12, "gap": 6, "suites": suites})
        enabled = gc.isenabled()
        gc.disable()
        try:
            report, _, _ = (run_experiment if command == "run" else verify_suite)(cfg)
        finally:
            if enabled:
                gc.enable()
        assert alive_at_last == dict.fromkeys(["quenched", "quenched mapping", "annealed", "annealed mapping"], True)
        assert {key: ref() is None for key, ref in refs.items()} == dict.fromkeys(refs, True)
        ran = suites if command == "run" else ["verify", *VERIFY_SUITES]
        assert list(report["suites"]) == ran


class TestOneOwner:
    """A decision that run and verify both depend on is made in one place."""

    def test_readme_suite_table_is_the_suite_table(self):
        # README's table of suite, batch read and verify, row for row, as _SUITES declares them
        lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
        start = lines.index("| suite | reads | `verify` runs it |") + 2
        documented = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            documented.append(tuple(cell.strip().strip("`") for cell in line.strip("|").split("|")))

        contexts = [harness._Context(small_gw(environment=env)) for env in (TWO_STATE, FIXED4)]

        def reads(row):
            if row.reads is None:
                return "no batch"
            mixture, path = (row.reads(ctx) for ctx in contexts)
            other = "" if mixture == path else f" on a mixture, else the {path} batch"
            return f"the {mixture} batch{other}"

        declared = [(suite, reads(row), "yes" if row.verify else "no")
                    for suite, row in harness._SUITES.items()]
        assert documented == declared

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

    @pytest.mark.parametrize("module", [config, harness, relations, bprelab.cli])
    def test_no_benchmark_only_value_above_the_simulator(self, module):
        # simulate.run's threads, a batch's a_hat and SimConfig's rho_grid change no verdict; the
        # layers that build verdicts neither pass nor read them (run's --threads option is parsed
        # and checked, and no name reads its value; _Context.rho_grid() is the suites' own rho).
        # name_field is the field that holds a node's name or string.
        name_field = {ast.Attribute: "attr", ast.Name: "id", ast.arg: "arg", ast.Constant: "value"}
        found = []
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.keyword) and node.arg in {"threads", "a_hat", "rho_grid"}:
                found.append((node.lineno, f"{node.arg}="))
            elif getattr(node, name_field.get(type(node), ""), None) in {"threads", "a_hat"}:
                found.append((node.lineno, getattr(node, name_field[type(node)])))
        assert found == []

    def test_only_the_suite_loop_asks_for_a_batch(self):
        # the _SUITES rows alone say which batch a suite reads; a suite or helper that called run itself
        # would say it a second time, and simulate a batch the loop already holds
        callers = [
            getattr(stmt, "name", "<module>")
            for stmt in ast.parse(Path(harness.__file__).read_text()).body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "run"
        ]
        assert callers == ["_run_suites"]

    def test_only_add_csv_builds_a_csv_line(self):
        # _Context.add_csv alone turns field names and values into CSV lines; a suite that built
        # its own rows, by a "," join or an f-string with "," between its values, would choose a
        # second format
        builders = []

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                name = f"{owner}.{child.name}" if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else owner
                joins = (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                         and child.func.attr == "join" and isinstance(child.func.value, ast.Constant)
                         and child.func.value.value == ",")
                row_fstring = isinstance(child, ast.JoinedStr) and any(
                    isinstance(part, ast.Constant) and part.value == "," for part in child.values)
                if joins or row_fstring:
                    builders.append(name)
                visit(child, name)

        visit(ast.parse(Path(harness.__file__).read_text()), "harness")
        assert builders and set(builders) == {"harness._Context.add_csv"}

    # each run-path rule's owner module and the forms the rule takes where it is written: the fit
    # minimum (a constant, a window length, a fit need or its refusal), the rounding floor, the
    # log-point weight, and the exact envelope horizon (a constant, a max or a refusal)
    RULES = {
        "fit-minimum": (bprelab.estimators,
                        r"MIN_FIT_POINTS\s*=\s*\d|len\(window\)\s*<\s*\d|gap\s*>=?\s*\d|fit of \d|need >= \d"),
        "rounding-floor": (bprelab.estimators, r"ROUNDOFF_DISTANCE\s*\*\*"),
        "log-point-weight": (bprelab.estimators, r"stderr\s*/\s*\([\w.]*\bp\s*\*"),
        "envelope-horizon": (bprelab.exact_moments,
                             r"ENVELOPE_HORIZON\s*=\s*\d|max\(\s*n\s*,\s*\d+\s*\)|n_max\s*<\s*10\b|>= 10 for"),
    }

    @pytest.mark.parametrize("rule", RULES)
    def test_each_run_path_rule_is_written_once_in_its_owner(self, rule):
        # a rule written out in a second module, or a second time in its owner, is a second
        # place to change it; every other module reads it from its owner by name
        owner, form = self.RULES[rule]
        written = {path.name: len(re.findall(form, path.read_text()))
                   for path in sorted(Path(owner.__file__).parent.glob("*.py"))}
        assert {name: count for name, count in written.items() if count} == {Path(owner.__file__).name: 1}

    @pytest.mark.parametrize("path_seed", [None, 7])
    def test_series_path_is_the_quenched_batch_path(self, path_seed):
        ctx = harness._Context(small_gw(environment=TWO_STATE, path_seed=path_seed))
        assert ctx.series_seed == (21 if path_seed is None else path_seed)
        # a small config on the series seed, as verify builds it
        small = dataclasses.replace(ctx.cfg, n_max=12, replicas=200, path_seed=ctx.series_seed)
        batch = bprelab.simulate.run(SimConfig(
            mode=MODE_QUENCHED, env=small.env, n_max=small.n_max, replicas=small.replicas,
            master_seed=small.master_seed, path_seed=small.path_seed, pop_cap=small.pop_cap,
        ))
        assert batch.path.laws == ctx.series_path(12).laws
        # the seed decides the path: another seed draws another one
        other = harness._Context(small_gw(environment=TWO_STATE, path_seed=ctx.series_seed + 1))
        assert other.series_path(12).laws != batch.path.laws

    @pytest.mark.parametrize("module", ["bprelab.config", "bprelab.harness"])
    def test_each_module_imports_first_in_a_fresh_interpreter(self, module):
        # config reads the suite names from harness, so a runtime config import in harness
        # would be a cycle that fails whichever of the two is imported first
        result = subprocess.run([sys.executable, "-c", f"import {module}"], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(Path(bprelab.__file__).parent.parent)})
        assert result.returncode == 0, result.stderr

    def test_stationary_law_relations_refuse_a_fixed_path(self):
        # the exact suite calls them on a mixture only; a fixed path has no stationary law
        env = load_config("configs/fixed_path.cfg").env
        with pytest.raises(UnsupportedOperationError):
            relations.growth_envelope(env, 12, (2, 3, 4))
        with pytest.raises(UnsupportedOperationError):
            relations.recursion_slack(env, 12)

    def test_short_fixed_path_is_clamped(self):
        pmfs = [{2: 1.0}, {0: 0.25, 2: 0.75}, {3: 1.0}, {1: 0.5, 3: 0.5}, {2: 1.0}]
        env = {"kind": "fixed_path", "path": pmfs}
        ctx = harness._Context(small_gw(environment=env))
        assert [law.as_mapping() for law in ctx.series_path(12).laws] == pmfs
        assert ctx.series_path(3).laws == ctx.env.laws[:3]
