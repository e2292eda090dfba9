"""Config loading: schema checks, line anchors, defaults, bundled files."""

import glob
import math

import pytest
import yaml

from bprelab import ConfigError, config
from bprelab.config import load_config, parse_config
from bprelab.environment import FixedPath, IIDMixture

FULL_TEXT = """\
schema: 1
name: round-trip
environment:
  kind: mixture
  states:
    - law: {1: 0.5, 3: 0.5}
      weight: 0.5
    - law: {2: 1.0}
      weight: 0.5
suites: [exact, rates]
p: [1.5, 2.0]
n_max: 12
gap: 6
replicas: 2000
master_seed: 9
path_seed: 4
pop_cap: 5000
out: results
"""


def minimal() -> dict:
    return {
        "schema": 1,
        "name": "tiny",
        "environment": {"kind": "mixture", "states": [{"law": {2: 1.0}}]},
        "suites": ["exact"],
    }


def write_cfg(tmp_path, text):
    path = tmp_path / "case.cfg"
    path.write_text(text)
    return path


class TestLoading:
    def test_bundled_configs_parse(self):
        paths = sorted(glob.glob("configs/*.cfg"))
        assert len(paths) >= 5
        for path in paths:
            cfg = load_config(path)
            assert cfg.name
            assert cfg.suites
            assert cfg.source == path

    def test_every_key_is_set_by_a_bundled_config(self):
        # a key that no config sets is an option with one value in use: make it a constant
        exempt = {
            "out": "a deployment path, which the command line's --out also sets",
        }
        used = set().union(*(load_config(path).raw for path in glob.glob("configs/*.cfg")))
        assert config._TOP_KEYS - {"schema"} - used <= set(exempt)

    def test_full_round_trip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, FULL_TEXT))
        assert cfg.name == "round-trip"
        assert isinstance(cfg.env, IIDMixture)
        assert cfg.env.weights == pytest.approx((0.5, 0.5))
        assert cfg.suites == ("exact", "rates")
        assert cfg.p == (1.5, 2.0)
        assert (cfg.n_max, cfg.gap, cfg.replicas) == (12, 6, 2000)
        assert (cfg.master_seed, cfg.path_seed) == (9, 4)
        assert (cfg.pop_cap, cfg.out) == (5000, "results")

    def test_fixed_path_environment(self, tmp_path):
        text = (
            "schema: 1\nname: fp\nenvironment:\n  kind: fixed_path\n  path:\n"
            "    - {2: 1.0}\n    - {0: 0.25, 2: 0.75}\nsuites: [exact]\n"
        )
        cfg = load_config(write_cfg(tmp_path, text))
        assert isinstance(cfg.env, FixedPath)
        assert len(cfg.env.laws) == 2
        assert cfg.env.laws[1].as_mapping() == {0: 0.25, 2: 0.75}

    def test_defaults(self):
        cfg = parse_config(minimal())
        assert cfg.p == (2.0,)
        assert (cfg.n_max, cfg.gap, cfg.replicas) == (30, 20, 10_000)
        assert (cfg.master_seed, cfg.path_seed) == (0, None)
        assert (cfg.pop_cap, cfg.out) == (10_000_000, None)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.cfg")

    def test_yaml_syntax_error_carries_a_line(self, tmp_path):
        path = write_cfg(tmp_path, "schema: 1\nname: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(path)


class TestOneParse:
    def test_each_load_composes_the_text_once(self, tmp_path, monkeypatch):
        # the data and the line index come from one composed node
        composed = []
        real = yaml.composer.Composer.compose_document

        def spy(loader):
            composed.append(type(loader))
            return real(loader)

        monkeypatch.setattr(yaml.composer.Composer, "compose_document", spy)
        path = write_cfg(tmp_path, FULL_TEXT)
        load_config(path)
        assert composed == [yaml.SafeLoader]
        load_config(path, {"replicas": 500})
        assert len(composed) == 2

    @pytest.mark.parametrize("name", sorted(glob.glob("configs/*.cfg")))
    def test_data_is_what_safe_load_builds(self, name):
        with open(name) as fh:
            text = fh.read()
        assert config._parse_yaml(text)[1] == yaml.safe_load(text)

    def test_yaml_error_keeps_its_line(self, tmp_path):
        text = "schema: 1\nname: round-trip\nsuites: [exact\nreplicas: 5\n"
        path = write_cfg(tmp_path, text)
        with pytest.raises(yaml.YAMLError) as want:
            yaml.safe_load(text)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}:{want.value.problem_mark.line + 1}: not valid YAML: {want.value}"


class TestLineAnchors:
    def test_error_names_file_line_and_path(self, tmp_path):
        text = FULL_TEXT.replace("replicas: 2000", "replicas: 0")
        path = write_cfg(tmp_path, text)
        line = text.splitlines().index("replicas: 0") + 1
        with pytest.raises(ConfigError, match=rf"case\.cfg:{line}: replicas: must be >= 1"):
            load_config(path)

    def test_nested_list_items_are_anchored(self, tmp_path):
        text = FULL_TEXT.replace("p: [1.5, 2.0]", "p: [1.5, 0.5]")
        path = write_cfg(tmp_path, text)
        line = text.splitlines().index("p: [1.5, 0.5]") + 1
        with pytest.raises(ConfigError, match=rf"case\.cfg:{line}: p\[1\]: each p must be"):
            load_config(path)

    def test_an_override_names_no_line_of_the_entries_it_replaces(self, tmp_path):
        # the file's p[0] has a line, but the refused p[0] came from the override
        path = write_cfg(tmp_path, FULL_TEXT)
        with pytest.raises(ConfigError) as exc:
            load_config(path, {"p": [math.inf]})
        assert str(exc.value) == f"{path}: p[0]: each p must be a number > 1"

    @pytest.mark.parametrize(
        "line, bad, anchor",
        [
            ("      weight: 0.5", "      weight: yes",
             r"environment\.states\[0\]\.weight: expected a number"),
            ("    - law: {1: 0.5, 3: 0.5}", "    - law: {1: true, 3: 0.5}",
             r"environment\.states\[0\]\.law: probability True is not a number"),
            ("p: [1.5, 2.0]", "p: [true, 2.0]", r"p\[0\]: each p must be a number > 1"),
        ],
        ids=["weight", "probability", "p"],
    )
    def test_booleans_are_not_numbers(self, tmp_path, line, bad, anchor):
        # YAML reads true, yes and on as booleans, and Python counts a bool as an int
        text = FULL_TEXT.replace(line, bad, 1)
        path = write_cfg(tmp_path, text)
        number = text.splitlines().index(bad) + 1
        with pytest.raises(ConfigError, match=rf"case\.cfg:{number}: {anchor}"):
            load_config(path)

    @pytest.mark.parametrize(
        "line, bad, anchor",
        [
            ("p: [1.5, 2.0]", "p: [1.5, .inf]", r"p\[1\]: each p must be a number > 1"),
        ],
        ids=["p"],
    )
    def test_infinities_are_refused(self, tmp_path, line, bad, anchor):
        # YAML reads .inf as a float; an infinite p yields nan brackets and fits
        text = FULL_TEXT.replace(line, bad, 1)
        path = write_cfg(tmp_path, text)
        number = text.splitlines().index(bad) + 1
        with pytest.raises(ConfigError, match=rf"case\.cfg:{number}: {anchor}$"):
            load_config(path)

    def test_p_values_with_one_tag_are_anchored(self, tmp_path):
        # distinct exponents that print alike would give the same check ids
        text = FULL_TEXT.replace("p: [1.5, 2.0]", "p: [2, 1.5, 2.0000001]")
        path = write_cfg(tmp_path, text)
        line = text.splitlines().index("p: [2, 1.5, 2.0000001]") + 1
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}:{line}: p[2]: 2.0 and 2.0000001 give check ids the same tag 'p2'"
        # an override is not in the file, so its refusal names no line
        with pytest.raises(ConfigError) as exc:
            load_config(path, {"p": [2.0, 2.0000001]})
        assert str(exc.value) == f"{path}: p[1]: 2.0 and 2.0000001 give check ids the same tag 'p2'"
        assert load_config(path, {"p": [2.0, 2.01]}).p == (2.0, 2.01)

    def test_duplicate_entries_are_anchored(self, tmp_path):
        text = FULL_TEXT.replace("p: [1.5, 2.0]", "p: [2.0, 2.0]")
        path = write_cfg(tmp_path, text)
        line = text.splitlines().index("p: [2.0, 2.0]") + 1
        with pytest.raises(ConfigError, match=rf"case\.cfg:{line}: p\[1\]: duplicate entry 2\.0"):
            load_config(path)


class TestValidation:
    def fails(self, data, pattern):
        with pytest.raises(ConfigError, match=pattern):
            parse_config(data)

    def test_unknown_top_key(self):
        self.fails(minimal() | {"bogus": 3}, r"unknown keys \['bogus'\]")

    def test_schema_mismatch(self):
        self.fails(minimal() | {"schema": 2}, "expected schema: 1")
        self.fails({k: v for k, v in minimal().items() if k != "schema"}, "expected schema: 1")

    def test_name_required(self):
        self.fails(minimal() | {"name": ""}, "non-empty string")
        self.fails({k: v for k, v in minimal().items() if k != "name"}, "non-empty string")

    def test_environment_shapes(self):
        self.fails(minimal() | {"environment": 7}, "environment: expected a map")
        self.fails(
            minimal() | {"environment": {"kind": "weird"}},
            "unknown environment kind 'weird'",
        )
        self.fails(
            minimal() | {"environment": {"kind": "mixture"}},
            "environment.states: expected a non-empty list",
        )
        self.fails(
            minimal() | {"environment": {"kind": "mixture", "states": [{"law": {2: 1.0}, "wt": 1}]}},
            r"unknown keys \['wt'\]",
        )
        self.fails(
            minimal()
            | {
                "environment": {
                    "kind": "mixture",
                    "states": [{"law": {2: 1.0}, "weight": -1.0}],
                }
            },
            "environment.states",
        )

    def test_law_entries(self):
        env = {"kind": "mixture", "states": [{"law": {"two": 1.0}}]}
        self.fails(minimal() | {"environment": env}, "offspring value 'two' is not an integer")
        env = {"kind": "mixture", "states": [{"law": {True: 1.0}}]}
        self.fails(minimal() | {"environment": env}, "not an integer")
        env = {"kind": "mixture", "states": [{"law": {2: "half"}}]}
        self.fails(minimal() | {"environment": env}, "probability 'half' is not a number")
        env = {"kind": "mixture", "states": [{"law": {2: 0.5}}]}
        self.fails(minimal() | {"environment": env}, "environment.states\\[0\\].law")
        env = {"kind": "mixture", "states": [{"law": {"-1": 1.0}}]}
        self.fails(minimal() | {"environment": env}, "offspring value '-1' is not an integer")

    def test_law_keys_as_written_by_json(self):
        # report.json records laws with string keys; a config copied from it must load
        env = {"kind": "mixture", "states": [{"law": {"0": 0.25, "2": 0.75}}]}
        law = parse_config(minimal() | {"environment": env}).env.states[0]
        assert law.as_mapping() == {0: 0.25, 2: 0.75}

    def test_suites(self):
        self.fails(minimal() | {"suites": []}, "non-empty list")
        self.fails(minimal() | {"suites": ["exactt"]}, "unknown suite 'exactt'")
        self.fails(
            minimal() | {"suites": ["exact", "rates", "exact"]},
            r"suites\[2\]: duplicate entry 'exact'",
        )

    def test_parameter_ranges(self):
        self.fails(minimal() | {"p": [1.0]}, r"p\[0\]: each p must be a number > 1")
        self.fails(minimal() | {"p": [2.0, 2.0]}, r"p\[1\]: duplicate entry 2\.0")
        self.fails(minimal() | {"p": [2, 2.0]}, r"p\[1\]: duplicate entry 2\.0")
        self.fails(minimal() | {"n_max": 0}, "n_max: must be >= 1")
        self.fails(minimal() | {"replicas": 0}, "replicas: must be >= 1")
        self.fails(minimal() | {"pop_cap": 999}, "pop_cap: must be >= 1000")
        self.fails(minimal() | {"out": ""}, "out: expected a non-empty string")

    # the harness derives the suites' rho from the environment and holds the
    # tolerances and verify's suites as constants, so none of them is a key
    def test_rho(self, tmp_path):
        path = write_cfg(tmp_path, FULL_TEXT + "rho: [1.1]\n")
        line = len(FULL_TEXT.splitlines()) + 1
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}:{line}: rho: unknown keys ['rho']"

    def test_threads(self, tmp_path):
        # the simulator forks one worker per usable CPU whatever it says, so it is no key
        path = write_cfg(tmp_path, FULL_TEXT + "threads: 2\n")
        line = len(FULL_TEXT.splitlines()) + 1
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}:{line}: threads: unknown keys ['threads']"

    def test_tolerances(self):
        refusal = r"^<memory>: tolerances: unknown keys \['tolerances'\]$"
        self.fails(minimal() | {"tolerances": {"sigmas": 100}}, refusal)

    def test_verify(self):
        self.fails(minimal() | {"verify": ["rate-orderings"]}, r"^<memory>: verify: unknown keys \['verify'\]$")
