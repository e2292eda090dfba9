"""Experiment config files: YAML schema, validation, line-anchored errors.

Configs are the repo's experiment fixtures, so the loader is strict: a fixed
schema version, no unknown keys, and every complaint carries the file name,
the offending key path, and (when the composer can supply it) the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import yaml

from .environment import Environment, FixedPath, IIDMixture
from .errors import BpreLabError, ConfigError
from .offspring import OffspringLaw

SCHEMA_VERSION = 1

KNOWN_SUITES = (
    "rates",
    "exact",
    "quenched-rate",
    "annealed-rate",
    "burkholder",
    "criteria",
    "identity",
)

VERIFY_CHECKS = (
    "p2-closed-forms",
    "recursion-inequality",
    "growth-envelope",
    "increment-identity",
    "burkholder-sandwich",
    "rate-orderings",
    "quenched-increments",
)

DEFAULT_TOLERANCES = {
    "identity": 1e-9,
    "exact_rel": 1e-9,
    "series_margin": 0.02,
    "sigmas": 4.0,
}

_TOP_KEYS = {
    "schema",
    "name",
    "environment",
    "suites",
    "p",
    "rho",
    "n_max",
    "gap",
    "replicas",
    "master_seed",
    "path_seed",
    "pop_cap",
    "out",
    "threads",
    "tolerances",
    "verify",
}


@dataclass
class ExperimentConfig:
    """A validated experiment: environment, suites, and run parameters."""

    name: str
    env: Environment
    suites: tuple[str, ...]
    p: tuple[float, ...] = (2.0,)
    rho: tuple[float, ...] | None = None
    n_max: int = 30
    gap: int = 20
    replicas: int = 10_000
    master_seed: int = 0
    path_seed: int | None = None
    pop_cap: int = 10_000_000
    out: str | None = None
    threads: int = 1
    tolerances: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    verify: tuple[str, ...] = VERIFY_CHECKS
    source: str = "<memory>"
    raw: dict = field(default_factory=dict)


def _line_index(text: str) -> dict[str, int]:
    """Map dotted key paths to 1-based line numbers via the YAML composer."""
    try:
        node = yaml.compose(text)
    except yaml.YAMLError:
        return {}
    index: dict[str, int] = {}

    def walk(node, path):
        if isinstance(node, yaml.MappingNode):
            for key, value in node.value:
                sub = f"{path}.{key.value}" if path else str(key.value)
                index[sub] = key.start_mark.line + 1
                walk(value, sub)
        elif isinstance(node, yaml.SequenceNode):
            for i, value in enumerate(node.value):
                sub = f"{path}[{i}]"
                index[sub] = value.start_mark.line + 1
                walk(value, sub)

    if node is not None:
        walk(node, "")
    return index


class _Checker:
    def __init__(self, source: str, lines: dict[str, int]):
        self.source = source
        self.lines = lines

    def fail(self, path: str, msg: str) -> ConfigError:
        line = self.lines.get(path)
        anchor = f"{self.source}:{line}" if line else self.source
        return ConfigError(f"{anchor}: {path}: {msg}")

    def require(self, cond: bool, path: str, msg: str) -> None:
        if not cond:
            raise self.fail(path, msg)


def _parse_law(data, path: str, chk: _Checker) -> OffspringLaw:
    chk.require(isinstance(data, dict) and data, path, "expected a {value: probability} map")
    pmf = {}
    for key, prob in data.items():
        chk.require(isinstance(key, int) and not isinstance(key, bool), path, f"offspring value {key!r} is not an integer")
        chk.require(isinstance(prob, (int, float)), path, f"probability {prob!r} is not a number")
        pmf[key] = float(prob)
    try:
        return OffspringLaw(pmf)
    except BpreLabError as exc:
        raise chk.fail(path, str(exc)) from exc


def _parse_environment(data, chk: _Checker) -> Environment:
    path = "environment"
    chk.require(isinstance(data, dict), path, "expected a map")
    kind = data.get("kind")
    if kind == "mixture":
        extra = set(data) - {"kind", "states"}
        chk.require(not extra, path, f"unknown keys {sorted(extra)}")
        states = data.get("states")
        chk.require(isinstance(states, list) and states, f"{path}.states", "expected a non-empty list")
        laws, weights = [], []
        for i, entry in enumerate(states):
            epath = f"{path}.states[{i}]"
            chk.require(isinstance(entry, dict), epath, "expected a map")
            extra = set(entry) - {"law", "weight"}
            chk.require(not extra, epath, f"unknown keys {sorted(extra)}")
            laws.append(_parse_law(entry.get("law"), f"{epath}.law", chk))
            weight = entry.get("weight", 1.0 / len(states))
            chk.require(isinstance(weight, (int, float)), f"{epath}.weight", "expected a number")
            weights.append(float(weight))
        try:
            return IIDMixture(laws, weights)
        except BpreLabError as exc:
            raise chk.fail(f"{path}.states", str(exc)) from exc
    if kind == "fixed_path":
        extra = set(data) - {"kind", "path"}
        chk.require(not extra, path, f"unknown keys {sorted(extra)}")
        seq = data.get("path")
        chk.require(isinstance(seq, list) and seq, f"{path}.path", "expected a non-empty list")
        laws = [_parse_law(entry, f"{path}.path[{i}]", chk) for i, entry in enumerate(seq)]
        try:
            return FixedPath(laws)
        except BpreLabError as exc:
            raise chk.fail(f"{path}.path", str(exc)) from exc
    raise chk.fail(f"{path}.kind", f"unknown environment kind {kind!r}")


def _require_unique(chk: _Checker, items: list, key: str) -> None:
    """Reject a list that repeats an entry; repeats would run a check twice."""
    for i, item in enumerate(items):
        chk.require(item not in items[:i], f"{key}[{i}]", f"duplicate entry {item!r}")


def _check_int(chk: _Checker, data: dict, key: str, default, minimum=None):
    value = data.get(key, default)
    if value is None:
        return None
    chk.require(
        isinstance(value, int) and not isinstance(value, bool), key, "expected an integer"
    )
    if minimum is not None:
        chk.require(value >= minimum, key, f"must be >= {minimum}")
    return value


def parse_config(data: dict, source: str = "<memory>", lines: dict[str, int] | None = None) -> ExperimentConfig:
    chk = _Checker(source, lines or {})
    chk.require(isinstance(data, dict), "", "config root must be a map")
    extra = set(data) - _TOP_KEYS
    chk.require(not extra, sorted(extra)[0] if extra else "", f"unknown keys {sorted(extra)}")
    chk.require(data.get("schema") == SCHEMA_VERSION, "schema", f"expected schema: {SCHEMA_VERSION}")

    name = data.get("name")
    chk.require(isinstance(name, str) and name != "", "name", "expected a non-empty string")

    env = _parse_environment(data.get("environment"), chk)

    suites = data.get("suites")
    chk.require(isinstance(suites, list) and suites, "suites", "expected a non-empty list")
    for i, s in enumerate(suites):
        chk.require(s in KNOWN_SUITES, f"suites[{i}]", f"unknown suite {s!r}; known: {list(KNOWN_SUITES)}")
    _require_unique(chk, suites, "suites")

    p_list = data.get("p", [2.0])
    chk.require(isinstance(p_list, list) and p_list, "p", "expected a non-empty list")
    for i, p in enumerate(p_list):
        chk.require(isinstance(p, (int, float)) and p > 1, f"p[{i}]", "each p must be a number > 1")
    _require_unique(chk, p_list, "p")

    rho = data.get("rho")
    if rho is not None:
        chk.require(isinstance(rho, list) and rho, "rho", "expected a non-empty list")
        for i, r in enumerate(rho):
            chk.require(isinstance(r, (int, float)) and r >= 1, f"rho[{i}]", "each rho must be >= 1")
        _require_unique(chk, rho, "rho")

    n_max = _check_int(chk, data, "n_max", 30, minimum=1)
    gap = _check_int(chk, data, "gap", 20, minimum=1)
    replicas = _check_int(chk, data, "replicas", 10_000, minimum=1)
    master_seed = _check_int(chk, data, "master_seed", 0, minimum=0)
    path_seed = _check_int(chk, data, "path_seed", None, minimum=0)
    pop_cap = _check_int(chk, data, "pop_cap", 10_000_000, minimum=1000)
    threads = _check_int(chk, data, "threads", 1, minimum=1)

    out = data.get("out")
    if out is not None:
        chk.require(isinstance(out, str) and out != "", "out", "expected a non-empty string")

    tolerances = dict(DEFAULT_TOLERANCES)
    overrides = data.get("tolerances", {})
    chk.require(isinstance(overrides, dict), "tolerances", "expected a map")
    for key, value in overrides.items():
        chk.require(key in DEFAULT_TOLERANCES, f"tolerances.{key}", f"unknown tolerance; known: {sorted(DEFAULT_TOLERANCES)}")
        chk.require(isinstance(value, (int, float)) and value > 0 and math.isfinite(value), f"tolerances.{key}", "expected a positive number")
        tolerances[key] = float(value)

    verify = data.get("verify", list(VERIFY_CHECKS))
    chk.require(isinstance(verify, list) and verify, "verify", "expected a non-empty list")
    for i, v in enumerate(verify):
        chk.require(v in VERIFY_CHECKS, f"verify[{i}]", f"unknown check {v!r}; known: {list(VERIFY_CHECKS)}")
    _require_unique(chk, verify, "verify")

    return ExperimentConfig(
        name=name,
        env=env,
        suites=tuple(suites),
        p=tuple(float(p) for p in p_list),
        rho=tuple(float(r) for r in rho) if rho is not None else None,
        n_max=n_max,
        gap=gap,
        replicas=replicas,
        master_seed=master_seed,
        path_seed=path_seed,
        pop_cap=pop_cap,
        out=out,
        threads=threads,
        tolerances=tolerances,
        verify=tuple(verify),
        source=source,
        raw=data,
    )


def load_config(path) -> ExperimentConfig:
    path = str(path)
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        anchor = f"{path}:{mark.line + 1}" if mark else path
        raise ConfigError(f"{anchor}: not valid YAML: {exc}") from exc
    return parse_config(data, source=path, lines=_line_index(text))
