"""Experiment config files: YAML schema, validation, line-anchored errors.

Configs are the repo's experiment fixtures, so the loader is strict: a fixed
schema version, no unknown keys, no two values of p with one check-id tag, and
every complaint carries the file name, the key path and, where known, the line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

import yaml

from .environment import Environment, FixedPath, IIDMixture
from .errors import BpreLabError, ConfigError
from .harness import _SUITES
from .offspring import OffspringLaw
from .relations import p_tag
from .simulate import BATCH_MINIMUMS

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: environment, suites, and run parameters.

    Each field is a top-level key of the config file, under the name in its
    ``key`` metadata if it has one (``source`` and ``raw`` are not keys); a
    key the file leaves out takes the field's default. The rho values of the
    burkholder and identity suites, the checks' tolerances and verify's suites
    and sizes are not keys: the harness derives the first from the environment
    and holds the others as constants.
    """

    name: str
    env: Environment = field(metadata={"key": "environment"})
    suites: tuple[str, ...]
    p: tuple[float, ...] = (2.0,)
    n_max: int = 30
    gap: int = 20
    replicas: int = 10_000
    master_seed: int = 0
    path_seed: int | None = None
    pop_cap: int = 10_000_000
    out: str | None = None
    source: str = field(default="<memory>", metadata={"key": None})
    raw: dict = field(default_factory=dict, metadata={"key": None})


# the schema marker, then one key per field
_TOP_KEYS = {"schema"} | {f.metadata.get("key", f.name) for f in fields(ExperimentConfig)} - {None}

# keys whose default is None accept an explicit null for it
_NULLABLE = {f.name for f in fields(ExperimentConfig) if f.default is None}

# each environment kind and the key of its list of states: a mixture's weighted laws, a fixed path's laws
_ENV_LISTS = {"mixture": "states", "fixed_path": "path"}

# integer keys and their least admissible value, checked in field order; the batch sizes' are the simulator's
_INT_MINIMUMS = {"gap": 1, "master_seed": 0, "path_seed": 0, **BATCH_MINIMUMS}


def _line_index(node: yaml.Node | None) -> dict[str, int]:
    """Map dotted key paths to 1-based line numbers from the composed YAML node."""
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


def _parse_yaml(text: str) -> tuple[yaml.Node | None, object]:
    """The node of a one-document YAML text (None if it is empty) and the data constructed
    from that node, as yaml.safe_load constructs it, from one parse."""
    loader = yaml.SafeLoader(text)
    try:
        node = loader.get_single_node()
        return node, None if node is None else loader.construct_document(node)
    finally:
        loader.dispose()


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


def _is_number(x) -> bool:
    """An int or a float; YAML's true/yes/on load as bool, which Python counts as an int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_law(data, path: str, chk: _Checker) -> OffspringLaw:
    chk.require(isinstance(data, dict) and data, path, "expected a {value: probability} map")
    pmf = {}
    for key, prob in data.items():
        if isinstance(key, str) and key.isascii() and key.isdigit():
            key = int(key)  # report.json holds laws with string keys, as JSON must
        chk.require(isinstance(key, int) and not isinstance(key, bool), path, f"offspring value {key!r} is not an integer")
        chk.require(_is_number(prob), path, f"probability {prob!r} is not a number")
        pmf[key] = float(prob)
    try:
        return OffspringLaw(pmf)
    except BpreLabError as exc:
        raise chk.fail(path, str(exc)) from exc


def _parse_environment(data, chk: _Checker) -> Environment:
    chk.require(isinstance(data, dict), "environment", "expected a map")
    kind = data.get("kind")
    key = _ENV_LISTS.get(kind) if isinstance(kind, str) else None
    chk.require(key is not None, "environment.kind", f"unknown environment kind {kind!r}")
    extra = set(data) - {"kind", key}
    chk.require(not extra, "environment", f"unknown keys {sorted(extra)}")
    path, entries = f"environment.{key}", data.get(key)
    chk.require(isinstance(entries, list) and entries, path, "expected a non-empty list")
    if kind == "fixed_path":
        return FixedPath([_parse_law(entry, f"{path}[{i}]", chk) for i, entry in enumerate(entries)])
    laws, weights = [], []
    for i, entry in enumerate(entries):
        epath = f"{path}[{i}]"
        chk.require(isinstance(entry, dict), epath, "expected a map")
        extra = set(entry) - {"law", "weight"}
        chk.require(not extra, epath, f"unknown keys {sorted(extra)}")
        laws.append(_parse_law(entry.get("law"), f"{epath}.law", chk))
        weight = entry.get("weight", 1.0 / len(entries))
        chk.require(_is_number(weight), f"{epath}.weight", "expected a number")
        weights.append(float(weight))
    try:
        return IIDMixture(laws, weights)
    except BpreLabError as exc:
        raise chk.fail(path, str(exc)) from exc


def _check_list(chk: _Checker, items, key: str, ok, msg: str) -> tuple:
    """A non-empty list without repeats whose items pass `ok`; `msg` may format the item."""
    chk.require(isinstance(items, list) and items, key, "expected a non-empty list")
    for i, item in enumerate(items):
        chk.require(ok(item), f"{key}[{i}]", msg.format(item))
    # a repeated entry would run a check twice
    for i, item in enumerate(items):
        chk.require(item not in items[:i], f"{key}[{i}]", f"duplicate entry {item!r}")
    return tuple(items)


def parse_config(data: dict, source: str = "<memory>", lines: dict[str, int] | None = None) -> ExperimentConfig:
    """Validate a config mapping; keys it leaves out take ExperimentConfig's defaults."""
    chk = _Checker(source, lines or {})
    chk.require(isinstance(data, dict), "", "config root must be a map")
    extra = set(data) - _TOP_KEYS
    chk.require(not extra, sorted(extra)[0] if extra else "", f"unknown keys {sorted(extra)}")
    chk.require(data.get("schema") == SCHEMA_VERSION, "schema", f"expected schema: {SCHEMA_VERSION}")
    given = {k: v for k, v in data.items() if not (v is None and k in _NULLABLE)}

    name = given.get("name")
    chk.require(isinstance(name, str) and name != "", "name", "expected a non-empty string")
    values = {
        "name": name,
        "env": _parse_environment(given.get("environment"), chk),
        "suites": _check_list(
            chk, given.get("suites"), "suites", lambda s: s in _SUITES,
            f"unknown suite {{!r}}; known: {list(_SUITES)}",
        ),
    }
    if "p" in given:
        p_list = _check_list(
            chk, given["p"], "p", lambda p: _is_number(p) and math.isfinite(p) and p > 1, "each p must be a number > 1"
        )
        ps = values["p"] = tuple(float(p) for p in p_list)
        # check ids carry p's tag, so two values that print alike would repeat ids
        tags = [p_tag(p) for p in ps]
        for i, tag in enumerate(tags):
            first = tags.index(tag)
            chk.require(first == i, f"p[{i}]", f"{ps[first]!r} and {ps[i]!r} give check ids the same tag {tag!r}")
    for key in (f.name for f in fields(ExperimentConfig) if f.name in _INT_MINIMUMS and f.name in given):
        value, minimum = given[key], _INT_MINIMUMS[key]
        chk.require(isinstance(value, int) and not isinstance(value, bool), key, "expected an integer")
        chk.require(value >= minimum, key, f"must be >= {minimum}")
        values[key] = value
    if "out" in given:
        chk.require(isinstance(given["out"], str) and given["out"] != "", "out", "expected a non-empty string")
        values["out"] = given["out"]
    return ExperimentConfig(**values, source=source, raw=data)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Load a config file, with `overrides` replacing top-level values before validation.

    An override is checked like a file value, and `raw` records it; an error
    in one names its key path without a line, since the value is not in the
    file (the lines of the file's own entries under that key are dropped).
    """
    path = str(path)
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        node, data = _parse_yaml(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        anchor = f"{path}:{mark.line + 1}" if mark else path
        raise ConfigError(f"{anchor}: not valid YAML: {exc}") from exc
    lines = _line_index(node)
    if overrides and isinstance(data, dict):
        data = {**data, **overrides}
        lines = {key: line for key, line in lines.items()
                 if re.split(r"[.\[]", key, maxsplit=1)[0] not in overrides}
    return parse_config(data, source=path, lines=lines)
