"""Parity: the 19 bundled cases print and write what tests/parity.json records (see parity.py).

Under the numpy version the file was written with, every digest must hold: a
case that moved is named with the check ids whose (passed, observed) moved,
appeared or went, and its other parts that moved. Under another numpy the
streams, and so the digests, need not hold; the test then holds only each
case's check ids, which follow from the config alone.
"""

import json

import numpy as np
import pytest

import parity


@pytest.fixture(scope="module")
def recorded():
    return json.loads(parity.FILE.read_text())


@pytest.fixture(scope="module")
def fresh():
    return parity.compute()["cases"]


def test_the_file_records_every_case(recorded):
    assert list(recorded["cases"]) == sorted(parity.cases()) and len(recorded["cases"]) == 19


def test_every_case_matches_the_file(recorded, fresh):
    if recorded["versions"]["numpy"] == np.__version__:
        assert not (moved := parity.differences(recorded["cases"], fresh)), "\n".join(moved)
    else:
        ids = {name: sorted(case.get("checks", {})) for name, case in recorded["cases"].items()}
        assert ids == {name: sorted(case.get("checks", {})) for name, case in fresh.items()}


def test_differences_name_the_moved_check_ids():
    old = {"case": {"exit_code": 0, "report": "a", "checks": {"x": "1", "y": "2", "z": "3"}}}
    new = {"case": {"exit_code": 2, "report": "b", "checks": {"x": "1", "y": "9", "w": "4"}}}
    assert parity.differences(old, old) == []
    assert parity.differences(old, new) == [
        "case: checks moved ['y'], added ['w'], removed ['z']; other parts moved ['exit_code', 'report']"]
