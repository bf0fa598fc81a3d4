"""The serving parity ledger: wire bodies and append bytes stay put.

``ledger.json`` was written by ``_generate_ledger.py`` before the code it
guards last changed (see that module).  Every query verb's wire body, with
default params and each optional field moved, must come out byte for byte
the same, and so must the HTTP append path's response bodies and the
SHA-256 of every file it leaves.
"""

from __future__ import annotations

import json

import pytest

from ._generate_ledger import LEDGER_PATH, _wire_cases, append_ledger, wire_ledger


def _canonical(body) -> str:
    """A stored body back as ``protocol.dumps`` text (repr floats)."""
    return json.dumps(body, separators=(",", ":"))


@pytest.fixture(scope="module")
def ledger():
    return json.loads(LEDGER_PATH.read_text())


@pytest.fixture(scope="module")
def wire(tmp_path_factory):
    return wire_ledger(tmp_path_factory.mktemp("wire"))


def test_the_ledger_covers_every_verb(ledger):
    from repro.query.verbs import VERBS

    assert {case.split("/")[0] for case in ledger["wire"]} == set(VERBS)
    assert list(ledger["wire"]) == [case for case, _, _ in _wire_cases(None)]


@pytest.mark.parametrize("case", [case for case, _, _ in _wire_cases(None)])
def test_wire_body_matches_the_ledger(ledger, wire, case):
    assert wire[case] == _canonical(ledger["wire"][case])


def test_append_path_matches_the_ledger(ledger, tmp_path):
    got = append_ledger(tmp_path)
    expected = ledger["append"]
    assert got["responses"] == [_canonical(body) for body in expected["responses"]]
    assert got["files"] == expected["files"]
