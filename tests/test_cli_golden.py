"""Replay the golden CLI corpus (tests/data/cli_golden.json) byte for byte."""

import json

import pytest

from cli_golden import GOLDEN, cases, invoke, write_inputs

RECORDS = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_inputs(root)
    return root


def test_corpus_lists_every_case():
    assert [{"argv": r["argv"]} for r in RECORDS] == cases()


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_bytes_match_corpus(record, inputs):
    assert invoke(record, inputs) == record
