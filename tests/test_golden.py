"""Golden sha256 digests of the deterministic mock-mode outputs.

Covers every file of `veriscope evaluate --mock` under both claim
conditions, plus `verify --mock --json` for a fixture claim and for a
claim outside the fixtures (rule-based negation fallback).  Any change
to a byte of a trace, the run manifest, the evidence union, the
confidence table, the metrics or the verify JSON fails here.  Re-record
the table only when an output format is meant to change.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from veriscope.cli import main

GOLDEN_EVALUATE = {
    "original": {
        "confidences.csv": "278fc32911d782528556a744d56d078169380870ad34f1b9a66a5388c732516d",
        "evidence.jsonl": "6b347aec311bd28723877ce4ff478d218b02aecd7fc0ed691191bd6986e4dd16",
        "metrics.json": "30f743f306ea408248452c06164733e9d4ec5d57c2eed373f274af8d21865ab8",
        "run-manifest.json": "760c42a3900c7d0f7640c23fc1a57cad2e9b553d6e49e0e649d420c98c94af06",
        "traces/c-001.json": "ceacee3ce573563f189e45a4bf5051868ae50c74179ce33dce1ca8aa582c345d",
        "traces/c-002.json": "b22aef2b7861bfad0fc81e6b4cb77c6769520e98bc7067661477020a1d1828dd",
        "traces/c-003.json": "7d8aac8805477f5af20c14daae35bbee06e760a06b1162ed7667948266f1bf3f",
        "traces/c-004.json": "6840cc768890ddb30aed0a03d3f36fcbe0405f4e5579acf5932020e90707b437",
        "traces/c-005.json": "e27e253ebceb7483d0cff1aba2c8ecd908144e0f1cef311a2962c2629ea2c663",
    },
    "original+negated": {
        "confidences.csv": "f0bf6269100ddf9ed09cf10706594d5aad823751a57ab4d7e3540695ed17dcfe",
        "evidence.jsonl": "f0ee3d41664bf4c1e88f759d3fbdd060387681fe96943ae40775e96de6ed2dff",
        "metrics.json": "b4b109c3adf2c31534b95a1d268a81c380755c7b7553d524941265f29aca2beb",
        "run-manifest.json": "aeae5842f9cbf63e4f7b5634e8d406430f8d726bc259d1c10909574963a7d222",
        "traces/c-001.json": "e7c5505b0cc44bd845f8f1d90c5efbfc2038196784aa3b86d2272742420fe3f0",
        "traces/c-002.json": "b0b7f9c6f86ca67fa774b9c3715bb837ae19d28e7ebcbe8910301fc18ae5d7ab",
        "traces/c-003.json": "021d786c95be30eca2de215a2de7ab8ae6befd188c38245f28a7ca5166d5eb5e",
        "traces/c-004.json": "bb999254e27cf21f5164622aa015390fba17ace813ae4b5036e63b5b5490bd73",
        "traces/c-005.json": "4d14d8ac6b98b19e91a8fe880a3d21aabacb8faff52ff50e9f203c6517ffeab5",
    },
}

GOLDEN_VERIFY = {
    "A deficiency of vitamin B12 increases homocysteine levels.": (
        "d4efd85ed2edae0f2c0a18e77a0597e50bc873d68f5dded0842b9cade0bb3d7e"
    ),
    "Coffee causes dehydration.": (
        "f5a0e44ee454d766208a790d4dee3735cd14d3cd8f27faef44633c2c5cb389ce"
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digests(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): _sha256(p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("condition", sorted(GOLDEN_EVALUATE))
def test_evaluate_mock_artifacts(condition, tmp_path):
    out = tmp_path / "run"
    result = CliRunner().invoke(
        main, ["evaluate", "--mock", "--condition", condition, "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert _tree_digests(out) == GOLDEN_EVALUATE[condition]


@pytest.mark.parametrize("claim", sorted(GOLDEN_VERIFY))
def test_verify_mock_json(claim):
    result = CliRunner().invoke(main, ["verify", claim, "--mock", "--json"])
    assert result.exit_code == 0, result.output
    assert _sha256(result.stdout_bytes) == GOLDEN_VERIFY[claim]


#: Values a trace derives on decode (trace format 3), so none is ever stored.
DERIVED_KEYS = {"normalized", "aggregated", "profile", "label", "confidence"}


def _keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for item in node:
            yield from _keys(item)


def assert_stored_once(trace: dict) -> None:
    """No derived value, the claim id only as claim.id, no source under a source key."""
    keys = set(_keys(trace))
    assert not keys & DERIVED_KEYS
    assert "claim_id" not in keys
    assert trace["claim"]["id"]
    for group in ("bundles", "verdicts"):
        assert not any("source" in entry for entry in trace[group].values())


@pytest.mark.parametrize("condition", sorted(GOLDEN_EVALUATE))
def test_traces_store_each_fact_once(condition, tmp_path):
    out = tmp_path / "run"
    result = CliRunner().invoke(
        main, ["evaluate", "--mock", "--condition", condition, "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    traces = sorted((out / "traces").glob("*.json"))
    assert len(traces) == 5
    for path in traces:
        assert_stored_once(json.loads(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("claim", sorted(GOLDEN_VERIFY))
def test_verify_json_stores_each_fact_once(claim):
    result = CliRunner().invoke(main, ["verify", claim, "--mock", "--json"])
    assert result.exit_code == 0, result.output
    assert_stored_once(json.loads(result.stdout))
