"""Golden sha256 digests of the deterministic mock-mode outputs.

Covers every file of `veriscope evaluate --mock` under both claim
conditions, plus `verify --mock --json` for a fixture claim and for a
claim outside the fixtures (rule-based negation fallback).  Any change
to a byte of a trace, the run manifest, the evidence union, the
confidence table, the metrics or the verify JSON fails here.  Re-record
the table only when an output format is meant to change.
"""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from veriscope.cli import main

GOLDEN_EVALUATE = {
    "original": {
        "confidences.csv": "278fc32911d782528556a744d56d078169380870ad34f1b9a66a5388c732516d",
        "evidence.jsonl": "6b347aec311bd28723877ce4ff478d218b02aecd7fc0ed691191bd6986e4dd16",
        "metrics.json": "30f743f306ea408248452c06164733e9d4ec5d57c2eed373f274af8d21865ab8",
        "run-manifest.json": "5098a859ff3183e1dc25c590ad3702c63df14fe959c7888625b57df0eaa00c90",
        "traces/c-001.json": "54627dea7f681fb1ca3a096186e38c0c2641b5d3b625027bd5e749a32ac49ef5",
        "traces/c-002.json": "c35d5bc0a80c5f507986cbc1b3887fae3d8a9cdd0576ff22ca711fc4973e5aae",
        "traces/c-003.json": "7887fa9c267a7beff9a2a8eb0b182d785979a48471f0e8408bcc4728525e0d27",
        "traces/c-004.json": "fe725dd97acd6f74a7408610f7cc2fbd3665a5d851f21ad6507c143582f679a7",
        "traces/c-005.json": "b3b5bc8d097bcb199674d2a67cc15b33687eb09da6da78bf4ee263b8eabe599b",
    },
    "original+negated": {
        "confidences.csv": "f0bf6269100ddf9ed09cf10706594d5aad823751a57ab4d7e3540695ed17dcfe",
        "evidence.jsonl": "f0ee3d41664bf4c1e88f759d3fbdd060387681fe96943ae40775e96de6ed2dff",
        "metrics.json": "b4b109c3adf2c31534b95a1d268a81c380755c7b7553d524941265f29aca2beb",
        "run-manifest.json": "dda98b271b596b051c3f85326b4f837a74a84d16022f6d54a8c792ca5f3b246a",
        "traces/c-001.json": "2bfab0d602cf3ac8c936047be7a62a429465b269623110464cbd25e50e508d07",
        "traces/c-002.json": "35ce9daf062218c559b186b4c48959985606f4ce5c3029ae6a2988ebfba71ae1",
        "traces/c-003.json": "a8ecfdd8ff57834605683a925ae252275e47e1b14d0fbed23cb06f8ee87e6456",
        "traces/c-004.json": "e681ea158f64d9f36ef64d3d35ebd3dcda17b3dffe09e5d07842c17e9b7ea25e",
        "traces/c-005.json": "b104c775913bfe2b4c49ec8584c86d2e43a076b4db414272cfd301fb6d70612a",
    },
}

GOLDEN_VERIFY = {
    "A deficiency of vitamin B12 increases homocysteine levels.": (
        "bdd324965a0af6946ea6406d52b93579e24241890537c5b995b1add796371f55"
    ),
    "Coffee causes dehydration.": (
        "23e58b2e43c73aa08ea09b068ae8c5274a8ed7826e320d2ce27a0098da4be4a6"
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
