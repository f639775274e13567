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
        "run-manifest.json": "3e1b345218a75ce454e8140486d015bcc70eb865b03625112f996913d890efb3",
        "traces/c-001.json": "328ca81ff43846f8cd06bc4a73dd73e733008648efa90712a52b311b9d810759",
        "traces/c-002.json": "0bac90f94b66d02c86696fb133af0fe059961a64dc8c0237bc213cf7424198f2",
        "traces/c-003.json": "4c54aac2f787a460fada3d85b6231752e4c0ab9ace1532093c29c97c1598adc5",
        "traces/c-004.json": "d1894f7444937e77b8452eaea9c83a7468ffcacc9df1f98538f6a6eb76994431",
        "traces/c-005.json": "8f09b204f80575bda6239103c4fde5de7305e993fa71c1aa9e325f794c1f1090",
    },
    "original+negated": {
        "confidences.csv": "f0bf6269100ddf9ed09cf10706594d5aad823751a57ab4d7e3540695ed17dcfe",
        "evidence.jsonl": "f0ee3d41664bf4c1e88f759d3fbdd060387681fe96943ae40775e96de6ed2dff",
        "metrics.json": "b4b109c3adf2c31534b95a1d268a81c380755c7b7553d524941265f29aca2beb",
        "run-manifest.json": "528c08a4b83208b5ed8a5c9802f51b9a3ef76b923b7564afacc281e0cf396742",
        "traces/c-001.json": "2f515946a0dd715e99b483f93bec8ef1cd3957387cb212917ba977131313bd3f",
        "traces/c-002.json": "61ae5102326e5847a65b1ff149b7910aaed7d903ea1bd135ff8fce6220e12984",
        "traces/c-003.json": "9ae1511a51de9854f92c24c056eb748b056db9f38d16db5985948d61cf9c387d",
        "traces/c-004.json": "d6afb5093d12ede0989a42ffe17e2e5b62b77bcdd3d17de206784c323058d9f5",
        "traces/c-005.json": "dd260c4ce83d9f37bcdaa9fab0118bfe737e923a8dc7d81905658ec6ca0e9b58",
    },
}

GOLDEN_VERIFY = {
    "A deficiency of vitamin B12 increases homocysteine levels.": (
        "739df912110e56dbef3b78de3717e66b3933a1019c43992a1f7136770c2c2087"
    ),
    "Coffee causes dehydration.": (
        "0e58a4c54f38ad2a96c462e6f0cb75877f0e903839a89e79845da91b683b1238"
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
