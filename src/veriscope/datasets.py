"""Claims-file ingestion for the benchmark datasets.

A dataset is a JSONL file of records carrying a "claim" sentence (a JSON
string), a gold "label" and an optional "id" (when it is missing, null or
empty, one is made from the dataset name and line number; any other value
is converted to a string); the descriptor names the file and the scheme.
Lines are read by types.read_jsonl: one that fails validation is logged
with its file name and line number and counted, never silently dropped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyDataset
from .types import ClaimPair, LabelScheme, read_jsonl

log = logging.getLogger(__name__)

CLAIM_FIELD, LABEL_FIELD, ID_FIELD = "claim", "label", "id"


@dataclass(frozen=True)
class DatasetDescriptor:
    name: str
    scheme: LabelScheme
    path: Path


def load_dataset(desc: DatasetDescriptor) -> list[ClaimPair]:
    """Load claims in file order; every kept record's gold label is in-scheme.

    A record repeating an earlier kept record's claim id is rejected, since
    the id names the claim's trace file.  Raises FileNotFoundError for a
    missing file and EmptyDataset when no valid record remains.
    Re-loading the same file yields the same list.
    """
    path = Path(desc.path)
    seen_ids: set[str] = set()

    def claim(record: dict, lineno: int) -> ClaimPair:
        text, label = record.get(CLAIM_FIELD), record.get(LABEL_FIELD)
        if not isinstance(text, str) or not text.strip():
            raise ValueError(f"{CLAIM_FIELD!r} is missing, empty or not a string")
        if label not in desc.scheme.labels:
            raise ValueError(f"label {label!r} not in scheme {desc.scheme.name!r}")
        claim_id = record.get(ID_FIELD)  # an id of 0 is an id
        claim_id = f"{desc.name}-{lineno:05d}" if claim_id in (None, "") else str(claim_id)
        if claim_id in seen_ids:
            raise ValueError(f"duplicate claim id {claim_id!r}")
        seen_ids.add(claim_id)
        return ClaimPair(id=claim_id, text=text.strip(), gold_label=label)

    claims, rejected = read_jsonl(path, claim)
    if not claims:
        raise EmptyDataset(f"{path}: no valid records ({rejected} rejected)")
    log.info("loaded %d claims from %s (%d rejected)", len(claims), path.name, rejected)
    return claims
