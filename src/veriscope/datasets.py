"""Claims-file ingestion for the benchmark datasets.

A dataset is a JSONL file of records carrying a "claim" sentence, a gold
"label" and an optional "id" (when it is missing, null or empty, one is
made from the dataset name and line number); the descriptor names the
file and the scheme.
Records that fail validation are logged with their line number and
counted, never silently dropped.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyDataset
from .types import ClaimPair, LabelScheme

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
    if not path.exists():
        raise FileNotFoundError(f"claims file not found: {path}")
    claims: list[ClaimPair] = []
    seen_ids: set[str] = set()
    rejected = 0
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            reason = None
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                record, reason = None, f"invalid JSON ({exc.msg})"
            if reason is None and not isinstance(record, dict):
                reason = "record is not an object"
            if reason is None:
                text = str(record.get(CLAIM_FIELD, "") or "")
                label = record.get(LABEL_FIELD)
                if not text.strip():
                    reason = f"missing or empty {CLAIM_FIELD!r}"
                elif label not in desc.scheme.labels:
                    reason = f"label {label!r} not in scheme {desc.scheme.name!r}"
                else:
                    claim_id = record.get(ID_FIELD)  # an id of 0 is an id
                    claim_id = f"{desc.name}-{lineno:05d}" if claim_id in (None, "") else str(claim_id)
                    if claim_id in seen_ids:
                        reason = f"duplicate claim id {claim_id!r}"
            if reason is not None:
                rejected += 1
                log.warning("%s line %d rejected: %s", path.name, lineno, reason)
                continue
            seen_ids.add(claim_id)
            claims.append(ClaimPair(id=claim_id, text=text.strip(), gold_label=label))
    if not claims:
        raise EmptyDataset(f"{path}: no valid records ({rejected} rejected)")
    log.info("loaded %d claims from %s (%d rejected)", len(claims), path.name, rejected)
    return claims
