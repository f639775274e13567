"""Evidence deduplication, segment merging, ranking, and cross-source union.

The positive and negative evidence sets for one source are combined by
symmetric difference on normalized text: a sentence surfaced by both the
claim and its negation is dropped entirely.  Survivors are fused where a
source split one sentence across segments, re-ranked against the
original claim, truncated to the per-source budget, and finally unioned
across sources into the evidence set handed to the verifier.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import RankingFailed
from .selection import EmbeddingMemo, EvidenceSentence, Polarity
from .types import JsonRecord, SourceKind, source_order_key

SEGMENT_MARKER = "[SEP]"
_TERMINAL_PUNCTUATION = (".", "!", "?")


_STAGES = ("positive", "negative", "candidates", "final")


@dataclass(frozen=True)
class EvidenceBundle(JsonRecord):
    """Staged evidence sets of one (claim, source) pair, the keys a bundle is stored under.

    positive/negative are the selection outputs for the claim and its
    negation; candidates is the deduplicated+merged pool; final is the
    ranked, truncated evidence actually used for the verdict.
    """

    positive: tuple[EvidenceSentence, ...] = ()
    negative: tuple[EvidenceSentence, ...] = ()
    candidates: tuple[EvidenceSentence, ...] = ()
    final: tuple[EvidenceSentence, ...] = ()

    def __post_init__(self):
        for name in _STAGES:
            object.__setattr__(self, name, tuple(getattr(self, name)))


@dataclass(frozen=True)
class AggregatedEvidence:
    """The cross-source evidence union fed to the verifier; each sentence keeps its source."""

    sentences: tuple[EvidenceSentence, ...]


def dedup_by_normalized(sentences: Iterable[EvidenceSentence]) -> list[EvidenceSentence]:
    """Collapse sentences sharing a normalized form to the first occurrence."""
    seen: set[str] = set()
    kept: list[EvidenceSentence] = []
    for sentence in sentences:
        if sentence.normalized in seen:
            continue
        seen.add(sentence.normalized)
        kept.append(sentence)
    return kept


def symmetric_difference_dedup(
    positive: Sequence[EvidenceSentence],
    negative: Sequence[EvidenceSentence],
) -> list[EvidenceSentence]:
    """Symmetric difference of the two evidence lists, keyed by normalized text.

    A normalized form present in both lists is dropped entirely; within
    each surviving side, duplicates collapse to the first occurrence.
    Output order: positives in original order, then negatives.
    """
    contested = {s.normalized for s in positive} & {s.normalized for s in negative}
    kept = [s for s in [*positive, *negative] if s.normalized not in contested]
    return dedup_by_normalized(kept)


def _joinable(left_text: str, right_text: str, dangling_merge: bool) -> bool:
    left = left_text.rstrip()
    right = right_text.lstrip()
    if left.endswith(SEGMENT_MARKER) or right.startswith(SEGMENT_MARKER):
        return True
    if not dangling_merge:
        return False
    return bool(left) and bool(right) and not left.endswith(_TERMINAL_PUNCTUATION) and right[:1].islower()


def _join_texts(left_text: str, right_text: str) -> str:
    left = left_text.rstrip()
    right = right_text.lstrip()
    if left.endswith(SEGMENT_MARKER):
        left = left[: -len(SEGMENT_MARKER)].rstrip()
    if right.startswith(SEGMENT_MARKER):
        right = right[len(SEGMENT_MARKER) :].lstrip()
    return f"{left} {right}"


def merge_segments(
    candidates: Sequence[EvidenceSentence],
    dangling_merge: bool = True,
) -> list[EvidenceSentence]:
    """Fuse adjacent same-document candidates that are fragments of one sentence.

    Fragments are joined when they carry an explicit segment marker
    ("[SEP]") or, with dangling_merge enabled, when the left piece lacks
    terminal punctuation and the right piece starts lowercase.  A fused
    sentence keeps the highest similarity among its parts.
    """
    merged: list[EvidenceSentence] = []
    for candidate in candidates:
        if merged:
            previous = merged[-1]
            if previous.doc_id == candidate.doc_id and _joinable(
                previous.text, candidate.text, dangling_merge
            ):
                merged[-1] = dataclasses.replace(
                    previous,
                    text=_join_texts(previous.text, candidate.text),
                    similarity=max(previous.similarity, candidate.similarity),
                )
                continue
        merged.append(candidate)
    return merged


def rank_and_truncate(
    candidates: Sequence[EvidenceSentence],
    claim_text: str,
    memo: EmbeddingMemo,
    p: int,
) -> list[EvidenceSentence]:
    """Re-rank candidates by similarity to the original claim; keep the top p.

    Similarities are recomputed against the claim, through
    memo.similarities, regardless of which query surfaced a candidate.
    Ties prefer claim-derived evidence, then the earlier original
    position.  Zero-vector candidates are skipped; a zero claim vector
    (no similarity of the claim to itself) raises RankingFailed.  An
    embedding failure propagates unchanged.  Each kept candidate comes
    back through EvidenceSentence.rescored: equal to a sentence built
    fresh with the new similarity, its normalized text is not recomputed.
    """
    if not candidates:
        return []
    sims = memo.similarities(claim_text, [claim_text] + [c.text for c in candidates])
    if sims[0] is None:
        raise RankingFailed("claim embedded to a zero vector")
    # (-sim, polarity rank, position) orders without a key function; positions are unique
    rescored: list[tuple[float, int, int, EvidenceSentence]] = []
    for position, (candidate, sim) in enumerate(zip(candidates, sims[1:])):
        if sim is None:
            continue
        polarity_rank = 0 if candidate.polarity is Polarity.FROM_CLAIM else 1
        rescored.append((-sim, polarity_rank, position, candidate))
    rescored.sort()
    return [candidate.rescored(-negated_sim) for negated_sim, _, _, candidate in rescored[:p]]


def aggregate_sources(bundles: Mapping[SourceKind, EvidenceBundle]) -> AggregatedEvidence:
    """Union the per-source final evidence sets, deduplicated by normalized text.

    Sources are visited in the fixed order wikipedia, pubmed, web, then
    others by name; the first source contributing a normalized form wins
    provenance.
    """
    sentences = dedup_by_normalized(
        [s for kind in sorted(bundles, key=source_order_key) for s in bundles[kind].final]
    )
    return AggregatedEvidence(tuple(sentences))

