"""End-to-end verification of a single claim.

Stage order per claim: negate (when the condition asks for it),
retrieve per source for both the claim and its negation, select
sentence evidence per polarity, deduplicate by symmetric difference,
merge split segments, rank against the original claim and truncate,
union across sources, then predict one verdict per source plus one over
the merged evidence.  Sources are queried concurrently; a failing
source is recorded and the rest proceed.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .aggregation import (
    AggregatedEvidence,
    EvidenceBundle,
    aggregate_sources,
    dedup_by_normalized,
    merge_segments,
    rank_and_truncate,
    symmetric_difference_dedup,
)
from .analysis import SourceConfidenceProfile, build_profile
from .errors import ConfigurationError, ProviderUnavailable, RankingFailed, SourceUnavailable
from .negation import NegationProvider, negate_claim
from .selection import EmbeddingProvider, Polarity, select_evidence
from .sources import KnowledgeSource
from .types import MERGED, ClaimPair, JsonRecord, LabelScheme, PipelineConfig, SourceKind, source_order_key
from .verdict import VeracityVerdict, VerdictProvider, abstain_verdict, predict_verdict

log = logging.getLogger(__name__)


class ClaimCondition(Enum):
    """Which queries drive retrieval: the claim alone, or claim + negation."""

    ORIGINAL_ONLY = "original"
    ORIGINAL_PLUS_NEGATED = "original+negated"


@dataclass
class ProviderSet:
    """Everything verify_claim needs besides the claim itself."""

    sources: Mapping[SourceKind, KnowledgeSource]
    embedder: EmbeddingProvider
    verdicts: VerdictProvider
    negator: NegationProvider | None = None

    def describe(self) -> dict:
        return {
            "sources": {kind.name: type(src).__name__ for kind, src in self.sources.items()},
            "embedder": type(self.embedder).__name__,
            "verdicts": type(self.verdicts).__name__,
            "negator": type(self.negator).__name__ if self.negator else None,
        }


@dataclass
class ClaimVerification(JsonRecord):
    """Full trace of one claim through the pipeline."""

    claim: ClaimPair
    condition: ClaimCondition
    bundles: dict[SourceKind, EvidenceBundle]
    aggregated: AggregatedEvidence
    verdicts: dict[SourceKind, VeracityVerdict]
    profile: SourceConfidenceProfile
    source_errors: dict[SourceKind, str] = field(default_factory=dict)


def verify_claim(
    claim: ClaimPair,
    providers: ProviderSet,
    scheme: LabelScheme,
    template: str,
    cfg: PipelineConfig | None = None,
    condition: ClaimCondition = ClaimCondition.ORIGINAL_PLUS_NEGATED,
) -> ClaimVerification:
    """Run the full pipeline for one claim and return its trace.

    Under ORIGINAL_ONLY no negation provider is consulted and the
    deduplication stage reduces to plain duplicate removal over the
    positive evidence.  Per-source retrieval failures and per-verdict
    provider failures become recorded abstentions; only configuration
    errors abort.
    """
    cfg = cfg or PipelineConfig()
    dual = condition is ClaimCondition.ORIGINAL_PLUS_NEGATED
    if dual and claim.negated_text is None:
        if providers.negator is None:
            raise ConfigurationError(
                "condition original+negated needs a negation provider or pre-negated claims"
            )
        claim = negate_claim(claim, providers.negator)

    kinds = sorted(providers.sources, key=source_order_key)
    source_errors: dict[SourceKind, str] = {}
    retrieved: dict[SourceKind, tuple[list, list]] = {}
    # one retrieval task per source per polarity
    with ThreadPoolExecutor(max_workers=max(1, 2 * len(kinds))) as pool:
        futures = {}
        for kind in kinds:
            source = providers.sources[kind]
            futures[(kind, Polarity.FROM_CLAIM)] = pool.submit(
                source.retrieve, claim.text, cfg.retrieval_depth
            )
            if dual:
                futures[(kind, Polarity.FROM_NEGATION)] = pool.submit(
                    source.retrieve, claim.negated_text, cfg.retrieval_depth
                )
        for kind in kinds:
            try:
                docs_pos = futures[(kind, Polarity.FROM_CLAIM)].result()
                docs_neg = (
                    futures[(kind, Polarity.FROM_NEGATION)].result() if dual else []
                )
                retrieved[kind] = (docs_pos, docs_neg)
            except SourceUnavailable as exc:
                log.warning("source %s unavailable for claim %s: %s", kind, claim.id, exc)
                source_errors[kind] = str(exc)
                retrieved[kind] = ([], [])

    bundles: dict[SourceKind, EvidenceBundle] = {}
    for kind in kinds:
        docs_pos, docs_neg = retrieved[kind]
        positive = select_evidence(
            claim.text, docs_pos, providers.embedder, cfg, polarity=Polarity.FROM_CLAIM
        )
        negative = (
            select_evidence(
                claim.negated_text, docs_neg, providers.embedder, cfg,
                polarity=Polarity.FROM_NEGATION,
            )
            if dual and docs_neg
            else []
        )
        candidates = dedup_by_normalized(
            merge_segments(
                symmetric_difference_dedup(positive, negative),
                dangling_merge=cfg.merge_heuristic,
            )
        )
        try:
            final = rank_and_truncate(candidates, claim.text, providers.embedder, cfg.final_top_p)
        except RankingFailed as exc:
            log.warning("ranking failed for claim %s source %s: %s", claim.id, kind, exc)
            source_errors.setdefault(kind, str(exc))
            final = []
        bundles[kind] = EvidenceBundle(
            claim_id=claim.id,
            source=kind,
            positive=tuple(positive),
            negative=tuple(negative),
            candidates=tuple(candidates),
            final=tuple(final),
        )

    aggregated = aggregate_sources(bundles, claim_id=claim.id)

    verdicts: dict[SourceKind, VeracityVerdict] = {}
    for kind in kinds:
        if kind in source_errors:
            verdicts[kind] = abstain_verdict(claim.id, kind, scheme)
            continue
        try:
            verdicts[kind] = predict_verdict(
                claim, bundles[kind], providers.verdicts, scheme, template, source=kind
            )
        except ProviderUnavailable as exc:
            log.warning("verdict provider failed for claim %s source %s: %s", claim.id, kind, exc)
            source_errors[kind] = str(exc)
            verdicts[kind] = abstain_verdict(claim.id, kind, scheme)
    try:
        verdicts[MERGED] = predict_verdict(
            claim, aggregated, providers.verdicts, scheme, template, source=MERGED
        )
    except ProviderUnavailable as exc:
        log.warning("verdict provider failed for claim %s merged: %s", claim.id, exc)
        source_errors[MERGED] = str(exc)
        verdicts[MERGED] = abstain_verdict(claim.id, MERGED, scheme)

    profile = build_profile(claim.id, verdicts)
    return ClaimVerification(
        claim=claim,
        condition=condition,
        bundles=bundles,
        aggregated=aggregated,
        verdicts=verdicts,
        profile=profile,
        source_errors=source_errors,
    )
