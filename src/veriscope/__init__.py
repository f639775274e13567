"""Dual-perspective, multi-source claim verification.

Claims are paired with generated negations, both are used to retrieve
evidence from several knowledge sources, the per-source evidence sets
are deduplicated by symmetric difference and unioned, and a pluggable
zero-shot verdict provider labels each claim per source and over the
merged evidence.  Per-source confidence log-probabilities quantify
inter-source disagreement.

The names in __all__ are the public surface; everything else is
reached through its submodule.
"""

from .aggregation import (
    aggregate_sources,
    merge_segments,
    rank_and_truncate,
    symmetric_difference_dedup,
)
from .analysis import agreement_regime, dispersion, kde
from .assets import load_prompt, load_scheme
from .bm25 import tokenize
from .datasets import DatasetDescriptor
from .errors import VeriscopeError
from .experiment import ExperimentPlan, run_experiment
from .index import LocalIndex, build_local_index
from .negation import RemoteNegationProvider, RuleBasedNegator, negate_claim
from .pipeline import ClaimCondition, ProviderSet, verify_claim
from .selection import (
    EvidenceSentence,
    HashedBowEmbedder,
    Polarity,
    RemoteEmbedder,
    select_evidence,
)
from .sources import BiomedicalSource, LocalCorpusSource, WebSearchSource
from .types import (
    CANONICAL_SOURCES,
    MERGED,
    PUBMED,
    WEB,
    WIKIPEDIA,
    ClaimPair,
    PipelineConfig,
    SourceKind,
    normalize_sentence,
    split_sentences,
)
from .verdict import (
    LabelLogits,
    RemoteVerdictProvider,
    RuleVerdictProvider,
    build_prompt,
    confidence_from_logits,
    predict_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "BiomedicalSource",
    "CANONICAL_SOURCES",
    "ClaimCondition",
    "ClaimPair",
    "DatasetDescriptor",
    "EvidenceSentence",
    "ExperimentPlan",
    "HashedBowEmbedder",
    "LabelLogits",
    "LocalCorpusSource",
    "LocalIndex",
    "MERGED",
    "PUBMED",
    "PipelineConfig",
    "Polarity",
    "ProviderSet",
    "RemoteEmbedder",
    "RemoteNegationProvider",
    "RemoteVerdictProvider",
    "RuleBasedNegator",
    "RuleVerdictProvider",
    "SourceKind",
    "VeriscopeError",
    "WEB",
    "WIKIPEDIA",
    "WebSearchSource",
    "aggregate_sources",
    "agreement_regime",
    "build_local_index",
    "build_prompt",
    "confidence_from_logits",
    "dispersion",
    "kde",
    "load_prompt",
    "load_scheme",
    "merge_segments",
    "negate_claim",
    "normalize_sentence",
    "predict_verdict",
    "rank_and_truncate",
    "run_experiment",
    "select_evidence",
    "split_sentences",
    "symmetric_difference_dedup",
    "tokenize",
    "verify_claim",
]
