"""Fully offline provider set backed by bundled fixtures.

Mock mode never opens a network socket: the three knowledge sources are
local BM25 indexes over small bundled corpora, negations come from a
canned table (with the rule-based negator as fallback for unseen
claims), embeddings are hashed bag-of-words vectors, and verdicts come
from deterministic substring rules over the rendered evidence.
"""

from __future__ import annotations

from .assets import fixture_path
from .index import build_local_index
from .negation import FixtureNegationProvider, RuleBasedNegator
from .pipeline import ProviderSet
from .selection import HashedBowEmbedder
from .sources import LocalCorpusSource
from .types import PUBMED, WEB, WIKIPEDIA, PipelineConfig, parse_json
from .verdict import RuleVerdictProvider

#: (claim marker, evidence marker, letter) rules for the mock verdict
#: provider, checked in order.  Letters refer to the 3-way scheme
#: (A Supported, B Refuted, C Not Enough Info).
MOCK_VERDICT_RULES = (
    ("Zinc lozenges", "fails to reduce how long a cold lasts", "B"),
    ("Antibiotics", "not an effective treatment for viral infections", "B"),
    ("Antibiotics", "are ineffective against viral infections", "B"),
    ("Antibiotics", "do not treat viral infections", "B"),
    ("Great Wall", "not visible from the Moon", "B"),
    ("vitamin B12", "increases homocysteine", "A"),
    ("vitamin B12", "raises homocysteine", "A"),
    ("eight glasses of water", "is not supported by strong evidence", "C"),
)

#: Pipeline knobs sized for the bundled fixture corpora.
MOCK_CONFIG = PipelineConfig(
    retrieval_depth=3,
    selection_docs=3,
    sentences_per_doc=1,
    final_top_p=5,
    seed=7,
)


def mock_claims_path():
    """Path of the bundled 5-claim fixture set (scifact scheme)."""
    return fixture_path("claims.jsonl")


def mock_negations() -> dict[str, str]:
    return parse_json(fixture_path("negations.json").read_text(encoding="utf-8"), dict, "negations.json")


def mock_negator() -> FixtureNegationProvider:
    """The bundled negations, with the rule-based negator for any other claim."""
    return FixtureNegationProvider(mock_negations(), fallback=RuleBasedNegator())


def mock_provider_set() -> ProviderSet:
    """Build the full offline provider set over the bundled corpora."""
    sources = {
        WIKIPEDIA: LocalCorpusSource(WIKIPEDIA, build_local_index(fixture_path("corpus_wikipedia.jsonl"))),
        PUBMED: LocalCorpusSource(PUBMED, build_local_index(fixture_path("corpus_pubmed.jsonl"))),
        WEB: LocalCorpusSource(WEB, build_local_index(fixture_path("corpus_web.jsonl"))),
    }
    return ProviderSet(
        sources=sources,
        embedder=HashedBowEmbedder(),
        verdicts=RuleVerdictProvider(MOCK_VERDICT_RULES, default_letter="C"),
        negator=mock_negator(),
    )
