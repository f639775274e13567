"""Dual retrieval: query a local BM25 index with a claim and its negation.

Builds an in-memory index over the bundled biomedical-style fixture
corpus, generates a negated counterpart for a claim, and shows how the
two queries surface different documents.
"""

from veriscope import (
    PUBMED,
    ClaimPair,
    LocalCorpusSource,
    PipelineConfig,
    build_local_index,
    negate_claim,
)
from veriscope.assets import fixture_path
from veriscope.mock import mock_negator

claim = ClaimPair(
    id="demo-1",
    text="A deficiency of vitamin B12 increases homocysteine levels.",
)

print("Claim:", claim.text)

# 1. Negate the claim. The fixture provider mirrors what an LLM endpoint
#    would return; unknown claims fall back to the crude rule-based negator.
claim = negate_claim(claim, mock_negator())
print("Negation:", claim.negated_text)

# 2. Build a local index over the bundled abstracts corpus.
index = build_local_index(fixture_path("corpus_pubmed.jsonl"))
print(f"\nIndexed {index.doc_count} documents, {index.term_count} terms.")

# 3. Retrieve for both the claim and its negation: two separate queries
#    whose result lists never mix (verify_claim does the same per source).
source = LocalCorpusSource(PUBMED, index)
cfg = PipelineConfig(retrieval_depth=3, selection_docs=3)
docs_pos = source.retrieve(claim.text, cfg.retrieval_depth)
docs_neg = source.retrieve(claim.negated_text, cfg.retrieval_depth)

print("\nTop documents for the claim:")
for doc in docs_pos:
    print(f"  #{doc.rank} {doc.doc_id} (bm25 {doc.score:.3f}) {doc.title}")

print("\nTop documents for the negation:")
for doc in docs_neg:
    print(f"  #{doc.rank} {doc.doc_id} (bm25 {doc.score:.3f}) {doc.title}")

only_negation = {d.doc_id for d in docs_neg} - {d.doc_id for d in docs_pos}
print(f"\nDocuments reachable only through the negation: {sorted(only_negation)}")
print("That extra document is where the contradicting evidence lives.")
