"""Evidence staging: selection, symmetric-difference dedup, merge, rank, union.

Follows one claim through every evidence stage, printing the sets the
pipeline keeps and drops along the way.
"""

from veriscope import (
    PUBMED,
    ClaimPair,
    HashedBowEmbedder,
    LocalCorpusSource,
    PipelineConfig,
    Polarity,
    aggregate_sources,
    build_local_index,
    merge_segments,
    rank_and_truncate,
    select_evidence,
    symmetric_difference_dedup,
)
from veriscope.aggregation import EvidenceBundle, dedup_by_normalized
from veriscope.assets import fixture_path
from veriscope.selection import EmbeddingMemo

claim = ClaimPair(
    id="demo-2",
    text="A deficiency of vitamin B12 increases homocysteine levels.",
    negated_text="A surplus of vitamin B12 decreases homocysteine levels.",
)
cfg = PipelineConfig(retrieval_depth=3, selection_docs=3, sentences_per_doc=1, final_top_p=5)
# Selection and ranking score every text through one memo: it embeds each
# text once and returns its cosine similarity to the query.
memo = EmbeddingMemo(HashedBowEmbedder())
source = LocalCorpusSource(PUBMED, build_local_index(fixture_path("corpus_pubmed.jsonl")))


def show(title, sentences):
    print(f"\n{title}")
    if not sentences:
        print("  (empty)")
    for s in sentences:
        print(f"  [{s.doc_id}|{s.polarity.value}|sim {s.similarity:.3f}] {s.text}")


# 1. Retrieve documents for both polarities.
docs_pos = source.retrieve(claim.text, cfg.retrieval_depth)
docs_neg = source.retrieve(claim.negated_text, cfg.retrieval_depth)

# 2. Per polarity, keep the sentence most similar to the retrieving query.
positive = select_evidence(claim.text, docs_pos, memo, cfg, polarity=Polarity.FROM_CLAIM)
negative = select_evidence(
    claim.negated_text, docs_neg, memo, cfg, polarity=Polarity.FROM_NEGATION
)
show("Positive evidence (retrieved via the claim):", positive)
show("Negative evidence (retrieved via the negation):", negative)

# 3. Symmetric difference: sentences surfaced by BOTH queries are contested
#    and dropped entirely.
candidates = symmetric_difference_dedup(positive, negative)
show("After symmetric-difference dedup:", candidates)
dropped = {s.normalized for s in positive} & {s.normalized for s in negative}
print(f"  ({len(dropped)} contested sentence(s) dropped)")

# 4. Merge split segments, then re-rank everything against the original claim.
candidates = dedup_by_normalized(merge_segments(candidates, dangling_merge=cfg.merge_heuristic))
final = rank_and_truncate(candidates, claim.text, memo, cfg.final_top_p)
show(f"Final per-source evidence (top {cfg.final_top_p}, ranked vs the claim):", final)

# 5. Union across sources. With one source this is just its final set, but
#    the provenance bookkeeping is identical.
bundle = EvidenceBundle(
    positive=tuple(positive), negative=tuple(negative),
    candidates=tuple(candidates), final=tuple(final),
)
aggregated = aggregate_sources({PUBMED: bundle})
show("Aggregated evidence handed to the verifier:", aggregated.sentences)
