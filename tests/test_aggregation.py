import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixtureEmbedder, make_sentence
from veriscope.aggregation import (
    EvidenceBundle,
    aggregate_sources,
    dedup_by_normalized,
    merge_segments,
    rank_and_truncate,
    symmetric_difference_dedup,
)
from veriscope.errors import ProviderUnavailable, RankingFailed
from veriscope.pipeline import ClaimCondition, ClaimVerification
from veriscope.selection import EmbeddingMemo, EvidenceSentence, Polarity
from veriscope.types import (
    MERGED,
    PUBMED,
    WEB,
    WIKIPEDIA,
    ClaimPair,
    LabelScheme,
    SourceKind,
    normalize_sentence,
)
from veriscope.verdict import LabelLogits, VeracityVerdict


def texts(sentences):
    return [s.text for s in sentences]


class TestSymmetricDifferenceDedup:
    def test_identical_lists_cancel(self):
        a = [make_sentence("The cat sat."), make_sentence("Dogs bark.")]
        b = [make_sentence("the cat sat"), make_sentence("Dogs bark!")]
        assert symmetric_difference_dedup(a, b) == []

    def test_disjoint_lists_concatenate(self):
        a = [make_sentence("alpha one"), make_sentence("beta two")]
        b = [make_sentence("gamma three")]
        out = symmetric_difference_dedup(a, b)
        assert texts(out) == ["alpha one", "beta two", "gamma three"]

    def test_hand_example(self):
        a = [make_sentence("a a"), make_sentence("b b")]
        b = [make_sentence("b b"), make_sentence("c c")]
        assert texts(symmetric_difference_dedup(a, b)) == ["a a", "c c"]

    def test_duplicates_collapse_to_first(self):
        a = [
            make_sentence("same text", doc_id="d1"),
            make_sentence("Same text!", doc_id="d2"),
            make_sentence("other", doc_id="d3"),
        ]
        out = symmetric_difference_dedup(a, [])
        assert [(s.text, s.doc_id) for s in out] == [("same text", "d1"), ("other", "d3")]

    @given(
        st.lists(st.sampled_from(["w1", "w2", "w3", "w4", "w5"]), max_size=8),
        st.lists(st.sampled_from(["w1", "w2", "w3", "w4", "w5"]), max_size=8),
    )
    def test_set_algebra_properties(self, words_a, words_b):
        a = [make_sentence(w) for w in words_a]
        b = [make_sentence(w) for w in words_b]
        out = symmetric_difference_dedup(a, b)
        keys_a = {s.normalized for s in a}
        keys_b = {s.normalized for s in b}
        out_keys = [s.normalized for s in out]
        # no contested key survives; no duplicates; exact set identity
        assert set(out_keys).isdisjoint(keys_a & keys_b)
        assert len(out_keys) == len(set(out_keys))
        assert set(out_keys) == keys_a ^ keys_b
        # A (triangle) A = empty set
        assert symmetric_difference_dedup(a, a) == []
        # A (triangle) empty = dedup(A)
        assert symmetric_difference_dedup(a, []) == dedup_by_normalized(a)


class TestMergeSegments:
    def test_sep_marker_fusion(self):
        parts = [
            make_sentence("the drug [SEP]", doc_id="d1", similarity=0.4),
            make_sentence("reduces risk.", doc_id="d1", similarity=0.7),
        ]
        out = merge_segments(parts)
        assert len(out) == 1
        assert out[0].text == "the drug reduces risk."
        assert out[0].similarity == 0.7

    def test_different_docs_not_fused(self):
        parts = [
            make_sentence("the drug [SEP]", doc_id="d1"),
            make_sentence("reduces risk.", doc_id="d2"),
        ]
        assert len(merge_segments(parts)) == 2

    def test_empty(self):
        assert merge_segments([]) == []

    def test_dangling_segment_fusion(self):
        parts = [
            make_sentence("The treatment showed", doc_id="d1", similarity=0.2),
            make_sentence("no benefit at all.", doc_id="d1", similarity=0.9),
        ]
        out = merge_segments(parts)
        assert texts(out) == ["The treatment showed no benefit at all."]
        assert out[0].similarity == 0.9

    def test_dangling_disabled_by_flag(self):
        parts = [
            make_sentence("The treatment showed", doc_id="d1"),
            make_sentence("no benefit at all.", doc_id="d1"),
        ]
        assert len(merge_segments(parts, dangling_merge=False)) == 2

    def test_sep_fusion_still_on_when_dangling_disabled(self):
        parts = [
            make_sentence("the drug [SEP]", doc_id="d1"),
            make_sentence("reduces risk.", doc_id="d1"),
        ]
        assert len(merge_segments(parts, dangling_merge=False)) == 1

    def test_complete_sentences_not_fused(self):
        parts = [
            make_sentence("First sentence ends here.", doc_id="d1"),
            make_sentence("second one continues.", doc_id="d1"),
        ]
        assert len(merge_segments(parts)) == 2

    def test_uppercase_continuation_not_fused(self):
        parts = [
            make_sentence("Dangling fragment without stop", doc_id="d1"),
            make_sentence("Capitalized next sentence.", doc_id="d1"),
        ]
        assert len(merge_segments(parts)) == 2

    def test_chained_fusion(self):
        parts = [
            make_sentence("one [SEP]", doc_id="d1", similarity=0.1),
            make_sentence("two [SEP]", doc_id="d1", similarity=0.3),
            make_sentence("three.", doc_id="d1", similarity=0.2),
        ]
        out = merge_segments(parts)
        assert texts(out) == ["one two three."]
        assert out[0].similarity == 0.3


class TestRankAndTruncate:
    def test_empty(self, embedder):
        assert rank_and_truncate([], "claim", EmbeddingMemo(embedder), 3) == []

    def test_all_kept_when_under_budget(self, embedder):
        candidates = [make_sentence("zinc helps colds"), make_sentence("iron is different")]
        out = rank_and_truncate(candidates, "zinc helps colds", EmbeddingMemo(embedder), 5)
        assert len(out) == 2
        assert out[0].text == "zinc helps colds"
        sims = [s.similarity for s in out]
        assert sims == sorted(sims, reverse=True)

    def test_brute_force_oracle(self, embedder):
        claim = "zinc shortens the common cold"
        pool = [
            "zinc shortens the common cold",
            "zinc does not shorten colds",
            "the common cold is viral",
            "iron deficiency causes anemia",
            "colds are common in winter",
        ]
        candidates = [make_sentence(t, doc_id=f"d{i}") for i, t in enumerate(pool)]
        out = rank_and_truncate(candidates, claim, EmbeddingMemo(embedder), 2)

        vectors = embedder.embed([claim] + pool)
        claim_vec = vectors[0]
        sims = []
        for i, text in enumerate(pool):
            v = vectors[i + 1]
            sims.append(
                (
                    -float(np.dot(claim_vec, v) / (np.linalg.norm(claim_vec) * np.linalg.norm(v))),
                    i,
                    text,
                )
            )
        sims.sort()
        assert [s.text for s in out] == [t for _, _, t in sims[:2]]

    def test_similarity_recomputed_against_claim(self, embedder):
        # The candidate arrives scored against the negation; ranking must
        # replace that with similarity to the original claim.
        candidate = make_sentence("cats purr loudly", similarity=0.01,
                                  polarity=Polarity.FROM_NEGATION)
        out = rank_and_truncate([candidate], "cats purr loudly", EmbeddingMemo(embedder), 1)
        assert out[0].similarity == pytest.approx(1.0, abs=1e-9)

    def test_tie_break_claim_polarity_then_position(self):
        fixture = FixtureEmbedder(
            {
                "the claim": [1.0, 0.0],
                "from negation": [2.0, 0.0],
                "from claim": [3.0, 0.0],
                "also claim": [4.0, 0.0],
            }
        )
        candidates = [
            make_sentence("from negation", polarity=Polarity.FROM_NEGATION),
            make_sentence("from claim", polarity=Polarity.FROM_CLAIM),
            make_sentence("also claim", polarity=Polarity.FROM_CLAIM),
        ]
        out = rank_and_truncate(candidates, "the claim", EmbeddingMemo(fixture), 3)
        assert [s.text for s in out] == ["from claim", "also claim", "from negation"]

    def test_embedding_failure_propagates(self):
        fixture = FixtureEmbedder({"the claim": [1.0, 0.0]})
        with pytest.raises(ProviderUnavailable):
            rank_and_truncate(
                [make_sentence("unknown text")], "the claim", EmbeddingMemo(fixture), 2
            )

    def test_zero_claim_vector_raises(self, embedder):
        with pytest.raises(RankingFailed):
            rank_and_truncate([make_sentence("words here")], "...", EmbeddingMemo(embedder), 2)


class OutOfRangeMemo:
    """A memo whose every similarity is 1.5."""

    def similarities(self, query, texts):
        return [1.5] * len(texts)


class TestRescoredSentences:
    def test_equal_to_fresh_sentences(self, embedder):
        claim = "zinc shortens the common cold"
        parts = [
            make_sentence("Zinc, SHORTENS [SEP]", doc_id="d1", similarity=0.2),
            make_sentence("the common cold.", doc_id="d1", similarity=0.4),
            make_sentence("Colds are COMMON!", doc_id="d2", polarity=Polarity.FROM_NEGATION),
            make_sentence("iron is different", doc_id="d3"),
        ]
        candidates = merge_segments(parts)
        assert texts(candidates)[0] == "Zinc, SHORTENS the common cold."
        sims = EmbeddingMemo(embedder).similarities(claim, texts(candidates))
        fresh = {
            c.text: EvidenceSentence(c.text, c.source, c.doc_id, c.polarity, sim)
            for c, sim in zip(candidates, sims)
        }
        out = rank_and_truncate(candidates, claim, EmbeddingMemo(embedder), 5)
        assert len(out) == len(candidates) == 3
        assert out == [fresh[s.text] for s in out]
        assert [hash(s) for s in out] == [hash(fresh[s.text]) for s in out]
        assert out[0].normalized == normalize_sentence("Zinc, SHORTENS the common cold.")

    def test_out_of_range_similarity_raises(self):
        with pytest.raises(ValueError, match="outside"):
            rank_and_truncate([make_sentence("words here")], "the claim", OutOfRangeMemo(), 2)


def bundle(source, finals):
    return EvidenceBundle(
        final=tuple(make_sentence(t, source=source, similarity=0.9 - 0.1 * i)
                    for i, t in enumerate(finals)),
    )


class TestAggregateSources:
    def test_single_source(self):
        b = bundle(PUBMED, ["alpha one", "beta two"])
        agg = aggregate_sources({PUBMED: b})
        assert texts(agg.sentences) == ["alpha one", "beta two"]

    def test_no_bundles_give_an_empty_union(self):
        assert aggregate_sources({}).sentences == ()

    def test_identical_finals_union_once(self):
        agg = aggregate_sources(
            {
                WIKIPEDIA: bundle(WIKIPEDIA, ["same thing"]),
                PUBMED: bundle(PUBMED, ["Same thing!"]),
            }
        )
        assert len(agg.sentences) == 1
        assert agg.sentences[0].source == WIKIPEDIA  # fixed order wins provenance

    def test_three_sources_partial_overlap_oracle(self):
        finals = {
            WIKIPEDIA: ["w only", "shared one"],
            PUBMED: ["shared one", "p only"],
            WEB: ["g only", "p only"],
        }
        agg = aggregate_sources({k: bundle(k, v) for k, v in finals.items()})
        expected = set()
        for values in finals.values():
            expected |= {normalize_sentence(t) for t in values}
        got = [s.normalized for s in agg.sentences]
        assert set(got) == expected
        assert len(got) == len(expected)

    def test_every_sentence_from_some_final(self):
        rng = random.Random(5)
        vocab = [f"word{i} text" for i in range(12)]
        bundles = {
            kind: bundle(kind, [rng.choice(vocab) for _ in range(rng.randint(0, 6))])
            for kind in (WIKIPEDIA, PUBMED, WEB)
        }
        agg = aggregate_sources(bundles)
        all_final_keys = {
            s.normalized for b in bundles.values() for s in b.final
        }
        assert {s.normalized for s in agg.sentences} == all_final_keys
        assert len(agg.sentences) <= sum(len(b.final) for b in bundles.values())


class TestSerialization:
    def test_jsonl_round_trip(self):
        bundles = {
            WIKIPEDIA: bundle(WIKIPEDIA, ["w sentence", "shared text"]),
            PUBMED: bundle(PUBMED, ["shared text", "p sentence"]),
        }
        result = ClaimVerification(
            claim=ClaimPair("c1", "a claim"),
            condition=ClaimCondition.ORIGINAL_ONLY,
            bundles=bundles,
            verdicts={},
        )
        trace, text = result.encoded()
        assert text.endswith("\n") and text.count("\n") == 1
        assert ClaimVerification.from_dict(json.loads(trace)) == result
        line = json.loads(text)
        assert line["claim_id"] == "c1"
        sentence_lists = [line["sentences"]] + [
            data[stage] for data in line["per_source"].values()
            for stage in ("positive", "negative", "candidates", "final")
        ]
        for data in (s for sentences in sentence_lists for s in sentences):
            assert data["normalized"] == normalize_sentence(data["text"])
        assert tuple(EvidenceSentence.from_dict(s) for s in line["sentences"]) == (
            result.aggregated.sentences
        )
        assert {
            name: EvidenceBundle.from_dict(data) for name, data in line["per_source"].items()
        } == {kind.name: b for kind, b in bundles.items()}
        assert all(
            (data["claim_id"], data["source"]) == ("c1", name)
            for name, data in line["per_source"].items()
        )

    def test_full_stage_determinism(self, embedder):
        positive = [make_sentence(t) for t in ("zinc helps colds", "colds last a week")]
        negative = [make_sentence(t, polarity=Polarity.FROM_NEGATION)
                    for t in ("zinc does not help", "colds last a week")]

        def run():
            cands = merge_segments(symmetric_difference_dedup(positive, negative))
            final = rank_and_truncate(cands, "zinc helps colds", EmbeddingMemo(embedder), 2)
            return aggregate_sources({PUBMED: EvidenceBundle(final=tuple(final))})

        assert run() == run()


def reference_jsonl_line(result) -> str:
    """result's evidence.jsonl line built from result.to_dict(), as it was written
    before the one-pass encoder: the encoder's line must equal it byte for byte."""
    trace = result.to_dict()
    claim_id = result.claim.id
    per_source, final_records = {}, {}
    for kind, stages_of in result.bundles.items():
        stored = trace["bundles"][kind.name]
        stages = {
            name: [{**record, "normalized": sentence.normalized}
                   for record, sentence in zip(stored[name], getattr(stages_of, name))]
            for name in ("positive", "negative", "candidates", "final")
        }
        final_records.update(zip(map(id, stages_of.final), stages["final"]))
        per_source[kind.name] = {"claim_id": claim_id, "source": kind.name, **stages}
    union = [final_records[id(s)] for s in result.aggregated.sentences]
    line = {"claim_id": claim_id, "per_source": per_source, "sentences": union}
    return json.dumps(line, sort_keys=True) + "\n"


ENCODER_SCHEME = LabelScheme("three", ("Supported", "Refuted", "NEI"), ("A", "B", "C"))
# the canonical three and adapter names sorting before, between and after them,
# some needing escapes
ENCODER_SOURCES = [SourceKind(name) for name in (
    "wikipedia", "pubmed", "web", "Alpha", "arxiv", "qa", "zeta", "web2", "w\u00e9b", '"q"\\', " x", "\U0001F600",
)]
texts_to_encode = st.text(
    st.one_of(
        st.characters(),  # any code point: non-ASCII, astral, control; "|" becomes a [SEP] marker
        st.sampled_from(['"', "\\", "\u2028", "\x00", "\x1f", "\x7f", "\U0001F600", "\u00e9", " ", ".", "|"]),
    ),
    max_size=8,
).map(lambda text: text.replace("|", "[SEP]"))
doc_ids = st.sampled_from(["d1", "d2", 'd"3', "d\\4", "d\u00e9", "d\U0001F600", "d\u2028"])
similarities = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.1, 1 / 3]), st.floats(-1.0, 1.0))


@st.composite
def encodable_results(draw):
    """A ClaimVerification whose stages share sentence objects as the pipeline's do."""
    def sentences(kind, polarity, max_size):
        return draw(st.lists(st.builds(
            EvidenceSentence, text=texts_to_encode, source=st.just(kind), doc_id=doc_ids,
            polarity=st.just(polarity), similarity=similarities,
        ), max_size=max_size))

    kinds = draw(st.lists(st.sampled_from(ENCODER_SOURCES), unique=True, max_size=4))
    bundles, source_errors = {}, {}
    for kind in kinds:
        if draw(st.booleans()) and draw(st.booleans()):  # a failed source: empty stages
            source_errors[kind] = draw(texts_to_encode)
            bundles[kind] = EvidenceBundle()
            continue
        positive = sentences(kind, Polarity.FROM_CLAIM, 3)
        negative = sentences(kind, Polarity.FROM_NEGATION, 2)
        # candidates reuse positive and negative objects, plus some a merge would make
        kept = draw(st.lists(st.sampled_from(positive + negative), max_size=3)) if positive + negative else []
        candidates = kept + sentences(kind, Polarity.FROM_CLAIM, 1)
        # ranking keeps some candidates rescored; a final sentence may also be a candidate object
        final = [s.rescored(draw(similarities)) if draw(st.booleans()) else s
                 for s in draw(st.lists(st.sampled_from(candidates), max_size=3))] if candidates else []
        bundles[kind] = EvidenceBundle(tuple(positive), tuple(negative), tuple(candidates), tuple(final))
    logits = st.lists(st.floats(-30.0, 0.0), min_size=3, max_size=3)
    verdicts = {
        kind: VeracityVerdict(LabelLogits(ENCODER_SCHEME, draw(logits)), draw(st.booleans()))
        for kind in [*kinds, MERGED]
    }
    claim = ClaimPair(
        id=draw(texts_to_encode),
        text="claim " + draw(texts_to_encode),
        negated_text=draw(st.none() | st.just("not the claim " + draw(texts_to_encode))),
        gold_label=draw(st.none() | st.sampled_from(ENCODER_SCHEME.labels)),
    )
    return ClaimVerification(
        claim=claim, condition=draw(st.sampled_from(ClaimCondition)),
        bundles=bundles, verdicts=verdicts, source_errors=source_errors,
    )


class TestClaimEncoder:
    """ClaimVerification.encoded against the two encodings it replaces."""

    @settings(max_examples=100, deadline=None)
    @given(encodable_results())
    def test_matches_json_dumps_and_the_reference_line(self, result):
        trace, line = result.encoded()
        assert trace == json.dumps(result.to_dict(), sort_keys=True) + "\n"
        assert line == reference_jsonl_line(result)
        # a resumed trace shares no sentence object between stages, and encodes alike
        assert ClaimVerification.from_dict(json.loads(trace)).encoded() == (trace, line)

    def test_empty_union_and_no_sources(self):
        result = ClaimVerification(
            claim=ClaimPair("c1", "a claim"), condition=ClaimCondition.ORIGINAL_ONLY,
            bundles={}, verdicts={},
        )
        trace, line = result.encoded()
        assert trace == json.dumps(result.to_dict(), sort_keys=True) + "\n"
        assert line == '{"claim_id": "c1", "per_source": {}, "sentences": []}\n'
