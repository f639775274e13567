import math
import random
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veriscope import index as index_module
from veriscope.bm25 import CorpusStats, bm25_score, tokenize
from veriscope.errors import EmptyCorpus
from veriscope.index import LocalIndex
from veriscope.types import normalize_sentence


def brute_force_scores(query_terms, docs, k1=1.2, b=0.75):
    """Independent BM25 oracle: score every document from first principles."""
    tokenized = {doc_id: tokenize(body) for doc_id, body in docs.items()}
    n = len(docs)
    avgdl = sum(len(t) for t in tokenized.values()) / n if n else 0.0
    df = Counter()
    for tokens in tokenized.values():
        for term in set(tokens):
            df[term] += 1
    scores = {}
    for doc_id, tokens in tokenized.items():
        counts = Counter(tokens)
        norm = 1 - b + b * len(tokens) / avgdl if avgdl else 1.0
        total = 0.0
        for term in query_terms:
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            idf = math.log(1 + (n + 0.5) / (df[term] + 0.5))
            total += idf * tf * (k1 + 1) / (tf + k1 * norm)
        scores[doc_id] = total
    return scores


def brute_force_ranking(query_terms, docs, k):
    scores = brute_force_scores(query_terms, docs)
    matching = [(doc_id, s) for doc_id, s in scores.items() if s > 0]
    matching.sort(key=lambda pair: (-pair[1], pair[0]))
    return matching[:k]


class TestBm25Score:
    def test_single_doc_hand_value(self):
        # One document "cat", query "cat": tf=1, df=1, N=1, |d|=avgdl=1.
        # tf part = 2.2/2.2 = 1, idf = ln(1 + 1.5/1.5) = ln 2.
        stats = CorpusStats(doc_count=1, avg_doc_length=1.0, doc_frequencies={"cat": 1})
        score = bm25_score(["cat"], ["cat"], stats)
        assert score == pytest.approx(math.log(2.0), abs=1e-9)
        assert score == pytest.approx(0.6931, abs=1e-4)

    def test_absent_term_contributes_zero(self):
        stats = CorpusStats(doc_count=2, avg_doc_length=3.0, doc_frequencies={"cat": 1, "dog": 1})
        assert bm25_score(["dog"], ["cat", "sat", "down"], stats) == 0.0

    def test_duplicate_documents_score_identically(self):
        stats = CorpusStats(
            doc_count=3, avg_doc_length=2.0, doc_frequencies={"cat": 2, "sat": 2, "dog": 1}
        )
        doc = ["cat", "sat"]
        for query in (["cat"], ["cat", "dog"], ["sat", "cat", "cat"]):
            assert bm25_score(query, doc, stats) == bm25_score(query, list(doc), stats)

    def test_matches_oracle_on_toy_corpus(self):
        docs = {
            "d1": "the cat sat on the mat",
            "d2": "a dog chased the cat",
            "d3": "birds fly high above",
        }
        index = LocalIndex.from_documents((i, "", b) for i, b in docs.items())
        oracle = brute_force_scores(tokenize("the cat"), docs)
        for doc, score in index.ranked("the cat"):
            assert score == pytest.approx(oracle[doc.doc_id], abs=1e-9)


class TestLocalIndexRanking:
    def test_empty_query_matches_nothing(self):
        index = LocalIndex.from_documents([("d1", "", "cat sat")])
        assert index.ranked("") == []

    def test_three_doc_corpus_top2(self):
        docs = {
            "d1": "cats and more cats everywhere cats",
            "d2": "one cats appearance only",
            "d3": "cats cats in the hall",
        }
        index = LocalIndex.from_documents((i, "", b) for i, b in docs.items())
        expected = brute_force_ranking(tokenize("cats"), docs, 2)
        got = [(doc.doc_id, score) for doc, score in index.ranked("cats")[:2]]
        assert [d for d, _ in got] == [d for d, _ in expected]
        for (_, got_score), (_, want_score) in zip(got, expected):
            assert got_score == pytest.approx(want_score, abs=1e-9)

    def test_tie_break_ascending_doc_id(self):
        docs = {"b": "cat", "a": "cat", "c": "cat"}
        index = LocalIndex.from_documents((i, "", b) for i, b in docs.items())
        assert [doc.doc_id for doc, _ in index.ranked("cat")] == ["a", "b", "c"]

    def test_negative_k_is_rejected(self):
        index = LocalIndex.from_documents([("a", "", "cat"), ("b", "", "cat sat")])
        assert index.ranked("cat", 0) == []
        for k in (-1, -2):
            with pytest.raises(ValueError):
                index.ranked("cat", k)
            with pytest.raises(ValueError):
                index.scored_rows("cat", k)

    def test_prefix_property(self):
        rng = random.Random(3)
        vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
        docs = {
            f"d{i:02d}": " ".join(rng.choices(vocab, k=rng.randint(3, 12))) for i in range(30)
        }
        index = LocalIndex.from_documents((i, "", b) for i, b in docs.items())
        from veriscope.sources import LocalCorpusSource
        from veriscope.types import WIKIPEDIA

        source = LocalCorpusSource(WIKIPEDIA, index)
        for query in ("alpha beta", "gamma", "zeta eta alpha"):
            full = source.retrieve(query, 20)
            for k in range(len(full) + 1):
                prefix = source.retrieve(query, k)
                assert [d.doc_id for d in prefix] == [d.doc_id for d in full[:k]]

    def test_randomized_oracle_equivalence(self):
        rng = random.Random(17)
        vocab = [f"w{i}" for i in range(40)]
        docs = {
            f"d{i:03d}": " ".join(rng.choices(vocab, k=rng.randint(2, 25))) for i in range(60)
        }
        index = LocalIndex.from_documents((i, "", b) for i, b in docs.items())
        for _ in range(30):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            expected = brute_force_ranking(tokenize(query), docs, 10)
            got = index.ranked(query)[:10]
            assert [doc.doc_id for doc, _ in got] == [d for d, _ in expected]
            for (_, got_score), (_, want_score) in zip(got, expected):
                assert got_score == pytest.approx(want_score, abs=1e-6)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            LocalIndex.from_documents([])


_VOCAB = ["cat", "dog", "sat", "mat", "the", "zinc"]
_BODY_TOKENS = st.sampled_from(_VOCAB + ["!?", "...", "Cat,", "DOG."])
_QUERY_TOKENS = st.sampled_from(_VOCAB + ["unseen", "absent", "??"])


def exact_oracle_ranking(query, docs):
    """Brute-force bm25_score of every document, with stats counted from the bodies."""
    tokenized = {doc_id: tokenize(body) for doc_id, body in docs.items()}
    df = Counter(term for tokens in tokenized.values() for term in set(tokens))
    stats = CorpusStats(
        doc_count=len(docs),
        avg_doc_length=sum(len(tokens) for tokens in tokenized.values()) / len(docs),
        doc_frequencies=df,
    )
    terms = tokenize(query)
    scores = [(doc_id, bm25_score(terms, tokens, stats)) for doc_id, tokens in tokenized.items()]
    matching = [(doc_id, score) for doc_id, score in scores if score > 0]
    return sorted(matching, key=lambda pair: (-pair[1], pair[0]))


@settings(max_examples=60, deadline=None)
@given(
    bodies=st.lists(st.lists(_BODY_TOKENS, max_size=12).map(" ".join), min_size=1, max_size=12),
    queries=st.lists(st.lists(_QUERY_TOKENS, max_size=6).map(" ".join), min_size=1, max_size=4),
)
def test_ranked_equals_bm25_score_exactly(bodies, queries):
    # "punct" has no tokens; repeated and out-of-vocabulary query terms
    # and the empty query come from the strategies.
    docs = {f"d{i:02d}": body for i, body in enumerate(bodies)}
    docs["punct"] = "?! ... ;"
    index = LocalIndex.from_documents((doc_id, "", body) for doc_id, body in docs.items())
    with tempfile.TemporaryDirectory() as tmp:
        index.save(tmp)
        loaded = LocalIndex.load(tmp)
    for query in queries + [""]:
        expected = exact_oracle_ranking(query, docs)
        for candidate in (index, loaded):
            got = [(doc.doc_id, score) for doc, score in candidate.ranked(query)]
            assert got == expected


# Ids whose string order differs from their insertion and numeric order.
_ID_POOL = ["d9", "d10", "é1", "d2", "D1", "z0", "d01", "a", "d100", "ä", "d1", "b10"]


@settings(max_examples=60, deadline=None)
@given(
    bodies=st.lists(st.lists(_BODY_TOKENS, max_size=8).map(" ".join), min_size=1, max_size=8),
    copies=st.lists(st.integers(0, 7), max_size=4),
    ids=st.permutations(_ID_POOL),
    queries=st.lists(st.lists(_QUERY_TOKENS, max_size=6).map(" ".join), min_size=1, max_size=3),
)
def test_ranked_top_k_is_a_prefix_of_the_exact_ranking(bodies, copies, ids, queries):
    # Copied bodies force score ties, which must break by ascending doc_id.
    all_bodies = bodies + [bodies[i % len(bodies)] for i in copies]
    docs = dict(zip(ids, all_bodies))
    index = LocalIndex.from_documents((doc_id, "", body) for doc_id, body in docs.items())
    with tempfile.TemporaryDirectory() as tmp:
        index.save(tmp)
        loaded = LocalIndex.load(tmp)
    # Repeated terms, out-of-vocabulary terms and the empty query.
    asked = queries + [f"{queries[0]} {queries[0]} cat", "unseen absent", ""]
    for query in asked:
        expected = exact_oracle_ranking(query, docs)
        for candidate in (index, loaded):
            full = candidate.ranked(query)
            assert [(doc.doc_id, score) for doc, score in full] == expected
            for k in range(len(docs) + 2):
                assert candidate.ranked(query, k) == full[:k]


def test_partitioned_top_k_is_a_prefix_of_the_exact_ranking(monkeypatch):
    # With no margin every top k that cuts the matching rows is partitioned
    # before it is sorted, so the boundary ties go through argpartition.
    monkeypatch.setattr(index_module, "PARTITION_MARGIN", 0)
    test_ranked_top_k_is_a_prefix_of_the_exact_ranking()


# Punctuation (P*, deleted), symbols (S*, kept), letters, digits and
# whitespace beyond ASCII (split on, like a space).
_TOKENIZER_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(categories=["P"]),
        st.characters(categories=["S"]),
        st.characters(categories=["L", "N"]),
        st.sampled_from([" ", "\t", "\n", "\x1c", "\x85", "\u00a0", "\u2003", "\u2028", "\u3000"]),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(text=_TOKENIZER_TEXT)
def test_tokenize_equals_split_normalized_sentence(text):
    assert tokenize(text) == normalize_sentence(text).split()
