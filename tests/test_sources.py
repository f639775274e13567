import hashlib
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixtureSource, Reply, ScriptedSession, ZeroVector, cosine_similarity, make_doc
from veriscope.assets import load_prompt, load_scheme
from veriscope.errors import ConfigurationError, ProviderUnavailable
from veriscope import index as index_module
from veriscope.bm25 import tokenize
from veriscope.index import LocalIndex
from veriscope.pipeline import ProviderSet, verify_claim
from veriscope.selection import EmbeddingMemo, HashedBowEmbedder
from veriscope import sources
from veriscope.sources import BiomedicalSource, LocalCorpusSource, RetrievedDocument, WebSearchSource
from veriscope.types import PUBMED, WIKIPEDIA, ClaimPair, PipelineConfig, split_sentences
from veriscope.verdict import RuleVerdictProvider


class TestRetrievedDocument:
    def test_rank_positive(self):
        with pytest.raises(ValueError):
            RetrievedDocument(
                doc_id="d1", source=WIKIPEDIA, title="", body="body", rank=0, score=1.0
            )

    def test_threads_reading_a_fresh_hit_get_the_same_split(self):
        # Eight first reads of one fresh hit's StoredDocument.sentences, a cached_property (no lock from 3.12).
        body = " ".join(f"Sentence number {i} is here." for i in range(300))
        want = tuple(split_sentences(body))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                hit = RetrievedDocument(doc_id="d1", source=WIKIPEDIA, title="", body=body, rank=1, score=1.0)
                start = threading.Barrier(8, timeout=30)

                def read():
                    start.wait()
                    return hit.sentences

                with ThreadPoolExecutor(8) as pool:
                    got = [future.result(timeout=60) for future in [pool.submit(read) for _ in range(8)]]
                assert got == [want] * 8
                assert hit.sentences in got
        finally:
            sys.setswitchinterval(interval)

    def test_a_local_hit_reads_its_stored_documents_split(self):
        index = LocalIndex.from_documents([("d1", "", "Cats purr. Dogs bark loudly."), ("d2", "", "Cats sleep.")])
        hits = LocalCorpusSource(WIKIPEDIA, index).retrieve("cats", 2)
        again = LocalCorpusSource(WIKIPEDIA, index).retrieve("cats", 2)
        for hit, other in zip(hits, again):
            assert hit.sentences is hit.stored.sentences
            assert other.sentences is hit.sentences

    def test_a_hit_of_any_source_is_split_once_by_its_document(self, monkeypatch):
        split = []
        monkeypatch.setattr(index_module, "split_sentences", lambda body: split.append(body) or split_sentences(body))
        payload = {"items": [{"title": "Zinc", "snippet": "Colds end. Maybe sooner.", "link": "http://a"}]}
        source, _ = web_source(Reply(body=payload))
        [web] = source.retrieve("zinc", 1)
        made = make_doc("d1", "Cats purr. Dogs bark.", 1)
        for hit in (web, made):
            first = hit.sentences
            assert hit.sentences is first is hit.stored.sentences
            assert hit.stored.length == len(tokenize(hit.body))
        assert split == [web.body, made.body]


class TestFixtureSource:
    def test_returns_fixtures_in_order(self):
        docs = [make_doc("d1", "one", 1), make_doc("d2", "two", 2)]
        source = FixtureSource(WIKIPEDIA, {"q": docs})
        assert source.retrieve("q", 5) == docs
        assert source.retrieve("q", 1) == docs[:1]

    def test_unknown_query_empty(self):
        source = FixtureSource(WIKIPEDIA, {})
        assert source.retrieve("anything", 3) == []


def dual_bundle(source, claim, cfg):
    """The evidence bundle verify_claim's dual retrieval builds from one source."""
    providers = ProviderSet(
        sources={source.kind: source},
        embedder=HashedBowEmbedder(),
        verdicts=RuleVerdictProvider(),
    )
    result = verify_claim(claim, providers, load_scheme("scifact"), load_prompt("verdict"), cfg)
    return result.bundles[source.kind]


class TestRetrieveDual:
    """The dual retrieval of verify_claim: claim and negation queried apart."""

    def test_requires_negation(self, cfg):
        claim = ClaimPair(id="c", text="cats are nice")
        with pytest.raises(ConfigurationError):
            dual_bundle(FixtureSource(WIKIPEDIA, {}), claim, cfg)

    def test_mock_source_fixture_lists(self, cfg):
        pos = [make_doc("p1", "cats are nice.", 1)]
        neg = [make_doc("n1", "cats are not nice.", 1)]
        source = FixtureSource(WIKIPEDIA, {"cats are nice": pos, "cats are not nice": neg})
        claim = ClaimPair(id="c", text="cats are nice", negated_text="cats are not nice")
        bundle = dual_bundle(source, claim, cfg)
        assert [(s.doc_id, s.text) for s in bundle.positive] == [("p1", "cats are nice.")]
        assert [(s.doc_id, s.text) for s in bundle.negative] == [("n1", "cats are not nice.")]

    def test_empty_corpus_yields_empty_lists(self, cfg):
        source = FixtureSource(WIKIPEDIA, {})
        claim = ClaimPair(id="c", text="cats are nice", negated_text="cats are not nice")
        bundle = dual_bundle(source, claim, cfg)
        assert bundle.positive == bundle.negative == bundle.final == ()

    def test_three_doc_corpus_oracle(self, cfg):
        from test_bm25 import brute_force_ranking

        from veriscope.bm25 import tokenize

        docs = {
            "d1": "cats purr and cats nap",
            "d2": "cats exist",
            "d3": "cats cats cats galore",
        }
        index = LocalIndex.from_documents((i, "", b) for i, b in docs.items())
        source = LocalCorpusSource(WIKIPEDIA, index)
        claim = ClaimPair(id="c", text="cats", negated_text="no cats at all")
        cfg2 = PipelineConfig(retrieval_depth=2, selection_docs=2)
        docs_pos = source.retrieve(claim.text, cfg2.retrieval_depth)
        expected = brute_force_ranking(tokenize("cats"), docs, 2)
        assert [d.doc_id for d in docs_pos] == [doc_id for doc_id, _ in expected]
        assert [d.rank for d in docs_pos] == [1, 2]

    def test_never_mixes_lists(self, cfg):
        pos = [make_doc(f"p{i}", f"positive only {i}.", i) for i in (1, 2)]
        neg = [make_doc(f"n{i}", f"negative only {i}.", i) for i in (1, 2)]
        source = FixtureSource(WIKIPEDIA, {"a is b": pos, "a is not b": neg})
        claim = ClaimPair(id="c", text="a is b", negated_text="a is not b")
        bundle = dual_bundle(source, claim, cfg)
        assert {s.doc_id for s in bundle.positive} == {"p1", "p2"}
        assert {s.doc_id for s in bundle.negative} == {"n1", "n2"}


class TestBiomedicalSourceFusion:
    def _index(self):
        docs = {
            "d1": "zinc zinc zinc therapy trial",
            "d2": "zinc deficiency impairs immune function",
            "d3": "copper and zinc metabolism in deficiency states",
        }
        return LocalIndex.from_documents((i, "", b) for i, b in docs.items())

    def test_rrf_oracle(self):
        # Oracle: recompute 1/(60+r_lex) + 1/(60+r_dense) from the two
        # component rankings and check the fused order matches.
        index = self._index()
        embedder = HashedBowEmbedder(dim=64)
        source = BiomedicalSource(PUBMED, index, embedder=embedder)
        query = "zinc deficiency"
        lexical = [doc.doc_id for doc, _ in index.ranked(query)]

        bodies = {doc.doc_id: doc.body for doc in index.by_row}
        vecs = embedder.embed([query] + [bodies[d] for d in lexical])
        sims = {
            doc_id: cosine_similarity(vecs[0], vec) for doc_id, vec in zip(lexical, vecs[1:])
        }
        dense = sorted(lexical, key=lambda d: (-sims[d], d))
        expected_scores = {
            d: 1.0 / (60 + lexical.index(d) + 1) + 1.0 / (60 + dense.index(d) + 1)
            for d in lexical
        }
        expected = sorted(lexical, key=lambda d: (-expected_scores[d], d))
        got = source.retrieve(query, 3)
        assert [d.doc_id for d in got] == expected
        for doc in got:
            assert doc.score == pytest.approx(expected_scores[doc.doc_id], abs=1e-12)

    def test_fusion_prefix_property(self):
        index = self._index()
        source = BiomedicalSource(PUBMED, index, embedder=HashedBowEmbedder(dim=64))
        full = source.retrieve("zinc deficiency", 3)
        for k in (1, 2, 3):
            assert [d.doc_id for d in source.retrieve("zinc deficiency", k)] == [
                d.doc_id for d in full[:k]
            ]


class _RecordingEmbedder:
    """HashedBowEmbedder that records each call and zeroes texts containing "zz"."""

    def __init__(self, dim=32):
        self._inner = HashedBowEmbedder(dim=dim)
        self.calls = []

    def embed(self, texts):
        self.calls.append(list(texts))
        vectors = self._inner.embed(texts)
        for row, text in enumerate(texts):
            if "zz" in text.split():
                vectors[row] = 0.0
        return vectors


def reference_fusion(index, embedder, query):
    """Fused order and scores of the top FUSION_DEPTH lexical candidates, from
    per-document cosine_similarity, no cache."""
    lexical = [doc for doc, _ in index.ranked(query)][: sources.FUSION_DEPTH]
    vectors = embedder.embed([query] + [doc.body for doc in lexical])
    sims = {}
    for doc, vec in zip(lexical, vectors[1:]):
        try:
            sims[doc.doc_id] = cosine_similarity(vectors[0], vec)
        except ZeroVector:
            sims[doc.doc_id] = -1.0
    dense = sorted(sims, key=lambda doc_id: (-sims[doc_id], doc_id))
    scores = {
        doc.doc_id: 1.0 / (60 + pos) + 1.0 / (60 + dense.index(doc.doc_id) + 1)
        for pos, doc in enumerate(lexical, start=1)
    }
    return sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))


def zipf_corpus(seed, docs, vocab=40):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(vocab)] + ["zz"]
    weights = [1.0 / rank for rank in range(1, len(words) + 1)]
    return {
        f"d{i:03d}": " ".join(rng.choices(words, weights, k=rng.randint(0, 12)))
        for i in range(docs)
    }


class _FloatEmbedder:
    """Deterministic float-valued rows (normal draws seeded by each text); "zz" texts embed to zero."""

    def __init__(self, dim=48):
        self.dim = dim

    def embed(self, texts):
        def row(text):
            if "zz" in text.split():
                return np.zeros(self.dim)
            seed = int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")
            return np.random.default_rng(seed).standard_normal(self.dim)

        return np.array([row(text) for text in texts]).reshape(len(texts), self.dim)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), docs=st.integers(2, 60), queries=st.integers(1, 4))
def test_fusion_cosines_equal_the_memo_similarities(seed, docs, queries):
    # Float rows, so a product summing in another order than row.dot would show in the last bits.
    corpus = zipf_corpus(seed, docs)
    index = LocalIndex.from_documents((doc_id, "", body) for doc_id, body in corpus.items())
    rng = random.Random(seed + 1)
    asked = [" ".join(rng.choice(list(corpus.values())).split()[:4]) for _ in range(queries)]
    fused = [query for query in asked if len(index.ranked(query)) > 1]
    embedder = _FloatEmbedder()
    source = BiomedicalSource(PUBMED, index, embedder=embedder)
    for query in fused + fused:  # the second round reads the cached document rows
        rows, _ = index.scored_rows(query, sources.FUSION_DEPTH)
        memo = EmbeddingMemo(embedder)
        got = source._cosines(query, rows, memo).tolist()
        want = memo.similarities(query, [index.by_row[row].body for row in rows.tolist()])
        assert got == [-1.0 if sim is None else sim for sim in want]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), docs=st.integers(2, 40), queries=st.integers(1, 4))
def test_cached_fusion_equals_per_document_reference(seed, docs, queries):
    corpus = zipf_corpus(seed, docs)
    index = LocalIndex.from_documents((doc_id, "", body) for doc_id, body in corpus.items())
    rng = random.Random(seed + 1)
    asked = [" ".join(rng.choice(list(corpus.values())).split()[:4]) for _ in range(queries)]
    fused = [query for query in asked if len(index.ranked(query)) > 1]
    embedder = _RecordingEmbedder()
    source = BiomedicalSource(PUBMED, index, embedder=embedder)
    for query in fused + fused:
        got = [(doc.doc_id, doc.score) for doc in source.retrieve(query, docs)]
        assert got == reference_fusion(index, _RecordingEmbedder(), query)
    # one call per query, and each distinct candidate body reached the embedder
    # once, however often it was fused; a body equal to its query shares its row
    assert [call[0] for call in embedder.calls] == fused + fused
    bodies = {doc.body for query in fused for doc, _ in index.ranked(query)}
    sent = [text for call in embedder.calls for text in call[1:]]
    assert len(sent) == len(set(sent)) and set(sent) <= bodies
    assert bodies - set(sent) <= set(fused)
    for query in fused:
        embedder.calls.clear()
        source.retrieve(query, docs)
        assert embedder.calls == [[query]]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    docs=st.integers(9, 40),
    depth=st.integers(1, 8),
    queries=st.integers(1, 4),
)
def test_fusion_re_ranks_only_the_lexical_prefix(seed, docs, depth, queries):
    from test_bm25 import exact_oracle_ranking

    corpus = zipf_corpus(seed, docs)
    index = LocalIndex.from_documents((doc_id, "", body) for doc_id, body in corpus.items())
    rng = random.Random(seed + 1)
    asked = [" ".join(rng.choice(list(corpus.values())).split()[:4]) for _ in range(queries)]
    embedder = _RecordingEmbedder()
    source = BiomedicalSource(PUBMED, index, embedder=embedder)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sources, "FUSION_DEPTH", depth)
        for query in asked:
            # The reference fuses the brute-force BM25 prefix: ranked() is that order.
            lexical = exact_oracle_ranking(query, corpus)
            assert [(doc.doc_id, score) for doc, score in index.ranked(query)] == lexical
            got = [(doc.doc_id, doc.score) for doc in source.retrieve(query, docs)]
            assert got == reference_fusion(index, _RecordingEmbedder(), query)
            assert len(got) == min(len(lexical), depth)
    # Only a query with two or more candidates in its prefix embeds, and
    # only bodies inside some fused prefix reach the embedder.
    assert [call[0] for call in embedder.calls] == [
        query for query in asked if min(len(index.ranked(query)), depth) > 1
    ]
    prefixes = {doc.body for query in asked for doc, _ in index.ranked(query, depth)}
    assert {text for call in embedder.calls for text in call[1:]} <= prefixes


def test_first_fused_query_sends_at_most_fusion_depth_bodies():
    # 1,600 candidates with 7 scores: the lexical cut partitions through ties.
    docs = [(f"d{i:04d}", "", "zinc " * (1 + i % 7) + f"arm {i}") for i in range(1600)]
    index = LocalIndex.from_documents(docs)
    embedder = _RecordingEmbedder()
    source = BiomedicalSource(PUBMED, index, embedder=embedder)
    assert len(index.ranked("zinc arm")) == 1600
    got = source.retrieve("zinc arm", 5)
    [call] = embedder.calls
    assert call[0] == "zinc arm" and len(call) - 1 == sources.FUSION_DEPTH == 1000
    assert set(call[1:]) == {doc.body for doc, _ in index.ranked("zinc arm", 1000)}
    expected = reference_fusion(index, _RecordingEmbedder(), "zinc arm")[:5]
    assert [(doc.doc_id, doc.score) for doc in got] == expected


def test_shared_cache_under_concurrent_queries():
    # run_experiment's workers share one source; fills race on the cache.
    corpus = zipf_corpus(7, 120)
    index = LocalIndex.from_documents((doc_id, "", body) for doc_id, body in corpus.items())
    bodies = [body for body in corpus.values() if body]
    queries = [" ".join(body.split()[:3]) for body in bodies[:48]]
    expected = {query: reference_fusion(index, _RecordingEmbedder(), query) for query in queries}
    source = BiomedicalSource(PUBMED, index, embedder=_RecordingEmbedder())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda q: source.retrieve(q, len(corpus)), queries * 2, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for query, docs in zip(queries * 2, got):
        if len(index.ranked(query)) > 1:
            assert [(doc.doc_id, doc.score) for doc in docs] == expected[query]


def test_fresh_index_and_cache_under_concurrent_queries():
    # Neither the index's scoring arrays nor the fusion cache exist yet when
    # eight threads start together on the same queries, so every first use races.
    corpus = zipf_corpus(11, 120)
    docs = [(doc_id, "", body) for doc_id, body in corpus.items()]
    bodies = [body for body in corpus.values() if body]
    asked = [(" ".join(body.split()[:3]), k) for body in bodies[:48] for k in (5, len(corpus))]
    serial, fresh = (
        BiomedicalSource(PUBMED, LocalIndex.from_documents(docs), embedder=_RecordingEmbedder())
        for _ in range(2)
    )
    expected = [serial.retrieve(query, k) for query, k in asked]
    start = threading.Barrier(8, timeout=10)

    def worker(_):
        start.wait()
        return [fresh.retrieve(query, k) for query, k in asked]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert got == expected


class TestBiomedicalSourceCache:
    def test_vectors_fill_lazily(self):
        embedder = _RecordingEmbedder()
        index = LocalIndex.from_documents(
            [("a", "", "zinc therapy"), ("b", "", "zinc trial"), ("c", "", "copper")]
        )
        source = BiomedicalSource(PUBMED, index, embedder=embedder)
        assert embedder.calls == []
        source.retrieve("zinc", 2)
        assert embedder.calls == [["zinc", "zinc therapy", "zinc trial"]]
        source.retrieve("zinc copper", 3)
        assert embedder.calls[1] == ["zinc copper", "copper"]

    def test_lone_candidate_gets_its_fused_score_without_embedding(self):
        embedder = _RecordingEmbedder()
        index = LocalIndex.from_documents([("a", "", "zinc therapy"), ("b", "", "copper trial")])
        source = BiomedicalSource(PUBMED, index, embedder=embedder)
        # Both its ranks are 1.
        [hit] = source.retrieve("copper", 3)
        assert (hit.doc_id, hit.rank, hit.score) == ("b", 1, 1 / 61 + 1 / 61)
        assert source.retrieve("copper", 0) == []
        assert embedder.calls == []

    def test_negative_k_is_refused(self):
        embedder = _RecordingEmbedder()
        index = LocalIndex.from_documents(
            [("a", "", "zinc therapy"), ("b", "", "zinc trial"), ("c", "", "zinc")]
        )
        source = BiomedicalSource(PUBMED, index, embedder=embedder)
        with pytest.raises(ValueError, match="k must be >= 0"):
            source.retrieve("zinc", -1)
        assert embedder.calls == []

    @pytest.mark.parametrize("reply", ["outage", "short"])
    def test_embedder_failure_is_a_source_outage(self, reply):
        class Broken:
            def embed(self, texts):
                if reply == "outage":
                    raise ProviderUnavailable("embedding endpoint down")
                return HashedBowEmbedder(dim=8).embed(texts[:-1])

        index = LocalIndex.from_documents([("a", "", "zinc therapy"), ("b", "", "zinc trial")])
        source = BiomedicalSource(PUBMED, index, embedder=Broken())
        with pytest.raises(ProviderUnavailable, match="dense fusion embedding"):
            source.retrieve("zinc", 2)

    def test_zero_vectors_score_minus_one(self):
        index = LocalIndex.from_documents(
            [("a", "", "zinc zz"), ("b", "", "zinc trial"), ("c", "", "zinc")]
        )
        source = BiomedicalSource(PUBMED, index, embedder=_RecordingEmbedder())
        expected = reference_fusion(index, _RecordingEmbedder(), "zinc")
        assert [(d.doc_id, d.score) for d in source.retrieve("zinc", 3)] == expected
        zeroed = BiomedicalSource(PUBMED, index, embedder=_RecordingEmbedder())
        expected = reference_fusion(index, _RecordingEmbedder(), "zinc zz")
        assert [(d.doc_id, d.score) for d in zeroed.retrieve("zinc zz", 3)] == expected


def web_source(*schedule, then=None, api_key="k"):
    """A WebSearchSource over a ScriptedSession of schedule, and that session."""
    session = ScriptedSession(*schedule, then=then)
    return WebSearchSource(api_key=api_key, engine_id="e", session=session), session


class TestWebSearchSource:
    def test_requires_credentials(self, monkeypatch):
        monkeypatch.delenv("SEARCH_API_KEY", raising=False)
        monkeypatch.delenv("SEARCH_ENGINE_ID", raising=False)
        with pytest.raises(ConfigurationError):
            WebSearchSource()

    def test_parses_items(self):
        payload = {
            "items": [
                {"title": "Zinc and colds", "snippet": "Mixed evidence.", "link": "http://a"},
                {"title": "More zinc", "snippet": "Still mixed.", "link": "http://b"},
            ]
        }
        source, session = web_source(Reply(body=payload))
        docs = source.retrieve("zinc", 2)
        assert [d.doc_id for d in docs] == ["http://a", "http://b"]
        assert docs[0].body == "Zinc and colds. Mixed evidence."
        assert docs[0].rank == 1 and docs[1].rank == 2
        assert docs[0].score >= docs[1].score
        [request] = session.requests
        assert request.method == "GET" and request.headers is None
        assert request.params == {"key": "k", "cx": "e", "q": "zinc", "num": 2}

    def test_negative_k_is_refused(self):
        source, session = web_source()
        with pytest.raises(ValueError, match="k must be >= 0"):
            source.retrieve("zinc", -1)
        assert session.requests == []

    def test_zero_k_sends_no_request(self):
        source, session = web_source()
        assert source.retrieve("zinc", 0) == []
        assert session.requests == []

    def test_a_depth_above_ten_asks_for_ten(self):
        payload = {"items": [{"title": f"T{i}", "snippet": "S.", "link": f"http://{i}"} for i in range(10)]}
        source, session = web_source(Reply(body=payload))
        assert len(source.retrieve("zinc", 25)) == 10
        [request] = session.requests
        assert request.params["num"] == sources.MAX_SEARCH_RESULTS == 10

    def test_null_fields_are_not_the_text_none(self):
        payload = {
            "items": [
                {"title": None, "snippet": "First.", "link": None},
                {"title": 7, "snippet": None, "link": "http://b"},
                {"title": "Third", "snippet": ["not", "text"]},
            ]
        }
        source, _ = web_source(Reply(body=payload))
        docs = source.retrieve("zinc", 3)
        assert [d.doc_id for d in docs] == ["result-1", "http://b", "result-3"]
        assert [(d.title, d.body) for d in docs] == [("", "First."), ("", ""), ("Third", "Third. ")]
        assert not any("None" in d.body for d in docs)

    def test_http_error(self, backoff_sleeps):
        # 503 is retried with exponential backoff, then the source gives up
        source, session = web_source(*[Reply(503)] * 5)
        with pytest.raises(ProviderUnavailable, match="HTTP 503"):
            source.retrieve("zinc", 2)
        assert len(session.requests) == 5
        assert backoff_sleeps == [0.5, 1.0, 2.0, 4.0]

    def test_client_error_is_not_retried(self):
        source, session = web_source(Reply(403))
        with pytest.raises(ProviderUnavailable, match="HTTP 403"):
            source.retrieve("zinc", 2)
        assert len(session.requests) == 1

    def test_network_error(self, backoff_sleeps):
        source, session = web_source(*[Reply(error=requests.ConnectionError)] * 5)
        with pytest.raises(ProviderUnavailable, match="ConnectionError"):
            source.retrieve("zinc", 2)
        assert len(session.requests) == 5

    def test_network_error_redacts_api_key(self, backoff_sleeps):
        key = "sk/secret+key"
        url = "https://search.example/v1?key=sk%2Fsecret%2Bkey&cx=e&q=zinc"
        error = requests.ConnectionError(f"Max retries exceeded with url: {url} ({key})")
        source, _ = web_source(then=Reply(error=error), api_key=key)
        with pytest.raises(ProviderUnavailable) as info:
            source.retrieve("zinc", 2)
        assert key not in str(info.value)
        assert "sk%2Fsecret%2Bkey" not in str(info.value)
        assert info.value.__cause__ is None and info.value.__context__ is None

    def test_no_items(self):
        source, _ = web_source(Reply(body={}))
        assert source.retrieve("zinc", 2) == []

    @pytest.mark.parametrize(
        "payload",
        [
            [{"title": "A list, not an object", "link": "http://a"}],
            {"items": "not a list"},
            {"items": {"title": "an object, not a list"}},
            {"items": None},
            {"items": ["a string, not an object"]},
            {"items": [{"title": "fine", "link": "http://a"}, 7]},
        ],
        ids=["reply-list", "items-string", "items-object", "items-null", "item-string", "item-number"],
    )
    def test_malformed_reply_is_a_source_outage(self, payload):
        source, _ = web_source(Reply(body=payload))
        with pytest.raises(ProviderUnavailable, match="no list of result objects"):
            source.retrieve("zinc", 2)
