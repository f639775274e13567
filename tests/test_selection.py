import hashlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixtureEmbedder, Reply, ScriptedSession, ZeroVector, cosine_similarity, make_doc
from veriscope._http import JsonHttpClient
from veriscope.errors import ProviderUnavailable
from veriscope.selection import (
    EmbeddingMemo,
    EvidenceSentence,
    HashedBowEmbedder,
    Polarity,
    RemoteEmbedder,
    select_evidence,
)
from veriscope.sources import split_sentences
from veriscope.types import PUBMED, PipelineConfig, normalize_sentence


def loop_split_sentences(body):
    """split_sentences as a scan over every character, its earlier form."""
    sentences, start, n = [], 0, len(body)
    for i, ch in enumerate(body):
        if ch not in ".!?":
            continue
        if i + 1 < n and not body[i + 1].isspace():
            continue
        if ch == "." and i > 0 and body[i - 1].isalpha() and body[i - 1].isupper():
            if i < 2 or not body[i - 2].isalnum():
                continue
        segment = body[start : i + 1].strip()
        if len(segment) >= 3:
            sentences.append(segment)
        start = i + 1
    tail = body[start:].strip()
    if len(tail) >= 3:
        sentences.append(tail)
    return sentences


@settings(max_examples=200, deadline=None)
@given(
    body=st.one_of(
        st.text(max_size=60),
        st.lists(
            st.sampled_from(["J.", "Dr.", "cats", "sleep.", "Why?", "no!", ".", "!?", " ", "\n",
                             "\u2003", "\x1c", "A.B.", "e.g.", "3.5", "x"]),
            max_size=20,
        ).map("".join),
    )
)
def test_split_sentences_equals_character_scan(body):
    assert split_sentences(body) == loop_split_sentences(body)


class TestSplitSentences:
    def test_two_sentences(self):
        assert split_sentences("A cat. A dog.") == ["A cat.", "A dog."]

    def test_empty(self):
        assert split_sentences("") == []

    def test_abbreviation_guard(self):
        assert split_sentences("J. Smith wrote it. It sold.") == [
            "J. Smith wrote it.",
            "It sold.",
        ]

    def test_chained_initials(self):
        assert split_sentences("U.S.A. rocks. Yes.") == ["U.S.A. rocks.", "Yes."]

    def test_exclamation_and_question(self):
        assert split_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_short_segments_dropped(self):
        # "x." is only two characters after trimming (and lowercase, so the
        # initial guard does not apply)
        assert split_sentences("x. This stays.") == ["This stays."]

    def test_no_terminator_tail_kept(self):
        assert split_sentences("no punctuation here") == ["no punctuation here"]

    def test_terminator_without_space_does_not_split(self):
        assert split_sentences("pH7.4 is normal.") == ["pH7.4 is normal."]


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert cosine_similarity([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert cosine_similarity([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            cosine_similarity([0.0, 0.0], [1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0], [1.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12), dim=st.integers(1, 300))
def test_memo_similarities_equal_cosine_similarity(seed, rows, dim):
    # Float vectors, so a different summation order would show in the last bits.
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((rows + 1, dim))
    vectors[rng.random(rows + 1) < 0.2] = 0.0
    texts = [f"t{i}" for i in range(rows + 1)]
    memo = EmbeddingMemo(FixtureEmbedder(dict(zip(texts, vectors))))
    memo.prefetch(texts[rows // 2 :])  # some rows cached, the rest fetched by the call
    got = memo.similarities(texts[0], texts[1:])
    assert len(got) == rows
    for vector, sim in zip(vectors[1:], got):
        try:
            want = cosine_similarity(vectors[0], vector)
        except ZeroVector:
            want = None
        assert sim == want


@pytest.mark.parametrize("dim", [48, 256, 1536])
@pytest.mark.parametrize("reply_rows", [1, 2, 7, 64, 257])
def test_memo_norms_and_similarities_equal_the_per_row_expressions(reply_rows, dim):
    # A reply's norms come from one vecdot over the whole matrix; each must equal
    # sqrt(row . row) of its row alone, so a value never depends on the other texts.
    rng = np.random.default_rng(reply_rows * 10_000 + dim)
    vectors = rng.standard_normal((reply_rows, dim))
    texts = [f"t{i}" for i in range(reply_rows)]
    memo = EmbeddingMemo(FixtureEmbedder(dict(zip(texts, vectors))))
    memo.prefetch(texts)
    norms = [math.sqrt(vector.dot(vector)) for vector in vectors]
    assert [memo.row(text)[1] for text in texts] == norms
    query = vectors[-1]
    want = [float(query.dot(vector)) / (norms[-1] * norm) for vector, norm in zip(vectors, norms)]
    assert memo.similarities(texts[-1], texts) == want


class TestHashedBowEmbedder:
    def test_shape_and_determinism(self):
        embedder = HashedBowEmbedder(dim=64)
        a = embedder.embed(["the cat sat", "dogs bark"])
        b = embedder.embed(["the cat sat", "dogs bark"])
        assert a.shape == (2, 64)
        assert np.array_equal(a, b)

    def test_buckets_match_digest_across_calls(self):
        embedder = HashedBowEmbedder(dim=32)
        texts = ["cat sat cat", "sat on the mat", "cat"]
        for _ in range(2):
            vectors = embedder.embed(texts)
            for row, text in enumerate(texts):
                expected = np.zeros(32)
                for token in text.split():
                    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
                    expected[int.from_bytes(digest, "big") % 32] += 1.0
                assert np.array_equal(vectors[row], expected)

    def test_token_identical_texts_embed_identically(self):
        embedder = HashedBowEmbedder()
        vecs = embedder.embed(["The CAT sat!", "the cat sat"])
        assert np.array_equal(vecs[0], vecs[1])
        assert cosine_similarity(vecs[0], vecs[1]) == pytest.approx(1.0, abs=1e-12)

    def test_counts_not_binary(self):
        embedder = HashedBowEmbedder(dim=8)
        vec = embedder.embed(["cat cat cat"])[0]
        assert vec.sum() == 3.0

    def test_empty_text_is_zero_vector(self):
        embedder = HashedBowEmbedder(dim=16)
        assert embedder.embed(["..."])[0].sum() == 0.0


def loop_embed(texts, dim):
    """The per-token accumulation HashedBowEmbedder.embed replaced."""
    vectors = np.zeros((len(texts), dim), dtype=np.float64)
    for row, text in enumerate(texts):
        for token in normalize_sentence(text).split():
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            vectors[row, int.from_bytes(digest, "big") % dim] += 1.0
    return vectors


_EMBED_TEXTS = st.one_of(
    st.text(max_size=40),
    st.lists(
        st.sampled_from(["cat", "Cat,", "dog", "the", "...", "?!", "", "ß", "é"]), max_size=15
    ).map(" ".join),
)


@settings(max_examples=80, deadline=None)
@given(texts=st.lists(_EMBED_TEXTS, max_size=8), dim=st.sampled_from([1, 7, 256]))
def test_bincount_embedding_equals_per_token_loop(texts, dim):
    texts = texts + ["", "?! ... ;", "cat cat cat"]
    got = HashedBowEmbedder(dim=dim).embed(texts)
    assert got.dtype == np.float64
    assert got.shape == (len(texts), dim)
    assert (got == loop_embed(texts, dim)).all()
    assert HashedBowEmbedder(dim=dim).embed([]).shape == (0, dim)


def test_threads_embedding_through_one_fresh_embedder_get_the_same_rows():
    # The first lookups of every token race in the bucket memo.
    texts = [f"w{i} w{i * 7 % 50} shared, tokens! w{i % 13}" for i in range(200)]
    want = HashedBowEmbedder(dim=64).embed(texts)
    embedder = HashedBowEmbedder(dim=64)
    start = threading.Barrier(4, timeout=30)

    def embed():
        start.wait()
        return embedder.embed(texts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = [future.result(timeout=60) for future in [pool.submit(embed) for _ in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert np.array_equal(got, want)


class _CountingEmbedder:
    def __init__(self, rows=None):
        self._inner = HashedBowEmbedder(dim=16)
        self.calls = []
        self.rows = rows

    def embed(self, texts):
        self.calls.append(list(texts))
        vectors = self._inner.embed(texts)
        return vectors if self.rows is None else vectors[: self.rows]


class TestEmbeddingMemo:
    def test_serves_cached_rows_and_embeds_only_misses(self):
        inner = _CountingEmbedder()
        memo = EmbeddingMemo(inner)
        memo.prefetch(["cats sleep", "dogs bark", "cats sleep"])
        assert inner.calls == [["cats sleep", "dogs bark"]]
        texts = ["dogs bark", "birds sing", "cats sleep", "birds sing"]
        got = memo.similarities("cats sleep", texts)
        assert inner.calls[1] == ["birds sing"]
        vectors = HashedBowEmbedder(dim=16).embed(["cats sleep"] + texts)
        assert got == [cosine_similarity(vectors[0], row) for row in vectors[1:]]
        memo.similarities("cats sleep", ["dogs bark"])
        assert len(inner.calls) == 2

    def test_short_reply_raises_and_caches_nothing(self):
        inner = _CountingEmbedder(rows=1)
        memo = EmbeddingMemo(inner)
        with pytest.raises(ProviderUnavailable):
            memo.prefetch(["cats sleep", "dogs bark"])
        inner.rows = None
        assert memo.similarities("cats sleep", []) == []
        assert inner.calls[-1] == ["cats sleep"]

    def test_norms_equal_linalg_norm_for_a_fortran_ordered_reply(self):
        # The rows of a Fortran-ordered matrix are strided; the norm must still
        # be np.linalg.norm's value (a dot over a contiguous copy) to the bit.
        vectors = np.random.default_rng(3).standard_normal((6, 300))

        class FortranEmbedder:
            def embed(self, texts):
                return np.asfortranarray(vectors[: len(texts)])

        texts = [f"t{i}" for i in range(6)]
        memo = EmbeddingMemo(FortranEmbedder())
        memo.prefetch(texts)
        for text, vector in zip(texts, vectors):
            assert memo.row(text)[1] == float(np.linalg.norm(vector))

    def test_held_rows_are_served_without_a_call(self, monkeypatch):
        # "cats purr" is held only because it is one of the memo's queries.
        inner = _CountingEmbedder()
        memo = EmbeddingMemo(inner, queries=("cats sleep", "cats purr"))
        memo.prefetch(["dogs bark", "..."])
        assert inner.calls == [["cats sleep", "cats purr", "dogs bark", "..."]]
        monkeypatch.setattr(memo, "prefetch", None)  # a miss would call it and fail
        texts = ["cats purr", "dogs bark", "...", "cats sleep"]
        got = memo.similarities("cats sleep", texts)
        assert memo.similarities("cats purr", ["cats sleep"]) == [got[0]]
        assert len(inner.calls) == 1
        vectors = HashedBowEmbedder(dim=16).embed(["cats sleep"] + texts)
        assert got[2] is None
        assert got[:2] + got[3:] == [
            cosine_similarity(vectors[0], row) for row in (vectors[1], vectors[2], vectors[4])
        ]


class TestEvidenceSentence:
    def test_normalized_always_recomputed(self):
        sentence = EvidenceSentence(
            text="The CAT, sat.", source=PUBMED, doc_id="d", polarity=Polarity.FROM_CLAIM,
            similarity=0.5,
        )
        assert sentence.normalized == normalize_sentence("The CAT, sat.")

    def test_similarity_clamped_within_tolerance(self):
        sentence = EvidenceSentence(
            text="x y z", source=PUBMED, doc_id="d", polarity=Polarity.FROM_CLAIM,
            similarity=1.0 + 5e-10,
        )
        assert sentence.similarity == 1.0

    def test_similarity_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EvidenceSentence(
                text="x y z", source=PUBMED, doc_id="d", polarity=Polarity.FROM_CLAIM,
                similarity=1.5,
            )

    def test_nan_similarity_rejected(self):
        with pytest.raises(ValueError, match="nan outside"):
            EvidenceSentence(
                text="x y z", source=PUBMED, doc_id="d", polarity=Polarity.FROM_CLAIM,
                similarity=math.nan,
            )

    def test_round_trip(self):
        sentence = EvidenceSentence(
            text="Cats sleep.", source=PUBMED, doc_id="d9", polarity=Polarity.FROM_NEGATION,
            similarity=-0.25,
        )
        assert EvidenceSentence.from_dict(sentence.to_dict()) == sentence


def remote_embedder(*schedule):
    """A RemoteEmbedder over a ScriptedSession of schedule, and that session."""
    session = ScriptedSession(*schedule)
    client = JsonHttpClient("http://fake/embed", session=session)
    return RemoteEmbedder(url="http://fake/embed", client=client), session


class TestRemoteEmbedder:
    def test_parses_embeddings_field(self):
        embedder, session = remote_embedder(Reply(body={"embeddings": [[1.0, 2.0], [3.0, 4.0]]}))
        vectors = embedder.embed(["a", "b"])
        assert vectors.shape == (2, 2)
        [request] = session.requests
        assert request.json == {"input": ["a", "b"]}

    @pytest.mark.parametrize(
        "vectors",
        [
            [[1.0, 2.0]],
            [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
            [[1.0, 2.0], [3.0]],
            [1.0, 2.0],
            [[1.0, 2.0], ["x", 4.0]],
        ],
        ids=["short", "long", "ragged", "flat", "non-numeric"],
    )
    def test_reply_not_one_row_per_text_raises(self, vectors):
        embedder, _ = remote_embedder(Reply(body={"embeddings": vectors}))
        with pytest.raises(ProviderUnavailable):
            embedder.embed(["a", "b"])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_raises(self, value):
        # json, which requests decodes with, reads NaN and Infinity as floats
        embedder, _ = remote_embedder(Reply(body={"embeddings": [[1.0, 2.0], [value, 1.0]]}))
        with pytest.raises(ProviderUnavailable, match="non-finite"):
            embedder.embed(["a", "b"])

    def test_bad_payload_raises(self):
        embedder, _ = remote_embedder(Reply(body=["not", "a", "dict"]))
        with pytest.raises(ProviderUnavailable):
            embedder.embed(["a"])


def brute_force_best_sentences(query, body, embedder, n):
    """Oracle: score every sentence independently, keep the n best."""
    sentences = split_sentences(body)
    vectors = embedder.embed([query] + sentences)
    scored = []
    for pos, sent in enumerate(sentences):
        u, v = vectors[0], vectors[pos + 1]
        if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
            continue
        scored.append((float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))), pos, sent))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [s for _, _, s in scored[:n]]


class TestSelectEvidence:
    def test_empty_docs(self, embedder, cfg):
        assert select_evidence("claim", [], EmbeddingMemo(embedder), cfg) == []

    def test_identical_sentence_scores_one(self, embedder, cfg):
        doc = make_doc("d1", "The cat sat on the mat. Unrelated words here.", 1)
        out = select_evidence("The cat sat on the mat.", [doc], EmbeddingMemo(embedder), cfg)
        assert len(out) == 1
        assert out[0].text == "The cat sat on the mat."
        assert out[0].similarity == pytest.approx(1.0, abs=1e-9)

    def test_two_docs_three_sentences_oracle(self, embedder):
        cfg = PipelineConfig(retrieval_depth=2, selection_docs=2, sentences_per_doc=1)
        query = "zinc shortens colds"
        body1 = "Zinc shortens colds in trials. Copper does not. Iron is unrelated."
        body2 = "A cold lasts a week. Zinc lozenges may help colds. Vitamin C does little."
        docs = [make_doc("d1", body1, 1), make_doc("d2", body2, 2)]
        out = select_evidence(query, docs, EmbeddingMemo(embedder), cfg)
        expected = [
            brute_force_best_sentences(query, body1, embedder, 1)[0],
            brute_force_best_sentences(query, body2, embedder, 1)[0],
        ]
        assert [s.text for s in out] == expected

    def test_respects_selection_docs_budget(self, embedder):
        cfg = PipelineConfig(retrieval_depth=5, selection_docs=2, sentences_per_doc=2)
        docs = [
            make_doc(f"d{i}", "Cats sleep a lot. Cats also purr. Dogs differ.", i)
            for i in range(1, 5)
        ]
        out = select_evidence("cats sleep", docs, EmbeddingMemo(embedder), cfg)
        assert len(out) <= cfg.selection_docs * cfg.sentences_per_doc
        assert {s.doc_id for s in out} <= {"d1", "d2"}

    def test_polarity_and_provenance(self, embedder, cfg):
        doc = make_doc("d7", "Cats sleep.", 3, source=PUBMED)
        out = select_evidence(
            "cats", [doc], EmbeddingMemo(embedder), cfg, polarity=Polarity.FROM_NEGATION
        )
        assert out[0].polarity is Polarity.FROM_NEGATION
        assert out[0].doc_id == "d7"
        assert out[0].source == PUBMED

    def test_duplicate_documents_choose_same_text(self, embedder, cfg):
        body = "Cats sleep long hours. Dogs bark at night."
        docs = [make_doc("a", body, 1), make_doc("b", body, 2)]
        out = select_evidence("cats sleep", docs, EmbeddingMemo(embedder), cfg)
        assert out[0].text == out[1].text
        assert [s.doc_id for s in out] == ["a", "b"]

    def test_failed_document_raises(self, cfg):
        fixture = FixtureEmbedder(
            {
                "cats": [1.0, 0.0],
                "Cats sleep.": [1.0, 1.0],
            }
        )
        docs = [
            make_doc("good", "Cats sleep.", 1),
            make_doc("bad", "Unknown sentence here.", 2),
        ]
        with pytest.raises(ProviderUnavailable, match="Unknown sentence here"):
            select_evidence("cats", docs, EmbeddingMemo(fixture), cfg)

    def test_non_finite_embedding_is_not_evidence(self, cfg):
        # Every odd row is [NaN, 1.0]: "First sentence here." would score NaN,
        # which used to clamp to -1.0 and be kept over "Cats sleep." at 1.0.
        doc = make_doc("d1", "First sentence here. Cats sleep.", 1)

        def nan_rows(request):
            rows = [[math.nan, 1.0] if i % 2 else [1.0, 1.0] for i in range(len(request.json["input"]))]
            return Reply(body={"embeddings": rows})

        remote, _ = remote_embedder(nan_rows)
        with pytest.raises(ProviderUnavailable, match="non-finite"):
            select_evidence("Cats sleep.", [doc], EmbeddingMemo(remote), cfg)
        local = FixtureEmbedder({"Cats sleep.": [1.0, 1.0], "First sentence here.": [math.nan, 1.0]})
        with pytest.raises(ValueError, match="nan outside"):
            select_evidence("Cats sleep.", [doc], EmbeddingMemo(local), cfg)

    @pytest.mark.parametrize("per_doc", [1, 3])
    def test_ties_prefer_the_earlier_sentence(self, per_doc):
        # two sentences tie at the top, three below them
        rows = {
            "the query": [1.0, 0.0],
            "Alpha one.": [1.0, 1.0],
            "Beta two.": [2.0, 0.0],
            "Gamma three.": [1.0, 1.0],
            "Delta four.": [3.0, 0.0],
            "Epsilon five.": [2.0, 2.0],
        }
        body = " ".join(text for text in rows if text != "the query")
        doc = make_doc("d1", body, 1)
        cfg = PipelineConfig(retrieval_depth=1, selection_docs=1, sentences_per_doc=per_doc)
        out = select_evidence("the query", [doc], EmbeddingMemo(FixtureEmbedder(rows)), cfg)
        sims = EmbeddingMemo(FixtureEmbedder(rows)).similarities("the query", doc.sentences)
        # the earlier form: a key function over (sim, position, sentence)
        scored = sorted(
            zip(sims, range(len(sims)), doc.sentences), key=lambda item: (-item[0], item[1])
        )
        assert [(s.text, s.similarity) for s in out] == [
            (sentence, sim) for sim, _, sentence in scored[:per_doc]
        ]
        assert [s.text for s in out] == ["Beta two.", "Delta four.", "Alpha one."][:per_doc]

    def test_zero_vector_sentences_skipped(self, embedder, cfg):
        doc = make_doc("d1", "Cats sleep. ... !!!", 1)
        out = select_evidence("cats", [doc], EmbeddingMemo(embedder), cfg)
        assert [s.text for s in out] == ["Cats sleep."]
