"""Sentence-level evidence selection by embedding similarity.

Retrieved documents are split into sentences; each sentence is embedded
together with the query that retrieved the document (the claim for the
positive pass, the negation for the negative pass) and the most similar
sentences per document survive.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Protocol, Sequence

import numpy as np

from ._http import JsonHttpClient
from .errors import ConfigurationError, ProviderUnavailable, ZeroVector
from .sources import RetrievedDocument
from .types import JsonRecord, PipelineConfig, SourceKind, normalize_sentence

log = logging.getLogger(__name__)

ENV_EMBED_URL = "EMBED_API_URL"
ENV_EMBED_KEY = "EMBED_API_KEY"

_TERMINATORS = re.compile(r"[.!?]")
_MIN_SENTENCE_CHARS = 3


class Polarity(Enum):
    """Which query surfaced a piece of evidence."""

    FROM_CLAIM = "claim"
    FROM_NEGATION = "negation"


@dataclass(frozen=True)
class EvidenceSentence(JsonRecord):
    """A candidate evidence sentence with provenance and similarity.

    normalized is always recomputed from text, and similarity is clamped
    to [-1, 1] (values outside by more than 1e-9 are rejected).
    """

    text: str
    source: SourceKind
    doc_id: str
    polarity: Polarity
    similarity: float
    normalized: str = field(init=False, default="")

    def __post_init__(self):
        object.__setattr__(self, "normalized", normalize_sentence(self.text))
        sim = float(self.similarity)
        if sim < -1.0 - 1e-9 or sim > 1.0 + 1e-9:
            raise ValueError(f"similarity {sim} outside [-1, 1]")
        object.__setattr__(self, "similarity", min(1.0, max(-1.0, sim)))


def split_sentences(body: str) -> list[str]:
    """Split text on . ! ? followed by whitespace or end of text.

    A period directly after a lone capital letter (an initial such as
    "J.") never splits.  Segments shorter than 3 characters after
    trimming are dropped.
    """
    sentences: list[str] = []
    start = 0
    n = len(body)
    for match in _TERMINATORS.finditer(body):
        i = match.start()
        if i + 1 < n and not body[i + 1].isspace():
            continue
        if body[i] == "." and _is_initial(body, i):
            continue
        segment = body[start : i + 1].strip()
        if len(segment) >= _MIN_SENTENCE_CHARS:
            sentences.append(segment)
        start = i + 1
    tail = body[start:].strip()
    if len(tail) >= _MIN_SENTENCE_CHARS:
        sentences.append(tail)
    return sentences


def _is_initial(text: str, period_pos: int) -> bool:
    if period_pos == 0:
        return False
    prev = text[period_pos - 1]
    if not (prev.isalpha() and prev.isupper()):
        return False
    return period_pos < 2 or not text[period_pos - 2].isalnum()


def cosine_similarity(u, v) -> float:
    """u.v / (|u||v|); raises ZeroVector when either norm is zero."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    if norm_u == 0.0 or norm_v == 0.0:
        raise ZeroVector("cosine similarity undefined for zero vectors")
    return float(np.dot(u, v) / (norm_u * norm_v))


def cosines_to_first(
    vectors: Sequence[np.ndarray], norms: Sequence[float]
) -> list[float | None]:
    """cosine_similarity of vectors[0] with each later row, given every row's norm.

    Each value is cosine_similarity's expression for that one pair, so it
    equals cosine_similarity bit for bit (a matrix product would sum in
    another order).  None stands for the ZeroVector case: either norm is
    zero.
    """
    query, query_norm = vectors[0], norms[0]
    if query_norm == 0.0:
        return [None] * (len(vectors) - 1)
    return [
        float(np.dot(query, row) / (query_norm * norm)) if norm != 0.0 else None
        for row, norm in zip(vectors[1:], norms[1:])
    ]


class EmbeddingProvider(Protocol):
    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


class HashedBowEmbedder:
    """Deterministic offline embedder: hashed bag-of-words counts.

    Tokens come from normalize_sentence; each token is hashed with a
    stable 64-bit digest into one of `dim` buckets and counted.  Two
    token-identical texts therefore embed identically (cosine 1.0), and
    lexical overlap translates directly into similarity.  Buckets are
    memoized per token, so the memo grows with the vocabulary embedded;
    concurrent first lookups of a token store the same value.
    """

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self._buckets: dict[str, int] = {}

    def _bucket(self, token: str) -> int:
        bucket = self._buckets.get(token)
        if bucket is None:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            bucket = self._buckets[token] = int.from_bytes(digest, "big") % self.dim
        return bucket

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        # One bincount over (row * dim + bucket) counts every token of the batch.
        cells = [
            row * self.dim + self._bucket(token)
            for row, text in enumerate(texts)
            for token in normalize_sentence(text).split()
        ]
        counts = np.bincount(np.array(cells, dtype=np.intp), minlength=len(texts) * self.dim)
        return counts.reshape(len(texts), self.dim).astype(np.float64)


class RemoteEmbedder:
    """HTTP embedding endpoint: request a list of strings, receive float arrays."""

    def __init__(
        self,
        url: str | None = None,
        api_key: str | None = None,
        *,
        client: JsonHttpClient | None = None,
    ):
        url = url or os.environ.get(ENV_EMBED_URL)
        if not url:
            raise ConfigurationError(f"remote embedding needs {ENV_EMBED_URL}")
        self._client = client or JsonHttpClient(url, api_key or os.environ.get(ENV_EMBED_KEY))

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text, in order.

        A reply whose rows differ in length, or whose row count differs
        from len(texts), raises ProviderUnavailable: callers map rows to
        texts by position.
        """
        data = self._client.post({"input": list(texts)})
        try:
            vectors = data["embeddings"] if "embeddings" in data else data["data"]
            matrix = np.asarray(vectors, dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderUnavailable(f"unexpected embedding payload: {exc}") from exc
        if len(matrix) != len(texts) or (len(texts) and matrix.ndim != 2):
            raise ProviderUnavailable(
                f"embedding reply has shape {matrix.shape} for {len(texts)} texts"
            )
        return matrix


class EmbeddingMemo:
    """An EmbeddingProvider that memoizes another one's rows by text.

    embed() serves cached rows and sends only the texts not seen yet to
    the wrapped embedder, in one call.  This is valid because every
    embedder here maps a text to the same vector whatever else is in the
    call.  A reply whose row count differs from the texts sent raises
    ProviderUnavailable and caches nothing.  Each row's norm is kept
    beside it, so a text's norm is computed once however often it is
    scored.  verify_claim builds one memo per claim, so the memo's size
    is bounded by one claim's texts.  A failed prefetch caches nothing,
    and a later embed() sends only that call's missing texts, so the
    memo also serves the per-document fallback after a failed batch.
    """

    def __init__(self, embedder: EmbeddingProvider):
        self._embedder = embedder
        self._rows: dict[str, np.ndarray] = {}
        self._norms: dict[str, float] = {}

    def prefetch(self, texts: Sequence[str]) -> None:
        """Embed, in one call, the texts not cached yet."""
        missing = [text for text in dict.fromkeys(texts) if text not in self._rows]
        if not missing:
            return
        vectors = np.asarray(self._embedder.embed(missing), dtype=np.float64)
        if vectors.ndim != 2 or len(vectors) != len(missing):
            raise ProviderUnavailable(
                f"embedder returned shape {vectors.shape} for {len(missing)} texts"
            )
        self._norms.update(
            (text, float(np.linalg.norm(row))) for text, row in zip(missing, vectors)
        )
        self._rows.update(zip(missing, vectors))

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        self.prefetch(texts)
        return np.stack([self._rows[text] for text in texts])

    def embed_with_norms(self, texts: Sequence[str]) -> tuple[list[np.ndarray], list[float]]:
        self.prefetch(texts)
        return [self._rows[text] for text in texts], [self._norms[text] for text in texts]


def embed_with_norms(
    embedder: EmbeddingProvider, texts: Sequence[str]
) -> tuple[Sequence[np.ndarray], list[float]]:
    """The texts' float64 rows, and each row's np.linalg.norm.

    An EmbeddingMemo serves both from memory; other embedders are called
    once and the norms computed here.
    """
    if isinstance(embedder, EmbeddingMemo):
        return embedder.embed_with_norms(texts)
    vectors = np.asarray(embedder.embed(texts), dtype=np.float64)
    return vectors, [float(np.linalg.norm(row)) for row in vectors]


def select_evidence(
    query_text: str,
    docs: Sequence[RetrievedDocument],
    embedder: EmbeddingProvider,
    cfg: PipelineConfig,
    polarity: Polarity = Polarity.FROM_CLAIM,
) -> list[EvidenceSentence]:
    """Keep the most query-similar sentences from the first selection_docs docs.

    Per document, all sentences are embedded alongside the query and the
    sentences_per_doc highest-similarity ones survive; ties prefer the
    earlier sentence.  A document whose embedding fails is skipped with a
    warning while the others proceed; zero-vector sentences are skipped
    rather than scored.

    verify_claim passes an EmbeddingMemo that has embedded the claim, its
    negation and every sentence of the selected documents in one batched
    call, so the per-document calls below are served from memory.  When
    that batched call failed, the same memo embeds, per document, only
    the texts it has not cached yet: one call per document, and a failing
    document is skipped on its own.
    """
    selected: list[EvidenceSentence] = []
    for doc in docs[: cfg.selection_docs]:
        sentences = split_sentences(doc.body)
        if not sentences:
            continue
        try:
            vectors, norms = embed_with_norms(embedder, [query_text] + sentences)
        except Exception as exc:  # provider-specific failures must not kill the stage
            log.warning("embedding failed for doc %r: %s", doc.doc_id, exc)
            continue
        sims = cosines_to_first(vectors, norms)
        scored = [
            (sim, position, sentence)
            for position, (sentence, sim) in enumerate(zip(sentences, sims))
            if sim is not None
        ]
        scored.sort(key=lambda item: (-item[0], item[1]))
        for sim, _, sentence in scored[: cfg.sentences_per_doc]:
            selected.append(
                EvidenceSentence(
                    text=sentence,
                    source=doc.source,
                    doc_id=doc.doc_id,
                    polarity=polarity,
                    similarity=sim,
                )
            )
    return selected
