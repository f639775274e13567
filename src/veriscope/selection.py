"""Sentence-level evidence selection by embedding similarity.

Retrieved documents are split into sentences once each
(RetrievedDocument.sentences; the hits of a local source share one
split per stored document); each sentence is scored against the query
that retrieved the document (the claim for the positive pass, the
negation for the negative pass) and the most similar sentences per
document survive.  Selection and ranking score every text through one
EmbeddingMemo.similarities.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from ._http import JsonHttpClient, provider_client
from .bm25 import tokenize
from .errors import ProviderUnavailable
from .types import JsonRecord, PipelineConfig, SourceKind, normalize_sentence

if TYPE_CHECKING:  # sources imports EmbeddingMemo from here
    from .sources import RetrievedDocument

ENV_EMBED_URL = "EMBED_API_URL"
ENV_EMBED_KEY = "EMBED_API_KEY"

class Polarity(Enum):
    """Which query surfaced a piece of evidence."""

    FROM_CLAIM = "claim"
    FROM_NEGATION = "negation"


@dataclass(frozen=True)
class EvidenceSentence(JsonRecord):
    """A candidate evidence sentence with provenance and similarity.

    normalized is derived from text, so a trace never stores it, and
    similarity is clamped to [-1, 1] (NaN, and values outside by more
    than 1e-9, are rejected).  rescored gives the same sentence with
    another similarity under that rule, keeping normalized as it is.
    """

    text: str
    source: SourceKind
    doc_id: str
    polarity: Polarity
    similarity: float
    normalized: str = field(init=False, default="")

    def __post_init__(self):
        object.__setattr__(self, "normalized", normalize_sentence(self.text))
        object.__setattr__(self, "similarity", _clamped(self.similarity))

    def rescored(self, similarity: float) -> EvidenceSentence:
        """Equal to EvidenceSentence(text, source, doc_id, polarity, similarity),
        without normalizing the unchanged text again."""
        sentence = object.__new__(type(self))
        sentence.__dict__.update(self.__dict__, similarity=_clamped(similarity))
        return sentence


def _clamped(similarity: float) -> float:
    sim = float(similarity)
    if not -1.0 - 1e-9 <= sim <= 1.0 + 1e-9:
        raise ValueError(f"similarity {sim} outside [-1, 1]")
    return min(1.0, max(-1.0, sim))


class EmbeddingProvider(Protocol):
    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


class _Buckets(dict):
    """token -> bucket (blake2b digest mod dim), computed on first lookup: _PunctuationTable's idiom."""

    def __init__(self, dim: int):
        self.dim = dim

    def __missing__(self, token: str) -> int:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        self[token] = bucket = int.from_bytes(digest, "big") % self.dim
        return bucket


class HashedBowEmbedder:
    """Deterministic offline embedder: hashed bag-of-words counts.

    Tokens come from bm25.tokenize, BM25's tokenizer; each token is hashed
    with a stable 64-bit digest into one of `dim` buckets and counted.  Two
    token-identical texts therefore embed identically (cosine 1.0), and
    lexical overlap translates directly into similarity.  Buckets are
    memoized per token (concurrent first lookups store the same value), so
    the memo grows with the vocabulary embedded.
    """

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self._buckets = _Buckets(dim)

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        # One bincount over (row * dim + bucket) counts every token of the batch.
        tokens = [tokenize(text) for text in texts]
        buckets = np.fromiter(map(self._buckets.__getitem__, chain.from_iterable(tokens)), np.intp)
        cells = buckets + np.repeat(np.arange(0, len(texts) * self.dim, self.dim), list(map(len, tokens)))
        counts = np.bincount(cells, minlength=len(texts) * self.dim)
        return counts.reshape(len(texts), self.dim).astype(np.float64)


class RemoteEmbedder:
    """HTTP embedding endpoint: request a list of strings, receive float arrays.

    Requests go through JsonHttpClient, so rate limits, 5xx and transport
    errors are retried with backoff before the call fails.
    """

    def __init__(
        self,
        url: str | None = None,
        api_key: str | None = None,
        *,
        client: JsonHttpClient | None = None,
    ):
        self.client = provider_client(
            client, url, api_key, ENV_EMBED_URL, ENV_EMBED_KEY, f"remote embedding needs {ENV_EMBED_URL}"
        )

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text, in order, read from the reply's "embeddings" list.

        A reply without "embeddings", whose rows differ in length, whose row
        count differs from len(texts), or that holds a non-finite value (JSON
        decoding accepts NaN and Infinity) raises ProviderUnavailable: callers
        map rows to texts by position and score them as cosines.
        """
        data = self.client.post({"input": list(texts)})
        try:
            matrix = np.asarray(data["embeddings"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderUnavailable(f"unexpected embedding payload: {exc}") from exc
        if len(matrix) != len(texts) or (len(texts) and matrix.ndim != 2):
            raise ProviderUnavailable(
                f"embedding reply has shape {matrix.shape} for {len(texts)} texts"
            )
        if not np.isfinite(matrix).all():
            raise ProviderUnavailable("embedding reply has non-finite values")
        return matrix


class EmbeddingMemo:
    """Scores texts against a query from rows of another embedder, memoized by text.

    similarities() is the one way selection and ranking score text.  It
    embeds the texts not seen yet in one call to the wrapped embedder and
    serves the rest from memory.  This is valid because every embedder
    here maps a text to the same vector whatever else is in the call.  A
    reply whose row count differs from the texts sent raises
    ProviderUnavailable and caches nothing.  Rows are kept in C order beside
    their norm sqrt(row . row), all of a reply's norms from one np.vecdot,
    which sums each row as row.dot(row) does.
    The memo owns its queries' rows: each call also carries the queries not
    held yet, so the first call that succeeds embeds them, and similarities()
    with its query and texts all held does not call prefetch().
    verify_claim makes one memo per claim before retrieval, with the claim
    and (dual condition) the negation as queries, so its size is bounded
    by one claim's texts.
    """

    def __init__(self, embedder: EmbeddingProvider, queries: Sequence[str] = ()):
        self.embedder = embedder
        self._queries = tuple(queries)
        self._rows: dict[str, tuple[np.ndarray, float]] = {}

    def prefetch(self, texts: Sequence[str]) -> None:
        """Embed, in one call, the queries and texts not cached yet."""
        missing = [text for text in dict.fromkeys([*self._queries, *texts]) if text not in self._rows]
        if not missing:
            return
        vectors = np.ascontiguousarray(self.embedder.embed(missing), dtype=np.float64)
        if vectors.ndim != 2 or len(vectors) != len(missing):
            raise ProviderUnavailable(
                f"embedder returned shape {vectors.shape} for {len(missing)} texts"
            )
        norms = np.sqrt(np.vecdot(vectors, vectors)).tolist()
        self._rows.update(zip(missing, zip(vectors, norms)))

    def row(self, text: str) -> tuple[np.ndarray, float]:
        """The vector and norm of a text prefetched before."""
        return self._rows[text]

    def similarities(self, query: str, texts: Sequence[str]) -> list[float | None]:
        """The cosine u.v / (|u||v|) of the query's row with each text's row.

        Each value is that expression for one pair of rows, so it does
        not depend on the other texts (a matrix product would sum in
        another order).  None stands for a zero norm on either side.
        """
        rows = self._rows
        if query not in rows or not all(map(rows.__contains__, texts)):
            self.prefetch([query, *texts])
        query_row, query_norm = rows[query]
        sims: list[float | None] = []
        for row, norm in map(rows.__getitem__, texts):
            ok = query_norm != 0.0 and norm != 0.0
            sims.append(float(query_row.dot(row)) / (query_norm * norm) if ok else None)
        return sims


def select_evidence(
    query_text: str,
    docs: Sequence[RetrievedDocument],
    memo: EmbeddingMemo,
    cfg: PipelineConfig,
    polarity: Polarity = Polarity.FROM_CLAIM,
) -> list[EvidenceSentence]:
    """Keep the most query-similar sentences from the first selection_docs docs.

    Per document, every sentence is scored against the query with
    memo.similarities and the sentences_per_doc highest-similarity ones
    survive; ties prefer the earlier sentence.  Zero-vector sentences
    are skipped rather than scored.  An embedding failure is not skipped:
    it propagates, and under verify_claim it fails the claim.  Under
    verify_claim the memo already holds every row (its one batched call),
    so this embeds nothing unless that call failed.
    """
    selected: list[EvidenceSentence] = []
    for doc in docs[: cfg.selection_docs]:
        sentences = doc.sentences
        if not sentences:
            continue
        sims = memo.similarities(query_text, sentences)
        # (-sim, position) orders without a key function; positions are unique
        scored = [
            (-sim, position, sentence)
            for position, (sentence, sim) in enumerate(zip(sentences, sims))
            if sim is not None
        ]
        scored.sort()
        for negated_sim, _, sentence in scored[: cfg.sentences_per_doc]:
            selected.append(
                EvidenceSentence(
                    text=sentence,
                    source=doc.source,
                    doc_id=doc.doc_id,
                    polarity=polarity,
                    similarity=-negated_sim,
                )
            )
    return selected
