"""Knowledge-source adapters and dual (claim + negation) retrieval.

Every adapter answers retrieve(query, k) with at most k documents in
rank order.  The full ranking is computed before truncation, so
retrieve(q, k') is always a prefix of retrieve(q, k) for k' <= k.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence
from urllib.parse import quote_plus

import numpy as np
import requests

from .errors import ConfigurationError, ProviderUnavailable, SourceUnavailable
from .index import LocalIndex
from .types import ClaimPair, PipelineConfig, SourceKind, WEB

log = logging.getLogger(__name__)

ENV_SEARCH_KEY = "SEARCH_API_KEY"
ENV_SEARCH_ENGINE = "SEARCH_ENGINE_ID"
DEFAULT_SEARCH_ENDPOINT = "https://www.googleapis.com/customsearch/v1"

#: Rank-reciprocal fusion constant for hybrid lexical/dense ranking.
RRF_CONSTANT = 60


@dataclass(frozen=True)
class RetrievedDocument:
    """One ranked retrieval hit; rank is 1-based and contiguous per result."""

    doc_id: str
    source: SourceKind
    title: str
    body: str
    rank: int
    score: float

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


class KnowledgeSource(Protocol):
    kind: SourceKind

    def retrieve(self, query_text: str, k: int) -> list[RetrievedDocument]: ...


class LocalCorpusSource:
    """BM25 retrieval over a local inverted index."""

    def __init__(self, kind: SourceKind, index: LocalIndex):
        self.kind = kind
        self._index = index

    def retrieve(self, query_text: str, k: int) -> list[RetrievedDocument]:
        ranked = self._index.ranked(query_text)[:k]
        return [
            RetrievedDocument(doc.doc_id, self.kind, doc.title, doc.body, rank, score)
            for rank, (doc, score) in enumerate(ranked, start=1)
        ]


class BiomedicalSource:
    """BM25 over an abstract corpus, optionally fused with a dense ranking.

    With an embedder configured, the BM25 candidate set is re-ranked by
    reciprocal-rank fusion of the lexical and cosine-similarity orders:
    fused(d) = 1/(60 + lexical_rank) + 1/(60 + dense_rank).  Candidate
    generation stays lexical, so fusion reorders but never adds documents.

    Each candidate's vector and norm are cached by doc_id the first time
    it is fused; the index is read-only, so they never go stale.  A query
    embeds itself plus only the candidates not cached yet.  The cache
    grows to at most docs x dim x 8 bytes (200 docs at 256 dimensions:
    400 KB).  An embedder failure raises SourceUnavailable.
    """

    def __init__(self, kind: SourceKind, index: LocalIndex, embedder=None):
        self.kind = kind
        self._index = index
        self._embedder = embedder
        self._doc_vectors: dict[str, tuple[np.ndarray, float]] = {}

    def retrieve(self, query_text: str, k: int) -> list[RetrievedDocument]:
        ranked = self._index.ranked(query_text)
        if self._embedder is not None and len(ranked) > 1:
            ranked = self._fuse(query_text, ranked)
        return [
            RetrievedDocument(doc.doc_id, self.kind, doc.title, doc.body, rank, score)
            for rank, (doc, score) in enumerate(ranked[:k], start=1)
        ]

    def _fuse(self, query_text, ranked):
        docs = [doc for doc, _ in ranked]
        cache = self._doc_vectors
        missing = [doc for doc in docs if doc.doc_id not in cache]
        try:
            vectors = np.asarray(
                self._embedder.embed([query_text] + [doc.body for doc in missing]),
                dtype=np.float64,
            )
        except ProviderUnavailable as exc:
            raise SourceUnavailable(f"dense fusion embedding failed: {exc}") from exc
        if vectors.ndim != 2 or len(vectors) != len(missing) + 1:
            raise SourceUnavailable(
                f"dense fusion embedding returned shape {vectors.shape} "
                f"for {len(missing) + 1} texts"
            )
        for doc, vec in zip(missing, vectors[1:]):
            cache[doc.doc_id] = (vec, float(np.linalg.norm(vec)))
        query_vec = vectors[0]
        query_norm = float(np.linalg.norm(query_vec))
        matrix = np.stack([cache[doc.doc_id][0] for doc in docs])
        doc_norms = np.array([cache[doc.doc_id][1] for doc in docs])
        # cosine_similarity's expression, one row per document; a zero norm scores -1.0.
        # The product sums in another order than np.dot per row: for non-integer
        # vectors a similarity can differ in its last bit, so only documents whose
        # similarities lie within rounding of each other could swap dense ranks.
        # Integer-valued embeddings (counts) give identical values.
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = np.dot(matrix, query_vec) / (query_norm * doc_norms)
        sims[(doc_norms == 0.0) | (query_norm == 0.0)] = -1.0
        dense_order = sorted(zip(sims.tolist(), (doc.doc_id for doc in docs)),
                             key=lambda pair: (-pair[0], pair[1]))
        dense_rank = {doc_id: pos for pos, (_, doc_id) in enumerate(dense_order, start=1)}
        fused = []
        for lexical_rank, doc in enumerate(docs, start=1):
            score = 1.0 / (RRF_CONSTANT + lexical_rank) + 1.0 / (
                RRF_CONSTANT + dense_rank[doc.doc_id]
            )
            fused.append((score, doc))
        fused.sort(key=lambda pair: (-pair[0], pair[1].doc_id))
        return [(doc, score) for score, doc in fused]


class WebSearchSource:
    """Search-API adapter: GET endpoint returning items[].title/snippet/link.

    The title and the snippet together form the document body, so the
    downstream sentence stages see everything the result page showed.
    """

    def __init__(
        self,
        kind: SourceKind = WEB,
        endpoint: str = DEFAULT_SEARCH_ENDPOINT,
        api_key: str | None = None,
        engine_id: str | None = None,
        session: requests.Session | None = None,
        timeout: float = 10.0,
    ):
        self.kind = kind
        self._endpoint = endpoint
        self._api_key = api_key or os.environ.get(ENV_SEARCH_KEY)
        self._engine_id = engine_id or os.environ.get(ENV_SEARCH_ENGINE)
        if not self._api_key or not self._engine_id:
            raise ConfigurationError(
                f"web search needs {ENV_SEARCH_KEY} and {ENV_SEARCH_ENGINE}"
            )
        self._session = session or requests.Session()
        self._timeout = timeout

    def retrieve(self, query_text: str, k: int) -> list[RetrievedDocument]:
        params = {"key": self._api_key, "cx": self._engine_id, "q": query_text, "num": k}
        try:
            response = self._session.get(self._endpoint, params=params, timeout=self._timeout)
        except requests.RequestException as exc:
            # The exception text can quote the request URL, key included, so
            # the key is redacted and the chained exception is dropped.
            message = str(exc)
            for form in (self._api_key, quote_plus(self._api_key)):
                message = message.replace(form, "<redacted>")
            raise SourceUnavailable(f"web search failed: {message}") from None
        if response.status_code != 200:
            raise SourceUnavailable(f"web search HTTP {response.status_code}")
        try:
            items = response.json().get("items", [])
        except ValueError as exc:
            raise SourceUnavailable(f"web search returned non-JSON: {exc}") from exc
        documents = []
        for position, item in enumerate(items[:k], start=1):
            title = str(item.get("title", "")).strip()
            snippet = str(item.get("snippet", "")).strip()
            link = str(item.get("link", "")) or f"result-{position}"
            body = f"{title.rstrip('.')}. {snippet}" if title else snippet
            documents.append(
                RetrievedDocument(link, self.kind, title, body, position, 1.0 / position)
            )
        return documents


class FixtureSource:
    """Fixture-backed source: canned rank-ordered documents per query."""

    def __init__(self, kind: SourceKind, docs_by_query: Mapping[str, Sequence[RetrievedDocument]]):
        self.kind = kind
        self._docs_by_query = {query: list(docs) for query, docs in docs_by_query.items()}

    def retrieve(self, query_text: str, k: int) -> list[RetrievedDocument]:
        return self._docs_by_query.get(query_text, [])[:k]


def retrieve_dual(
    claim: ClaimPair,
    source: KnowledgeSource,
    cfg: PipelineConfig,
) -> tuple[list[RetrievedDocument], list[RetrievedDocument]]:
    """Retrieve top-k documents for the claim and, separately, its negation.

    The two lists never mix; either may be shorter than k or empty.
    SourceUnavailable propagates for the caller to record per source.
    """
    if claim.negated_text is None:
        raise ValueError(f"claim {claim.id!r} has no negation; run negate_claim first")
    docs_pos = source.retrieve(claim.text, cfg.retrieval_depth)
    docs_neg = source.retrieve(claim.negated_text, cfg.retrieval_depth)
    return docs_pos, docs_neg
