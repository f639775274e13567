"""Knowledge-source adapters.

Every adapter answers retrieve(query, k) with at most k documents in
rank order.  The local sources order documents by a total order,
(-score, doc_id) for BM25 and for fusion, and cut it at k, so
retrieve(q, k') is always a prefix of retrieve(q, k) for k' <= k.
verify_claim runs the dual retrieval: each source is asked once for
the claim and once for its negation; pubmed fusion embeds through the
claim's EmbeddingMemo, which also holds the rows selection scores against.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Protocol

import numpy as np

from ._http import JsonHttpClient
from .errors import ConfigurationError, ProviderUnavailable
from .index import LocalIndex, StoredDocument
from .selection import EmbeddingMemo
from .types import SourceKind, WEB, split_sentences

if TYPE_CHECKING:
    import requests

ENV_SEARCH_KEY = "SEARCH_API_KEY"
ENV_SEARCH_ENGINE = "SEARCH_ENGINE_ID"
DEFAULT_SEARCH_ENDPOINT = "https://www.googleapis.com/customsearch/v1"
#: Seconds a search request may take before it counts as a transport error.
SEARCH_TIMEOUT = 10.0

#: Rank-reciprocal fusion constant for hybrid lexical/dense ranking.
RRF_CONSTANT = 60
#: Lexical candidates that fusion re-ranks: the top 1000 BM25 rows, the
#: depth of the TREC runs Cormack, Clarke & Buettcher (2009) fused.
FUSION_DEPTH = 1000


@dataclass(frozen=True)
class RetrievedDocument:
    """One ranked retrieval hit; rank is 1-based and contiguous per result.

    stored is the index document a local source retrieved (None for any
    other source); it is not part of the hit's value.
    """

    doc_id: str
    source: SourceKind
    title: str
    body: str
    rank: int
    score: float
    stored: StoredDocument | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")

    @cached_property
    def sentences(self) -> tuple[str, ...]:
        """split_sentences(body), made on first use.

        A local source's hit reads its stored document's split
        (StoredDocument.sentences, made once per index), so a document is
        split only when selection first reads it, and once however often
        it is retrieved.
        """
        if self.stored is not None:
            return self.stored.sentences
        return tuple(split_sentences(self.body))


def _retrieved(kind: SourceKind, ranked) -> list[RetrievedDocument]:
    """Ranked (StoredDocument, score) pairs as hits that share each stored document's split."""
    return [
        RetrievedDocument(doc.doc_id, kind, doc.title, doc.body, rank, score, doc)
        for rank, (doc, score) in enumerate(ranked, start=1)
    ]


class KnowledgeSource(Protocol):
    """Returns at most k hits for a query, best first; k < 0 raises ValueError.

    A source that is down raises ProviderUnavailable, so verify_claim makes
    it abstain; any other exception aborts the claim."""

    kind: SourceKind

    def retrieve(self, query_text: str, k: int) -> list[RetrievedDocument]: ...


class LocalCorpusSource:
    """BM25 retrieval over a local inverted index."""

    def __init__(self, kind: SourceKind, index: LocalIndex):
        self.kind = kind
        self._index = index

    def retrieve(self, query_text: str, k: int) -> list[RetrievedDocument]:
        return _retrieved(self.kind, self._index.ranked(query_text, k))


class BiomedicalSource:
    """BM25 over an abstract corpus, fused with a dense ranking.

    The top FUSION_DEPTH (1000) BM25 candidates are re-ranked by
    reciprocal-rank fusion of the lexical and cosine-similarity orders:
    fused(d) = 1/(60 + lexical_rank) + 1/(60 + dense_rank).  Candidate
    generation stays lexical, so fusion reorders but never adds
    documents, and a document below the lexical depth is never returned.
    A lone candidate scores 2/61 with no embedding call.

    Each fused document's vector and norm are cached the first time it
    is fused, at its index row of a docs x dim matrix; only fused
    documents get a row, and the index is read-only, so rows never go
    stale.  A query makes at most one call, through an EmbeddingMemo,
    for its row and the distinct bodies not cached yet, so it sends at
    most 1000 bodies.  verify_claim passes the claim's memo (memo=),
    whose first call also carries the claim and negation rows; without
    it, or when it wraps another embedder object, a memo of the query's
    own is used, so rows never cross embedders.  The matrix is allocated
    at the first fill and takes docs x dim x 8 bytes (200 docs at 256
    dimensions: 400 KB).  The index holds postings x 24 bytes: an 8-byte
    row and tf per posting, and from its first query an 8-byte BM25
    contribution.  An embedder failure raises ProviderUnavailable, prefixed
    "dense fusion embedding failed:".  For plain BM25, use LocalCorpusSource.
    """

    def __init__(self, kind: SourceKind, index: LocalIndex, embedder):
        self.kind = kind
        self._index = index
        self._embedder = embedder
        self._doc_vectors: np.ndarray | None = None
        self._doc_norms = np.zeros(index.doc_count)
        self._cached = np.zeros(index.doc_count, dtype=bool)
        self._fill_lock = threading.Lock()

    def retrieve(
        self, query_text: str, k: int, *, memo: EmbeddingMemo | None = None
    ) -> list[RetrievedDocument]:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        rows, _ = self._index.scored_rows(query_text, FUSION_DEPTH)
        lexical_rank = np.arange(1, len(rows) + 1)
        dense_rank = lexical_rank  # a lone candidate is first in both orders: no embedding
        if len(rows) > 1:
            if memo is None or memo.embedder is not self._embedder:
                memo = EmbeddingMemo(self._embedder)
            # A row numbers its document in doc_id order, so lexsort's secondary
            # key breaks cosine ties by doc_id.
            dense_rank = np.empty(len(rows), dtype=np.intp)
            dense_rank[np.lexsort((rows, -self._cosines(query_text, rows, memo)))] = lexical_rank
        fused = 1.0 / (RRF_CONSTANT + lexical_rank) + 1.0 / (RRF_CONSTANT + dense_rank)
        top = np.lexsort((rows, -fused))[:k]
        docs = self._index.by_row
        hits = zip(rows[top].tolist(), fused[top].tolist())
        return _retrieved(self.kind, [(docs[row], score) for row, score in hits])

    def _cosines(self, query_text, rows, memo):
        """memo.similarities(query_text, bodies of rows) as an array, -1.0 for None.

        The cached rows and norms are the memo's, and vecdot sums each row as
        row.dot does, so every value equals the memo's for the same pair.
        """
        missing = rows[~self._cached[rows]]
        docs = self._index.by_row
        bodies = [docs[row].body for row in missing.tolist()]
        try:
            memo.prefetch([query_text, *bodies])
        except ProviderUnavailable as exc:
            raise ProviderUnavailable(f"dense fusion embedding failed: {exc}") from exc
        if bodies:
            self._store(missing, [memo.row(body) for body in bodies])
        query_vec, query_norm = memo.row(query_text)
        doc_norms = self._doc_norms[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = np.vecdot(self._doc_vectors[rows], query_vec) / (query_norm * doc_norms)
        sims[(doc_norms == 0.0) | (query_norm == 0.0)] = -1.0
        return sims

    def _store(self, rows: np.ndarray, entries: list[tuple[np.ndarray, float]]) -> None:
        """Cache the (vector, norm) entries of rows not cached yet; each row is written once."""
        vectors, norms = map(np.array, zip(*entries))
        with self._fill_lock:
            if self._doc_vectors is None:
                self._doc_vectors = np.zeros((len(self._cached), vectors.shape[1]))
            fresh = ~self._cached[rows]
            self._doc_vectors[rows[fresh]] = vectors[fresh]
            self._doc_norms[rows[fresh]] = norms[fresh]
            self._cached[rows[fresh]] = True


class WebSearchSource:
    """Search-API adapter: GET endpoint returning items[].title/snippet/link.

    Requests go through JsonHttpClient (no headers; the key travels as a
    query parameter), so 429, 5xx and transport errors are retried with
    backoff under the client's in-flight bound.  The title and the
    snippet together form the document body, so the downstream sentence
    stages see everything the result page showed.  A title or snippet
    that is null or not a string reads as "", and a missing or null link
    as result-<position>.  A failed request, or a reply that is not an
    object whose items are a list of objects, raises ProviderUnavailable.
    """

    kind = WEB

    def __init__(
        self,
        endpoint: str = DEFAULT_SEARCH_ENDPOINT,
        api_key: str | None = None,
        engine_id: str | None = None,
        session: requests.Session | None = None,
    ):
        self._api_key = api_key or os.environ.get(ENV_SEARCH_KEY)
        self._engine_id = engine_id or os.environ.get(ENV_SEARCH_ENGINE)
        if not self._api_key or not self._engine_id:
            raise ConfigurationError(
                f"web search needs {ENV_SEARCH_KEY} and {ENV_SEARCH_ENGINE}"
            )
        self.client = JsonHttpClient(endpoint, timeout=SEARCH_TIMEOUT, session=session)

    def retrieve(self, query_text: str, k: int) -> list[RetrievedDocument]:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        params = {"key": self._api_key, "cx": self._engine_id, "q": query_text, "num": k}
        data = self.client.get(params)
        items = data.get("items", []) if isinstance(data, dict) else None
        if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
            raise ProviderUnavailable("web search reply has no list of result objects")
        documents = []
        for position, item in enumerate(items[:k], start=1):
            title, snippet = (
                value.strip() if isinstance(value, str) else ""
                for value in (item.get("title"), item.get("snippet"))
            )
            link = str(item.get("link") or f"result-{position}")
            body = f"{title.rstrip('.')}. {snippet}" if title else snippet
            documents.append(
                RetrievedDocument(link, self.kind, title, body, position, 1.0 / position)
            )
        return documents
