"""Local inverted index: the offline stand-in for a hosted search cluster.

Documents come from JSONL files (one object per line with doc_id, title
and body).  Only the body is indexed; web-style adapters fold titles
into the body before they reach this layer.

Queries are scored term-at-a-time from precomputed impacts (Anh & Moffat
2006): a (term, doc) posting's BM25 contribution never changes, so each
term keeps an array of document rows (a document's row is its place in
doc_id order) and an array of contributions, and a query is one array
addition per query term.  The arrays are built the first time a query
uses the term, so building and loading an index do no per-posting work
beyond reading the postings.  Ranking stays in arrays: scored_rows
returns (rows, scores), cutting a large candidate set to its top k by
partition, and ranked makes (document, score) pairs only for the rows
it returns.

The persisted layout is a directory of manifest.json + postings.json +
docs.jsonl, written with sorted keys so identical corpora always produce
identical bytes.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .bm25 import K1, CorpusStats, idf, length_norm, tokenize
from .errors import EmptyCorpus, MalformedDocument
from .types import split_sentences

log = logging.getLogger(__name__)

FORMAT_TAG = "veriscope-index/1"

MANIFEST_FILE = "manifest.json"
POSTINGS_FILE = "postings.json"
DOCS_FILE = "docs.jsonl"

#: scored_rows partitions before it sorts only when the matching rows
#: outnumber k by more than this.  Below it one stable sort is faster,
#: since numpy's per-call cost outweighs the sort (measured crossover:
#: 600 rows for k=5, 1,500 for k=1000).
PARTITION_MARGIN = 512


@dataclass(frozen=True)
class StoredDocument:
    doc_id: str
    title: str
    body: str
    length: int

    @cached_property
    def sentences(self) -> tuple[str, ...]:
        """split_sentences(body), made on first use and kept with the document.

        Every hit on the document from its index shares this one split,
        made when selection first reads it, so a run splits each selected
        body once; the index's memory grows by the split text of the
        documents selected so far.
        """
        return tuple(split_sentences(self.body))


class LocalIndex:
    """Read-only after construction; safe for concurrent retrieval.

    The scoring arrays and each document's sentence split are filled on
    first use.  Threads that race on a first use compute the same values,
    and whichever store lands last replaces an equal one.
    """

    def __init__(
        self,
        documents: dict[str, StoredDocument],
        postings: dict[str, dict[str, int]],
        skipped: int = 0,
    ):
        self._documents = documents
        self._postings = postings
        self.skipped = skipped
        total_length = sum(doc.length for doc in documents.values())
        self.stats = CorpusStats(
            doc_count=len(documents),
            avg_doc_length=total_length / len(documents) if documents else 0.0,
            doc_frequencies={term: len(entry) for term, entry in postings.items()},
        )
        self._impacts: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def doc_count(self) -> int:
        return self.stats.doc_count

    @property
    def term_count(self) -> int:
        return len(self._postings)

    def document(self, doc_id: str) -> StoredDocument:
        return self._documents[doc_id]

    @classmethod
    def from_documents(cls, docs: Iterable[tuple[str, str, str]], skipped: int = 0) -> "LocalIndex":
        """Build from (doc_id, title, body) triples; raises EmptyCorpus on none."""
        documents: dict[str, StoredDocument] = {}
        postings: dict[str, dict[str, int]] = {}
        for doc_id, title, body in docs:
            tokens = tokenize(body)
            documents[doc_id] = StoredDocument(doc_id, title, body, len(tokens))
            for term, tf in Counter(tokens).items():
                postings.setdefault(term, {})[doc_id] = tf
        if not documents:
            raise EmptyCorpus("no valid documents to index")
        return cls(documents, postings, skipped=skipped)

    @cached_property
    def by_row(self) -> list[StoredDocument]:
        """The documents in ascending doc_id order: by_row[r] is row r of every scoring array."""
        return [self._documents[doc_id] for doc_id in sorted(self._documents)]

    @cached_property
    def _rows(self) -> dict[str, int]:
        return {doc.doc_id: row for row, doc in enumerate(self.by_row)}

    @cached_property
    def _length_norms(self) -> np.ndarray:
        return np.array([length_norm(doc.length, self.stats) for doc in self.by_row])

    def _term_impacts(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """(rows, contributions) of the term's postings; None for an unindexed term."""
        impacts = self._impacts.get(term)
        if impacts is None:
            entry = self._postings.get(term)
            if not entry:
                return None
            doc_rows = self._rows
            rows = np.fromiter((doc_rows[doc_id] for doc_id in entry), np.intp, len(entry))
            tf = np.fromiter(entry.values(), np.float64, len(entry))
            # bm25_score's expression, evaluated element-wise in the same order.
            contributions = (
                idf(term, self.stats) * tf * (K1 + 1.0) / (tf + K1 * self._length_norms[rows])
            )
            impacts = self._impacts[term] = (rows, contributions)
        return impacts

    def scored_rows(self, query_text: str, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Rows and BM25 scores of the documents matching a query term, top k first.

        Each query term adds its postings' precomputed contributions to a
        per-document accumulator, in query order and with repeats.  The
        contributions use bm25_score's expression and are summed in the
        same order from 0.0, so every score equals brute-force scoring of
        the whole corpus bit for bit.  Every contribution is positive, so
        the matching documents are the accumulator's nonzero entries.

        Rows are ordered by (-score, doc_id): the accumulator is in row
        (doc_id) order and the sort on score is stable.  With k, and more
        than k + PARTITION_MARGIN matching rows, an argpartition first
        keeps every row scoring at least the k-th best score, ties
        included, so the stable sort of that slice orders the boundary
        ties by row exactly as a full sort would.  Either way
        scored_rows(q, k) is the first k of scored_rows(q).  k=None
        returns every matching row; k < 0 raises ValueError.
        """
        if k is not None and k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        scores = np.zeros(self.stats.doc_count)
        for term in tokenize(query_text):
            impacts = self._term_impacts(term)
            if impacts is not None:
                rows, contributions = impacts
                scores[rows] += contributions
        rows = scores.nonzero()[0]
        keys = -scores[rows]
        if k and len(rows) > k + PARTITION_MARGIN:
            kept = keys <= keys[np.argpartition(keys, k - 1)[k - 1]]
            rows, keys = rows[kept], keys[kept]
        order = keys.argsort(kind="stable")[:k]
        return rows[order], -keys[order]

    def ranked(self, query_text: str, k: int | None = None) -> list[tuple[StoredDocument, float]]:
        """scored_rows(query_text, k) as (document, score) pairs, top k first.

        The order, and ranked(q, k) == ranked(q)[:k], are scored_rows';
        only the returned rows become tuples.
        """
        rows, scores = self.scored_rows(query_text, k)
        docs = self.by_row
        return [(docs[row], score) for row, score in zip(rows.tolist(), scores.tolist())]

    def save(self, out_dir: Path) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": FORMAT_TAG,
            "doc_count": self.stats.doc_count,
            "avg_doc_length": self.stats.avg_doc_length,
            "term_count": self.term_count,
        }
        (out_dir / MANIFEST_FILE).write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        postings = {
            term: sorted(entry.items()) for term, entry in sorted(self._postings.items())
        }
        (out_dir / POSTINGS_FILE).write_text(
            json.dumps(postings, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        with (out_dir / DOCS_FILE).open("w", encoding="utf-8") as handle:
            for doc_id in sorted(self._documents):
                doc = self._documents[doc_id]
                record = {
                    "doc_id": doc.doc_id,
                    "title": doc.title,
                    "body": doc.body,
                    "length": doc.length,
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    @classmethod
    def load(cls, index_dir: Path) -> "LocalIndex":
        index_dir = Path(index_dir)
        manifest = json.loads((index_dir / MANIFEST_FILE).read_text(encoding="utf-8"))
        if manifest.get("format") != FORMAT_TAG:
            raise ValueError(f"unsupported index format: {manifest.get('format')!r}")
        postings_raw = json.loads((index_dir / POSTINGS_FILE).read_text(encoding="utf-8"))
        postings = {term: dict(entry) for term, entry in postings_raw.items()}
        documents: dict[str, StoredDocument] = {}
        with (index_dir / DOCS_FILE).open(encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                documents[record["doc_id"]] = StoredDocument(
                    record["doc_id"], record["title"], record["body"], record["length"]
                )
        return cls(documents, postings)


def _parse_record(lineno: int, line: str) -> tuple[str, str, str]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(lineno, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise MalformedDocument(lineno, "record is not an object")
    for field in ("doc_id", "title", "body"):
        if field not in record:
            raise MalformedDocument(lineno, f"missing field {field!r}")
        if not isinstance(record[field], str):
            raise MalformedDocument(lineno, f"field {field!r} is not a string")
    if not record["doc_id"]:
        raise MalformedDocument(lineno, "empty doc_id")
    return record["doc_id"], record["title"], record["body"]


def build_local_index(corpus_path: Path, out_dir: Path | None = None) -> LocalIndex:
    """Index a JSONL corpus; optionally persist to out_dir.

    Malformed lines are logged with their line number and skipped;
    duplicate doc_ids are rejected the same way.  Raises EmptyCorpus when
    nothing valid remains.  Identical input always yields identical
    persisted bytes.
    """
    corpus_path = Path(corpus_path)
    if not corpus_path.exists():
        raise FileNotFoundError(f"corpus not found: {corpus_path}")
    files = sorted(corpus_path.glob("*.jsonl")) if corpus_path.is_dir() else [corpus_path]
    triples: list[tuple[str, str, str]] = []
    seen_ids: set[str] = set()
    skipped = 0
    for file in files:
        with file.open(encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    doc_id, title, body = _parse_record(lineno, line)
                    if doc_id in seen_ids:
                        raise MalformedDocument(lineno, f"duplicate doc_id {doc_id!r}")
                except MalformedDocument as exc:
                    log.warning("skipping corpus %s: %s", file.name, exc)
                    skipped += 1
                    continue
                seen_ids.add(doc_id)
                triples.append((doc_id, title, body))
    index = LocalIndex.from_documents(triples, skipped=skipped)
    if out_dir is not None:
        index.save(Path(out_dir))
    return index
