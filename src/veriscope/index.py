"""Local inverted index: the offline stand-in for a hosted search cluster.

Documents come from JSONL files: one object per line whose doc_id, title
and body are strings, doc_id not empty (the document rule, which saved
docs.jsonl records also pass).  Only the body is indexed; web-style
adapters fold titles into the body before they reach this layer.

An index is its documents in doc_id order (by_row; a document's row is
its place there) and one compressed-sparse-row layout of integer
postings: the terms, numbered by first occurrence, and per term t the
span offsets[t]:offsets[t+1] of the rows and tf arrays, in row order.  A
term's df is the length of its span.

Queries are scored from precomputed impacts (Anh & Moffat 2006): a
posting's BM25 contribution never changes, so the first query derives
every contribution in one vectorized pass, and a query sums its terms'
contributions per document with one bincount.  Ranking stays in arrays:
scored_rows returns (rows, scores), cutting a large candidate set to its
top k by partition, and ranked makes (document, score) pairs only for
those rows.

The persisted layout is a flat directory: manifest.json, docs.jsonl (row
order, sorted keys), terms.json and offsets.npy, rows.npy and tf.npy
(no pickles).  Identical corpora always produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from operator import itemgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from .bm25 import K1, idf, length_norm, tokenize
from .errors import ConfigurationError, EmptyCorpus
from .types import indented_json, parse_json, read_jsonl, split_sentences

FORMAT_TAG = "veriscope-index/2"

MANIFEST_FILE = "manifest.json"
DOCS_FILE = "docs.jsonl"
TERMS_FILE = "terms.json"
#: The .npy files of the integer postings, all int64 (numpy's index type
#: on 64-bit hosts, which fancy indexing uses without a conversion).
ARRAY_FILES = ("offsets", "rows", "tf")

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

        The one split of a retrieval hit: every hit reads its stored
        document's (RetrievedDocument.sentences).  Every hit on an index
        document shares this split, made when selection first reads it, so
        a run splits each selected body once; the index's memory grows by
        the split text of the documents selected so far.
        """
        return tuple(split_sentences(self.body))


class LocalIndex:
    """Read-only after construction; safe for concurrent retrieval.

    The posting contributions and each document's sentence split are
    filled on first use.  Threads that race on a first use compute the
    same values, and whichever store lands last replaces an equal one.
    """

    def __init__(
        self,
        by_row: list[StoredDocument],
        terms: dict[str, int],
        offsets: np.ndarray,
        rows: np.ndarray,
        tf: np.ndarray,
        skipped: int = 0,
    ):
        """terms maps each term to its number, 0, 1, ... in the dict's order."""
        self._offsets = offsets.tolist()  # the query loop reads a list faster than an array
        if len(self._offsets) != len(terms) + 1 or not self._offsets[-1] == len(rows) == len(tf):
            raise ValueError("the postings arrays do not match the term list")
        #: The documents in ascending doc_id order: by_row[r] is row r of every scoring array.
        self.by_row = by_row
        self.doc_count = len(by_row)
        self.term_count = len(terms)
        self.skipped = skipped
        self._terms = terms
        self._posting_rows = rows
        self._tf = tf
        self.avg_doc_length = sum(doc.length for doc in by_row) / len(by_row) if by_row else 0.0

    @classmethod
    def from_documents(cls, docs: Iterable[tuple[str, str, str]], skipped: int = 0) -> "LocalIndex":
        """Build from (doc_id, title, body) triples; raises EmptyCorpus on none
        and ValueError on a repeated doc_id.

        Terms are numbered by first occurrence in row order.  Each token is
        keyed term * doc_count + row, and one sort of the keys lays out the
        postings: a run of equal keys is a posting, its length the tf.  The
        numpy calls are few and fixed: on a small corpus each outweighs a posting.
        """
        by_row: list[StoredDocument] = []
        tokens: list[str] = []
        for doc_id, title, body in sorted(docs, key=itemgetter(0)):
            if by_row and by_row[-1].doc_id == doc_id:
                raise ValueError(f"duplicate doc_id {doc_id!r}")
            doc_tokens = tokenize(body)
            by_row.append(StoredDocument(doc_id, title, body, len(doc_tokens)))
            tokens.extend(doc_tokens)
        if not by_row:
            raise EmptyCorpus("no valid documents to index")
        n = len(by_row)
        terms = dict(zip(dict.fromkeys(tokens), count()))  # numbered by first occurrence
        keys = np.fromiter(map(terms.__getitem__, tokens), np.int64, len(tokens)) * n
        keys += np.arange(n).repeat([doc.length for doc in by_row])
        keys.sort()
        run_starts = np.empty(len(keys) + 1, bool)
        run_starts[0] = run_starts[-1] = True
        np.not_equal(keys[1:], keys[:-1], out=run_starts[1:-1])
        bounds = run_starts.nonzero()[0]
        keys = keys[bounds[:-1]]
        offsets = keys.searchsorted(np.arange(0, (len(terms) + 1) * n, n))
        return cls(by_row, terms, offsets, keys % n, bounds[1:] - bounds[:-1], skipped=skipped)

    @cached_property
    def _contributions(self) -> np.ndarray:
        """Each posting's BM25 contribution: bm25_score's expression, evaluated
        element-wise in the same order, with idf once per term."""
        df = np.diff(self._offsets)
        idfs = np.array([idf(value, self.doc_count) for value in df.tolist()])
        lengths = np.array([doc.length for doc in self.by_row])
        norms = length_norm(lengths[self._posting_rows], self.avg_doc_length)
        return np.repeat(idfs, df) * self._tf * (K1 + 1.0) / (self._tf + K1 * norms)

    def scored_rows(self, query_text: str, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Rows and BM25 scores of the documents matching a query term, top k first.

        The postings of the query terms, in query order and with repeats,
        go through one bincount, which adds each document's contributions
        in input order from 0.0.  The contributions use bm25_score's
        expression and are summed in its order, so every score equals
        brute-force scoring of the whole corpus bit for bit.  Every
        contribution is positive, so the matches are the nonzero sums.

        Rows are ordered by (-score, doc_id): the sums are in row (doc_id)
        order and the sort on score is stable.  With k, and more
        than k + PARTITION_MARGIN matching rows, an argpartition first
        keeps every row scoring at least the k-th best score, ties
        included, so the stable sort of that slice orders the boundary
        ties by row exactly as a full sort would.  Either way
        scored_rows(q, k) is the first k of scored_rows(q).  k=None
        returns every matching row; k < 0 raises ValueError.
        """
        if k is not None and k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        offsets = self._offsets
        hits = [t for t in map(self._terms.get, tokenize(query_text)) if t is not None]
        if not hits:
            return np.empty(0, np.intp), np.empty(0)
        spans = [slice(offsets[t], offsets[t + 1]) for t in hits]
        scores = np.bincount(
            np.concatenate([self._posting_rows[span] for span in spans]),
            np.concatenate([self._contributions[span] for span in spans]),
            self.doc_count,
        )
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
        manifest = {"format": FORMAT_TAG, "doc_count": self.doc_count,
                    "avg_doc_length": self.avg_doc_length, "term_count": self.term_count}
        (out_dir / MANIFEST_FILE).write_text(indented_json(manifest), encoding="utf-8")
        # keys already in sorted order: sort_keys=True would build an encoder per record
        records = [{"body": doc.body, "doc_id": doc.doc_id, "length": doc.length, "title": doc.title}
                   for doc in self.by_row]
        (out_dir / DOCS_FILE).write_text("".join(json.dumps(r) + "\n" for r in records),
                                         encoding="utf-8")
        (out_dir / TERMS_FILE).write_text(json.dumps(list(self._terms)) + "\n", encoding="utf-8")
        offsets = np.array(self._offsets, np.int64)
        for name, array in zip(ARRAY_FILES, (offsets, self._posting_rows, self._tf)):
            np.save(out_dir / f"{name}.npy", array, allow_pickle=False)

    @classmethod
    def load(cls, index_dir: Path) -> "LocalIndex":
        """Read a saved index.  A missing or unreadable directory, another format
        (veriscope-index/1 included), a manifest that is not an object, a
        docs.jsonl record that fails the corpus document rule or whose length is
        not an int >= 0, a terms.json that is not a list of strings, postings
        that are not 1-D int64 or do not fit the index (offsets, rows or tf out
        of order or range), or a docs.jsonl or terms.json whose length is not
        the manifest's doc_count or term_count raises ConfigurationError."""
        index_dir = Path(index_dir)
        try:
            manifest = parse_json((index_dir / MANIFEST_FILE).read_text(encoding="utf-8"), dict,
                                  MANIFEST_FILE)
            if manifest.get("format") != FORMAT_TAG:
                raise ValueError(f"format {manifest.get('format')!r}, expected {FORMAT_TAG!r}")
            lines = (index_dir / DOCS_FILE).read_text(encoding="utf-8").splitlines()
            records = parse_json("[" + ",".join(lines) + "]", list, DOCS_FILE)
            by_row = [_stored_document(r, lineno) for lineno, r in enumerate(records, start=1)]
            terms = parse_json((index_dir / TERMS_FILE).read_text(encoding="utf-8"), list, TERMS_FILE)
            if not all(isinstance(term, str) for term in terms):
                raise ValueError(f"a {TERMS_FILE} entry is not a string")
            if (len(by_row), len(terms)) != (manifest["doc_count"], manifest["term_count"]):
                raise ValueError(f"{len(by_row)} documents and {len(terms)} terms, not the manifest's "
                                 f"{manifest['doc_count']} and {manifest['term_count']}")
            offsets, rows, tf = arrays = [np.load(index_dir / f"{n}.npy", allow_pickle=False) for n in ARRAY_FILES]
            for name, array in zip(ARRAY_FILES, arrays):
                if array.dtype != np.int64 or array.ndim != 1:
                    raise ValueError(f"{name}.npy is {array.ndim}-D {array.dtype}, not 1-D int64")
            index = cls(by_row, dict(zip(terms, count())), *arrays)
            # from_documents lays postings out this way; files from outside may not
            spans = np.diff(offsets)
            if offsets[0] != 0 or spans.min(initial=0) < 0:
                raise ValueError("offsets.npy does not start at 0 or decreases")
            keys = np.repeat(np.arange(len(terms)), spans) * len(by_row) + rows
            if rows.min(initial=0) < 0 or rows.max(initial=-1) >= len(by_row) or np.diff(keys).min(initial=1) < 1:
                raise ValueError(f"rows.npy holds a row outside [0, {len(by_row)}) or not ascending within a term")
            if tf.min(initial=1) < 1:
                raise ValueError("tf.npy holds a tf below 1")
            return index
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigurationError(
                f"cannot load the index in {index_dir} ({exc}); build it again with "
                f"`veriscope index <corpus> --out {index_dir}`"
            ) from exc


def _document_fields(record: dict) -> tuple[str, str, str]:
    """The (doc_id, title, body) of a corpus line or docs.jsonl record, checked by the document rule."""
    for field in ("doc_id", "title", "body"):
        if not isinstance(record.get(field), str):
            raise ValueError(f"field {field!r} is missing or not a string")
    if not record["doc_id"]:
        raise ValueError("empty doc_id")
    return record["doc_id"], record["title"], record["body"]


def _stored_document(record, lineno: int) -> StoredDocument:
    """Line lineno of docs.jsonl: the document rule, and a length that is an int >= 0."""
    length = record.get("length") if isinstance(record, dict) else None
    try:
        if isinstance(length, bool) or not isinstance(length, int) or length < 0:
            raise ValueError("not an object with a length that is an int >= 0")
        return StoredDocument(*_document_fields(record), length)
    except ValueError as exc:
        raise ValueError(f"{DOCS_FILE} line {lineno}: {exc}") from None


def build_local_index(corpus_path: Path, out_dir: Path | None = None) -> LocalIndex:
    """Index a JSONL corpus file, or every *.jsonl file of a directory; optionally persist to out_dir.

    A line failing the document rule or repeating a doc_id is logged and
    skipped (types.read_jsonl).  A missing path raises FileNotFoundError,
    and no valid document EmptyCorpus.  Identical input always yields
    identical persisted bytes.
    """
    corpus_path = Path(corpus_path)
    files = sorted(corpus_path.glob("*.jsonl")) if corpus_path.is_dir() else [corpus_path]
    seen_ids: set[str] = set()

    def document(record: dict, lineno: int) -> tuple[str, str, str]:
        doc_id, title, body = _document_fields(record)
        if doc_id in seen_ids:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        seen_ids.add(doc_id)
        return doc_id, title, body

    read = [read_jsonl(file, document) for file in files]
    index = LocalIndex.from_documents([doc for kept, _ in read for doc in kept],
                                      skipped=sum(rejected for _, rejected in read))
    if out_dir is not None:
        index.save(Path(out_dir))
    return index
