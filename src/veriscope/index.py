"""Local inverted index: the offline stand-in for a hosted search cluster.

Documents come from JSONL files (one object per line with doc_id, title
and body).  Only the body is indexed; web-style adapters fold titles
into the body before they reach this layer.

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
import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from operator import itemgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from .bm25 import K1, idf, length_norm, tokenize
from .errors import ConfigurationError, EmptyCorpus, MalformedDocument
from .types import split_sentences

log = logging.getLogger(__name__)

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

        Every hit on the document from its index shares this one split,
        made when selection first reads it, so a run splits each selected
        body once; the index's memory grows by the split text of the
        documents selected so far.
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
        (out_dir / MANIFEST_FILE).write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
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
        (veriscope-index/1 included), a manifest or docs.jsonl record that is not
        an object, a terms.json that is not a list, postings that are not 1-D
        int64, or a docs.jsonl or terms.json whose length is not the manifest's
        doc_count or term_count raises ConfigurationError."""
        index_dir = Path(index_dir)
        try:
            manifest = json.loads((index_dir / MANIFEST_FILE).read_text(encoding="utf-8"))
            if not isinstance(manifest, dict):
                raise ValueError(f"{MANIFEST_FILE} is not an object")
            if manifest.get("format") != FORMAT_TAG:
                raise ValueError(f"format {manifest.get('format')!r}, expected {FORMAT_TAG!r}")
            lines = (index_dir / DOCS_FILE).read_text(encoding="utf-8").splitlines()
            records = json.loads("[" + ",".join(lines) + "]")
            if not all(isinstance(r, dict) for r in records):
                raise ValueError(f"a {DOCS_FILE} record is not an object")
            by_row = [StoredDocument(r["doc_id"], r["title"], r["body"], r["length"]) for r in records]
            terms = json.loads((index_dir / TERMS_FILE).read_text(encoding="utf-8"))
            if not isinstance(terms, list):
                raise ValueError(f"{TERMS_FILE} is not a list")
            if (len(by_row), len(terms)) != (manifest["doc_count"], manifest["term_count"]):
                raise ValueError(f"{len(by_row)} documents and {len(terms)} terms, not the manifest's "
                                 f"{manifest['doc_count']} and {manifest['term_count']}")
            arrays = [np.load(index_dir / f"{n}.npy", allow_pickle=False) for n in ARRAY_FILES]
            for name, array in zip(ARRAY_FILES, arrays):
                if array.dtype != np.int64 or array.ndim != 1:
                    raise ValueError(f"{name}.npy is {array.ndim}-D {array.dtype}, not 1-D int64")
            return cls(by_row, dict(zip(terms, count())), *arrays)
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigurationError(
                f"cannot load the index in {index_dir} ({exc}); build it again with "
                f"`veriscope index <corpus> --out {index_dir}`"
            ) from exc


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
