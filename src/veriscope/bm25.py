"""Okapi-style BM25 scoring over normalized tokens.

score(q, d) = sum over query terms t of
    idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * |d| / avgdl))
with idf(t) = ln(1 + (N + 0.5) / (df + 0.5)), k1 = 1.2, b = 0.75.

The idf form is pinned by the package's reference value for a
single-document corpus: query "cat" against the one document "cat"
scores exactly ln 2 = 0.6931...  Terms absent from a document
contribute 0 via tf = 0; the idf is positive for every term, so a
document scores above zero iff it contains at least one query term.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .types import strip_punctuation

K1 = 1.2
B = 0.75


def tokenize(text: str) -> list[str]:
    """normalize_sentence(text).split() without the join: the one tokenizer of
    BM25 indexing, BM25 queries and HashedBowEmbedder.  ASCII text takes
    strip_punctuation's one bytes pass, other text its table; same tokens."""
    return strip_punctuation(text).split()


@dataclass(frozen=True)
class CorpusStats:
    """Per-corpus statistics required by the scoring formula."""

    doc_count: int
    avg_doc_length: float
    doc_frequencies: Mapping[str, int]


def idf(df: int, doc_count: int) -> float:
    return math.log(1.0 + (doc_count + 0.5) / (df + 0.5))


def length_norm(doc_length, avg_doc_length: float):
    """The document-length factor 1 - B + B * |d| / avgdl (1.0 for an empty corpus).

    An array of lengths gets, element-wise, the value of the scalar call."""
    if avg_doc_length > 0:
        return 1.0 - B + B * doc_length / avg_doc_length
    return 1.0


def bm25_score(query_terms: Sequence[str], doc_tokens: Sequence[str], stats: CorpusStats) -> float:
    """Score one document (as a token sequence) against the query terms."""
    counts = Counter(doc_tokens)
    norm = length_norm(len(doc_tokens), stats.avg_doc_length)
    score = 0.0
    for term in query_terms:
        tf = counts.get(term, 0)
        if tf == 0:
            continue
        term_idf = idf(stats.doc_frequencies.get(term, 0), stats.doc_count)
        score += term_idf * tf * (K1 + 1.0) / (tf + K1 * norm)
    return score
