"""Shared domain vocabulary for the verification pipeline.

Every stage exchanges the same small set of immutable value objects:
claims paired with their negated counterparts, knowledge-source
identities, label schemes for verdict options, and the numeric knobs
that bound retrieval depth and evidence budgets.  All types here are
frozen dataclasses and safe to share across threads.
"""

from __future__ import annotations

import dataclasses
import unicodedata
from dataclasses import dataclass


class _PunctuationTable(dict):
    """str.translate table deleting Unicode punctuation (categories P*).

    Each code point is classified on its first lookup and cached, so a
    character costs one dict hit after that.  Concurrent first lookups of
    one code point store the same value, so no lock is needed.
    """

    def __missing__(self, code_point: int) -> int | None:
        keep = not unicodedata.category(chr(code_point)).startswith("P")
        self[code_point] = mapped = code_point if keep else None
        return mapped


_PUNCTUATION_TABLE = _PunctuationTable()


def normalize_sentence(raw: str) -> str:
    """Canonical text form used for deduplication and tokenization.

    Lowercases, removes every character in the Unicode punctuation
    categories (P*), and collapses internal whitespace runs to single
    spaces.  Idempotent; empty input yields empty output.
    """
    return " ".join(raw.translate(_PUNCTUATION_TABLE).lower().split())


@dataclass(frozen=True)
class SourceKind:
    """Identity of one evidence repository.

    Three canonical kinds (encyclopedia-like, biomedical-abstract-like,
    web search) are predefined below; adapters may introduce further
    names.
    """

    name: str

    def __post_init__(self):
        if not self.name.strip():
            raise ValueError("source name must be non-empty")

    def __str__(self) -> str:
        return self.name


WIKIPEDIA = SourceKind("wikipedia")
PUBMED = SourceKind("pubmed")
WEB = SourceKind("web")
#: Pseudo-source tagging verdicts computed over the cross-source evidence union.
MERGED = SourceKind("merged")

CANONICAL_SOURCES = (WIKIPEDIA, PUBMED, WEB)
_CANONICAL_RANK = {kind.name: pos for pos, kind in enumerate(CANONICAL_SOURCES)}


def source_order_key(kind: SourceKind) -> tuple[int, str]:
    """Fixed cross-source ordering: wikipedia, pubmed, web, then adapters by name."""
    return (_CANONICAL_RANK.get(kind.name, len(CANONICAL_SOURCES)), kind.name)


@dataclass(frozen=True)
class ClaimPair:
    """A claim sentence plus, once generated, its negated counterpart."""

    id: str
    text: str
    negated_text: str | None = None
    gold_label: str | None = None

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError(f"claim {self.id!r}: text must be non-empty")
        if self.negated_text is not None:
            if not self.negated_text.strip():
                raise ValueError(f"claim {self.id!r}: negated_text must be non-empty")
            if normalize_sentence(self.negated_text) == normalize_sentence(self.text):
                raise ValueError(
                    f"claim {self.id!r}: negation equals the claim after normalization"
                )

    def with_negation(self, negated_text: str) -> "ClaimPair":
        return dataclasses.replace(self, negated_text=negated_text)


@dataclass(frozen=True)
class LabelScheme:
    """Ordered verdict labels and their single-character option letters."""

    name: str
    labels: tuple[str, ...]
    option_letters: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "option_letters", tuple(self.option_letters))
        if len(self.labels) < 2:
            raise ValueError("a label scheme needs at least two labels")
        if len(self.labels) != len(self.option_letters):
            raise ValueError("labels and option letters must pair one-to-one")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        if len(set(self.option_letters)) != len(self.option_letters):
            raise ValueError("option letters must be unique")
        if any(len(letter) != 1 for letter in self.option_letters):
            raise ValueError("option letters must be single characters")

    @property
    def m(self) -> int:
        return len(self.labels)

    def label_for_letter(self, letter: str) -> str:
        return self.labels[self.option_letters.index(letter)]

    def letter_for_label(self, label: str) -> str:
        return self.option_letters[self.labels.index(label)]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": list(self.labels),
            "option_letters": list(self.option_letters),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LabelScheme":
        return cls(
            name=data["name"],
            labels=tuple(data["labels"]),
            option_letters=tuple(data["option_letters"]),
        )


@dataclass(frozen=True)
class PipelineConfig:
    """Numeric knobs shared by the retrieval and evidence stages.

    retrieval_depth   documents fetched per source per query
    selection_docs    documents considered for sentence selection (<= retrieval_depth)
    sentences_per_doc sentences kept per document at selection time
    final_top_p       evidence sentences kept per source after ranking
    seed              seed for any stochastic tie-breaking (subset shuffles)
    merge_heuristic   enable the dangling-segment fusion clause in merging
    """

    retrieval_depth: int = 5
    selection_docs: int = 5
    sentences_per_doc: int = 1
    final_top_p: int = 5
    seed: int = 0
    merge_heuristic: bool = True

    def __post_init__(self):
        for name in ("retrieval_depth", "selection_docs", "sentences_per_doc", "final_top_p"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.selection_docs > self.retrieval_depth:
            raise ValueError("selection_docs must not exceed retrieval_depth")

    def to_dict(self) -> dict:
        return {
            "retrieval_depth": self.retrieval_depth,
            "selection_docs": self.selection_docs,
            "sentences_per_doc": self.sentences_per_doc,
            "final_top_p": self.final_top_p,
            "seed": self.seed,
            "merge_heuristic": self.merge_heuristic,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        return cls(**data)
