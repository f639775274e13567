"""Shared domain vocabulary for the verification pipeline.

Every stage exchanges the same small set of immutable value objects:
claims paired with their negated counterparts, knowledge-source
identities, label schemes for verdict options, and the numeric knobs
that bound retrieval depth and evidence budgets.  All types here are
frozen dataclasses and safe to share across threads.  Every JSON input
(claims, corpora, index files, run files, configs) is parsed and
refused by parse_json and read_jsonl here.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import json
import logging
import operator
import re
import string
import types
import typing
import unicodedata
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Mapping

log = logging.getLogger(__name__)


def _is_punctuation(code_point: int) -> bool:
    return unicodedata.category(chr(code_point)).startswith("P")


class _PunctuationTable(dict):
    """str.translate table deleting Unicode punctuation (categories P*).

    Each code point is classified on its first lookup and cached, so a
    character costs one dict hit after that.  Concurrent first lookups of
    one code point store the same value, so no lock is needed.
    """

    def __missing__(self, code_point: int) -> int | None:
        self[code_point] = mapped = None if _is_punctuation(code_point) else code_point
        return mapped


PUNCTUATION_TABLE = _PunctuationTable()
_ASCII_LOWER = bytes.maketrans(string.ascii_uppercase.encode(), string.ascii_lowercase.encode())
_ASCII_PUNCTUATION = bytes(filter(_is_punctuation, range(128)))


def strip_punctuation(text: str) -> str:
    """text.translate(PUNCTUATION_TABLE).lower(): Unicode punctuation (P*) deleted, then lowercased.

    ASCII text takes one bytes.translate pass, which deletes the ASCII P*
    code points and maps A-Z to a-z; any other text takes the table.  Both
    give the same string.
    """
    if text.isascii():
        return text.encode().translate(_ASCII_LOWER, _ASCII_PUNCTUATION).decode()
    return text.translate(PUNCTUATION_TABLE).lower()


def normalize_sentence(raw: str) -> str:
    """Canonical text form used for deduplication and tokenization.

    Lowercases, removes every character in the Unicode punctuation
    categories (P*), and collapses internal whitespace runs to single
    spaces: " ".join(strip_punctuation(raw).split()), so ASCII text takes
    one bytes pass and other text the table, with the same output.
    Idempotent; empty input yields empty output.
    """
    return " ".join(strip_punctuation(raw).split())


_TERMINATORS = re.compile(r"[.!?]")
_MIN_SENTENCE_CHARS = 3


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


class JsonRecord:
    """Mixin giving a dataclass a JSON-ready dict form derived from its type hints.

    to_dict writes the init fields only, and from_dict reads the same ones:
    a value the record derives (an init=False field its __post_init__
    sets) is never stored and is recomputed on decode.  A SourceKind
    encodes as its name, an Enum as its value, a tuple as a list, a
    mapping with keys and values encoded alike, a nested dataclass as its
    own dict, and str/int/float/bool/None as themselves.  Key order is
    left to the writer, which dumps with sort_keys=True.

    from_dict passes those fields to the constructor, so every
    __post_init__ check applies.  A missing key takes the field's default;
    for a field without one the constructor raises TypeError.
    """

    def to_dict(self) -> dict:
        return _codec(type(self))[0](self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        return _codec(cls)[1](data)


def parse_json(text: str, kind: type, source: str) -> Any:
    """The JSON document in text, whose top-level value must be a kind (dict or list).
    Invalid JSON or another top-level type raises ValueError naming source."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} is not valid JSON ({exc})") from None
    if not isinstance(value, kind):
        raise ValueError(f"{source} must hold a JSON {'object' if kind is dict else 'list'}")
    return value


def read_jsonl(path: Path, record: Callable[[dict, int], Any]) -> tuple[list, int]:
    """record(obj, lineno) of each non-blank line's JSON object in file order, and the count rejected.
    A line that is not a JSON object, or whose record call raises ValueError,
    is logged once as "<file name> line <n> rejected: <reason>" and skipped."""
    kept, rejected = [], 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                try:
                    kept.append(record(parse_json(line, dict, "the line"), lineno))
                except ValueError as exc:
                    rejected += 1
                    log.warning("%s line %d rejected: %s", path.name, lineno, exc)
    return kept, rejected


def indented_json(data) -> str:
    """The one indented JSON form (sorted keys) of the index and run manifests and metrics.json."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _same(value):
    return value


@functools.cache
def _codec(hint) -> tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    """(encode, decode) for one type hint, built on first use and cached."""
    if hint is SourceKind:
        return operator.attrgetter("name"), SourceKind
    if isinstance(hint, type) and issubclass(hint, Enum):
        return operator.attrgetter("value"), hint
    if dataclasses.is_dataclass(hint):
        return _dataclass_codec(hint)
    if hint in (str, int, float, bool):
        return _same, _same
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and args[1:] == (Ellipsis,):
        enc, dec = _codec(args[0])
        if enc is _same:
            return list, tuple
        return (lambda xs: [enc(x) for x in xs]), (lambda xs: tuple(dec(x) for x in xs))
    if origin in (dict, collections.abc.Mapping):
        (key_enc, key_dec), (val_enc, val_dec) = map(_codec, args)
        return (
            lambda m: {key_enc(k): val_enc(v) for k, v in m.items()},
            lambda m: {key_dec(k): val_dec(v) for k, v in m.items()},
        )
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        enc, dec = _codec(args[0] if args[1] is type(None) else args[1])
        return (lambda v: None if v is None else enc(v)), (lambda v: None if v is None else dec(v))
    raise TypeError(f"no JSON codec for type hint {hint!r}")


@functools.cache
def field_codecs(cls) -> tuple[tuple[str, Callable[[Any], Any], Callable[[Any], Any]], ...]:
    """(name, encode, decode) of each init field of a dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, *_codec(hints[f.name])) for f in dataclasses.fields(cls) if f.init)


def _dataclass_codec(cls) -> tuple[Callable[[Any], dict], Callable[[Mapping[str, Any]], Any]]:
    codecs = field_codecs(cls)

    def encode(obj) -> dict:
        data = {}
        for name, enc, _ in codecs:
            value = getattr(obj, name)
            data[name] = value if enc is _same else enc(value)
        return data

    def decode(data: Mapping[str, Any]):
        return cls(**{name: dec(data[name]) for name, _, dec in codecs if name in data})

    return encode, decode


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
        if not isinstance(negated_text, str):
            raise ValueError(f"claim {self.id!r}: negated_text must be a string")
        return dataclasses.replace(self, negated_text=negated_text)


#: Label recorded for an abstention; no scheme may use it for an answer.
ABSTAIN_LABEL = "abstain"


@dataclass(frozen=True)
class LabelScheme(JsonRecord):
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
        if ABSTAIN_LABEL in self.labels:
            raise ValueError(f"the label {ABSTAIN_LABEL!r} is reserved for abstentions")
        if len(set(self.option_letters)) != len(self.option_letters):
            raise ValueError("option letters must be unique")
        if any(len(letter) != 1 for letter in self.option_letters):
            raise ValueError("option letters must be single characters")

    @property
    def m(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class PipelineConfig(JsonRecord):
    """Numeric knobs shared by the retrieval and evidence stages.

    retrieval_depth   documents fetched per source per query
    selection_docs    documents considered for sentence selection (<= retrieval_depth)
    sentences_per_doc sentences kept per document at selection time
    final_top_p       evidence sentences kept per source after ranking
    seed              seed for any stochastic tie-breaking (subset shuffles)
    merge_heuristic   enable the dangling-segment fusion clause in merging

    The four counts and seed must be ints (not bools) and merge_heuristic
    a bool; anything else raises ValueError.
    """

    retrieval_depth: int = 5
    selection_docs: int = 5
    sentences_per_doc: int = 1
    final_top_p: int = 5
    seed: int = 0
    merge_heuristic: bool = True

    def __post_init__(self):
        counts = ("retrieval_depth", "selection_docs", "sentences_per_doc", "final_top_p")
        for name in (*counts, "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name in counts and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if not isinstance(self.merge_heuristic, bool):
            raise ValueError(f"merge_heuristic must be true or false, got {self.merge_heuristic!r}")
        if self.selection_docs > self.retrieval_depth:
            raise ValueError("selection_docs must not exceed retrieval_depth")
