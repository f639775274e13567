import typing
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from veriscope import types
from veriscope.types import (
    MERGED,
    PUBMED,
    WEB,
    WIKIPEDIA,
    ClaimPair,
    LabelScheme,
    PipelineConfig,
    SourceKind,
    normalize_sentence,
    source_order_key,
)


class TestNormalizeSentence:
    def test_strips_punctuation_and_lowercases(self):
        assert normalize_sentence("Hello, World!") == "hello world"

    def test_empty(self):
        assert normalize_sentence("") == ""

    def test_unicode_punctuation_and_whitespace_collapse(self):
        # Ellipsis is Unicode punctuation; the double space collapses.
        assert normalize_sentence("A  B…C") == "a bc"

    def test_all_punctuation_becomes_empty(self):
        assert normalize_sentence("!?...;;") == ""

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = normalize_sentence(text)
        assert normalize_sentence(once) == once

    @given(st.text(max_size=200))
    def test_no_uppercase_no_punctuation(self, text):
        out = normalize_sentence(text)
        # Characters without a lowercase mapping (e.g. math alphanumerics)
        # survive str.lower(); the guarantee is that lowercasing is a fixed
        # point, not that isupper() is false for every exotic code point.
        assert out == out.lower()
        assert not any(unicodedata.category(ch).startswith("P") for ch in out)


def reference_normalize(raw):
    """The per-character definition normalize_sentence must reproduce."""
    kept = "".join(ch for ch in raw if not unicodedata.category(ch).startswith("P"))
    return " ".join(kept.lower().split())


def test_normalize_matches_reference_for_every_code_point():
    try:
        for code_point in range(0x110000):
            ch = chr(code_point)
            assert normalize_sentence(ch) == reference_normalize(ch), hex(code_point)
            embedded = "A" + ch + "b"
            assert normalize_sentence(embedded) == reference_normalize(embedded), hex(code_point)
    finally:
        # Every code point is now cached; drop them so later tests run with
        # the table ordinary text would leave.
        types.PUNCTUATION_TABLE.clear()


class TestClaimPair:
    def test_requires_nonempty_text(self):
        with pytest.raises(ValueError):
            ClaimPair(id="x", text="   ")

    def test_negation_must_differ_after_normalization(self):
        with pytest.raises(ValueError):
            ClaimPair(id="x", text="The sky is blue.", negated_text="the sky is blue")

    def test_with_negation_keeps_text(self):
        claim = ClaimPair(id="x", text="The sky is blue.")
        negated = claim.with_negation("The sky is not blue.")
        assert negated.text == claim.text
        assert negated.negated_text == "The sky is not blue."
        assert claim.negated_text is None


class TestLabelScheme:
    def test_valid(self, scheme3):
        assert scheme3.m == 3

    @pytest.mark.parametrize(
        "labels,letters",
        [
            (("Only",), ("A",)),
            (("A", "B"), ("A",)),
            (("A", "A"), ("A", "B")),
            (("X", "Y"), ("A", "A")),
            (("X", "Y"), ("A", "BB")),
        ],
    )
    def test_invalid(self, labels, letters):
        with pytest.raises(ValueError):
            LabelScheme(name="bad", labels=labels, option_letters=letters)

    def test_abstention_label_is_reserved(self):
        # an answer labelled "abstain" would score and plot as an abstention
        with pytest.raises(ValueError, match="'abstain' is reserved"):
            LabelScheme(name="bad", labels=("yes", "abstain"), option_letters=("A", "B"))

    def test_round_trip(self, scheme3):
        assert LabelScheme.from_dict(scheme3.to_dict()) == scheme3

    def test_from_dict_runs_constructor_checks(self, scheme3):
        data = scheme3.to_dict()
        with pytest.raises(ValueError):
            LabelScheme.from_dict({**data, "option_letters": ["A", "A", "B"]})
        del data["option_letters"]
        with pytest.raises(TypeError):
            LabelScheme.from_dict(data)


class TestPipelineConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.selection_docs <= cfg.retrieval_depth

    def test_selection_docs_bounded_by_depth(self):
        with pytest.raises(ValueError):
            PipelineConfig(retrieval_depth=2, selection_docs=3)

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            PipelineConfig(final_top_p=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("retrieval_depth", 5.5),
            ("selection_docs", 3.0),
            ("sentences_per_doc", True),
            ("final_top_p", 2.5),
            ("final_top_p", "5"),
            ("merge_heuristic", "false"),
            ("merge_heuristic", 0),
        ],
    )
    def test_wrong_types_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})

    def test_round_trip(self):
        cfg = PipelineConfig(retrieval_depth=7, selection_docs=3, seed=11)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


class TestSourceKind:
    def test_fixed_order(self):
        kinds = [MERGED, WEB, SourceKind("custom"), PUBMED, WIKIPEDIA]
        ordered = sorted(kinds, key=source_order_key)
        assert ordered[:3] == [WIKIPEDIA, PUBMED, WEB]
        assert [k.name for k in ordered[3:]] == ["custom", "merged"]

    def test_nonempty_name(self):
        with pytest.raises(ValueError):
            SourceKind("  ")


def _json_records(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _json_records(sub)


def test_record_hints_resolve_to_what_python_3_10_accepts():
    # Python 3.10's typing.get_type_hints raises TypeError for a resolved
    # annotation that is neither a type, a union nor callable, such as
    # InitVar[...]; the codec resolves every record's hints.
    from types import UnionType

    import veriscope.pipeline  # noqa: F401  (defines the remaining records)

    records = set(_json_records(types.JsonRecord))
    assert veriscope.pipeline.ClaimVerification in records
    for record in records:
        for name, hint in typing.get_type_hints(record).items():
            assert isinstance(hint, (type, UnionType)) or callable(hint), (record, name, hint)
