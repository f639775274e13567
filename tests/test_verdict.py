import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedSession, make_sentence, top_logprobs
from veriscope._http import JsonHttpClient
from veriscope.errors import (
    NoValidOption,
    ProviderUnavailable,
    TemplateMissingPlaceholder,
)
from veriscope.types import ClaimPair, LabelScheme
from veriscope.verdict import (
    ABSTAIN_LABEL,
    DEFAULT_LOGPROB_FLOOR,
    LabelLogits,
    RemoteVerdictProvider,
    RuleVerdictProvider,
    VeracityVerdict,
    abstain_verdict,
    build_prompt,
    confidence_from_logits,
    logits_from_letter_logprobs,
    predict_verdict,
)

TEMPLATE = "Claim:\n{claim}\n\nEvidence:\n{evidence}\n\nAnswer options:\n{options}\n"


def logsumexp_oracle(values):
    peak = max(values)
    return peak + math.log(sum(math.exp(v - peak) for v in values))


class TestBuildPrompt:
    def test_empty_evidence_block(self, scheme3):
        prompt = build_prompt("The sky is blue.", [], scheme3, TEMPLATE)
        assert "No evidence retrieved." in prompt
        assert "A) Supported" in prompt

    def test_numbered_evidence_and_lettered_options(self, scheme3):
        evidence = [make_sentence("First fact."), make_sentence("Second fact.")]
        prompt = build_prompt("c", evidence, scheme3, TEMPLATE)
        assert "1. First fact." in prompt
        assert "2. Second fact." in prompt
        for line in ("A) Supported", "B) Refuted", "C) Not Enough Info"):
            assert line in prompt

    def test_deterministic(self, scheme3):
        evidence = [make_sentence("One fact.")]
        assert build_prompt("c", evidence, scheme3, TEMPLATE) == build_prompt(
            "c", evidence, scheme3, TEMPLATE
        )

    def test_missing_placeholder_rejected(self, scheme3):
        with pytest.raises(TemplateMissingPlaceholder):
            build_prompt("c", [], scheme3, "Claim: {claim} Options: {options}")

    def test_braces_in_evidence_survive(self, scheme3):
        evidence = [make_sentence("Uses {curly} braces.")]
        prompt = build_prompt("c", evidence, scheme3, TEMPLATE)
        assert "{curly}" in prompt

    def test_placeholder_in_claim_stays_as_written(self, scheme3):
        prompt = build_prompt("Does {options} appear?", [], scheme3, TEMPLATE)
        assert "Claim:\nDoes {options} appear?\n" in prompt
        assert prompt.count("A) Supported") == 1

    def test_placeholder_in_evidence_stays_as_written(self, scheme3):
        evidence = [make_sentence("Quoting {claim}, {evidence} and {options}.")]
        prompt = build_prompt("Cats purr.", evidence, scheme3, TEMPLATE)
        assert "1. Quoting {claim}, {evidence} and {options}.\n" in prompt
        assert prompt.count("Cats purr.") == 1
        assert prompt.count("A) Supported") == 1


class TestConfidenceFromLogits:
    def test_uniform_logits(self, scheme3):
        label, confidence = confidence_from_logits(LabelLogits(scheme3, (0.0, 0.0, 0.0)))
        assert label == "Supported"  # tie broken by lowest option index
        assert confidence == pytest.approx(math.log(1.0 / 3.0), abs=1e-12)

    def test_dominant_logit(self, scheme3):
        label, confidence = confidence_from_logits(LabelLogits(scheme3, (10.0, 0.0, 0.0)))
        assert label == "Supported"
        # conf = -ln(1 + 2*exp(-10)) ~ -9.08e-5
        assert confidence == pytest.approx(-math.log(1.0 + 2.0 * math.exp(-10.0)), abs=1e-12)
        assert confidence == pytest.approx(-9.0797e-5, abs=1e-8)

    def test_hand_example_three_way(self, scheme3):
        z = (-0.1, -3.0, -3.2)
        label, confidence = confidence_from_logits(LabelLogits(scheme3, z))
        assert label == "Supported"
        assert confidence == pytest.approx(z[0] - logsumexp_oracle(z), abs=1e-12)

    def test_shift_invariance(self, scheme3):
        z = (-0.4, 1.3, 0.2)
        base_label, base_conf = confidence_from_logits(LabelLogits(scheme3, z))
        for shift in (-100.0, -1.0, 3.5, 250.0):
            shifted = tuple(v + shift for v in z)
            label, confidence = confidence_from_logits(LabelLogits(scheme3, shifted))
            assert label == base_label
            assert confidence == pytest.approx(base_conf, abs=1e-9)

    def test_exp_sum_of_log_softmax_is_one(self, scheme3):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = LabelLogits(scheme3, tuple(rng.normal(0, 5, size=3)))
            values = np.asarray(z.logits)
            log_softmax = values - logsumexp_oracle(values)
            assert float(np.exp(log_softmax).sum()) == pytest.approx(1.0, abs=1e-9)
            _, confidence = confidence_from_logits(z)
            assert confidence <= 0.0
            assert 0.0 < math.exp(confidence) <= 1.0


def reference_confidence(label_logits):
    """The earlier confidence_from_logits: np.argmax and a log-sum-exp over an array."""
    values = np.asarray(label_logits.logits, dtype=np.float64)
    best = int(np.argmax(values))
    peak = float(values.max())
    log_sum_exp = peak + math.log(float(np.sum(np.exp(values - peak))))
    return label_logits.scheme.labels[best], float(values[best] - log_sum_exp)


@st.composite
def tied_logits(draw):
    """2-5 finite logits spread up to 1e3, often with ties at the maximum."""
    m = draw(st.integers(2, 5))
    spread = draw(st.sampled_from([1e-3, 1.0, 50.0, 1e3]))
    logits = draw(st.lists(st.floats(-spread, spread), min_size=m, max_size=m))
    for position in draw(st.lists(st.integers(0, m - 1), max_size=m)):
        logits[position] = max(logits)
    return logits


@settings(max_examples=300, deadline=None)
@given(logits=tied_logits())
def test_confidence_equals_the_array_formula_to_the_bit(logits):
    scheme = LabelScheme("s", tuple(f"l{i}" for i in range(len(logits))), tuple("ABCDE"[: len(logits)]))
    label_logits = LabelLogits(scheme, tuple(logits))
    label, confidence = confidence_from_logits(label_logits)
    want_label, want = reference_confidence(label_logits)
    assert label == want_label
    assert type(confidence) is float
    assert confidence.hex() == want.hex()


class TestLabelLogits:
    def test_length_enforced(self, scheme3):
        with pytest.raises(ValueError):
            LabelLogits(scheme3, (0.0, 1.0))

    def test_finite_enforced(self, scheme3):
        with pytest.raises(ValueError):
            LabelLogits(scheme3, (0.0, float("inf"), 1.0))

    def test_round_trip(self, scheme3):
        logits = LabelLogits(scheme3, (-0.5, -1.5, -2.0))
        assert LabelLogits.from_dict(logits.to_dict()) == logits


class TestLetterLogprobs:
    def test_missing_letters_floored(self, scheme3):
        logits = logits_from_letter_logprobs(scheme3, {"B": -0.2})
        assert logits.logits == (-20.0, -0.2, -20.0)

    def test_no_valid_letter(self, scheme3):
        with pytest.raises(NoValidOption, match=r"^no option letter of scifact \(A, B, C\) in the reply$"):
            logits_from_letter_logprobs(scheme3, {"Z": -0.1})


class _StaticProvider:
    def __init__(self, logits):
        self._logits = logits

    def choose(self, prompt, scheme):
        return LabelLogits(scheme, self._logits)


class _NoOptionProvider:
    def choose(self, prompt, scheme):
        raise NoValidOption("nothing")


class _DownProvider:
    def choose(self, prompt, scheme):
        raise ProviderUnavailable("down")


class TestPredictVerdict:
    def test_composition_with_static_logits(self, scheme3):
        claim = ClaimPair(id="c1", text="The sky is blue.")
        z = (-0.1, -3.0, -3.2)
        verdict = predict_verdict(claim, [], _StaticProvider(z), scheme3, TEMPLATE)
        label, confidence = confidence_from_logits(LabelLogits(scheme3, z))
        assert verdict.label == label
        assert verdict.confidence == confidence
        assert verdict.logits == LabelLogits(scheme3, z)
        assert not verdict.abstained

    def test_abstains_when_no_valid_option(self, scheme3):
        # the abstention, with its cause, is pipeline.ask_verdicts' to make
        claim = ClaimPair(id="c1", text="The sky is blue.")
        with pytest.raises(NoValidOption):
            predict_verdict(claim, [], _NoOptionProvider(), scheme3, TEMPLATE)

    def test_provider_unavailable_propagates(self, scheme3):
        claim = ClaimPair(id="c1", text="The sky is blue.")
        with pytest.raises(ProviderUnavailable):
            predict_verdict(claim, [], _DownProvider(), scheme3, TEMPLATE)

    def test_verdict_round_trip(self, scheme3):
        claim = ClaimPair(id="c1", text="The sky is blue.")
        verdict = predict_verdict(
            claim, [], _StaticProvider((-0.1, -3.0, -3.2)), scheme3, TEMPLATE
        )
        assert VeracityVerdict.from_dict(verdict.to_dict()) == verdict

    def test_label_and_confidence_are_derived_not_stored(self, scheme3):
        logits = LabelLogits(scheme3, (-3.0, -0.1, -3.2))
        answer, abstention = VeracityVerdict(logits, abstained=False), VeracityVerdict(logits, abstained=True)
        assert (answer.label, answer.confidence) == confidence_from_logits(logits)
        assert (abstention.label, abstention.confidence) == (ABSTAIN_LABEL, DEFAULT_LOGPROB_FLOOR)
        assert set(answer.to_dict()) == {"logits", "abstained"}
        assert VeracityVerdict.from_dict(abstention.to_dict()) == abstention

    def test_decoding_needs_abstained(self, scheme3):
        stored = abstain_verdict(scheme3).to_dict()
        del stored["abstained"]
        with pytest.raises(TypeError, match="abstained"):
            VeracityVerdict.from_dict(stored)


class TestRuleVerdictProvider:
    def test_rule_matches_evidence_block_only(self, scheme3):
        provider = RuleVerdictProvider(
            rules=(("", "zinc fails", "B"),), default_letter="C"
        )
        claim = ClaimPair(id="c1", text="zinc fails to work")  # marker in claim, not evidence
        verdict = predict_verdict(claim, [], provider, scheme3, TEMPLATE)
        assert verdict.label == "Not Enough Info"
        verdict = predict_verdict(
            claim, [make_sentence("Study: zinc fails completely.")], provider, scheme3, TEMPLATE
        )
        assert verdict.label == "Refuted"

    def test_claim_guard(self, scheme3):
        provider = RuleVerdictProvider(
            rules=(("Great Wall", "not visible", "B"),), default_letter="C"
        )
        wall = ClaimPair(id="c1", text="The Great Wall is visible from space.")
        other = ClaimPair(id="c2", text="Something else entirely.")
        evidence = [make_sentence("It is not visible at night.")]
        assert predict_verdict(wall, evidence, provider, scheme3, TEMPLATE).label == "Refuted"
        assert (
            predict_verdict(other, evidence, provider, scheme3, TEMPLATE).label
            == "Not Enough Info"
        )

    def test_logits_are_log_probabilities(self, scheme3):
        provider = RuleVerdictProvider(default_letter="A")
        logits = provider.choose(build_prompt("c", [], scheme3, TEMPLATE), scheme3)
        assert sum(math.exp(v) for v in logits.logits) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_but_content_sensitive(self, scheme3):
        provider = RuleVerdictProvider(default_letter="C")
        p1 = build_prompt("c", [make_sentence("Evidence one.")], scheme3, TEMPLATE)
        p2 = build_prompt("c", [make_sentence("Evidence two.")], scheme3, TEMPLATE)
        assert provider.choose(p1, scheme3) == provider.choose(p1, scheme3)
        assert provider.choose(p1, scheme3).logits != provider.choose(p2, scheme3).logits


class TestRemoteVerdictProvider:
    def _provider(self, entries):
        session = ScriptedSession(top_logprobs(entries))
        client = JsonHttpClient("http://fake/llm", session=session)
        return RemoteVerdictProvider(url="http://fake/llm", model="m", client=client), session

    def test_parses_top_logprobs(self, scheme3):
        provider, session = self._provider(
            [
                {"token": "A", "logprob": -0.05},
                {"token": " B", "logprob": -3.2},
                {"token": "A)", "logprob": -4.0},
                {"token": "The", "logprob": -5.0},
            ]
        )
        logits = provider.choose("prompt", scheme3)
        assert logits.logits == (-0.05, -3.2, DEFAULT_LOGPROB_FLOOR)
        [request] = session.requests
        payload = request.json
        assert payload["logprobs"] is True
        assert payload["max_tokens"] == 1

    def test_best_logprob_per_letter_kept(self, scheme3):
        provider, _ = self._provider(
            [{"token": "A", "logprob": -2.0}, {"token": " A", "logprob": -0.5}]
        )
        assert provider.choose("prompt", scheme3).logits[0] == -0.5

    def test_no_valid_letters(self, scheme3):
        provider, _ = self._provider([{"token": "maybe", "logprob": -0.1}])
        with pytest.raises(NoValidOption):
            provider.choose("prompt", scheme3)

    def test_six_letter_scheme(self):
        scheme6 = LabelScheme(
            name="liar",
            labels=("Pants on Fire", "False", "Barely True", "Half True", "Mostly True", "True"),
            option_letters=("A", "B", "C", "D", "E", "F"),
        )
        provider, _ = self._provider([{"token": "F", "logprob": -0.2}])
        logits = provider.choose("prompt", scheme6)
        label, _ = confidence_from_logits(logits)
        assert label == "True"

    @pytest.mark.parametrize(
        "entries",
        [
            "A",
            {"token": "A", "logprob": -0.1},
            None,
            ["A"],
            [{"token": "A", "logprob": -0.1}, ["B", -0.2]],
            [{"token": "A"}],
            [{"token": "A", "logprob": None}],
            [{"token": "A", "logprob": "high"}],
            [{"token": "A", "logprob": float("nan")}],
        ],
        ids=[
            "top-string", "top-object", "top-null", "entry-string", "entry-list",
            "logprob-missing", "logprob-null", "logprob-text", "logprob-nan",
        ],
    )
    def test_malformed_top_logprobs_is_provider_unavailable(self, scheme3, entries):
        provider, _ = self._provider(entries)
        with pytest.raises(ProviderUnavailable):
            provider.choose("prompt", scheme3)

    def test_entries_without_a_letter_need_no_logprob(self, scheme3):
        provider, _ = self._provider([{"token": "The"}, {"token": "A", "logprob": -0.1}])
        assert provider.choose("prompt", scheme3).logits[0] == -0.1
