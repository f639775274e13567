import dataclasses
import threading

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from conftest import Reply, ScriptedSession, completion
from veriscope._http import MAX_IN_FLIGHT, JsonHttpClient
from veriscope.errors import DegenerateNegation, ProviderUnavailable
from veriscope.negation import (
    AUXILIARIES,
    FixtureNegationProvider,
    RemoteNegationProvider,
    RuleBasedNegator,
    negate_claim,
    rule_based_negate,
)
from veriscope.types import ClaimPair


class TestRuleBasedNegate:
    def test_inserts_not_after_auxiliary(self):
        assert rule_based_negate("The sky is blue") == "The sky is not blue"

    def test_removes_existing_not(self):
        assert rule_based_negate("The sky is not blue") == "The sky is blue"

    def test_prefix_without_auxiliary(self):
        assert (
            rule_based_negate("Vaccines cause autism")
            == "It is not the case that Vaccines cause autism"
        )

    def test_first_auxiliary_wins(self):
        assert rule_based_negate("He is sure it was late") == "He is not sure it was late"

    def test_auxiliary_inside_word_ignored(self):
        # "is" inside "island" is not a token match
        out = rule_based_negate("Islands exist")
        assert out == "It is not the case that Islands exist"

    def test_plain_verb_gets_prefix_not_do_support(self):
        # "increases" is not in the auxiliary list and the rule has no
        # do-support, so the prefix clause applies
        assert (
            rule_based_negate("X increases Y")
            == "It is not the case that X increases Y"
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rule_based_negate("   ")

    @given(st.text(min_size=1, max_size=80).filter(lambda s: s.strip()))
    def test_always_differs(self, text):
        assert rule_based_negate(text) != text

    @given(
        st.lists(
            st.sampled_from(["the", "sky", "cat", "Dogs", "are", "blue", "why", "run"]),
            min_size=1,
            max_size=8,
        ).filter(lambda words: any(w.lower() in AUXILIARIES for w in words))
    )
    def test_involution_on_auxiliary_sentences(self, words):
        sentence = " ".join(words)
        assert rule_based_negate(rule_based_negate(sentence)) == sentence


class _FailingProvider:
    def negate(self, claim_text):
        raise ProviderUnavailable("down")


class _EchoProvider:
    def negate(self, claim_text):
        return claim_text


class TestNegateClaim:
    def test_populates_negation(self):
        claim = ClaimPair(id="c1", text="The sky is blue")
        out = negate_claim(claim, RuleBasedNegator())
        assert out.negated_text == "The sky is not blue"
        assert out.text == claim.text

    def test_provider_unavailable_without_fallback(self):
        claim = ClaimPair(id="c1", text="The sky is blue")
        with pytest.raises(ProviderUnavailable):
            negate_claim(claim, _FailingProvider())

    def test_degenerate_without_fallback(self):
        claim = ClaimPair(id="c1", text="The sky is blue")
        with pytest.raises(DegenerateNegation):
            negate_claim(claim, _EchoProvider())

    def test_reply_that_is_not_text_is_degenerate(self):
        class _NoneProvider:
            def negate(self, claim_text):
                return None

        claim = ClaimPair(id="c1", text="The sky is blue")
        with pytest.raises(DegenerateNegation, match="must be a string"):
            negate_claim(claim, _NoneProvider())


class TestReferenceNegations:
    """The two published example pairs the pipeline is expected to support."""

    PAIRS = {
        "A deficiency of vitamin B12 increases homocysteine":
            "A surplus of vitamin B12 decreases homocysteine",
        "5% of perinatal mortality is due to low birth weight":
            "95% of perinatal mortality is not due to low birth weight",
    }

    def test_pairs_accepted_end_to_end(self):
        provider = FixtureNegationProvider(self.PAIRS)
        for i, (text, expected) in enumerate(self.PAIRS.items()):
            claim = negate_claim(ClaimPair(id=f"p{i}", text=text), provider)
            assert claim.negated_text == expected


class TestFixtureNegationProvider:
    def test_known_claim(self):
        provider = FixtureNegationProvider({"A": "not A"})
        assert provider.negate("A") == "not A"

    def test_unknown_without_fallback(self):
        provider = FixtureNegationProvider({})
        with pytest.raises(ProviderUnavailable):
            provider.negate("B is big")

    def test_unknown_with_fallback(self):
        provider = FixtureNegationProvider({}, fallback=RuleBasedNegator())
        assert provider.negate("B is big") == "B is not big"


URL = "http://fake/api"


def remote_negator(session, api_key=None):
    return RemoteNegationProvider(URL, model="m", client=JsonHttpClient(URL, api_key, session=session))


class TestRemoteNegationProvider:
    def test_parses_completion(self):
        session = ScriptedSession(completion("The moon is not made of cheese."))
        provider = remote_negator(session, "key")
        assert provider.negate("The moon is made of cheese.") == "The moon is not made of cheese."
        [request] = session.requests
        assert (request.method, request.url) == ("POST", URL)
        assert request.headers == {"Authorization": "Bearer key"}
        assert request.json["model"] == "m"
        assert "cheese" in request.json["messages"][0]["content"]

    def test_gives_up_after_retries(self, backoff_sleeps):
        session = ScriptedSession(*[Reply(429)] * 5)
        with pytest.raises(ProviderUnavailable, match=r"giving up after retries \(HTTP 429\)"):
            remote_negator(session).negate("So.")
        assert len(session.requests) == 5

    @pytest.mark.parametrize("content", [None, 7, ["Not so."]], ids=["null", "number", "list"])
    def test_content_not_text_is_unavailable(self, content):
        with pytest.raises(ProviderUnavailable, match="not text"):
            remote_negator(ScriptedSession(completion(content))).negate("So.")

    def test_network_error(self, backoff_sleeps):
        session = ScriptedSession(*[Reply(error=requests.ConnectionError)] * 5)
        with pytest.raises(ProviderUnavailable, match="ConnectionError"):
            remote_negator(session).negate("So.")
        assert len(session.requests) == 5

    def test_bounded_in_flight(self):
        session = ScriptedSession(then=dataclasses.replace(completion("Not so."), delay=0.1))
        provider = remote_negator(session)
        threads = [threading.Thread(target=provider.negate, args=("So.",)) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(session.requests) == 12
        assert session.peak_in_flight == MAX_IN_FLIGHT
