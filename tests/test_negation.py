import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

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

    def test_provider_unavailable_with_fallback(self):
        claim = ClaimPair(id="c1", text="The sky is blue")
        out = negate_claim(claim, _FailingProvider(), fallback=RuleBasedNegator())
        assert out.negated_text == "The sky is not blue"

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

    def test_degenerate_with_fallback(self):
        claim = ClaimPair(id="c1", text="The sky is blue")
        out = negate_claim(claim, _EchoProvider(), fallback=RuleBasedNegator())
        assert out.negated_text == "The sky is not blue"


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


class _FakeResponse:
    def __init__(self, status_code, payload):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        return self._payload


class _FakeSession:
    """Scripted responses; records call count and payloads."""

    def __init__(self, responses):
        self._responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append(json)
        result = self._responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def _completion(content):
    return _FakeResponse(200, {"choices": [{"message": {"content": content}}]})


class TestRemoteNegationProvider:
    def test_parses_completion(self, monkeypatch):
        from veriscope._http import JsonHttpClient

        session = _FakeSession([_completion("The moon is not made of cheese.")])
        client = JsonHttpClient("http://fake/api", "key", session=session, sleep=lambda s: None)
        provider = RemoteNegationProvider(url="http://fake/api", client=client, model="m")
        assert provider.negate("The moon is made of cheese.") == "The moon is not made of cheese."
        assert session.calls[0]["model"] == "m"
        assert "cheese" in session.calls[0]["messages"][0]["content"]

    def test_rate_limit_backoff_then_success(self):
        from veriscope._http import JsonHttpClient

        session = _FakeSession(
            [_FakeResponse(429, {}), _FakeResponse(500, {}), _completion("Not so.")]
        )
        sleeps = []
        client = JsonHttpClient(
            "http://fake/api",
            backoff_base=0.5,
            session=session,
            sleep=sleeps.append,
        )
        provider = RemoteNegationProvider(url="http://fake/api", client=client)
        assert provider.negate("So.") == "Not so."
        assert sleeps == [0.5, 1.0]

    def test_gives_up_after_retries(self):
        from veriscope._http import JsonHttpClient

        session = _FakeSession([_FakeResponse(429, {})] * 5)
        client = JsonHttpClient(
            "http://fake/api", max_retries=4, session=session, sleep=lambda s: None
        )
        provider = RemoteNegationProvider(url="http://fake/api", client=client)
        with pytest.raises(ProviderUnavailable):
            provider.negate("So.")

    @pytest.mark.parametrize("content", [None, 7, ["Not so."]], ids=["null", "number", "list"])
    def test_content_not_text_is_unavailable(self, content):
        from veriscope._http import JsonHttpClient

        client = JsonHttpClient(
            "http://fake/api", session=_FakeSession([_completion(content)]), sleep=lambda s: None
        )
        provider = RemoteNegationProvider(url="http://fake/api", client=client)
        with pytest.raises(ProviderUnavailable, match="not text"):
            provider.negate("So.")

    def test_network_error(self):
        from veriscope._http import JsonHttpClient

        session = _FakeSession([requests.ConnectionError("refused")] * 5)
        client = JsonHttpClient(
            "http://fake/api", max_retries=4, session=session, sleep=lambda s: None
        )
        provider = RemoteNegationProvider(url="http://fake/api", client=client)
        with pytest.raises(ProviderUnavailable):
            provider.negate("So.")

    def test_bounded_in_flight(self):
        import threading

        from veriscope._http import JsonHttpClient

        in_flight = 0
        peak = 0
        lock = threading.Lock()

        class _SlowSession:
            def post(self, url, json=None, headers=None, timeout=None):
                nonlocal in_flight, peak
                with lock:
                    in_flight += 1
                    peak = max(peak, in_flight)
                threading.Event().wait(0.02)
                with lock:
                    in_flight -= 1
                return _completion("Not so.")

        client = JsonHttpClient(
            "http://fake/api", max_in_flight=2, session=_SlowSession(), sleep=lambda s: None
        )
        provider = RemoteNegationProvider(url="http://fake/api", client=client)
        threads = [
            threading.Thread(target=provider.negate, args=("So.",)) for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert peak <= 2
