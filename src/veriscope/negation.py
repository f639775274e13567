"""Negated-counterpart generation for claims.

Every claim is paired with a sentence asserting the opposite, so that
retrieval can pull both supporting and contradicting material.  The
real generator is a remote chat-completion endpoint; a crude rule-based
negator keeps the pipeline alive offline, and a fixture provider pins
behavior in tests.
"""

from __future__ import annotations

import os
from typing import Mapping, Protocol

from ._http import JsonHttpClient, provider_client
from .assets import load_prompt
from .errors import DegenerateNegation, ProviderUnavailable
from .types import ClaimPair

#: Copulas/auxiliaries the rule-based negator knows how to flip.
AUXILIARIES = ("is", "are", "was", "were", "can", "will", "does", "do")

ENV_URL = "NEGATION_API_URL"
ENV_KEY = "NEGATION_API_KEY"
ENV_MODEL = "NEGATION_MODEL"


class NegationProvider(Protocol):
    def negate(self, claim_text: str) -> str: ...


def rule_based_negate(text: str) -> str:
    """Deterministic fallback negation.

    Inserts "not" after the first auxiliary from AUXILIARIES (or removes
    an existing "not" after it); sentences without any auxiliary get the
    prefix "It is not the case that ".  The output always differs from
    the input, and on single-spaced sentences containing an auxiliary the
    transform is its own inverse.
    """
    if not text.strip():
        raise ValueError("cannot negate empty text")
    tokens = text.split()
    for i, token in enumerate(tokens):
        if token.lower() in AUXILIARIES:
            if i + 1 < len(tokens) and tokens[i + 1].lower() == "not":
                flipped = tokens[: i + 1] + tokens[i + 2 :]
            else:
                flipped = tokens[: i + 1] + ["not"] + tokens[i + 1 :]
            return " ".join(flipped)
    return "It is not the case that " + text


class RuleBasedNegator:
    """NegationProvider wrapper around rule_based_negate."""

    def negate(self, claim_text: str) -> str:
        return rule_based_negate(claim_text)


class FixtureNegationProvider:
    """Fixture-backed provider: exact negations per claim text.

    Unknown claims go to the fallback provider when one is configured,
    otherwise raise ProviderUnavailable.
    """

    def __init__(
        self,
        negations: Mapping[str, str],
        fallback: NegationProvider | None = None,
    ):
        self._negations = dict(negations)
        self._fallback = fallback

    def negate(self, claim_text: str) -> str:
        if claim_text in self._negations:
            return self._negations[claim_text]
        if self._fallback is not None:
            return self._fallback.negate(claim_text)
        raise ProviderUnavailable(f"no fixture negation for {claim_text!r}")


class RemoteNegationProvider:
    """Chat-completion negation via an HTTP endpoint.

    Endpoint, key, and model come from NEGATION_API_URL / NEGATION_API_KEY /
    NEGATION_MODEL unless passed explicitly; the prompt is the bundled
    "negation" template.  Requests go through JsonHttpClient (at most 4 in
    flight, exponential backoff on rate limits).
    """

    def __init__(
        self,
        url: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        *,
        client: JsonHttpClient | None = None,
    ):
        self.client = provider_client(client, url, api_key, ENV_URL, ENV_KEY, f"remote negation needs {ENV_URL}")
        self.model = model or os.environ.get(ENV_MODEL, "")
        self._template = load_prompt("negation")

    def negate(self, claim_text: str) -> str:
        payload = {
            "model": self.model,
            "temperature": 0,
            "messages": [
                {"role": "user", "content": self._template.replace("{claim}", claim_text)}
            ],
        }
        data = self.client.post(payload)
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderUnavailable(f"unexpected completion payload: {exc}") from exc
        if not isinstance(content, str):
            raise ProviderUnavailable(f"completion content is {type(content).__name__}, not text")
        return content.strip()


def negate_claim(claim: ClaimPair, provider: NegationProvider) -> ClaimPair:
    """Return the claim with negated_text populated; the claim text is untouched.

    ProviderUnavailable propagates, with no fallback; a result ClaimPair rejects (not
    text, empty, or equal to the claim after normalization) raises DegenerateNegation.
    """
    try:
        return claim.with_negation(provider.negate(claim.text))
    except ValueError as exc:
        raise DegenerateNegation(f"provider negation degenerate: {exc}") from exc
