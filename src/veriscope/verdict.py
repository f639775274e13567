"""Zero-shot veracity prediction via single-token option choice.

A verdict provider receives a prompt (claim + numbered evidence +
lettered options) and returns log-probabilities over the option
letters.  The chosen label's log-softmax value doubles as the
confidence score used downstream for disagreement analysis.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

import numpy as np

from ._http import JsonHttpClient, provider_client
from .errors import NoValidOption, ProviderUnavailable, TemplateMissingPlaceholder
from .selection import EvidenceSentence
from .types import ABSTAIN_LABEL, ClaimPair, JsonRecord, LabelScheme

ENV_LLM_URL = "LLM_API_URL"
ENV_LLM_KEY = "LLM_API_KEY"
ENV_LLM_MODEL = "LLM_MODEL"

#: Log-probability assigned to option letters the provider never surfaced.
DEFAULT_LOGPROB_FLOOR = -20.0

#: Top tokens a remote completion is asked to return log-probabilities for.
_TOP_LOGPROBS = 20

_PLACEHOLDERS = ("{claim}", "{evidence}", "{options}")
_PLACEHOLDER = re.compile("|".join(map(re.escape, _PLACEHOLDERS)))
_EMPTY_EVIDENCE_BLOCK = "No evidence retrieved."


@dataclass(frozen=True)
class LabelLogits(JsonRecord):
    """Per-option scores in scheme order; always finite and complete."""

    scheme: LabelScheme
    logits: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "logits", tuple(float(x) for x in self.logits))
        if len(self.logits) != self.scheme.m:
            raise ValueError(f"expected {self.scheme.m} logits, got {len(self.logits)}")
        if not all(math.isfinite(x) for x in self.logits):
            raise ValueError("logits must be finite")


@dataclass(frozen=True)
class VeracityVerdict(JsonRecord):
    """Full logits; label and confidence derive from them (confidence_from_logits).

    An abstention gets ABSTAIN_LABEL at DEFAULT_LOGPROB_FLOOR whatever its
    logits.  The source is the key a verdict is stored under.
    """

    logits: LabelLogits
    abstained: bool
    label: str = field(init=False)
    confidence: float = field(init=False)

    def __post_init__(self):
        abstention = (ABSTAIN_LABEL, DEFAULT_LOGPROB_FLOOR)
        label, confidence = abstention if self.abstained else confidence_from_logits(self.logits)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "confidence", confidence)


class VerdictProvider(Protocol):
    def choose(self, prompt: str, scheme: LabelScheme) -> LabelLogits: ...


def logits_from_letter_logprobs(
    scheme: LabelScheme,
    letter_logprobs: Mapping[str, float],
) -> LabelLogits:
    """Assemble full logits from a (possibly partial) letter->logprob map.

    Missing letters receive DEFAULT_LOGPROB_FLOOR; raises NoValidOption
    when no scheme letter appears in the map at all.
    """
    if not any(letter in letter_logprobs for letter in scheme.option_letters):
        raise NoValidOption(f"no valid option letter among {sorted(letter_logprobs)}")
    return LabelLogits(
        scheme,
        tuple(
            float(letter_logprobs.get(letter, DEFAULT_LOGPROB_FLOOR))
            for letter in scheme.option_letters
        ),
    )


def build_prompt(
    claim_text: str,
    evidence: Sequence[EvidenceSentence],
    scheme: LabelScheme,
    template: str,
) -> str:
    """Render the verdict prompt; deterministic for identical inputs.

    Evidence renders as numbered lines, options as "A) <label>" lines in
    scheme order.
    """
    missing = [p for p in _PLACEHOLDERS if p not in template]
    if missing:
        raise TemplateMissingPlaceholder(f"template lacks {', '.join(missing)}")
    if evidence:
        evidence_block = "\n".join(f"{i}. {s.text}" for i, s in enumerate(evidence, start=1))
    else:
        evidence_block = _EMPTY_EVIDENCE_BLOCK
    options_block = "\n".join(
        f"{letter}) {label}" for letter, label in zip(scheme.option_letters, scheme.labels)
    )
    # one pass over the template: a placeholder inside the claim or the
    # evidence text stays as written
    blocks = dict(zip(_PLACEHOLDERS, (claim_text, evidence_block, options_block)))
    return _PLACEHOLDER.sub(lambda match: blocks[match.group()], template)


def _log_sum_exp(values: np.ndarray) -> float:
    peak = float(values.max())
    return peak + math.log(float(np.sum(np.exp(values - peak))))


def confidence_from_logits(label_logits: LabelLogits) -> tuple[str, float]:
    """Argmax label and its log-softmax value (max-subtraction stabilized).

    Ties resolve to the lowest option index; the result is invariant
    under adding any constant to all logits.
    """
    values = np.asarray(label_logits.logits, dtype=np.float64)
    best = int(np.argmax(values))
    confidence = float(values[best] - _log_sum_exp(values))
    return label_logits.scheme.labels[best], confidence


def abstain_verdict(scheme: LabelScheme) -> VeracityVerdict:
    """Verdict recorded when a provider yields no usable option probability."""
    return VeracityVerdict(LabelLogits(scheme, (DEFAULT_LOGPROB_FLOOR,) * scheme.m), abstained=True)


def predict_verdict(
    claim: ClaimPair,
    evidence: Sequence[EvidenceSentence],
    provider: VerdictProvider,
    scheme: LabelScheme,
    template: str,
) -> VeracityVerdict:
    """Prompt the provider and map its letter probabilities to a verdict.

    The label is the argmax over valid option letters only, so an
    off-scheme top token cannot leak through.  When no letter received
    probability (NoValidOption) the verdict is an abstention at the
    confidence floor.  ProviderUnavailable propagates to the caller.
    """
    prompt = build_prompt(claim.text, evidence, scheme, template)
    try:
        label_logits = provider.choose(prompt, scheme)
    except NoValidOption:
        return abstain_verdict(scheme)
    return VeracityVerdict(label_logits, abstained=False)


def _stable_unit_hash(text: str) -> float:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / float(2**64)


class RuleVerdictProvider:
    """Deterministic offline provider driven by substring rules.

    Rules are (claim_marker, evidence_marker, option_letter) triples
    checked in order: a rule fires when the claim block contains
    claim_marker (empty string matches any claim) and the evidence block
    contains evidence_marker.  Blocks are located via the "Claim:" /
    "Evidence:" / "Answer options" headers of the bundled template; when
    those headers are absent the whole prompt is searched.  The first
    match wins; without a match the default letter (last option when
    unset) is chosen.  The chosen letter's log-probability varies
    deterministically with the evidence text so that agreeing sources
    still show distinct confidences.
    """

    def __init__(
        self,
        rules: Sequence[tuple[str, str, str]] = (),
        default_letter: str | None = None,
    ):
        self._rules = list(rules)
        self._default_letter = default_letter

    @staticmethod
    def _block(prompt: str, header: str, next_header: str) -> str:
        _, marker, rest = prompt.partition(header)
        if not marker:
            return prompt
        block, _, _ = rest.partition(next_header)
        return block

    def choose(self, prompt: str, scheme: LabelScheme) -> LabelLogits:
        claim_block = self._block(prompt, "Claim:", "Evidence:")
        block = self._block(prompt, "Evidence:", "Answer options")
        letter = None
        for claim_marker, evidence_marker, rule_letter in self._rules:
            if claim_marker and claim_marker not in claim_block:
                continue
            if evidence_marker in block:
                letter = rule_letter
                break
        if letter is None:
            letter = self._default_letter or scheme.option_letters[-1]
        if letter not in scheme.option_letters:
            raise NoValidOption(f"rule letter {letter!r} not in scheme {scheme.name!r}")
        # Emit true log-probabilities: chosen mass in (0.88, 0.98), the
        # remainder split evenly, so log-softmax equals the raw values.
        chosen_prob = 0.98 - 0.1 * _stable_unit_hash(block)
        rest_prob = (1.0 - chosen_prob) / (scheme.m - 1)
        logits = tuple(
            math.log(chosen_prob) if option == letter else math.log(rest_prob)
            for option in scheme.option_letters
        )
        return LabelLogits(scheme, logits)


class RemoteVerdictProvider:
    """Chat-completion endpoint with top-token log-probabilities enabled.

    Reads LLM_API_URL / LLM_API_KEY / LLM_MODEL unless configured
    explicitly.  The response's top_logprobs entries are matched to
    option letters (a token like " A" or "A)" counts as letter A,
    keeping the best log-probability per letter).  A reply without a
    top_logprobs list, or with an entry that is not an object or whose
    letter lacks a finite numeric logprob, raises ProviderUnavailable.
    """

    def __init__(
        self,
        url: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        *,
        client: JsonHttpClient | None = None,
    ):
        self.client = provider_client(
            client, url, api_key, ENV_LLM_URL, ENV_LLM_KEY, f"remote verdicts need {ENV_LLM_URL}"
        )
        self.model = model or os.environ.get(ENV_LLM_MODEL, "")

    @staticmethod
    def _letter_of(token: str, letters: Sequence[str]) -> str | None:
        stripped = token.strip()
        if not stripped:
            return None
        head, tail = stripped[0], stripped[1:]
        if head in letters and (not tail or not tail[0].isalnum()):
            return head
        return None

    def choose(self, prompt: str, scheme: LabelScheme) -> LabelLogits:
        payload = {
            "model": self.model,
            "temperature": 0,
            "max_tokens": 1,
            "logprobs": True,
            "top_logprobs": _TOP_LOGPROBS,
            "messages": [{"role": "user", "content": prompt}],
        }
        data = self.client.post(payload)
        try:
            entries = data["choices"][0]["logprobs"]["content"][0]["top_logprobs"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderUnavailable(f"completion lacked top_logprobs: {exc}") from exc
        if not isinstance(entries, list):
            raise ProviderUnavailable(f"top_logprobs is a {type(entries).__name__}, not a list")
        letter_logprobs: dict[str, float] = {}
        for entry in entries:
            if not isinstance(entry, dict):
                raise ProviderUnavailable(f"top_logprobs entry is a {type(entry).__name__}")
            letter = self._letter_of(str(entry.get("token", "")), scheme.option_letters)
            if letter is None:
                continue
            try:
                logprob = float(entry["logprob"])
            except (KeyError, TypeError, ValueError):
                logprob = math.nan
            if not math.isfinite(logprob):
                raise ProviderUnavailable(f"no finite logprob for option {letter}: {entry!r:.200}")
            if letter not in letter_logprobs or logprob > letter_logprobs[letter]:
                letter_logprobs[letter] = logprob
        return logits_from_letter_logprobs(scheme, letter_logprobs)
