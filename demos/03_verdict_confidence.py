"""Verdicts and confidence: prompts, option logits, log-softmax confidence.

Shows the rendered prompt, how letter log-probabilities become a label,
and why the confidence score is shift-invariant.
"""

import math

from veriscope import (
    PUBMED,
    ClaimPair,
    EvidenceSentence,
    LabelLogits,
    Polarity,
    build_prompt,
    confidence_from_logits,
    load_prompt,
    load_scheme,
    predict_verdict,
)
from veriscope.verdict import RuleVerdictProvider, logits_from_letter_logprobs

scheme = load_scheme("scifact")
template = load_prompt("verdict")
claim = ClaimPair(id="demo-3", text="The Great Wall of China is visible from the Moon.")
evidence = [
    EvidenceSentence(
        text="The wall is not visible from the Moon.",
        source=PUBMED, doc_id="wk-005", polarity=Polarity.FROM_CLAIM, similarity=0.78,
    ),
    EvidenceSentence(
        text="Astronauts report the Great Wall of China is not visible from the Moon without aid.",
        source=PUBMED, doc_id="web-004", polarity=Polarity.FROM_NEGATION, similarity=0.71,
    ),
]

# 1. The rendered prompt: numbered evidence, lettered options.
prompt = build_prompt(claim.text, evidence, scheme, template)
print(prompt)
print("-" * 60)

# 2. A provider returns log-probabilities per option letter.  Letters the
#    provider never surfaced get a floor value (-20.0) so the vector stays
#    finite.
letter_logprobs = {"B": -0.12, "C": -2.8}
logits = logits_from_letter_logprobs(scheme, letter_logprobs)
print("Logits over options:", dict(zip(scheme.option_letters, logits.logits)))

label, confidence = confidence_from_logits(logits)
print(f"Label: {label}   confidence (log-softmax): {confidence:.5f}")
print(f"That is a probability of {math.exp(confidence):.4f}")

# 3. Confidence only depends on relative logits: shifting every component
#    changes nothing.
shifted = LabelLogits(scheme, tuple(v + 100.0 for v in logits.logits))
label2, confidence2 = confidence_from_logits(shifted)
print(f"After +100 shift: label {label2}, confidence {confidence2:.5f} (unchanged)")

# 4. End to end with the deterministic offline provider used in mock mode.
provider = RuleVerdictProvider(
    rules=(("Great Wall", "not visible from the Moon", "B"),), default_letter="C"
)
verdict = predict_verdict(claim, evidence, provider, scheme, template)
print(f"\nOffline provider verdict: {verdict.label} (confidence {verdict.confidence:.5f})")
