"""End-to-end verification of a single claim, in two halves.

gather_evidence is the evidence half: negate (when the condition asks
for it), retrieve per source for each query (the claim, then its
negation), select sentence evidence per query, deduplicate by symmetric
difference, merge split segments, rank against the original claim and
truncate, and union across sources.  ask_verdicts is the verdict half:
over that ClaimEvidence, one verdict per source plus one over the merged
evidence, from the verdict provider alone.  verify_claim runs one after
the other.  The stage decides what a failure does, not its class: a
failing source abstains, through _abstain, and the rest proceed; each
warning logged on the way carries claim_id, source and stage (retrieval,
selection, ranking or verdict) as log-record fields.

Only calls that wait on the network use threads.  A provider of a class
in _IN_PROCESS, or None, runs in-process; any other, a class of your own
included, waits on the network.  Both halves apply that rule to each
source and to the verdict provider: network-bound calls are submitted
first to the module's network threads, and in-process ones then run on
the caller's thread while those requests are in flight; run_experiment
applies it to the whole set (ProviderSet.in_process).  A network thread
starts only when none is idle and is kept for later claims, so an
all-local claim starts none.  Only a network call makes a Future; an
in-process call's value or exception is kept as a plain pair.
One EmbeddingMemo per claim serves pubmed fusion, selection and ranking.
"""

from __future__ import annotations

import contextvars
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import Mapping

from ._http import JsonHttpClient
from .aggregation import (
    AggregatedEvidence,
    EvidenceBundle,
    aggregate_sources,
    dedup_by_normalized,
    merge_segments,
    rank_and_truncate,
    symmetric_difference_dedup,
)
from .analysis import SourceConfidenceProfile, build_profile
from .errors import ConfigurationError, NoValidOption, ProviderUnavailable, RankingFailed
from .negation import FixtureNegationProvider, NegationProvider, RuleBasedNegator, negate_claim
from .selection import EmbeddingMemo, EmbeddingProvider, HashedBowEmbedder, Polarity, select_evidence
from .sources import BiomedicalSource, KnowledgeSource, LocalCorpusSource
from .types import (
    MERGED,
    ClaimPair,
    JsonRecord,
    LabelScheme,
    PipelineConfig,
    SourceKind,
    field_codecs,
    source_order_key,
)
from .verdict import (
    RuleVerdictProvider,
    VeracityVerdict,
    VerdictProvider,
    abstain_verdict,
    predict_verdict,
)

log = logging.getLogger(__name__)

_string = json.encoder.encode_basestring_ascii
_POLARITIES = {polarity: _string(polarity.value) for polarity in Polarity}

# The threads for calls that wait on the network, shared by every claim.
# No cap of its own: a thread starts only when none is idle, so the count
# stays near the peak number of calls in flight (a thread that has just
# finished a call is not idle until it marks itself so), and callers bound
# that peak: a claim waits for its at most max(2 * sources, sources + 1)
# calls, and run_experiment bounds the claims in flight.
_NETWORK = ThreadPoolExecutor(sys.maxsize, "veriscope-network")


#: The package's classes whose calls never leave this process.
_IN_PROCESS = (LocalCorpusSource, BiomedicalSource, HashedBowEmbedder, RuleVerdictProvider,
               RuleBasedNegator, FixtureNegationProvider)


def _in_process(provider) -> bool:
    """True for None and an _IN_PROCESS instance; any other class, adapters and
    test doubles included, counts as waiting on the network."""
    return provider is None or isinstance(provider, _IN_PROCESS)


class ClaimCondition(Enum):
    """Which queries drive retrieval: the claim alone, or claim + negation."""

    ORIGINAL_ONLY = "original"
    ORIGINAL_PLUS_NEGATED = "original+negated"


@dataclass
class ProviderSet:
    """Everything verify_claim needs besides the claim itself."""

    sources: Mapping[SourceKind, KnowledgeSource]
    embedder: EmbeddingProvider
    verdicts: VerdictProvider
    negator: NegationProvider | None = None

    def describe(self) -> dict:
        """Each provider's identity for the run manifest (see _identity); never a key."""
        return {
            "sources": {kind.name: _identity(src) for kind, src in self.sources.items()},
            "embedder": _identity(self.embedder),
            "verdicts": _identity(self.verdicts),
            "negator": _identity(self.negator) if self.negator else None,
        }

    def in_process(self) -> bool:
        """True when every provider of the set is in-process (_in_process)."""
        parts = [*self.sources.values(), self.embedder, self.verdicts, self.negator]
        return all(map(_in_process, parts))


def _identity(provider) -> str | dict:
    """A provider's class name; one that sends through a JsonHttpClient adds its host and model, if any."""
    client = getattr(provider, "client", None)
    if not isinstance(client, JsonHttpClient):
        return type(provider).__name__
    model = {"model": provider.model} if hasattr(provider, "model") else {}
    return {"class": type(provider).__name__, "host": client.host, **model}


@dataclass
class ClaimVerification(JsonRecord):
    """Full trace of one claim through the pipeline.

    aggregated (aggregate_sources over the bundles) and profile
    (build_profile over the verdicts) are derived here, so from_dict
    rebuilds them; ask_verdicts hands over the union gather_evidence built.
    """

    claim: ClaimPair
    condition: ClaimCondition
    bundles: dict[SourceKind, EvidenceBundle]
    verdicts: dict[SourceKind, VeracityVerdict]
    source_errors: dict[SourceKind, str] = field(default_factory=dict)
    # a bare InitVar: Python 3.10's typing.get_type_hints rejects InitVar[...]
    union: InitVar = None
    aggregated: AggregatedEvidence = field(init=False)
    profile: SourceConfidenceProfile = field(init=False)

    def __post_init__(self, union):
        self.aggregated = union if union is not None else aggregate_sources(self.bundles)
        self.profile = build_profile(self.verdicts)

    def encoded(self) -> tuple[str, str]:
        """The trace text and the evidence.jsonl line, from one pass over the bundles.

        The trace text is json.dumps(self.to_dict(), sort_keys=True) plus a
        newline.  The line is the published format (claim_id, the union's
        sentences, per_source bundles) plus a newline; it repeats what a
        trace stores once: each bundle carries claim_id and its source, and
        each sentence its normalized text, after doc_id.

        The bundles and the union are written here, in the bytes json.dumps
        (..., sort_keys=True) gives: strings through encode_basestring_ascii,
        a similarity (always a finite float) through float.__repr__, keys and
        source names in sorted order.  A sentence object sits in several
        places (positive and candidates, a final one again in the union), so
        each distinct object is encoded once, its two records built from
        that one encoding.  The other fields go through the record codec and
        json.dumps.
        """
        records = {}  # id(sentence) -> (trace record, evidence record); the sentences outlive the call

        def encode_sentences(sentences) -> tuple[str, str]:
            stored, published = [], []
            for s in sentences:
                pair = records.get(id(s))
                if pair is None:  # keys in sorted order
                    doc_id = '{"doc_id": ' + _string(s.doc_id)
                    rest = (f', "polarity": {_POLARITIES[s.polarity]}'
                            f', "similarity": {float.__repr__(s.similarity)}'
                            f', "source": {_string(s.source.name)}, "text": {_string(s.text)}}}')
                    normalized = ', "normalized": ' + _string(s.normalized)
                    pair = records[id(s)] = (doc_id + rest, doc_id + normalized + rest)
                stored.append(pair[0])
                published.append(pair[1])
            return f"[{', '.join(stored)}]", f"[{', '.join(published)}]"

        claim = _string(self.claim.id)
        stored, per_source = [], []
        for kind in sorted(self.bundles, key=attrgetter("name")):
            bundle, source = self.bundles[kind], _string(kind.name)
            candidates, final, negative, positive = map(
                encode_sentences, (bundle.candidates, bundle.final, bundle.negative, bundle.positive)
            )
            stored.append(f'{source}: {{"candidates": {candidates[0]}, "final": {final[0]}, '
                          f'"negative": {negative[0]}, "positive": {positive[0]}}}')
            per_source.append(f'{source}: {{"candidates": {candidates[1]}, "claim_id": {claim}, '
                              f'"final": {final[1]}, "negative": {negative[1]}, '
                              f'"positive": {positive[1]}, "source": {source}}}')
        others = {name: encode(getattr(self, name))
                  for name, encode, _ in field_codecs(type(self)) if name != "bundles"}
        # "bundles" sorts before every other field name, so it opens the object
        trace = f'{{"bundles": {{{", ".join(stored)}}}, {json.dumps(others, sort_keys=True)[1:]}\n'
        line = (f'{{"claim_id": {claim}, "per_source": {{{", ".join(per_source)}}}, '
                f'"sentences": {encode_sentences(self.aggregated.sentences)[1]}}}\n')
        return trace, line


def _call(fn, *args) -> tuple:
    """(fn(*args), None), or (None, the exception fn raised)."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, exc


def _run_calls(calls: dict) -> dict[object, tuple]:
    """Run every call and return key -> (value, error); _outcome reads one.

    calls maps a key to (waits_on_network, fn, *args).  Network-bound
    calls are submitted to _NETWORK first, each in a copy of the caller's
    context, so context variables set for the claim reach them; the rest
    then run here, on the caller's thread, while those requests are in
    flight.  It returns when every call is done, so no call outlives its
    claim even if an in-process call raised.  An exception is kept as its
    call's error either way, so callers handle both alike; only a network
    call makes a Future.
    """
    futures = {
        key: _NETWORK.submit(contextvars.copy_context().run, _call, fn, *args)
        for key, (network, fn, *args) in calls.items()
        if network
    }
    outcomes = {key: _call(fn, *args) for key, (network, fn, *args) in calls.items() if not network}
    outcomes.update((key, future.result()) for key, future in futures.items())
    return outcomes


def _outcome(outcome: tuple):
    """The value of one _run_calls outcome, or its exception raised."""
    value, error = outcome
    if error is not None:
        raise error
    return value


@dataclass(frozen=True)
class ClaimEvidence:
    """gather_evidence's result and all ask_verdicts reads: the claim (with its negation
    under the dual condition), every source's bundle, their union, and the
    (stage, message) of each source that failed before the verdicts."""

    claim: ClaimPair
    condition: ClaimCondition
    bundles: dict[SourceKind, EvidenceBundle]
    union: AggregatedEvidence
    failures: dict[SourceKind, tuple[str, str]]


def _abstain(failures: dict, claim: ClaimPair, kind: SourceKind, stage: str, exc: Exception) -> None:
    """Log kind's failure and record it in failures; it fails once, as a retrieval failure leaves nothing to rank."""
    log.warning("%s failed for claim %s source %s: %s", stage, claim.id, kind, exc,
                extra={"claim_id": claim.id, "source": kind.name, "stage": stage})
    failures[kind] = (stage, str(exc))


def verify_claim(
    claim: ClaimPair,
    providers: ProviderSet,
    scheme: LabelScheme,
    template: str,
    cfg: PipelineConfig | None = None,
    condition: ClaimCondition = ClaimCondition.ORIGINAL_PLUS_NEGATED,
) -> ClaimVerification:
    """Run the full pipeline for one claim and return its trace: the verdict half over the evidence half."""
    return ask_verdicts(gather_evidence(claim, providers, cfg, condition), providers.verdicts, scheme, template)


def gather_evidence(claim: ClaimPair, providers: ProviderSet, cfg: PipelineConfig | None = None,
                    condition: ClaimCondition = ClaimCondition.ORIGINAL_PLUS_NEGATED) -> ClaimEvidence:
    """Negate, retrieve, select, deduplicate, merge, rank and union one claim's evidence.

    Under ORIGINAL_ONLY no negation provider is consulted and the
    deduplication stage reduces to plain duplicate removal over the
    positive evidence.  ProviderUnavailable from any source's retrieve and
    a zero claim vector at ranking (RankingFailed) make that source abstain,
    recorded in failures at stage retrieval or ranking.  Configuration
    errors, a failed negation (ProviderUnavailable, DegenerateNegation), a
    failed embedding call and any other exception raise: a fallback
    negation would silently change the negative evidence, and a skipped
    embedding would turn an outage into verdicts on no evidence.

    This is the pipeline's one dual retrieval: one flow over the
    condition's queries (the claim, then under the dual condition its
    negation), with every source's network-bound requests in flight
    together; the result lists of a source never mix.

    One EmbeddingMemo per claim, made before retrieval, owns the query
    rows; the first embedding call (pubmed fusion's, through retrieve's
    memo keyword, or else one batch of the selected documents' sentences)
    embeds them.  Selection and ranking then embed only texts no call
    covered (sentences joined by merge_segments).  If the batch raises
    ProviderUnavailable (an endpoint may cap its size), selection retries
    one call per document, and a retry that fails raises; a failed fusion
    call only makes pubmed abstain.
    """
    cfg = cfg or PipelineConfig()
    queries = {Polarity.FROM_CLAIM: claim.text}
    if condition is ClaimCondition.ORIGINAL_PLUS_NEGATED:
        if claim.negated_text is None:
            if providers.negator is None:
                raise ConfigurationError(
                    "condition original+negated needs a negation provider or pre-negated claims"
                )
            claim = negate_claim(claim, providers.negator)
        queries[Polarity.FROM_NEGATION] = claim.negated_text

    kinds = sorted(providers.sources, key=source_order_key)
    memo = EmbeddingMemo(providers.embedder, list(queries.values()))
    # one retrieval call per source per query
    calls = {}
    for kind in kinds:
        source = providers.sources[kind]
        network, retrieve = not _in_process(source), source.retrieve
        if isinstance(source, BiomedicalSource):  # fusion's embedding call goes through the claim's memo
            retrieve = partial(retrieve, memo=memo)
        for polarity, query in queries.items():
            calls[(kind, polarity)] = (network, retrieve, query, cfg.retrieval_depth)
    outcomes = _run_calls(calls)
    failures: dict[SourceKind, tuple[str, str]] = {}
    retrieved: dict[SourceKind, dict[Polarity, list]] = {}
    for kind in kinds:
        try:
            retrieved[kind] = {polarity: _outcome(outcomes[(kind, polarity)]) for polarity in queries}
        except ProviderUnavailable as exc:
            _abstain(failures, claim, kind, "retrieval", exc)

    # one embedding call for every sentence selection will score
    batch = [
        sentence
        for docs_by_polarity in retrieved.values()
        for docs in docs_by_polarity.values()
        for doc in docs[: cfg.selection_docs]
        for sentence in doc.sentences
    ]
    if batch:
        try:
            memo.prefetch(batch)
        except ProviderUnavailable as exc:  # selection retries one call per document
            log.warning(
                "batched embedding failed for claim %s, embedding per document: %s", claim.id, exc,
                extra={"claim_id": claim.id, "source": None, "stage": "selection"},
            )

    bundles: dict[SourceKind, EvidenceBundle] = {}
    for kind in kinds:
        selected = {
            polarity: select_evidence(queries[polarity], docs, memo, cfg, polarity=polarity)
            for polarity, docs in retrieved.get(kind, {}).items()
        }
        positive = selected.get(Polarity.FROM_CLAIM, [])
        negative = selected.get(Polarity.FROM_NEGATION, [])
        candidates = dedup_by_normalized(
            merge_segments(
                symmetric_difference_dedup(positive, negative),
                dangling_merge=cfg.merge_heuristic,
            )
        )
        try:
            final = rank_and_truncate(candidates, claim.text, memo, cfg.final_top_p)
        except RankingFailed as exc:
            _abstain(failures, claim, kind, "ranking", exc)
            final = []
        bundles[kind] = EvidenceBundle(
            positive=tuple(positive),
            negative=tuple(negative),
            candidates=tuple(candidates),
            final=tuple(final),
        )

    return ClaimEvidence(claim, condition, bundles, aggregate_sources(bundles), failures)


def ask_verdicts(
    evidence: ClaimEvidence, verdicts: VerdictProvider, scheme: LabelScheme, template: str
) -> ClaimVerification:
    """One verdict per source that has evidence, plus one over the union, as the trace of evidence's claim.

    ProviderUnavailable or NoValidOption from a verdict call makes that
    source abstain at stage verdict, here and nowhere else; when every source
    failed before the verdicts, the merged verdict abstains too, without a
    provider call, as "every source failed".  It reads nothing but evidence
    and calls nothing but verdicts.
    """
    claim, failures = evidence.claim, dict(evidence.failures)
    kinds = sorted(evidence.bundles, key=source_order_key)
    asked = {kind: evidence.bundles[kind].final for kind in kinds if kind not in failures}
    if asked:
        asked[MERGED] = evidence.union.sentences
    network = not _in_process(verdicts)
    outcomes = _run_calls({
        kind: (network, predict_verdict, claim, sentences, verdicts, scheme, template)
        for kind, sentences in asked.items()
    })

    answers: dict[SourceKind, VeracityVerdict] = {}
    for kind in kinds + [MERGED]:
        try:
            answers[kind] = _outcome(outcomes[kind]) if kind in asked else abstain_verdict(scheme)
        except (ProviderUnavailable, NoValidOption) as exc:
            _abstain(failures, claim, kind, "verdict", exc)
            answers[kind] = abstain_verdict(scheme)
    source_errors = {kind: message for kind, (_, message) in failures.items()}
    if not asked:
        source_errors[MERGED] = "every source failed"
    return ClaimVerification(claim, evidence.condition, evidence.bundles, answers, source_errors, union=evidence.union)
