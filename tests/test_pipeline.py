import contextvars
import dataclasses
import json
import threading

import pytest

from conftest import BarrierVerdicts, Reply, ScriptedSession, top_logprobs
from veriscope import index as index_module
from veriscope._http import JsonHttpClient
from veriscope.assets import fixture_path, load_prompt, load_scheme
from veriscope.errors import ProviderUnavailable
from veriscope.datasets import DatasetDescriptor
from veriscope.experiment import ExperimentPlan, run_experiment
from veriscope.index import build_local_index
from veriscope.mock import MOCK_CONFIG, mock_claims_path, mock_negations, mock_provider_set
from veriscope.negation import FixtureNegationProvider, RemoteNegationProvider, RuleBasedNegator
from veriscope.pipeline import ClaimCondition, ProviderSet, _in_process, ask_verdicts, gather_evidence, verify_claim
from veriscope.selection import EmbeddingMemo, HashedBowEmbedder, RemoteEmbedder
from veriscope.sources import BiomedicalSource, LocalCorpusSource, WebSearchSource
from veriscope.types import CANONICAL_SOURCES, MERGED, PUBMED, WEB, WIKIPEDIA, ClaimPair
from veriscope.verdict import RemoteVerdictProvider, RuleVerdictProvider


@pytest.fixture(scope="module")
def mock():
    return mock_provider_set()


@pytest.fixture(scope="module")
def scheme():
    return load_scheme("scifact")


@pytest.fixture(scope="module")
def template():
    return load_prompt("verdict")


def fixture_claims():
    return [
        ClaimPair(id=record["id"], text=record["claim"], gold_label=record["label"])
        for record in map(json.loads, mock_claims_path().read_text(encoding="utf-8").splitlines())
    ]


@pytest.fixture(scope="module")
def claim():
    return fixture_claims()[0]


def in_halves(claim, providers, scheme, template, cfg=MOCK_CONFIG):
    """verify_claim's two halves: (gather_evidence's ClaimEvidence, ask_verdicts' trace over it)."""
    evidence = gather_evidence(claim, providers, cfg)
    return evidence, ask_verdicts(evidence, providers.verdicts, scheme, template)


def with_providers(base, **changes):
    fields = {
        "sources": base.sources,
        "embedder": base.embedder,
        "verdicts": base.verdicts,
        "negator": base.negator,
    }
    fields.update(changes)
    return ProviderSet(**fields)


class CountingEmbedder:
    """Records every call; fails the first `outage` calls and any call over max_texts texts."""

    def __init__(self, inner, max_texts=None, outage=0):
        self.inner = inner
        self.max_texts = max_texts
        self.outage = outage
        self.calls = []
        self.failures = 0

    def embed(self, texts):
        self.calls.append(list(texts))
        if len(self.calls) <= self.outage:
            raise ProviderUnavailable("embedding endpoint down")
        if self.max_texts is not None and len(texts) > self.max_texts:
            self.failures += 1
            raise ProviderUnavailable(f"{len(texts)} texts exceed {self.max_texts}")
        return self.inner.embed(texts)


class TestEmbeddingPass:
    def test_fixture_claim_embeds_once(self, mock, claim, scheme, template):
        counting = CountingEmbedder(mock.embedder)
        result = verify_claim(
            claim, with_providers(mock, embedder=counting), scheme, template, MOCK_CONFIG
        )
        assert len(counting.calls) == 1
        batch = counting.calls[0]
        assert batch[:2] == [result.claim.text, result.claim.negated_text]
        assert len(batch) == len(set(batch))
        assert result == verify_claim(claim, mock, scheme, template, MOCK_CONFIG)

    def test_failed_batch_falls_back_to_per_document_calls(
        self, mock, claim, scheme, template, caplog
    ):
        healthy = verify_claim(claim, mock, scheme, template, MOCK_CONFIG)
        limited = CountingEmbedder(mock.embedder, max_texts=10)
        with caplog.at_level("WARNING"):
            result = verify_claim(
                claim, with_providers(mock, embedder=limited), scheme, template, MOCK_CONFIG
            )
        assert limited.failures == 1
        assert len(limited.calls[0]) > 10
        assert len(limited.calls) > 2
        assert "batched embedding failed" in caplog.text
        assert result == healthy
        assert result.source_errors == {}


class TestClaimRowsHandOver:
    """The claim's memo embeds the claim and negation rows once, for fusion and selection."""

    def fused(self, mock, embedder, fusion_embedder=None):
        sources = dict(mock.sources)
        sources[PUBMED] = BiomedicalSource(
            PUBMED, build_local_index(fixture_path("corpus_pubmed.jsonl")),
            embedder=fusion_embedder or embedder,
        )
        return with_providers(mock, sources=sources, embedder=embedder)

    def test_warm_index_claim_makes_two_calls(self, mock, scheme, template):
        counting = CountingEmbedder(HashedBowEmbedder())
        providers = self.fused(mock, counting)
        claims = fixture_claims()
        for claim in claims:  # every candidate body of every query is cached
            verify_claim(claim, providers, scheme, template, MOCK_CONFIG)
        counting.calls.clear()
        result = verify_claim(claims[1], providers, scheme, template, MOCK_CONFIG)
        rows = [result.claim.text, result.claim.negated_text]
        assert counting.calls[0] == rows
        assert len(counting.calls) == 2
        assert not set(rows) & set(counting.calls[1])
        own_rows = self.fused(mock, HashedBowEmbedder(), fusion_embedder=HashedBowEmbedder())
        assert result == verify_claim(claims[1], own_rows, scheme, template, MOCK_CONFIG)

    def test_original_only_sends_no_negation(self, mock, claim, scheme, template):
        counting = CountingEmbedder(HashedBowEmbedder())
        result = verify_claim(
            claim, self.fused(mock, counting), scheme, template, MOCK_CONFIG,
            condition=ClaimCondition.ORIGINAL_ONLY,
        )
        assert result.claim.negated_text is None
        assert counting.calls[0][0] == claim.text
        negation = mock_negations()[claim.text]
        assert all(negation not in call for call in counting.calls)
        assert sum(call.count(claim.text) for call in counting.calls) == 1

    def test_memo_over_another_embedder_is_not_used(self, mock, claim, scheme, template):
        from test_sources import reference_fusion

        shared, own = CountingEmbedder(HashedBowEmbedder()), CountingEmbedder(HashedBowEmbedder())
        providers = self.fused(mock, shared, fusion_embedder=own)
        result = verify_claim(claim, providers, scheme, template, MOCK_CONFIG)
        rows = [result.claim.text, result.claim.negated_text]
        # pubmed embeds each query in a call of its own; the claim's memo embeds the rows again
        assert [call[0] for call in own.calls] == rows
        assert len(shared.calls) == 1 and shared.calls[0][:2] == rows
        source = providers.sources[PUBMED]
        memo = EmbeddingMemo(shared, rows)
        shared.calls.clear()
        got = source.retrieve(claim.text, MOCK_CONFIG.retrieval_depth, memo=memo)
        assert shared.calls == []
        expected = reference_fusion(source._index, HashedBowEmbedder(), claim.text)
        assert [(doc.doc_id, doc.score) for doc in got] == expected[: MOCK_CONFIG.retrieval_depth]

    def test_fusion_outage_makes_only_pubmed_abstain(self, mock, claim, scheme, template):
        healthy = verify_claim(claim, mock, scheme, template, MOCK_CONFIG)
        # both fusion calls fail, then the endpoint is back for selection
        flaky = CountingEmbedder(HashedBowEmbedder(), outage=2)
        evidence, result = in_halves(claim, self.fused(mock, flaky), scheme, template)
        assert [(kind, stage) for kind, (stage, _) in evidence.failures.items()] == [(PUBMED, "retrieval")]
        assert set(result.source_errors) == {PUBMED}
        assert result.source_errors[PUBMED].startswith("dense fusion embedding")
        assert result.verdicts[PUBMED].abstained
        assert not result.verdicts[MERGED].abstained
        rows = [result.claim.text, result.claim.negated_text]
        assert [call[:2] for call in flaky.calls] == [rows, rows, rows]
        for kind in (WIKIPEDIA, WEB):
            assert result.bundles[kind] == healthy.bundles[kind]
            assert result.verdicts[kind] == healthy.verdicts[kind]


class CountingVerdicts:
    """Records every verdict prompt; a class the pipeline treats as remote."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts = []

    def choose(self, prompt, scheme):
        self.prompts.append(prompt)
        return self.inner.choose(prompt, scheme)


class BrokenEmbedder:
    def embed(self, texts):
        raise TypeError("embedder bug")


class TestEmbedderOutage:
    def test_dead_embedder_fails_the_claim_after_two_calls(
        self, mock, claim, scheme, template
    ):
        dead = CountingEmbedder(FailingEmbedder())
        verdicts = CountingVerdicts(mock.verdicts)
        providers = with_providers(mock, embedder=dead, verdicts=verdicts)
        with pytest.raises(ProviderUnavailable, match="embedding endpoint down"):
            verify_claim(claim, providers, scheme, template, MOCK_CONFIG)
        # the batched call, then the first per-document retry
        assert len(dead.calls) == 2
        assert dead.calls[1][0] == claim.text
        assert verdicts.prompts == []

    def test_embedder_bug_propagates_without_a_retry(self, mock, claim, scheme, template):
        broken = CountingEmbedder(BrokenEmbedder())
        with pytest.raises(TypeError, match="embedder bug"):
            verify_claim(
                claim, with_providers(mock, embedder=broken), scheme, template, MOCK_CONFIG
            )
        assert len(broken.calls) == 1


class DownSource:
    def __init__(self, kind):
        self.kind = kind

    def retrieve(self, query_text, k):
        raise ProviderUnavailable(f"{self.kind.name} down")


class TestMergedVerdict:
    def test_abstains_without_a_call_when_every_source_failed(
        self, mock, claim, scheme, template, caplog
    ):
        verdicts = CountingVerdicts(mock.verdicts)
        sources = {kind: DownSource(kind) for kind in mock.sources}
        with caplog.at_level("WARNING"):
            evidence, result = in_halves(
                claim, with_providers(mock, sources=sources, verdicts=verdicts), scheme, template
            )
        assert verdicts.prompts == []
        # the evidence half records each source once, at retrieval (nothing is left to rank);
        # the merged entry is the verdict half's
        assert evidence.failures == {kind: ("retrieval", f"{kind.name} down") for kind in CANONICAL_SOURCES}
        assert [(r.source, r.stage) for r in caplog.records if r.name == "veriscope.pipeline"] == [
            (kind.name, "retrieval") for kind in CANONICAL_SOURCES
        ]
        assert set(result.source_errors) == set(CANONICAL_SOURCES) | {MERGED}
        assert result.source_errors[MERGED] == "every source failed"
        assert all(verdict.abstained for verdict in result.verdicts.values())

    def test_metrics_count_the_merged_abstention(self, mock, scheme, tmp_path):
        sources = {kind: DownSource(kind) for kind in mock.sources}
        plan = ExperimentPlan(
            dataset=DatasetDescriptor(name="fixture", scheme=scheme, path=mock_claims_path()),
            sources=CANONICAL_SOURCES,
            condition=ClaimCondition.ORIGINAL_PLUS_NEGATED,
            cfg=MOCK_CONFIG,
        )
        run_dir = run_experiment(plan, with_providers(mock, sources=sources), tmp_path / "run")
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["abstentions"] == {name: 5 for name in ("wikipedia", "pubmed", "web", "merged")}

    def test_one_healthy_source_still_gets_a_merged_answer(
        self, mock, claim, scheme, template
    ):
        verdicts = CountingVerdicts(mock.verdicts)
        sources = {kind: DownSource(kind) for kind in mock.sources}
        sources[PUBMED] = mock.sources[PUBMED]
        result = verify_claim(
            claim, with_providers(mock, sources=sources, verdicts=verdicts),
            scheme, template, MOCK_CONFIG,
        )
        assert set(result.source_errors) == {WIKIPEDIA, WEB}
        assert len(verdicts.prompts) == 2
        assert not result.verdicts[PUBMED].abstained
        assert not result.verdicts[MERGED].abstained


def test_an_off_scheme_rule_letter_abstains_with_its_cause(mock, claim, scheme, template, caplog):
    providers = with_providers(mock, verdicts=RuleVerdictProvider([("", "", "Z")]))
    with caplog.at_level("WARNING"):
        result = verify_claim(claim, providers, scheme, template, MOCK_CONFIG)
    assert all(verdict.abstained for verdict in result.verdicts.values())
    assert set(result.source_errors) == set(CANONICAL_SOURCES) | {MERGED}
    assert all("of scifact (A, B, C)" in message for message in result.source_errors.values())
    assert sorted((r.source, r.stage) for r in caplog.records if r.name == "veriscope.pipeline") == sorted(
        (kind.name, "verdict") for kind in result.verdicts
    )


class CountingNegator:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def negate(self, claim_text):
        self.calls += 1
        return self.inner.negate(claim_text)


@pytest.mark.parametrize("condition", list(ClaimCondition))
def test_each_half_alone_gives_verify_claims_trace(mock, scheme, template, condition):
    """ask_verdicts run twice over one gather_evidence result gives verify_claim's trace each time;
    the second run calls the verdict provider once per source and once merged, and nothing else."""
    embedder, verdicts, negator = (
        CountingEmbedder(mock.embedder), CountingVerdicts(mock.verdicts), CountingNegator(mock.negator)
    )
    sources = {kind: RecordingRemoteSource(source) for kind, source in mock.sources.items()}
    providers = ProviderSet(sources, embedder, verdicts, negator)

    def evidence_calls():
        return len(embedder.calls), negator.calls, sum(len(source.threads) for source in sources.values())

    for claim in fixture_claims():
        expected = verify_claim(claim, mock, scheme, template, MOCK_CONFIG, condition)
        evidence = gather_evidence(claim, providers, MOCK_CONFIG, condition)
        first = ask_verdicts(evidence, verdicts, scheme, template)
        before, prompts = evidence_calls(), len(verdicts.prompts)
        second = ask_verdicts(evidence, verdicts, scheme, template)
        assert first == second == expected
        assert first.encoded() == second.encoded() == expected.encoded()
        assert len(verdicts.prompts) - prompts == len(sources) + 1
        assert evidence_calls() == before


class ResultRecordingSource(LocalCorpusSource):
    def __init__(self, source):
        super().__init__(source.kind, source._index)
        self.results = []

    def retrieve(self, query_text, k):
        self.results.append(super().retrieve(query_text, k))
        return self.results[-1]


@pytest.mark.parametrize("max_texts", [None, 10], ids=["batched", "per-document"])
def test_each_selected_document_is_split_once(mock, scheme, template, monkeypatch, max_texts):
    # the last document each query retrieves from a source is not selected
    cfg = dataclasses.replace(MOCK_CONFIG, selection_docs=MOCK_CONFIG.retrieval_depth - 1)
    claims = fixture_claims()[:2]
    healthy = [verify_claim(claim, mock, scheme, template, cfg) for claim in claims]
    split = []
    real_split = index_module.split_sentences
    monkeypatch.setattr(
        index_module, "split_sentences", lambda body: split.append(body) or real_split(body)
    )
    # fresh indexes: no stored document has been split yet
    fresh = mock_provider_set()
    recording = {kind: ResultRecordingSource(src) for kind, src in fresh.sources.items()}
    providers = with_providers(
        fresh, sources=recording, embedder=CountingEmbedder(fresh.embedder, max_texts)
    )
    assert [verify_claim(c, providers, scheme, template, cfg) for c in claims] == healthy
    selected = [
        doc.body
        for source in recording.values()
        for docs in source.results
        for doc in docs[: cfg.selection_docs]
    ]
    retrieved = {
        doc.body for source in recording.values() for docs in source.results for doc in docs
    }
    # two claims, both polarities, every source: some documents come back more than once
    assert len(selected) == 2 * 2 * len(recording) * cfg.selection_docs
    assert len(set(selected)) < len(selected)
    assert retrieved - set(selected)
    # only selected documents are split, each once
    assert set(split) == set(selected)
    assert len(split) == len(set(split))


class QueryRecordingSource(LocalCorpusSource):
    """An in-process source that records the query of each call."""

    def __init__(self, source):
        super().__init__(source.kind, source._index)
        self.queries = []

    def retrieve(self, query_text, k):
        self.queries.append(query_text)
        return super().retrieve(query_text, k)


PRE_NEGATED = "A deficiency of vitamin B12 leaves homocysteine levels unchanged."


@pytest.mark.parametrize("condition, negated_text, queried_negation", [
    (ClaimCondition.ORIGINAL_ONLY, None, None),
    (ClaimCondition.ORIGINAL_ONLY, PRE_NEGATED, None),
    (ClaimCondition.ORIGINAL_PLUS_NEGATED, None, mock_negations()[fixture_claims()[0].text]),
    (ClaimCondition.ORIGINAL_PLUS_NEGATED, PRE_NEGATED, PRE_NEGATED),
], ids=["original", "original-pre-negated", "dual", "dual-pre-negated"])
def test_each_source_receives_the_conditions_queries(
    mock, claim, scheme, template, condition, negated_text, queried_negation
):
    claim = dataclasses.replace(claim, negated_text=negated_text)
    recording = {kind: QueryRecordingSource(src) for kind, src in mock.sources.items()}
    result = verify_claim(
        claim, with_providers(mock, sources=recording), scheme, template, MOCK_CONFIG,
        condition=condition,
    )
    expected = [claim.text] if queried_negation is None else [claim.text, queried_negation]
    assert {kind: source.queries for kind, source in recording.items()} == {
        kind: expected for kind in CANONICAL_SOURCES
    }
    assert result == verify_claim(claim, mock, scheme, template, MOCK_CONFIG, condition=condition)


class RecordingLocalSource(LocalCorpusSource):
    def __init__(self, source):
        super().__init__(source.kind, source._index)
        self.threads = []

    def retrieve(self, query_text, k):
        self.threads.append(threading.get_ident())
        return super().retrieve(query_text, k)


class RecordingRemoteSource:
    """A source of a class the pipeline does not know: treated as remote."""

    def __init__(self, source):
        self.kind = source.kind
        self._source = source
        self.threads = []

    def retrieve(self, query_text, k):
        self.threads.append(threading.get_ident())
        return self._source.retrieve(query_text, k)


#: Set by a test around verify_claim; network-bound calls must see its value.
CLAIM_CONTEXT = contextvars.ContextVar("claim_context", default=None)


class RemoteVerdicts:
    """A verdict provider of a class the pipeline does not know: treated as remote."""

    def __init__(self, inner):
        self.inner = inner
        self.contexts = []

    def choose(self, prompt, scheme):
        self.contexts.append(CLAIM_CONTEXT.get())
        return self.inner.choose(prompt, scheme)


class ContextRecordingSource(RecordingRemoteSource):
    def __init__(self, source):
        super().__init__(source)
        self.contexts = []

    def retrieve(self, query_text, k):
        self.contexts.append(CLAIM_CONTEXT.get())
        return super().retrieve(query_text, k)


class UnknownProvider:
    """A class the package does not know: an adapter or a test double."""


class TestInProcessRule:
    @pytest.mark.parametrize("cls,in_process", [
        (LocalCorpusSource, True),
        (BiomedicalSource, True),
        (HashedBowEmbedder, True),
        (RuleVerdictProvider, True),
        (RuleBasedNegator, True),
        (FixtureNegationProvider, True),
        (WebSearchSource, False),
        (RemoteEmbedder, False),
        (RemoteVerdictProvider, False),
        (RemoteNegationProvider, False),
        (UnknownProvider, False),
    ])
    def test_the_class_alone_decides(self, cls, in_process):
        # built without __init__: no attribute of the instance is read
        assert _in_process(cls.__new__(cls)) is in_process

    def test_provider_set_counts_by_every_provider(self, mock):
        assert mock.in_process()
        assert not with_providers(mock, negator=UnknownProvider()).in_process()
        assert not with_providers(mock, sources={**mock.sources, WEB: UnknownProvider()}).in_process()
        assert with_providers(mock, negator=None).in_process()


class TestThreads:
    def test_remote_verdict_calls_overlap(self, mock, claim, scheme, template):
        verdicts = BarrierVerdicts(mock.verdicts)
        result = verify_claim(
            claim, with_providers(mock, verdicts=verdicts), scheme, template, MOCK_CONFIG
        )
        assert len(verdicts.threads) == 4
        assert threading.get_ident() not in verdicts.threads
        assert result == verify_claim(claim, mock, scheme, template, MOCK_CONFIG)

    def test_local_sources_run_on_the_callers_thread(self, mock, claim, scheme, template):
        sources = dict(mock.sources)
        local = sources[PUBMED] = RecordingLocalSource(mock.sources[PUBMED])
        remote = sources[WEB] = RecordingRemoteSource(mock.sources[WEB])
        result = verify_claim(
            claim, with_providers(mock, sources=sources), scheme, template, MOCK_CONFIG
        )
        caller = threading.get_ident()
        assert local.threads == [caller, caller]
        assert len(remote.threads) == 2 and caller not in remote.threads
        assert result == verify_claim(claim, mock, scheme, template, MOCK_CONFIG)

    def test_network_threads_are_kept_for_later_claims(self, mock, scheme, template, thread_starts):
        sources = dict(mock.sources)
        sources[WEB] = RecordingRemoteSource(mock.sources[WEB])
        providers = with_providers(mock, sources=sources, verdicts=BarrierVerdicts(mock.verdicts))
        claims = fixture_claims() * 2
        for claim in claims:
            verify_claim(claim, providers, scheme, template, MOCK_CONFIG)
        # a pool per claim starts 4 threads per claim, 40 here.  Kept threads
        # start at most one claim's peak of four, plus one for each thread
        # still handing back its last call when the next call is submitted.
        assert len(claims) == 10 and len(thread_starts) <= 8
        assert all(name.startswith("veriscope-network") for name in thread_starts)
        assert len(sources[WEB].threads) == 20

    def test_all_local_claim_starts_no_thread(self, mock, scheme, template, thread_starts):
        for claim in fixture_claims():
            verify_claim(claim, mock, scheme, template, MOCK_CONFIG)
        assert thread_starts == []

    def test_network_calls_run_in_the_callers_context(self, mock, claim, scheme, template):
        sources = dict(mock.sources)
        remote = sources[WEB] = ContextRecordingSource(mock.sources[WEB])
        verdicts = RemoteVerdicts(mock.verdicts)
        providers = with_providers(mock, sources=sources, verdicts=verdicts)
        for value in ("first", "second"):  # the second claim reuses the first one's threads
            token = CLAIM_CONTEXT.set(value)
            try:
                verify_claim(claim, providers, scheme, template, MOCK_CONFIG)
            finally:
                CLAIM_CONTEXT.reset(token)
        assert remote.contexts == ["first"] * 2 + ["second"] * 2
        assert verdicts.contexts == ["first"] * 4 + ["second"] * 4
        assert threading.get_ident() not in remote.threads


class RaisingLocalSource(LocalCorpusSource):
    """An in-process source whose first call releases held and raises TypeError."""

    def __init__(self, source, held):
        super().__init__(source.kind, source._index)
        self.held = held

    def retrieve(self, query_text, k):
        if not self.held.is_set():
            threading.Timer(0.1, self.held.set).start()
        raise TypeError("a bug in a local source")


class HeldRemoteSource(RecordingRemoteSource):
    """A network-bound source whose calls wait until held is set."""

    def __init__(self, source, held):
        super().__init__(source)
        self.held = held
        self.returned = []

    def retrieve(self, query_text, k):
        try:
            assert self.held.wait(timeout=5)
            return super().retrieve(query_text, k)
        finally:
            self.returned.append(query_text)


class DownLocalSource(LocalCorpusSource):
    def retrieve(self, query_text, k):
        raise ProviderUnavailable(f"{self.kind.name} down")


class TestInProcessOutcomes:
    def test_in_process_bug_raises_after_the_network_calls_return(
        self, mock, claim, scheme, template
    ):
        held = threading.Event()
        sources = dict(mock.sources)
        sources[WIKIPEDIA] = RaisingLocalSource(mock.sources[WIKIPEDIA], held)
        remote = sources[WEB] = HeldRemoteSource(mock.sources[WEB], held)
        with pytest.raises(TypeError, match="a bug in a local source"):
            verify_claim(claim, with_providers(mock, sources=sources), scheme, template, MOCK_CONFIG)
        assert held.is_set()
        assert len(remote.returned) == 2

    def test_in_process_source_unavailable_makes_only_that_source_abstain(
        self, mock, claim, scheme, template
    ):
        sources = dict(mock.sources)
        sources[WIKIPEDIA] = DownLocalSource(WIKIPEDIA, mock.sources[WIKIPEDIA]._index)
        sources[WEB] = RecordingRemoteSource(mock.sources[WEB])
        evidence, result = in_halves(claim, with_providers(mock, sources=sources), scheme, template)
        assert evidence.failures == {WIKIPEDIA: ("retrieval", "wikipedia down")}
        assert result.source_errors == {WIKIPEDIA: "wikipedia down"}
        assert result.verdicts[WIKIPEDIA].abstained
        healthy = verify_claim(claim, mock, scheme, template, MOCK_CONFIG)
        for kind in (PUBMED, WEB):
            assert result.bundles[kind] == healthy.bundles[kind]
            assert result.verdicts[kind] == healthy.verdicts[kind]


class FailingEmbedder:
    def embed(self, texts):
        raise ProviderUnavailable("embedding endpoint down")


class TestFusionOutage:
    @pytest.fixture(scope="class")
    def providers(self, mock):
        index = build_local_index(fixture_path("corpus_pubmed.jsonl"))
        sources = dict(mock.sources)
        sources[PUBMED] = BiomedicalSource(PUBMED, index, embedder=FailingEmbedder())
        return with_providers(mock, sources=sources)

    def test_verify_claim_records_the_source_and_abstains(
        self, providers, claim, scheme, template
    ):
        result = verify_claim(claim, providers, scheme, template, MOCK_CONFIG)
        assert set(result.source_errors) == {PUBMED}
        assert "embedding endpoint down" in result.source_errors[PUBMED]
        assert result.verdicts[PUBMED].abstained
        assert not result.verdicts[MERGED].abstained
        assert result.bundles[PUBMED].final == ()

    def test_run_experiment_completes(self, providers, scheme, tmp_path):
        plan = ExperimentPlan(
            dataset=DatasetDescriptor(name="fixture", scheme=scheme, path=mock_claims_path()),
            sources=CANONICAL_SOURCES,
            condition=ClaimCondition.ORIGINAL_PLUS_NEGATED,
            cfg=MOCK_CONFIG,
        )
        run_dir = run_experiment(plan, providers, tmp_path / "run", max_workers=2)
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["abstentions"]["pubmed"] == 5
        assert metrics["abstentions"]["wikipedia"] == 0
        for path in sorted((run_dir / "traces").glob("*.json")):
            assert set(json.loads(path.read_text())["source_errors"]) == {"pubmed"}


def test_malformed_replies_become_abstentions(mock, claim, scheme, template):
    # web search answers with a JSON list, completions with a string top_logprobs
    search = ScriptedSession(then=Reply(body=[{"title": "a list", "link": "http://a"}]))
    llm = ScriptedSession(then=top_logprobs("A"))
    providers = with_providers(
        mock,
        sources={**mock.sources, WEB: WebSearchSource(api_key="k", engine_id="e", session=search)},
        verdicts=RemoteVerdictProvider(
            "http://fake/llm", client=JsonHttpClient("http://fake/llm", session=llm)
        ),
    )
    result = verify_claim(claim, providers, scheme, template, MOCK_CONFIG)
    assert "no list of result objects" in result.source_errors[WEB]
    assert set(result.source_errors) == set(CANONICAL_SOURCES) | {MERGED}
    assert all(verdict.abstained for verdict in result.verdicts.values())
    assert result.profile.regime is None and result.profile.dispersion is None
