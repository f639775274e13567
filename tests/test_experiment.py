import json
import threading
import time
import weakref
from pathlib import Path

import pytest

from conftest import BarrierVerdicts
from veriscope.assets import load_prompt, load_scheme
from veriscope.datasets import DatasetDescriptor, load_dataset
from veriscope.errors import (
    ConfigurationError,
    EmptyDataset,
    ProviderUnavailable,
)
from veriscope.experiment import ExperimentPlan, plan_claims, run_experiment
from veriscope.mock import MOCK_CONFIG, mock_claims_path, mock_negations, mock_provider_set
from veriscope.negation import FixtureNegationProvider, RuleBasedNegator
from veriscope.pipeline import ClaimCondition, ProviderSet, verify_claim
from veriscope.selection import HashedBowEmbedder
from veriscope.sources import BiomedicalSource
from veriscope.types import CANONICAL_SOURCES, MERGED, PUBMED, WEB, WIKIPEDIA, ClaimPair


@pytest.fixture(scope="module")
def providers():
    return mock_provider_set()


@pytest.fixture(scope="module")
def scheme():
    return load_scheme("scifact")


@pytest.fixture(scope="module")
def template():
    return load_prompt("verdict")


def fixture_descriptor(scheme):
    return DatasetDescriptor(name="fixture", scheme=scheme, path=mock_claims_path())


class TestLoadDataset:
    def test_loads_fixture_claims(self, scheme):
        claims = load_dataset(fixture_descriptor(scheme))
        assert len(claims) == 5
        assert all(c.gold_label in scheme.labels for c in claims)
        assert claims[0].id == "c-001"

    def test_rejects_bad_records(self, tmp_path, scheme, caplog):
        path = tmp_path / "claims.jsonl"
        lines = [
            json.dumps({"id": "a", "claim": "Cats purr.", "label": "Supported"}),
            json.dumps({"id": "b", "claim": "Dogs bark.", "label": "NotALabel"}),
            json.dumps({"id": "c", "claim": "", "label": "Refuted"}),
            "not json",
            json.dumps({"id": "d", "claim": "Fish swim.", "label": "Refuted"}),
            "[1, 2]",
            json.dumps({"id": "e", "claim": ["Cats", "purr"], "label": "Supported"}),
            json.dumps({"id": "f", "claim": 123, "label": "Supported"}),
        ]
        not_utf8 = b'{"id": "g", "claim": "Bad \xff byte.", "label": "Supported"}\n'
        path.write_bytes(("\n".join(lines) + "\n").encode() + not_utf8)
        with caplog.at_level("WARNING"):
            claims = load_dataset(DatasetDescriptor(name="t", scheme=scheme, path=path))
        assert [c.id for c in claims] == ["a", "d"]
        assert caplog.text.count("rejected") == 7
        assert "line 9 rejected: the line is not UTF-8 (byte 0xff)" in caplog.text
        assert "line 2" in caplog.text
        assert "line 7 rejected" in caplog.text
        assert "line 8 rejected" in caplog.text

    def test_a_byte_order_mark_keeps_the_first_claim(self, tmp_path, scheme, caplog):
        path = tmp_path / "claims.jsonl"
        lines = [
            json.dumps({"id": "a", "claim": "Cats purr.", "label": "Supported"}),
            json.dumps({"id": "b", "claim": "Dogs bark.", "label": "Refuted"}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        with caplog.at_level("WARNING"):
            claims = load_dataset(DatasetDescriptor(name="t", scheme=scheme, path=path))
        assert [c.id for c in claims] == ["a", "b"]
        assert "rejected" not in caplog.text

    def test_rejects_duplicate_claim_ids(self, tmp_path, scheme, caplog):
        path = tmp_path / "claims.jsonl"
        lines = [
            json.dumps({"id": "a", "claim": "Cats purr.", "label": "Supported"}),
            json.dumps({"id": "a", "claim": "Dogs bark.", "label": "Refuted"}),
            json.dumps({"claim": "Fish swim.", "label": "Refuted"}),
            json.dumps({"id": "t-00003", "claim": "Birds fly.", "label": "Supported"}),
        ]
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level("INFO"):
            claims = load_dataset(DatasetDescriptor(name="t", scheme=scheme, path=path))
        assert [(c.id, c.text) for c in claims] == [("a", "Cats purr."), ("t-00003", "Fish swim.")]
        assert "line 2 rejected: duplicate claim id 'a'" in caplog.text
        assert "line 4 rejected: duplicate claim id 't-00003'" in caplog.text
        assert "(2 rejected)" in caplog.text

    def test_missing_file(self, tmp_path, scheme):
        with pytest.raises(FileNotFoundError):
            load_dataset(DatasetDescriptor(name="t", scheme=scheme, path=tmp_path / "no.jsonl"))

    def test_empty_file(self, tmp_path, scheme):
        path = tmp_path / "claims.jsonl"
        path.write_text("")
        with pytest.raises(EmptyDataset):
            load_dataset(DatasetDescriptor(name="t", scheme=scheme, path=path))

    def test_reload_identical(self, scheme):
        desc = fixture_descriptor(scheme)
        assert load_dataset(desc) == load_dataset(desc)

    def test_generated_ids_when_field_missing(self, tmp_path, scheme):
        path = tmp_path / "claims.jsonl"
        path.write_text(json.dumps({"claim": "Cats purr.", "label": "Supported"}) + "\n")
        claims = load_dataset(DatasetDescriptor(name="t", scheme=scheme, path=path))
        assert claims[0].id == "t-00001"

    def test_id_zero_is_kept(self, tmp_path, scheme):
        path = tmp_path / "claims.jsonl"
        records = [
            {"id": 0, "claim": "Cats purr.", "label": "Supported"},
            {"id": 1, "claim": "Dogs bark.", "label": "Supported"},
            {"id": "", "claim": "Fish swim.", "label": "Supported"},
            {"id": None, "claim": "Birds fly.", "label": "Supported"},
        ]
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        claims = load_dataset(DatasetDescriptor(name="t", scheme=scheme, path=path))
        assert [c.id for c in claims] == ["0", "1", "t-00003", "t-00004"]


class TestPlanClaims:
    def test_seeded_shuffle_with_limit_deterministic(self, scheme):
        desc = fixture_descriptor(scheme)
        plan = ExperimentPlan(
            dataset=desc, sources=CANONICAL_SOURCES, condition=ClaimCondition.ORIGINAL_ONLY,
            cfg=MOCK_CONFIG, limit=3,
        )
        first = [c.id for c in plan_claims(plan)]
        second = [c.id for c in plan_claims(plan)]
        assert first == second
        assert len(first) == 3

    def test_different_seed_different_subset_order(self, scheme):
        import dataclasses

        desc = fixture_descriptor(scheme)
        orders = []
        for seed in (0, 1, 2, 3):
            plan = ExperimentPlan(
                dataset=desc, sources=CANONICAL_SOURCES,
                condition=ClaimCondition.ORIGINAL_ONLY,
                cfg=dataclasses.replace(MOCK_CONFIG, seed=seed), limit=5,
            )
            orders.append(tuple(c.id for c in plan_claims(plan)))
        assert len(set(orders)) > 1


class TestVerifyClaim:
    def test_original_only_never_calls_negator(self, providers, scheme, template):
        calls = []

        class CountingNegator:
            def negate(self, text):
                calls.append(text)
                return "It is not the case that " + text

        claim = ClaimPair(id="x", text="Zinc lozenges shorten the duration of the common cold.")
        from veriscope.pipeline import ProviderSet

        counted = ProviderSet(
            sources=providers.sources,
            embedder=providers.embedder,
            verdicts=providers.verdicts,
            negator=CountingNegator(),
        )
        result = verify_claim(
            claim, counted, scheme, template, cfg=MOCK_CONFIG,
            condition=ClaimCondition.ORIGINAL_ONLY,
        )
        assert calls == []
        assert result.claim.negated_text is None
        assert all(not bundle.negative for bundle in result.bundles.values())

    def test_dual_condition_negates_once(self, providers, scheme, template):
        claim = ClaimPair(id="x", text="Zinc lozenges shorten the duration of the common cold.")
        result = verify_claim(
            claim, providers, scheme, template, cfg=MOCK_CONFIG,
            condition=ClaimCondition.ORIGINAL_PLUS_NEGATED,
        )
        assert result.claim.negated_text is not None

    def test_dual_without_negator_is_config_error(self, providers, scheme, template):
        from veriscope.pipeline import ProviderSet

        bare = ProviderSet(
            sources=providers.sources, embedder=providers.embedder,
            verdicts=providers.verdicts, negator=None,
        )
        claim = ClaimPair(id="x", text="Cats purr.")
        with pytest.raises(ConfigurationError):
            verify_claim(claim, bare, scheme, template, cfg=MOCK_CONFIG)

    def test_pre_negated_claim_skips_negator(self, providers, scheme, template):
        claim = ClaimPair(id="x", text="Cats purr.", negated_text="Cats do not purr.")
        result = verify_claim(claim, providers, scheme, template, cfg=MOCK_CONFIG)
        assert result.claim.negated_text == "Cats do not purr."

    def test_failed_source_becomes_abstention(self, providers, scheme, template):
        class DownSource:
            kind = WIKIPEDIA

            def retrieve(self, query, k):
                raise ProviderUnavailable("index on fire")

        from veriscope.pipeline import ProviderSet

        partial = ProviderSet(
            sources={WIKIPEDIA: DownSource(), PUBMED: providers.sources[PUBMED]},
            embedder=providers.embedder,
            verdicts=providers.verdicts,
            negator=providers.negator,
        )
        claim = ClaimPair(id="x", text="A deficiency of vitamin B12 increases homocysteine levels.")
        result = verify_claim(claim, partial, scheme, template, cfg=MOCK_CONFIG)
        assert result.verdicts[WIKIPEDIA].abstained
        assert WIKIPEDIA in result.source_errors
        assert not result.verdicts[PUBMED].abstained
        assert MERGED in result.verdicts

    def test_merged_verdict_over_union(self, providers, scheme, template):
        claim = ClaimPair(id="x", text="A deficiency of vitamin B12 increases homocysteine levels.")
        result = verify_claim(claim, providers, scheme, template, cfg=MOCK_CONFIG)
        from veriscope.aggregation import aggregate_sources

        rebuilt = aggregate_sources(result.bundles)
        assert [s.normalized for s in result.aggregated.sentences] == [
            s.normalized for s in rebuilt.sentences
        ]

    def test_bundle_invariants_hold(self, providers, scheme, template):
        claims = load_dataset(fixture_descriptor(scheme))
        for claim in claims:
            result = verify_claim(claim, providers, scheme, template, cfg=MOCK_CONFIG)
            for bundle in result.bundles.values():
                keys = [s.normalized for s in bundle.candidates]
                assert len(keys) == len(set(keys))
                assert len(bundle.final) <= MOCK_CONFIG.final_top_p
                sims = [s.similarity for s in bundle.final]
                assert sims == sorted(sims, reverse=True)

    def test_trace_round_trip(self, providers, scheme, template):
        from veriscope.pipeline import ClaimVerification

        claim = ClaimPair(id="x", text="The Great Wall of China is visible from the Moon.")
        result = verify_claim(claim, providers, scheme, template, cfg=MOCK_CONFIG)
        rebuilt = ClaimVerification.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt == result


def run_plan(tmp_path, providers, scheme, condition=ClaimCondition.ORIGINAL_PLUS_NEGATED,
             out_name="run", limit=None, cfg=MOCK_CONFIG, sources=CANONICAL_SOURCES,
             max_workers=2):
    plan = ExperimentPlan(
        dataset=fixture_descriptor(scheme),
        sources=sources,
        condition=condition,
        cfg=cfg,
        limit=limit,
    )
    return run_experiment(plan, providers, tmp_path / out_name, max_workers=max_workers)


def seed_interrupted_run(full: Path, resumed: Path, trace_names) -> None:
    """What an interruption leaves: the manifest (written first) and some traces."""
    (resumed / "traces").mkdir(parents=True)
    (resumed / "run-manifest.json").write_bytes((full / "run-manifest.json").read_bytes())
    for name in trace_names:
        (resumed / "traces" / name).write_bytes((full / "traces" / name).read_bytes())


def with_one_merged_logit(trace: dict) -> dict:
    trace["verdicts"]["merged"]["logits"]["logits"] = [0.5]
    return trace


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class OutageEmbedder:
    """Wraps an embedder; every call carrying failing_text is unavailable (None: no outage)."""

    def __init__(self, inner, failing_text=None):
        self.inner = inner
        self.failing_text = failing_text

    def embed(self, texts):
        if self.failing_text is not None and self.failing_text in texts:
            raise ProviderUnavailable(f"embedding unavailable for {self.failing_text!r}")
        return self.inner.embed(texts)


def completes_alone(claim, providers, scheme, template):
    """Whether the claim verifies when it is the only claim run."""
    try:
        verify_claim(claim, providers, scheme, template, cfg=MOCK_CONFIG)
    except ProviderUnavailable:
        return False
    return True


class TestRunExperiment:
    def test_artifact_layout(self, tmp_path, providers, scheme):
        run_dir = run_plan(tmp_path, providers, scheme)
        assert (run_dir / "run-manifest.json").exists()
        assert (run_dir / "confidences.csv").exists()
        assert (run_dir / "metrics.json").exists()
        assert (run_dir / "evidence.jsonl").exists()
        traces = sorted(p.name for p in (run_dir / "traces").glob("*.json"))
        assert traces == [f"c-00{i}.json" for i in range(1, 6)]

    def test_metrics_grid_complete(self, tmp_path, providers, scheme):
        run_dir = run_plan(tmp_path, providers, scheme)
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert set(metrics["per_source"]) == {"wikipedia", "pubmed", "web", "merged"}
        assert set(metrics["abstentions"]) == {"wikipedia", "pubmed", "web", "merged"}
        for report in metrics["per_source"].values():
            for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
                assert 0.0 <= report[key] <= 1.0

    def test_byte_identical_across_runs(self, tmp_path, providers, scheme):
        a = run_plan(tmp_path, providers, scheme, out_name="a")
        b = run_plan(tmp_path, providers, scheme, out_name="b")
        assert tree_bytes(a) == tree_bytes(b)

    def test_four_worker_runs_on_one_provider_set_are_byte_identical(
        self, tmp_path, providers, scheme
    ):
        # the second run reads the document splits the first one left in the indexes
        shared = mock_provider_set()
        a = run_plan(tmp_path, shared, scheme, out_name="a", max_workers=4)
        b = run_plan(tmp_path, shared, scheme, out_name="b", max_workers=4)
        assert tree_bytes(a) == tree_bytes(b)
        assert tree_bytes(a) == tree_bytes(run_plan(tmp_path, providers, scheme, out_name="c"))

    def test_resume_matches_uninterrupted(self, tmp_path, providers, scheme):
        full = run_plan(tmp_path, providers, scheme, out_name="full")
        resumed = tmp_path / "resumed"
        # simulate an interruption after three claims
        seed_interrupted_run(full, resumed, ("c-001.json", "c-002.json", "c-003.json"))
        run_plan(tmp_path, providers, scheme, out_name="resumed")
        assert tree_bytes(full) == tree_bytes(resumed)

    def test_resume_fills_defaults_for_missing_trace_keys(self, tmp_path, providers, scheme):
        full = run_plan(tmp_path, providers, scheme, out_name="full")
        resumed = tmp_path / "resumed"
        seed_interrupted_run(full, resumed, ())
        # a trace may leave out a key that holds its field's default
        for path in sorted((full / "traces").glob("*.json")):
            trace = json.loads(path.read_text())
            assert trace["source_errors"] == {}
            del trace["source_errors"]
            (resumed / "traces" / path.name).write_text(json.dumps(trace))
        run_plan(tmp_path, providers, scheme, out_name="resumed")
        assert (resumed / "metrics.json").read_bytes() == (full / "metrics.json").read_bytes()

    def test_resume_refuses_a_verdict_without_abstained(self, tmp_path, providers, scheme):
        full = run_plan(tmp_path, providers, scheme, out_name="full")
        resumed = tmp_path / "resumed"
        seed_interrupted_run(full, resumed, ())
        # abstained has no default: without it an abstention would read as an answer
        trace = json.loads((full / "traces" / "c-001.json").read_text())
        del trace["verdicts"]["merged"]["abstained"]
        (resumed / "traces" / "c-001.json").write_text(json.dumps(trace))
        with pytest.raises(ConfigurationError, match=r"c-001\.json.*abstained"):
            run_plan(tmp_path, providers, scheme, out_name="resumed")

    @pytest.mark.parametrize("damage", [
        lambda text: text[: len(text) // 2],
        lambda text: "[]",
        lambda text: json.dumps({key: value for key, value in json.loads(text).items() if key != "verdicts"}),
        lambda text: json.dumps(with_one_merged_logit(json.loads(text))),
    ], ids=["truncated", "array", "no-verdicts", "one-logit"])
    def test_resume_refuses_a_trace_that_does_not_decode(self, tmp_path, providers, scheme, damage):
        full = run_plan(tmp_path, providers, scheme, out_name="full")
        resumed = tmp_path / "resumed"
        seed_interrupted_run(full, resumed, ())
        trace = resumed / "traces" / "c-001.json"
        damaged = damage((full / "traces" / "c-001.json").read_text())
        trace.write_text(damaged)
        with pytest.raises(ConfigurationError, match=r"c-001\.json.*delete it or use a fresh output"):
            run_plan(tmp_path, providers, scheme, out_name="resumed")
        assert trace.read_text() == damaged
        assert sorted(p.name for p in resumed.iterdir()) == ["run-manifest.json", "traces"]

    @pytest.mark.parametrize("damage", [
        lambda text: text[: len(text) // 2],
        lambda text: "[1, 2]",
    ], ids=["truncated", "array"])
    def test_resume_refuses_an_unreadable_manifest(self, tmp_path, providers, scheme, damage):
        full = run_plan(tmp_path, providers, scheme, out_name="full")
        resumed = tmp_path / "resumed"
        seed_interrupted_run(full, resumed, ("c-001.json",))
        manifest = resumed / "run-manifest.json"
        manifest.write_text(damage(manifest.read_text()))
        held = tree_bytes(resumed)
        with pytest.raises(ConfigurationError, match=r"run-manifest\.json.*use a fresh output"):
            run_plan(tmp_path, providers, scheme, out_name="resumed")
        assert tree_bytes(resumed) == held

    def test_resume_with_another_seed_is_refused(self, tmp_path, providers, scheme):
        import dataclasses

        run_plan(tmp_path, providers, scheme, out_name="r")
        with pytest.raises(ConfigurationError, match="config"):
            run_plan(tmp_path, providers, scheme, out_name="r",
                     cfg=dataclasses.replace(MOCK_CONFIG, seed=MOCK_CONFIG.seed + 1))

    def test_resume_with_another_source_set_is_refused(self, tmp_path, providers, scheme):
        run_plan(tmp_path, providers, scheme, out_name="r")
        with pytest.raises(ConfigurationError, match="sources"):
            run_plan(tmp_path, providers, scheme, out_name="r", sources=(WIKIPEDIA, PUBMED))

    @pytest.mark.parametrize("changed, planned, traced", [
        ({"claim": "A deficiency of vitamin B12 lowers homocysteine levels."}, {}, {}),
        ({"label": "Refuted"}, {}, {}),
        ({}, {}, {"sources": (WIKIPEDIA, PUBMED)}),
        ({}, {"sources": (WIKIPEDIA, PUBMED)}, {"sources": CANONICAL_SOURCES}),
        ({}, {}, {"condition": ClaimCondition.ORIGINAL_ONLY}),
    ], ids=["text", "label", "sources-fewer", "sources-more", "condition"])
    def test_resume_refuses_a_trace_of_another_claim(self, tmp_path, providers, scheme, changed, planned, traced):
        # the manifest records neither the claims file nor the run a trace came from,
        # so each trace is checked against its claim, the condition and the sources
        run_dir = run_plan(tmp_path, providers, scheme, **planned)
        trace = run_dir / "traces" / "c-001.json"
        if traced:
            other = run_plan(tmp_path, providers, scheme, out_name="other", **traced)
            trace.write_bytes((other / "traces" / "c-001.json").read_bytes())
        held = trace.read_bytes()
        lines = mock_claims_path().read_text().splitlines()
        record = json.loads(lines[0])
        assert record["id"] == "c-001"
        claims = tmp_path / "b.jsonl"
        claims.write_text("\n".join([json.dumps({**record, **changed}), *lines[1:]]) + "\n")
        plan = ExperimentPlan(
            dataset=DatasetDescriptor(name="fixture", scheme=scheme, path=claims),
            sources=planned.get("sources", CANONICAL_SOURCES),
            condition=ClaimCondition.ORIGINAL_PLUS_NEGATED,
            cfg=MOCK_CONFIG,
        )
        with pytest.raises(ConfigurationError, match="c-001.json"):
            run_experiment(plan, providers, run_dir)
        assert trace.read_bytes() == held

    def test_manifest_describes_only_the_planned_sources(self, tmp_path, providers, scheme):
        run_dir = run_plan(tmp_path, providers, scheme, sources=(WIKIPEDIA, PUBMED))
        manifest = json.loads((run_dir / "run-manifest.json").read_text())
        assert set(manifest["providers"]["sources"]) == {"wikipedia", "pubmed"}
        assert manifest["trace_format"] == 3

    def test_format_2_run_is_refused_before_any_claim(self, tmp_path, providers, scheme):
        full = run_plan(tmp_path, providers, scheme, out_name="full")
        manifest = json.loads((full / "run-manifest.json").read_text())
        (full / "run-manifest.json").write_text(json.dumps({**manifest, "trace_format": 2}))
        for path in (full / "traces").glob("*.json"):
            path.unlink()
        with pytest.raises(ConfigurationError, match="trace_format"):
            run_plan(tmp_path, providers, scheme, out_name="full")
        assert not any((full / "traces").glob("*.json"))

    def test_traces_without_manifest_are_refused(self, tmp_path, providers, scheme):
        full = run_plan(tmp_path, providers, scheme, out_name="full")
        (full / "run-manifest.json").unlink()
        (full / "metrics.json").unlink()
        with pytest.raises(ConfigurationError, match="no run-manifest.json"):
            run_plan(tmp_path, providers, scheme, out_name="full")
        assert not (full / "run-manifest.json").exists()

    def test_larger_limit_resumes(self, tmp_path, providers, scheme):
        full = run_plan(tmp_path, providers, scheme, out_name="full")
        run_plan(tmp_path, providers, scheme, out_name="grown", limit=2)
        run_plan(tmp_path, providers, scheme, out_name="grown")
        assert tree_bytes(full) == tree_bytes(tmp_path / "grown")

    @pytest.mark.parametrize("failing", ["negator", "embedder"])
    def test_outage_aborts_and_rerun_resumes(self, tmp_path, providers, scheme, template, failing):
        import dataclasses

        from veriscope.mock import mock_negations
        from veriscope.negation import FixtureNegationProvider

        # claims in run order; the outage hits the third
        claims = plan_claims(ExperimentPlan(
            dataset=fixture_descriptor(scheme), sources=CANONICAL_SOURCES,
            condition=ClaimCondition.ORIGINAL_PLUS_NEGATED, cfg=MOCK_CONFIG,
        ))
        failing_claim = claims[2]
        # both runs use the same provider classes (the manifest records them);
        # during the outage one claim's negation or embeddings are unavailable
        if failing == "negator":
            negations = {k: v for k, v in mock_negations().items() if k != failing_claim.text}
            healthy = providers
            outage = dataclasses.replace(providers, negator=FixtureNegationProvider(negations))
        else:
            healthy = dataclasses.replace(providers, embedder=OutageEmbedder(providers.embedder))
            outage = dataclasses.replace(
                providers, embedder=OutageEmbedder(providers.embedder, failing_claim.text)
            )
        # a claim is healthy when it verifies alone under the outage; the embedder
        # outage also fails claims that retrieve the failing claim's text as evidence
        alone = [completes_alone(claim, outage, scheme, template) for claim in claims]
        expected = {f"{claim.id}.json" for claim, ok in zip(claims, alone) if ok}
        first_failing = alone.index(False)
        before = {f"{claim.id}.json" for claim in claims[:first_failing]}
        assert f"{failing_claim.id}.json" not in expected and len(expected) >= 3
        assert before and len(before) < len(expected)
        full = run_plan(tmp_path, healthy, scheme, out_name="full")
        for max_workers in (1, 2, 4):
            resumed = tmp_path / f"resumed-{max_workers}"
            with pytest.raises(ProviderUnavailable):
                run_plan(tmp_path, outage, scheme,
                         out_name=resumed.name, max_workers=max_workers)
            # every claim before the first failing one keeps its trace, no trace
            # belongs to a failing claim, and no derived artifact is written; one
            # worker starts no claim after the failure
            traces = {p.name for p in (resumed / "traces").iterdir()}
            assert before <= traces <= expected
            # one worker, or an in-process provider set at any max_workers
            # (its claims run one at a time), starts no claim after the failure
            if max_workers == 1 or failing == "negator":
                assert traces == before
            assert sorted(p.name for p in resumed.iterdir()) == ["run-manifest.json", "traces"]
            run_plan(tmp_path, healthy, scheme, out_name=resumed.name)
            assert tree_bytes(full) == tree_bytes(resumed)

    def test_in_process_run_starts_no_thread(self, tmp_path, providers, scheme, thread_starts):
        run_plan(tmp_path, providers, scheme, max_workers=4)
        assert thread_starts == []

    def test_fused_source_and_fixture_negator_run_starts_no_thread(
        self, tmp_path, providers, scheme, thread_starts
    ):
        embedder = HashedBowEmbedder()
        fused = ProviderSet(
            sources={**providers.sources,
                     PUBMED: BiomedicalSource(PUBMED, providers.sources[PUBMED]._index, embedder=embedder)},
            embedder=embedder,
            verdicts=providers.verdicts,
            negator=FixtureNegationProvider(mock_negations(), fallback=RuleBasedNegator()),
        )
        run_plan(tmp_path, fused, scheme, max_workers=4)
        assert thread_starts == []

    def test_runs_reuse_the_network_threads(self, tmp_path, providers, scheme, thread_starts):
        import dataclasses

        remote = dataclasses.replace(providers, verdicts=BarrierVerdicts(providers.verdicts))
        for out_name in ("first", "second"):
            run_plan(tmp_path, remote, scheme, out_name=out_name, max_workers=1)
        # a pool per claim starts 4 verdict threads per claim of each run; kept
        # threads start at most one claim's peak, once more for any thread still
        # handing back its last call
        assert sum(name.startswith("veriscope-network") for name in thread_starts) <= 8

    def test_claims_in_flight_share_the_threads_without_mixing(self, tmp_path, providers, scheme):
        import dataclasses
        import sys

        remote = dataclasses.replace(providers, verdicts=BarrierVerdicts(providers.verdicts))
        full = run_plan(tmp_path, providers, scheme, out_name="full")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_plan(tmp_path, remote, scheme, out_name="remote", max_workers=4)
        finally:
            sys.setswitchinterval(interval)
        artifacts, expected = tree_bytes(tmp_path / "remote"), tree_bytes(full)
        assert artifacts.keys() == expected.keys()
        # only the manifest differs: it names the verdict provider's class
        assert [name for name in artifacts if artifacts[name] != expected[name]] == ["run-manifest.json"]

    @pytest.mark.parametrize("max_workers", [0, -3])
    def test_max_workers_below_one_is_refused(self, tmp_path, providers, scheme, max_workers):
        plan = ExperimentPlan(
            dataset=fixture_descriptor(scheme), sources=CANONICAL_SOURCES,
            condition=ClaimCondition.ORIGINAL_ONLY, cfg=MOCK_CONFIG,
        )
        with pytest.raises(ValueError, match="max_workers"):
            run_experiment(plan, providers, tmp_path / "x", max_workers=max_workers)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("condition", list(ClaimCondition))
    def test_trace_files_hold_the_in_memory_result(
        self, tmp_path, providers, scheme, template, condition
    ):
        from veriscope.experiment import _trace_filename
        from veriscope.pipeline import ClaimVerification

        run_dir = run_plan(tmp_path, providers, scheme, condition=condition)
        for claim in load_dataset(fixture_descriptor(scheme)):
            result = verify_claim(claim, providers, scheme, template, cfg=MOCK_CONFIG,
                                  condition=condition)
            data = (run_dir / "traces" / _trace_filename(claim.id)).read_bytes()
            assert data == (json.dumps(result.to_dict(), sort_keys=True) + "\n").encode("utf-8")
            rebuilt = ClaimVerification.from_dict(json.loads(data))
            assert rebuilt == result
            assert (json.dumps(rebuilt.to_dict(), sort_keys=True) + "\n").encode("utf-8") == data
            assert rebuilt.aggregated == result.aggregated
            assert rebuilt.profile == result.profile
            assert {kind: (v.label, v.confidence) for kind, v in rebuilt.verdicts.items()} == {
                kind: (v.label, v.confidence) for kind, v in result.verdicts.items()
            }

    def test_condition_mismatch_on_resume_aborts(self, tmp_path, providers, scheme):
        run_plan(tmp_path, providers, scheme, out_name="r", condition=ClaimCondition.ORIGINAL_ONLY)
        with pytest.raises(ConfigurationError):
            run_plan(
                tmp_path, providers, scheme, out_name="r",
                condition=ClaimCondition.ORIGINAL_PLUS_NEGATED,
            )

    def test_conditions_produce_distinct_metrics(self, tmp_path, providers, scheme):
        orig = run_plan(tmp_path, providers, scheme, out_name="o",
                        condition=ClaimCondition.ORIGINAL_ONLY)
        dual = run_plan(tmp_path, providers, scheme, out_name="d",
                        condition=ClaimCondition.ORIGINAL_PLUS_NEGATED)
        m_orig = json.loads((orig / "metrics.json").read_text())
        m_dual = json.loads((dual / "metrics.json").read_text())
        assert m_orig["condition"] == "original"
        assert m_dual["condition"] == "original+negated"
        assert m_orig != m_dual

    def test_missing_source_provider_aborts(self, tmp_path, providers, scheme):
        from veriscope.pipeline import ProviderSet

        partial = ProviderSet(
            sources={WIKIPEDIA: providers.sources[WIKIPEDIA]},
            embedder=providers.embedder,
            verdicts=providers.verdicts,
            negator=providers.negator,
        )
        plan = ExperimentPlan(
            dataset=fixture_descriptor(scheme),
            sources=(WIKIPEDIA, PUBMED, WEB),
            condition=ClaimCondition.ORIGINAL_ONLY,
            cfg=MOCK_CONFIG,
        )
        with pytest.raises(ConfigurationError):
            run_experiment(plan, partial, tmp_path / "x")

    @pytest.mark.parametrize("limit", [0, -2, True, 2.0, "3"])
    def test_limit_must_be_a_positive_integer(self, scheme, limit):
        with pytest.raises(ValueError, match="limit"):
            ExperimentPlan(dataset=fixture_descriptor(scheme), sources=CANONICAL_SOURCES,
                           condition=ClaimCondition.ORIGINAL_ONLY, cfg=MOCK_CONFIG, limit=limit)

    @pytest.mark.parametrize(
        "sources", [(), (WIKIPEDIA, WIKIPEDIA), (WIKIPEDIA, PUBMED, WIKIPEDIA), ("wikipedia",)],
        ids=["empty", "repeated", "repeated-apart", "not-a-source-kind"],
    )
    def test_sources_must_be_non_empty_and_distinct(self, scheme, sources):
        with pytest.raises(ValueError, match="sources"):
            ExperimentPlan(dataset=fixture_descriptor(scheme), sources=sources,
                           condition=ClaimCondition.ORIGINAL_ONLY, cfg=MOCK_CONFIG)

    def test_limit_truncates(self, tmp_path, providers, scheme):
        run_dir = run_plan(tmp_path, providers, scheme, out_name="lim", limit=2)
        assert len(list((run_dir / "traces").glob("*.json"))) == 2

    def test_original_only_run_never_negates(self, tmp_path, providers, scheme):
        calls = []

        class CountingNegator:
            def negate(self, text):
                calls.append(text)
                return "It is not the case that " + text

        from veriscope.pipeline import ProviderSet

        counted = ProviderSet(
            sources=providers.sources,
            embedder=providers.embedder,
            verdicts=providers.verdicts,
            negator=CountingNegator(),
        )
        run_plan(tmp_path, counted, scheme, condition=ClaimCondition.ORIGINAL_ONLY,
                 out_name="noneg")
        assert calls == []

    def test_unsafe_claim_ids_get_safe_trace_names(self):
        from veriscope.experiment import _trace_filename

        assert _trace_filename("plain-id_1.2") == "plain-id_1.2.json"
        weird = _trace_filename("a/b claim?")
        assert "/" not in weird and "?" not in weird and " " not in weird
        # distinct ids never collide after sanitization
        assert _trace_filename("a/b") != _trace_filename("a b")


class RemoteLookingVerdicts:
    """Wraps a verdict provider in a class the pipeline does not know, so a run overlaps claims."""

    def __init__(self, inner):
        self.inner = inner

    def choose(self, prompt, scheme):
        return self.inner.choose(prompt, scheme)


@pytest.fixture
def most_claims_alive(monkeypatch):
    """A one-item list: the most ClaimVerification objects alive at once,
    sampled as each one is built, by verify_claim or from a resumed trace."""
    from veriscope.pipeline import ClaimVerification

    built, most, lock = [], [0], threading.Lock()
    post_init = ClaimVerification.__post_init__

    def counting_post_init(self, union):
        post_init(self, union)
        with lock:
            built.append(weakref.ref(self))
            most[0] = max(most[0], sum(ref() is not None for ref in built))

    monkeypatch.setattr(ClaimVerification, "__post_init__", counting_post_init)
    return most


class TestRunMemory:
    """A finished claim is dropped once its rows are written; derived files wait under temporary names."""

    @pytest.mark.parametrize("remote", [False, True], ids=["in-process", "overlapped"])
    def test_no_finished_claim_is_kept(self, tmp_path, providers, scheme, most_claims_alive, remote):
        import dataclasses

        expected = tree_bytes(run_plan(tmp_path, providers, scheme, out_name="expected"))
        most_claims_alive[0] = 0
        if remote:
            providers = dataclasses.replace(providers, verdicts=RemoteLookingVerdicts(providers.verdicts))
        run_dir = run_plan(tmp_path, providers, scheme, max_workers=2)
        # in-process claims run one at a time; an overlapped one is dropped by its worker
        assert 1 <= most_claims_alive[0] <= (2 if remote else 1)
        most_claims_alive[0] = 0
        for name in ("evidence.jsonl", "confidences.csv", "metrics.json"):
            (run_dir / name).unlink()
        run_plan(tmp_path, providers, scheme, max_workers=2)  # every trace resumed
        assert 1 <= most_claims_alive[0] <= (2 if remote else 1)
        produced = tree_bytes(run_dir)
        assert [name for name in produced if produced[name] != expected[name]] == (
            ["run-manifest.json"] if remote else []
        )
        assert produced.keys() == expected.keys()

    def test_claims_are_submitted_in_a_window(self, tmp_path, providers, scheme, monkeypatch):
        import dataclasses

        from veriscope import experiment

        record = json.loads(mock_claims_path().read_text().splitlines()[0])
        claims = tmp_path / "claims.jsonl"
        claims.write_text("".join(json.dumps({**record, "id": f"c-{i:03d}"}) + "\n" for i in range(30)))
        plan = ExperimentPlan(
            dataset=DatasetDescriptor(name="fixture", scheme=scheme, path=claims),
            sources=CANONICAL_SOURCES, condition=ClaimCondition.ORIGINAL_PLUS_NEGATED, cfg=MOCK_CONFIG,
        )
        first = plan_claims(plan)[0].id
        started, first_done = [], []

        def slow_first(claim, *args, **kwargs):
            started.append(claim.id)
            if claim.id == first:
                time.sleep(0.5)  # the other worker runs out of submitted claims meanwhile
                first_done.append(len(started))
            return verify_claim(claim, *args, **kwargs)

        monkeypatch.setattr(experiment, "verify_claim", slow_first)
        remote = dataclasses.replace(providers, verdicts=RemoteLookingVerdicts(providers.verdicts))
        run_experiment(plan, remote, tmp_path / "run", max_workers=2)
        assert len(started) == 30
        assert first_done[0] <= experiment.WINDOW_PER_WORKER * 2

    @pytest.mark.parametrize("remote", [False, True], ids=["in-process", "overlapped"])
    def test_a_failed_claim_leaves_no_derived_or_temporary_file(
        self, tmp_path, providers, scheme, monkeypatch, remote
    ):
        import dataclasses

        from veriscope import experiment

        failing = plan_claims(ExperimentPlan(
            dataset=fixture_descriptor(scheme), sources=CANONICAL_SOURCES,
            condition=ClaimCondition.ORIGINAL_PLUS_NEGATED, cfg=MOCK_CONFIG,
        ))[2].id

        def failing_third(claim, *args, **kwargs):
            if claim.id == failing:
                raise ProviderUnavailable("down")
            return verify_claim(claim, *args, **kwargs)

        monkeypatch.setattr(experiment, "verify_claim", failing_third)
        if remote:
            providers = dataclasses.replace(providers, verdicts=RemoteLookingVerdicts(providers.verdicts))
        with pytest.raises(ProviderUnavailable, match="down"):
            run_plan(tmp_path, providers, scheme, max_workers=2)
        run_dir = tmp_path / "run"
        assert sorted(p.name for p in run_dir.iterdir()) == ["run-manifest.json", "traces"]
        assert not list(run_dir.rglob("*.tmp"))
