"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v`; the conftest hook prints
one PASS/FAIL line per criterion.  The live smoke test is optional and
skips unless real provider credentials are configured.
"""

import json
import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_sentence
from test_bm25 import brute_force_ranking
from veriscope.aggregation import EvidenceBundle, aggregate_sources, symmetric_difference_dedup
from veriscope.analysis import compute_metrics, kde
from veriscope.bm25 import CorpusStats, bm25_score, tokenize
from veriscope.cli import main as cli_main
from veriscope.index import LocalIndex
from veriscope.mock import MOCK_CONFIG
from veriscope.negation import FixtureNegationProvider
from veriscope.pipeline import ClaimCondition, ProviderSet, verify_claim
from veriscope.selection import HashedBowEmbedder
from veriscope.sources import LocalCorpusSource
from veriscope.types import (
    PUBMED,
    WEB,
    WIKIPEDIA,
    ClaimPair,
    LabelScheme,
    PipelineConfig,
    normalize_sentence,
)
from veriscope.verdict import LabelLogits, RuleVerdictProvider, confidence_from_logits


def test_evidence_algebra_suite():
    """1000 randomized pairs: A^A=0, A^0=dedup(A), output disjoint from A&B; <1s."""
    rng = random.Random(101)
    vocab = [f"tok{i} sentence" for i in range(30)]

    def random_sentences():
        return [make_sentence(rng.choice(vocab)) for _ in range(rng.randint(0, 12))]

    started = time.perf_counter()
    for _ in range(1000):
        a = random_sentences()
        b = random_sentences()
        out = symmetric_difference_dedup(a, b)
        keys_a = {s.normalized for s in a}
        keys_b = {s.normalized for s in b}
        out_keys = [s.normalized for s in out]
        assert set(out_keys) == keys_a ^ keys_b
        assert len(out_keys) == len(set(out_keys))
        assert set(out_keys).isdisjoint(keys_a & keys_b)
        assert symmetric_difference_dedup(a, a) == []
        dedup_a = symmetric_difference_dedup(a, [])
        seen = set()
        expected = [s for s in a if s.normalized not in seen and not seen.add(s.normalized)]
        assert dedup_a == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"evidence algebra took {elapsed:.2f}s"


def test_bm25_oracle_twenty_doc_corpus():
    """Index ranking equals brute force for 50 queries on a 20-doc corpus."""
    rng = random.Random(202)
    vocab = [f"term{i}" for i in range(25)]
    docs = {
        f"doc{i:02d}": " ".join(rng.choices(vocab, k=rng.randint(3, 30))) for i in range(20)
    }
    index = LocalIndex.from_documents((doc_id, "", body) for doc_id, body in docs.items())
    for _ in range(50):
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        expected = brute_force_ranking(tokenize(query), docs, 20)
        got = index.ranked(query)
        assert [doc.doc_id for doc, _ in got] == [doc_id for doc_id, _ in expected]
        for (_, got_score), (_, want_score) in zip(got, expected):
            assert abs(got_score - want_score) < 1e-6

    # hand-computed single-document value: ln 2
    stats = CorpusStats(doc_count=1, avg_doc_length=1.0, doc_frequencies={"cat": 1})
    assert bm25_score(["cat"], ["cat"], stats) == pytest.approx(0.6931, abs=1e-4)


def test_confidence_identity():
    """conf = z[argmax] - logsumexp(z) to 1e-9; probabilities sum to 1; label shift-invariant."""
    rng = np.random.default_rng(303)
    schemes = {
        3: LabelScheme("s3", ("L0", "L1", "L2"), ("A", "B", "C")),
        4: LabelScheme("s4", ("L0", "L1", "L2", "L3"), ("A", "B", "C", "D")),
        6: LabelScheme("s6", tuple(f"L{i}" for i in range(6)), tuple("ABCDEF")),
    }
    for _ in range(1000):
        m = int(rng.choice([3, 4, 6]))
        z = rng.uniform(-10.0, 10.0, size=m)
        scheme = schemes[m]
        label, confidence = confidence_from_logits(LabelLogits(scheme, tuple(z)))

        peak = float(z.max())
        logsumexp = peak + math.log(float(np.sum(np.exp(z - peak))))
        assert abs(confidence - (float(z[np.argmax(z)]) - logsumexp)) < 1e-9

        log_softmax = z - logsumexp
        assert abs(float(np.exp(log_softmax).sum()) - 1.0) < 1e-9

        shift = float(rng.uniform(-50.0, 50.0))
        shifted_label, _ = confidence_from_logits(LabelLogits(scheme, tuple(z + shift)))
        assert shifted_label == label


def test_metrics_oracle():
    """Exact match with a brute-force confusion matrix on 200 random sets."""
    from test_analysis import metrics_oracle

    scheme = LabelScheme("s3", ("X", "Y", "Z"), ("A", "B", "C"))
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(1, 80)
        pairs = [
            (rng.choice(scheme.labels), rng.choice(scheme.labels + ("abstain",)))
            for _ in range(n)
        ]
        report = compute_metrics(pairs, scheme)
        acc, mp, mr, mf, per_class = metrics_oracle(pairs, scheme.labels)
        assert report.accuracy == acc
        assert report.macro_precision == mp
        assert report.macro_recall == mr
        assert report.macro_f1 == mf
        for label in scheme.labels:
            got = report.per_class[label]
            assert (got.precision, got.recall, got.f1, got.support) == per_class[label]

    binary = LabelScheme("tf", ("T", "F"), ("A", "B"))
    report = compute_metrics([("T", "T"), ("T", "F"), ("F", "F"), ("F", "F")], binary)
    assert report.accuracy == 0.75
    assert report.macro_f1 == pytest.approx(0.7333, abs=1e-4)


def test_kde_checks():
    """Integral in [0.98, 1.02] for 100 random sample sets; phi(0) value; non-negative."""
    rng = np.random.default_rng(505)
    for _ in range(100):
        n = int(rng.integers(5, 201))
        center = float(rng.uniform(-5, 0))
        scale = float(rng.uniform(0.05, 2.0))
        samples = (center + scale * rng.standard_normal(n)).tolist()
        curve = kde(samples)
        density = np.asarray(curve.density)
        assert np.all(density >= 0.0)
        integral = float(np.trapezoid(density, np.asarray(curve.grid)))
        assert 0.98 <= integral <= 1.02, f"integral {integral} for n={n}"

    single = kde([0.0], grid_points=257, bandwidth=1.0)
    mid = min(range(len(single.grid)), key=lambda i: abs(single.grid[i]))
    assert single.density[mid] == pytest.approx(0.39894, abs=1e-5)


def test_aggregation_union_oracle():
    """E_i equals brute-force set union by normalized text, exactly."""
    rng = random.Random(606)
    vocab = [f"sentence number {i}" for i in range(15)]
    kinds = (WIKIPEDIA, PUBMED, WEB)
    for _ in range(300):
        bundles = {}
        for kind in kinds:
            finals = tuple(
                make_sentence(rng.choice(vocab), source=kind)
                for _ in range(rng.randint(0, 6))
            )
            bundles[kind] = EvidenceBundle(final=finals)
        aggregated = aggregate_sources(bundles)
        expected = set()
        for bundle in bundles.values():
            expected |= {s.normalized for s in bundle.final}
        got = [s.normalized for s in aggregated.sentences]
        assert set(got) == expected
        assert len(got) == len(expected)
        assert all(
            any(s.normalized in {f.normalized for f in b.final} for b in bundles.values())
            for s in aggregated.sentences
        )


def test_end_to_end_determinism(tmp_path):
    """Mock evaluate over the shipped 5-claim fixtures, twice: byte-identical; <10s."""
    runner = CliRunner()
    started = time.perf_counter()
    outputs = []
    for name in ("run-a", "run-b"):
        out = tmp_path / name
        result = runner.invoke(cli_main, ["evaluate", "--mock", "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append(out)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"two mock runs took {elapsed:.2f}s"

    a, b = outputs
    trace_names = sorted(p.name for p in (a / "traces").glob("*.json"))
    assert trace_names == sorted(p.name for p in (b / "traces").glob("*.json"))
    assert len(trace_names) == 5
    for name in trace_names:
        assert (a / "traces" / name).read_bytes() == (b / "traces" / name).read_bytes()
    assert (a / "confidences.csv").read_bytes() == (b / "confidences.csv").read_bytes()
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


def test_dual_retrieval_effect_fixture():
    """A refuting sentence reachable only via the negated claim enters E_i
    under original+negated and stays out under original-only."""
    corpus = {
        "d1": "5 percent of perinatal mortality is attributed to low birth weight.",
        "d2": "Perinatal mortality has declined with improved neonatal care.",
        "d3": (
            "In fact 95 percent of perinatal mortality is not due to low birth weight. "
            "Other causes dominate."
        ),
    }
    refuting = "In fact 95 percent of perinatal mortality is not due to low birth weight."
    claim_text = "5% of perinatal mortality is due to low birth weight."
    negation_text = "95% of perinatal mortality is not due to low birth weight."

    index = LocalIndex.from_documents((doc_id, "", body) for doc_id, body in corpus.items())
    # premise: at depth 1 the claim retrieves d1 while the negation retrieves d3
    assert index.ranked(claim_text)[0][0].doc_id == "d1"
    assert index.ranked(negation_text)[0][0].doc_id == "d3"

    providers = ProviderSet(
        sources={PUBMED: LocalCorpusSource(PUBMED, index)},
        embedder=HashedBowEmbedder(),
        verdicts=RuleVerdictProvider(
            rules=(("", "not due to low birth weight", "B"),), default_letter="A"
        ),
        negator=FixtureNegationProvider({claim_text: negation_text}),
    )
    scheme = LabelScheme("s3", ("Supported", "Refuted", "Not Enough Info"), ("A", "B", "C"))
    from veriscope.assets import load_prompt

    template = load_prompt("verdict")
    cfg = PipelineConfig(retrieval_depth=1, selection_docs=1, sentences_per_doc=1, final_top_p=5)
    claim = ClaimPair(id="perinatal", text=claim_text)

    dual = verify_claim(claim, providers, scheme, template, cfg=cfg,
                        condition=ClaimCondition.ORIGINAL_PLUS_NEGATED)
    original = verify_claim(claim, providers, scheme, template, cfg=cfg,
                            condition=ClaimCondition.ORIGINAL_ONLY)

    refuting_key = normalize_sentence(refuting)
    dual_keys = {s.normalized for s in dual.aggregated.sentences}
    original_keys = {s.normalized for s in original.aggregated.sentences}
    assert refuting_key in dual_keys
    assert refuting_key not in original_keys
    # desk-scale analogue of the accuracy gain: the verdict flips to Refuted
    from veriscope.types import MERGED

    assert dual.verdicts[MERGED].label == "Refuted"
    assert original.verdicts[MERGED].label != "Refuted"


_LIVE_VARS = ("LLM_API_URL", "LLM_API_KEY", "SCIFACT_CLAIMS_PATH",
              "SEARCH_API_KEY", "SEARCH_ENGINE_ID")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in _LIVE_VARS),
    reason="live smoke test needs " + ", ".join(_LIVE_VARS),
)
def test_live_smoke():
    """Optional: 10 real claims through live LLM + web search; abstention <= 20%."""
    from veriscope.assets import load_scheme
    from veriscope.datasets import DatasetDescriptor
    from veriscope.experiment import ExperimentPlan, run_experiment
    from veriscope.negation import RemoteNegationProvider, RuleBasedNegator
    from veriscope.sources import WebSearchSource
    from veriscope.verdict import RemoteVerdictProvider

    scheme = load_scheme("scifact")
    negator = (
        RemoteNegationProvider() if os.environ.get("NEGATION_API_URL") else RuleBasedNegator()
    )
    providers = ProviderSet(
        sources={WEB: WebSearchSource()},
        embedder=HashedBowEmbedder(),
        verdicts=RemoteVerdictProvider(),
        negator=negator,
    )
    plan = ExperimentPlan(
        dataset=DatasetDescriptor(
            name="scifact-live",
            scheme=scheme,
            path=Path(os.environ["SCIFACT_CLAIMS_PATH"]),
        ),
        sources=(WEB,),
        condition=ClaimCondition.ORIGINAL_PLUS_NEGATED,
        cfg=MOCK_CONFIG,
        limit=10,
    )
    out = Path("runs") / "live-smoke"
    run_dir = run_experiment(plan, providers, out, max_workers=2)
    metrics = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
    total = metrics["claims"]
    assert total == 10
    for source_name, abstained in metrics["abstentions"].items():
        assert abstained / total <= 0.20, f"{source_name} abstained {abstained}/{total}"
    assert (run_dir / "confidences.csv").exists()
    assert (run_dir / "evidence.jsonl").exists()
