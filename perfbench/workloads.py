"""The three workloads: their sizes, inputs and provider sets.

``fixtures-mock``  the bundled 5 claims over the 3 fixture corpora with the
                   mock providers, MOCK_CONFIG and original+negated: what
                   ``veriscope evaluate --mock`` runs.  Retrieval is trivial,
                   so per-claim overhead dominates; claims repeat, so this is
                   the workload with the most shared work.
``zipf-corpus``    three seeded Zipf corpora of 200 docs each; pubmed is a
                   BiomedicalSource with dense fusion; unique claims sampled
                   from corpus sentences; RuleBasedNegator, the default
                   PipelineConfig and RuleVerdictProvider.  Index and BM25
                   work dominate and no two claims share work.
``live-fake``      the Remote* providers and WebSearchSource over the fake
                   transport (5 ms embed, 20 ms chat and search) with small
                   local corpora for wikipedia and pubmed; unique claims.
                   Round trips and request concurrency dominate while the
                   CPU idles.

Only the public API is used: mock_provider_set, build_local_index,
LocalIndex.load, the source and provider classes and their ``client=`` /
``session=`` arguments.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import generate

#: The inputs of a run are generated from ``seed % VARIANTS``; the reference
#: digests cover every variant, so the correctness gate applies to any seed.
VARIANTS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    #: claims per run_experiment call (the evaluate phase repeats batches)
    batch: int
    #: claim_service_tail_ms percentile; chosen so that at least 10 verify-phase
    #: samples lie beyond it (see min_verify_samples)
    tail_percentile: int
    #: set-ups timed before the reference batch and again after every
    #: evaluate slice; setup_s is the median of all of them
    setup_repeats: int

    @property
    def min_verify_samples(self) -> int:
        beyond = 1.0 - self.tail_percentile / 100.0
        return int(round(10 / beyond)) + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixtures-mock", batch=5, tail_percentile=95, setup_repeats=20),
        Workload("zipf-corpus", batch=4, tail_percentile=75, setup_repeats=5),
        Workload("live-fake", batch=8, tail_percentile=75, setup_repeats=10),
    )
}

ZIPF_DOCS = 200
ZIPF_VOCAB = 3000
LIVE_LOCAL_DOCS = 60
LIVE_WEB_DOCS = 120
LIVE_VOCAB = 1500
MOCK_VERIFY_LEN = 5000

#: Sources served by a generated local corpus, per workload; the BM25 oracle
#: checks each of them.
LOCAL_CORPORA = {
    "zipf-corpus": ("wikipedia", "pubmed", "web"),
    "live-fake": ("wikipedia", "pubmed"),
}


def generate_inputs(name: str, inputs: Path, variant: int) -> dict:
    """Write every input of the workload under ``inputs``; return its description."""
    if name == "fixtures-mock":
        stats = generate.generate_fixtures_mock(inputs, variant, 5, MOCK_VERIFY_LEN)
    elif name == "zipf-corpus":
        stats = generate.generate_zipf_corpus(inputs, variant, ZIPF_DOCS, ZIPF_VOCAB, WORKLOADS[name].batch)
    elif name == "live-fake":
        stats = generate.generate_live_fake(
            inputs, variant, LIVE_LOCAL_DOCS, LIVE_WEB_DOCS, LIVE_VOCAB, WORKLOADS[name].batch
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    description = {"workload": name, "variant": variant, **stats}
    (inputs / "inputs.json").write_text(json.dumps(description, sort_keys=True), encoding="utf-8")
    return description


# ---------------------------------------------------------------------------
# Everything below imports the program and runs in the measuring process.
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    """A ready provider set plus what the phases feed it."""

    providers: object
    cfg: object
    condition: object
    scheme: object
    template: str
    #: claims files: reference batch, then evaluate batches
    reference: Path
    evaluate: list
    #: ClaimPair objects for the closed verify loop
    verify: list
    #: corpus files of the local sources, by source name
    corpora: dict
    #: dataset name written into the artifacts
    dataset: str
    session: object = None


def _claims_from_jsonl(path: Path):
    from veriscope import ClaimPair

    claims = []
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            claims.append(ClaimPair(id=record["id"], text=record["claim"], gold_label=record["label"]))
    return claims


def build_index(corpus: Path, index_dir: Path):
    """Index, persist and reload one corpus: the path a deployment takes."""
    from veriscope import LocalIndex, build_local_index

    if index_dir.exists():
        shutil.rmtree(index_dir)
    build_local_index(corpus, index_dir)
    return LocalIndex.load(index_dir)


class Setup:
    """Builds the workload's ProviderSet from the inputs on disk.

    ``build()`` is the timed part of setup_s; what it needs from outside
    the program (the fake transport's tables) is loaded beforehand.
    """

    def __init__(self, name: str, inputs: Path, scratch: Path, variant: int):
        self.name = name
        self.inputs = Path(inputs)
        self.scratch = Path(scratch)
        self.session = None
        if name == "live-fake":
            from fake_transport import FakeSession

            self.session = FakeSession(self.inputs / "fake", variant)

    def build(self):
        import veriscope as vs
        from veriscope._http import JsonHttpClient
        from veriscope.mock import mock_provider_set

        if self.name == "fixtures-mock":
            return mock_provider_set()
        wiki = build_index(self.inputs / "corpus_wikipedia.jsonl", self.scratch / "index-wikipedia")
        pubmed = build_index(self.inputs / "corpus_pubmed.jsonl", self.scratch / "index-pubmed")
        if self.name == "zipf-corpus":
            web = build_index(self.inputs / "corpus_web.jsonl", self.scratch / "index-web")
            embedder = vs.HashedBowEmbedder()
            rules = json.loads((self.inputs / "verdict_rules.json").read_text(encoding="utf-8"))
            return vs.ProviderSet(
                sources={
                    vs.WIKIPEDIA: vs.LocalCorpusSource(vs.WIKIPEDIA, wiki),
                    vs.PUBMED: vs.BiomedicalSource(vs.PUBMED, pubmed, embedder=embedder),
                    vs.WEB: vs.LocalCorpusSource(vs.WEB, web),
                },
                embedder=embedder,
                verdicts=vs.RuleVerdictProvider([tuple(r) for r in rules], default_letter="C"),
                negator=vs.RuleBasedNegator(),
            )
        from fake_transport import CHAT_URL, EMBED_URL, SEARCH_URL

        embedder = vs.RemoteEmbedder(EMBED_URL, client=JsonHttpClient(EMBED_URL, session=self.session))
        return vs.ProviderSet(
            sources={
                vs.WIKIPEDIA: vs.LocalCorpusSource(vs.WIKIPEDIA, wiki),
                vs.PUBMED: vs.BiomedicalSource(vs.PUBMED, pubmed, embedder=embedder),
                vs.WEB: vs.WebSearchSource(
                    endpoint=SEARCH_URL, api_key="fake-key", engine_id="fake-engine", session=self.session
                ),
            },
            embedder=embedder,
            verdicts=vs.RemoteVerdictProvider(
                CHAT_URL, model="fake-llm", client=JsonHttpClient(CHAT_URL, session=self.session)
            ),
            negator=vs.RemoteNegationProvider(
                CHAT_URL, model="fake-llm", client=JsonHttpClient(CHAT_URL, session=self.session)
            ),
        )

    def prepare(self, providers) -> Prepared:
        import veriscope as vs
        from veriscope.assets import load_prompt
        from veriscope.mock import MOCK_CONFIG, mock_claims_path

        scheme = vs.load_scheme("scifact")
        condition = vs.ClaimCondition.ORIGINAL_PLUS_NEGATED
        if self.name == "fixtures-mock":
            from veriscope.assets import fixture_path

            bundled = mock_claims_path()
            claims = _claims_from_jsonl(bundled)
            order = json.loads((self.inputs / "verify_order.json").read_text(encoding="utf-8"))
            corpora = {s: fixture_path(f"corpus_{s}.jsonl") for s in ("wikipedia", "pubmed", "web")}
            return Prepared(providers, MOCK_CONFIG, condition, scheme, load_prompt("verdict"),
                            bundled, [bundled], [claims[i] for i in order], corpora, "fixture")
        layout = json.loads((self.inputs / "inputs.json").read_text(encoding="utf-8"))["layout"]
        local = LOCAL_CORPORA[self.name]
        return Prepared(
            providers,
            vs.PipelineConfig(),
            condition,
            scheme,
            load_prompt("verdict"),
            self.inputs / layout["reference"],
            [self.inputs / name for name in layout["evaluate"]],
            _claims_from_jsonl(self.inputs / layout["verify"]),
            {s: self.inputs / f"corpus_{s}.jsonl" for s in local},
            self.name,
            session=self.session,
        )
