import threading

import numpy as np
import pytest

from veriscope.errors import ProviderUnavailable
from veriscope.selection import EvidenceSentence, HashedBowEmbedder, Polarity
from veriscope.sources import RetrievedDocument
from veriscope.types import PUBMED, WIKIPEDIA, LabelScheme, PipelineConfig


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        status = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {name}: {status}")
    elif report.when == "setup" and report.skipped:
        print(f"\nACCEPTANCE {name}: SKIP")


class BarrierVerdicts:
    """A verdict provider of a class the pipeline does not know: treated as remote.

    Every choose() waits until four calls are inside it at once, so the
    run completes only if the four verdict calls of a claim overlap.
    """

    def __init__(self, inner):
        self.inner = inner
        self.barrier = threading.Barrier(4, timeout=5)
        self.threads = set()

    def choose(self, prompt, scheme):
        self.threads.add(threading.get_ident())
        self.barrier.wait()
        return self.inner.choose(prompt, scheme)


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started during the test, in start order."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


@pytest.fixture
def scheme3():
    return LabelScheme(
        name="scifact",
        labels=("Supported", "Refuted", "Not Enough Info"),
        option_letters=("A", "B", "C"),
    )


@pytest.fixture
def embedder():
    return HashedBowEmbedder(dim=256)


@pytest.fixture
def cfg():
    return PipelineConfig(retrieval_depth=5, selection_docs=5, sentences_per_doc=1, final_top_p=5)


def make_sentence(
    text,
    doc_id="d1",
    source=PUBMED,
    polarity=Polarity.FROM_CLAIM,
    similarity=0.5,
):
    return EvidenceSentence(
        text=text, source=source, doc_id=doc_id, polarity=polarity, similarity=similarity
    )


def make_doc(doc_id, body, rank, title="", source=WIKIPEDIA, score=None):
    return RetrievedDocument(
        doc_id=doc_id,
        source=source,
        title=title,
        body=body,
        rank=rank,
        score=score if score is not None else 1.0 / rank,
    )


class ZeroVector(ValueError):
    """Cosine similarity is undefined for a zero-norm vector."""


def cosine_similarity(u, v) -> float:
    """The oracle for every similarity: u.v / (|u||v|); raises ZeroVector on a zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    if norm_u == 0.0 or norm_v == 0.0:
        raise ZeroVector("cosine similarity undefined for zero vectors")
    return float(np.dot(u, v) / (norm_u * norm_v))


class FixtureSource:
    """Knowledge source serving canned rank-ordered documents per query."""

    def __init__(self, kind, docs_by_query):
        self.kind = kind
        self._docs_by_query = {query: list(docs) for query, docs in docs_by_query.items()}

    def retrieve(self, query_text, k):
        return self._docs_by_query.get(query_text, [])[:k]


class FixtureEmbedder:
    """Embedder serving exact vectors per text; an unknown text is a provider failure."""

    def __init__(self, vectors):
        self._vectors = {text: np.asarray(vec, dtype=np.float64) for text, vec in vectors.items()}
        dims = {vec.shape for vec in self._vectors.values()}
        if len(dims) > 1:
            raise ValueError("fixture vectors must share one dimension")

    def embed(self, texts):
        try:
            return np.stack([self._vectors[text] for text in texts])
        except KeyError as exc:
            raise ProviderUnavailable(f"no fixture vector for {exc.args[0]!r}") from exc
