import json
import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
import requests

from veriscope import _http
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


class Request(NamedTuple):
    """One request a ScriptedSession received."""

    method: str
    url: str
    params: dict | None
    json: object
    headers: dict | None


@dataclass(frozen=True)
class Reply:
    """One scripted answer, given after delay seconds.

    A status with a JSON body (body), a status with a body that is not
    JSON (text), or an error raised instead: an exception, or a requests
    exception class, raised as requests raises it, with the request URL,
    query string included, in its message.
    """

    status: int = 200
    body: object = None
    text: str | None = None
    error: Exception | type[requests.RequestException] | None = None
    delay: float = 0.0

    def answer(self, request: Request) -> requests.Response:
        time.sleep(self.delay)
        url = requests.Request(request.method, request.url, params=request.params).prepare().url
        if isinstance(self.error, type):
            raise self.error(f"{self.error.__name__}: Max retries exceeded with url: {url}")
        if self.error is not None:
            raise self.error
        response = requests.Response()
        response.status_code = self.status
        response._content = (json.dumps(self.body) if self.text is None else self.text).encode()
        response.encoding = "utf-8"
        response.url = url
        return response


class ScriptedSession:
    """The one fake requests.Session: GET and POST answer from one schedule.

    Each request takes the next entry of the schedule: a Reply, or a
    function of the Request that returns one.  Once the schedule is used
    up, then answers every request; without it an unscripted request
    fails the test.  requests records every request in arrival order and
    peak_in_flight the most requests answered at once.
    """

    def __init__(self, *schedule, then=None):
        self._schedule = list(schedule)
        self._then = then
        self._lock = threading.Lock()
        self._in_flight = 0
        self.peak_in_flight = 0
        self.requests: list[Request] = []

    def get(self, url, params=None, timeout=None):
        return self._answer(Request("GET", url, params, None, None))

    def post(self, url, json=None, headers=None, timeout=None):
        return self._answer(Request("POST", url, None, json, headers))

    def _answer(self, request):
        with self._lock:
            self.requests.append(request)
            entry = self._schedule.pop(0) if self._schedule else self._then
            if entry is None:
                raise AssertionError(f"unscripted request: {request}")
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
        try:
            reply = entry if isinstance(entry, Reply) else entry(request)
            return reply.answer(request)
        finally:
            with self._lock:
                self._in_flight -= 1


@pytest.fixture
def backoff_sleeps(monkeypatch):
    """The backoff sleeps of every JsonHttpClient during the test, recorded instead of slept."""
    sleeps = []
    monkeypatch.setattr(_http, "time", SimpleNamespace(sleep=sleeps.append))
    return sleeps


def completion(content) -> Reply:
    """A chat completion whose message content is content."""
    return Reply(body={"choices": [{"message": {"content": content}}]})


def top_logprobs(entries) -> Reply:
    """A one-token chat completion whose top_logprobs are entries."""
    return Reply(body={"choices": [{"logprobs": {"content": [{"top_logprobs": entries}]}}]})


def embeddings(embedder):
    """A schedule entry answering an embedding request with embedder's rows for its input."""
    return lambda request: Reply(body={"embeddings": embedder.embed(request.json["input"]).tolist()})


def cut_index_file(index_dir, name):
    """Drop the last 3 documents of docs.jsonl, or the last 3 terms of terms.json."""
    path = index_dir / name
    if name == "docs.jsonl":
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-3]))
    else:
        path.write_text(json.dumps(json.loads(path.read_text())[:-3]) + "\n")
