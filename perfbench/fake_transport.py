"""In-process stand-in for the HTTP endpoints of the live providers.

``FakeSession`` has the two methods the program calls on a
``requests.Session`` (``post`` for ``JsonHttpClient``, ``get`` for
``WebSearchSource``) and is handed to the program through their public
``session=`` arguments.  It opens no socket.  Answers come from the tables
the generator wrote (negations, search results, embedding vectors); verdict
log-probabilities are a hash of the prompt.  Each request kind holds a fixed
delay by sleeping, so the CPU stays free while a request is "in flight".
Every request's nominal round trip, from its start to its start plus its
delay, is recorded; ``take_round_trips`` hands them to the measuring code,
which counts the time with a request in flight as network service time.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from pathlib import Path

from generate import embed_vector

EMBED_URL = "http://embed.fake.invalid/v1/embeddings"
CHAT_URL = "http://chat.fake.invalid/v1/chat/completions"
SEARCH_URL = "http://search.fake.invalid/customsearch/v1"

#: Fixed round-trip time per request kind, in seconds.
DELAYS = {"embed": 0.005, "chat": 0.020, "search": 0.020}

_CLAIM_MARKER = "Claim:"
_LETTERS = ("A", "B", "C")


class FakeResponse:
    def __init__(self, status_code: int, payload: dict):
        self.status_code = status_code
        self._payload = payload

    def json(self) -> dict:
        return self._payload


class FakeSession:
    """Deterministic fake of the embedding, chat-completion and search APIs."""

    def __init__(self, fake_dir: Path, variant: int):
        fake_dir = Path(fake_dir)
        self._negations = json.loads((fake_dir / "negations.json").read_text(encoding="utf-8"))
        self._search = json.loads((fake_dir / "search.json").read_text(encoding="utf-8"))
        self._web_items = json.loads((fake_dir / "web_items.json").read_text(encoding="utf-8"))
        self._vectors = json.loads((fake_dir / "embeddings.json").read_text(encoding="utf-8"))
        self._key = f"verdict:{variant}:".encode("utf-8")
        self._lock = threading.Lock()
        self.counts = {"embed": 0, "chat": 0, "search": 0}
        self.misses = 0
        self._round_trips: list[tuple[float, float]] = []

    def take_round_trips(self) -> list[tuple[float, float]]:
        """(start, start + delay) of every request since the last call, in perf_counter seconds."""
        with self._lock:
            taken, self._round_trips = self._round_trips, []
        return taken

    def _count(self, kind: str) -> None:
        with self._lock:
            self.counts[kind] += 1

    def _hold(self, kind: str, started: float) -> None:
        with self._lock:
            self._round_trips.append((started, started + DELAYS[kind]))
        remaining = DELAYS[kind] - (time.perf_counter() - started)
        if remaining > 0:
            time.sleep(remaining)

    def post(self, url, json=None, headers=None, timeout=None):
        started = time.perf_counter()
        if url == EMBED_URL:
            kind, response = "embed", self._embed(json["input"])
        elif url == CHAT_URL:
            kind = "chat"
            if json.get("logprobs"):
                response = self._verdict(json["messages"][-1]["content"])
            else:
                response = self._negation(json["messages"][-1]["content"])
        else:
            raise AssertionError(f"fake transport has no endpoint {url!r}")
        self._count(kind)
        self._hold(kind, started)
        return response

    def get(self, url, params=None, timeout=None):
        started = time.perf_counter()
        if url != SEARCH_URL:
            raise AssertionError(f"fake transport has no endpoint {url!r}")
        hits = self._search.get(params["q"], [])[: int(params["num"])]
        items = [self._web_items[doc_id] for doc_id in hits]
        self._count("search")
        self._hold("search", started)
        return FakeResponse(200, {"items": items})

    def _embed(self, texts) -> FakeResponse:
        vectors = []
        for text in texts:
            vector = self._vectors.get(text)
            if vector is None:
                with self._lock:
                    self.misses += 1
                vector = embed_vector(text)
            vectors.append(vector)
        return FakeResponse(200, {"embeddings": vectors})

    def _negation(self, content: str) -> FakeResponse:
        claim = content.rpartition(_CLAIM_MARKER)[2].strip()
        negated = self._negations.get(claim)
        if negated is None:
            return FakeResponse(400, {"error": "unknown claim"})
        return FakeResponse(200, {"choices": [{"message": {"content": negated}}]})

    def _verdict(self, prompt: str) -> FakeResponse:
        digest = hashlib.blake2b(self._key + prompt.encode("utf-8"), digest_size=8).digest()
        chosen = digest[0] % len(_LETTERS)
        top = 0.55 + 0.4 * digest[1] / 255.0
        rest = (1.0 - top) / (len(_LETTERS) - 1)
        entries = [
            {"token": letter, "logprob": math.log(top if i == chosen else rest)}
            for i, letter in enumerate(_LETTERS)
        ]
        return FakeResponse(
            200, {"choices": [{"logprobs": {"content": [{"top_logprobs": entries}]}}]}
        )
