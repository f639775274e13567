"""Correctness gate: reference digests and a brute-force BM25 oracle.

The digests cover the deterministic artifacts of the reference batch --
``evidence.jsonl``, ``confidences.csv`` and ``metrics.json`` -- recorded
per workload and input variant in ``reference_digests.json``.  Traces and
the run manifest are left out on purpose: observability work is expected
to change them without changing any verdict.

The oracle scores every document of each generated local corpus
(zipf-corpus and live-fake) against sampled claims and negations with its
own BM25 (same formula and constants as the program's documented ones)
and compares the program's top-k, score by score, outside the timed
phases.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import generate

DIGEST_FILES = ("evidence.jsonl", "confidences.csv", "metrics.json")
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"

K1, B = 1.2, 0.75
ORACLE_QUERIES = 6
_TOLERANCE = 1e-9


def artifact_digests(run_dir: Path) -> dict:
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in DIGEST_FILES}


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def check_digests(workload: str, variant: int, run_dir: Path) -> list[str]:
    expected = load_references().get(workload, {}).get(str(variant))
    if expected is None:
        return [f"no reference digests for {workload} variant {variant}"]
    actual = artifact_digests(run_dir)
    return [
        f"{name}: sha256 {actual[name][:12]} differs from reference {expected[name][:12]}"
        for name in DIGEST_FILES
        if actual[name] != expected[name]
    ]


def _tokens(text: str) -> list[str]:
    return generate.normalize(text).split()


def brute_force_bm25(query: str, docs: list[dict]) -> list[tuple[str, float]]:
    """Every document scored; those above zero sorted by (-score, doc_id)."""
    bodies = {doc["doc_id"]: Counter(_tokens(doc["body"])) for doc in docs}
    lengths = {doc_id: sum(c.values()) for doc_id, c in bodies.items()}
    n = len(docs)
    avgdl = sum(lengths.values()) / n
    df = Counter(term for counts in bodies.values() for term in counts)
    terms = _tokens(query)
    scored = []
    for doc_id, counts in bodies.items():
        norm = 1.0 - B + B * lengths[doc_id] / avgdl
        score = 0.0
        for term in terms:
            tf = counts.get(term, 0)
            if tf:
                idf = math.log(1.0 + (n + 0.5) / (df[term] + 0.5))
                score += idf * tf * (K1 + 1.0) / (tf + K1 * norm)
        if score > 0:
            scored.append((doc_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def _lines(path: Path) -> list[str]:
    return [line for line in Path(path).read_text(encoding="utf-8").splitlines() if line]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _TOLERANCE * max(1.0, abs(a), abs(b))


def check_bm25(index_dirs: dict, corpora: dict, queries: list[str], k: int) -> list[str]:
    """Compare LocalCorpusSource top-k over each saved index with the oracle."""
    from veriscope import LocalCorpusSource, LocalIndex, SourceKind

    problems = []
    for name, index_dir in index_dirs.items():
        docs = [json.loads(line) for line in _lines(corpora[name])]
        source = LocalCorpusSource(SourceKind(name), LocalIndex.load(index_dir))
        for query in queries:
            expected = brute_force_bm25(query, docs)
            oracle = dict(expected)
            got = source.retrieve(query, k)
            if len(got) != min(k, len(expected)):
                problems.append(f"{name}: {len(got)} hits for {query!r}, oracle has {len(expected)}")
                continue
            for rank, doc in enumerate(got):
                at_rank = _close(doc.score, expected[rank][1])
                if not (at_rank and _close(doc.score, oracle.get(doc.doc_id, -1.0))):
                    problems.append(
                        f"{name}: rank {rank + 1} of {query!r} is {doc.doc_id} ({doc.score!r}), "
                        f"oracle has {expected[rank][0]} ({expected[rank][1]!r})"
                    )
                    break
    return problems


def oracle_queries(verify_file: Path, variant: int) -> list[str]:
    """Seeded sample of verify-phase claims, each with its negation."""
    claims = [json.loads(line)["claim"] for line in _lines(verify_file)]
    rng = generate.Rng("oracle", variant)
    picked = [claims[rng.below(len(claims))] for _ in range(ORACLE_QUERIES // 2)]
    return [q for claim in picked for q in (claim, generate.negate(claim))]
