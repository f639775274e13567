"""Seeded input generator for the benchmark workloads.

Everything a run feeds the program is written to disk here, before any
timing starts: Zipf-vocabulary corpora (JSONL, the format
``build_local_index`` reads), claims files, and the answer tables of the
fake transport used by ``live-fake``.  The generator imports nothing from
the program, so its output depends only on the seed and this file.

Only ``random.Random.random`` and integer arithmetic on its output are
used, so one seed gives byte-identical inputs on every run.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import unicodedata
from pathlib import Path

#: Function words; the auxiliaries are the ones the program's rule-based
#: negator flips, so every generated sentence takes its flip path.
AUXILIARIES = ("is", "are", "was", "were", "can", "will", "does", "do")
DETERMINERS = ("the", "a", "this", "each")
PREPOSITIONS = ("of", "in", "with", "for", "by", "on")
FUNCTION_WORDS = frozenset(AUXILIARIES + DETERMINERS + PREPOSITIONS + ("and", "not", "to"))

_SYLLABLES = (
    "ka", "lo", "mi", "ne", "ru", "ta", "vo", "zi", "pe", "su",
    "do", "ga", "hi", "bo", "fe", "ly", "qu", "xa", "we", "jo",
)
ZIPF_EXPONENT = 1.07
LABELS = ("Supported", "Refuted", "Not Enough Info")
EMBED_DIM = 48


class Rng:
    """Thin wrapper over random.Random that uses only random()."""

    def __init__(self, *parts):
        key = ":".join(str(p) for p in parts).encode("utf-8")
        self._r = random.Random(int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big"))

    def below(self, n: int) -> int:
        return min(n - 1, int(self._r.random() * n))

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def pick(self, seq):
        return seq[self.below(len(seq))]

    def unit(self) -> float:
        return self._r.random()

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


class Zipf:
    """Rank-frequency sampler over a fixed vocabulary."""

    def __init__(self, words: list[str], exponent: float = ZIPF_EXPONENT):
        self.words = words
        total = 0.0
        self._cum = []
        for rank in range(1, len(words) + 1):
            total += 1.0 / rank**exponent
            self._cum.append(total)

    def draw(self, rng: Rng) -> str:
        rank = bisect.bisect_left(self._cum, rng.unit() * self._cum[-1])
        return self.words[min(len(self.words) - 1, rank)]


def make_vocabulary(rng: Rng, size: int) -> list[str]:
    words: set[str] = set()
    ordered: list[str] = []
    while len(ordered) < size:
        word = "".join(rng.pick(_SYLLABLES) for _ in range(rng.between(2, 4)))
        if word in words or word in FUNCTION_WORDS:
            continue
        words.add(word)
        ordered.append(word)
    return ordered


#: Share of corpus sentences that are negated ('... is not ...'), so that a
#: claim and its negation retrieve partly different evidence.
NEGATED_SHARE = 0.3


def make_sentence(rng: Rng, zipf: Zipf) -> str:
    """'The w w is [not] w of the w w.' shaped: one auxiliary, 7 to 14 tokens."""
    tokens = [rng.pick(DETERMINERS)]
    tokens += [zipf.draw(rng) for _ in range(rng.between(1, 2))]
    tokens.append(rng.pick(AUXILIARIES))
    if rng.unit() < NEGATED_SHARE:
        tokens.append("not")
    tokens += [zipf.draw(rng) for _ in range(rng.between(1, 3))]
    tokens += [rng.pick(PREPOSITIONS), rng.pick(DETERMINERS)]
    tokens += [zipf.draw(rng) for _ in range(rng.between(1, 3))]
    tokens[0] = tokens[0].capitalize()
    return " ".join(tokens) + "."


def make_corpus(rng: Rng, zipf: Zipf, prefix: str, docs: int, sentences: tuple[int, int]) -> list[dict]:
    corpus = []
    for i in range(docs):
        title = " ".join(zipf.draw(rng) for _ in range(rng.between(2, 4))).title()
        body = " ".join(make_sentence(rng, zipf) for _ in range(rng.between(*sentences)))
        corpus.append({"doc_id": f"{prefix}-{i:05d}", "title": title, "body": body})
    return corpus


def negate(text: str) -> str:
    """Insert or drop 'not' after the first auxiliary (the inputs always have one)."""
    tokens = text.split()
    for i, token in enumerate(tokens):
        if token.lower() in AUXILIARIES:
            if i + 1 < len(tokens) and tokens[i + 1].lower() == "not":
                return " ".join(tokens[: i + 1] + tokens[i + 2 :])
            return " ".join(tokens[: i + 1] + ["not"] + tokens[i + 1 :])
    return "It is not the case that " + text


def normalize(text: str) -> str:
    """Lowercase, drop Unicode punctuation, collapse whitespace."""
    kept = "".join(ch for ch in text if not unicodedata.category(ch).startswith("P"))
    return " ".join(kept.lower().split())


def corpus_sentences(corpus: list[dict]) -> list[str]:
    # Generated bodies are '. '-joined sentences that each end in '.'.
    return [s if s.endswith(".") else s + "." for doc in corpus for s in doc["body"].split(". ")]


def sample_claims(rng: Rng, corpora: list[list[dict]], prefix: str) -> list[dict]:
    """Every distinct corpus sentence once, in seeded order, with a random gold label."""
    seen: set[str] = set()
    claims = []
    for corpus in corpora:
        for sentence in corpus_sentences(corpus):
            key = normalize(sentence)
            if key not in seen:
                seen.add(key)
                claims.append(sentence)
    rng.shuffle(claims)
    return [
        {"id": f"{prefix}-{i:05d}", "claim": text, "label": LABELS[rng.below(len(LABELS))]}
        for i, text in enumerate(claims)
    ]


def verdict_rules(rng: Rng, zipf: Zipf) -> list[list[str]]:
    """RuleVerdictProvider rules keyed on mid-frequency words, so labels vary."""
    rules = []
    for rank in (3, 5, 8, 13, 21, 34):
        rules.append(["", f" {zipf.words[rank]} ", "AB"[rng.below(2)]])
    return rules


def embed_vector(text: str) -> list[float]:
    """Hashed bag-of-words vector the fake embedding endpoint answers with."""
    vector = [0.0] * EMBED_DIM
    for token in normalize(text).split():
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=4).digest()
        vector[int.from_bytes(digest, "big") % EMBED_DIM] += 1.0
    return vector


def search_results(query: str, corpus: list[dict], doc_terms: list[set], k: int = 10) -> list[str]:
    """doc_ids of the top-k web docs by content-word overlap with the query, ties by doc_id."""
    query_terms = {t for t in normalize(query).split() if t not in FUNCTION_WORDS}
    scored = []
    for doc, terms in zip(corpus, doc_terms):
        overlap = len(query_terms & terms)
        if overlap:
            scored.append((-overlap, doc["doc_id"]))
    scored.sort()
    return [doc_id for _, doc_id in scored[:k]]


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")


def write_claim_batches(out: Path, claims: list[dict], batch: int) -> dict:
    """Reference batch, then verify and evaluate claims interleaved.

    The reference batch is the first ``batch`` claims; after it, even
    positions feed the closed-loop verify phase and odd positions are cut
    into evaluate batches, one claims file each.  No claim appears twice.
    """
    reference, rest = claims[:batch], claims[batch:]
    verify, evaluate = rest[0::2], rest[1::2]
    (out / "batches").mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "batches" / "reference.jsonl", reference)
    batch_files = []
    for start in range(0, len(evaluate) - batch + 1, batch):
        name = f"batches/evaluate-{start // batch:05d}.jsonl"
        _write_jsonl(out / name, evaluate[start : start + batch])
        batch_files.append(name)
    _write_jsonl(out / "verify.jsonl", verify)
    return {"reference": "batches/reference.jsonl", "evaluate": batch_files, "verify": "verify.jsonl"}


def corpus_stats(corpus: list[dict]) -> dict:
    return {
        "docs": len(corpus),
        "vocabulary": len({t for doc in corpus for t in normalize(doc["body"]).split()}),
        "sentences_per_doc": round(len(corpus_sentences(corpus)) / len(corpus), 3),
    }


def _zipf_corpora(out: Path, rng: Rng, zipf: Zipf, docs: dict[str, int],
                  sentences: tuple[int, int]) -> tuple[dict, dict]:
    corpora = {}
    for source, count in docs.items():
        corpora[source] = make_corpus(rng, zipf, source[:2], count, sentences)
        _write_jsonl(out / f"corpus_{source}.jsonl", corpora[source])
    return corpora, {source: corpus_stats(corpus) for source, corpus in corpora.items()}


def generate_fixtures_mock(out: Path, variant: int, claims: int, verify_len: int) -> dict:
    """The bundled claims are the inputs; only the verify-loop order is seeded."""
    rng = Rng("fixtures-mock", variant)
    order = []
    while len(order) < verify_len:
        cycle = list(range(claims))
        rng.shuffle(cycle)
        order += cycle
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify_order.json", order)
    return {}


def generate_zipf_corpus(out: Path, variant: int, docs: int, vocab: int, batch: int) -> dict:
    """Three Zipf corpora sharing one vocabulary, claims drawn from their sentences."""
    rng = Rng("zipf-corpus", variant)
    out.mkdir(parents=True, exist_ok=True)
    zipf = Zipf(make_vocabulary(Rng("vocab", variant), vocab))
    corpora, stats = _zipf_corpora(
        out, rng, zipf, {"wikipedia": docs, "pubmed": docs, "web": docs}, (3, 6)
    )
    claims = sample_claims(rng, list(corpora.values()), "z")
    layout = write_claim_batches(out, claims, batch)
    _write_json(out / "verdict_rules.json", verdict_rules(rng, zipf))
    return {"corpora": stats, "claim_pool": len(claims), "layout": layout}


def generate_live_fake(out: Path, variant: int, local_docs: int, web_docs: int, vocab: int,
                       batch: int) -> dict:
    """Small local corpora, a web corpus behind the fake search API, and the
    fake transport's answer tables: negations, search results, embeddings."""
    rng = Rng("live-fake", variant)
    out.mkdir(parents=True, exist_ok=True)
    zipf = Zipf(make_vocabulary(Rng("vocab", variant), vocab))
    corpora, stats = _zipf_corpora(
        out, rng, zipf, {"wikipedia": local_docs, "pubmed": local_docs}, (3, 6)
    )
    web = make_corpus(rng, zipf, "wb", web_docs, (2, 4))
    stats["web"] = corpus_stats(web)
    claims = sample_claims(rng, [corpora["wikipedia"], corpora["pubmed"], web], "l")
    layout = write_claim_batches(out, claims, batch)

    negations = {c["claim"]: negate(c["claim"]) for c in claims}
    queries = list(negations) + list(negations.values())
    web_terms = [set(normalize(doc["body"]).split()) for doc in web]
    search = {q: search_results(q, web, web_terms) for q in queries}
    texts = set(queries)
    for corpus in (corpora["wikipedia"], corpora["pubmed"], web):
        texts.update(corpus_sentences(corpus))
    texts.update(doc["body"] for doc in corpora["pubmed"])
    texts.update(doc["title"] + "." for doc in web)
    fake = out / "fake"
    fake.mkdir(exist_ok=True)
    _write_json(fake / "negations.json", negations)
    _write_json(fake / "search.json", search)
    _write_json(fake / "web_items.json", {
        doc["doc_id"]: {
            "title": doc["title"], "snippet": doc["body"], "link": f"https://web.example/{doc['doc_id']}"
        }
        for doc in web
    })
    _write_json(fake / "embeddings.json", {text: embed_vector(text) for text in sorted(texts)})
    return {"corpora": stats, "claim_pool": len(claims), "layout": layout}
