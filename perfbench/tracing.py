"""Span tracing around the program's layers, from outside the program.

``Tracer.install()`` replaces names the pipeline calls through --
functions looked up in ``veriscope.pipeline`` / ``veriscope.experiment``
and methods on the provider classes -- with wrappers that record a span
per call; ``uninstall()`` puts the originals back.  Classes are patched,
not instances, so ``ProviderSet.describe()`` and every artifact stay
byte-identical.  A name that no longer exists is recorded in ``absent``
and its layer reads 0, instead of failing the run.

A span holds its name, parent, claim id, thread and start/end times.  The
claim id is set by the ``verify_claim`` span and inherited by every span
below it, across the thread pools of the pipeline and of run_experiment
(their ``ThreadPoolExecutor`` name is replaced by one that carries the
context into the worker).  Self time is a span's duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)

#: Slack for comparing interval ends recorded by perf_counter.
_EPS = 1e-6


class Span:
    __slots__ = ("id", "parent", "claim", "thread", "name", "t0", "t1", "attrs")

    def __init__(self, span_id, parent, claim, name):
        self.id = span_id
        self.parent = parent
        self.claim = claim
        self.thread = threading.get_ident()
        self.name = name
        self.t0 = self.t1 = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class _ContextThreadPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _claim_id(args, kwargs):
    return _arg(args, kwargs, 0, "claim").id


def _kind(span, args, kwargs):
    span.attrs["kind"] = args[0].kind.name
    span.attrs["cls"] = type(args[0]).__name__


def _texts(span, args, kwargs):
    span.attrs["texts"] = _arg(args, kwargs, 1, "texts")


def _prompt(span, args, kwargs):
    span.attrs["prompt_chars"] = len(_arg(args, kwargs, 1, "prompt"))


def _rank_input(span, args, kwargs):
    span.attrs["candidates"] = len(_arg(args, kwargs, 0, "candidates"))


def _result_len(span, args, kwargs, result):
    span.attrs["n"] = len(result)


def _union_size(span, args, kwargs, result):
    span.attrs["n"] = len(result.sentences)


def _contested(span, args, kwargs, result):
    positive = [s.normalized for s in _arg(args, kwargs, 0, "positive")]
    negative = [s.normalized for s in _arg(args, kwargs, 1, "negative")]
    contested = set(positive) & set(negative)
    span.attrs["n"] = sum(1 for key in positive + negative if key in contested)


#: (module, attribute, span name, before(span, args, kwargs), after(span, args, kwargs, result))
FUNCTION_TARGETS = (
    ("veriscope.pipeline", "negate_claim", "negation.negate_claim", None, None),
    ("veriscope.pipeline", "select_evidence", "selection.select_evidence", None, _result_len),
    ("veriscope.pipeline", "symmetric_difference_dedup", "aggregation.dedup", None, _contested),
    ("veriscope.pipeline", "merge_segments", "aggregation.merge", None, None),
    ("veriscope.pipeline", "dedup_by_normalized", "aggregation.merge", None, None),
    ("veriscope.pipeline", "rank_and_truncate", "aggregation.rank", _rank_input, None),
    ("veriscope.pipeline", "aggregate_sources", "aggregation.union", None, _union_size),
    ("veriscope.pipeline", "predict_verdict", "verdict.predict", None, None),
    ("veriscope.pipeline", "build_profile", "analysis.build_profile", None, None),
    ("veriscope.experiment", "compute_metrics", "analysis.compute_metrics", None, None),
)

#: (module, class, method, span name, before, after)
METHOD_TARGETS = (
    ("veriscope.index", "LocalIndex", "ranked", "index.ranked", None, _result_len),
    ("veriscope.sources", "LocalCorpusSource", "retrieve", "sources.retrieve", _kind, None),
    ("veriscope.sources", "BiomedicalSource", "retrieve", "sources.retrieve", _kind, None),
    ("veriscope.sources", "WebSearchSource", "retrieve", "sources.retrieve", _kind, None),
    ("veriscope.selection", "HashedBowEmbedder", "embed", "selection.embed", _texts, None),
    ("veriscope.selection", "RemoteEmbedder", "embed", "selection.embed", _texts, None),
    ("veriscope.verdict", "RuleVerdictProvider", "choose", "verdict.choose", _prompt, None),
    ("veriscope.verdict", "RemoteVerdictProvider", "choose", "verdict.choose", _prompt, None),
    ("veriscope.negation", "RuleBasedNegator", "negate", "negation.negate", None, None),
    ("veriscope.negation", "FixtureNegationProvider", "negate", "negation.negate", None, None),
    ("veriscope.negation", "RemoteNegationProvider", "negate", "negation.negate", None, None),
    ("veriscope._http", "JsonHttpClient", "post", "_http.post", None, None),
    ("fake_transport", "FakeSession", "post", "transport", None, None),
    ("fake_transport", "FakeSession", "get", "transport", None, None),
)

POOL_MODULES = ("veriscope.pipeline", "veriscope.experiment")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _new_span(self, name: str, claim_id=None) -> Span:
        """A child of the current span; ``claim_id`` makes it a claim's root.

        ``Span.claim`` is the id of the claim's root span, so repeated
        claims (same claim id) stay apart.
        """
        parent = _CURRENT.get()
        with self._id_lock:
            span_id = next(self._ids)
        claim = span_id if claim_id is not None else (parent.claim if parent else None)
        span = Span(span_id, parent.id if parent else None, claim, name)
        if claim_id is not None:
            span.attrs["claim_id"] = claim_id
        return span

    @contextlib.contextmanager
    def span(self, name: str, claim_id=None):
        """A span around a block of the benchmark's own code."""
        span = self._new_span(name, claim_id)
        token = _CURRENT.set(span)
        span.t0 = time.perf_counter()
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(span)

    def _wrapper(self, original, name, before=None, after=None, claim_of=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._new_span(name, claim_of(args, kwargs) if claim_of else None)
            if before is not None:
                before(span, args, kwargs)
            token = _CURRENT.set(span)
            span.t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                raise
            finally:
                span.t1 = time.perf_counter()
                _CURRENT.reset(token)
                tracer.spans.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        experiment = importlib.import_module("veriscope.experiment")
        if "verify_claim" in experiment.__dict__:
            self._patch(experiment, "verify_claim", self._wrapper(
                experiment.verify_claim, "pipeline.verify_claim", claim_of=_claim_id))
        else:
            self.absent.append("veriscope.experiment.verify_claim")
        for module_name in POOL_MODULES:
            module = importlib.import_module(module_name)
            if "ThreadPoolExecutor" in module.__dict__:
                self._patch(module, "ThreadPoolExecutor", _ContextThreadPool)
            else:
                self.absent.append(f"{module_name}.ThreadPoolExecutor")
        for module_name, attr, name, before, after in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            if attr not in module.__dict__:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patch(module, attr, self._wrapper(module.__dict__[attr], name, before, after))
        for module_name, cls_name, attr, name, before, after in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is None or attr not in cls.__dict__:
                self.absent.append(f"{module_name}.{cls_name}.{attr}")
                continue
            self._patch(cls, attr, self._wrapper(cls.__dict__[attr], name, before, after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# Turning spans into per-layer numbers
# ---------------------------------------------------------------------------


def _covered(intervals) -> float:
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


class SpanIndex:
    def __init__(self, spans: list[Span]):
        self.by_id = {s.id: s for s in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)
            self.by_name[s.name].append(s)
        self.self_time = {}
        self.misnested = 0
        for s in spans:
            kids = self.children[s.id]
            for c in kids:
                if c.t0 < s.t0 - _EPS or c.t1 > s.t1 + _EPS:
                    self.misnested += 1
            clipped = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in kids if c.t1 > s.t0 and c.t0 < s.t1]
            self.self_time[s.id] = s.duration - _covered(clipped)

    def parent_of(self, span: Span):
        return self.by_id.get(span.parent)

    def named(self, *names):
        return [s for name in names for s in self.by_name[name]]


def layer_metrics(spans: list[Span], planned_claims: int) -> tuple[dict, list[str]]:
    """Per-claim layer metrics and the list of failed consistency checks."""
    ix = SpanIndex(spans)
    roots = ix.named("pipeline.verify_claim")
    claims = len(roots)
    problems = []
    if claims < planned_claims:
        problems.append(f"per-claim timer saw {claims} claims, {planned_claims} planned")
    if ix.misnested:
        problems.append(f"{ix.misnested} spans extend outside their parent")
    per = max(claims, 1)

    def ms(*names, where=lambda s: True):
        return 1000.0 * sum(ix.self_time[s.id] for s in ix.named(*names) if where(s)) / per

    def count(*names, where=lambda s: True):
        return sum(1 for s in ix.named(*names) if where(s)) / per

    def total(attr, *names, where=lambda s: True):
        return sum(s.attrs.get(attr, 0) for s in ix.named(*names) if where(s)) / per

    def parent_named(*names):
        return lambda s: (ix.parent_of(s) is not None and ix.parent_of(s).name in names)

    def of_kind(kind):
        return lambda s: s.attrs.get("kind") == kind

    def texts_under(predicate):
        """Texts embedded per claim, queries excluded, by embed calls whose parent matches."""
        return sum(len(s.attrs["texts"]) - 1 for s in embeds if predicate(ix.parent_of(s))) / per

    embeds = ix.named("selection.embed")
    sent = sum(len(s.attrs["texts"]) for s in embeds)
    unique_by_claim = defaultdict(set)
    for s in embeds:
        unique_by_claim[s.claim].update(s.attrs["texts"])
    unique = sum(len(texts) for texts in unique_by_claim.values())

    ranked = ix.named("index.ranked")
    posts = ix.named("_http.post")
    requests = [s for s in ix.named("transport") if parent_named("_http.post")(s)]
    orphans = [s for s in spans if s.claim is None
               and s.name not in ("experiment.run_experiment", "analysis.compute_metrics")]
    if orphans:
        problems.append(f"{len(orphans)} spans outside any claim, e.g. {orphans[0].name}")

    span_total = sum(r.duration for r in roots)
    subtree_self = 0.0
    for root in roots:
        stack = [root]
        claim_self = 0.0
        while stack:
            s = stack.pop()
            claim_self += ix.self_time[s.id]
            stack.extend(ix.children[s.id])
        if claim_self < root.duration - _EPS:
            problems.append(f"claim {root.attrs['claim_id']}: layers account for "
                            f"{claim_self:.6f}s of {root.duration:.6f}s")
        subtree_self += claim_self

    metrics = {
        "pipeline.self_ms": ms("pipeline.verify_claim"),
        "negation.calls": count("negation.negate",
                                where=lambda s: not parent_named("negation.negate")(s)),
        "negation.ms": ms("negation.negate_claim", "negation.negate"),
        "index.ranked_ms": ms("index.ranked"),
        "index.candidates_per_query": sum(s.attrs["n"] for s in ranked) / max(len(ranked), 1),
        "sources.wikipedia.retrieve_ms": ms("sources.retrieve", where=of_kind("wikipedia")),
        "sources.pubmed.retrieve_ms": ms("sources.retrieve", where=of_kind("pubmed")),
        "sources.web.retrieve_ms": ms("sources.retrieve", where=of_kind("web")),
        "sources.pubmed.fused_docs": texts_under(
            lambda p: p is not None and p.name == "sources.retrieve" and of_kind("pubmed")(p)),
        "selection.ms": ms("selection.select_evidence"),
        "selection.sentences_scored": texts_under(
            lambda p: p is not None and p.name == "selection.select_evidence"),
        "selection.sentences_kept": total("n", "selection.select_evidence"),
        "selection.embed.calls": count("selection.embed"),
        "selection.embed.texts": sent / per,
        "selection.embed.unique_ratio": unique / sent if sent else 0.0,
        "selection.embed.ms": ms("selection.embed"),
        "aggregation.dedup_ms": ms("aggregation.dedup"),
        "aggregation.contested": total("n", "aggregation.dedup"),
        "aggregation.merge_ms": ms("aggregation.merge"),
        "aggregation.rank_ms": ms("aggregation.rank"),
        "aggregation.rank_candidates": total("candidates", "aggregation.rank"),
        "aggregation.union_ms": ms("aggregation.union"),
        "aggregation.union_size": total("n", "aggregation.union"),
        "verdict.calls": count("verdict.choose"),
        "verdict.ms": ms("verdict.predict", "verdict.choose"),
        "verdict.prompt_chars": total("prompt_chars", "verdict.choose"),
        "analysis.profile_ms": ms("analysis.build_profile"),
        "analysis.metrics_ms": ms("analysis.compute_metrics"),
        "experiment.artifacts_ms": ms("experiment.run_experiment"),
        "http.requests": len(requests) / per,
        "http.retries": max(0, len(requests) - len(posts)) / per,
        "http.failures": sum(1 for s in posts if s.attrs.get("error")) / per,
        "http.wait_ms": ms("_http.post"),
        "transport.ms": ms("transport"),
        "trace.claims": float(claims),
        "trace.accounted_ratio": subtree_self / span_total if span_total else 0.0,
    }
    return metrics, problems


def provider_calls(spans: list[Span]) -> int:
    """Embed, verdict, negation and web-search calls, outermost calls only."""
    ix = SpanIndex(spans)
    calls = 0
    for s in spans:
        parent = ix.parent_of(s)
        if s.name in ("selection.embed", "verdict.choose"):
            calls += 1
        elif s.name == "negation.negate" and not (parent and parent.name == "negation.negate"):
            calls += 1
        elif s.name == "sources.retrieve" and s.attrs.get("cls") == "WebSearchSource":
            calls += 1
    return calls
