"""Experiment orchestration: datasets x sources x claim conditions.

A run writes one trace file per claim plus the claim-level evidence
union, the per-(claim, source) confidence table, and a metrics report
per source and for the merged condition.  Runs are resumable: claims
whose trace file already exists are loaded instead of recomputed.  The
derived artifacts are written in claim order as each claim's trace is
written or loaded, under temporary names that are renamed once every
claim is in, so an interrupted-and-resumed run is byte-identical to an
uninterrupted one, and a finished claim is dropped once its rows are
written.  Each format has one writer: a claim's trace text and its
evidence.jsonl line come from one encoding pass (ClaimVerification.encoded),
fresh or resumed alike, and confidences.csv and metrics.json are written
only by _derived_files.  Run-level facts live only in the run manifest,
which a resume must be able to read and must match.  Nothing in the
artifacts depends on wall-clock time.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import hashlib
import os
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .analysis import CONFIDENCES_FIELDS, ConfidenceRow, compute_metrics
from .assets import load_prompt
from .datasets import DatasetDescriptor, load_dataset
from .errors import ConfigurationError
from .pipeline import ClaimCondition, ClaimVerification, ProviderSet, verify_claim
from .types import MERGED, ClaimPair, PipelineConfig, SourceKind, indented_json, parse_json, source_order_key

TRACES_DIR = "traces"
MANIFEST_FILE = "run-manifest.json"
CONFIDENCES_FILE = "confidences.csv"
METRICS_FILE = "metrics.json"
EVIDENCE_FILE = "evidence.jsonl"
#: With max_workers claims in flight, up to this many times as many are
#: submitted, so finished claims' rows wait behind a slow one in a bounded buffer.
WINDOW_PER_WORKER = 4


@dataclass(frozen=True)
class ExperimentPlan:
    """One cell row of the experiment grid, at a chosen subset size.

    sources must be one or more SourceKinds, none twice, and limit None
    (every claim) or an int >= 1, not a bool; anything else raises ValueError.
    """

    dataset: DatasetDescriptor
    sources: tuple
    condition: ClaimCondition
    cfg: PipelineConfig
    limit: int | None = None

    def __post_init__(self):
        if not self.sources or not all(isinstance(kind, SourceKind) for kind in self.sources):
            raise ValueError(f"sources must be one or more SourceKinds, got {self.sources!r}")
        if len(set(self.sources)) != len(self.sources):
            raise ValueError(f"sources must name no source twice, got {self.sources!r}")
        limit = self.limit
        if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int) or limit < 1):
            raise ValueError(f"limit must be None or an integer >= 1, got {limit!r}")


def plan_claims(plan: ExperimentPlan) -> list[ClaimPair]:
    """Dataset order, seeded shuffle, then the first `limit` claims."""
    claims = load_dataset(plan.dataset)
    shuffled = list(claims)
    random.Random(plan.cfg.seed).shuffle(shuffled)
    if plan.limit is not None:
        shuffled = shuffled[: plan.limit]
    return shuffled


def _trace_filename(claim_id: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", claim_id)
    if safe != claim_id:
        digest = hashlib.blake2b(claim_id.encode("utf-8"), digest_size=4).hexdigest()
        safe = f"{safe}-{digest}"
    return f"{safe}.json"


def _temporary(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


def _atomic_write_text(path: Path, content: str) -> None:
    tmp = _temporary(path)
    tmp.write_text(content, encoding="utf-8")
    os.replace(tmp, path)


def run_experiment(
    plan: ExperimentPlan,
    providers: ProviderSet,
    out_dir: Path,
    max_workers: int = 4,
) -> Path:
    """Execute the plan and write the artifact directory; returns out_dir.
    Verdicts use the bundled "verdict" prompt; the manifest records its sha256.

    Source and verdict failures become abstentions inside the traces.
    Configuration errors, failed negations (ProviderUnavailable,
    DegenerateNegation) and embedding calls that still fail after
    selection's per-document retry (ProviderUnavailable) abort the run:
    no claim after the failing one in claim order starts, every claim
    that started finishes and keeps its trace, the first failure in claim
    order is raised, no derived artifact is left, and a re-run
    resumes.  Before any claim runs, an existing manifest must be a JSON
    object equal to this run's except for limit and claims, and traces
    without a manifest are refused (ConfigurationError), as is a trace
    of another claim, condition or source set, or that does not decode.

    Each claim's trace is written, or decoded on a resume, and its rows of
    evidence.jsonl and confidences.csv are written in claim order under
    temporary names; of its verdicts only (gold, predicted, abstained)
    is kept for metrics.json.  The claim is then dropped, so memory does
    not grow with the claims.  Once every claim is in, the files are
    renamed to their names; an abort deletes them.

    When every provider runs in-process, the claims run one at a time on
    the caller's thread, in claim order.  Otherwise up to max_workers
    claims are in flight at once, and their network calls share the
    pipeline's kept network threads.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    template = load_prompt("verdict")
    missing = [kind.name for kind in plan.sources if kind not in providers.sources]
    if missing:
        raise ConfigurationError(f"no knowledge source configured for: {', '.join(missing)}")
    run_providers = dataclasses.replace(
        providers, sources={kind: providers.sources[kind] for kind in plan.sources}
    )

    out_dir = Path(out_dir)
    traces_dir = out_dir / TRACES_DIR
    claims = plan_claims(plan)
    scheme = plan.dataset.scheme
    manifest = {
        "dataset": plan.dataset.name,
        "scheme": scheme.to_dict(),
        "condition": plan.condition.value,
        "sources": [kind.name for kind in sorted(plan.sources, key=source_order_key)],
        "config": plan.cfg.to_dict(),
        "limit": plan.limit,
        "claims": len(claims),
        "providers": run_providers.describe(),
        "trace_format": 3,
        "template_sha256": hashlib.sha256(template.encode("utf-8")).hexdigest(),
    }
    _check_resumable(out_dir, manifest)
    traces_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out_dir / MANIFEST_FILE, indented_json(manifest))

    def process(claim: ClaimPair) -> tuple:
        trace_path = traces_dir / _trace_filename(claim.id)
        if trace_path.exists():
            result, line = _resumed(trace_path, claim, plan)
        else:
            result = verify_claim(
                claim, run_providers, scheme, template, cfg=plan.cfg, condition=plan.condition
            )
            trace, line = result.encoded()
            _atomic_write_text(trace_path, trace)
        return line, *_claim_rows(result)

    with _derived_files(out_dir, plan, len(claims)) as add:
        if run_providers.in_process():
            # nothing to overlap: the interpreter lock would run them one at a time
            for claim in claims:
                add(process(claim))
        else:
            _overlapped(process, claims, max_workers, add)
    return out_dir


def _resumed(trace_path: Path, claim: ClaimPair, plan: ExperimentPlan) -> tuple[ClaimVerification, str]:
    """The trace at trace_path, decoded and checked against claim and plan, and its evidence.jsonl line.

    A trace that does not decode (invalid JSON, not an object, a missing
    key without a default, a value its constructor refuses) or does not
    encode again is refused, as is a trace of another claim text or label,
    condition or source set (ConfigurationError naming the file); the file
    is left as it is.
    """
    try:
        data = parse_json(trace_path.read_text(encoding="utf-8"), dict, trace_path.name)
        result = ClaimVerification.from_dict(data)
        line = result.encoded()[1]
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigurationError(
            f"{trace_path} is not a readable trace ({exc}); delete it or use a fresh output directory"
        ) from exc
    if (result.claim.text, result.claim.gold_label) != (claim.text, claim.gold_label):
        raise ConfigurationError(f"{trace_path} holds another claim; use a fresh output directory")
    sources = set(plan.sources)
    if (result.condition, set(result.bundles), set(result.verdicts)) != (plan.condition, sources, sources | {MERGED}):
        raise ConfigurationError(f"{trace_path} is of another condition or source set; use a fresh output directory")
    return result, line


def _claim_rows(result: ClaimVerification) -> tuple[list, list]:
    """One claim's confidences.csv rows, and (source, (gold, predicted, abstained)) per verdict."""
    claim, profile = result.claim, result.profile
    regime = profile.regime.value if profile.regime else ""
    verdicts = sorted(result.verdicts.items(), key=lambda kv: source_order_key(kv[0]))
    rows = [
        ConfidenceRow(claim.id, kind.name, verdict.label, verdict.confidence, regime,
                      profile.dispersion).csv_fields()
        for kind, verdict in verdicts
    ]
    outcomes = [(kind, (claim.gold_label, verdict.label, verdict.abstained)) for kind, verdict in verdicts]
    return rows, outcomes


@contextmanager
def _derived_files(out_dir: Path, plan: ExperimentPlan, claims: int):
    """Yield add, which writes one claim's (evidence.jsonl line, *_claim_rows); call it in claim order.

    evidence.jsonl and confidences.csv grow under temporary names.  When
    the block ends normally, metrics.json is written from the kept
    outcomes and all three take their names; when it raises, the
    temporaries are deleted, so no derived file is left.
    """
    paths = [out_dir / name for name in (EVIDENCE_FILE, CONFIDENCES_FILE, METRICS_FILE)]
    temporaries = [_temporary(path) for path in paths]
    kinds = sorted(plan.sources, key=source_order_key) + [MERGED]
    outcomes = {kind: [] for kind in kinds}
    try:
        with temporaries[0].open("w", encoding="utf-8") as evidence, \
                temporaries[1].open("w", encoding="utf-8", newline="") as confidences:
            table = csv.writer(confidences)
            table.writerow(CONFIDENCES_FIELDS)

            def add(claim_rows: tuple) -> None:
                line, rows, verdicts = claim_rows
                evidence.write(line)
                table.writerows(rows)
                for kind, outcome in verdicts:
                    outcomes[kind].append(outcome)

            yield add
        per_source_metrics, abstentions = {}, {}
        for kind in kinds:
            pairs = [(gold, predicted) for gold, predicted, _ in outcomes[kind]]
            per_source_metrics[kind.name] = compute_metrics(pairs, plan.dataset.scheme).to_dict()
            abstentions[kind.name] = sum(abstained for _, _, abstained in outcomes[kind])
        metrics = {
            "dataset": plan.dataset.name,
            "condition": plan.condition.value,
            "claims": claims,
            "per_source": per_source_metrics,
            "abstentions": abstentions,
        }
        temporaries[2].write_text(indented_json(metrics), encoding="utf-8")
        for temporary, path in zip(temporaries, paths):
            os.replace(temporary, path)
    finally:  # renamed on success, so this deletes only an aborted run's temporaries
        for temporary in temporaries:
            temporary.unlink(missing_ok=True)


def _overlapped(process, claims: list[ClaimPair], max_workers: int, emit) -> None:
    """Run process over the claims, up to max_workers at once; emit each result in claim order.

    Claims are submitted WINDOW_PER_WORKER * max_workers ahead of the
    oldest unemitted one, so at most that many results wait behind a slow
    claim.  Once a claim fails, no claim after it in claim order starts:
    with a provider down, each would spend its retries on the outage.
    Claims before it still run, and every claim that started finishes and
    keeps its trace.  The first failure in claim order is raised.
    """
    first_failure = len(claims)
    failure_lock = threading.Lock()

    def process_in_order(index: int, claim: ClaimPair):
        nonlocal first_failure
        if index > first_failure:
            return None
        try:
            return process(claim)
        except Exception:
            with failure_lock:
                first_failure = min(first_failure, index)
            raise

    window = WINDOW_PER_WORKER * max_workers
    pending = collections.deque()
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        try:
            for index, claim in enumerate(claims):
                if len(pending) == window:
                    emit(pending.popleft().result())
                pending.append(pool.submit(process_in_order, index, claim))
            while pending:
                emit(pending.popleft().result())
        finally:
            for future in pending:  # whatever ended the run, a claim not yet started never starts
                future.cancel()


def _check_resumable(out_dir: Path, manifest: dict) -> None:
    """Refuse a directory holding another run's manifest, an unreadable one (invalid
    JSON or not an object), or traces but no manifest."""
    held, path = "", out_dir / MANIFEST_FILE
    if path.exists():
        try:
            previous = parse_json(path.read_text(encoding="utf-8"), dict, f"the run manifest {path}")
        except ValueError as exc:
            raise ConfigurationError(f"{exc}; use a fresh output directory") from exc
        keys = sorted((previous.keys() | manifest.keys()) - {"limit", "claims"})
        differing = [key for key in keys if previous.get(key) != manifest.get(key)]
        if differing:
            held = f"a run with different {', '.join(differing)}"
    elif any((out_dir / TRACES_DIR).glob("*.json")):
        held = f"traces but no {MANIFEST_FILE}"
    if held:
        raise ConfigurationError(f"{out_dir} holds {held}; use a fresh output directory")
