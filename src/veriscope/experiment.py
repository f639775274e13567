"""Experiment orchestration: datasets x sources x claim conditions.

A run writes one trace file per claim plus the claim-level evidence
union, the per-(claim, source) confidence table, and a metrics report
per source and for the merged condition.  Runs are resumable: claims
whose trace file already exists are loaded instead of recomputed, and
all derived artifacts are rebuilt from the complete trace set, so an
interrupted-and-resumed run is byte-identical to an uninterrupted one.
Run-level facts live only in the run manifest, which a resume must
match.  Nothing in the artifacts depends on wall-clock time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .aggregation import write_aggregated_jsonl
from .analysis import ConfidenceRow, compute_metrics, write_confidences_csv
from .assets import load_prompt
from .datasets import DatasetDescriptor, load_dataset
from .errors import ConfigurationError
from .pipeline import ClaimCondition, ClaimVerification, ProviderSet, _in_process, verify_claim
from .types import MERGED, ClaimPair, PipelineConfig, source_order_key

TRACES_DIR = "traces"
MANIFEST_FILE = "run-manifest.json"
CONFIDENCES_FILE = "confidences.csv"
METRICS_FILE = "metrics.json"
EVIDENCE_FILE = "evidence.jsonl"


@dataclass(frozen=True)
class ExperimentPlan:
    """One cell row of the experiment grid, at a chosen subset size."""

    dataset: DatasetDescriptor
    sources: tuple
    condition: ClaimCondition
    cfg: PipelineConfig
    limit: int | None = None


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


def _atomic_write_text(path: Path, content: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(content, encoding="utf-8")
    os.replace(tmp, path)


def _json_dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


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
    order is raised, no derived artifact is written, and a re-run
    resumes.  Before any claim runs, an existing manifest must equal this
    run's except for limit and claims, and traces without a manifest are
    refused (ConfigurationError), as is a trace of another claim text or label.

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
    _atomic_write_text(out_dir / MANIFEST_FILE, _json_dumps(manifest))

    def process(claim: ClaimPair) -> ClaimVerification:
        trace_path = traces_dir / _trace_filename(claim.id)
        if trace_path.exists():
            held = ClaimVerification.from_dict(json.loads(trace_path.read_text(encoding="utf-8")))
            if (held.claim.text, held.claim.gold_label) != (claim.text, claim.gold_label):
                raise ConfigurationError(
                    f"{trace_path} holds another claim; use a fresh output directory"
                )
            return held
        result = verify_claim(
            claim, run_providers, scheme, template, cfg=plan.cfg, condition=plan.condition
        )
        _atomic_write_text(trace_path, json.dumps(result.to_dict(), sort_keys=True) + "\n")
        return result

    if _in_process(run_providers):
        # nothing to overlap: the interpreter lock would run them one at a time
        results = [process(claim) for claim in claims]
    else:
        results = _overlapped(process, claims, max_workers)
    _write_artifacts(out_dir, plan, results)
    return out_dir


def _overlapped(process, claims: list[ClaimPair], max_workers: int) -> list[ClaimVerification]:
    """Run process over the claims, up to max_workers at once; results in claim order.

    Once a claim fails, no claim after it in claim order starts: with a
    provider down, each would spend its retries on the outage.  Claims
    before it still run, and every claim that started finishes and keeps
    its trace.  The first failure in claim order is raised.
    """
    first_failure = len(claims)
    failure_lock = threading.Lock()

    def process_in_order(index: int, claim: ClaimPair) -> ClaimVerification | None:
        nonlocal first_failure
        if index > first_failure:
            return None
        try:
            return process(claim)
        except Exception:
            with failure_lock:
                first_failure = min(first_failure, index)
            raise

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(process_in_order, i, claim) for i, claim in enumerate(claims)]
    return [future.result() for future in futures]


def _check_resumable(out_dir: Path, manifest: dict) -> None:
    """Refuse a directory holding another run's manifest, or traces but no manifest."""
    held = ""
    if (out_dir / MANIFEST_FILE).exists():
        previous = json.loads((out_dir / MANIFEST_FILE).read_text(encoding="utf-8"))
        keys = sorted((previous.keys() | manifest.keys()) - {"limit", "claims"})
        differing = [key for key in keys if previous.get(key) != manifest.get(key)]
        if differing:
            held = f"a run with different {', '.join(differing)}"
    elif any((out_dir / TRACES_DIR).glob("*.json")):
        held = f"traces but no {MANIFEST_FILE}"
    if held:
        raise ConfigurationError(f"{out_dir} holds {held}; use a fresh output directory")


def _write_artifacts(out_dir: Path, plan: ExperimentPlan, results: list[ClaimVerification]) -> None:
    write_aggregated_jsonl(results, out_dir / EVIDENCE_FILE)

    rows = [
        ConfidenceRow(
            claim_id=result.claim.id,
            source=kind.name,
            label=verdict.label,
            confidence=verdict.confidence,
            regime=result.profile.regime.value if result.profile.regime else "",
            dispersion=result.profile.dispersion,
        )
        for result in results
        for kind, verdict in sorted(result.verdicts.items(), key=lambda kv: source_order_key(kv[0]))
    ]
    write_confidences_csv(rows, out_dir / CONFIDENCES_FILE)

    per_source_metrics, abstentions = {}, {}
    for kind in sorted(plan.sources, key=source_order_key) + [MERGED]:
        verdicts = [(r.claim.gold_label, r.verdicts[kind]) for r in results if kind in r.verdicts]
        pairs = [(gold, verdict.label) for gold, verdict in verdicts]
        per_source_metrics[kind.name] = compute_metrics(pairs, plan.dataset.scheme).to_dict()
        abstentions[kind.name] = sum(verdict.abstained for _, verdict in verdicts)
    metrics = {
        "dataset": plan.dataset.name,
        "condition": plan.condition.value,
        "claims": len(results),
        "per_source": per_source_metrics,
        "abstentions": abstentions,
    }
    _atomic_write_text(out_dir / METRICS_FILE, _json_dumps(metrics))
