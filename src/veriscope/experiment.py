"""Experiment orchestration: datasets x sources x claim conditions.

A run writes one trace file per claim plus the claim-level evidence
union, the per-(claim, source) confidence table, and a metrics report
per source and for the merged condition.  Runs are resumable: claims
whose trace file already exists are loaded instead of recomputed, and
all derived artifacts are rebuilt from the complete trace set, so an
interrupted-and-resumed run is byte-identical to an uninterrupted one.
Nothing in the artifacts depends on wall-clock time.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .aggregation import write_aggregated_jsonl
from .analysis import ConfidenceRow, compute_metrics, write_confidences_csv
from .datasets import DatasetDescriptor, load_dataset
from .errors import ConfigurationError
from .pipeline import ClaimCondition, ClaimVerification, ProviderSet, verify_claim
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
    template: str | None = None,
    max_workers: int = 4,
) -> Path:
    """Execute the plan and write the artifact directory; returns out_dir.

    Per-claim provider failures are recorded as abstentions inside the
    traces; only configuration errors abort the run.
    """
    if template is None:
        from .assets import load_prompt

        template = load_prompt("verdict")
    missing = [kind.name for kind in plan.sources if kind not in providers.sources]
    if missing:
        raise ConfigurationError(f"no knowledge source configured for: {', '.join(missing)}")
    run_providers = ProviderSet(
        sources={kind: providers.sources[kind] for kind in plan.sources},
        embedder=providers.embedder,
        verdicts=providers.verdicts,
        negator=providers.negator,
    )

    out_dir = Path(out_dir)
    traces_dir = out_dir / TRACES_DIR
    traces_dir.mkdir(parents=True, exist_ok=True)

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
        "providers": providers.describe(),
    }
    _atomic_write_text(out_dir / MANIFEST_FILE, _json_dumps(manifest))

    def process(claim: ClaimPair) -> ClaimVerification:
        trace_path = traces_dir / _trace_filename(claim.id)
        if trace_path.exists():
            data = json.loads(trace_path.read_text(encoding="utf-8"))
            if data.get("condition") != plan.condition.value:
                raise ConfigurationError(
                    f"trace {trace_path.name} was produced under condition "
                    f"{data.get('condition')!r}, not {plan.condition.value!r}; "
                    "use a fresh output directory"
                )
            return ClaimVerification.from_dict(data)
        result = verify_claim(
            claim,
            run_providers,
            scheme,
            template,
            cfg=plan.cfg,
            condition=plan.condition,
        )
        _atomic_write_text(trace_path, _json_dumps(result.to_dict()))
        return result

    with ThreadPoolExecutor(max_workers=max(1, max_workers)) as pool:
        results = list(pool.map(process, claims))

    _write_artifacts(out_dir, plan, results)
    return out_dir


def _write_artifacts(out_dir: Path, plan: ExperimentPlan, results: list[ClaimVerification]) -> None:
    write_aggregated_jsonl((r.aggregated for r in results), out_dir / EVIDENCE_FILE)

    rows: list[ConfidenceRow] = []
    for result in results:
        regime = result.profile.regime.value if result.profile.regime else ""
        spread = result.profile.dispersion
        for kind in sorted(result.verdicts, key=source_order_key):
            verdict = result.verdicts[kind]
            rows.append(
                ConfidenceRow(
                    claim_id=result.claim.id,
                    source=kind.name,
                    label=verdict.label,
                    confidence=verdict.confidence,
                    regime=regime,
                    dispersion=spread,
                )
            )
    write_confidences_csv(rows, out_dir / CONFIDENCES_FILE)

    scheme = plan.dataset.scheme
    per_source_metrics = {}
    abstentions = {}
    grid_kinds = sorted(plan.sources, key=source_order_key) + [MERGED]
    for kind in grid_kinds:
        pairs = []
        abstained = 0
        for result in results:
            verdict = result.verdicts.get(kind)
            if verdict is None:
                continue
            pairs.append((result.claim.gold_label, verdict.label))
            abstained += int(verdict.abstained)
        per_source_metrics[kind.name] = compute_metrics(pairs, scheme).to_dict()
        abstentions[kind.name] = abstained
    metrics = {
        "dataset": plan.dataset.name,
        "condition": plan.condition.value,
        "claims": len(results),
        "per_source": per_source_metrics,
        "abstentions": abstentions,
    }
    _atomic_write_text(out_dir / METRICS_FILE, _json_dumps(metrics))
