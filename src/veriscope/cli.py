"""Command-line surface: index, negate, verify, evaluate, analyze.

Human-readable output goes to stdout, logs to stderr, machine artifacts
to files.  --mock switches every provider to the bundled offline
fixtures and is guaranteed not to open a network socket; option flags
take precedence over the config file, and provider credentials come
from the environment variables documented per provider.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .analysis import (
    kde_by_group,
    read_confidences_csv,
    regime_coverage,
    render_kde_svg,
    write_kde_csv,
)
from .assets import load_prompt, load_scheme
from .datasets import DatasetDescriptor
from .errors import ConfigurationError, DegenerateNegation, ProviderUnavailable, VeriscopeError
from .experiment import CONFIDENCES_FILE, METRICS_FILE, ExperimentPlan, run_experiment
from .index import LocalIndex, build_local_index
from .mock import MOCK_CONFIG, mock_claims_path, mock_negator, mock_provider_set
from .negation import RemoteNegationProvider, RuleBasedNegator, negate_claim
from .pipeline import ClaimCondition, ProviderSet, verify_claim
from .selection import HashedBowEmbedder, RemoteEmbedder
from .sources import BiomedicalSource, LocalCorpusSource, WebSearchSource
from .types import (
    CANONICAL_SOURCES,
    MERGED,
    PUBMED,
    WEB,
    ClaimPair,
    PipelineConfig,
    SourceKind,
    parse_json,
    source_order_key,
)
from .verdict import RemoteVerdictProvider

log = logging.getLogger("veriscope")

EXIT_CONFIG = 3

_SOURCE_BY_NAME = {kind.name: kind for kind in CANONICAL_SOURCES}

_mock_option = click.option("--mock", is_flag=True, help="Run fully offline on bundled fixtures.")


def _claim(ctx, param, text: str) -> ClaimPair:
    """CLAIM_TEXT as the command's one claim; a blank text is a usage error."""
    try:
        return ClaimPair(id="cli", text=text)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


_claim_argument = click.argument("claim", metavar="CLAIM_TEXT", callback=_claim)


@contextmanager
def _reported_errors():
    """The CLI's one error handler: a ConfigurationError, or an OSError naming
    the path the file system refused, exits with EXIT_CONFIG; any other
    VeriscopeError becomes a ClickException (exit code 1)."""
    try:
        yield
    except ConfigurationError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except OSError as exc:
        if exc.filename is None:
            raise
        click.echo(f"configuration error: {exc.filename}: {exc.strerror or exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except VeriscopeError as exc:
        raise click.ClickException(str(exc))


def _setup_logging(level: str) -> None:
    level = getattr(logging, level.upper(), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")
    # urllib3's debug lines quote each request URL, a key in its query string included
    logging.getLogger("urllib3").setLevel(max(level, logging.INFO))


#: Every config key the CLI reads, with its JSON type; PipelineConfig checks its own fields.
_CONFIG_TYPES = dict.fromkeys((field.name for field in dataclasses.fields(PipelineConfig)), object) | {
    "remote_embedder": bool, "pubmed_dense_fusion": bool, "wikipedia_index": str, "pubmed_index": str}


def _load_config_file(path: Path | None) -> dict:
    """The config file's object; a key the CLI does not read, or of another type, is a usage error."""
    if not path:
        return {}
    try:
        config = parse_json(path.read_text(encoding="utf-8"), dict, f"config file {path}")
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for key, value in config.items():
        if key not in _CONFIG_TYPES:
            raise click.UsageError(f"config file {path}: unknown key {key!r}; "
                                   f"the keys are {', '.join(_CONFIG_TYPES)}")
        if not isinstance(value, _CONFIG_TYPES[key]):
            kind = "boolean" if _CONFIG_TYPES[key] is bool else "string"
            raise click.UsageError(f"config file {path}: {key!r} must be a JSON {kind}, got {value!r}")
    return config


def _pipeline_config(config: dict, mock: bool) -> PipelineConfig:
    """The mode's defaults (MOCK_CONFIG or PipelineConfig()) with the config file's keys."""
    defaults = MOCK_CONFIG if mock else PipelineConfig()
    fields = {f.name: config[f.name] for f in dataclasses.fields(PipelineConfig) if f.name in config}
    depth = fields.get("retrieval_depth")
    if isinstance(depth, int) and "selection_docs" not in fields:
        fields["selection_docs"] = min(defaults.selection_docs, depth)
    try:
        return dataclasses.replace(defaults, **fields)
    except ValueError as exc:
        raise click.UsageError(f"invalid pipeline config: {exc}")


def _parse_sources(spec: str | None) -> list[SourceKind]:
    if not spec:
        return list(CANONICAL_SOURCES)
    kinds = []
    for name in spec.split(","):
        name = name.strip().lower()
        if name not in _SOURCE_BY_NAME:
            raise click.UsageError(
                f"unknown source {name!r}; choose from {', '.join(_SOURCE_BY_NAME)}"
            )
        if _SOURCE_BY_NAME[name] in kinds:
            raise click.UsageError(f"source {name!r} is given twice")
        kinds.append(_SOURCE_BY_NAME[name])
    return kinds


def _live_provider_set(config: dict, sources: list[SourceKind]) -> ProviderSet:
    # every provider that reads the environment is built before any index loads
    embedder = RemoteEmbedder() if config.get("remote_embedder") else HashedBowEmbedder()
    web = WebSearchSource() if WEB in sources else None
    verdicts, negator = RemoteVerdictProvider(), RemoteNegationProvider()
    source_map = {}
    for kind in sources:
        if kind == WEB:
            source_map[kind] = web
            continue
        index_key = f"{kind.name}_index"
        index_dir = config.get(index_key)
        if not index_dir:
            raise ConfigurationError(
                f"live mode needs config key {index_key!r} pointing at a built index "
                f"(run: veriscope index <corpus> --out <dir>)"
            )
        index = LocalIndex.load(Path(index_dir))
        if kind == PUBMED and config.get("pubmed_dense_fusion"):
            source_map[kind] = BiomedicalSource(kind, index, embedder=embedder)
        else:
            source_map[kind] = LocalCorpusSource(kind, index)
    return ProviderSet(sources=source_map, embedder=embedder, verdicts=verdicts, negator=negator)


def _provider_set(mock: bool, config: dict, sources: list[SourceKind]) -> ProviderSet:
    if mock:
        if config.get("remote_embedder"):
            raise ConfigurationError("mock mode forbids remote providers; drop remote_embedder "
                                     "from the config or run without --mock")
        full = mock_provider_set()
        return dataclasses.replace(full, sources={kind: full.sources[kind] for kind in sources})
    return _live_provider_set(config, sources)


@click.group()
@click.option("--log-level", default="warning", show_default=True,
              type=click.Choice(["debug", "info", "warning", "error"]))
def main(log_level: str) -> None:
    """Dual-perspective multi-source claim verification."""
    _setup_logging(log_level)


@main.command("index")
@click.argument("corpus", type=click.Path(exists=True, path_type=Path))
@click.option("--out", required=True, type=click.Path(path_type=Path), help="Index directory.")
def cmd_index(corpus: Path, out: Path) -> None:
    """Build the local BM25 index from a JSONL corpus."""
    with _reported_errors():
        index = build_local_index(corpus, out)
    suffix = f" ({index.skipped} lines skipped)" if index.skipped else ""
    click.echo(f"indexed {index.doc_count} documents, {index.term_count} terms{suffix}")


@main.command("negate")
@_claim_argument
@_mock_option
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object.")
def cmd_negate(claim: ClaimPair, mock: bool, as_json: bool) -> None:
    """Generate the negated counterpart of one claim (rule-based if the provider fails)."""
    with _reported_errors():
        provider = mock_negator() if mock else RemoteNegationProvider()
        try:
            claim = negate_claim(claim, provider)
        except (ProviderUnavailable, DegenerateNegation) as exc:
            log.warning("negation failed for %s, using fallback: %s", claim.id, exc)
            claim = negate_claim(claim, RuleBasedNegator())
    if as_json:
        click.echo(json.dumps({"claim": claim.text, "negation": claim.negated_text}))
    else:
        click.echo(claim.negated_text)


def _render_verification(result) -> str:
    lines = [f"Claim: {result.claim.text}"]
    if result.claim.negated_text:
        lines.append(f"Negation: {result.claim.negated_text}")
    lines.append("Evidence:")
    if result.aggregated.sentences:
        for i, sentence in enumerate(result.aggregated.sentences, start=1):
            lines.append(
                f"  {i}. [{sentence.source.name}/{sentence.doc_id}] "
                f"{sentence.text} (sim {sentence.similarity:.3f})"
            )
    else:
        lines.append("  (none)")
    lines.append("Per-source verdicts:")
    for kind in sorted(result.verdicts, key=source_order_key):
        if kind == MERGED:
            continue
        verdict = result.verdicts[kind]
        lines.append(f"  {kind.name:<12} {verdict.label:<24} conf {verdict.confidence:.4f}")
    profile = result.profile
    regime = profile.regime.value if profile.regime else "n/a"
    spread = f"{profile.dispersion:.4f}" if profile.dispersion is not None else "n/a"
    lines.append(f"Agreement: {regime}   dispersion: {spread}")
    merged = result.verdicts.get(MERGED)
    if merged is not None:
        lines.append(f"Merged verdict: {merged.label} (conf {merged.confidence:.4f})")
    for kind, message in sorted(result.source_errors.items(), key=lambda kv: source_order_key(kv[0])):
        lines.append(f"warning: {kind.name}: {message}")
    return "\n".join(lines)


def _run_options(command):
    """The options verify and evaluate share, read once into mock, config, sources,
    condition, scheme and cfg.  Apply it below the command's own options."""

    @_mock_option
    @click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
    @click.option("--sources", "sources_spec", default=None,
                  help="Comma-separated subset of wikipedia,pubmed,web.")
    @click.option("--condition", type=click.Choice([c.value for c in ClaimCondition]),
                  default=ClaimCondition.ORIGINAL_PLUS_NEGATED.value, show_default=True)
    @click.option("--scheme", "scheme_name", default="scifact", show_default=True)
    @functools.wraps(command)
    def read(mock, config_path, sources_spec, condition, scheme_name, **options):
        config = _load_config_file(config_path)
        try:
            scheme = load_scheme(scheme_name)
        except (OSError, TypeError, ValueError) as exc:
            raise click.UsageError(f"cannot load scheme {scheme_name}: {exc}")
        return command(mock=mock, config=config, sources=_parse_sources(sources_spec), scheme=scheme,
                       condition=ClaimCondition(condition), cfg=_pipeline_config(config, mock), **options)

    return read


@main.command("verify")
@_claim_argument
@click.option("--json", "as_json", is_flag=True, help="Emit one JSON object on stdout.")
@_run_options
def cmd_verify(claim, as_json, mock, config, sources, condition, scheme, cfg):
    """Verify a single claim end to end."""
    with _reported_errors():
        result = verify_claim(
            claim,
            _provider_set(mock, config, sources),
            scheme,
            load_prompt("verdict"),
            cfg=cfg,
            condition=condition,
        )
    if as_json:
        click.echo(result.encoded()[0], nl=False)
    else:
        click.echo(_render_verification(result))


@main.command("evaluate")
@click.option("--claims", "claims_path", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              default=None, help="JSONL claims file (defaults to the bundled fixture set in mock mode).")
@click.option("--dataset", "dataset_name", default="fixture", show_default=True)
@click.option("--limit", type=click.IntRange(min=1), default=None,
              help="Evaluate only N claims (seeded shuffle).")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=None,
              help="Run directory [default: runs/<dataset>-<condition>].")
@click.option("--max-workers", type=click.IntRange(min=1), default=4, show_default=True)
@_run_options
def cmd_evaluate(claims_path, dataset_name, limit, seed, out_dir, max_workers,
                 mock, config, sources, condition, scheme, cfg):
    """Run the experiment grid over a claims file and report metrics."""
    if claims_path is None:
        if not mock:
            raise click.UsageError("--claims is required outside mock mode")
        claims_path = mock_claims_path()
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    if out_dir is None:
        out_dir = Path("runs") / f"{dataset_name}-{condition.value.replace('+', '-')}"
    plan = ExperimentPlan(
        dataset=DatasetDescriptor(name=dataset_name, scheme=scheme, path=Path(claims_path)),
        sources=tuple(sources),
        condition=condition,
        cfg=cfg,
        limit=limit,
    )
    with _reported_errors():
        providers = _provider_set(mock, config, sources)
        run_dir = run_experiment(plan, providers, Path(out_dir), max_workers=max_workers)
    metrics = parse_json((run_dir / METRICS_FILE).read_text(encoding="utf-8"), dict, METRICS_FILE)
    click.echo(f"run artifacts: {run_dir}")
    click.echo(f"{'source':<12} {'A':>7} {'P':>7} {'R':>7} {'F1':>7} {'abstain':>8}")
    for source_name, report in metrics["per_source"].items():
        click.echo(
            f"{source_name:<12} {report['accuracy']:>7.3f} {report['macro_precision']:>7.3f} "
            f"{report['macro_recall']:>7.3f} {report['macro_f1']:>7.3f} "
            f"{metrics['abstentions'][source_name]:>8d}"
        )


@main.command("analyze")
@click.argument("run_dir", type=click.Path(path_type=Path))
@click.option("--grid-points", type=click.IntRange(min=2), default=512, show_default=True)
@click.option("--svg", "with_svg", is_flag=True, help="Also render kde.svg.")
def cmd_analyze(run_dir: Path, grid_points: int, with_svg: bool) -> None:
    """Compute confidence-density curves per (regime, source) from a run."""
    run_dir = Path(run_dir)
    confidences = run_dir / CONFIDENCES_FILE
    if not confidences.exists():
        raise click.UsageError(f"{confidences} not found; run evaluate first")
    with _reported_errors():
        try:
            rows = read_confidences_csv(confidences)
        except ValueError as exc:
            raise ConfigurationError(f"{exc}; the same evaluate run again on {run_dir} rewrites it") from exc
        coverage = regime_coverage(rows)
        click.echo(f"{coverage.with_regime} of {coverage.claims} claims have a regime; "
                   f"{coverage.abstained} lack one for an abstaining source, "
                   f"{coverage.not_three_sources} for a run without three sources", err=True)
        curves, skipped = kde_by_group(rows, grid_points=grid_points)
        write_kde_csv(curves, run_dir / "kde.csv")
        for regime, source, reason in skipped:
            click.echo(f"skipped regime={regime} source={source}: {reason}", err=True)
        click.echo(f"wrote {run_dir / 'kde.csv'} ({len(curves)} curves)")
        if with_svg:
            render_kde_svg(curves, run_dir / "kde.svg")
            click.echo(f"wrote {run_dir / 'kde.svg'}")


if __name__ == "__main__":
    main()
