"""Inter-source agreement analysis and evaluation metrics.

Per-source verdicts for one claim are summarized into an agreement
regime (all / two / none of the three sources agree) and a dispersion
statistic over their confidences.  Only answers count: an abstained
verdict (a failed source or provider, or no option letter with any
probability) stays in the claim's verdicts, but it is neither a
label for the regime nor a confidence for the dispersion.  The regime
therefore exists only when all three sources answered, and the
dispersion only when at least two did.  Confidence distributions are
visualized through Gaussian kernel density estimates grouped by regime
and source, and predictions are scored with accuracy plus macro
precision / recall / F1.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateSamples, TooFewSamples, UnknownGoldLabel, WrongArity
from .types import ABSTAIN_LABEL, MERGED, JsonRecord, LabelScheme, SourceKind, source_order_key
from .verdict import VeracityVerdict

log = logging.getLogger(__name__)

DEFAULT_GRID_POINTS = 512
_GRID_PADDING_BANDWIDTHS = 4.0


class AgreementRegime(Enum):
    ALL_AGREE = "all"
    TWO_AGREE = "two"
    NONE_AGREE = "none"


def agreement_regime(labels: Sequence[str]) -> AgreementRegime:
    """Categorize three per-source labels; permutation-invariant."""
    if len(labels) != 3:
        raise WrongArity(f"agreement regime needs exactly 3 labels, got {len(labels)}")
    counts = sorted(Counter(labels).values(), reverse=True)
    if counts[0] == 3:
        return AgreementRegime.ALL_AGREE
    if counts[0] == 2:
        return AgreementRegime.TWO_AGREE
    return AgreementRegime.NONE_AGREE


def dispersion(confidences: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator) of per-source confidences."""
    if len(confidences) < 2:
        raise TooFewSamples(f"dispersion needs at least 2 values, got {len(confidences)}")
    if not all(math.isfinite(x) for x in confidences):
        raise ValueError("confidences must be finite")
    mean = sum(confidences) / len(confidences)
    variance = sum((x - mean) ** 2 for x in confidences) / (len(confidences) - 1)
    return math.sqrt(variance)


@dataclass(frozen=True)
class SourceConfidenceProfile:
    """Agreement summary of one claim's per-source verdicts.

    regime is defined only when exactly three per-source verdicts are
    all answers; dispersion only for two or more answers.  The verdicts
    themselves live in the claim's trace (ClaimVerification.verdicts).
    """

    regime: AgreementRegime | None
    dispersion: float | None


def build_profile(verdicts: Mapping[SourceKind, VeracityVerdict]) -> SourceConfidenceProfile:
    """Summarize per-source verdicts (the merged pseudo-source is excluded).

    Answers are read in source_order_key order, not the mapping's, so a
    decoded trace gets the same dispersion to the last bit.
    """
    per_source = sorted((kind for kind in verdicts if kind != MERGED), key=source_order_key)
    answers = [verdicts[kind] for kind in per_source if not verdicts[kind].abstained]
    labels = [v.label for v in answers]
    regime = agreement_regime(labels) if len(per_source) == len(labels) == 3 else None
    spread = dispersion([v.confidence for v in answers]) if len(answers) >= 2 else None
    return SourceConfidenceProfile(regime, spread)


@dataclass(frozen=True)
class KdeCurve:
    """A kernel density estimate sampled on a regular grid."""

    grid: tuple[float, ...]
    density: tuple[float, ...]
    bandwidth: float
    n_samples: int


def silverman_bandwidth(samples: Sequence[float]) -> float:
    """0.9 * min(sigma, IQR/1.34) * n^(-1/5); falls back to sigma when IQR is 0."""
    arr = np.asarray(samples, dtype=np.float64)
    sigma = float(np.std(arr, ddof=1))
    iqr = float(np.percentile(arr, 75) - np.percentile(arr, 25))
    scale = min(sigma, iqr / 1.34) if iqr > 0 else sigma
    return 0.9 * scale * len(arr) ** (-0.2)


def kde(
    samples: Sequence[float],
    grid_points: int = DEFAULT_GRID_POINTS,
    bandwidth: float | None = None,
) -> KdeCurve:
    """Gaussian kernel density estimate over an automatically padded grid.

    f(x) = (1/(n*h)) * sum_i phi((x - s_i)/h) with phi the standard normal
    density.  The default bandwidth is Silverman's rule, which needs at
    least two samples with nonzero spread; passing an explicit bandwidth
    lifts that requirement (a single sample is then allowed).  The grid
    spans [min - 4h, max + 4h] with grid_points points, so the trapezoidal
    integral of the density is 1 to within ~2%.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise DegenerateSamples("density estimation needs at least one sample")
    if bandwidth is None:
        if arr.size < 2:
            raise DegenerateSamples("automatic bandwidth needs at least 2 samples")
        if float(np.std(arr, ddof=1)) == 0.0:
            raise DegenerateSamples("samples have zero spread; report a point mass instead")
        bandwidth = silverman_bandwidth(arr)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    low = float(arr.min()) - _GRID_PADDING_BANDWIDTHS * bandwidth
    high = float(arr.max()) + _GRID_PADDING_BANDWIDTHS * bandwidth
    grid = np.linspace(low, high, grid_points)
    z = (grid[:, None] - arr[None, :]) / bandwidth
    density = np.exp(-0.5 * z**2).sum(axis=1) / (arr.size * bandwidth * math.sqrt(2.0 * math.pi))
    return KdeCurve(
        grid=tuple(grid.tolist()),
        density=tuple(density.tolist()),
        bandwidth=float(bandwidth),
        n_samples=int(arr.size),
    )


@dataclass(frozen=True)
class ClassMetrics(JsonRecord):
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport(JsonRecord):
    """Accuracy plus macro precision/recall/F1 with a per-class breakdown.

    Macro averages run over classes that appear in the gold labels; the
    0/0 convention for precision, recall, and F1 is 0.
    """

    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: Mapping[str, ClassMetrics]
    total: int


def _safe_div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute_metrics(
    pairs: Sequence[tuple[str, str]],
    scheme: LabelScheme,
) -> MetricsReport:
    """Score (gold, predicted) label pairs against the scheme.

    Gold labels must belong to the scheme; predictions may be anything
    (an off-scheme prediction such as an abstention simply scores as
    wrong).
    """
    for gold, _ in pairs:
        if gold not in scheme.labels:
            raise UnknownGoldLabel(f"gold label {gold!r} not in scheme {scheme.name!r}")
    total = len(pairs)
    correct = sum(1 for gold, predicted in pairs if gold == predicted)
    per_class: dict[str, ClassMetrics] = {}
    macro_values: list[tuple[float, float, float]] = []
    for label in scheme.labels:
        tp = sum(1 for g, p in pairs if g == label and p == label)
        fp = sum(1 for g, p in pairs if g != label and p == label)
        fn = sum(1 for g, p in pairs if g == label and p != label)
        precision = _safe_div(tp, tp + fp)
        recall = _safe_div(tp, tp + fn)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        support = tp + fn
        per_class[label] = ClassMetrics(precision, recall, f1, support)
        if support > 0:
            macro_values.append((precision, recall, f1))
    macro_p = _safe_div(sum(v[0] for v in macro_values), len(macro_values))
    macro_r = _safe_div(sum(v[1] for v in macro_values), len(macro_values))
    macro_f1 = _safe_div(sum(v[2] for v in macro_values), len(macro_values))
    return MetricsReport(
        accuracy=_safe_div(correct, total),
        macro_precision=macro_p,
        macro_recall=macro_r,
        macro_f1=macro_f1,
        per_class=per_class,
        total=total,
    )


# ---------------------------------------------------------------------------
# Run-artifact I/O: confidences.csv, kde.csv, optional kde.svg
# ---------------------------------------------------------------------------

CONFIDENCES_FIELDS = ("claim_id", "source", "label", "confidence", "regime", "dispersion")
KDE_FIELDS = ("regime", "source", "x", "density", "bandwidth", "n")


@dataclass(frozen=True)
class ConfidenceRow:
    claim_id: str
    source: str
    label: str
    confidence: float
    regime: str
    dispersion: float | None

    def csv_fields(self) -> list[str]:
        """The row as confidences.csv writes it: floats by repr, no dispersion as ""."""
        dispersion = repr(self.dispersion) if self.dispersion is not None else ""
        return [self.claim_id, self.source, self.label, repr(self.confidence), self.regime, dispersion]


def read_confidences_csv(path: Path) -> list[ConfidenceRow]:
    """The rows of a confidences.csv.  A header other than CONFIDENCES_FIELDS, a row with a
    missing or extra field, or a confidence or dispersion that is not a finite number
    raises ValueError naming the file and line."""
    path = Path(path)
    rows = []
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        if tuple(next(reader, ())) != CONFIDENCES_FIELDS:
            raise ValueError(f"{path} line 1: the header is not {','.join(CONFIDENCES_FIELDS)}")
        for record in reader:
            where = f"{path} line {reader.line_num}"
            if len(record) != len(CONFIDENCES_FIELDS):
                raise ValueError(f"{where}: {len(record)} fields, not {len(CONFIDENCES_FIELDS)}")
            claim_id, source, label, confidence, regime, spread = record
            rows.append(ConfidenceRow(claim_id, source, label, _finite(confidence, "confidence", where),
                                      regime, _finite(spread, "dispersion", where) if spread else None))
    return rows


def _finite(text: str, name: str, where: str) -> float:
    """text as a finite float, or ValueError naming where and the field's name."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{where}: {name} {text!r} is not a finite number")
    return value


@dataclass(frozen=True)
class RegimeCoverage:
    """How many claims of a confidences table have an agreement regime, and why the rest have none.

    A claim without one counts as not_three_sources when it has not three
    per-source rows (the run has not three sources), else as abstained
    when one of its three per-source rows is an abstention.
    """

    claims: int
    with_regime: int
    abstained: int
    not_three_sources: int


def regime_coverage(rows: Sequence[ConfidenceRow]) -> RegimeCoverage:
    """The RegimeCoverage of confidences rows; merged rows count towards no source."""
    regimes: dict[str, str] = {}
    labels: dict[str, list[str]] = {}
    for row in rows:
        regimes[row.claim_id] = row.regime  # the same on every row of a claim
        per_source = labels.setdefault(row.claim_id, [])
        if row.source != MERGED.name:
            per_source.append(row.label)
    without = [labels[claim] for claim, regime in regimes.items() if not regime]
    not_three = sum(len(sources) != 3 for sources in without)
    abstained = sum(len(sources) == 3 and ABSTAIN_LABEL in sources for sources in without)
    return RegimeCoverage(len(regimes), len(regimes) - len(without), abstained, not_three)


def kde_by_group(
    rows: Sequence[ConfidenceRow],
    grid_points: int = DEFAULT_GRID_POINTS,
) -> tuple[dict[tuple[str, str], KdeCurve], list[tuple[str, str, str]]]:
    """One KDE per (regime, source) group of confidence rows.

    Rows without a regime (regime_coverage counts their claims), and
    abstentions (label ABSTAIN_LABEL, whose confidence is the floor, not an
    answer's), are ignored.  Groups that cannot support an automatic
    bandwidth (fewer than two samples, or zero spread) are skipped and
    reported in the second return value as (regime, source, reason).
    """
    groups: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        if not row.regime or row.label == ABSTAIN_LABEL:
            continue
        groups.setdefault((row.regime, row.source), []).append(row.confidence)
    curves: dict[tuple[str, str], KdeCurve] = {}
    skipped: list[tuple[str, str, str]] = []
    for key in sorted(groups):
        samples = groups[key]
        try:
            curves[key] = kde(samples, grid_points=grid_points)
        except DegenerateSamples as exc:
            log.warning("skipping KDE for regime=%s source=%s: %s", key[0], key[1], exc)
            skipped.append((key[0], key[1], str(exc)))
    return curves, skipped


def write_kde_csv(curves: Mapping[tuple[str, str], KdeCurve], path: Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(KDE_FIELDS)
        for (regime, source), curve in sorted(curves.items()):
            for x, density in zip(curve.grid, curve.density):
                writer.writerow(
                    [regime, source, repr(x), repr(density), repr(curve.bandwidth), curve.n_samples]
                )


_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
                "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def render_kde_svg(curves: Mapping[tuple[str, str], KdeCurve], path: Path) -> None:
    """Static line chart of the KDE curves, one polyline per (regime, source)."""
    path = Path(path)
    width, height, margin = 720, 420, 50
    keys = sorted(curves)
    if not keys:
        path.write_text(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"/>\n',
            encoding="utf-8",
        )
        return
    x_min = min(curves[k].grid[0] for k in keys)
    x_max = max(curves[k].grid[-1] for k in keys)
    y_max = max(max(curves[k].density) for k in keys) or 1.0
    span_x = (x_max - x_min) or 1.0

    def sx(x: float) -> float:
        return margin + (x - x_min) / span_x * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - y / y_max * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for i, key in enumerate(keys):
        curve = curves[key]
        color = _SVG_PALETTE[i % len(_SVG_PALETTE)]
        points = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(curve.grid, curve.density)
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        label_y = margin + 16 * i
        parts.append(
            f'<text x="{width - margin - 180}" y="{label_y}" font-size="12" fill="{color}">'
            f"{key[0]}/{key[1]} (n={curve.n_samples})</text>"
        )
    parts.append(
        f'<text x="{margin}" y="{height - margin + 32}" font-size="12">confidence (log-probability)</text>'
    )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
