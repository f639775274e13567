import csv
import itertools
import math
import random

import numpy as np
import pytest

from veriscope.analysis import (
    CONFIDENCES_FIELDS,
    AgreementRegime,
    ConfidenceRow,
    RegimeCoverage,
    agreement_regime,
    build_profile,
    compute_metrics,
    dispersion,
    kde,
    kde_by_group,
    read_confidences_csv,
    regime_coverage,
    render_kde_svg,
    silverman_bandwidth,
    write_kde_csv,
)
from veriscope.datasets import DatasetDescriptor
from veriscope.errors import (
    DegenerateSamples,
    TooFewSamples,
    UnknownGoldLabel,
    WrongArity,
)
from veriscope.experiment import ExperimentPlan, _derived_files
from veriscope.pipeline import ClaimCondition
from veriscope.types import (
    CANONICAL_SOURCES,
    MERGED,
    PUBMED,
    WEB,
    WIKIPEDIA,
    LabelScheme,
    PipelineConfig,
)
from veriscope.verdict import (
    ABSTAIN_LABEL,
    DEFAULT_LOGPROB_FLOOR,
    LabelLogits,
    VeracityVerdict,
    abstain_verdict,
)


class TestAgreementRegime:
    def test_all_agree(self):
        assert agreement_regime(["X", "X", "X"]) is AgreementRegime.ALL_AGREE

    def test_two_agree(self):
        assert agreement_regime(["X", "X", "Y"]) is AgreementRegime.TWO_AGREE

    def test_none_agree(self):
        assert agreement_regime(["X", "Y", "Z"]) is AgreementRegime.NONE_AGREE

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            agreement_regime(["X", "Y"])

    def test_permutation_invariant(self):
        import itertools

        for labels in (["X", "X", "Y"], ["X", "Y", "Z"], ["X", "X", "X"]):
            results = {agreement_regime(list(p)) for p in itertools.permutations(labels)}
            assert len(results) == 1


class TestDispersion:
    def test_constant_is_zero(self):
        assert dispersion([-1.0, -1.0, -1.0]) == 0.0

    def test_hand_value(self):
        assert dispersion([-1.0, -3.0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert dispersion([-1.0, -3.0]) == pytest.approx(1.41421, abs=1e-5)

    def test_shift_invariance(self):
        values = [-0.3, -1.7, -0.9]
        assert dispersion([v + 5.0 for v in values]) == pytest.approx(
            dispersion(values), abs=1e-12
        )

    def test_non_negative(self):
        rng = random.Random(2)
        for _ in range(50):
            values = [rng.uniform(-10, 0) for _ in range(rng.randint(2, 6))]
            assert dispersion(values) >= 0.0

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            dispersion([-1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dispersion([-1.0, float("nan")])


class TestKde:
    def test_single_sample_explicit_bandwidth_hand_value(self):
        curve = kde([0.0], grid_points=201, bandwidth=1.0)
        # density at x=0 equals the standard normal density at 0
        mid = min(range(len(curve.grid)), key=lambda i: abs(curve.grid[i]))
        assert curve.grid[mid] == pytest.approx(0.0, abs=1e-9)
        assert curve.density[mid] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-9)
        assert curve.density[mid] == pytest.approx(0.39894, abs=1e-5)

    def test_density_non_negative(self):
        rng = np.random.default_rng(4)
        curve = kde(rng.normal(-3, 1, size=40).tolist())
        assert all(d >= 0.0 for d in curve.density)

    def test_integral_close_to_one(self):
        rng = np.random.default_rng(9)
        samples = rng.normal(-2, 0.7, size=80)
        curve = kde(samples.tolist())
        integral = float(np.trapezoid(np.asarray(curve.density), np.asarray(curve.grid)))
        assert 0.98 <= integral <= 1.02

    def test_duplication_with_fixed_bandwidth_identical(self):
        samples = [-1.0, -0.5, -2.0, -0.8]
        a = kde(samples, grid_points=128, bandwidth=0.4)
        b = kde(samples * 2, grid_points=128, bandwidth=0.4)
        assert a.grid == b.grid
        for da, db in zip(a.density, b.density):
            assert da == pytest.approx(db, abs=1e-12)

    def test_degenerate_samples(self):
        with pytest.raises(DegenerateSamples):
            kde([-1.0, -1.0, -1.0])
        with pytest.raises(DegenerateSamples):
            kde([-1.0])
        with pytest.raises(DegenerateSamples):
            kde([])

    def test_silverman_zero_iqr_falls_back_to_sigma(self):
        samples = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        h = silverman_bandwidth(samples)
        sigma = float(np.std(samples, ddof=1))
        assert h == pytest.approx(0.9 * sigma * len(samples) ** -0.2, abs=1e-12)

    def test_grid_spans_four_bandwidths(self):
        curve = kde([0.0, 1.0], grid_points=64, bandwidth=0.5)
        assert curve.grid[0] == pytest.approx(-2.0, abs=1e-9)
        assert curve.grid[-1] == pytest.approx(3.0, abs=1e-9)


def metrics_oracle(pairs, labels):
    """Independent confusion-matrix implementation."""
    total = len(pairs)
    correct = sum(1 for g, p in pairs if g == p)
    per_class = {}
    macro = []
    for label in labels:
        tp = sum(1 for g, p in pairs if g == label and p == label)
        fp = sum(1 for g, p in pairs if g != label and p == label)
        fn = sum(1 for g, p in pairs if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = (precision, recall, f1, tp + fn)
        if tp + fn > 0:
            macro.append((precision, recall, f1))
    macro_p = sum(m[0] for m in macro) / len(macro) if macro else 0.0
    macro_r = sum(m[1] for m in macro) / len(macro) if macro else 0.0
    macro_f = sum(m[2] for m in macro) / len(macro) if macro else 0.0
    return correct / total if total else 0.0, macro_p, macro_r, macro_f, per_class


class TestComputeMetrics:
    def test_perfect_predictions(self, scheme3):
        pairs = [(label, label) for label in scheme3.labels]
        report = compute_metrics(pairs, scheme3)
        assert report.accuracy == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0

    def test_binary_hand_example(self):
        scheme = LabelScheme(name="tf", labels=("T", "F"), option_letters=("A", "B"))
        pairs = [("T", "T"), ("T", "F"), ("F", "F"), ("F", "F")]
        report = compute_metrics(pairs, scheme)
        assert report.accuracy == 0.75
        assert report.per_class["T"].precision == 1.0
        assert report.per_class["T"].recall == 0.5
        assert report.per_class["T"].f1 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert report.per_class["F"].precision == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert report.per_class["F"].recall == 1.0
        assert report.per_class["F"].f1 == pytest.approx(0.8, abs=1e-12)
        assert report.macro_f1 == pytest.approx(0.7333, abs=1e-4)

    def test_constant_prediction_three_class(self, scheme3):
        pairs = []
        for label in scheme3.labels:
            pairs.extend((label, "Supported") for _ in range(4))
        report = compute_metrics(pairs, scheme3)
        assert report.accuracy == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report.macro_f1 == pytest.approx((0.5 + 0.0 + 0.0) / 3.0, abs=1e-9)
        assert report.macro_f1 == pytest.approx(0.1667, abs=1e-4)

    def test_unknown_gold_rejected(self, scheme3):
        with pytest.raises(UnknownGoldLabel):
            compute_metrics([("Unknown", "Supported")], scheme3)

    def test_off_scheme_prediction_counts_as_wrong(self, scheme3):
        report = compute_metrics([("Supported", "abstain")], scheme3)
        assert report.accuracy == 0.0
        assert report.per_class["Supported"].recall == 0.0

    def test_matches_oracle_on_random_sets(self, scheme3):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(1, 60)
            pairs = [
                (rng.choice(scheme3.labels), rng.choice(scheme3.labels + ("abstain",)))
                for _ in range(n)
            ]
            report = compute_metrics(pairs, scheme3)
            acc, mp, mr, mf, per_class = metrics_oracle(pairs, scheme3.labels)
            assert report.accuracy == acc
            assert report.macro_precision == mp
            assert report.macro_recall == mr
            assert report.macro_f1 == mf
            for label in scheme3.labels:
                got = report.per_class[label]
                assert (got.precision, got.recall, got.f1, got.support) == per_class[label]


def _verdict(label, margin, scheme):
    """An answer whose label's logit leads every other option's by margin."""
    logits = [-margin] * scheme.m
    logits[scheme.labels.index(label)] = 0.0
    return VeracityVerdict(LabelLogits(scheme, tuple(logits)), abstained=False)


class TestBuildProfile:
    def test_three_sources(self, scheme3):
        verdicts = {
            WIKIPEDIA: _verdict("Supported", 3.0, scheme3),
            PUBMED: _verdict("Supported", 2.0, scheme3),
            WEB: _verdict("Refuted", 0.5, scheme3),
            MERGED: _verdict("Supported", 4.0, scheme3),
        }
        profile = build_profile(verdicts)
        assert profile.regime is AgreementRegime.TWO_AGREE
        assert profile.dispersion == pytest.approx(
            dispersion([verdicts[k].confidence for k in (WIKIPEDIA, PUBMED, WEB)]), abs=1e-12
        )

    def test_two_sources_no_regime(self, scheme3):
        verdicts = {
            WIKIPEDIA: _verdict("Supported", 3.0, scheme3),
            PUBMED: _verdict("Refuted", 2.0, scheme3),
        }
        profile = build_profile(verdicts)
        assert profile.regime is None
        assert profile.dispersion is not None

    def test_abstention_is_not_an_answer(self, scheme3):
        verdicts = {
            WIKIPEDIA: _verdict("Supported", 3.0, scheme3),
            PUBMED: abstain_verdict(scheme3),
            WEB: _verdict("Refuted", 0.5, scheme3),
            MERGED: _verdict("Supported", 4.0, scheme3),
        }
        profile = build_profile(verdicts)
        assert profile.regime is None
        assert profile.dispersion == dispersion(
            [verdicts[WIKIPEDIA].confidence, verdicts[WEB].confidence]
        )

    def test_one_answer_among_abstentions_has_no_dispersion(self, scheme3):
        verdicts = {
            WIKIPEDIA: _verdict("Supported", 3.0, scheme3),
            PUBMED: abstain_verdict(scheme3),
            WEB: abstain_verdict(scheme3),
        }
        profile = build_profile(verdicts)
        assert profile.regime is None
        assert profile.dispersion is None

    def test_single_source_no_dispersion(self, scheme3):
        verdicts = {WIKIPEDIA: _verdict("Supported", 3.0, scheme3)}
        profile = build_profile(verdicts)
        assert profile.regime is None
        assert profile.dispersion is None

    def test_profile_does_not_depend_on_verdict_order(self, scheme3):
        # summed in this order and in reverse, these confidences differ in the last bit
        verdicts = {
            WIKIPEDIA: _verdict("Supported", 0.5, scheme3),
            PUBMED: _verdict("Supported", 1.0, scheme3),
            WEB: _verdict("Refuted", 1.5, scheme3),
            MERGED: _verdict("Supported", 4.0, scheme3),
        }
        expected = build_profile(verdicts)
        for order in itertools.permutations(verdicts):
            assert build_profile({kind: verdicts[kind] for kind in order}) == expected


class TestCsvRoundTrip:
    def _rows(self):
        return [
            ConfidenceRow("c1", "wikipedia", "Supported", -0.25, "all", 0.1),
            ConfidenceRow("c1", "merged", "Supported", -0.5, "all", 0.1),
            ConfidenceRow("c2", "pubmed", "Refuted", -1.5, "", None),
        ]

    def _written(self, tmp_path, scheme3, rows):
        """confidences.csv as a run writes it: through _derived_files, the table's one writer."""
        plan = ExperimentPlan(
            dataset=DatasetDescriptor("fixture", scheme3, tmp_path / "claims.jsonl"),
            sources=CANONICAL_SOURCES, condition=ClaimCondition.ORIGINAL_ONLY, cfg=PipelineConfig(),
        )
        with _derived_files(tmp_path, plan, 0) as add:
            add(("", [row.csv_fields() for row in rows], []))
        return tmp_path / "confidences.csv"

    def test_round_trip(self, tmp_path, scheme3):
        path = self._written(tmp_path, scheme3, self._rows())
        assert read_confidences_csv(path) == self._rows()

    def test_header(self, tmp_path, scheme3):
        path = self._written(tmp_path, scheme3, [])
        with path.open(newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["claim_id", "source", "label", "confidence", "regime", "dispersion"]


class TestMalformedConfidencesCsv:
    HEADER = ",".join(CONFIDENCES_FIELDS)
    ROWS = "c1,wikipedia,Supported,-0.25,all,0.1\nc1,merged,Supported,-0.5,all,0.1\nc2,pubmed,Refuted,-1.5,,\n"

    @pytest.mark.parametrize(
        "text, error",
        [
            (f"{HEADER}\n{ROWS}"[:100], "line 3: 3 fields, not 6"),
            (f"{HEADER}\nc1,wikipedia,Supported,high,all,0.1\n", "line 2: confidence 'high' is not a finite number"),
            (f"{HEADER}\nc1,wikipedia,Supported,inf,all,0.1\n", "line 2: confidence 'inf' is not a finite number"),
            (f"{HEADER}\nc1,wikipedia,Supported,-0.25,all,nan\n", "line 2: dispersion 'nan' is not a finite number"),
            (f"claim_id,source,label,confidence,regime\n{ROWS}", "line 1: the header is not claim_id,"),
        ],
        ids=["truncated", "text-confidence", "infinite-confidence", "nan-dispersion", "wrong-header"],
    )
    def test_refused_naming_the_file_and_line(self, tmp_path, text, error):
        path = tmp_path / "confidences.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_confidences_csv(path)
        assert str(info.value).startswith(f"{path} {error}")


class TestRegimeCoverage:
    def test_counts_each_claim_without_a_regime_once(self):
        floor = DEFAULT_LOGPROB_FLOOR

        def claim(claim_id, labels, regime):
            rows = [ConfidenceRow(claim_id, source, label, floor if label == ABSTAIN_LABEL else -0.5,
                                  regime, None) for source, label in labels]
            return rows + [ConfidenceRow(claim_id, "merged", "x", -0.5, regime, None)]

        rows = (
            claim("answered", [("wikipedia", "x"), ("pubmed", "y"), ("web", "x")], "two")
            + claim("abstained", [("wikipedia", ABSTAIN_LABEL), ("pubmed", "y"), ("web", "x")], "")
            + claim("two-sources", [("wikipedia", "x"), ("pubmed", "y")], "")
            + claim("two-sources-abstained", [("wikipedia", ABSTAIN_LABEL), ("pubmed", "y")], "")
        )
        assert regime_coverage(rows) == RegimeCoverage(
            claims=4, with_regime=1, abstained=1, not_three_sources=2
        )

    def test_no_rows(self):
        assert regime_coverage([]) == RegimeCoverage(0, 0, 0, 0)


class TestKdeByGroup:
    def _rows(self):
        rng = random.Random(31)
        rows = []
        for i in range(8):
            rows.append(
                ConfidenceRow(f"c{i}", "wikipedia", "x", rng.uniform(-3, -0.1), "all", 0.1)
            )
        rows.append(ConfidenceRow("c9", "pubmed", "x", -1.0, "two", 0.2))  # single sample
        rows.append(ConfidenceRow("c10", "web", "x", -1.0, "", None))  # no regime
        return rows

    def test_groups_and_skips(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            curves, skipped = kde_by_group(self._rows(), grid_points=64)
        assert ("all", "wikipedia") in curves
        assert [(r, s) for r, s, _ in skipped] == [("two", "pubmed")]
        assert all(key[0] for key in curves)

    def test_abstentions_stay_out_of_every_curve(self):
        # A merged abstention carries its claim's regime in confidences.csv,
        # with the floor as its confidence; it is no answer to estimate.
        answers = [ConfidenceRow(f"m{i}", "merged", "x", -0.1 * (i + 1), "all", 0.1)
                   for i in range(3)]
        floor = DEFAULT_LOGPROB_FLOOR
        abstentions = [
            ConfidenceRow("m3", "merged", ABSTAIN_LABEL, floor, "all", 0.1),
            ConfidenceRow("m4", "web", ABSTAIN_LABEL, floor, "two", 0.2),
            ConfidenceRow("m5", "web", ABSTAIN_LABEL, floor, "two", 0.2),
        ]
        curves, skipped = kde_by_group(self._rows() + answers + abstentions, grid_points=64)
        assert curves[("all", "merged")] == kde([r.confidence for r in answers], grid_points=64)
        assert ("two", "web") not in curves
        assert ("two", "web") not in [(r, s) for r, s, _ in skipped]

    def test_kde_csv_rows(self, tmp_path):
        curves, _ = kde_by_group(self._rows(), grid_points=64)
        path = tmp_path / "kde.csv"
        write_kde_csv(curves, path)
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64 * len(curves)
        first = rows[0]
        assert first["regime"] == "all"
        assert first["source"] == "wikipedia"
        assert int(first["n"]) == 8
        assert float(first["bandwidth"]) > 0

    def test_svg_render(self, tmp_path):
        curves, _ = kde_by_group(self._rows(), grid_points=64)
        path = tmp_path / "kde.svg"
        render_kde_svg(curves, path)
        content = path.read_text()
        assert content.startswith("<svg")
        assert "polyline" in content

    def test_svg_empty(self, tmp_path):
        path = tmp_path / "kde.svg"
        render_kde_svg({}, path)
        assert path.read_text().startswith("<svg")
