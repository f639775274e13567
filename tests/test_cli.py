import json
import logging
import socket

import pytest
import requests
from click.testing import CliRunner

from conftest import Reply, ScriptedSession, completion, cut_index_file
from veriscope.assets import fixture_path
from veriscope.cli import main
from veriscope.index import LocalIndex, build_local_index


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def no_network(monkeypatch):
    """Any socket creation fails the test."""

    def _blow_up(*args, **kwargs):
        raise AssertionError("network access attempted in mock mode")

    monkeypatch.setattr(socket, "socket", _blow_up)


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    records = [
        {"doc_id": "d1", "title": "Cats", "body": "Cats purr. Cats sleep."},
        {"doc_id": "d2", "title": "Dogs", "body": "Dogs bark loudly."},
    ]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


class TestIndexCommand:
    def test_indexes_corpus(self, runner, corpus, tmp_path, no_network):
        result = runner.invoke(main, ["index", str(corpus), "--out", str(tmp_path / "idx")])
        assert result.exit_code == 0, result.output
        assert "indexed 2 documents" in result.output

    def test_missing_path_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["index", str(tmp_path / "nope.jsonl"), "--out", "x"])
        assert result.exit_code == 2

    def test_deterministic_manifests(self, runner, corpus, tmp_path):
        runner.invoke(main, ["index", str(corpus), "--out", str(tmp_path / "a")])
        runner.invoke(main, ["index", str(corpus), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "manifest.json"
        ).read_bytes()

    def test_empty_corpus_nonzero_exit(self, runner, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        result = runner.invoke(main, ["index", str(empty), "--out", str(tmp_path / "idx")])
        assert result.exit_code != 0


def _format_1_index(index_dir):
    """An index directory in format 1 (JSON postings)."""
    index_dir.mkdir()
    manifest = {"avg_doc_length": 2.0, "doc_count": 1, "format": "veriscope-index/1", "term_count": 2}
    (index_dir / "manifest.json").write_text(json.dumps(manifest))
    (index_dir / "postings.json").write_text('{"cats":[["d1",1]],"purr":[["d1",1]]}\n')
    (index_dir / "docs.jsonl").write_text(
        json.dumps({"body": "Cats purr.", "doc_id": "d1", "length": 2, "title": ""}) + "\n"
    )


def _cut_index(name):
    """A saved index of the bundled pubmed corpus with name cut short (cut_index_file)."""

    def make(index_dir):
        build_local_index(fixture_path("corpus_pubmed.jsonl"), index_dir)
        cut_index_file(index_dir, name)

    return make


class TestUnusableIndexDirectory:
    @pytest.mark.parametrize(
        "make",
        [_format_1_index, lambda path: None, _cut_index("docs.jsonl"), _cut_index("terms.json")],
        ids=["format-1", "missing", "truncated-docs", "shortened-terms"],
    )
    @pytest.mark.parametrize("command", ["verify", "evaluate"])
    def test_exit_3_naming_the_directory(self, runner, tmp_path, monkeypatch, make, command):
        # the remote providers are built first; no request is sent, the index is refused
        monkeypatch.setenv("LLM_API_URL", "http://127.0.0.1:9")
        monkeypatch.setenv("NEGATION_API_URL", "http://127.0.0.1:9")
        index_dir = tmp_path / "wiki-index"
        make(index_dir)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"wikipedia_index": str(index_dir)}))
        claims = tmp_path / "claims.jsonl"
        claims.write_text(json.dumps({"id": "c1", "claim": "Cats purr.", "label": "Supported"}) + "\n")
        args = {
            "verify": ["verify", "Cats purr."],
            "evaluate": ["evaluate", "--claims", str(claims), "--out", str(tmp_path / "run")],
        }[command]
        result = runner.invoke(main, [*args, "--sources", "wikipedia", "--config", str(config)])
        assert result.exit_code == 3, result.output
        assert "configuration error: " in result.output
        assert str(index_dir) in result.output
        assert "veriscope index" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("command", ["verify", "evaluate"])
def test_missing_environment_exits_before_any_index_loads(runner, tmp_path, monkeypatch, command):
    index_dir = tmp_path / "wiki-index"
    build_local_index(fixture_path("corpus_wikipedia.jsonl"), index_dir)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"wikipedia_index": str(index_dir)}))
    claims = tmp_path / "claims.jsonl"
    claims.write_text(json.dumps({"id": "c1", "claim": "Cats purr.", "label": "Supported"}) + "\n")
    monkeypatch.delenv("LLM_API_URL", raising=False)
    monkeypatch.setenv("NEGATION_API_URL", "http://127.0.0.1:9")
    loads = []
    monkeypatch.setattr(LocalIndex, "load", classmethod(lambda cls, path: loads.append(path)))
    args = {
        "verify": ["verify", "Cats purr."],
        "evaluate": ["evaluate", "--claims", str(claims), "--out", str(tmp_path / "run")],
    }[command]
    result = runner.invoke(main, [*args, "--sources", "wikipedia", "--config", str(config)])
    assert result.exit_code == 3, result.output
    assert "LLM_API_URL" in result.output
    assert loads == []


@pytest.mark.parametrize("command", ["verify", "evaluate"])
def test_endpoint_url_without_a_scheme_exits_3_before_any_claim(runner, tmp_path, monkeypatch, command):
    claims = tmp_path / "claims.jsonl"
    claims.write_text(json.dumps({"id": "c1", "claim": "Cats purr.", "label": "Supported"}) + "\n")
    monkeypatch.setenv("LLM_API_URL", "api.example/v1/chat?key=sk-secret")
    monkeypatch.setenv("NEGATION_API_URL", "http://127.0.0.1:9")
    args = {
        "verify": ["verify", "Cats purr."],
        "evaluate": ["evaluate", "--claims", str(claims), "--out", str(tmp_path / "run")],
    }[command]
    result = runner.invoke(main, [*args, "--sources", "wikipedia"])
    assert result.exit_code == 3, result.output
    assert "needs an http or https scheme and a host" in result.output
    assert "sk-secret" not in result.output and "api.example" not in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["corpus-dir-holds-a-directory", "index-out-is-a-file", "evaluate-out-is-a-file",
                                  "analyze-kde-csv-is-a-directory"])
def test_a_path_the_file_system_refuses_exits_3_naming_it(runner, corpus, tmp_path, no_network, case):
    (tmp_path / "corpora" / "sub.jsonl").mkdir(parents=True)
    existing = tmp_path / "existing"
    existing.write_text("")
    run = tmp_path / "run"
    if case.startswith("analyze"):
        assert runner.invoke(main, ["evaluate", "--mock", "--out", str(run)]).exit_code == 0
        (run / "kde.csv").mkdir()
    args, refused = {
        "corpus-dir-holds-a-directory": (["index", str(tmp_path / "corpora"), "--out", str(tmp_path / "idx")],
                                         tmp_path / "corpora" / "sub.jsonl"),
        "index-out-is-a-file": (["index", str(corpus), "--out", str(existing)], existing),
        "evaluate-out-is-a-file": (["evaluate", "--mock", "--out", str(existing)], existing / "traces"),
        "analyze-kde-csv-is-a-directory": (["analyze", str(run)], run / "kde.csv"),
    }[case]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert f"configuration error: {refused}: " in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_debug_log_level_leaves_out_the_http_stack_request_lines(runner, no_network):
    """urllib3 logs each request line, query string and any key in it included, at DEBUG."""
    result = runner.invoke(main, ["--log-level", "debug", "verify", "--mock", "Cats purr."])
    assert result.exit_code == 0, result.output
    assert logging.getLogger("urllib3").getEffectiveLevel() == logging.INFO


class TestNegateCommand:
    def test_mock_fixture_negation(self, runner, no_network):
        result = runner.invoke(
            main,
            ["negate", "A deficiency of vitamin B12 increases homocysteine levels.", "--mock"],
        )
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "A surplus of vitamin B12 decreases homocysteine levels."

    def test_mock_falls_back_to_rules(self, runner, no_network):
        result = runner.invoke(main, ["negate", "The sky is blue", "--mock"])
        assert result.exit_code == 0
        assert result.output.strip() == "The sky is not blue"

    def test_json_output(self, runner, no_network):
        result = runner.invoke(main, ["negate", "The sky is blue", "--mock", "--json"])
        data = json.loads(result.output)
        assert data == {"claim": "The sky is blue", "negation": "The sky is not blue"}

    def test_live_without_env_exit_3(self, runner, monkeypatch):
        monkeypatch.delenv("NEGATION_API_URL", raising=False)
        result = runner.invoke(main, ["negate", "The sky is blue"])
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "reply", [Reply(503), completion("The sky is blue")], ids=["provider-unavailable", "degenerate"]
    )
    def test_failed_negation_falls_back_to_rules(self, runner, monkeypatch, backoff_sleeps, caplog, reply):
        session = ScriptedSession(then=reply)
        monkeypatch.setenv("NEGATION_API_URL", "http://fake/chat")
        monkeypatch.setattr(requests, "Session", lambda: session)
        result = runner.invoke(main, ["negate", "The sky is blue"])
        assert result.exit_code == 0, result.output
        assert result.stdout.strip() == "The sky is not blue"
        assert session.requests
        assert "negation failed for cli, using fallback" in caplog.text

    def test_mock_builds_no_index(self, runner, monkeypatch, no_network):
        def refuse(*args, **kwargs):
            raise AssertionError("negate --mock built an index")

        monkeypatch.setattr("veriscope.mock.build_local_index", refuse)
        result = runner.invoke(main, ["negate", "The sky is blue", "--mock"])
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "The sky is not blue"


class TestVerifyCommand:
    CLAIM = "A deficiency of vitamin B12 increases homocysteine levels."

    def test_mock_verify_text_output(self, runner, no_network):
        result = runner.invoke(main, ["verify", self.CLAIM, "--mock"])
        assert result.exit_code == 0, result.output
        assert "Per-source verdicts:" in result.output
        assert "Merged verdict:" in result.output
        assert "Agreement:" in result.output

    def test_json_output_parses(self, runner, no_network):
        result = runner.invoke(main, ["verify", self.CLAIM, "--mock", "--json"])
        assert result.exit_code == 0, result.output
        data = json.loads(result.output)
        assert data["claim"]["text"] == self.CLAIM
        assert set(data["verdicts"]) == {"wikipedia", "pubmed", "web", "merged"}

    def test_unknown_source_exit_2(self, runner):
        result = runner.invoke(main, ["verify", self.CLAIM, "--mock", "--sources", "bing"])
        assert result.exit_code == 2

    def test_source_subset(self, runner, no_network):
        result = runner.invoke(
            main, ["verify", self.CLAIM, "--mock", "--sources", "pubmed", "--json"]
        )
        data = json.loads(result.output)
        assert set(data["verdicts"]) == {"pubmed", "merged"}

    def test_deterministic(self, runner):
        a = runner.invoke(main, ["verify", self.CLAIM, "--mock", "--json"]).output
        b = runner.invoke(main, ["verify", self.CLAIM, "--mock", "--json"]).output
        assert a == b

    def test_original_only_condition(self, runner, no_network):
        result = runner.invoke(
            main, ["verify", self.CLAIM, "--mock", "--condition", "original", "--json"]
        )
        assert result.exit_code == 0, result.output
        data = json.loads(result.output)
        assert data["claim"]["negated_text"] is None
        assert data["condition"] == "original"

    def test_live_without_env_exit_3(self, runner, monkeypatch):
        for var in ("LLM_API_URL", "NEGATION_API_URL", "EMBED_API_URL"):
            monkeypatch.delenv(var, raising=False)
        result = runner.invoke(main, ["verify", self.CLAIM])
        assert result.exit_code == 3


class TestEvaluateCommand:
    def test_mock_evaluate(self, runner, tmp_path, no_network):
        out = tmp_path / "run"
        result = runner.invoke(main, ["evaluate", "--mock", "--out", str(out)])
        assert result.exit_code == 0, result.output
        metrics = json.loads((out / "metrics.json").read_text())
        for report in metrics["per_source"].values():
            for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
                assert key in report
        assert "merged" in result.output

    def test_two_conditions_two_metric_files(self, runner, tmp_path, no_network):
        out_a = tmp_path / "orig"
        out_b = tmp_path / "dual"
        runner.invoke(main, ["evaluate", "--mock", "--condition", "original", "--out", str(out_a)])
        runner.invoke(
            main, ["evaluate", "--mock", "--condition", "original+negated", "--out", str(out_b)]
        )
        a = json.loads((out_a / "metrics.json").read_text())
        b = json.loads((out_b / "metrics.json").read_text())
        assert a["condition"] == "original"
        assert b["condition"] == "original+negated"
        assert a != b

    def test_limit_seed_reproducible(self, runner, tmp_path, no_network):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["evaluate", "--mock", "--limit", "3", "--seed", "7", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            outs.append(sorted(p.name for p in (out / "traces").glob("*.json")))
        assert outs[0] == outs[1]
        assert len(outs[0]) == 3

    def test_repeated_source_usage_error(self, runner, tmp_path):
        out = tmp_path / "dup"
        result = runner.invoke(main, ["evaluate", "--mock", "--sources", "wikipedia,Wikipedia", "--out", str(out)])
        assert result.exit_code == 2
        assert "source 'wikipedia' is given twice" in result.output
        assert not out.exists()

    def test_live_without_claims_usage_error(self, runner):
        result = runner.invoke(main, ["evaluate"])
        assert result.exit_code == 2

    def test_missing_claims_file_usage_error(self, runner, tmp_path):
        claims = tmp_path / "missing.jsonl"
        result = runner.invoke(
            main, ["evaluate", "--mock", "--claims", str(claims), "--out", str(tmp_path / "r")]
        )
        assert result.exit_code == 2, result.output
        assert str(claims) in result.output

    @pytest.mark.parametrize("command", ["verify", "evaluate"])
    @pytest.mark.parametrize(
        "content",
        [None, "[1, 2]", "{not json", json.dumps({"name": "x", "labels": ["a", "b"], "option_letters": ["A", "A"]}),
         json.dumps({"name": "x", "labels": ["a", "abstain"], "option_letters": ["A", "B"]}),
         json.dumps({"name": "x", "labels": "SRN", "option_letters": "ABC"})],
        ids=["missing", "not-an-object", "not-json", "repeated-letter", "abstain-label", "string-labels"],
    )
    def test_bad_scheme_usage_error(self, runner, tmp_path, command, content):
        scheme = tmp_path / "f.json"
        if content is not None:
            scheme.write_text(content)
        args = ["Cats purr."] if command == "verify" else ["--out", str(tmp_path / "r")]
        result = runner.invoke(main, [command, "--mock", "--scheme", str(scheme), *args])
        assert result.exit_code == 2, result.output
        assert str(scheme) in result.output

    def test_config_file_overrides_pipeline_knobs(self, runner, tmp_path, no_network):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"retrieval_depth": 2, "selection_docs": 2, "final_top_p": 3, "seed": 1})
        )
        out = tmp_path / "run"
        result = runner.invoke(
            main, ["evaluate", "--mock", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["config"]["retrieval_depth"] == 2
        assert manifest["config"]["final_top_p"] == 3

    def test_partial_config_inherits_sane_defaults(self, runner, tmp_path, no_network):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retrieval_depth": 2}))
        out = tmp_path / "run"
        result = runner.invoke(
            main, ["evaluate", "--mock", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["config"]["retrieval_depth"] == 2
        assert manifest["config"]["selection_docs"] == 2

    def test_mock_config_starts_from_the_mock_defaults(self, runner, tmp_path, no_network):
        # {"seed": 7} is MOCK_CONFIG's own seed, so nothing else may change.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 7}))
        plain, configured = tmp_path / "plain", tmp_path / "configured"
        assert runner.invoke(main, ["evaluate", "--mock", "--out", str(plain)]).exit_code == 0
        result = runner.invoke(
            main, ["evaluate", "--mock", "--config", str(config), "--out", str(configured)]
        )
        assert result.exit_code == 0, result.output
        assert (configured / "metrics.json").read_bytes() == (plain / "metrics.json").read_bytes()

    def test_mock_depth_caps_the_mock_selection_docs(self, runner, tmp_path, no_network):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retrieval_depth": 4}))
        out = tmp_path / "run"
        result = runner.invoke(
            main, ["evaluate", "--mock", "--limit", "1", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["config"]["retrieval_depth"] == 4
        assert manifest["config"]["selection_docs"] == 3
        assert manifest["config"]["seed"] == 7

    def test_invalid_config_values_usage_error(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retrieval_depth": 0}))
        result = runner.invoke(
            main, ["evaluate", "--mock", "--config", str(config), "--out", str(tmp_path / "r")]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"retrieval_depth": 4.5, "selection_docs": 3}, "invalid pipeline config"),
            ({"retrieval_depth": "4"}, "invalid pipeline config"),
            ({"final_top_p": 2.5}, "invalid pipeline config"),
            ({"merge_heuristic": "false"}, "invalid pipeline config"),
            ({"seed": "7"}, "invalid pipeline config"),
            ({"seed": True}, "invalid pipeline config"),
            ({"remote_embedder": "false"}, "'remote_embedder' must be a JSON boolean"),
            ({"pubmed_dense_fusion": 1}, "'pubmed_dense_fusion' must be a JSON boolean"),
            ({"wikipedia_index": 5}, "'wikipedia_index' must be a JSON string"),
            ({"pubmed_index": ["indexes/pubmed"]}, "'pubmed_index' must be a JSON string"),
            ({"pubmed_dense_fussion": True}, "unknown key 'pubmed_dense_fussion'"),
        ],
        ids=["float-depth", "text-depth", "float-top-p", "text-heuristic", "text-seed", "bool-seed",
             "text-remote-embedder", "number-fusion", "number-index", "list-index", "misspelt-key"],
    )
    def test_wrong_config_types_usage_error(self, runner, tmp_path, knobs, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(knobs))
        result = runner.invoke(main, ["verify", "--mock", "--config", str(config), "Cats purr."])
        assert result.exit_code == 2
        assert message in result.output

    def test_malformed_config_usage_error(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        result = runner.invoke(
            main, ["evaluate", "--mock", "--config", str(config), "--out", str(tmp_path / "r")]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["verify", "evaluate"])
    @pytest.mark.parametrize("value", ["[1, 2]", '"text"', "7", "null"], ids=["list", "string", "number", "null"])
    def test_config_that_is_not_an_object_usage_error(self, runner, tmp_path, no_network, command, value):
        config = tmp_path / "config.json"
        config.write_text(value)
        args = ["Cats purr."] if command == "verify" else ["--out", str(tmp_path / "r")]
        result = runner.invoke(main, [command, "--mock", "--config", str(config), *args])
        assert result.exit_code == 2, result.output
        assert f"config file {config} must hold a JSON object" in result.output

    def test_mock_rejects_remote_provider_request(self, runner, tmp_path, no_network):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"remote_embedder": True}))
        result = runner.invoke(
            main, ["evaluate", "--mock", "--config", str(config), "--out", str(tmp_path / "r")]
        )
        assert result.exit_code == 3

    def test_refused_resume_is_a_configuration_error(self, runner, tmp_path, no_network):
        out = str(tmp_path / "run")
        first = runner.invoke(main, ["evaluate", "--mock", "--limit", "1", "--out", out])
        assert first.exit_code == 0, first.output
        result = runner.invoke(
            main, ["evaluate", "--mock", "--condition", "original", "--limit", "1", "--out", out]
        )
        assert result.exit_code == 3
        assert "configuration error: " in result.output
        assert "different condition" in result.output
        assert "provider" not in result.output

    def test_resume_onto_a_trace_field_of_another_json_type_exits_3_naming_it(self, runner, tmp_path, no_network):
        out = tmp_path / "run"
        assert runner.invoke(main, ["evaluate", "--mock", "--limit", "1", "--out", str(out)]).exit_code == 0
        (trace,) = (out / "traces").glob("*.json")
        data = json.loads(trace.read_text())
        data["verdicts"]["web"]["abstained"] = "false"
        trace.write_text(json.dumps(data))
        result = runner.invoke(main, ["evaluate", "--mock", "--limit", "1", "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert trace.name in result.output
        assert "expected a JSON boolean, got string" in result.output

    def test_seed_flag_beats_config_file(self, runner, tmp_path, no_network):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1}))
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["evaluate", "--mock", "--config", str(config), "--seed", "9", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["config"]["seed"] == 9


class TestOptionRanges:
    @pytest.mark.parametrize(
        "option, value",
        [("--limit", "0"), ("--limit", "-1"), ("--max-workers", "0")],
    )
    def test_evaluate_rejects_out_of_range(self, runner, tmp_path, option, value):
        out = tmp_path / "run"
        result = runner.invoke(main, ["evaluate", "--mock", option, value, "--out", str(out)])
        assert result.exit_code == 2
        assert option in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args", [["verify", "--mock", "  "], ["negate", "--mock", ""]], ids=["verify", "negate"])
    def test_blank_claim_text_usage_error(self, runner, no_network, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "Invalid value for 'CLAIM_TEXT'" in result.output

    def test_limit_one_runs_one_claim(self, runner, tmp_path, no_network):
        out = tmp_path / "run"
        result = runner.invoke(main, ["evaluate", "--mock", "--limit", "1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert len(list((out / "traces").glob("*.json"))) == 1

    def test_analyze_grid_points_range(self, runner, tmp_path, no_network):
        out = tmp_path / "run"
        assert runner.invoke(main, ["evaluate", "--mock", "--out", str(out)]).exit_code == 0
        result = runner.invoke(main, ["analyze", str(out), "--grid-points", "1"])
        assert result.exit_code == 2
        assert "--grid-points" in result.output
        result = runner.invoke(main, ["analyze", str(out), "--grid-points", "2"])
        assert result.exit_code == 0, result.output


class TestAnalyzeCommand:
    def _evaluated(self, runner, tmp_path):
        out = tmp_path / "run"
        result = runner.invoke(main, ["evaluate", "--mock", "--out", str(out)])
        assert result.exit_code == 0, result.output
        return out

    def test_analyze_writes_kde(self, runner, tmp_path, no_network):
        out = self._evaluated(runner, tmp_path)
        result = runner.invoke(main, ["analyze", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "kde.csv").exists()

    @pytest.mark.parametrize("sources,coverage", [
        ("wikipedia,pubmed,web", "5 of 5 claims have a regime; 0 lack one for an abstaining source, "
                                 "0 for a run without three sources"),
        ("wikipedia,pubmed", "0 of 5 claims have a regime; 0 lack one for an abstaining source, "
                             "5 for a run without three sources"),
    ], ids=["three-sources", "two-sources"])
    def test_regime_coverage_on_stderr(self, runner, tmp_path, no_network, sources, coverage):
        out = tmp_path / "run"
        result = runner.invoke(main, ["evaluate", "--mock", "--sources", sources, "--out", str(out)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["analyze", str(out)])
        assert result.exit_code == 0, result.output
        assert coverage in result.stderr
        assert result.stdout.startswith(f"wrote {out / 'kde.csv'} (")

    def test_each_skipped_curve_is_reported_once(self, runner, tmp_path, no_network, caplog):
        out = self._evaluated(runner, tmp_path)
        result = runner.invoke(main, ["analyze", str(out)])
        assert result.exit_code == 0, result.output
        skipped = [line for line in result.stderr.splitlines() if line.startswith("skipped regime=")]
        assert skipped and len(set(skipped)) == len(skipped)
        # the returned skips are the one report: no log record repeats them
        assert "skipping KDE" not in result.stderr + caplog.text

    def test_missing_confidences_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["analyze", str(tmp_path)])
        assert result.exit_code == 2

    def test_truncated_confidences_exit_3_naming_the_file(self, runner, tmp_path, no_network):
        out = self._evaluated(runner, tmp_path)
        confidences = out / "confidences.csv"
        confidences.write_bytes(confidences.read_bytes()[:300])
        result = runner.invoke(main, ["analyze", str(out)])
        assert result.exit_code == 3, result.output
        assert f"configuration error: {confidences} line " in result.output
        assert not (out / "kde.csv").exists()

    def test_unreadable_confidences_exit_3_naming_the_file(self, runner, tmp_path):
        confidences = tmp_path / "confidences.csv"
        confidences.mkdir()
        result = runner.invoke(main, ["analyze", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert f"configuration error: {confidences}: " in result.output
        assert not (tmp_path / "kde.csv").exists()

    def test_rerun_identical(self, runner, tmp_path, no_network):
        out = self._evaluated(runner, tmp_path)
        runner.invoke(main, ["analyze", str(out)])
        first = (out / "kde.csv").read_bytes()
        runner.invoke(main, ["analyze", str(out)])
        assert (out / "kde.csv").read_bytes() == first

    def test_svg_option(self, runner, tmp_path, no_network):
        out = self._evaluated(runner, tmp_path)
        result = runner.invoke(main, ["analyze", str(out), "--svg"])
        assert result.exit_code == 0
        assert (out / "kde.svg").read_text().startswith("<svg")

    def test_single_sample_groups_warned(self, runner, tmp_path, no_network):
        out = self._evaluated(runner, tmp_path)
        result = runner.invoke(main, ["analyze", str(out)])
        # the fixture run has an all-agree regime with a single claim
        assert "skipped regime=" in result.output or "curves" in result.output
