import json
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import cut_index_file
from veriscope.assets import fixture_path
from veriscope.errors import ConfigurationError, EmptyCorpus
from veriscope.index import LocalIndex, build_local_index


def write_corpus(path, records):
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def assert_same_files(dir_a, dir_b):
    names = sorted(path.name for path in dir_a.iterdir())
    assert names == sorted(path.name for path in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


GOOD = [
    {"doc_id": "d1", "title": "Cats", "body": "cat sat"},
    {"doc_id": "d2", "title": "Dogs", "body": "dog ran far"},
]


class TestBuildLocalIndex:
    def test_counts(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, [{"doc_id": "d1", "title": "", "body": "cat sat"}])
        index = build_local_index(corpus)
        assert index.doc_count == 1
        assert index.term_count == 2
        assert index.avg_doc_length == 2.0

    def test_repeated_doc_id_rejected(self):
        # Keeping the later body would leave the earlier body's postings behind.
        with pytest.raises(ValueError, match="duplicate doc_id 'a'"):
            LocalIndex.from_documents([("a", "", "cat sat"), ("a", "", "dog")])

    def test_corpus_without_tokens(self, tmp_path):
        index = LocalIndex.from_documents([("a", "", "?!"), ("b", "", "")])
        index.save(tmp_path / "index")
        for candidate in (index, LocalIndex.load(tmp_path / "index")):
            assert candidate.term_count == 0
            assert candidate.ranked("cat") == []

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_local_index(tmp_path / "nope.jsonl")

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        with pytest.raises(EmptyCorpus):
            build_local_index(corpus)

    def test_malformed_lines_skipped_with_lineno(self, tmp_path, caplog):
        corpus = tmp_path / "corpus.jsonl"
        lines = [
            json.dumps(GOOD[0]),
            "not json at all",
            json.dumps({"doc_id": "d3", "title": "x"}),  # missing body
            json.dumps({"doc_id": "", "title": "x", "body": "y"}),
            json.dumps(GOOD[1]),
            json.dumps(GOOD[0]),  # duplicate doc_id
        ]
        not_utf8 = b'{"doc_id": "d4", "title": "x", "body": "\xff"}\n'
        corpus.write_bytes(("\n".join(lines) + "\n").encode() + not_utf8)
        with caplog.at_level("WARNING"):
            index = build_local_index(corpus)
        assert index.doc_count == 2
        assert index.skipped == 5
        assert "line 7 rejected: the line is not UTF-8" in caplog.text
        assert "line 2" in caplog.text
        assert "line 3" in caplog.text
        assert "duplicate doc_id" in caplog.text

    def test_malformed_only_corpus_is_empty(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("garbage\n{}\n")
        with pytest.raises(EmptyCorpus):
            build_local_index(corpus)

    def test_directory_of_jsonl_files(self, tmp_path):
        (tmp_path / "b.jsonl").write_text(json.dumps(GOOD[1]) + "\n")
        (tmp_path / "a.jsonl").write_text(json.dumps(GOOD[0]) + "\n")
        index = build_local_index(tmp_path)
        assert index.doc_count == 2

    def test_directory_lines_are_numbered_per_file(self, tmp_path, caplog):
        (tmp_path / "1.jsonl").write_text(json.dumps(GOOD[0]) + "\n" + json.dumps(GOOD[1]) + "\n")
        (tmp_path / "2.jsonl").write_text("not json\n")
        with caplog.at_level("WARNING"):
            index = build_local_index(tmp_path)
        assert index.doc_count == 2
        assert "2.jsonl line 1 rejected:" in caplog.text
        assert "line 3" not in caplog.text


class TestPersistence:
    def test_round_trip(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, GOOD)
        index_dir = tmp_path / "index"
        built = build_local_index(corpus, index_dir)
        loaded = LocalIndex.load(index_dir)
        assert loaded.doc_count == built.doc_count
        assert loaded.term_count == built.term_count
        assert loaded.avg_doc_length == built.avg_doc_length
        assert loaded.by_row == built.by_row
        # loaded index ranks identically
        for query in ("cat", "dog ran", "far cat"):
            got = [(d.doc_id, s) for d, s in loaded.ranked(query)]
            want = [(d.doc_id, s) for d, s in built.ranked(query)]
            assert got == want

    def test_reindexing_byte_identical(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, GOOD)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        build_local_index(corpus, dir_a)
        build_local_index(corpus, dir_b)
        assert_same_files(dir_a, dir_b)

    def test_load_save_byte_identical(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, GOOD)
        dir_a = tmp_path / "a"
        build_local_index(corpus, dir_a)
        dir_b = tmp_path / "b"
        LocalIndex.load(dir_a).save(dir_b)
        assert_same_files(dir_a, dir_b)

    def test_document_order_does_not_change_the_bytes(self, tmp_path):
        docs = [("d2", "", "dog ran far cat"), ("d1", "", "cat sat cat"), ("d3", "", "far far")]
        LocalIndex.from_documents(docs).save(tmp_path / "a")
        LocalIndex.from_documents(reversed(docs)).save(tmp_path / "b")
        assert_same_files(tmp_path / "a", tmp_path / "b")

    def test_layout_is_flat_and_unpickled(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, GOOD)
        build_local_index(corpus, tmp_path / "index")
        names = sorted(path.name for path in (tmp_path / "index").iterdir())
        assert names == ["docs.jsonl", "manifest.json", "offsets.npy", "rows.npy", "terms.json", "tf.npy"]
        for name in ("offsets.npy", "rows.npy", "tf.npy"):
            assert np.load(tmp_path / "index" / name, allow_pickle=False).dtype.kind == "i"

    def test_rejects_unknown_format(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, GOOD)
        index_dir = tmp_path / "index"
        build_local_index(corpus, index_dir)
        manifest = json.loads((index_dir / "manifest.json").read_text())
        manifest["format"] = "other/9"
        (index_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="veriscope index"):
            LocalIndex.load(index_dir)

    def test_rejects_format_1_layout(self, tmp_path):
        index_dir = tmp_path / "v1"
        index_dir.mkdir()
        manifest = {"avg_doc_length": 2.0, "doc_count": 1, "format": "veriscope-index/1", "term_count": 2}
        (index_dir / "manifest.json").write_text(json.dumps(manifest))
        (index_dir / "postings.json").write_text('{"cat":[["d1",1]],"sat":[["d1",1]]}\n')
        (index_dir / "docs.jsonl").write_text(
            json.dumps({"body": "cat sat", "doc_id": "d1", "length": 2, "title": ""}) + "\n"
        )
        with pytest.raises(ConfigurationError) as refused:
            LocalIndex.load(index_dir)
        assert str(index_dir) in str(refused.value)
        assert "veriscope-index/1" in str(refused.value)
        assert "veriscope index" in str(refused.value)

    def test_rejects_missing_directory(self, tmp_path):
        with pytest.raises(ConfigurationError, match="veriscope index"):
            LocalIndex.load(tmp_path / "nowhere")

    def test_rejects_postings_that_do_not_match_the_terms(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, GOOD)
        index_dir = tmp_path / "index"
        build_local_index(corpus, index_dir)
        (index_dir / "terms.json").write_text('["cat"]\n')
        with pytest.raises(ConfigurationError, match="veriscope index"):
            LocalIndex.load(index_dir)

    @pytest.mark.parametrize("name", ["docs.jsonl", "terms.json"])
    def test_rejects_files_shorter_than_the_manifest(self, tmp_path, name):
        index_dir = tmp_path / "index"
        build_local_index(fixture_path("corpus_pubmed.jsonl"), index_dir)
        cut_index_file(index_dir, name)
        with pytest.raises(ConfigurationError, match="not the manifest's") as refused:
            LocalIndex.load(index_dir)
        assert "veriscope index" in str(refused.value)

    @pytest.mark.parametrize("name, damage", [
        ("manifest.json", lambda path: path.write_text("[]")),
        ("docs.jsonl", lambda path: path.write_text("[1]\n" + path.read_text().split("\n", 1)[1])),
        ("docs.jsonl", lambda path: path.write_text('"x"\n' + path.read_text().split("\n", 1)[1])),
        ("terms.json", lambda path: path.write_text("7\n")),
        ("rows.npy", lambda path: np.save(path, np.load(path).astype(float), allow_pickle=False)),
        ("terms.json", lambda path: path.write_text(json.dumps(list(range(len(json.loads(path.read_text()))))))),
        ("docs.jsonl", lambda path: path.write_text(re.sub(r'"length": (\d+)', r'"length": "\1"',
                                                           path.read_text(), count=1))),
    ], ids=["manifest-array", "docs-array", "docs-string", "terms-number", "rows-float",
            "terms-integers", "docs-length-string"])
    def test_rejects_malformed_files(self, tmp_path, name, damage):
        index_dir = tmp_path / "index"
        build_local_index(fixture_path("corpus_pubmed.jsonl"), index_dir)
        damage(index_dir / name)
        with pytest.raises(ConfigurationError, match="veriscope index") as refused:
            LocalIndex.load(index_dir)
        assert name in str(refused.value)


def test_fresh_index_ranks_the_same_from_threads():
    # The posting contributions are derived on first use.  Eight threads start together
    # on one fresh index and ask the same queries in the same order, so they
    # race on every first use, and each must get the serial results.
    rng = random.Random(5)
    words = [f"w{i}" for i in range(60)]
    weights = [1.0 / rank for rank in range(1, len(words) + 1)]
    docs = [
        (f"d{i}", "", " ".join(rng.choices(words, weights, k=rng.randint(1, 15))))
        for i in range(150)
    ]
    queries = [" ".join(rng.choices(words, weights, k=rng.randint(1, 5))) for _ in range(60)]
    asked = [(query, k) for query in queries for k in (None, 5)]
    serial = LocalIndex.from_documents(docs)
    expected = [serial.ranked(query, k) for query, k in asked]
    fresh = LocalIndex.from_documents(docs)
    start = threading.Barrier(8, timeout=10)

    def worker(_):
        start.wait()
        return [fresh.ranked(query, k) for query, k in asked]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert got == expected
