"""Self-tests of the benchmark's own parts.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import corpus
import gate
import spans
from proxy import LatencyProxy, ProxyStats

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def _bundle_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


# -- generator -----------------------------------------------------------------


def test_generator_is_deterministic_per_seed(tmp_path):
    a = corpus.generate(tmp_path / "a", 800, seed=7)
    b = corpus.generate(tmp_path / "b", 800, seed=7)
    c = corpus.generate(tmp_path / "c", 800, seed=8)
    assert a == b
    assert _bundle_bytes(tmp_path / "a") == _bundle_bytes(tmp_path / "b")
    assert _bundle_bytes(tmp_path / "a")["responses.csv"] != _bundle_bytes(tmp_path / "c")["responses.csv"]


def test_generator_covers_the_traffic_dimensions(tmp_path):
    n = 5000
    counts = corpus.generate(tmp_path, n, seed=3)
    assert counts.open_responses == n
    assert counts.pre_2022_studies >= 1 and counts.post_2022_studies >= 1
    assert counts.open_questions == 50 and counts.other_questions >= 1
    assert counts.other_responses >= counts.other_questions
    assert 0.01 < counts.empty / n < 0.03
    assert 0.12 < counts.short_duplicates / n < 0.18
    assert 0.01 < counts.marker / n < 0.03
    assert counts.distinct_open_texts < n - counts.short_duplicates + len(corpus.SHORT_POOL)
    assert sum(m for m, _ in counts.detector_expected.values()) == counts.marker
    assert sum(t for _, t in counts.detector_expected.values()) == n - counts.empty
    with open(tmp_path / "questions.csv", encoding="utf-8", newline="") as fh:
        open_ids = {q["question_id"] for q in csv.DictReader(fh) if q["kind"] == "open_ended"}
    with open(tmp_path / "responses.csv", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["question_id"] in open_ids]
    assert sum(corpus.MARKER.lower() in r["text"].lower() for r in rows) == counts.marker
    free = [len(r["text"].split()) for r in rows if corpus.MARKER not in r["text"]
            and r["text"].strip() and r["text"] not in corpus.SHORT_POOL]
    assert min(free) == corpus.MIN_WORDS and max(free) == corpus.MAX_WORDS


# -- latency proxy -------------------------------------------------------------


class _Provider:
    provider_id = "fake"

    def embed(self, text):
        if text == "bad":
            raise RuntimeError("boom")
        return [1.0]

    def embed_many(self, texts):
        return [[1.0] for _ in texts]


def test_proxy_counts_are_exact_under_threads():
    stats = ProxyStats()
    proxy = LatencyProxy(_Provider(), 0.0005, stats)
    threads_n, calls = 8, 150
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=lambda i=i: [proxy.embed(f"t{i}-{k % 50}") for k in range(calls)])
            for i in range(threads_n)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    snap = stats.snapshot()
    assert snap["requests"] == threads_n * calls
    assert snap["texts"] == threads_n * calls
    assert snap["distinct_requests"] == threads_n * 50
    assert len(snap["durations"]) == threads_n * calls
    assert 2 <= snap["max_in_flight"] <= threads_n
    assert snap["failures"] == 0 and stats.in_flight == 0


def test_proxy_delegates_new_methods_and_counts_failures():
    stats = ProxyStats()
    seen = []
    proxy = LatencyProxy(_Provider(), 0.001, stats, on_request=lambda m, s, e: seen.append((m, e - s)))
    assert proxy.provider_id == "fake"
    assert proxy.embed_many(["a", "b", "c"]) == [[1.0]] * 3
    with pytest.raises(RuntimeError):
        proxy.embed("bad")
    snap = stats.snapshot()
    assert (snap["requests"], snap["texts"], snap["failures"]) == (2, 4, 1)
    assert [m for m, _ in seen] == ["embed_many", "embed"]
    assert all(d >= 0.001 for _, d in seen)


# -- span arithmetic -----------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert spans.covered(0, 10, []) == 0
    assert spans.covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == pytest.approx(5)
    assert spans.covered(0, 10, [(-5, 2), (9, 20)]) == pytest.approx(3)
    assert spans.covered(0, 10, [(0, 10), (3, 4)]) == pytest.approx(10)
    assert spans.covered(0, 10, [(11, 12)]) == 0


def test_self_time_and_outermost():
    # command 1 [0, 10]: write [1, 4] containing write [2, 3]; two threads'
    # calls [5, 8] and [6, 9] overlap; a grandchild [5.5, 6] of the first.
    raw = [
        [1, None, "cli.score", 0.0, 10.0, None],
        [2, 1, "dataset.write", 1.0, 4.0, {"bytes": 10}],
        [3, 2, "dataset.write", 2.0, 3.0, {"bytes": 4}],
        [4, 1, "gateway.embed", 5.0, 8.0, None],
        [5, 1, "gateway.embed", 6.0, 9.0, None],
        [6, 4, "gateway.key", 5.5, 6.0, None],
    ]
    idx = spans.SpanIndex(raw)
    assert idx.self_time(raw[0]) == pytest.approx(10 - 3 - 4)
    assert idx.self_time(raw[1]) == pytest.approx(2)
    assert idx.self_time(raw[3]) == pytest.approx(2.5)
    assert idx.total("dataset.write") == pytest.approx(3)
    assert idx.attr_sum("dataset.write", "bytes", outermost=True) == 10
    assert idx.attr_sum("dataset.write", "bytes") == 14


def test_layer_without_calls_is_missing_not_zero():
    raw = [
        [1, None, "cli.score", 0.0, 2.0, None],
        [2, 1, "scoring.score", 0.5, 1.0, {"pairs": 20}],
    ]
    proxy = {"requests": 0, "texts": 0, "failures": 0, "max_in_flight": 0,
             "distinct_requests": 0, "durations": []}
    m = spans.layer_metrics(raw, [{"proxy": proxy}])
    assert m["scoring.pairs"] == 20
    assert m["scoring.us_per_pair"] == pytest.approx(0.5e6 / 20)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["detector.batch_s"] is None
    assert m["providers.requests"] is None
    assert set(m) == {name for name, _ in spans.PER_LAYER}


# -- correctness gate on a real (tiny) run -------------------------------------


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """gen-signatures, score, score again (warm) and detect-llm on 150 responses."""
    root = tmp_path_factory.mktemp("tiny")
    counts = corpus.generate(root / "corpus", 150, seed=5)
    config = root / "config.json"
    corpus.write_config(config, root / "corpus", root / "cache", root / "out", seed=5)
    argv = lambda cmd: {"label": cmd, "argv": [cmd, "--config", str(config)]}  # noqa: E731
    spec = {
        "src": str(SRC), "trace": True, "delay_s": 0.0, "output_dir": str(root / "out"),
        "result": str(root / "result.json"),
        "commands": [argv("gen-signatures"), argv("score"), argv("score"), argv("detect-llm")],
    }
    (root / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), str(root / "spec.json")],
        check=True, timeout=300,
    )
    result = json.loads((root / "result.json").read_text(encoding="utf-8"))
    return root, counts, result


def _cohorts():
    return {sid: "pre_2022" if month < "2022" else "post_2022" for sid, month in corpus.STUDIES}


def _embedder():
    sys.path.insert(0, str(SRC))
    from surveyguard.providers import MockEmbeddingProvider

    return MockEmbeddingProvider(seed=5, dim=corpus.EMBED_DIM)


def test_gate_passes_on_the_real_artifacts(tiny_run):
    root, counts, result = tiny_run
    out = root / "out"
    assert gate.check_commands(result) == []
    assert gate.check_warm(result["commands"][2]) == []
    assert gate.check_max_cosine(out, root / "corpus", _embedder(), 50, seed=1) == []
    assert gate.check_sweep(out, _cohorts()) == []
    assert gate.check_detector(out, corpus.DETECTOR_MODEL, counts.detector_expected) == []
    first, second = result["commands"][1]["outputs"], result["commands"][2]["outputs"]
    assert gate.check_identical([("cold", first), ("warm", second)]) == []


def test_traced_child_reports_every_layer_it_exercised(tiny_run):
    _root, _counts, result = tiny_run
    assert result["missing_targets"] == []
    m = spans.layer_metrics(result["spans"], result["commands"])
    assert m["scoring.responses"] > 0 and m["scoring.pairs"] >= m["scoring.responses"]
    assert m["gateway.cache_hits"] > 0 and m["gateway.cache_misses"] > 0
    assert m["providers.requests"] == m["gateway.cache_misses"]  # every miss is one request
    assert m["detector.verdicts"] > 0 and m["signatures.cells"] == 50 * 20
    assert m["report.sweep_s"] > 0 and m["dataset.write_bytes"] > 0


def test_gate_fails_on_a_warm_pass_that_makes_a_request(tiny_run):
    _root, _counts, result = tiny_run
    cold = result["commands"][1]
    assert cold["proxy"]["requests"] > 0
    assert any("warm pass made" in f for f in gate.check_warm(cold))
    quiet = dict(result["commands"][2], proxy=dict(result["commands"][2]["proxy"], requests=1))
    assert gate.check_warm(quiet)
    lying = dict(result["commands"][2], stdout="provider calls: 3 (cache hits: 0)\n")
    assert gate.check_warm(lying)


def test_gate_fails_on_corrupted_artifact_copies(tiny_run, tmp_path):
    root, counts, result = tiny_run
    bad = tmp_path / "out"
    shutil.copytree(root / "out", bad)
    scored_path = bad / "scored_basic.json"
    rows = json.loads(scored_path.read_text(encoding="utf-8"))
    victim = next(r for r in rows if r["final_score"] is not None)
    victim["final_score"] += 1e-9
    scored_path.write_text(json.dumps(rows), encoding="utf-8")
    # Sample every response so the corrupted one is checked.
    assert gate.check_max_cosine(bad, root / "corpus", _embedder(), len(rows), seed=1)

    rows = json.loads((root / "out" / "scored_basic.json").read_text(encoding="utf-8"))
    victim = next(r for r in rows if r["final_score"] is not None and r["final_score"] < 0.25)
    victim["final_score"] = 0.3  # now above several thresholds: sweep counts disagree
    scored_path.write_text(json.dumps(rows), encoding="utf-8")
    assert gate.check_sweep(bad, _cohorts())

    detector = bad / f"detector_{corpus.DETECTOR_MODEL}.json"
    dump = json.loads(detector.read_text(encoding="utf-8"))
    dump["studies"][0]["percentage"]["num"] += 1
    detector.write_text(json.dumps(dump), encoding="utf-8")
    assert gate.check_detector(bad, corpus.DETECTOR_MODEL, counts.detector_expected)

    digests = result["commands"][2]["outputs"]
    changed = dict(digests, **{"sweep.json": "0" * 64})
    assert gate.check_identical([("a", digests), ("b", changed)])


def test_gate_reports_a_failed_command():
    record = {"label": "score", "exit_code": 2, "error": None, "stdout": "data error",
              "proxy": {"failures": 0}}
    assert gate.check_commands({"commands": [record]})
    record = dict(record, exit_code=0, proxy={"failures": 1})
    assert gate.check_commands({"commands": [record]})

