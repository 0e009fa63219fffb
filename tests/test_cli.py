import argparse
import contextlib
import csv
import errno
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import cache_entries, entry_request, rewrite_cache, src_env, write_bundle, write_v1_pack
from surveyguard import cli
from surveyguard.cli import RunConfig, build_parser, main
from surveyguard.errors import ProviderError
from surveyguard.gateway import EMBED_BATCH, canonical_json
from surveyguard.scoring import meets_threshold


def run_cli(capsys, *args) -> tuple[int, str, str]:
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base_args(corpus_path, tmp_path, command, *extra):
    return [
        command,
        "--dataset", corpus_path,
        "--cache-dir", tmp_path / "cache",
        "--output-dir", tmp_path / "out",
        "--mock",
        *extra,
    ]


class TestValidate:
    def test_fixture_corpus_is_valid(self, capsys, corpus_path, tmp_path):
        code, out, _ = run_cli(capsys, *base_args(corpus_path, tmp_path, "validate"))
        assert code == 0
        assert "studies: 2, questions: 3, responses: 9" in out
        assert "dataset OK" in out
        assert "s1 [pre_2022]" in out

    def test_python_dash_m_runs_the_cli(self, corpus_path):
        for module in ("surveyguard", "surveyguard.cli"):
            result = subprocess.run(
                [sys.executable, "-m", module, "validate", "--dataset", str(corpus_path)],
                capture_output=True, text=True, env=src_env(), timeout=60,
            )
            assert result.returncode == 0, result.stderr
            assert "dataset OK" in result.stdout

    @pytest.mark.parametrize(
        "dataset, message",
        [("nope", "missing file: {}"), ("bundle", "cannot read {}/studies.csv: Is a directory")],
    )
    def test_missing_dataset_exits_2_with_stderr(self, capsys, tmp_path, dataset, message):
        (tmp_path / "bundle" / "studies.csv").mkdir(parents=True)  # a directory in a table file's place
        code, _, err = run_cli(
            capsys, "validate", "--dataset", tmp_path / dataset, "--mock",
            "--cache-dir", tmp_path / "c", "--output-dir", tmp_path / "o",
        )
        assert code == 2
        assert err == f"data error: {message.format(tmp_path / dataset)}\n"

    def test_no_dataset_configured_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", "--mock")
        assert code == 1
        assert "no dataset configured" in err


class TestGenSignatures:
    def test_default_basic_grid_writes_20_per_question(self, capsys, corpus_path, tmp_path):
        code, out, _ = run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
        assert code == 0
        for qid in ("q1", "q2"):
            store = json.loads(
                (tmp_path / "out" / "signatures" / "basic" / f"{qid}.json").read_text(encoding="utf-8")
            )
            assert len(store["signatures"]) == 20
        assert not (tmp_path / "out" / "signatures" / "basic" / "q3.json").exists()
        assert "provider calls: " in out

    def test_a_dataset_with_no_open_ended_question_is_a_data_error(self, capsys, tmp_path):
        dataset = write_bundle(
            tmp_path / "bundle",
            studies=[["s1", "Study", "2021-06", "d", "p"]],
            questions=[["q1", "s1", "other", "How old are you?"]],
            responses=[["r1", "q1", "30", ""]],
        )
        code, _, err = run_cli(capsys, *base_args(dataset, tmp_path, "gen-signatures"))
        assert code == 2
        assert err == "data error: dataset has no open-ended questions\n"
        assert not (tmp_path / "out").exists()

    def test_rerun_with_warm_cache_is_identical_with_zero_calls(self, capsys, corpus_path, tmp_path):
        args = base_args(corpus_path, tmp_path, "gen-signatures")
        run_cli(capsys, *args)
        first = (tmp_path / "out" / "signatures" / "basic" / "q1.json").read_bytes()
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert (tmp_path / "out" / "signatures" / "basic" / "q1.json").read_bytes() == first
        assert "provider calls: 0" in out

    def test_sentiment_strategy_writes_60_cells(self, capsys, corpus_path, tmp_path):
        code, _, _ = run_cli(
            capsys, *base_args(corpus_path, tmp_path, "gen-signatures", "--strategy", "sentiment")
        )
        assert code == 0
        store = json.loads(
            (tmp_path / "out" / "signatures" / "sentiment" / "q1.json").read_text(encoding="utf-8")
        )
        assert len(store["signatures"]) == 60

    def test_small_grid_override(self, capsys, corpus_path, tmp_path):
        code, _, _ = run_cli(
            capsys,
            *base_args(
                corpus_path, tmp_path, "gen-signatures", "--models", "m1,m2", "--temps", "0,0.5"
            ),
        )
        assert code == 0
        store = json.loads(
            (tmp_path / "out" / "signatures" / "basic" / "q1.json").read_text(encoding="utf-8")
        )
        assert len(store["signatures"]) == 4
        assert store["grid"]["models"] == ["m1", "m2"]


class TestScore:
    def test_score_without_signatures_names_the_gap(self, capsys, corpus_path, tmp_path):
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "score"))
        assert code == 2
        assert "q1" in err and "q2" in err
        assert "gen-signatures" in err

    def test_sentiment_strategy_without_store_errors(self, capsys, corpus_path, tmp_path):
        run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
        code, _, err = run_cli(
            capsys, *base_args(corpus_path, tmp_path, "score", "--strategy", "sentiment")
        )
        assert code == 2
        assert "sentiment" in err

    def test_score_writes_all_artifacts(self, capsys, corpus_path, tmp_path):
        run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
        code, out, _ = run_cli(capsys, *base_args(corpus_path, tmp_path, "score"))
        assert code == 0
        out_dir = tmp_path / "out"
        for name in ("scored_basic.json", "sweep.json", "sweep.md", "sweep.csv",
                     "cases_basic.json", "histogram_basic.csv"):
            assert (out_dir / name).exists(), name
        scored = json.loads((out_dir / "scored_basic.json").read_text(encoding="utf-8"))
        assert len(scored) == 8  # q3 is not open-ended
        empty_rows = [r for r in scored if "empty" in r["flags"]]
        assert [r["response_id"] for r in empty_rows] == ["r03"]
        assert empty_rows[0]["final_score"] is None

    def test_single_threshold_yields_single_row_sweep(self, capsys, corpus_path, tmp_path):
        run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
        code, _, _ = run_cli(
            capsys, *base_args(corpus_path, tmp_path, "score", "--thresholds", "0.8")
        )
        assert code == 0
        sweep = json.loads((tmp_path / "out" / "sweep.json").read_text(encoding="utf-8"))
        assert len(sweep["rows"]) == 1
        assert sweep["rows"][0]["threshold"] == 0.8

    def test_full_scores_mode_includes_per_signature(self, capsys, corpus_path, tmp_path):
        run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
        run_cli(capsys, *base_args(corpus_path, tmp_path, "score", "--scores", "full"))
        scored = json.loads((tmp_path / "out" / "scored_basic.json").read_text(encoding="utf-8"))
        non_empty = next(r for r in scored if r["final_score"] is not None)
        assert len(non_empty["per_signature"]) == 20


class SlowRecordingEmbedder(cli.MockEmbeddingProvider):
    """The mock's vectors after a delay; records each request and the peak in flight.

    A request holding ``fail_on`` fails for good. Set the class attributes before a run.
    """

    requests: list[list[str]] = []
    fail_on: str | None = None
    in_flight = peak = 0
    lock = threading.Lock()

    def embed_many(self, texts):
        cls = SlowRecordingEmbedder
        with cls.lock:
            cls.requests.append(list(texts))
            cls.in_flight += 1
            cls.peak = max(cls.peak, cls.in_flight)
        try:
            time.sleep(0.05)
            if cls.fail_on in texts:
                raise ProviderError("bad request", status=400)
            return super().embed_many(texts)
        finally:
            with cls.lock:
                cls.in_flight -= 1


class TestColdScoreFetchesEveryQuestionInOnePass:
    SHARED = "Shared by the first and the last question."

    @pytest.fixture
    def run(self, capsys, monkeypatch, tmp_path):
        """Six open questions of 30 answers each, one answer shared by two of them, and
        their basic signatures. Returns a score runner with a fresh recording embedder, and
        the distinct texts to embed."""
        questions = [[f"q{n}", "s1", "open_ended", f"Question {n}?"] for n in range(6)]
        responses = [
            [f"r{n}-{i:02d}", f"q{n}", f"Answer {i} to question {n}.", "2021-06-03"]
            for n in range(6)
            for i in range(30)
        ]
        responses[0][2] = responses[-1][2] = self.SHARED
        studies = [["s1", "Study", "2021-06", "software", "mturk"]]
        dataset = write_bundle(tmp_path / "data", studies, questions, responses)
        args = ["--dataset", dataset, "--cache-dir", tmp_path / "cache", "--output-dir", tmp_path / "out"]
        code, _, _ = run_cli(capsys, "gen-signatures", "--models", "m1", "--temps", "0,0.5", "--mock", *args)
        assert code == 0
        monkeypatch.setattr(cli, "MockEmbeddingProvider", SlowRecordingEmbedder)

        def score(fail_on=None):
            SlowRecordingEmbedder.requests = []
            SlowRecordingEmbedder.fail_on = fail_on
            SlowRecordingEmbedder.peak = 0
            code, _, _ = run_cli(capsys, "score", "--mock", *args)
            return code, SlowRecordingEmbedder.requests

        store_dir = tmp_path / "out" / "signatures" / "basic"
        stores = [json.loads(path.read_text(encoding="utf-8")) for path in store_dir.glob("*.json")]
        assert max(len(store["signatures"]) for store in stores) + 30 < EMBED_BATCH  # no question fills one
        distinct = {s["text"] for store in stores for s in store["signatures"]} | {r[2] for r in responses}
        assert len(distinct) > 2 * EMBED_BATCH
        return score, distinct

    def test_batches_span_questions_and_overlap(self, run):
        score, distinct = run
        code, requests = score()
        assert code == 0
        sent = [text for texts in requests for text in texts]
        assert sorted(sent) == sorted(distinct)  # each once, the shared answer too
        assert len(requests) == math.ceil(len(distinct) / EMBED_BATCH)
        assert SlowRecordingEmbedder.peak > 1
        assert score() == (0, [])  # the warm rerun makes no call

    def test_a_batch_that_fails_for_good_exits_3_after_the_others_are_stored(self, run):
        score, _ = run
        code, requests = score(fail_on="Answer 5 to question 3.")
        assert code == 3
        failed = next(texts for texts in requests if "Answer 5 to question 3." in texts)
        code, requests = score()
        assert code == 0
        assert requests == [failed]  # only the failed batch's texts were missing
        assert score() == (0, [])


class SlowRecordingChat(cli.MockChatProvider):
    """The mock's completions after a delay; records the questions in flight together.

    A request for a question in ``fail_for`` fails for good. Set the class attributes before a run.
    """

    fail_for: set[str] = set()
    in_flight: list[str] = []
    mixed = 0  # requests that started while another question's request was in flight
    lock = threading.Lock()

    def complete(self, request):
        cls = SlowRecordingChat
        question = request.messages[-1][1]
        with cls.lock:
            cls.mixed += any(other != question for other in cls.in_flight)
            cls.in_flight.append(question)
        try:
            time.sleep(0.02)
            if question in cls.fail_for:
                raise ProviderError("bad request", status=400)
            return super().complete(request)
        finally:
            with cls.lock:
                cls.in_flight.remove(question)


class TestGenSignaturesSendsEveryQuestionInOnePass:
    @pytest.fixture
    def run(self, capsys, monkeypatch, tmp_path):
        """Six open questions of two grid cells each; returns a gen-signatures runner with a
        fresh cache and recording chat provider, and the store directory."""
        questions = [[f"q{n}", "s1", "open_ended", f"Question {n}?"] for n in range(6)]
        responses = [[f"r{n}", f"q{n}", f"Answer {n}.", "2021-06-03"] for n in range(6)]
        studies = [["s1", "Study", "2021-06", "software", "mturk"]]
        dataset = write_bundle(tmp_path / "data", studies, questions, responses)
        monkeypatch.setattr(cli, "MockChatProvider", SlowRecordingChat)
        passes = []
        chat_many = cli.ProviderGateway.chat_many

        def counted(gateway, requests):
            passes.append(len(requests))
            return chat_many(gateway, requests)

        monkeypatch.setattr(cli.ProviderGateway, "chat_many", counted)

        def gen_signatures(fail_for=()):
            SlowRecordingChat.fail_for, SlowRecordingChat.mixed = set(fail_for), 0
            shutil.rmtree(tmp_path / "cache", ignore_errors=True)
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            passes.clear()
            args = ["--dataset", dataset, "--cache-dir", tmp_path / "cache", "--output-dir", tmp_path / "out"]
            args += ["--models", "m1", "--temps", "0,0.5", "--mock"]
            code, out, err = run_cli(capsys, "gen-signatures", *args)
            return code, out, err, list(passes)

        return gen_signatures, tmp_path / "out" / "signatures" / "basic"

    def test_one_chat_pass_overlaps_questions(self, run):
        gen_signatures, store_dir = run
        code, out, _, passes = gen_signatures()
        assert (code, passes) == (0, [12])  # one chat_many of every question's cells
        assert SlowRecordingChat.mixed > 0
        assert sorted(path.name for path in store_dir.iterdir()) == [f"q{n}.json" for n in range(6)]
        lines = [f"basic/q{n}: 2 signatures, 0 failed cells, 0 duplicates removed" for n in range(6)]
        assert out.splitlines()[:6] == lines  # in question order, after the pass

    def test_a_failed_question_aborts_alone(self, run):
        gen_signatures, store_dir = run
        code, out, err, passes = gen_signatures(fail_for={"Question 3?"})
        assert (code, passes) == (0, [12])
        assert 'aborted: question "q3": 2/2 signature cells failed' in err
        assert sorted(path.name for path in store_dir.iterdir()) == [f"q{n}.json" for n in (0, 1, 2, 4, 5)]
        assert "aborted questions: 1" in out

    def test_every_question_aborted_exits_3(self, run):
        gen_signatures, store_dir = run
        code, _, err, passes = gen_signatures(fail_for={f"Question {n}?" for n in range(6)})
        assert (code, passes) == (3, [12])
        assert "all questions aborted" in err
        assert not store_dir.exists() or list(store_dir.iterdir()) == []


class TestDetectLlm:
    def test_unknown_detector_model_is_config_error_before_any_call(self, capsys, corpus_path, tmp_path):
        code, _, err = run_cli(
            capsys, *base_args(corpus_path, tmp_path, "detect-llm", "--model", "not-a-model")
        )
        assert code == 1
        assert "not-a-model" in err
        assert not (tmp_path / "cache").exists()

    def test_fixture_percentages(self, capsys, corpus_path, tmp_path):
        code, out, _ = run_cli(capsys, *base_args(corpus_path, tmp_path, "detect-llm"))
        assert code == 0
        dump = json.loads(
            (tmp_path / "out" / "detector_gpt-3.5-turbo.json").read_text(encoding="utf-8")
        )
        by_study = {s["study_id"]: s["percentage"] for s in dump["studies"]}
        # r04 of s1's three classified responses and r06 of s2's four carry the marker
        assert by_study["s1"] == {"num": 1, "den": 3, "rendered": "33.33"}
        assert by_study["s2"] == {"num": 1, "den": 4, "rendered": "25.00"}
        assert dump["cohort_comparison"]["pre_2022"]["rendered"] == "33.33"
        assert dump["cohort_comparison"]["post_2022"]["rendered"] == "25.00"
        assert "s1: 33.33% flagged AI" in out

    def test_rerun_with_warm_cache(self, capsys, corpus_path, tmp_path):
        args = base_args(corpus_path, tmp_path, "detect-llm")
        run_cli(capsys, *args)
        first = (tmp_path / "out" / "detector_gpt-3.5-turbo.json").read_bytes()
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert "provider calls: 0" in out
        assert (tmp_path / "out" / "detector_gpt-3.5-turbo.json").read_bytes() == first

    def test_single_cohort_dataset_has_no_cohort_comparison(self, capsys, tmp_path):
        dataset = write_bundle(
            tmp_path / "bundle",
            studies=[["a", "Study A", "2023-05", "d", "p"], ["b", "Study B", "2024-01", "d", "p"]],
            questions=[["qa", "a", "open_ended", "Why?"], ["qb", "b", "open_ended", "How?"]],
            responses=[["r1", "qa", "Because it is quick.", ""], ["r2", "qb", "Every day.", ""]],
        )
        code, out, err = run_cli(
            capsys, "detect-llm", "--dataset", dataset, "--mock",
            "--cache-dir", tmp_path / "cache", "--output-dir", tmp_path / "out",
        )
        assert code == 0, err
        dump = json.loads((tmp_path / "out" / "detector_gpt-3.5-turbo.json").read_text(encoding="utf-8"))
        assert [s["study_id"] for s in dump["studies"]] == ["a", "b"]
        assert "cohort_comparison" not in dump
        assert "cohort averages" not in out
        assert "Cohort averages" not in (tmp_path / "out" / "detector_gpt-3.5-turbo.md").read_text(
            encoding="utf-8"
        )


class TestReport:
    def test_no_dumps_is_a_data_error(self, capsys, corpus_path, tmp_path):
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "report"))
        assert code == 2
        assert "no dumps" in err

    def test_detector_only_report_omits_signature_sections(self, capsys, corpus_path, tmp_path):
        run_cli(capsys, *base_args(corpus_path, tmp_path, "detect-llm"))
        code, _, _ = run_cli(capsys, *base_args(corpus_path, tmp_path, "report"))
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert "llm_detection" in report
        assert "signature_detection" not in report
        markdown = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
        assert "Zero-shot LLM detection" in markdown
        assert "Signature-based detection" not in markdown

    def test_signature_only_report_omits_detector_sections(self, capsys, corpus_path, tmp_path):
        run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
        run_cli(capsys, *base_args(corpus_path, tmp_path, "score"))
        code, _, _ = run_cli(capsys, *base_args(corpus_path, tmp_path, "report"))
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert "signature_detection" in report
        assert "llm_detection" not in report
        markdown = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
        assert "Signature-based detection" in markdown
        assert "Zero-shot LLM detection" not in markdown

    def test_combined_report_has_both_sections(self, capsys, corpus_path, tmp_path):
        run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
        run_cli(capsys, *base_args(corpus_path, tmp_path, "score"))
        run_cli(capsys, *base_args(corpus_path, tmp_path, "detect-llm"))
        code, _, _ = run_cli(capsys, *base_args(corpus_path, tmp_path, "report"))
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert "llm_detection" in report and "signature_detection" in report
        assert report["provenance"]["conventions"]["sweep_average"] == "pooled_weighted"
        markdown = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
        assert "Zero-shot LLM detection" in markdown
        assert "Signature-based detection" in markdown

    def test_corrupted_dump_names_the_file(self, capsys, corpus_path, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir(parents=True)
        bad = out_dir / "detector_gpt-4.json"
        bad.write_text("{ not json", encoding="utf-8")
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "report"))
        assert code == 2
        assert "detector_gpt-4.json" in err

    @pytest.mark.parametrize("name", ["cases_basic.json", "sweep.json", "detector_gpt-3.5-turbo.json"])
    def test_a_dump_that_is_not_an_object_names_the_file(self, capsys, corpus_path, tmp_path, name):
        for command in ("gen-signatures", "score", "detect-llm"):
            run_cli(capsys, *base_args(corpus_path, tmp_path, command))
        (tmp_path / "out" / name).write_text("[1]\n", encoding="utf-8")
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "report"))
        assert code == 2
        assert f"data error: corrupted dump file: {tmp_path / 'out' / name}: not a JSON object" in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "name, dump, missing",
        [
            ("detector_gpt-3.5-turbo.json", {"studies": []}, "model_id"),
            ("detector_gpt-3.5-turbo.json", {"model_id": "gpt-3.5-turbo"}, "studies"),
            ("sweep.json", {}, "rows, study_order, cohorts"),
            ("sweep.json", {"rows": [], "study_order": []}, "cohorts"),
            ("cases_basic.json", {"strategy": "basic", "low": []}, "high"),
            ("cases_basic.json", {"strategy": "basic", "high": []}, "low"),
            ("cases_basic.json", {"high": [], "low": []}, "strategy"),
        ],
    )
    def test_a_dump_missing_a_key_names_the_file_and_key(
        self, capsys, corpus_path, tmp_path, name, dump, missing
    ):
        for command in ("gen-signatures", "score", "detect-llm"):
            run_cli(capsys, *base_args(corpus_path, tmp_path, command))
        (tmp_path / "out" / name).write_text(json.dumps(dump), encoding="utf-8")
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "report"))
        assert code == 2
        assert f"corrupted dump file: {tmp_path / 'out' / name}: missing key(s) {missing}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "name, dump",
        [
            ("detector_x.json", {"model_id": "x", "studies": [{}]}),
            ("sweep.json", {"rows": [{}], "study_order": [], "cohorts": {}}),
        ],
        ids=["detector-study", "sweep-row"],
    )
    def test_a_dump_with_a_bad_nested_shape_writes_no_report(
        self, capsys, corpus_path, tmp_path, name, dump
    ):
        out_dir = tmp_path / "out"
        out_dir.mkdir(parents=True)
        (out_dir / name).write_text(json.dumps(dump), encoding="utf-8")
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "report"))
        assert code == 2
        assert f"data error: corrupted dump file: {out_dir / name}: " in err
        assert "Traceback" not in err
        assert list(out_dir.glob("report.*")) == []

    @pytest.mark.parametrize(
        "name, percent",
        [
            ("detector_gpt-3.5-turbo.json", lambda dump: dump["studies"][0]["percentage"]),
            ("sweep.json", lambda dump: dump["rows"][0]["per_study"]["s1"]),
        ],
        ids=["detector-study", "sweep-row"],
    )
    def test_a_percentage_whose_rendering_is_not_its_value_writes_no_report(
        self, capsys, corpus_path, tmp_path, name, percent
    ):
        for command in ("gen-signatures", "score", "detect-llm"):
            run_cli(capsys, *base_args(corpus_path, tmp_path, command))
        path = tmp_path / "out" / name
        dump = json.loads(path.read_text(encoding="utf-8"))
        pct = percent(dump)
        assert pct["num"] < pct["den"] and pct["rendered"] != "100.00"
        pct["num"] = pct["den"]  # n/n is 100.00: the detector case is study s1 at 3/3 under "33.33"
        path.write_text(json.dumps(dump), encoding="utf-8")
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "report"))
        assert code == 2
        assert f"data error: corrupted dump file: {path}: {pct} does not render as '{pct['rendered']}'" in err
        assert list((tmp_path / "out").glob("report.*")) == []

    def test_a_held_lock_stops_report_before_it_reads_a_dump(
        self, capsys, corpus_path, tmp_path, monkeypatch
    ):
        assert run_cli(capsys, *base_args(corpus_path, tmp_path, "detect-llm"))[0] == 0
        reads = []
        monkeypatch.setattr(cli, "_read_dump", lambda path, *_: reads.append(path))
        with open(tmp_path / "out" / ".lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "report"))
        assert code == 1
        assert f"config error: output directory {tmp_path / 'out'} is locked" in err
        assert reads == []

    def test_report_md_lists_the_irrelevant_cases(self, capsys, corpus_path, tmp_path):
        assert run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))[0] == 0
        assert run_cli(capsys, *base_args(corpus_path, tmp_path, "score", "--low-threshold", "0.2"))[0] == 0
        assert run_cli(capsys, *base_args(corpus_path, tmp_path, "report"))[0] == 0
        markdown = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
        low = "Flagged irrelevant (score at or below the low threshold):\n\n- r07 score 0.1832\n"
        assert markdown.endswith(low)

    def test_a_cases_dump_whose_strategy_is_not_a_string_writes_no_report(
        self, capsys, corpus_path, tmp_path
    ):
        for command in ("gen-signatures", "score"):
            run_cli(capsys, *base_args(corpus_path, tmp_path, command))
        bad = tmp_path / "out" / "cases_other.json"
        bad.write_text(json.dumps({"strategy": 1, "high": [], "low": []}), encoding="utf-8")
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "report"))
        assert code == 2
        assert f"data error: corrupted dump file: {bad}: strategy must be a string" in err
        assert list((tmp_path / "out").glob("report.*")) == []

    def test_a_dump_that_is_not_utf8_names_the_file(self, capsys, corpus_path, tmp_path):
        for command in ("gen-signatures", "score"):
            run_cli(capsys, *base_args(corpus_path, tmp_path, command))
        (tmp_path / "out" / "cases_basic.json").write_bytes(b"\xff\xfe{}")
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "report"))
        assert code == 2
        assert f"data error: corrupted dump file: {tmp_path / 'out' / 'cases_basic.json'}: " in err
        assert not (tmp_path / "out" / "report.json").exists()


class TestConfigHandling:
    def test_config_file_with_flag_override(self, capsys, corpus_path, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "dataset": str(corpus_path),
                    "cache_dir": str(tmp_path / "cache"),
                    "output_dir": str(tmp_path / "config-out"),
                    "mock": True,
                    "models": ["m1"],
                    "temperatures": [0.0, 0.5],
                }
            ),
            encoding="utf-8",
        )
        code, _, _ = run_cli(
            capsys, "gen-signatures", "--config", config, "--output-dir", tmp_path / "flag-out"
        )
        assert code == 0
        assert (tmp_path / "flag-out" / "signatures" / "basic" / "q1.json").exists()
        assert not (tmp_path / "config-out").exists()

    def test_config_file_that_is_not_utf8_is_config_error(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_bytes(b"\xff\xfe{}")
        code, _, err = run_cli(capsys, "validate", "--config", config)
        assert code == 1
        assert f"config error: config file {config} is not valid UTF-8 JSON" in err

    @pytest.mark.parametrize("name, reason", [("", "Is a directory"), ("nope.json", "No such file or directory")])
    def test_an_unreadable_config_file_is_config_error(self, capsys, tmp_path, name, reason):
        config = tmp_path / name
        code, _, err = run_cli(capsys, "validate", "--config", config)
        assert code == 1
        assert err == f"config error: cannot read config file {config}: {reason}\n"

    def test_unknown_config_key_is_config_error(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"datasets": "typo"}), encoding="utf-8")
        code, _, err = run_cli(capsys, "validate", "--config", config)
        assert code == 1
        assert err == f"config error: unknown config key(s): datasets (in config file {config})\n"

    def test_unsorted_thresholds_rejected(self, capsys, corpus_path, tmp_path):
        code, _, err = run_cli(
            capsys, *base_args(corpus_path, tmp_path, "score", "--thresholds", "0.9,0.7")
        )
        assert code == 1
        assert "ascending" in err

    def test_usage_error_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "not-a-command")
        assert code == 1
        assert "usage error" in err

    def test_a_threshold_that_is_not_a_number_is_a_usage_error(self, capsys, corpus_path, tmp_path):
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "score", "--thresholds", "0.7,x"))
        assert code == 1
        assert "usage error: argument --thresholds: not a comma-separated float list: '0.7,x'" in err

    def test_an_unknown_gen_signatures_strategy_is_config_error(self, capsys, corpus_path, tmp_path):
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures", "--strategy", "bogus"))
        assert code == 1
        assert 'config error: unknown strategy "bogus"' in err

    def test_locked_output_dir_is_config_error(self, capsys, corpus_path, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir(parents=True)
        with open(out_dir / ".lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
            assert code == 1
            assert f"config error: output directory {out_dir} is locked ({out_dir / '.lock'})" in err
        # released, the file it leaves is taken, and the run leaves none
        assert run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))[0] == 0
        assert not (out_dir / ".lock").exists()


class TestPathsOfTheWrongKind:
    def test_an_output_dir_naming_a_file_is_a_config_error(self, capsys, corpus_path, tmp_path):
        (tmp_path / "out").write_text("", encoding="utf-8")
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
        assert code == 1
        assert f"config error: cannot use output directory {tmp_path / 'out'}: " in err

    @pytest.mark.parametrize("command", ["gen-signatures", "report"])
    def test_a_cache_dir_naming_a_file_is_a_config_error(self, capsys, corpus_path, tmp_path, command):
        assert run_cli(capsys, *base_args(corpus_path, tmp_path, "detect-llm"))[0] == 0  # a dump to report
        before = _output_files(tmp_path / "out")
        cache_file = tmp_path / "cache-file"
        cache_file.write_text("", encoding="utf-8")
        args = base_args(corpus_path, tmp_path, command)
        args[args.index("--cache-dir") + 1] = cache_file
        code, _, err = run_cli(capsys, *args)
        assert code == 1
        assert f"config error: cannot use cache directory {cache_file}: " in err
        assert _output_files(tmp_path / "out") == before

    @pytest.mark.parametrize(
        "command, name",
        [("report", "detector_x.json"), ("score", "signatures/basic/q1.json")],
        ids=["detector-dump", "signature-store"],
    )
    def test_a_dump_or_store_that_is_a_directory_is_a_data_error(
        self, capsys, corpus_path, tmp_path, command, name
    ):
        assert run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))[0] == 0
        path = tmp_path / "out" / name
        path.unlink(missing_ok=True)
        path.mkdir()
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, command))
        assert code == 2
        assert f"data error: cannot read {path}: " in err

    def test_a_file_in_the_place_of_an_output_subdirectory_is_a_config_error(
        self, capsys, corpus_path, tmp_path
    ):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "signatures").write_text("", encoding="utf-8")
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
        assert code == 1
        assert f"config error: cannot write output file {tmp_path / 'out' / 'signatures' / 'basic'}" in err
        assert "Traceback" not in err

    def test_a_directory_at_an_artifact_path_is_a_config_error(self, capsys, corpus_path, tmp_path):
        assert run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))[0] == 0
        artifact = tmp_path / "out" / "scored_basic.json"
        artifact.mkdir()
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "score"))
        assert code == 1
        assert f"config error: cannot write output file {artifact}: " in err
        assert not (tmp_path / "out" / ".lock").exists()


class TestIdempotence:
    def test_score_outputs_are_byte_identical_across_runs(self, capsys, corpus_path, tmp_path):
        run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
        run_cli(capsys, *base_args(corpus_path, tmp_path, "score"))
        snapshot = {
            p.name: p.read_bytes() for p in (tmp_path / "out").iterdir() if p.is_file()
        }
        run_cli(capsys, *base_args(corpus_path, tmp_path, "score"))
        for name, blob in snapshot.items():
            assert (tmp_path / "out" / name).read_bytes() == blob, name


class TestBadValuesRejectedBeforeAnyCall:
    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--bin-width", "0.07"], {}, "invalid bin width"),
            (["--k-high", "-1"], {}, "k_high"),
            ([], {"dataset_format": "csv_bundle"}, "unknown config key(s): dataset_format"),
            ([], {"chat_provider": "openai"}, "unknown config key(s): chat_provider"),
            ([], {"embedding_provider": "openai"}, "unknown config key(s): embedding_provider"),
            (["--thresholds", "0.5,1.5"], {}, "(-1, 1]"),
            ([], {"temperatures": [0.0, 1.5]}, "temperature must be in [0, 1], got 1.5"),
            ([], {"detector_temperature": -0.5}, "temperature must be in [0, 1], got -0.5"),
            ([], {"models": [""]}, "models must not contain an empty model id"),
            ([], {"models": ["gpt-4", "gpt-4"]}, "models must not repeat a value"),
            ([], {"temperatures": [0.5, 0.5]}, "temperatures must not repeat a value"),
            ([], {"sentiments": ["positive", "positive"]}, "sentiments must not repeat a value"),
            ([], {"thresholds": [0.8, 0.8]}, "thresholds must not repeat a value"),
            (["--thresholds", "0.8,0.8"], {}, "thresholds must not repeat a value"),
            ([], {"temperatures": [0.5, 0.5000001]}, "temperatures must stay distinct at 6 significant"),
            (["--thresholds", "0.7,0.70000001"], {}, "thresholds must stay distinct at 6 significant"),
            ([], [1, 2], "run.json must contain a JSON object"),
            ([], {"models": []}, "models must be non-empty"),
            ([], {"scores_mode": "bogus"}, 'scores_mode must be "summary" or "full", got "bogus"'),
            (["--scores", "bogus"], {}, 'scores_mode must be "summary" or "full", got "bogus"'),
            ([], {"sentiments": ["angry"]}, 'unknown sentiment "angry"'),
        ],
        ids=[
            "bin-width", "k-high", "removed-dataset-format", "removed-chat-provider",
            "removed-embedding-provider", "threshold-domain", "temperature", "detector-temperature",
            "empty-model", "repeated-model", "repeated-temperature", "repeated-sentiment",
            "repeated-threshold", "repeated-threshold-flag", "temperatures-render-alike",
            "thresholds-render-alike", "config-not-an-object", "no-models", "scores-mode",
            "scores-mode-flag", "unknown-sentiment",
        ],
    )
    def test_score_exits_1_with_an_empty_cache(self, capsys, corpus_path, tmp_path, flags, config, message):
        run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
        score_cache = tmp_path / "score-cache"
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "score", "--config", config_path, "--dataset", corpus_path,
            "--cache-dir", score_cache, "--output-dir", tmp_path / "out", "--mock", *flags,
        )
        assert code == 1
        assert "config error" in err and message in err
        assert not score_cache.exists() or not any(score_cache.iterdir())


def _output_files(out_dir):
    return {path: path.read_bytes() for path in sorted(out_dir.rglob("*")) if path.is_file()}


class TestNonFiniteLowThreshold:
    """json.dump writes NaN and Infinity as bare tokens, which no strict JSON parser reads."""

    def test_the_flag_exits_1_and_writes_no_artifact(self, capsys, corpus_path, tmp_path):
        assert run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))[0] == 0
        before = _output_files(tmp_path / "out")
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "score", "--low-threshold", "nan"))
        assert code == 1
        assert "config error: low_threshold must be finite, got nan" in err
        assert _output_files(tmp_path / "out") == before

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_a_config_value_exits_1_and_writes_no_report(self, capsys, corpus_path, tmp_path, value):
        for step in ("gen-signatures", "score"):
            assert run_cli(capsys, *base_args(corpus_path, tmp_path, step))[0] == 0
        config_path = tmp_path / "run.json"
        config_path.write_text(f'{{"low_threshold": {value}}}', encoding="utf-8")
        before = _output_files(tmp_path / "out")
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "report", "--config", config_path))
        assert code == 1
        assert "config error: low_threshold must be finite" in err
        assert _output_files(tmp_path / "out") == before


# Per RunConfig field reachable from a flag: the flag's argument and the value it must resolve to.
FLAG_SAMPLES = {
    "dataset": ("data.json", "data.json"),
    "cache_dir": ("c", "c"),
    "output_dir": ("o", "o"),
    "seed": ("7", 7),
    "models": ("m1,m2", ("m1", "m2")),
    "temperatures": ("0,0.5", (0.0, 0.5)),
    "sentiments": ("negative", ("negative",)),
    "strategies": ("basic,sentiment", ("basic", "sentiment")),
    "thresholds": ("0.6,0.65", (0.6, 0.65)),
    "low_threshold": ("0.1", 0.1),
    "k_high": ("3", 3),
    "bin_width": ("0.1", 0.1),
    "scores_mode": ("full", "full"),
    "detector_model": ("gpt-4", "gpt-4"),
    "detector_temperature": ("0.5", 0.5),
}


def _command_parsers() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _config_flags():
    config_fields = {f.name for f in fields(RunConfig)}
    for command, parser in _command_parsers().items():
        for action in parser._actions:
            if action.option_strings and action.dest in config_fields:
                yield pytest.param(command, action, id=f"{command} {action.option_strings[0]}")


# Every subcommand's flags as (option, dest, parser, choices, const, default), as the hand-written
# parser that the flag table replaced built them. The one difference: --scores no longer lists
# argparse choices, so _validate_config alone rules on scores_mode, from a flag or the file.
_COMMON_ACTIONS = [
    ("--config", "config", None, None, None, None),
    ("--dataset", "dataset", None, None, None, None),
    ("--cache-dir", "cache_dir", None, None, None, None),
    ("--output-dir", "output_dir", None, None, None, None),
    ("--mock", "mock", None, None, True, None),
    ("--seed", "seed", "int", None, None, None),
]
RECORDED_ACTIONS = {
    "validate": _COMMON_ACTIONS,
    "gen-signatures": [
        *_COMMON_ACTIONS,
        ("--strategy", "strategies", "_csv_list", None, None, None),
        ("--models", "models", "_csv_list", None, None, None),
        ("--temps", "temperatures", "_csv_floats", None, None, None),
        ("--sentiments", "sentiments", "_csv_list", None, None, None),
    ],
    "score": [
        *_COMMON_ACTIONS,
        ("--strategy", "strategies", "_csv_list", None, None, None),
        ("--thresholds", "thresholds", "_csv_floats", None, None, None),
        ("--low-threshold", "low_threshold", "float", None, None, None),
        ("--k-high", "k_high", "int", None, None, None),
        ("--bin-width", "bin_width", "float", None, None, None),
        ("--scores", "scores_mode", None, None, None, None),
        ("--exclude-empty", "exclude_empty", None, None, True, None),
    ],
    "detect-llm": [
        *_COMMON_ACTIONS,
        ("--model", "detector_model", None, None, None, None),
        ("--temperature", "detector_temperature", "float", None, None, None),
        ("--strict", "tolerate_parse_failures", None, None, False, None),
    ],
    "report": _COMMON_ACTIONS,
}


def test_every_subcommand_takes_the_recorded_flags():
    actions = {
        command: [
            (*a.option_strings, a.dest, getattr(a.type, "__name__", None), a.choices, a.const, a.default)
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for command, parser in _command_parsers().items()
    }
    assert actions == RECORDED_ACTIONS


class TestFlagsReachTheConfig:
    @pytest.mark.parametrize("command, action", list(_config_flags()))
    def test_flag_sets_its_config_field(self, monkeypatch, command, action):
        if action.nargs == 0:  # store_const switches
            argv, expected = [action.option_strings[0]], action.const
        else:
            value, expected = FLAG_SAMPLES[action.dest]
            argv = [action.option_strings[0], value]
        assert getattr(RunConfig(), action.dest) != expected
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: seen.append(cfg) or 0)
        assert main([command, *argv]) == 0
        assert getattr(seen[0], action.dest) == expected


class TestProvenanceProviders:
    def test_mock_ids_come_from_the_mock_providers(self, capsys, corpus_path, tmp_path):
        run_cli(capsys, *base_args(corpus_path, tmp_path, "detect-llm", "--seed", "3"))
        code, _, _ = run_cli(capsys, *base_args(corpus_path, tmp_path, "report", "--seed", "3"))
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert report["provenance"]["providers"] == {"chat": "mock-chat-3", "embedding": "mock-embed-v2-3-d16"}

    def test_openai_ids_need_no_api_key(self, capsys, monkeypatch, corpus_path, tmp_path):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        run_cli(capsys, *base_args(corpus_path, tmp_path, "detect-llm"))
        args = [a for a in base_args(corpus_path, tmp_path, "report") if a != "--mock"]
        code, _, err = run_cli(capsys, *args)
        assert code == 0, err
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert report["provenance"]["providers"] == {
            "chat": "openai",
            "embedding": "openai-embed-text-embedding-3-small",
        }

    @pytest.mark.parametrize("key", ["chat_provider", "embedding_provider"])
    def test_a_removed_provider_key_is_an_unknown_config_key(self, capsys, corpus_path, tmp_path, key):
        run_cli(capsys, *base_args(corpus_path, tmp_path, "detect-llm"))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: "openai"}), encoding="utf-8")
        args = [a for a in base_args(corpus_path, tmp_path, "report") if a != "--mock"]
        code, _, err = run_cli(capsys, *args, "--config", config)
        assert code == 1
        assert f"unknown config key(s): {key}" in err
        assert not (tmp_path / "out" / "report.json").exists()


class TestThresholdBoundary:
    def test_score_equal_to_the_threshold_is_ai_everywhere(self, capsys, corpus_path, tmp_path):
        run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
        run_cli(capsys, *base_args(corpus_path, tmp_path, "score"))
        scored = json.loads((tmp_path / "out" / "scored_basic.json").read_text(encoding="utf-8"))
        finals = sorted(r["final_score"] for r in scored if r["final_score"] is not None)
        th = finals[len(finals) // 2]
        assert -1.0 < th < 1.0

        code, _, _ = run_cli(capsys, *base_args(corpus_path, tmp_path, "score", "--thresholds", repr(th)))
        assert code == 0
        scored = json.loads((tmp_path / "out" / "scored_basic.json").read_text(encoding="utf-8"))
        at_th = [r for r in scored if r["final_score"] == th]
        assert at_th and all(r["ai_at"] == {f"{th:g}": True} for r in at_th)

        sweep = json.loads((tmp_path / "out" / "sweep.json").read_text(encoding="utf-8"))
        for study_id, pct in sweep["rows"][0]["per_study"].items():
            finals = [r["final_score"] for r in scored if r["study_id"] == study_id]
            assert pct["num"] == sum(1 for f in finals if f is not None and f >= th)

        boundary = at_th[0]  # a dumped row is what the library's rules take
        assert meets_threshold(boundary, th)


class TestSweepCsvMatchesReportCsv:
    def test_same_rows_with_report_in_study_id_order(self, capsys, tmp_path):
        # "a-post" sorts first by id but after "b-pre" in the sweep's cohort order.
        dataset = write_bundle(
            tmp_path / "bundle",
            studies=[
                ["a-post", "Later study", "2023-05", "d", "p"],
                ["b-pre", "Earlier study", "2021-03", "d", "p"],
            ],
            questions=[["qa", "a-post", "open_ended", "Why?"], ["qb", "b-pre", "open_ended", "How?"]],
            responses=[
                ["r1", "qa", "Because it is quick.", ""],
                ["r2", "qa", "", ""],
                ["r3", "qb", "I use it every day at work.", ""],
                ["r4", "qb", "My friend told me about it.", ""],
            ],
        )
        run_cli(capsys, *base_args(dataset, tmp_path, "gen-signatures", "--models", "m1,m2"))
        run_cli(capsys, *base_args(dataset, tmp_path, "score", "--thresholds=-0.5,0.5"))
        code, _, _ = run_cli(capsys, *base_args(dataset, tmp_path, "report"))
        assert code == 0
        with open(tmp_path / "out" / "sweep.csv", encoding="utf-8", newline="") as fh:
            sweep_rows = list(csv.reader(fh))[1:]
        with open(tmp_path / "out" / "report.csv", encoding="utf-8", newline="") as fh:
            report_rows = [r for r in csv.reader(fh) if r[0] == "signature_detection"]
        as_sweep = [[th, strategy, study, *cell] for _, strategy, th, study, *cell in report_rows]
        assert len(sweep_rows) == len(as_sweep) == 8
        assert set(map(tuple, sweep_rows)) == set(map(tuple, as_sweep))
        assert [r[2] for r in sweep_rows[:4]] == ["b-pre", "a-post", "average_pre_2022", "average_post_2022"]
        assert [r[2] for r in as_sweep[:4]] == ["a-post", "b-pre", "average_post_2022", "average_pre_2022"]


class TestOversizedCsvField:
    def test_validate_exits_2_naming_the_file_and_row(self, capsys, tmp_path):
        dataset = write_bundle(
            tmp_path / "bundle",
            studies=[["s1", "Study", "2021-06", "d", "p"]],
            questions=[["q1", "s1", "open_ended", "Why?"]],
            responses=[["r1", "q1", "short", ""], ["r2", "q1", "x" * 150_000, ""]],
        )
        code, _, err = run_cli(capsys, "validate", "--dataset", dataset)
        assert code == 2
        assert "responses.csv row 3" in err and "field larger than field limit" in err


class TestConfigValueTypes:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("k_high", "5"),
            ("seed", "x"),
            ("seed", 1.5),
            ("bin_width", "0.05"),
            ("mock", 1),
            ("exclude_empty", "yes"),
            ("low_threshold", True),
            ("cache_dir", None),
            ("chat_base_url", 3),
            ("models", "gpt-4o"),
            ("temperatures", ["0.5"]),
            ("thresholds", 0.7),
            ("sentiments", [1]),
        ],
    )
    def test_mismatch_is_a_config_error_before_any_call(self, capsys, corpus_path, tmp_path, key, value):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({key: value}), encoding="utf-8")
        code, _, err = run_cli(
            capsys, *base_args(corpus_path, tmp_path, "gen-signatures", "--config", config_path)
        )
        assert code == 1
        assert f'config error: config key "{key}"' in err and f"(in config file {config_path})" in err
        assert not (tmp_path / "cache").exists()

    def test_a_float_key_takes_an_int_and_an_optional_key_takes_null(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps({"low_threshold": 0, "thresholds": [0, 0.5, 1], "chat_base_url": None}),
            encoding="utf-8",
        )
        cfg = cli.resolve_config(str(config_path), {})
        assert (cfg.low_threshold, cfg.thresholds, cfg.chat_base_url) == (0, (0, 0.5, 1), None)


# A child that takes the output lock, says so and waits to be killed: through a run's own
# _exclusive_output, or through a bare flock, as an earlier version or another tool might.
HOLDERS = {
    "a-run": "with cli._exclusive_output(Path(sys.argv[1])):",
    "a-bare-flock": (
        "with open(Path(sys.argv[1]) / '.lock', 'w') as held:\n    fcntl.flock(held, fcntl.LOCK_EX)"
    ),
}


class TestStaleOutputLock:
    @pytest.mark.parametrize("holder", HOLDERS.values(), ids=HOLDERS.keys())
    def test_lock_of_an_exited_process_is_taken_over(self, tmp_path, holder):
        script = (
            "import fcntl, sys, time\nfrom pathlib import Path\nfrom surveyguard import cli\n"
            f"{holder}\n    print('held', flush=True)\n    time.sleep(60)\n"
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)], stdout=subprocess.PIPE, text=True, env=src_env()
        )
        try:
            assert child.stdout.readline() == "held\n"
            with pytest.raises(cli.ConfigError, match="locked"):
                with cli._exclusive_output(tmp_path):
                    pass
        finally:
            child.kill()  # SIGKILL: the child unlinks nothing
            child.wait()
            child.stdout.close()
        lock = tmp_path / ".lock"
        assert lock.exists()
        with cli._exclusive_output(tmp_path):
            assert lock.exists()
        assert not lock.exists()

    @pytest.mark.parametrize(
        "content",
        [f"{os.getpid()}\n", "not a pid\n", "", "0\n", "-99999\n", "99999999999999999999\n"],
        ids=["live", "garbage", "empty", "zero", "negative", "overflow"],
    )
    def test_a_lock_file_nobody_holds_is_taken(self, tmp_path, content):
        lock = tmp_path / ".lock"
        lock.write_text(content, encoding="utf-8")
        with cli._exclusive_output(tmp_path):
            assert lock.exists()
        assert not lock.exists()

    @pytest.mark.parametrize("relocked", [True, False], ids=["relocked", "removed"])
    def test_a_run_that_locks_an_unlinked_lock_file_tries_again(self, tmp_path, monkeypatch, relocked):
        # Between this run's open and its flock, the run before unlinks .lock and closes it;
        # then a third run may lock a new .lock.
        lock, flock, calls = tmp_path / ".lock", fcntl.flock, []
        lock.touch()
        with contextlib.ExitStack() as third:

            def interleaved(fd, operation):
                calls.append(fd)
                if len(calls) == 1:
                    lock.unlink()
                    if relocked:
                        flock(third.enter_context(open(lock, "w")), fcntl.LOCK_EX)
                return flock(fd, operation)

            monkeypatch.setattr(fcntl, "flock", interleaved)
            if relocked:
                with pytest.raises(cli.ConfigError, match="locked"):
                    with cli._exclusive_output(tmp_path):
                        pass
            else:
                with cli._exclusive_output(tmp_path):
                    assert lock.exists()
                assert not lock.exists()
        assert len(calls) == 2

    def test_threads_enter_one_at_a_time_and_leave_no_descriptor(self, tmp_path):
        (tmp_path / ".lock").write_text("left by a killed run\n", encoding="utf-8")
        guard = threading.Lock()
        inside = peak = entries = 0
        refusals: list[str] = []
        before = len(os.listdir("/proc/self/fd"))

        def enter_100_times():
            nonlocal inside, peak, entries
            for _ in range(100):
                try:
                    with cli._exclusive_output(tmp_path):
                        with guard:
                            inside, entries = inside + 1, entries + 1
                            peak = max(peak, inside)
                        time.sleep(0)
                        with guard:
                            inside -= 1
                except cli.ConfigError as exc:
                    refusals.append(str(exc))

        threads = [threading.Thread(target=enter_100_times) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert entries > 0 and peak == 1
        assert all(f"output directory {tmp_path} is locked" in refusal for refusal in refusals)
        assert len(os.listdir("/proc/self/fd")) == before
        assert not (tmp_path / ".lock").exists()

    def test_no_free_descriptor_is_a_config_error_naming_the_output_dir(self, corpus_path, tmp_path):
        # The soft limit drops to the lowest free descriptor just before the lock is taken.
        script = (
            "import os, resource, sys\nfrom surveyguard import cli\ntake = cli._exclusive_output\n"
            "def starved(out_dir):\n    free = os.dup(0)\n    os.close(free)\n"
            "    hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
            "    resource.setrlimit(resource.RLIMIT_NOFILE, (free, hard))\n"
            "    return take(out_dir)\n"
            "cli._exclusive_output = starved\nsys.exit(cli.main(sys.argv[1:]))\n"
        )
        args = [str(a) for a in base_args(corpus_path, tmp_path, "gen-signatures")]
        result = subprocess.run(
            [sys.executable, "-c", script, *args], capture_output=True, text=True, env=src_env(), timeout=60
        )
        assert result.returncode == 1
        message = f"config error: cannot use output directory {tmp_path / 'out'}: Too many open files\n"
        assert result.stderr == message


class TestDetectRepeatedAnswers:
    def test_each_distinct_request_is_sent_once(self, capsys, tmp_path):
        texts = ["I use it daily.", "Mostly for work.", "My friend told me.", "It is cheap."]
        dataset = write_bundle(
            tmp_path / "bundle",
            studies=[["s1", "Study", "2021-06", "d", "p"]],
            questions=[["q1", "s1", "open_ended", "Why do you use it?"]],
            responses=[[f"r{i:03d}", "q1", texts[i % len(texts)], ""] for i in range(200)],
        )
        lines = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the detector's worker threads as much as possible
        try:
            for run in ("a", "b"):
                code, out, _ = run_cli(
                    capsys, "detect-llm", "--dataset", dataset, "--mock",
                    "--cache-dir", tmp_path / f"cache-{run}", "--output-dir", tmp_path / f"out-{run}",
                )
                assert code == 0
                lines.append(out.strip().splitlines()[-1])
        finally:
            sys.setswitchinterval(interval)
        assert lines == ["provider calls: 4 (cache hits: 196)"] * 2
        dumps = [(tmp_path / f"out-{run}" / "detector_gpt-3.5-turbo.json").read_bytes() for run in "ab"]
        assert dumps[0] == dumps[1]


class TestScoresIgnoreBlasThreads:
    def test_scored_dump_bytes_match_with_one_blas_thread(self, tmp_path, corpus_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"mock_embedding_dim": 256}), encoding="utf-8")
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = [src, os.environ.get("PYTHONPATH")]
        default = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        default["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        dumps = []
        for name, env in (("one", {**default, "OPENBLAS_NUM_THREADS": "1"}), ("default", default)):
            out_dir = tmp_path / f"out-{name}"
            for command in ("gen-signatures", "score"):
                subprocess.run(
                    [sys.executable, "-m", "surveyguard", command, "--config", str(config_path),
                     "--dataset", str(corpus_path), "--cache-dir", str(tmp_path / "cache"),
                     "--output-dir", str(out_dir), "--mock"],
                    env=env, check=True, capture_output=True, timeout=120,
                )
            dumps.append((out_dir / "scored_basic.json").read_bytes())
        assert dumps[0] == dumps[1]


class TestDetectProviderFailure:
    def test_one_failing_answer_exits_3_and_writes_no_dump(self, capsys, monkeypatch, corpus_path, tmp_path):
        class FailsOnOneAnswer(cli.MockChatProvider):
            def complete(self, request):
                if "cut back on heating" in request.messages[-1][1]:
                    raise ProviderError("bad request", status=400)
                return super().complete(request)

        monkeypatch.setattr(cli, "MockChatProvider", FailsOnOneAnswer)
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "detect-llm"))
        assert code == 3
        assert "bad request" in err
        assert list((tmp_path / "out").glob("detector_*.json")) == []


def _no_space(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# Each replaces the os call of DiskCache.flush it names, given the real one; then the reason printed.
COMMIT_FAULTS = {
    "writev-enospc": ("writev", lambda real: _no_space, os.strerror(errno.ENOSPC)),
    "short-write": ("writev", lambda real: lambda fd, buffers: real(fd, buffers[:1]), "short write"),
    "link-enospc": ("link", lambda real: _no_space, os.strerror(errno.ENOSPC)),
}


def _cache_entry(entries: dict[str, bytes], kind: str) -> str:
    """The first digest (in digest order) whose entry's request is of the given kind."""
    for digest in sorted(entries):
        if entry_request(entries[digest])["kind"] == kind:
            return digest
    raise AssertionError(f"no {kind} entry")


def _damage(cache_dir: Path, kind: str, damage, layout: str) -> tuple[str, Path]:
    """Lay the cache out with the first entry of ``kind`` passed through ``damage``, in the one
    pack or in a second pack behind the others; returns its digest and the pack that holds it."""
    entries = cache_entries(cache_dir)
    digest = _cache_entry(entries, kind)
    entries[digest] = damage(entries[digest])
    return digest, rewrite_cache(cache_dir, entries, {digest} if layout == "second-pack" else ())[digest]


LAYOUTS = pytest.mark.parametrize("layout", ["packed", "second-pack"])


NAN_F8 = np.array([np.nan], dtype="<f8").tobytes()
# Each turns the bytes of one embedding entry, its key text line and a vector of d=16, into a bad entry.
BAD_EMBEDDING_ENTRIES = {
    "truncated-vector": lambda data: data[:-8],
    "cut-mid-value": lambda data: data[:-3],
    "extra-trailing-byte": lambda data: data + b"\0",
    "empty": lambda data: b"",
    "no-newline": lambda data: data.replace(b"\n", b"", 1),
    "another-text": lambda data: data.replace(b'"text":"', b'"text":"x', 1),
    "nan-in-vector": lambda data: data[: data.index(b"\n") + 1] + NAN_F8 + data[data.index(b"\n") + 9 :],
}


class TestUnreadableCacheAndStore:
    @LAYOUTS
    def test_truncated_cache_entry_exits_2_naming_it(self, capsys, corpus_path, tmp_path, layout):
        args = base_args(corpus_path, tmp_path, "detect-llm")
        assert run_cli(capsys, *args)[0] == 0
        digest, entry = _damage(tmp_path / "cache", "chat", lambda data: data[:40], layout)
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert str(entry) in err and digest in err

    @LAYOUTS
    def test_a_reply_that_is_not_utf8_exits_2_naming_its_entry(self, capsys, corpus_path, tmp_path, layout):
        args = base_args(corpus_path, tmp_path, "detect-llm")
        assert run_cli(capsys, *args)[0] == 0
        digest, entry = _damage(
            tmp_path / "cache", "chat", lambda data: data.partition(b"\n")[0] + b"\n\xff\xfe", layout
        )
        code, _, err = run_cli(capsys, *args)
        assert (code, err.count(str(entry)), err.count(digest)) == (2, 1, 1), err
        assert err.startswith("data error: corrupted cache entry: ")

    @LAYOUTS
    @pytest.mark.parametrize("kind, command", [("chat", "gen-signatures"), ("embed", "score")])
    def test_entry_without_response_exits_2_naming_it(
        self, capsys, corpus_path, tmp_path, kind, command, layout
    ):
        for step in ("gen-signatures", "score"):
            assert run_cli(capsys, *base_args(corpus_path, tmp_path, step))[0] == 0

        digest, entry = _damage(tmp_path / "cache", kind, lambda data: data.partition(b"\n")[0], layout)
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, command))
        assert code == 2
        assert str(entry) in err and digest in err

    @LAYOUTS
    @pytest.mark.parametrize("damage", BAD_EMBEDDING_ENTRIES.values(), ids=BAD_EMBEDDING_ENTRIES.keys())
    def test_bad_embedding_entry_exits_2_naming_it(self, capsys, corpus_path, tmp_path, damage, layout):
        for step in ("gen-signatures", "score"):
            assert run_cli(capsys, *base_args(corpus_path, tmp_path, step))[0] == 0
        digest, entry = _damage(tmp_path / "cache", "embed", damage, layout)
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "score"))
        assert (code, err.count(str(entry)), err.count(digest)) == (2, 1, 1), err
        assert err.startswith("data error: corrupted cache entry: ")

    @pytest.mark.parametrize(
        "damage", [lambda data: b"\x00" + data[1:], lambda data: data[:-1]], ids=["bad-magic", "truncated"]
    )
    def test_bad_pack_exits_2_naming_it(self, capsys, corpus_path, tmp_path, damage):
        args = base_args(corpus_path, tmp_path, "detect-llm")
        assert run_cli(capsys, *args)[0] == 0
        pack = sorted((tmp_path / "cache" / "packs").iterdir())[0]
        pack.write_bytes(damage(pack.read_bytes()))
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert err.startswith("data error: corrupted cache ") and str(pack) in err

    @pytest.mark.parametrize("layout", ["one-file", "v1-pack"])
    def test_a_cache_dir_of_an_earlier_layout_is_refused_before_any_call(
        self, capsys, monkeypatch, corpus_path, tmp_path, layout
    ):
        for step in ("gen-signatures", "score", "detect-llm"):
            assert run_cli(capsys, *base_args(corpus_path, tmp_path, step))[0] == 0
        # Entries as earlier versions stored them: a file named by its hex digest in a cache of no
        # packs, or a pack of the format before v2.
        cache = tmp_path / "cache"
        shutil.rmtree(cache)
        cache.mkdir()
        if layout == "one-file":
            old = cache / ("0123456789abcdef" * 4)
            old.write_bytes(b'{"request": {}, "response": {"text": "kept"}, "stored_at": "2024-01-01"}\n')
            what = f"{old.name}, a one-file entry"
        else:
            (cache / "packs").mkdir()
            old = write_v1_pack(cache / "packs" / "00000000")
            what = f"{old}, a v1 pack"
        kept, listing = old.read_bytes(), sorted(cache.rglob("*"))
        calls = []
        monkeypatch.setattr(cli.MockChatProvider, "complete", lambda self, request: calls.append(request))
        monkeypatch.setattr(cli.MockEmbeddingProvider, "embed_many", lambda self, texts: calls.append(texts))
        for command in ("gen-signatures", "score", "detect-llm", "report"):
            code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, command))
            assert code == 1, (command, err)
            assert err.startswith(f"config error: cache dir {cache} holds {what} of an earlier version"), err
            assert "move the dir aside" in err and "Traceback" not in err
        assert calls == []
        assert old.read_bytes() == kept
        assert sorted(cache.rglob("*")) == listing

    @pytest.mark.parametrize("name, fake, reason", COMMIT_FAULTS.values(), ids=COMMIT_FAULTS.keys())
    def test_a_pack_that_cannot_be_written_exits_1_naming_the_cache_dir(
        self, capsys, monkeypatch, corpus_path, tmp_path, name, fake, reason
    ):
        assert run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))[0] == 0
        packs = sorted((tmp_path / "cache" / "packs").iterdir())
        with monkeypatch.context() as patch:
            patch.setattr(os, name, fake(getattr(os, name)))
            code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "score"))
        assert (code, err) == (1, f"config error: cannot write cache dir {tmp_path / 'cache'}: {reason}\n")
        assert sorted((tmp_path / "cache" / "packs").iterdir()) == packs  # no temp file, earlier packs kept
        code, out, _ = run_cli(capsys, *base_args(corpus_path, tmp_path, "score"))
        assert code == 0 and "provider calls: 0 (" not in out

    @pytest.mark.parametrize(
        "edit",
        [lambda store: store.pop("grid"), lambda store: store["signatures"][0].update(sentiment="angry")],
        ids=["no-grid", "unknown-sentiment"],
    )
    def test_bad_signature_store_exits_2_naming_it(self, capsys, corpus_path, tmp_path, edit):
        assert run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))[0] == 0
        path = tmp_path / "out" / "signatures" / "basic" / "q1.json"
        store = json.loads(path.read_text(encoding="utf-8"))
        edit(store)
        path.write_text(json.dumps(store), encoding="utf-8")
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "score"))
        assert code == 2
        assert str(path) in err


PIPELINE = [
    ["gen-signatures", "--strategy", "basic"],
    ["gen-signatures", "--strategy", "sentiment"],
    ["score", "--strategy", "basic,sentiment", "--scores", "full"],
    ["detect-llm"],
    ["report"],
]


def _run_pipeline(capsys, dataset: Path, tmp_path: Path) -> dict[Path, bytes]:
    for command, *flags in PIPELINE:
        assert run_cli(capsys, *base_args(dataset, tmp_path, command, *flags))[0] == 0
    return {p: p.read_bytes() for p in sorted((tmp_path / "out").rglob("*")) if p.is_file()}


@pytest.fixture
def unicode_corpus(corpus_path, tmp_path) -> Path:
    """The fixture corpus plus a response holding "é" and U+2028, which JSON may leave unescaped."""
    root = tmp_path / "corpus"
    shutil.copytree(corpus_path, root)
    with open(root / "responses.csv", "a", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            ["r99", "q1", "Le café\u2028ferme tôt, donc je commande en ligne.", "2023-05-01"]
        )
    return root


class TestArtifactJsonForm:
    def test_every_json_artifact_is_one_canonical_line(self, capsys, unicode_corpus, tmp_path):
        artifacts = _run_pipeline(capsys, unicode_corpus, tmp_path)
        jsons = {p: blob.decode("utf-8") for p, blob in artifacts.items() if p.suffix == ".json"}
        assert {p.name for p in jsons} >= {"report.json", "sweep.json", "scored_sentiment.json"}
        for path, text in jsons.items():
            assert text == canonical_json(json.loads(text)) + "\n", path
        assert any("café\u2028ferme" in text for text in jsons.values())

    def test_stores_and_dumps_in_the_indented_form_give_the_same_bytes(
        self, capsys, unicode_corpus, tmp_path
    ):
        artifacts = _run_pipeline(capsys, unicode_corpus, tmp_path)
        legacy = {}
        for path in artifacts:
            if path.suffix == ".json":
                obj = json.loads(path.read_text(encoding="utf-8"))
                indented = json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
                legacy[path] = indented.encode("utf-8")
                assert legacy[path] != artifacts[path]
                path.write_bytes(legacy[path])
        for command, *flags in (["report"], PIPELINE[2]):  # report, then score, both warm
            code, out, _ = run_cli(capsys, *base_args(unicode_corpus, tmp_path, command, *flags))
            assert code == 0
        assert out.strip().splitlines()[-1].startswith("provider calls: 0 (")
        # Stores and the detector dump are read by these commands, not written: they stay as they were.
        kept = {p for p in legacy if "signatures" in p.parts or p.name.startswith("detector_")}
        expected = {p: legacy[p] if p in kept else blob for p, blob in artifacts.items()}
        assert {p: p.read_bytes() for p in artifacts} == expected


class TestStudyIndependence:
    """Dropping a study changes no other study's scored rows or sweep cells."""

    STEPS = [
        ["gen-signatures", "--strategy", "basic,sentiment"],
        ["score", "--strategy", "basic,sentiment", "--thresholds", "0.3,0.5,0.7", "--scores", "full"],
    ]

    def _score(self, capsys, dataset: Path, root: Path) -> tuple[dict, list[dict]]:
        for command, *flags in self.STEPS:
            assert run_cli(capsys, *base_args(dataset, root, command, *flags))[0] == 0
        out = root / "out"
        scored = {
            kind: json.loads((out / f"scored_{kind}.json").read_text(encoding="utf-8"))
            for kind in ("basic", "sentiment")
        }
        return scored, json.loads((out / "sweep.json").read_text(encoding="utf-8"))["rows"]

    @pytest.mark.parametrize("dropped", ["s1", "s2"])
    def test_the_other_studies_score_as_before(self, capsys, corpus_path, tmp_path, dropped):
        tables = {}
        for name in ("studies", "questions", "responses"):
            with open(corpus_path / f"{name}.csv", encoding="utf-8", newline="") as fh:
                tables[name] = list(csv.reader(fh))[1:]
        kept_questions = {q[0] for q in tables["questions"] if q[1] != dropped}
        reduced = write_bundle(
            tmp_path / "reduced",
            studies=[s for s in tables["studies"] if s[0] != dropped],
            questions=[q for q in tables["questions"] if q[0] in kept_questions],
            responses=[r for r in tables["responses"] if r[1] in kept_questions],
        )
        full_scored, full_sweep = self._score(capsys, corpus_path, tmp_path / "full")
        scored, sweep = self._score(capsys, reduced, tmp_path / "without")
        for kind, rows in scored.items():
            kept = [row for row in full_scored[kind] if row["study_id"] != dropped]
            assert rows == kept and kept
        assert any(0 < cell["num"] < cell["den"] for row in sweep for cell in row["per_study"].values())
        assert [row["per_study"] for row in sweep] == [
            {study: cell for study, cell in row["per_study"].items() if study != dropped}
            for row in full_sweep
        ]
