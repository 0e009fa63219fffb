import json
import os
import subprocess
import sys
from pathlib import Path

from surveyguard.cli import main


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
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        for module in ("surveyguard", "surveyguard.cli"):
            result = subprocess.run(
                [sys.executable, "-m", module, "validate", "--dataset", str(corpus_path)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert result.returncode == 0, result.stderr
            assert "dataset OK" in result.stdout

    def test_missing_dataset_exits_2_with_stderr(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "validate", "--dataset", tmp_path / "nope", "--mock",
            "--cache-dir", tmp_path / "c", "--output-dir", tmp_path / "o",
        )
        assert code == 2
        assert "error" in err

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

    def test_unknown_config_key_is_config_error(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"datasets": "typo"}), encoding="utf-8")
        code, _, err = run_cli(capsys, "validate", "--config", config)
        assert code == 1
        assert "datasets" in err

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

    def test_locked_output_dir_is_config_error(self, capsys, corpus_path, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir(parents=True)
        (out_dir / ".lock").write_text("12345\n", encoding="utf-8")
        code, _, err = run_cli(capsys, *base_args(corpus_path, tmp_path, "gen-signatures"))
        assert code == 1
        assert "locked" in err


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
