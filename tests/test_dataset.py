import json
import random
from fractions import Fraction

import pytest

from conftest import write_bundle
from surveyguard import dataset
from surveyguard.dataset import (
    JSON_SLICE,
    QUESTION_COLUMNS,
    RESPONSE_COLUMNS,
    STUDY_COLUMNS,
    TABLES,
    load_dataset,
    write_json,
    write_report,
)
from surveyguard.errors import DataError
from surveyguard.gateway import canonical_json
from surveyguard.model import Cohort, QuestionKind, compute_length_stats
from surveyguard.report import average_unweighted


def write_dataset(tmp_path, layout, studies, questions, responses):
    """The rows as a CSV bundle or as the single JSON file ds.json (no validation)."""
    if layout == "bundle":
        return write_bundle(tmp_path / "bundle", studies, questions, responses)
    payload = {
        table: [dict(zip(columns, row)) for row in rows]
        for (table, (columns, _, _)), rows in zip(TABLES.items(), (studies, questions, responses))
    }
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def minimal_bundle(tmp_path):
    return write_bundle(
        tmp_path / "bundle",
        studies=[["s1", "Study one", "2021-06", "software", "mturk"]],
        questions=[["q1", "s1", "open_ended", "Why do you use this app?"]],
        responses=[
            ["r1", "q1", "Because it is quick.", "2021-06-01"],
            ["r2", "q1", "For work.", "2021-06-02"],
        ],
    )


class TestLoadBundle:
    def test_minimal_valid_bundle(self, tmp_path):
        ds = load_dataset(minimal_bundle(tmp_path))
        assert len(ds.studies) == 1
        assert len(ds.questions) == 1
        assert len(ds.responses) == 2
        assert ds.studies[0].cohort == Cohort.PRE_2022
        assert compute_length_stats(ds.responses[:1]) == (4.0, 0.0)

    @pytest.mark.parametrize(
        "question_study, response_question, message",
        [
            (
                "s1", "q9",
                'responses.csv row 2: response "r1" references unknown question "q9" (not in questions.csv)',
            ),
            ("s9", "q1", 'questions.csv row 2: question "q1" references unknown study "s9" (not in studies.csv)'),
        ],
    )
    def test_dangling_reference_names_file_and_row(
        self, tmp_path, question_study, response_question, message
    ):
        path = write_bundle(
            tmp_path / "bundle",
            studies=[["s1", "Study", "2021-06", "d", "p"]],
            questions=[["q1", question_study, "open_ended", "Question?"]],
            responses=[["r1", response_question, "text", ""]],
        )
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "layout, row", [("bundle", "responses.csv row 3"), ("json", "ds.json: responses[1]")]
    )
    def test_duplicate_response_id(self, tmp_path, layout, row):
        path = write_dataset(
            tmp_path,
            layout,
            studies=[["s1", "Study", "2021-06", "d", "p"]],
            questions=[["q1", "s1", "open_ended", "Question?"]],
            responses=[["r1", "q1", "a", ""], ["r1", "q1", "b", ""]],
        )
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f'{row}: duplicate response_id "r1"'

    @pytest.mark.parametrize("layout, row", [("bundle", "studies.csv row 2"), ("json", "ds.json: studies[0]")])
    def test_empty_study_id_names_file_and_row(self, tmp_path, layout, row):
        path = write_dataset(
            tmp_path, layout, studies=[["", "Study", "2021-06", "d", "p"]], questions=[], responses=[]
        )
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f"{row}: study_id must be non-empty"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing file"):
            load_dataset(tmp_path / "nope")

    def test_bad_header_reports_schema_violation(self, tmp_path):
        path = tmp_path / "bundle"
        write_bundle(
            path,
            studies=[["s1", "Study", "2021-06", "d", "p"]],
            questions=[["q1", "s1", "open_ended", "Question?"]],
            responses=[["r1", "q1", "a", ""]],
        )
        (path / "studies.csv").write_text("wrong,header\nrow,two\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected header"):
            load_dataset(path)

    def test_a_csv_that_is_not_utf8_names_the_file(self, tmp_path):
        path = write_bundle(
            tmp_path / "bundle",
            studies=[["s1", "Study", "2021-06", "d", "p"]],
            questions=[["q1", "s1", "open_ended", "Question?"]],
            responses=[["r1", "q1", "café", ""]],
        )
        responses = path / "responses.csv"
        responses.write_bytes(responses.read_bytes().replace("é".encode(), b"\xff"))
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value).startswith("responses.csv: 'utf-8' codec can't decode byte 0xff")

    def test_bad_month_names_study_and_row(self, tmp_path):
        path = write_bundle(
            tmp_path / "bundle",
            studies=[["s1", "Study", "junk", "d", "p"]],
            questions=[],
            responses=[],
        )
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == (
            "studies.csv row 2: study \"s1\": bad date: 'junk' (expected YYYY-MM)"
        )

    @pytest.mark.parametrize(
        "month", ["2021-06\n", "\u0662\u0660\u0662\u0661-\u0660\u0666"], ids=["newline", "arabic-indic-digits"]
    )
    def test_a_month_needs_ascii_digits_and_nothing_after_them(self, tmp_path, month):
        path = write_bundle(
            tmp_path / "bundle",
            studies=[["s1", "Study", month, "d", "p"]],
            questions=[],
            responses=[],
        )
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f"studies.csv row 2: study \"s1\": bad date: {month!r} (expected YYYY-MM)"

    def test_unknown_question_kind(self, tmp_path):
        path = write_bundle(
            tmp_path / "bundle",
            studies=[["s1", "Study", "2021-06", "d", "p"]],
            questions=[["q1", "s1", "multiple_choice", "Pick one"]],
            responses=[],
        )
        with pytest.raises(DataError, match='column "kind"'):
            load_dataset(path)

    def test_empty_response_text_is_legal(self, tmp_path):
        path = write_bundle(
            tmp_path / "bundle",
            studies=[["s1", "Study", "2021-06", "d", "p"]],
            questions=[["q1", "s1", "open_ended", "Question?"]],
            responses=[["r1", "q1", "", ""]],
        )
        ds = load_dataset(path)
        assert ds.responses[0].text == ""

    def test_byte_order_mark_is_ignored(self, tmp_path):
        bundle = minimal_bundle(tmp_path)
        expected = load_dataset(bundle)
        for name in ("studies.csv", "questions.csv", "responses.csv"):
            path = bundle / name
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_dataset(bundle) == expected

    def test_seven_hundred_word_corpus_shape(self, tmp_path):
        # three studies whose response counts are 170, 313, 160
        counts = {"s2": 170, "s3": 313, "s4": 160}
        responses = []
        for sid, n in counts.items():
            for i in range(n):
                responses.append([f"{sid}-r{i:03d}", f"{sid}-q", f"answer {i}", ""])
        path = write_bundle(
            tmp_path / "bundle",
            studies=[
                ["s2", "Two", "2021-06", "software", "reddit"],
                ["s3", "Three", "2021-06", "software", "reddit"],
                ["s4", "Four", "2021-09", "marketplace", "mturk"],
            ],
            questions=[[f"{sid}-q", sid, "open_ended", "How was it?"] for sid in counts],
            responses=responses,
        )
        ds = load_dataset(path)
        assert len(ds.responses) == 643
        per_study = {}
        questions = ds.question_index()
        for r in ds.responses:
            sid = questions[r.question_id].study_id
            per_study[sid] = per_study.get(sid, 0) + 1
        assert per_study == counts


class TestLayoutNormalisation:
    def test_bundle_and_json_with_the_same_shuffled_rows_load_equal_in_id_order(self, tmp_path):
        studies = [["s2", "Two", "2023-04", "d", "p"], ["s1", "One", "2021-06", "d", "p"]]
        questions = [["q3", "s2", "open_ended", "How?"], ["q1", "s1", "open_ended", "Why?"],
                     ["q2", "s1", "other", "Age?"]]
        responses = [["r9", "q3", "Fine.", ""], ["r1", "q1", "Because.", "2021-06-01"],
                     ["r5", "q2", "31", ""], ["r2", "q1", "", ""]]
        bundle = write_bundle(tmp_path / "bundle", studies, questions, responses)
        payload = {
            key: [dict(zip(columns, row)) for row in reversed(rows)]
            for key, columns, rows in (
                ("studies", STUDY_COLUMNS, studies),
                ("questions", QUESTION_COLUMNS, questions),
                ("responses", RESPONSE_COLUMNS, responses),
            )
        }
        single = tmp_path / "dataset.json"
        single.write_text(json.dumps(payload), encoding="utf-8")

        ds = load_dataset(bundle)
        assert load_dataset(single) == ds
        assert [s.study_id for s in ds.studies] == ["s1", "s2"]
        assert [q.question_id for q in ds.questions] == ["q1", "q2", "q3"]
        assert [r.response_id for r in ds.responses] == ["r1", "r2", "r5", "r9"]

    def test_responses_for_question_matches_a_scan_of_every_response(self, corpus_path):
        ds = load_dataset(corpus_path)
        for question in ds.questions:
            scan = tuple(r for r in ds.responses if r.question_id == question.question_id)
            assert scan
            assert ds.responses_for_question(question.question_id) == scan
            assert [r.response_id for r in scan] == sorted(r.response_id for r in scan)
        assert ds.responses_for_question("no-such-question") == ()
        assert load_dataset(corpus_path) == ds  # the cached index is not part of equality


class TestSingleJson:
    def test_load(self, tmp_path):
        payload = {
            "studies": [
                {"study_id": "s1", "label": "One", "month_year": "2023-03", "domain": "d", "platform": "p"}
            ],
            "questions": [{"question_id": "q1", "study_id": "s1", "kind": "open_ended", "text": "Why?"}],
            "responses": [{"response_id": "r1", "question_id": "q1", "text": "Because."}],
        }
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        ds = load_dataset(path)
        assert ds.studies[0].cohort == Cohort.POST_2022
        assert ds.questions[0].kind == QuestionKind.OPEN_ENDED

    def test_byte_order_mark_is_ignored(self, tmp_path):
        payload = {
            "studies": [
                {"study_id": "s1", "label": "One", "month_year": "2021-06", "domain": "d", "platform": "p"}
            ],
            "questions": [{"question_id": "q1", "study_id": "s1", "kind": "open_ended", "text": "Why?"}],
            "responses": [{"response_id": "r1", "question_id": "q1", "text": "Parce que ça marche."}],
        }
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        expected = load_dataset(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_dataset(path) == expected

    def test_missing_column(self, tmp_path):
        payload = {"studies": [{"study_id": "s1"}], "questions": [], "responses": []}
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match="missing column"):
            load_dataset(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "ds.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(DataError, match="invalid JSON"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "name, content", [("responses.csv", b"response_id\nr1\n"), ("data.bin", b"\xff\xfe\x00")]
    )
    def test_a_file_that_is_not_json_is_invalid_json(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(DataError, match=f"{name}: invalid JSON"):
            load_dataset(path)

    @pytest.mark.parametrize("top", [42, [], "text", None])
    def test_a_top_level_value_that_is_not_an_object(self, tmp_path, top):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(top), encoding="utf-8")
        with pytest.raises(DataError, match="top level must be a JSON object"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "key, column, value, kind",
        [
            ("responses", "text", None, "null"),
            ("responses", "collected_at", None, "null"),
            ("responses", "text", True, "a boolean"),
            ("questions", "text", ["Why?"], "an array"),
            ("studies", "label", {"en": "One"}, "an object"),
        ],
    )
    def test_a_non_text_value_names_its_row_and_column(self, tmp_path, key, column, value, kind):
        payload = {
            "studies": [
                {"study_id": "s1", "label": "One", "month_year": "2023-03", "domain": "d", "platform": "p"}
            ],
            "questions": [{"question_id": "q1", "study_id": "s1", "kind": "open_ended", "text": "Why?"}],
            "responses": [
                {"response_id": "r1", "question_id": "q1", "text": "Because."},
                {"response_id": "r2", "question_id": "q1", "text": "Fine."},
            ],
        }
        payload[key][-1][column] = value
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        index = len(payload[key]) - 1
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == (
            f'ds.json: {key}[{index}], column "{column}": expected a string, got {kind}'
        )

    def test_numbers_load_as_their_text(self, tmp_path):
        payload = {
            "studies": [{"study_id": 1, "label": "One", "month_year": "2023-03", "domain": "d", "platform": "p"}],
            "questions": [{"question_id": 2, "study_id": 1, "kind": "open_ended", "text": "Age?"}],
            "responses": [{"response_id": 3, "question_id": 2, "text": 31.5}],
        }
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        ds = load_dataset(path)
        assert (ds.studies[0].study_id, ds.responses[0].text) == ("1", "31.5")


def tiny_report() -> dict:
    sweep = {
        "convention": "pooled_weighted",
        "thresholds": [0.7, 0.8, 0.9],
        "strategies": ["basic"],
        "study_order": ["s1"],
        "cohorts": {"s1": "pre_2022"},
        "rows": [
            {
                "threshold": th,
                "strategy": "basic",
                "per_study": {"s1": {"num": 1, "den": 4, "rendered": "25.00"}},
                "averages": {"pre_2022": {"num": 1, "den": 4, "rendered": "25.00"}},
            }
            for th in (0.7, 0.8, 0.9)
        ],
    }
    return {"provenance": {"seed": 0}, "signature_detection": {"sweep": sweep}}


class TestWriteReport:
    def test_markdown_has_one_row_per_threshold_strategy(self, tmp_path):
        path = tmp_path / "report.md"
        write_report(tiny_report(), path)
        text = path.read_text(encoding="utf-8")
        data_rows = [l for l in text.splitlines() if l.startswith("| 0.")]
        assert len(data_rows) == 3  # one per (threshold, strategy)

    def test_json_written_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(tiny_report(), a)
        write_report(tiny_report(), b)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text(encoding="utf-8"))
        assert payload["signature_detection"]["sweep"]["rows"][0]["per_study"]["s1"]["rendered"] == "25.00"

    def test_percentage_rendering_two_decimal_half_up(self):
        assert average_unweighted([Fraction("6.155")])["rendered"] == "6.16"

    def test_csv_output(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(tiny_report(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("section,")
        assert any("signature_detection,basic,0.7,s1,1,4,25.00" == l for l in lines)

    def test_an_unknown_suffix_is_rejected(self, tmp_path):
        path = tmp_path / "report.txt"
        with pytest.raises(ValueError, match="unknown report format"):
            write_report(tiny_report(), path)
        assert not path.exists()


def longest_list(obj) -> int:
    """The length of the longest list anywhere in obj."""
    if isinstance(obj, dict):
        return max(map(longest_list, obj.values()), default=0)
    if isinstance(obj, list):
        return max([len(obj), *map(longest_list, obj)])
    return 0


class TestWriteJson:
    @pytest.mark.parametrize("seed", range(4))
    def test_bytes_are_canonical_json_and_no_call_encodes_a_list_longer_than_a_slice(
        self, tmp_path, monkeypatch, seed
    ):
        rng = random.Random(seed)

        def item():
            kinds = [
                lambda: rng.uniform(-1, 1),
                lambda: rng.randrange(-(10**20), 10**20),
                lambda: "".join(rng.choice("aé✓ \"\\\n\u2028😀") for _ in range(rng.randrange(6))),
                lambda: rng.choice([None, True, False, [], {}]),
                lambda: {"ü": [rng.random()], "a": {"z": None, "ß": "µ"}, "": []},
            ]
            return rng.choice(kinds)()

        def items(n):
            return [item() for _ in range(n)]

        objects = {
            "under": items(JSON_SLICE - 1),
            "at": items(JSON_SLICE),
            "over": items(JSON_SLICE + 1),
            "slices": items(3 * JSON_SLICE + rng.randrange(1, JSON_SLICE)),
            "nested": {
                "studies": [{"verdicts": items(JSON_SLICE + rng.randrange(1, 900)), "id": "s1"}, {"verdicts": items(3)}],
                "ñ": "ü",
                "empty": [[], {}],
            },
            "deep": [items(JSON_SLICE + 1), [], {}, [[items(2 * JSON_SLICE)]], "é"],
            "empty list": [],
            "empty dict": {},
        }
        encoded = []

        def encode(obj):
            encoded.append(longest_list(obj))
            return canonical_json(obj)

        monkeypatch.setattr(dataset, "canonical_json", encode)
        for i, (name, obj) in enumerate(objects.items()):
            path = tmp_path / f"{i}.json"
            write_json(path, obj)
            assert path.read_bytes() == (canonical_json(obj) + "\n").encode("utf-8"), name
        long = items(2 * JSON_SLICE + 1)
        write_json(tmp_path / "iterated.json", iter(long))  # an iterator: the list of its items
        assert (tmp_path / "iterated.json").read_bytes() == (canonical_json(long) + "\n").encode("utf-8")
        write_json(tmp_path / "none.json", iter([]))
        assert (tmp_path / "none.json").read_bytes() == b"[]\n"
        assert max(encoded) <= JSON_SLICE

    def test_a_value_json_cannot_encode_leaves_no_file(self, tmp_path):
        path = tmp_path / "out" / "rows.json"
        with pytest.raises(TypeError):
            write_json(path, [0] * JSON_SLICE + [object()])
        assert list(path.parent.iterdir()) == []
