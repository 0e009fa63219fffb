"""Command-line surface: validate, gen-signatures, score, detect-llm, report.

One JSON config file describes a run; command-line flags override individual
keys (flags win). `--mock` swaps all providers for the deterministic seeded
mocks so pipelines can run offline. Exit codes: 0 success, 1 usage/config
error, 2 data error, 3 provider error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import islice
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .dataset import (
    SurveyDataset,
    _open,
    load_dataset,
    write_csv,
    write_json,
    write_report,
    write_text,
)
from .detector import DETECTOR_TEMPLATE_VERSION, detect_batch
from .errors import ConfigError, DataError, ProviderError
from .gateway import DiskCache, ProviderGateway, check_temperature
from .model import Cohort, compute_length_stats
from .providers import (
    MockChatProvider,
    MockEmbeddingProvider,
    OpenAICompatChatProvider,
    OpenAICompatEmbeddingProvider,
)
from .report import (
    AverageConvention,
    bin_count,
    build_histogram,
    comparison_text,
    detector_markdown_lines,
    extract_cases,
    percent_value,
    render_two_decimals,
    report_to_csv_rows,
    report_to_markdown,
    sweep_csv_rows,
    sweep_markdown_lines,
    threshold_sweep,
)
from .scoring import (
    FLAG_IRRELEVANT,
    check_threshold,
    empty_scored,
    flag_irrelevant,
    meets_threshold,
    score_question,
)
from .signatures import (
    DEFAULT_SENTIMENTS,
    TEMPLATE_VERSION,
    Sentiment,
    SignatureGenerationError,
    StrategyKind,
    assemble_signatures,
    dedupe_signatures,
    load_signature_set,
    save_signature_set,
    signature_requests,
    signature_store_path,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3

DEFAULT_MODELS = ("gpt-3.5-turbo", "gpt-4", "gpt-4o", "gpt-4o-mini")
DEFAULT_TEMPERATURES = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_THRESHOLDS = (0.7, 0.75, 0.8, 0.85, 0.9)


@dataclass
class RunConfig:
    """Everything a run needs; serializable as the config-file key set."""

    dataset: str | None = None
    cache_dir: str = ".surveyguard-cache"
    output_dir: str = "surveyguard-out"
    mock: bool = False
    seed: int = 0
    mock_embedding_dim: int = 16
    models: tuple[str, ...] = DEFAULT_MODELS
    temperatures: tuple[float, ...] = DEFAULT_TEMPERATURES
    sentiments: tuple[str, ...] = tuple(s.value for s in DEFAULT_SENTIMENTS)
    strategies: tuple[str, ...] = ("basic",)
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    low_threshold: float = 0.0
    k_high: int = 5
    bin_width: float = 0.05
    exclude_empty: bool = False
    scores_mode: str = "summary"
    detector_model: str = "gpt-3.5-turbo"
    detector_temperature: float = 0.0
    tolerate_parse_failures: bool = True
    embedding_model: str = "text-embedding-3-small"
    chat_base_url: str | None = None
    api_key_env: str = "OPENAI_API_KEY"
    base_url_env: str = "OPENAI_BASE_URL"


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}
_TUPLE_KEYS = {f.name for f in fields(RunConfig) if isinstance(f.default, tuple)}
_FIELD_TYPES = get_type_hints(RunConfig)


def _has_type(value: object, hint: object) -> bool:
    """True iff value fits a RunConfig field type; a float field also takes an int."""
    if isinstance(value, bool) or hint is bool:
        return value.__class__ is hint  # bool is an int subclass; keep the two apart
    if hint is float:
        return isinstance(value, (int, float))
    if get_origin(hint) is tuple:  # tuple[X, ...], given as a JSON list or a flag's list
        return isinstance(value, (list, tuple)) and all(_has_type(v, get_args(hint)[0]) for v in value)
    if get_origin(hint) is UnionType:
        return any(_has_type(value, arg) for arg in get_args(hint))
    return isinstance(value, hint)


def _check_types(layer: Mapping[str, object]) -> None:
    for key, value in layer.items():
        if not _has_type(value, _FIELD_TYPES[key]):
            expected = RunConfig.__annotations__[key]  # the annotation's source text
            raise ConfigError(f'config key "{key}" must be {expected}, got {value!r}')


def load_config_file(path: Path | str) -> dict:
    p = Path(path)
    try:
        with open(p, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:  # missing, a directory, or no permission to read
        raise ConfigError(f"cannot read config file {p}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"config file {p} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {p} must contain a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return raw


def resolve_config(config_path: str | None, overrides: Mapping[str, object]) -> RunConfig:
    """Defaults, then config file, then flags; flags win. Both layers are type-checked."""
    merged: dict = {}
    for layer in (
        load_config_file(config_path) if config_path else {},
        {k: v for k, v in overrides.items() if v is not None},
    ):
        _check_types(layer)
        merged.update(layer)
    for key in _TUPLE_KEYS & set(merged):
        merged[key] = tuple(merged[key])
    cfg = replace(RunConfig(), **merged)
    _validate_config(cfg)
    return cfg


def _check(rule, value) -> None:
    """Run a library domain rule on a config value; its ValueError becomes a ConfigError."""
    try:
        rule(value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _validate_config(cfg: RunConfig) -> None:
    for key in sorted(_TUPLE_KEYS):
        values = getattr(cfg, key)
        if not values and key != "sentiments":  # sentiments may be empty: basic runs ignore them
            raise ConfigError(f"{key} must be non-empty")
        if len(set(values)) < len(values):  # a duplicate grid cell, strategy or sweep row
            raise ConfigError(f"{key} must not repeat a value, got {list(values)}")
        if _FIELD_TYPES[key] == tuple[float, ...] and len({f"{v:g}" for v in values}) < len(values):
            raise ConfigError(f"{key} must stay distinct at 6 significant digits, got {list(values)}")
    if "" in cfg.models:
        raise ConfigError("models must not contain an empty model id")
    for t in (*cfg.temperatures, cfg.detector_temperature):
        _check(check_temperature, t)
    for s in cfg.strategies:
        if s not in ("basic", "sentiment"):
            raise ConfigError(f'unknown strategy "{s}" (expected basic or sentiment)')
    if list(cfg.thresholds) != sorted(cfg.thresholds):
        raise ConfigError("thresholds must be sorted ascending")
    for th in cfg.thresholds:
        _check(check_threshold, th)
    if not math.isfinite(cfg.low_threshold):  # NaN or Infinity would make an artifact invalid JSON
        raise ConfigError(f"low_threshold must be finite, got {cfg.low_threshold}")
    _check(bin_count, cfg.bin_width)
    if cfg.k_high < 0:
        raise ConfigError(f"k_high must be >= 0, got {cfg.k_high}")
    if cfg.scores_mode not in ("summary", "full"):
        raise ConfigError(f'scores_mode must be "summary" or "full", got "{cfg.scores_mode}"')
    for s in cfg.sentiments:
        try:
            Sentiment(s)
        except ValueError:
            raise ConfigError(f'unknown sentiment "{s}"') from None


def build_gateway(cfg: RunConfig) -> ProviderGateway:
    """The run's gateway; building it makes no request and needs no API key."""
    try:
        cache = DiskCache(Path(cfg.cache_dir))
    except OSError as exc:  # a file at the path or above it, or no permission
        raise ConfigError(f"cannot use cache directory {cfg.cache_dir}: {exc.strerror}") from None
    if cfg.mock:
        chat = MockChatProvider(seed=cfg.seed)
        embed = MockEmbeddingProvider(seed=cfg.seed, dim=cfg.mock_embedding_dim)
    else:
        chat = OpenAICompatChatProvider(
            base_url=cfg.chat_base_url,
            base_url_env=cfg.base_url_env,
            api_key_env=cfg.api_key_env,
        )
        embed = OpenAICompatEmbeddingProvider(
            model=cfg.embedding_model,
            base_url=cfg.chat_base_url,
            base_url_env=cfg.base_url_env,
            api_key_env=cfg.api_key_env,
        )
    return ProviderGateway(cache=cache, chat_provider=chat, embedding_provider=embed)


def _load_dataset(cfg: RunConfig) -> SurveyDataset:
    if not cfg.dataset:
        raise ConfigError("no dataset configured (use --dataset or the config file)")
    return load_dataset(cfg.dataset)


def _holder_is_gone(lock: Path) -> bool:
    """True iff the lock holds the PID of a process that no longer exists."""
    try:
        pid = int(lock.read_text(encoding="utf-8"))
        if pid > 0:  # 0 and negative numbers would signal process groups
            os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):  # unreadable, not a PID, or not ours to signal
        pass
    return False


@contextmanager
def _exclusive_output(out_dir: Path):
    """One run owns its output directory.

    The lock file holds the owner's PID. A lock left by a process that has
    exited is taken over; any other lock must be removed by hand.
    """
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it, or no permission
        raise ConfigError(f"cannot use output directory {out_dir}: {exc.strerror}") from None
    lock = out_dir / ".lock"
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
    try:
        fd = os.open(lock, flags)
    except FileExistsError:
        if not _holder_is_gone(lock):
            raise ConfigError(f"output directory {out_dir} is locked (stale {lock}?)") from None
        # Two runs taking over the same stale lock at once can both get past
        # here; the window is between reading the PID and this unlink.
        lock.unlink(missing_ok=True)
        try:
            fd = os.open(lock, flags)
        except FileExistsError:  # another run reclaimed it first
            raise ConfigError(f"output directory {out_dir} is locked ({lock})") from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        lock.unlink(missing_ok=True)


def _print_gateway_stats(gateway: ProviderGateway) -> None:
    stats = gateway.stats
    print(f"provider calls: {stats.provider_calls} (cache hits: {stats.cache_hits})")


def _strategy_kinds(cfg: RunConfig) -> list[StrategyKind]:
    return [StrategyKind(s) for s in cfg.strategies]


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(cfg: RunConfig) -> int:
    dataset = _load_dataset(cfg)
    print(
        f"studies: {len(dataset.studies)}, questions: {len(dataset.questions)}, "
        f"responses: {len(dataset.responses)}"
    )
    for study in dataset.studies:
        qids = [q.question_id for q in dataset.questions if q.study_id == study.study_id]
        responses = [r for qid in qids for r in dataset.responses_for_question(qid)]
        if responses:
            mean, std_dev = compute_length_stats(responses)
            length = f"avg length {mean:.2f} +/- {std_dev:.2f} words"
        else:
            length = "no responses"
        print(
            f"{study.study_id} [{study.cohort.value}] ({study.collected_month_year}): "
            f"{len(responses)} responses, {length}"
        )
    print("dataset OK")
    return EXIT_OK


def cmd_gen_signatures(cfg: RunConfig) -> int:
    dataset = _load_dataset(cfg)
    gateway = build_gateway(cfg)
    out_dir = Path(cfg.output_dir)
    store_dir = out_dir / "signatures"
    sentiments = tuple(Sentiment(s) for s in cfg.sentiments)
    open_questions = dataset.open_questions()
    if not open_questions:
        raise DataError("dataset has no open-ended questions")

    aborted: list[str] = []
    generated = failures = removed = 0
    with _exclusive_output(out_dir):
        # One chat_many pass over every strategy's and question's grid cells, then each store.
        grid = [(kind, question) for kind in _strategy_kinds(cfg) for question in open_questions]
        asked = [signature_requests(q, kind, cfg.models, cfg.temperatures, sentiments) for kind, q in grid]
        outcomes = iter(gateway.chat_many([request for requests in asked for request in requests]))
        for (kind, question), requests in zip(grid, asked):
            results = list(islice(outcomes, len(requests)))
            try:
                store = assemble_signatures(question, kind, cfg.models, cfg.temperatures, results, sentiments)
            except SignatureGenerationError as exc:
                aborted.append(f"{kind.value}/{question.question_id}")
                print(f"aborted: {exc}", file=sys.stderr)
                continue
            store = dedupe_signatures(store)
            save_signature_set(store, store_dir)
            generated += len(store["signatures"])
            failures += len(store["failures"])
            removed += store["duplicates_removed"]
            print(
                f"{kind.value}/{question.question_id}: "
                f"{len(store['signatures'])} signatures, "
                f"{len(store['failures'])} failed cells, "
                f"{store['duplicates_removed']} duplicates removed"
            )
        print(
            f"questions: {len(open_questions)}, strategies: {len(cfg.strategies)}, "
            f"signatures: {generated}, failed cells: {failures}, "
            f"duplicates removed: {removed}, aborted questions: {len(aborted)}"
        )
        _print_gateway_stats(gateway)
    if aborted and len(aborted) == len(open_questions) * len(cfg.strategies):
        raise ProviderError(f"all questions aborted: {', '.join(aborted)}")
    return EXIT_OK


def _score_strategy(
    cfg: RunConfig,
    dataset: SurveyDataset,
    gateway: ProviderGateway,
    kind: StrategyKind,
    store_dir: Path,
) -> tuple[list[dict], dict[str, str]]:
    """The scored_<strategy>.json rows of every open-ended response, by response_id,
    and the texts of the signatures they were scored against."""
    questions = dataset.open_questions()
    missing = [
        q.question_id
        for q in questions
        if not signature_store_path(store_dir, kind, q.question_id).exists()
    ]
    if missing:
        raise DataError(
            f"missing signature store for strategy {kind.value}, "
            f"question(s): {', '.join(sorted(missing))}; run gen-signatures first"
        )
    records = cfg.scores_mode == "full"
    rows = []
    signature_texts: dict[str, str] = {}
    plan = []  # per question: its signatures, by id, its answered responses, and the texts to embed
    for question in questions:
        store = load_signature_set(store_dir, kind, question.question_id)
        store["signatures"].sort(key=lambda s: s["signature_id"])
        signatures = [(s["signature_id"], s["text"]) for s in store["signatures"]]
        answered = [r for r in dataset.responses_for_question(question.question_id) if r.text.strip()]
        plan.append((signatures, answered, [text for _, text in signatures] + [r.text for r in answered]))
    # One pass fetches the misses of every question; then one question's vectors are held at a time.
    gateway.store_embeddings([text for _, _, texts in plan for text in texts])
    for question, (signatures, answered, texts) in zip(questions, plan):
        responses = dataset.responses_for_question(question.question_id)
        vectors = gateway.stored_embeddings(texts)
        signature_texts.update(signatures)
        by_id = {
            row["response_id"]: row
            for row in score_question(
                [i for i, _ in signatures], [r.response_id for r in answered], vectors, records=records
            )
        }
        for response in responses:
            row = by_id.get(response.response_id) or empty_scored(response.response_id, records)
            if flag_irrelevant(row, cfg.low_threshold):
                row["flags"].append(FLAG_IRRELEVANT)
            row["question_id"] = question.question_id
            row["study_id"] = question.study_id
            row["ai_at"] = {f"{th:g}": meets_threshold(row, th) for th in cfg.thresholds}
            rows.append(row)
    rows.sort(key=lambda row: row["response_id"])
    return rows, signature_texts


def cmd_score(cfg: RunConfig) -> int:
    dataset = _load_dataset(cfg)
    gateway = build_gateway(cfg)
    out_dir = Path(cfg.output_dir)
    store_dir = out_dir / "signatures"
    cohorts = {s.study_id: s.cohort for s in dataset.studies}
    response_texts = {r.response_id: r.text for r in dataset.responses}

    with _exclusive_output(out_dir):
        rows_by_strategy: dict[str, list[dict]] = {}
        for kind in _strategy_kinds(cfg):
            rows, signature_texts = _score_strategy(cfg, dataset, gateway, kind, store_dir)
            rows_by_strategy[kind.value] = rows
            write_json(out_dir / f"scored_{kind.value}.json", rows)

            cases = extract_cases(rows, response_texts, signature_texts, cfg.k_high, cfg.low_threshold)
            write_json(
                out_dir / f"cases_{kind.value}.json",
                {
                    "strategy": kind.value,
                    "k_high": cfg.k_high,
                    "low_threshold": cfg.low_threshold,
                    **cases,
                },
            )

            scores_by_cohort: dict[Cohort, list[float]] = {}
            for row in rows:
                if row["final_score"] is not None:
                    scores_by_cohort.setdefault(cohorts[row["study_id"]], []).append(row["final_score"])
            if scores_by_cohort:
                write_csv(
                    out_dir / f"histogram_{kind.value}.csv",
                    ["bin_start", "bin_end", "cohort", "count"],
                    build_histogram(scores_by_cohort, cfg.bin_width),
                )

        sweep = threshold_sweep(
            rows_by_strategy,
            cfg.thresholds,
            [k.value for k in _strategy_kinds(cfg)],
            cohorts,
            exclude_empty=cfg.exclude_empty,
        )
        write_json(out_dir / "sweep.json", sweep)
        write_text(out_dir / "sweep.md", "\n".join(sweep_markdown_lines(sweep)) + "\n")
        write_csv(
            out_dir / "sweep.csv",
            ["threshold", "strategy", "study", "flagged", "total", "percent"],
            sweep_csv_rows(sweep),
        )

        total = sum(len(rows) for rows in rows_by_strategy.values())
        print(
            f"scored {total} responses across {len(cohorts)} studies "
            f"({', '.join(cfg.strategies)})"
        )
        _print_gateway_stats(gateway)
    return EXIT_OK


def cmd_detect_llm(cfg: RunConfig) -> int:
    if cfg.detector_model not in cfg.models:
        raise ConfigError(
            f'detector model "{cfg.detector_model}" is not in the configured model set'
        )
    dataset = _load_dataset(cfg)
    gateway = build_gateway(cfg)
    out_dir = Path(cfg.output_dir)
    with _exclusive_output(out_dir):
        dump = detect_batch(
            dataset, gateway, cfg.detector_model, cfg.detector_temperature, cfg.tolerate_parse_failures
        )
        write_json(out_dir / f"detector_{cfg.detector_model}.json", dump)
        write_text(
            out_dir / f"detector_{cfg.detector_model}.md",
            "\n".join(detector_markdown_lines(dump)) + "\n",
        )
        for study in dump["studies"]:
            print(f"{study['study_id']}: {study['percentage']['rendered']}% flagged AI")
        if "cohort_comparison" in dump:
            print(f"cohort averages {comparison_text(dump['cohort_comparison'])}")
        _print_gateway_stats(gateway)
    return EXIT_OK


def _read_dump(path: Path, keys: Sequence[str], report_part: Callable[[dict], dict]) -> dict:
    """A dump file's JSON object; it must hold each of keys, render as the report part
    report_part makes of it and hold percent dicts that render as they say, or a DataError names it."""
    objects: list[dict] = []  # every JSON object of the dump, as json.load decodes it
    try:
        with _open(path) as fh:
            dump = json.load(fh, object_hook=lambda obj: objects.append(obj) or obj)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DataError(f"corrupted dump file: {path}: {exc}") from exc
    if not isinstance(dump, dict):
        raise DataError(f"corrupted dump file: {path}: not a JSON object")
    missing = [key for key in keys if key not in dump]
    if missing:
        raise DataError(f"corrupted dump file: {path}: missing key(s) {', '.join(missing)}")
    part = {"provenance": {}, **report_part(dump)}
    try:
        report_to_markdown(part)
        report_to_csv_rows(part)
        for pct in objects:
            if "rendered" in pct and pct["rendered"] != render_two_decimals(percent_value(pct)):
                raise DataError(f"corrupted dump file: {path}: {pct} does not render as {pct['rendered']!r}")
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DataError(f"corrupted dump file: {path}: bad shape: {exc!r}") from exc
    return dump


def _build_provenance(cfg: RunConfig) -> dict:
    gateway = build_gateway(cfg)
    return {
        "template_versions": {"signatures": TEMPLATE_VERSION, "detector": DETECTOR_TEMPLATE_VERSION},
        "grid": {
            "models": list(cfg.models),
            "temperatures": list(cfg.temperatures),
            "sentiments": list(cfg.sentiments),
            "strategies": list(cfg.strategies),
        },
        "conventions": {
            "sweep_average": AverageConvention.POOLED_WEIGHTED.value,
            "detector_average": AverageConvention.UNWEIGHTED_MEAN.value,
            "threshold_rule": "inclusive_ge",
            "rounding": "two_decimals_half_up",
        },
        "providers": {
            "chat": gateway.chat_provider.provider_id,
            "embedding": gateway.embedding_provider.provider_id,
        },
        "detector": {"model": cfg.detector_model, "temperature": cfg.detector_temperature},
        "thresholds": list(cfg.thresholds),
        "low_threshold": cfg.low_threshold,
        "bin_width": cfg.bin_width,
        "seed": cfg.seed,
        "cache": {"dir": Path(cfg.cache_dir).name, "entries": gateway.cache.entry_count()},
    }


def cmd_report(cfg: RunConfig) -> int:
    out_dir = Path(cfg.output_dir)
    detector_paths = sorted(out_dir.glob("detector_*.json"))
    sweep_path = out_dir / "sweep.json"
    case_paths = sorted(out_dir.glob("cases_*.json"))
    if not detector_paths and not sweep_path.exists():
        raise DataError(f"no dumps found in {out_dir}; run score or detect-llm first")

    llm_sections = [
        _read_dump(p, ("model_id", "studies"), lambda d: {"llm_detection": [d]}) for p in detector_paths
    ]
    signature_section = None
    if sweep_path.exists():
        sweep = _read_dump(
            sweep_path, ("rows", "study_order", "cohorts"), lambda d: {"signature_detection": {"sweep": d}}
        )
        signature_section = {"sweep": sweep}
        cases, keys = {}, ("strategy", "high", "low")
        for path in case_paths:
            dump = _read_dump(path, keys, lambda d: {"signature_detection": {"cases": {"": d}}})
            if not isinstance(dump["strategy"], str):
                raise DataError(f"corrupted dump file: {path}: strategy must be a string")
            cases[dump["strategy"]] = dump
        if cases:
            signature_section["cases"] = cases

    report = {"provenance": _build_provenance(cfg)}
    if llm_sections:
        report["llm_detection"] = llm_sections
    if signature_section:
        report["signature_detection"] = signature_section
    with _exclusive_output(out_dir):
        write_report(report, out_dir / "report.json")
        write_report(report, out_dir / "report.md")
        write_report(report, out_dir / "report.csv")
    sections = []
    if llm_sections:
        sections.append(f"{len(llm_sections)} detector section(s)")
    if signature_section:
        sections.append("signature section")
    print(f"report written to {out_dir / 'report.md'} ({', '.join(sections)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1, not argparse's default 2
        raise _UsageError(message)


def _csv_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in _csv_list(text)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--dataset", help="dataset path (CSV bundle dir or JSON file)")
    common.add_argument("--cache-dir", dest="cache_dir", help="provider cache directory")
    common.add_argument("--output-dir", dest="output_dir", help="output directory")
    common.add_argument(
        "--mock",
        action="store_const",
        const=True,
        default=None,
        help="use deterministic offline mock providers",
    )
    common.add_argument("--seed", type=int, help="seed for the mock providers")

    parser = _Parser(prog="surveyguard", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common], help="load and lint a dataset")

    gen = sub.add_parser(
        "gen-signatures", parents=[common], help="materialize reference signatures per question"
    )
    gen.add_argument("--strategy", type=_csv_list, dest="strategies", help="strategies to generate")
    gen.add_argument("--models", type=_csv_list, help="comma-separated model ids")
    gen.add_argument("--temps", type=_csv_floats, dest="temperatures", help="comma-separated temperatures")
    gen.add_argument("--sentiments", type=_csv_list, help="comma-separated sentiments")

    score = sub.add_parser(
        "score", parents=[common], help="embed, score, sweep thresholds, export artifacts"
    )
    score.add_argument("--strategy", type=_csv_list, dest="strategies", help="strategies to score")
    score.add_argument("--thresholds", type=_csv_floats, help="comma-separated thresholds")
    score.add_argument("--low-threshold", dest="low_threshold", type=float, help="irrelevance cutoff")
    score.add_argument("--k-high", dest="k_high", type=int, help="top-k cases to extract")
    score.add_argument("--bin-width", dest="bin_width", type=float, help="histogram bin width")
    score.add_argument("--scores", dest="scores_mode", choices=["summary", "full"])
    score.add_argument(
        "--exclude-empty",
        dest="exclude_empty",
        action="store_const",
        const=True,
        default=None,
        help="drop empty responses from percentage denominators",
    )

    detect = sub.add_parser(
        "detect-llm", parents=[common], help="zero-shot LLM classification of responses"
    )
    detect.add_argument("--model", dest="detector_model", help="detector model id")
    detect.add_argument(
        "--temperature", dest="detector_temperature", type=float, help="detector temperature"
    )
    detect.add_argument(
        "--strict",
        dest="tolerate_parse_failures",
        action="store_const",
        const=False,
        default=None,
        help="abort on unparseable detector output",
    )

    sub.add_parser("report", parents=[common], help="merge dumps into a combined report")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "gen-signatures": cmd_gen_signatures,
    "score": cmd_score,
    "detect-llm": cmd_detect_llm,
    "report": cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}
        cfg = resolve_config(args.config, overrides)
        return _COMMANDS[args.command](cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
