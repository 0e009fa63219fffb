"""Command-line surface: validate, gen-signatures, score, detect-llm, report.

One JSON config file describes a run; command-line flags override individual
keys (flags win). `--mock` swaps all providers for the deterministic seeded
mocks so pipelines can run offline. Exit codes: 0 success, 1 usage/config
error, 2 data error, 3 provider error.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import sys
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import repeat
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .dataset import (
    JSON_SLICE,
    SurveyDataset,
    _open,
    load_dataset,
    safe_name,
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
    ChatProvider,
    EmbeddingProvider,
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
    FLAG_EMPTY,
    FLAG_IRRELEVANT,
    check_threshold,
    flag_irrelevant,
    meets_threshold,
    score_matrix,
)
from .signatures import (
    DEFAULT_SENTIMENTS,
    TEMPLATE_VERSION,
    Sentiment,
    SignatureGenerationError,
    StrategyKind,
    dedupe_signatures,
    generate_signatures,
    load_signature_set,
    save_signature_set,
    signature_store_path,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3


@dataclass
class RunConfig:
    """Everything a run needs; serializable as the config-file key set."""

    dataset: str | None = None
    cache_dir: str = ".surveyguard-cache"
    output_dir: str = "surveyguard-out"
    mock: bool = False
    seed: int = 0
    mock_embedding_dim: int = 16
    models: tuple[str, ...] = ("gpt-3.5-turbo", "gpt-4", "gpt-4o", "gpt-4o-mini")
    temperatures: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    sentiments: tuple[str, ...] = tuple(s.value for s in DEFAULT_SENTIMENTS)
    strategies: tuple[str, ...] = ("basic",)
    thresholds: tuple[float, ...] = (0.7, 0.75, 0.8, 0.85, 0.9)
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
    """True iff value fits a RunConfig field type; a float field also takes an int that a float holds."""
    if isinstance(value, bool) or hint is bool:
        return value.__class__ is hint  # bool is an int subclass; keep the two apart
    if hint is float:
        return isinstance(value, float) or isinstance(value, int) and abs(value) <= sys.float_info.max
    if get_origin(hint) is tuple:  # tuple[X, ...], given as a JSON list or a flag's list
        return isinstance(value, (list, tuple)) and all(_has_type(v, get_args(hint)[0]) for v in value)
    if get_origin(hint) is UnionType:
        return any(_has_type(value, arg) for arg in get_args(hint))
    return isinstance(value, hint)


def _check_types(layer: Mapping[str, object], where: str = "") -> None:
    for key, value in layer.items():
        if not _has_type(value, _FIELD_TYPES[key]):
            expected = RunConfig.__annotations__[key]  # the annotation's source text
            raise ConfigError(f'config key "{key}" must be {expected}, got {value!r}{where}')


def load_config_file(path: Path | str) -> dict:
    """The config file's keys, each a RunConfig field of its field's type, or a ConfigError naming it."""
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
    where = f" (in config file {p})"
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}{where}")
    _check_types(raw, where)
    return raw


def resolve_config(config_path: str | None, overrides: Mapping[str, object]) -> RunConfig:
    """Defaults, then config file, then flags; flags win. Both layers are type-checked, and an
    error in a value the file gave, and no flag overrode, names the file."""
    file_layer = load_config_file(config_path) if config_path else {}
    flags = {k: v for k, v in overrides.items() if v is not None}
    _check_types(flags)
    merged = file_layer | flags
    for key, value in merged.items():  # as the fields hold them: a list as a tuple, an int as a float
        if _FIELD_TYPES[key] is float:
            merged[key] = float(value)
        elif key in _TUPLE_KEYS:
            merged[key] = tuple(map(float, value) if _FIELD_TYPES[key] == tuple[float, ...] else value)
    cfg = replace(RunConfig(), **merged)
    where = f" (in config file {Path(config_path)})" if config_path else ""
    _validate_config(cfg, dict.fromkeys(file_layer.keys() - flags.keys(), where))
    return cfg


def _validate_config(cfg: RunConfig, where: Mapping[str, str]) -> None:
    """Check each value's domain rules; the ConfigError for a key ends with ``where[key]``, if any."""

    def fail(key: str, message: str) -> None:
        raise ConfigError(f"{message}{where.get(key, '')}") from None

    def check(key: str, rule: Callable[[object], object], value: object) -> None:
        """Run a library domain rule on a config value; its ValueError becomes a ConfigError."""
        try:
            rule(value)
        except ValueError as exc:
            fail(key, str(exc))

    for key in sorted(_TUPLE_KEYS):
        values = getattr(cfg, key)
        if not values and (key != "sentiments" or "sentiment" in cfg.strategies):  # basic ignores them
            fail(key, f"{key} must be non-empty")
        if len(set(values)) < len(values):  # a duplicate grid cell, strategy or sweep row
            fail(key, f"{key} must not repeat a value, got {list(values)}")
        if _FIELD_TYPES[key] == tuple[float, ...] and len({f"{v:g}" for v in values}) < len(values):
            fail(key, f"{key} must stay distinct at 6 significant digits, got {list(values)}")
    if "" in cfg.models:
        fail("models", "models must not contain an empty model id")
    for t in cfg.temperatures:
        check("temperatures", check_temperature, t)
    check("detector_temperature", check_temperature, cfg.detector_temperature)
    for s in cfg.strategies:
        if s not in ("basic", "sentiment"):
            fail("strategies", f'unknown strategy "{s}" (expected basic or sentiment)')
    if list(cfg.thresholds) != sorted(cfg.thresholds):
        fail("thresholds", "thresholds must be sorted ascending")
    for th in cfg.thresholds:
        check("thresholds", check_threshold, th)
    if not math.isfinite(cfg.low_threshold):  # NaN or Infinity would make an artifact invalid JSON
        fail("low_threshold", f"low_threshold must be finite, got {cfg.low_threshold}")
    check("bin_width", bin_count, cfg.bin_width)
    if cfg.k_high < 0:
        fail("k_high", f"k_high must be >= 0, got {cfg.k_high}")
    if cfg.scores_mode not in ("summary", "full"):
        fail("scores_mode", f'scores_mode must be "summary" or "full", got "{cfg.scores_mode}"')
    for s in cfg.sentiments:
        if s not in {sentiment.value for sentiment in Sentiment}:
            fail("sentiments", f'unknown sentiment "{s}"')


def _providers(cfg: RunConfig) -> tuple[ChatProvider, EmbeddingProvider]:
    """The run's chat and embedding providers; building them makes no request and needs no API key."""
    if cfg.mock:
        return MockChatProvider(cfg.seed), MockEmbeddingProvider(cfg.seed, cfg.mock_embedding_dim)
    endpoint = dict(base_url=cfg.chat_base_url, base_url_env=cfg.base_url_env, api_key_env=cfg.api_key_env)
    return OpenAICompatChatProvider(**endpoint), OpenAICompatEmbeddingProvider(cfg.embedding_model, **endpoint)


def build_gateway(cfg: RunConfig) -> ProviderGateway:
    """The run's gateway: its cache dir, opened, and its providers."""
    try:
        cache = DiskCache(Path(cfg.cache_dir))
    except OSError as exc:  # a file at the path or above it, or no permission
        raise ConfigError(f"cannot use cache directory {cfg.cache_dir}: {exc.strerror}") from None
    chat, embed = _providers(cfg)
    return ProviderGateway(cache=cache, chat_provider=chat, embedding_provider=embed)


def _load_dataset(cfg: RunConfig) -> SurveyDataset:
    if not cfg.dataset:
        raise ConfigError("no dataset configured (use --dataset or the config file)")
    return load_dataset(cfg.dataset)


@contextmanager
def _exclusive_output(out_dir: Path):
    """One run owns its output directory: it holds an flock on out_dir/.lock, which the kernel
    releases when the run ends, however it ends. A .lock that no process holds is taken."""
    lock = out_dir / ".lock"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        while True:
            fd = os.open(lock, os.O_CREAT | os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if os.path.samestat(os.fstat(fd), os.stat(lock)):
                    break
            except FileNotFoundError:  # the run before unlinked it after our open
                pass
            except OSError:
                os.close(fd)
                raise
            os.close(fd)  # an unlinked inode: lock the file now at the path
    except BlockingIOError:
        raise ConfigError(f"output directory {out_dir} is locked ({lock})") from None
    except OSError as exc:  # a file at the path or above it, no permission, or no descriptor free
        raise ConfigError(f"cannot use output directory {out_dir}: {exc.strerror}") from None
    try:
        yield
    finally:
        lock.unlink(missing_ok=True)  # before the close, so no other run holds the file it unlinks
        os.close(fd)


def _print_gateway_stats(gateway: ProviderGateway) -> None:
    stats = gateway.stats
    print(f"provider calls: {stats.provider_calls} (cache hits: {stats.cache_hits})")


def _strategy_kinds(cfg: RunConfig) -> list[StrategyKind]:
    return [StrategyKind(s) for s in cfg.strategies]


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(cfg: RunConfig) -> int:
    """Load and lint a dataset."""
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
    """Materialize reference signatures per question."""
    dataset = _load_dataset(cfg)
    gateway = build_gateway(cfg)
    out_dir = Path(cfg.output_dir)
    store_dir = out_dir / "signatures"
    sentiments = tuple(Sentiment(s) for s in cfg.sentiments)
    open_questions = dataset.open_questions()
    if not open_questions:
        raise DataError("dataset has no open-ended questions")

    kinds = _strategy_kinds(cfg)
    aborted: list[str] = []
    generated = failures = removed = 0
    with _exclusive_output(out_dir):
        stores = generate_signatures(open_questions, kinds, cfg.models, cfg.temperatures, gateway, sentiments)
        labels = [f"{kind.value}/{question.question_id}" for kind in kinds for question in open_questions]
        for label, store in zip(labels, stores, strict=True):
            if isinstance(store, SignatureGenerationError):
                aborted.append(label)
                print(f"aborted: {store}", file=sys.stderr)
                continue
            store = dedupe_signatures(store)
            save_signature_set(store, store_dir)
            generated += len(store["signatures"])
            failures += len(store["failures"])
            removed += store["duplicates_removed"]
            print(
                f"{label}: {len(store['signatures'])} signatures, "
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
) -> tuple[dict, dict[str, str]]:
    """The score columns of every open-ended response, and the texts of the signatures they were
    scored against. A column holds a value per response, in response id order: response_id,
    question_id, study (an index into study_ids), final_score (NaN where empty), empty, best (an
    index into signature_ids, -1 where empty) and irrelevant. Under ``--scores full``, row is each
    response's row in the score matrix of its question, which matrices holds with its sorted
    signature ids by question id."""
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
    at: dict[str, list[int]] = {q.question_id: [] for q in questions}  # where each one's responses are
    responses = [r for r in dataset.responses if r.question_id in at]  # in id order, as the dataset's
    for i, response in enumerate(responses):
        at[response.question_id].append(i)
    answered = [bool(r.text.strip()) for r in responses]
    plan = []  # per question: its signatures, where its answered responses are, and the texts to embed
    for question in questions:
        store = load_signature_set(store_dir, kind, question.question_id)
        signatures = [(s["signature_id"], s["text"]) for s in store["signatures"]]
        scored = [i for i in at[question.question_id] if answered[i]]
        plan.append((signatures, scored, [text for _, text in signatures] + [responses[i].text for i in scored]))
    # One pass fetches the misses of every question; then one question's vectors are held at a time.
    gateway.store_embeddings([text for _, _, texts in plan for text in texts])
    study_ids = sorted({q.study_id for q in questions})
    study = np.empty(len(responses), dtype=np.intp)
    final = np.full(len(responses), np.nan)
    best, row = np.full(len(responses), -1, dtype=np.intp), np.full(len(responses), -1, dtype=np.intp)
    signature_ids: list[str] = []
    signature_texts: dict[str, str] = {}
    matrices = {}
    for question, (signatures, scored, texts) in zip(questions, plan):
        study[at[question.question_id]] = study_ids.index(question.study_id)
        signature_texts.update(signatures)
        if scored:
            response_ids = [responses[i].response_id for i in scored]
            ids, m = score_matrix([i for i, _ in signatures], response_ids, gateway.stored_embeddings(texts))
            top = m.argmax(axis=1)
            final[scored], best[scored] = m[np.arange(len(m)), top], len(signature_ids) + top
            row[scored] = range(len(m))
            signature_ids += ids
            matrices[question.question_id] = ids, m
    scores = {
        "response_id": [r.response_id for r in responses],
        "question_id": [r.question_id for r in responses],
        "study": study,
        "study_ids": study_ids,
        "final_score": final,
        "empty": ~np.array(answered, dtype=bool),
        "best": best,
        "signature_ids": signature_ids,
        "irrelevant": flag_irrelevant(final, cfg.low_threshold),
    }
    if cfg.scores_mode == "full":
        scores |= {"row": row, "matrices": matrices}
    return scores, signature_texts


def _scored_rows(scores: Mapping, thresholds: Sequence[float]) -> Iterator[dict]:
    """The rows of scored_<strategy>.json from a strategy's score columns, made JSON_SLICE at a time."""
    keys = [f"{th:g}" for th in thresholds]
    matrices = scores.get("matrices")
    for start in range(0, len(scores["response_id"]), JSON_SLICE):
        part = slice(start, start + JSON_SLICE)
        final = scores["final_score"][part]
        ai_at = zip(*(meets_threshold(final, th).tolist() for th in thresholds))
        columns = [scores[key][part] for key in ("response_id", "question_id")]
        columns += [scores[key][part].tolist() for key in ("study", "empty", "best", "irrelevant")]
        columns += [final.tolist(), scores["row"][part].tolist() if matrices is not None else repeat(None)]
        for rid, qid, study, empty, best, irrelevant, score, at, ai in zip(*columns, ai_at):
            if empty:  # no score and no best signature; under --scores full, no per-signature scores
                row = dict(response_id=rid, final_score=None, best_signature_id=None, flags=[FLAG_EMPTY])
                if matrices is not None:
                    row["per_signature"] = []
            else:
                flags = [FLAG_IRRELEVANT] if irrelevant else []
                best_id = scores["signature_ids"][best]
                row = dict(response_id=rid, final_score=score, best_signature_id=best_id, flags=flags)
                if matrices is not None:
                    ids, m = matrices[qid]
                    row["per_signature"] = [{"signature_id": i, "score": v} for i, v in zip(ids, m[at].tolist())]
            row.update(question_id=qid, study_id=scores["study_ids"][study], ai_at=dict(zip(keys, ai)))
            yield row


def cmd_score(cfg: RunConfig) -> int:
    """Embed, score, sweep thresholds, export artifacts."""
    dataset = _load_dataset(cfg)
    gateway = build_gateway(cfg)
    out_dir = Path(cfg.output_dir)
    store_dir = out_dir / "signatures"
    cohorts = {s.study_id: s.cohort for s in dataset.studies}

    with _exclusive_output(out_dir):
        scores_by_strategy: dict[str, dict] = {}
        for kind in _strategy_kinds(cfg):
            scores, signature_texts = _score_strategy(cfg, dataset, gateway, kind, store_dir)
            scores_by_strategy[kind.value] = scores
            write_json(out_dir / f"scored_{kind.value}.json", _scored_rows(scores, cfg.thresholds))

            cases = extract_cases(scores, dataset.response_text, signature_texts, cfg.k_high)
            write_json(
                out_dir / f"cases_{kind.value}.json",
                {
                    "strategy": kind.value,
                    "k_high": cfg.k_high,
                    "low_threshold": cfg.low_threshold,
                    **cases,
                },
            )

            scores_by_cohort = {}
            for cohort in Cohort:
                members = np.array([cohorts[sid] == cohort for sid in scores["study_ids"]], dtype=bool)
                final = scores["final_score"][members[scores["study"]] & ~scores["empty"]]
                if len(final):
                    scores_by_cohort[cohort] = final
            if scores_by_cohort:
                write_csv(
                    out_dir / f"histogram_{kind.value}.csv",
                    ["bin_start", "bin_end", "cohort", "count"],
                    build_histogram(scores_by_cohort, cfg.bin_width),
                )

        sweep = threshold_sweep(
            scores_by_strategy,
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

        total = sum(len(scores["response_id"]) for scores in scores_by_strategy.values())
        print(
            f"scored {total} responses across {len(cohorts)} studies "
            f"({', '.join(cfg.strategies)})"
        )
        _print_gateway_stats(gateway)
    return EXIT_OK


def cmd_detect_llm(cfg: RunConfig) -> int:
    """Zero-shot LLM classification of responses."""
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
        name = f"detector_{safe_name(cfg.detector_model, 'm')}"
        write_json(out_dir / f"{name}.json", dump)
        write_text(out_dir / f"{name}.md", "\n".join(detector_markdown_lines(dump)) + "\n")
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
    """What shaped the report: template versions, conventions, the provider ids the configuration
    builds, and every setting that a command's own flag sets. It opens no cache."""
    chat, embed = _providers(cfg)
    return {
        "template_versions": {"signatures": TEMPLATE_VERSION, "detector": DETECTOR_TEMPLATE_VERSION},
        "conventions": {
            "sweep_average": AverageConvention.POOLED_WEIGHTED.value,
            "detector_average": AverageConvention.UNWEIGHTED_MEAN.value,
            "threshold_rule": "inclusive_ge",
            "rounding": "two_decimals_half_up",
        },
        "providers": {"chat": chat.provider_id, "embedding": embed.provider_id},
        "config": {key: getattr(cfg, key) for key, _, commands in _FLAGS.values() if commands},
    }


def cmd_report(cfg: RunConfig) -> int:
    """Merge dumps into a combined report."""
    out_dir = Path(cfg.output_dir)
    detector_paths = sorted(out_dir.glob("detector_*.json"))
    sweep_path = out_dir / "sweep.json"
    if not detector_paths and not sweep_path.exists():
        raise DataError(f"no dumps found in {out_dir}; run score or detect-llm first")

    with _exclusive_output(out_dir):
        llm_sections = []
        for path in detector_paths:  # each dump without its verdicts: the report renders only percentages
            dump = _read_dump(path, ("model_id", "studies"), lambda d: {"llm_detection": [d]})
            dump["studies"] = [{k: v for k, v in study.items() if k != "verdicts"} for study in dump["studies"]]
            llm_sections.append(dump)
        signature_section = None
        if sweep_path.exists():
            keys = ("rows", "study_order", "cohorts")
            sweep = _read_dump(sweep_path, keys, lambda d: {"signature_detection": {"sweep": d}})
            signature_section = {"sweep": sweep}
            cases, keys = {}, ("strategy", "high", "low")
            for strategy in sorted({str(row["strategy"]) for row in sweep["rows"]}):  # no other cases_*.json
                path = out_dir / f"cases_{strategy}.json"
                if not path.exists():
                    continue
                dump = _read_dump(path, keys, lambda d: {"signature_detection": {"cases": {"": d}}})
                if dump["strategy"] != strategy:
                    raise DataError(f"corrupted dump file: {path}: strategy {dump['strategy']!r} is not {strategy!r}")
                cases[strategy] = dump
            if cases:
                signature_section["cases"] = cases

        report = {"provenance": _build_provenance(cfg)}
        if llm_sections:
            report["llm_detection"] = llm_sections
        if signature_section:
            report["signature_detection"] = signature_section
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


# Each flag: the RunConfig field it sets, its help, and the commands that take it (none: every
# command). The field's type gives the flag its parser; a bool field makes it a switch to the
# field's non-default value.
_FLAGS = {
    "--dataset": ("dataset", "dataset path (CSV bundle dir or JSON file)", ()),
    "--cache-dir": ("cache_dir", "provider cache directory", ()),
    "--output-dir": ("output_dir", "output directory", ()),
    "--mock": ("mock", "use deterministic offline mock providers", ()),
    "--seed": ("seed", "seed for the mock providers", ()),
    "--strategy": ("strategies", "comma-separated strategies", ("gen-signatures", "score")),
    "--models": ("models", "comma-separated model ids", ("gen-signatures",)),
    "--temps": ("temperatures", "comma-separated temperatures", ("gen-signatures",)),
    "--sentiments": ("sentiments", "comma-separated sentiments", ("gen-signatures",)),
    "--thresholds": ("thresholds", "comma-separated thresholds", ("score",)),
    "--low-threshold": ("low_threshold", "irrelevance cutoff", ("score",)),
    "--k-high": ("k_high", "top-k cases to extract", ("score",)),
    "--bin-width": ("bin_width", "histogram bin width", ("score",)),
    "--scores": ("scores_mode", "summary, or full to keep per-signature scores", ("score",)),
    "--exclude-empty": ("exclude_empty", "drop empty responses from percentage denominators", ("score",)),
    "--model": ("detector_model", "detector model id", ("detect-llm",)),
    "--temperature": ("detector_temperature", "detector temperature", ("detect-llm",)),
    "--strict": ("tolerate_parse_failures", "abort on unparseable detector output", ("detect-llm",)),
}
_PARSERS = {int: int, float: float, tuple[str, ...]: _csv_list, tuple[float, ...]: _csv_floats}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="surveyguard", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=run.__doc__)
        command_parser.add_argument("--config", help="JSON config file")
        for flag, (key, text, commands) in _FLAGS.items():
            if command in commands or not commands:
                hint = _FIELD_TYPES[key]
                # Unset, a switch stores None like any flag, so the config file or default stands.
                switch = {"action": "store_const", "const": not getattr(RunConfig, key)}
                kind = switch if hint is bool else {"type": _PARSERS.get(hint)}
                command_parser.add_argument(flag, dest=key, help=text, **kind)
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
