"""Correctness gate: independent oracles for the program's artifacts.

Every check returns a list of failure messages; an empty list passes. The
oracles do not reuse the program's scoring, sweep or detector code: scores
are recomputed with NumPy from ``MockEmbeddingProvider`` vectors, sweep
counts from the scored dump, detector percentages from the generator's own
marker counts. Tolerances (1e-12 on scores) survive last-bit changes in how
the program computes a cosine.
"""

from __future__ import annotations

import csv
import json
import random
import re
from pathlib import Path

import numpy as np

SCORE_TOLERANCE = 1e-12
_CALLS_LINE = re.compile(r"^provider calls: (\d+) \(cache hits: \d+\)$", re.M)


def check_commands(result: dict) -> list[str]:
    """Every command exited 0 and the proxy saw no failed request."""
    failures = []
    for record in result["commands"]:
        if record["exit_code"] != 0:
            detail = (record["error"] or record["stdout"])[-300:]
            failures.append(f"{record['label']}: exit code {record['exit_code']}: {detail}")
        if record["proxy"]["failures"]:
            failures.append(f"{record['label']}: {record['proxy']['failures']} failed provider requests")
    return failures


def check_warm(record: dict) -> list[str]:
    """A warm pass makes no provider request and says so on stdout."""
    failures = []
    if record["proxy"]["requests"]:
        failures.append(f"{record['label']}: warm pass made {record['proxy']['requests']} provider requests")
    reported = _CALLS_LINE.findall(record["stdout"])
    if reported != ["0"]:
        failures.append(f"{record['label']}: warm pass printed provider calls {reported or 'nothing'}")
    return failures


def check_identical(digests: list[tuple[str, dict]]) -> list[str]:
    """Every labelled artifact digest map equals the first one."""
    failures = []
    label0, first = digests[0]
    for label, other in digests[1:]:
        if other != first:
            changed = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
            failures.append(f"artifacts differ between {label0} and {label}: {', '.join(changed[:5])}")
    return failures


def _read_responses(corpus_dir: Path) -> dict[str, str]:
    with open(corpus_dir / "responses.csv", encoding="utf-8", newline="") as fh:
        return {row["response_id"]: row["text"] for row in csv.DictReader(fh)}


def check_max_cosine(out_dir: Path, corpus_dir: Path, embedder, sample: int, seed: int) -> list[str]:
    """Recompute max-cosine scores for a sample of responses with NumPy.

    ``embedder.embed(text)`` must give the vectors the program's provider
    gave. The best signature is the one with the largest cosine; ties within
    the tolerance go to the smallest signature id.
    """
    texts = _read_responses(corpus_dir)
    rows = json.loads((out_dir / "scored_basic.json").read_text(encoding="utf-8"))
    failures = []
    for row in rows:
        if not texts[row["response_id"]].strip() and row["final_score"] is not None:
            failures.append(f"{row['response_id']}: empty response has a score")
    scored = [r for r in rows if r["final_score"] is not None]
    picked = random.Random(seed).sample(scored, min(sample, len(scored)))
    signature_cache: dict[str, tuple[list[str], np.ndarray]] = {}
    for row in picked:
        qid = row["question_id"]
        if qid not in signature_cache:
            store = json.loads(
                (out_dir / "signatures" / "basic" / f"{qid}.json").read_text(encoding="utf-8")
            )
            sigs = sorted(store["signatures"], key=lambda s: s["signature_id"])
            vectors = np.array([embedder.embed(s["text"]) for s in sigs], dtype=np.float64)
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
            signature_cache[qid] = ([s["signature_id"] for s in sigs], vectors)
        ids, vectors = signature_cache[qid]
        response = np.array(embedder.embed(texts[row["response_id"]]), dtype=np.float64)
        cosines = vectors @ (response / np.linalg.norm(response))
        best = float(cosines.max())
        near = [sid for sid, c in zip(ids, cosines) if c >= best - SCORE_TOLERANCE]
        if abs(row["final_score"] - best) > SCORE_TOLERANCE:
            failures.append(f"{row['response_id']}: final_score {row['final_score']!r}, oracle {best!r}")
        elif row["best_signature_id"] != min(near):
            failures.append(
                f"{row['response_id']}: best signature {row['best_signature_id']}, oracle {min(near)}"
            )
    return failures


def check_sweep(out_dir: Path, cohorts: dict[str, str]) -> list[str]:
    """Sweep flagged/total equal counts recomputed from the scored dump (>=).

    ``cohorts`` maps study id to "pre_2022" or "post_2022"; cohort rows are
    pooled sums of their studies' counts.
    """
    rows = json.loads((out_dir / "scored_basic.json").read_text(encoding="utf-8"))
    sweep = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))
    failures = []
    for table_row in sweep["rows"]:
        th = table_row["threshold"]
        counts: dict[str, list[int]] = {}
        for row in rows:
            c = counts.setdefault(row["study_id"], [0, 0])
            c[1] += 1
            c[0] += row["final_score"] is not None and row["final_score"] >= th
        pooled: dict[str, list[int]] = {}
        for sid, (flagged, total) in counts.items():
            p = pooled.setdefault(cohorts[sid], [0, 0])
            p[0] += flagged
            p[1] += total
        got = {sid: [v["num"], v["den"]] for sid, v in table_row["per_study"].items()}
        got_pooled = {c: [v["num"], v["den"]] for c, v in table_row["averages"].items()}
        if got != counts or got_pooled != pooled:
            failures.append(f"sweep at {th:g}: program {got} {got_pooled}, oracle {counts} {pooled}")
    return failures


def check_detector(out_dir: Path, model: str, expected: dict[str, list[int]]) -> list[str]:
    """Per-study detector percentages are marker answers over non-empty answers."""
    dump = json.loads((out_dir / f"detector_{model}.json").read_text(encoding="utf-8"))
    got = {s["study_id"]: [s["percentage"]["num"], s["percentage"]["den"]] for s in dump["studies"]}
    if got != expected:
        return [f"detector percentages {got}, generator counts {expected}"]
    return []
