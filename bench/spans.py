"""Span tracing installed from outside the program, and per-layer metrics.

The tracer wraps public functions of each surveyguard module (and a few
methods, patched on their class) with a recorder that appends
``(id, parent, name, start, end, attrs)`` to an in-memory list. ``cli``
binds its imports by name, so a function is patched both where it is
defined and in every module that imported it. Spans are written out when the
run ends; the per-layer metrics are derived from them afterwards, self time
being a span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import importlib
import itertools
import math
import os
import threading
import time
from collections import defaultdict

# -- recording --------------------------------------------------------------

ID, PARENT, NAME, START, END, ATTRS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []  # patch targets that no longer exist
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None  # id of the running command's span
        self._command: list | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int | None:
        stack = self._stack()
        # Worker threads start with an empty stack; their spans belong to the command.
        return stack[-1] if stack else self._root

    def begin_command(self, name: str) -> None:
        self._root = next(self._ids)
        self._command = [self._root, None, name, time.perf_counter(), None, None]

    def end_command(self) -> None:
        self._command[END] = time.perf_counter()
        self.spans.append(self._command)
        self._root = None

    def record(self, name: str, start: float, end: float, attrs: dict | None = None) -> None:
        """Add an already-finished span (used by the provider proxy)."""
        self.spans.append([next(self._ids), self._parent(), name, start, end, attrs])

    def wrap(self, fn, name: str, on_return=None):
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._parent()
            stack = self._stack()
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = None
            if on_return is not None:
                try:
                    attrs = on_return(result, args, kwargs)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    attrs = None  # the wrapped API changed; timing still counts
            self.spans.append([span_id, parent, name, start, end, attrs])
            return result

        traced.__wrapped__ = fn
        return traced


# -- what is patched ----------------------------------------------------------


def _file_bytes(index):
    def attrs(result, args, kwargs):
        path = args[index] if len(args) > index else kwargs.get("path")
        return {"bytes": os.path.getsize(path)}

    return attrs


def _store_attrs(result, args, kwargs):
    cache, key = args[0], args[1]
    return {"written": bool(result), "bytes": os.path.getsize(cache.path_for(key)) if result else 0}


def _pairs(result, args, kwargs):
    pairs = args[2] if len(args) > 2 else kwargs["signature_embeddings"]
    return {"pairs": len(pairs)}


def _verdicts(result, args, kwargs):
    return {"verdicts": sum(len(s.verdicts) for s in result.studies)}


# (span name, defining module, attribute path, modules that import it by name, attrs)
PATCHES = [
    ("dataset.load", "surveyguard.dataset", "load_dataset", ["surveyguard.cli"], None),
    ("dataset.write", "surveyguard.dataset", "write_json", ["surveyguard.cli"], _file_bytes(0)),
    ("dataset.write", "surveyguard.dataset", "write_csv", ["surveyguard.cli"], _file_bytes(0)),
    ("dataset.write", "surveyguard.dataset", "write_text", ["surveyguard.cli"], _file_bytes(0)),
    ("dataset.write", "surveyguard.dataset", "write_report", ["surveyguard.cli"], _file_bytes(1)),
    ("gateway.embed", "surveyguard.gateway", "ProviderGateway.embed", [], None),
    ("gateway.chat", "surveyguard.gateway", "ProviderGateway.chat", [], None),
    ("gateway.call", "surveyguard.gateway", "ProviderGateway._call_with_retry", [], None),
    ("gateway.key", "surveyguard.gateway", "build_cache_key", [], None),
    ("gateway.cache_load", "surveyguard.gateway", "DiskCache.load", [],
     lambda result, args, kwargs: {"hit": result is not None}),
    ("gateway.cache_store", "surveyguard.gateway", "DiskCache.store", [], _store_attrs),
    ("signatures.generate", "surveyguard.signatures", "generate_signatures", ["surveyguard.cli"],
     lambda result, args, kwargs: {"cells": result.grid.cell_count()}),
    ("signatures.dedupe", "surveyguard.signatures", "dedupe_signatures", ["surveyguard.cli"],
     lambda result, args, kwargs: {"removed": result.duplicates_removed}),
    ("signatures.load", "surveyguard.signatures", "load_signature_set", ["surveyguard.cli"], None),
    ("signatures.save", "surveyguard.signatures", "save_signature_set", ["surveyguard.cli"], None),
    ("scoring.score", "surveyguard.scoring", "score_response", ["surveyguard.cli"], _pairs),
    ("detector.batch", "surveyguard.detector", "detect_batch", ["surveyguard.cli"], _verdicts),
    ("detector.parse", "surveyguard.detector", "parse_detector_output", [],
     lambda result, args, kwargs: {"undetermined": result.flag.value == "UNDETERMINED"}),
    ("report.sweep", "surveyguard.report", "threshold_sweep", ["surveyguard.cli"], None),
    ("report.histogram", "surveyguard.report", "build_histogram", ["surveyguard.cli"], None),
    ("report.cases", "surveyguard.report", "extract_cases", ["surveyguard.cli"], None),
    ("report.render", "surveyguard.report", "report_to_markdown", ["surveyguard.dataset"], None),
    ("report.render", "surveyguard.report", "report_to_csv_rows", ["surveyguard.dataset"], None),
    ("report.render", "surveyguard.report", "sweep_markdown_lines", ["surveyguard.cli"], None),
    ("report.render", "surveyguard.report", "detector_markdown_lines", ["surveyguard.cli"], None),
]


def install(tracer: Tracer) -> None:
    """Patch every target in PATCHES; a target that is gone is noted as missing."""
    for name, module_name, path, importers, attrs in PATCHES:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            tracer.missing.append(f"{module_name}.{path}")
            continue
        wrapper = tracer.wrap(original, name, attrs)
        setattr(owner, attr, wrapper)
        for importer in importers:
            module = importlib.import_module(importer)
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)


# -- deriving metrics ---------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if s < end and e > start)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class SpanIndex:
    def __init__(self, spans) -> None:
        self.by_id = {s[ID]: s for s in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for s in spans:
            if s[PARENT] is not None:
                self.children[s[PARENT]].append(s)
            self.by_name[s[NAME]].append(s)

    def self_time(self, span) -> float:
        kids = [(c[START], c[END]) for c in self.children.get(span[ID], ())]
        return (span[END] - span[START]) - covered(span[START], span[END], kids)

    def outermost(self, name: str):
        """Spans called ``name`` that have no ancestor of the same name."""
        out = []
        for s in self.by_name.get(name, ()):
            parent = self.by_id.get(s[PARENT])
            while parent is not None and parent[NAME] != name:
                parent = self.by_id.get(parent[PARENT])
            if parent is None:
                out.append(s)
        return out

    def total(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.outermost(name))

    def attr_sum(self, name: str, key: str, outermost: bool = False) -> float:
        spans = self.outermost(name) if outermost else self.by_name.get(name, ())
        return sum((s[ATTRS] or {}).get(key, 0) for s in spans)

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))


# Per-layer metrics as (name, unit), in report order; layer_metrics computes them.
PER_LAYER = [
    ("cli.gen_signatures_s", "s"),
    ("cli.score_s", "s"),
    ("cli.report_s", "s"),
    ("cli.detect_llm_s", "s"),
    ("cli.self_s", "s"),
    ("dataset.load_s", "s"),
    ("dataset.write_s", "s"),
    ("dataset.write_bytes", "bytes"),
    ("gateway.embed_calls", "count"),
    ("gateway.embed_self_s", "s"),
    ("gateway.chat_calls", "count"),
    ("gateway.chat_self_s", "s"),
    ("gateway.key_s", "s"),
    ("gateway.cache_hits", "count"),
    ("gateway.cache_misses", "count"),
    ("gateway.hit_ratio", "ratio"),
    ("gateway.cache_load_s", "s"),
    ("gateway.cache_store_s", "s"),
    ("gateway.cache_stores", "count"),
    ("gateway.bytes_per_entry", "bytes"),
    ("gateway.wait_s", "s"),
    ("gateway.duplicate_requests", "count"),
    ("providers.requests", "count"),
    ("providers.texts", "count"),
    ("providers.busy_s", "s"),
    ("providers.request_p50_ms", "ms"),
    ("providers.request_p99_ms", "ms"),
    ("providers.max_in_flight", "count"),
    ("signatures.generate_s", "s"),
    ("signatures.cells", "count"),
    ("signatures.duplicates_removed", "count"),
    ("signatures.load_s", "s"),
    ("scoring.score_s", "s"),
    ("scoring.responses", "count"),
    ("scoring.pairs", "count"),
    ("scoring.us_per_pair", "us"),
    ("detector.batch_s", "s"),
    ("detector.parse_s", "s"),
    ("detector.verdicts", "count"),
    ("detector.undetermined", "count"),
    ("report.sweep_s", "s"),
    ("report.histogram_s", "s"),
    ("report.cases_s", "s"),
    ("report.render_s", "s"),
]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(spans, commands) -> dict[str, float | None]:
    """Per-layer metrics of one traced child run.

    ``commands`` are the child's per-command records with the provider
    proxy's counters. Times are summed over threads. A metric whose wrapped
    functions saw no call is None (missing), not zero, so a renamed function
    shows up instead of reading 0 s.
    """
    idx = SpanIndex(spans)
    m: dict[str, float | None] = {}

    def put(name: str, value, *sources: str) -> None:
        m[name] = value if any(idx.count(s) for s in sources) else None

    def total(name: str, source: str) -> None:
        put(name, idx.total(source), source)

    def self_sum(source: str) -> float:
        return sum(idx.self_time(s) for s in idx.by_name.get(source, ()))

    command_spans = [s for s in spans if s[PARENT] is None and s[NAME].startswith("cli.")]
    for cmd in ("gen_signatures", "score", "report", "detect_llm"):
        total(f"cli.{cmd}_s", f"cli.{cmd}")
    m["cli.self_s"] = sum(idx.self_time(s) for s in command_spans)

    total("dataset.load_s", "dataset.load")
    total("dataset.write_s", "dataset.write")
    put("dataset.write_bytes", idx.attr_sum("dataset.write", "bytes", outermost=True), "dataset.write")

    put("gateway.embed_calls", idx.count("gateway.embed"), "gateway.embed")
    put("gateway.embed_self_s", self_sum("gateway.embed"), "gateway.embed")
    put("gateway.chat_calls", idx.count("gateway.chat"), "gateway.chat")
    put("gateway.chat_self_s", self_sum("gateway.chat"), "gateway.chat")
    total("gateway.key_s", "gateway.key")
    hits = idx.attr_sum("gateway.cache_load", "hit")
    lookups = idx.count("gateway.cache_load")
    put("gateway.cache_hits", hits, "gateway.cache_load")
    put("gateway.cache_misses", lookups - hits, "gateway.cache_load")
    put("gateway.hit_ratio", hits / lookups if lookups else None, "gateway.cache_load")
    total("gateway.cache_load_s", "gateway.cache_load")
    total("gateway.cache_store_s", "gateway.cache_store")
    stores = idx.attr_sum("gateway.cache_store", "written")
    put("gateway.cache_stores", stores, "gateway.cache_store")
    stored_bytes = idx.attr_sum("gateway.cache_store", "bytes")
    put("gateway.bytes_per_entry", stored_bytes / stores if stores else None, "gateway.cache_store")
    put("gateway.wait_s", self_sum("gateway.call"), "gateway.call")

    proxies = [c["proxy"] for c in commands]
    durations = sorted(d for p in proxies for d in p["durations"])
    request = "providers.request"
    put("gateway.duplicate_requests",
        sum(p["requests"] - p["distinct_requests"] for p in proxies), request)
    put("providers.requests", sum(p["requests"] for p in proxies), request)
    put("providers.texts", sum(p["texts"] for p in proxies), request)
    put("providers.busy_s", sum(durations), request)
    if durations:
        put("providers.request_p50_ms", _percentile(durations, 0.50) * 1e3, request)
        put("providers.request_p99_ms", _percentile(durations, 0.99) * 1e3, request)
    else:
        m["providers.request_p50_ms"] = m["providers.request_p99_ms"] = None
    put("providers.max_in_flight", max((p["max_in_flight"] for p in proxies), default=0), request)

    total("signatures.generate_s", "signatures.generate")
    put("signatures.cells", idx.attr_sum("signatures.generate", "cells"), "signatures.generate")
    put("signatures.duplicates_removed", idx.attr_sum("signatures.dedupe", "removed"),
        "signatures.dedupe")
    total("signatures.load_s", "signatures.load")

    total("scoring.score_s", "scoring.score")
    put("scoring.responses", idx.count("scoring.score"), "scoring.score")
    pairs = idx.attr_sum("scoring.score", "pairs")
    put("scoring.pairs", pairs, "scoring.score")
    put("scoring.us_per_pair", idx.total("scoring.score") * 1e6 / pairs if pairs else None,
        "scoring.score")

    total("detector.batch_s", "detector.batch")
    total("detector.parse_s", "detector.parse")
    put("detector.verdicts", idx.attr_sum("detector.batch", "verdicts"), "detector.batch")
    put("detector.undetermined", idx.attr_sum("detector.parse", "undetermined"), "detector.parse")

    total("report.sweep_s", "report.sweep")
    total("report.histogram_s", "report.histogram")
    total("report.cases_s", "report.cases")
    total("report.render_s", "report.render")
    return m
