"""Offline end-to-end benchmark for surveyguard.

Usage (from the repository root):

    python3 bench/run.py --workload first-pass --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30    # each workload in turn

Each workload is one user job run through the real CLI
(``surveyguard.cli.main``) on a corpus generated from ``--seed``, with the
deterministic mock providers behind a fixed-latency proxy:

- ``first-pass``: gen-signatures, score, report on an empty cache, then the
  audit rerun: score, report again on the now warm cache;
- ``detect``: detect-llm on an empty cache, then again on the warm cache.

Set-up, the corpus generation, is timed apart from the runs, several times
over the run. Fresh child processes run the workload's command sequence
until ``--seconds`` have passed; each reports its metrics and the benchmark
prints their medians. With ``--trace 1`` untraced and traced runs
alternate, and the per-layer metrics come from the traced ones. Every run is
checked by the correctness gate (gate.py); a failed check makes the result
``"correct": false`` and the exit code 1. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import corpus
import gate
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DELAY_S = 0.002  # injected per provider request
SETUP_REPEATS = 9  # corpus builds before the first run; one more follows each run
CHILD_TIMEOUT_S = 150
GATE_SAMPLE = 200  # responses whose max-cosine score is recomputed


@dataclass(frozen=True)
class Command:
    argv0: str
    warm: bool = False  # must make zero provider requests


@dataclass(frozen=True)
class Workload:
    responses: int
    commands: tuple[Command, ...]

    @property
    def passes(self) -> int:
        """Times the command sequence goes through every open response."""
        return sum(c.argv0 in ("score", "detect-llm") for c in self.commands)


# A warm rerun of its own, timed alone, was too unsteady to bound on a shared
# 2-core machine (CPU-bound, run-to-run spread up to 0.26), so the audit
# rerun rides on first-pass, where provider latency dominates the time.
WORKLOADS = {
    "first-pass": Workload(
        responses=2000,
        commands=(
            Command("gen-signatures"),
            Command("score"),
            Command("report"),
            Command("score", warm=True),
            Command("report"),
        ),
    ),
    "detect": Workload(
        responses=5000,
        commands=(Command("detect-llm"), Command("detect-llm", warm=True)),
    ),
}

END_TO_END = [
    ("wall_s", "s"),
    ("responses_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cache_bytes", "bytes"),
    ("output_bytes", "bytes"),
    ("provider_requests", "count"),
    ("setup_s", "s"),
]
# Printed with the others but not in the JSON result. failed_share is 0 when
# nothing fails, which a bounded metric cannot be; the gate fails the run
# instead. cpu_s, the child's CPU time over the command sequence, tells
# CPU-bound time from waiting.
PRINTED_ONLY = [("failed_share", "ratio"), ("cpu_s", "s")]


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def run_child(spec: dict, spec_path: Path) -> dict:
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"child run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


class Run:
    """One benchmark invocation: set-up, measured child runs, gate, report."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, list[tuple[str, dict]]] = {}  # by step
        self.setup_times: list[float] = []
        self.corpus_dir = work / "corpus"

    # -- set-up -------------------------------------------------------------

    def build_corpus(self) -> None:
        """Generate the corpus and time it.

        The generator is deterministic per seed, so each build rewrites the
        same bytes. Set-up is timed several times spread over the run, so one
        slow moment of a shared machine does not set the median.
        """
        start = time.perf_counter()
        self.counts = corpus.generate(self.corpus_dir, self.workload.responses, self.seed)
        self.setup_times.append(time.perf_counter() - start)

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            self.build_corpus()

    # -- runs ---------------------------------------------------------------

    def child(self, run_dir: Path, trace: bool) -> dict:
        run_dir.mkdir(parents=True)
        cache_dir = run_dir / "cache"
        out_dir = run_dir / "out"
        config = run_dir / "config.json"
        corpus.write_config(config, self.corpus_dir, cache_dir, out_dir, self.seed)
        spec = {
            "src": str(SRC),
            "trace": trace,
            "delay_s": DELAY_S,
            "output_dir": str(out_dir),
            "result": str(run_dir / "result.json"),
            "commands": [
                {"label": c.argv0, "argv": [c.argv0, "--config", str(config)]}
                for c in self.workload.commands
            ],
        }
        result = run_child(spec, run_dir / "spec.json")
        result["cache_bytes"] = tree_bytes(cache_dir)
        result["output_bytes"] = tree_bytes(out_dir)
        return result

    def measure_once(self, index: int, trace: bool) -> dict:
        run_dir = self.work / f"run{index}"
        result = self.child(run_dir, trace)

        self.failures += gate.check_commands(result)
        outputs = []
        for step, (command, record) in enumerate(zip(self.workload.commands, result["commands"])):
            if command.warm:
                self.failures += gate.check_warm(record)
            outputs.append((f"run {index} step {step + 1}", record["outputs"]))
            self.digests.setdefault(step, []).append(outputs[-1])
        # The warm rerun must end with the artifacts the cold pass left.
        argv0s = [c.argv0 for c in self.workload.commands]
        self.failures += gate.check_identical([outputs[argv0s.index(argv0s[-1])], outputs[-1]])
        if index == 0:
            self.check_content(run_dir / "out")

        requests = sum(r["proxy"]["requests"] for r in result["commands"])
        failed = sum(
            (r["exit_code"] != 0) + r["proxy"]["failures"] for r in result["commands"]
        )
        attempted = requests + len(result["commands"])
        self.attempted += attempted
        self.failed += failed
        open_responses = self.counts.open_responses * self.workload.passes
        metrics = {
            "wall_s": result["wall_s"],
            "responses_per_s": open_responses / result["wall_s"],
            "peak_rss_mb": result["maxrss_kb"] / 1024,
            "cache_bytes": result["cache_bytes"],
            "output_bytes": result["output_bytes"],
            "provider_requests": requests,
            "failed_share": failed / attempted,
            "cpu_s": result["cpu_s"],
        }
        if trace:
            metrics["layers"] = spans.layer_metrics(result["spans"], result["commands"])
            metrics["missing_targets"] = result["missing_targets"]
        shutil.rmtree(run_dir)
        self.build_corpus()
        return metrics

    def check_content(self, out_dir: Path) -> None:
        commands = {c.argv0 for c in self.workload.commands}
        if "score" in commands:
            sys.path.insert(0, str(SRC))
            from surveyguard.providers import MockEmbeddingProvider

            embedder = MockEmbeddingProvider(seed=self.seed, dim=corpus.EMBED_DIM)
            self.failures += gate.check_max_cosine(
                out_dir, self.corpus_dir, embedder, GATE_SAMPLE, self.seed
            )
            cohorts = {
                sid: "pre_2022" if month < "2022" else "post_2022" for sid, month in corpus.STUDIES
            }
            self.failures += gate.check_sweep(out_dir, cohorts)
        if "detect-llm" in commands:
            self.failures += gate.check_detector(
                out_dir, corpus.DETECTOR_MODEL, self.counts.detector_expected
            )

    def measure(self) -> list[dict]:
        runs = []
        start = time.perf_counter()
        modes = [False, True] if self.trace else [False]
        while len(runs) < len(modes) or time.perf_counter() - start < self.seconds:
            trace = modes[len(runs) % len(modes)]
            runs.append(self.measure_once(len(runs), trace) | {"traced": trace})
        for digests in self.digests.values():  # every run leaves the same artifacts
            self.failures += gate.check_identical(digests)
        return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment() -> str:
    import numpy

    blas = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return (
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, NumPy {numpy.__version__}, "
        f"OPENBLAS_NUM_THREADS {blas}"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> bool:
    """Set up, measure and report one workload; True when the gate passed."""
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(name, seed, seconds, trace, work)
        run.setup()
        runs = run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    print(f"workload {name}, seed {seed}: {len(untraced)} untraced runs"
          + (f", {len(traced)} traced runs" if traced else "") + f"; {environment()}")
    print("corpus: " + ", ".join(
        f"{k} {v}" for k, v in asdict(run.counts).items() if k != "detector_expected"
    ))
    samples = {"setup_s": run.setup_times}
    medians = {}
    for metric, unit in END_TO_END + PRINTED_ONLY:
        values = samples.get(metric) or [r[metric] for r in untraced]
        q1, medians[metric], q3 = quartiles(values)
        print(f"  {metric:<18} {medians[metric]:12.4f} {unit:<6} "
              f"(q1 {q1:.4f}, q3 {q3:.4f}, n {len(values)})")

    result_metrics = {}
    if traced:
        # Untraced and traced runs alternate; each traced run is compared with
        # the untraced run just before it, so slow drift of the machine cancels.
        overhead = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(runs[::2], runs[1::2])
        )
        print(f"per-layer (median of {len(traced)} traced runs; tracing overhead {overhead:.4f} s,"
              f" median of {len(traced)} paired differences)")
        missing = sorted({t for r in traced for t in r["missing_targets"]})
        if missing:
            print(f"  patch targets not found: {', '.join(missing)}")
        for metric, unit in spans.PER_LAYER:
            values = [r["layers"][metric] for r in traced if r["layers"][metric] is not None]
            if not values:
                print(f"  {metric:<30} {'missing':>14}")
                result_metrics[metric] = {"value": 0, "unit": unit}
                continue
            value = statistics.median(values)
            print(f"  {metric:<30} {value:14.4f} {unit}")
            result_metrics[metric] = {"value": value, "unit": unit}
        result_metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        for metric, unit in END_TO_END:
            result_metrics[metric] = {"value": medians[metric], "unit": unit}

    for failure in run.failures:
        print(f"GATE FAILED: {failure}")
    correct = not run.failures
    print(f"correctness gate: {'passed' if correct else 'FAILED'}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result_metrics,
    }), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help='one workload, or "all" to run each in turn')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills the running child and the work dir is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "surveyguard" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/surveyguard", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
