"""One measured run: a fresh process that runs a workload's commands in order.

Usage: python3 bench/child.py SPEC.json

SPEC names the source tree, the commands (each an argv for
``surveyguard.cli.main``), the per-request provider delay, whether to trace,
and where to write the result. The latency proxy is installed by wrapping
``surveyguard.cli.build_gateway``; nothing in the program is edited. Only the
command sequence is timed: imports before it and output hashing between
commands are not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from proxy import LatencyProxy, ProxyStats


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under root, by relative path."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import surveyguard.cli as cli

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    current: list[ProxyStats] = []
    on_request = None
    if tracer is not None:
        def on_request(method, start, end):
            tracer.record("providers.request", start, end)

    build_gateway = cli.build_gateway

    def proxied_gateway(cfg):
        gateway = build_gateway(cfg)
        stats = current[-1]
        gateway.chat_provider = LatencyProxy(gateway.chat_provider, spec["delay_s"], stats, on_request)
        gateway.embedding_provider = LatencyProxy(
            gateway.embedding_provider, spec["delay_s"], stats, on_request
        )
        return gateway

    cli.build_gateway = proxied_gateway

    records = []
    out_dir = Path(spec["output_dir"])
    for command in spec["commands"]:
        stats = ProxyStats()
        current.append(stats)
        buffer = io.StringIO()
        error = None
        if tracer is not None:
            tracer.begin_command("cli." + command["argv"][0].replace("-", "_"))
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            try:
                code = cli.main(command["argv"])
            except Exception:  # a traceback is a failed command, not a crashed benchmark
                code = None
                error = traceback.format_exc()
        seconds = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
        if tracer is not None:
            tracer.end_command()
        records.append(
            {
                "label": command["label"],
                "exit_code": code,
                "error": error,
                "seconds": seconds,
                "cpu_s": cpu,
                "stdout": buffer.getvalue(),
                "proxy": stats.snapshot(),
                "outputs": tree_digest(out_dir) if out_dir.is_dir() else {},
            }
        )

    result = {
        "commands": records,
        "wall_s": sum(r["seconds"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing_targets"] = tracer.missing
    tmp = Path(spec["result"] + ".tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    os.replace(tmp, spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
