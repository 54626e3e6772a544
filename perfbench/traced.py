"""One in-process call of the ``repro`` CLI, for the benchmark's traced mode.

    python3 perfbench/traced.py CONFIG.json

CONFIG holds ``argv`` (the CLI arguments), ``traced`` (record spans or
not), ``out`` (where the result goes: wall time, exit code, captured
stdout and, when traced, the per-layer metrics) and ``spans`` (where the
spans go).  The CLI runs in this fresh process so that neither run sees
caches the other filled.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    import repro.cli

    from spans import SpanRecorder, install, layer_metrics

    recorder = None
    if config["traced"]:
        recorder = SpanRecorder()
        install(recorder)
        recorder.patch(repro.cli, "main", "cli")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        start = time.perf_counter()
        code = repro.cli.main(config["argv"])
        wall = time.perf_counter() - start
    result = {"wall_s": wall, "exit": code, "stdout": stdout.getvalue()}
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, wall)
        result["counts"] = dict(recorder.counts)
        with open(config["spans"], "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "scenario"],
                       "spans": recorder.spans}, handle)
    with open(config["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
