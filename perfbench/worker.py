"""Run one deltadistill CLI command in this fresh process and time it.

Usage: python3 worker.py RESULT_JSON SPANS_JSONL|- CLI_ARG...

Writes {"code", "wall_s", "maxrss_mb"} to RESULT_JSON: the command's exit
code, the wall time from before ``deltadistill`` (and with it numpy) is
imported until ``cli.main`` returns, and this process's peak RSS. Only the
interpreter's own start-up is left out. With a spans
path instead of "-", every module boundary is traced (see tracer.py) and the
spans are written there once the command ends.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    result_path, spans_path, *cli_argv = sys.argv[1:]
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from deltadistill import cli

    run = cli.main
    tracer = None
    if spans_path != "-":
        from tracer import Tracer, instrument

        spans = Path(spans_path)  # <repetition>/<step>.spans.jsonl
        tracer = Tracer(trace_id=f"{spans.parent.name}/{spans.name.split('.')[0]}")
        instrument(tracer)
        run = tracer.wrap("cli.main", cli.main)
    code = run(cli_argv)
    wall = time.perf_counter() - start
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"code": code, "wall_s": wall, "maxrss_mb": maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
