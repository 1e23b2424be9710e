"""Run one workload's rounds of CLI calls in a single process and record them.

Usage: python3 worker.py PLAN.json RESULT.json

The plan (written by run.py) names the source tree, the calls of one round,
the output directory, the run length and whether to trace. One closed-loop
client makes the calls in order through ``sfpp.cli.main``; the next call
starts only after the previous one returns. A call's exit code is what
``main`` returns, 2 for an argument error, and 1 for an exception that
escapes ``main``. A failed call is recorded and the round carries on.

Rounds repeat until the next one would end further past ``seconds`` than
the run currently falls short of it. With tracing on, untraced and traced
rounds alternate (at least one of each) so the tracing overhead can be
measured on the same inputs.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import traceback
from pathlib import Path


def _call(cli, argv, log) -> int:
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            return int(cli.main(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=log)
            return 1


def _peak_rss_mb() -> float:
    """Peak resident memory of this process alone, in MB.

    Not ru_maxrss: Linux carries the parent's peak across exec into it, so a
    worker smaller than the benchmark's own process would report the latter.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text("utf-8"))
    sys.path.insert(0, plan["src"])
    from sfpp import cli

    import spans

    out_root = Path(plan["out"])
    trace = bool(plan["trace"])
    seconds = float(plan["seconds"])
    rounds, tracers = [], {}
    start = time.perf_counter()
    with open(out_root / "calls.log", "w", encoding="utf-8") as log:
        while True:
            index = len(rounds)
            traced = trace and index % 2 == 1
            out = out_root / f"r{index}"
            out.mkdir(parents=True)
            tracer = spans.Tracer() if traced else None
            if tracer:
                tracer.install()
            calls = []
            t0 = time.perf_counter()
            try:
                for call in plan["calls"]:
                    argv = [arg.replace("{out}", str(out)) for arg in call["argv"]]
                    c0 = time.perf_counter()
                    code = _call(cli, argv, log)
                    calls.append({"name": call["name"], "group": call["group"], "ops": call["ops"],
                                  "code": code, "seconds": time.perf_counter() - c0})
            finally:
                wall = time.perf_counter() - t0
                if tracer:
                    tracer.uninstall()
            record = {"out": str(out), "traced": traced, "wall_s": wall, "calls": calls}
            if tracer:
                record["layers"] = spans.layer_figures(tracer.spans)
                tracers[index] = tracer
            rounds.append(record)
            both_kinds = not trace or len(rounds) >= 2
            if both_kinds and time.perf_counter() - start + wall / 2 >= seconds:
                break
    peak_mb = _peak_rss_mb()
    if trace:
        with open(plan["spans_path"], "w", encoding="utf-8") as span_file:
            for index, tracer in tracers.items():
                tracer.write(span_file, index)
    Path(result_path).write_text(json.dumps({"rounds": rounds, "peak_rss_mb": peak_mb}), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
