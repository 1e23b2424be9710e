"""End-to-end benchmark of the sfpp command line.

    python3 perfbench/run.py --workload wide-head --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (the benchmark imports ``src/sfpp``,
nothing installed). It writes the workload's input files from the seed,
times fresh-interpreter imports of ``sfpp.cli`` (``setup_s``, untraced runs
only), then runs the workload's calls in one worker process through
``sfpp.cli.main``, checks every output against independent computations,
and prints one line per figure followed by a JSON summary as the last line.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones, plus the tracing overhead. Scratch files live under ``.perfbench/``
in the checkout; the span file of a traced run is kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Pinned before numpy loads here and handed to every child process: one BLAS
# thread and one bench worker, so a run occupies one of the machine's two
# CPUs and the timings do not depend on how the two get shared.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SFPP_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import checks  # noqa: E402  (after the pins: these load numpy)
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5

END_TO_END = (("setup_s", "s"), ("round_s", "s"), ("peak_rss_mb", "MB"))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports sfpp.cli and exits."""
    env = _child_env()
    argv = [sys.executable, "-c", "import sfpp.cli"]
    subprocess.run(argv, env=env, check=True, timeout=60)      # warm the bytecode cache
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_worker(plan, work: Path, seconds: float, trace: bool, deadline: float) -> dict:
    doc = {
        "src": str(SRC),
        "out": str(work / "out"),
        "seconds": seconds,
        "trace": trace,
        "spans_path": str(STATE / f"spans-{plan.workload}-seed{plan.seed}.jsonl"),
        "calls": [{"name": c.name, "group": c.group, "argv": c.argv, "ops": c.ops}
                  for c in plan.calls],
    }
    (work / "out").mkdir()
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(doc), "utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
                   env=_child_env(), check=True, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(result_path.read_text("utf-8"))


def check_outputs(plan, result) -> tuple[list, dict]:
    """Check every output of every call that succeeded, in every round."""
    problems, facts = [], {}
    inputs = {}
    for record in result["rounds"]:
        for call_def, call in zip(plan.calls, record["calls"]):
            if call["code"] != 0:
                continue
            out = Path(record["out"])
            if call_def.group == "bench":
                problems += checks.check_bench(out / "bench", workloads.BENCH_SCENARIOS,
                                               workloads.BENCH_RATIOS, workloads.BENCH_TRIALS)
                continue
            key = tuple(sorted(call_def.inputs.items()))
            if key not in inputs:
                inputs[key] = checks.Inputs(call_def.inputs)
            method = "predict" if call_def.group == "predict" else call_def.name
            found, call_facts = checks.check_report(method, out / f"{call_def.name}.json",
                                                    inputs[key])
            problems += found
            for name, value in call_facts.items():
                facts[f"{call_def.name} {name}"] = value
    return problems, facts


def main(argv=None) -> int:
    args = _parse_args(argv)
    # room for set-up, checks and the last round, which may end past --seconds
    deadline = time.monotonic() + 2 * args.seconds + 120
    if not (SRC / "sfpp" / "cli.py").is_file():
        print(f"error: no sfpp source tree at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        t0 = time.perf_counter()
        plan = workloads.build(args.workload, args.seed, work)
        generate_s = time.perf_counter() - t0
        setup_s = None if args.trace else measure_setup()
        result = run_worker(plan, work, args.seconds, bool(args.trace), deadline)
        t0 = time.perf_counter()
        problems, check_facts = check_outputs(plan, result)
        check_s = time.perf_counter() - t0
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        log = work / "out" / "calls.log"
        if log.is_file():
            print(log.read_text("utf-8")[-4000:], file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = result["rounds"]
    attempted = sum(c["ops"] for r in rounds for c in r["calls"])
    failed = sum(c["ops"] for r in rounds for c in r["calls"] if c["code"] != 0)
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds "
          f"({len(traced)} traced), {attempted} operations, {failed} failed")
    print("  pinned: " + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items())
          + f"; cpus {os.cpu_count()}; python {sys.version.split()[0]}")
    print(f"  inputs generated in {generate_s:.2f} s, outputs checked in {check_s:.2f} s")
    print("  round walls: " + ", ".join(
        f"{r['wall_s']:.3f} s" + (" (traced)" if r["traced"] else "") for r in rounds))
    for name, value in {**plan.facts, **check_facts}.items():
        print(f"  {name}: {value}")
    groups, per_call = {}, {}
    for record in untraced:
        per_round = {}
        for call in record["calls"]:
            per_round[call["group"]] = per_round.get(call["group"], 0.0) + call["seconds"]
            per_call.setdefault(call["name"], []).append(call["seconds"])
        for group, seconds in per_round.items():
            groups.setdefault(group, []).append(seconds)
    print("  calls (median s): " + ", ".join(
        f"{name} {statistics.median(values):.3f}" for name, values in per_call.items()))
    for group, values in groups.items():
        print(f"  {group}_s {statistics.median(values):.4f} s (median of {len(values)} rounds)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks: {'passed' if not problems else f'{len(problems)} problems'}")

    if args.trace:
        figures = spans.median_figures([r["layers"] for r in traced])
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in untraced))
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in spans.METRICS}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {
            "setup_s": setup_s,
            "round_s": statistics.median(r["wall_s"] for r in untraced),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
