"""Show that every output check passes real outputs and rejects corrupted ones.

    python3 perfbench/selftest.py

Runs the program once on the smallest wide head, on the tall bundle and on
the bench suite (under a minute), all drawn from seed 0, checks the genuine
outputs, then applies one corruption per case (a flipped verdict, a nudged
norm, estimate, threshold or cot cost, a dropped or altered MAE row) and
expects the matching check to report a problem. Exits 0 only when every genuine output passes
and every corruption is caught.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the thread settings before numpy loads)
import checks  # noqa: E402
import workloads  # noqa: E402


def _nudge_norm(doc):
    doc["grad_norms"][0][1] *= 1.0 + 1e-6


def _flip_verdict(doc):
    doc["per_sample_correct"][0] ^= 1


def _nudge_accuracy(doc):
    doc["predicted_accuracy"] = doc["predicted_accuracy"] * (1.0 - 1e-6) + 1e-7


def _nudge_threshold(doc):
    doc["config"]["threshold"] *= 1.0 + 1e-6


def _nudge_cot_cost(doc):
    doc["config"]["ot_cost"] += 1e-6


REPORT_CASES = {
    "predict": [("flipped verdict", _flip_verdict), ("nudged norm", _nudge_norm)],
    "gradnorm": [("flipped verdict", _flip_verdict), ("nudged norm", _nudge_norm)],
    "ac": [("nudged estimate", _nudge_accuracy)],
    "nuclear": [("nudged estimate", _nudge_accuracy)],
    "doc": [("nudged estimate", _nudge_accuracy)],
    "atc-prob": [("nudged threshold", _nudge_threshold), ("flipped verdict", _flip_verdict)],
    "atc-entropy": [("nudged threshold", _nudge_threshold)],
    "atc-energy": [("flipped verdict", _flip_verdict)],
    "cot": [("nudged cot cost", _nudge_cot_cost), ("nudged estimate", _nudge_accuracy)],
}


def _drop_row(lines):
    del lines[5]


def _shift_source_free_ae(lines):
    # first data row is calibrated-gradnorm at the smallest ratio
    fields = lines[1].split(",")
    fields[-1] = repr(min(1.0, float(fields[-1]) + 1e-3))
    lines[1] = ",".join(fields)


def _ae_out_of_range(lines):
    fields = lines[-1].split(",")
    fields[-1] = "1.5"
    lines[-1] = ",".join(fields)


BENCH_CASES = [("dropped MAE row", _drop_row), ("source-free AE varies with ratio", _shift_source_free_ae),
               ("AE outside [0, 1]", _ae_out_of_range)]


def _run_calls(cli, calls, out):
    for call in calls:
        argv = [arg.replace("{out}", str(out)) for arg in call.argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"selftest: {' '.join(argv[:3])} exited {code}")


def main() -> int:
    if not (run.SRC / "sfpp" / "cli.py").is_file():
        print(f"error: no sfpp source tree at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from sfpp import cli

    work = run.STATE / f"selftest-{os.getpid()}"
    out = work / "out"
    out.mkdir(parents=True)
    failures = 0

    def expect(label, problems, want_problems):
        nonlocal failures
        ok = bool(problems) == want_problems
        failures += not ok
        detail = problems[0] if problems else "no problem reported"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}")

    try:
        wide = workloads.build("wide-head", 0, work)
        tall = workloads.build("tall-split", 0, work)
        bench = workloads.build("bench-suite", 0, work)
        calls = [wide.calls[0]] + tall.calls + bench.calls
        _run_calls(cli, calls, out)

        for call in calls[:-1]:
            method = "predict" if call.group == "predict" else call.name
            inputs = checks.Inputs(call.inputs)
            path = out / f"{call.name}.json"
            expect(f"{call.name} genuine", checks.check_report(method, path, inputs)[0], False)
            genuine = json.loads(path.read_text("utf-8"))
            for label, corrupt in REPORT_CASES[method]:
                doc = copy.deepcopy(genuine)
                corrupt(doc)
                bad = work / f"{call.name}-corrupt.json"
                bad.write_text(json.dumps(doc), "utf-8")
                expect(f"{call.name} {label}", checks.check_report(method, bad, inputs)[0], True)

        def bench_problems(directory):
            return checks.check_bench(directory, workloads.BENCH_SCENARIOS,
                                      workloads.BENCH_RATIOS, workloads.BENCH_TRIALS)

        table = out / "bench"
        expect("bench genuine", bench_problems(table), False)
        lines = (table / "mae_table.csv").read_text("utf-8").splitlines()
        for label, corrupt in BENCH_CASES:
            bad = work / "bench-corrupt"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(table, bad)
            changed = list(lines)
            corrupt(changed)
            (bad / "mae_table.csv").write_text("\n".join(changed) + "\n", "utf-8")
            expect(f"bench {label}", bench_problems(bad), True)
        doc = json.loads((table / "mae_table.json").read_text("utf-8"))
        doc["mae"][checks.CLAIMED_BEST] = 1.0
        (bad / "mae_table.json").write_text(json.dumps(doc), "utf-8")
        (bad / "mae_table.csv").write_text("\n".join(lines) + "\n", "utf-8")
        expect("bench MAE table disagrees with its rows", bench_problems(bad), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
