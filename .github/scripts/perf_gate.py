#!/usr/bin/env python3
"""Perf gate: the parent commit's perfbench against the change's, on one runner.

    perf_gate.py PARENT_PERFBENCH CHANGE_PERFBENCH

Runs PAIRS pairs of every workload BENCHMARK.json declares, alternating
which side runs first, and compares the end-to-end metrics against the
bounds BENCHMARK.json gives them. Both binaries must be built from the same
benchmark (the same perfbench/ and BENCHMARK.json); the CI job checks that
before calling this script. The table goes to stdout and, under GitHub
Actions, to the job summary. Exits 1 when:

- a change run exits non-zero or reports "correct": false;
- the change fails more operations than the parent;
- a change median is worse than the parent median by more than the bound.

A metric whose parent runs spread wider than its bound (IQR / median) is
unresolved: it fails only when every change run reads worse than every
parent run.
"""

import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
RUN_ARGS = ["--seed", "7", "--seconds", "2", "--trace", "0"]
BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def run(binary, workload, cwd):
    """One perfbench run: (exit code, its closing JSON object or None)."""
    proc = subprocess.run([binary, "--workload", workload, *RUN_ARGS],
                          cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def quartiles(values):
    """[q1, median, q3]."""
    return statistics.quantiles(values, n=4, method="inclusive")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binaries = {"parent": os.path.abspath(sys.argv[1]),
                "change": os.path.abspath(sys.argv[2])}
    bench = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # values[side][workload][metric] -> one value per run that printed JSON
    values = {side: {w: {m["name"]: [] for m in metrics} for w in workloads}
              for side in binaries}
    failed_ops = dict.fromkeys(binaries, 0)
    failures = []
    with tempfile.TemporaryDirectory() as cwd:
        for pair in range(1, PAIRS + 1):
            order = ["parent", "change"] if pair % 2 else ["change", "parent"]
            for workload in workloads:
                for side in order:
                    code, doc = run(binaries[side], workload, cwd)
                    if doc is not None:
                        failed_ops[side] += doc["failed"]
                        for name, series in values[side][workload].items():
                            series.append(doc["metrics"][name]["value"])
                    correct = code == 0 and doc is not None and doc["correct"]
                    wall = f"{doc['metrics']['wall_s']['value']:.3f} s" if doc else "-"
                    print(f"pair {pair}/{PAIRS} {workload} {side}: exit {code},"
                          f" correct {correct}, wall_s {wall}",
                          file=sys.stderr, flush=True)
                    if not correct and side == "change":
                        failures.append(f"{workload} pair {pair}: the change's "
                                        f"run exited {code}, correct {correct}")
    if failed_ops["change"] > failed_ops["parent"]:
        failures.append(f"the change failed {failed_ops['change']} operations, "
                        f"the parent {failed_ops['parent']}")

    table = [
        f"### Perf gate: parent against change ({PAIRS} pairs, "
        f"{' '.join(RUN_ARGS)})",
        "",
        "| workload | metric | parent median [q1, q3] | change median [q1, q3]"
        " | change vs parent | parent IQR/median | bound | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            parent = values["parent"][workload][name]
            change = values["change"][workload][name]
            if len(parent) < 2 or len(change) < 2:
                failures.append(f"{workload} {name}: too few runs to compare")
                continue
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            lower = metric["better"] == "lower"
            # Positive means the change is worse, as a share of the parent.
            worse = (cm - pm) / pm if lower else (pm - cm) / pm
            spread = (p3 - p1) / pm
            if spread > bound:
                every_run_worse = (min(change) > max(parent) if lower
                                   else max(change) < min(parent))
                verdict = "FAIL (unresolved)" if every_run_worse else "unresolved"
                if every_run_worse:
                    failures.append(
                        f"{workload} {name}: unresolved (parent IQR/median "
                        f"{spread:.3f} > bound {bound}), but every change run "
                        "reads worse than every parent run")
            else:
                verdict = "FAIL" if worse > bound else "ok"
                if worse > bound:
                    failures.append(
                        f"{workload} {name}: change median {cm:.4g} is "
                        f"{worse:.1%} worse than the parent's {pm:.4g} "
                        f"(bound {bound:.0%})")
            unit = metric["unit"]
            table.append(
                f"| {workload} | {name} | {pm:.4g} [{p1:.4g}, {p3:.4g}] {unit}"
                f" | {cm:.4g} [{c1:.4g}, {c3:.4g}] {unit} | {(cm - pm) / pm:+.1%}"
                f" | {spread:.3f} | {bound} | {verdict} |")
    table.append("")
    table.append(f"Failed operations: parent {failed_ops['parent']}, "
                 f"change {failed_ops['change']}.")
    table.extend(f"- FAIL {f}" for f in failures)

    text = "\n".join(table) + "\n"
    print(text)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write(text)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
