"""Run every workload untraced over successive seeds and write the
run-to-run spread of each end-to-end metric to
``perfbench/results/SPREAD-<first seed>.md`` (raw results beside it in
``spread-<first seed>.json``).

    python3 perfbench/spread.py --first-seed 701 --runs 10

Runs go seed by seed, every workload once per seed, one run at a time.
Spread is (Q3 - Q1) / median with Q1 and Q3 from
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "results")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"context": json.loads(lines[-2])["context"],
            "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(bench: dict, runs: list[dict], seconds: int) -> list[str]:
    metrics = [m["name"] for m in bench["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = sorted({r["context"]["seed"] for r in runs})
    ctx0 = runs[0]["context"]
    out = [
        "# Run-to-run spread",
        "",
        f"Written by `python3 perfbench/spread.py --first-seed {seeds[0]} "
        f"--runs {len(seeds)}`: every workload once per seed, seeds "
        f"{seeds[0]}-{seeds[-1]}, `--seconds {seconds} --trace 0`, one run "
        f"at a time on one shared host (Ray num_cpus={ctx0['ray_num_cpus']}, "
        f"nproc {ctx0['nproc']}, CPU affinity {ctx0['cpu_affinity']}). Each "
        "cell is the median over the runs, then the spread (Q3 - Q1) / median "
        "in brackets. Steal is the host's steal share over each run, from "
        "/proc/stat.",
        "",
        "| workload | " + " | ".join(metrics) + " | steal % (min-max) | failed/attempted |",
        "|---|" + "---:|" * (len(metrics) + 2),
    ]
    per_workload = {}
    for r in runs:
        per_workload.setdefault(r["context"]["workload"], []).append(r)
    for w, rs in per_workload.items():
        cells = []
        for m in metrics:
            vals = [r["result"]["metrics"][m]["value"] for r in rs]
            cells.append(f"{statistics.median(vals):.4g} ({spread(vals):.3f})")
        steal = [r["context"]["mean_steal_pct"] for r in rs]
        failed = sum(r["result"]["failed"] for r in rs)
        attempted = sum(r["result"]["attempted"] for r in rs)
        out.append(f"| {w} | " + " | ".join(cells)
                   + f" | {min(steal):.2f}-{max(steal):.2f} | {failed}/{attempted} |")
    out += ["", "Bounds: " + ", ".join(f"`{m}` {b}" for m, b in bounds.items()) + "."]
    for w, rs in per_workload.items():
        out += ["", f"## {w}", "",
                "| seed | " + " | ".join(metrics) + " | steal % | op walls s |",
                "|---:|" + "---:|" * (len(metrics) + 2)]
        for r in rs:
            m = r["result"]["metrics"]
            walls = ", ".join(f"{x:.2f}" for x in r["context"]["op_walls_s"])
            out.append(f"| {r['context']['seed']} | "
                       + " | ".join(f"{m[k]['value']:.4g}" for k in metrics)
                       + f" | {r['context']['mean_steal_pct']:.2f} | {walls} |")
    return out + [""]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=701)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in (w["name"] for w in bench["workloads"]):
            runs.append(one_run(w, seed, seconds))
            print(w, seed, json.dumps(runs[-1]["result"]["metrics"]), flush=True)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"spread-{args.first_seed}.json"), "w") as f:
        json.dump(runs, f, indent=1)
    with open(os.path.join(OUT, f"SPREAD-{args.first_seed}.md"), "w") as f:
        f.write("\n".join(report(bench, runs, seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
